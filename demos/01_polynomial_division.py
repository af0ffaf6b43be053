"""
Multivariate division over GF(2)
================================

Divide a polynomial by an ordered list of divisors and inspect the
quotients, the remainder, and the reconstruction identity

    f = q1*f1 + ... + qs*fs + r.

Coefficients live in GF(2), so addition and subtraction coincide and
every polynomial is just a set of monomials.
"""

from rmgb import GRLEX, LEX, divide, format_poly, parse_poly

m = 3

# The divisors: all products (xi - 1)(xj - 1), expanded over GF(2).
G = [
    parse_poly("x1*x2 + x1 + x2 + 1", m),
    parse_poly("x1*x3 + x1 + x3 + 1", m),
    parse_poly("x2*x3 + x2 + x3 + 1", m),
]

f = parse_poly("x1*x2*x3 + x1*x3 + x3", m)

print("dividend f =", format_poly(f))
for i, g in enumerate(G, start=1):
    print(f"divisor g{i} =", format_poly(g))

# Divide under graded lexicographic order (the default).
res = divide(f, G, GRLEX)
for i, q in enumerate(res.quotients, start=1):
    print(f"q{i} =", format_poly(q))
print("r  =", format_poly(res.remainder))

# The division theorem guarantees f can be rebuilt exactly.
assert res.reconstruct(G) == f
print("reconstruction f = sum(qi*gi) + r holds")

# No monomial of the remainder is divisible by any divisor's leading
# monomial, which is what makes r a normal form.
lead_monos = [g.leading(GRLEX) for g in G]
for mono in res.remainder.support:
    # lm divides mono when no exponent of lm exceeds mono's
    assert not any(all(a <= b for a, b in zip(lm, mono)) for lm in lead_monos)
print("remainder is irreducible against the divisor list")

# The outcome depends on the order of the divisors in general.
f2 = parse_poly("x1*x2^2", 2)
d1 = parse_poly("x1*x2 + 1", 2)
d2 = parse_poly("x2^2 + 1", 2)
r12 = divide(f2, [d1, d2], LEX).remainder
r21 = divide(f2, [d2, d1], LEX).remainder
print("remainder with [d1, d2]:", format_poly(r12))
print("remainder with [d2, d1]:", format_poly(r21))
assert r12 != r21
