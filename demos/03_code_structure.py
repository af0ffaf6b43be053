"""
Binary Reed-Muller codes as powers of a radical ideal
=====================================================

RM(m-l, m) sits inside the group algebra GF(2)[X1..Xm]/(Xi^2 - 1) as
the l-th power of the radical M = <X1-1, ..., Xm-1> (Berman's theorem).
This script inspects the parameters, the Jennings basis that spans the
power, and the minimum distance.
"""

from rmgb import (
    CodeParams,
    Poly,
    berman_check,
    encode,
    format_poly,
    groebner_basis,
    jennings_basis,
    message_monomials,
    min_weight_bruteforce,
    poly_to_word,
    rank,
)

# Parameter table for a few small codes.
print(f"{'m':>2} {'l':>2} {'n':>4} {'k':>4} {'d':>3} {'t':>2}")
for m, l in [(3, 2), (4, 2), (4, 3), (5, 3)]:
    p = CodeParams(m, l)
    print(f"{p.m:>2} {p.l:>2} {p.n:>4} {p.dim:>4} {p.min_distance:>3} {p.t:>2}")

params = CodeParams(3, 2)

# Jennings basis: products g_I = prod_{i in I}(Xi - 1) with |I| >= l.
# The degree-l layer doubles as the reduced Groebner basis of the ideal.
print("\nJennings basis for (m, l) = (3, 2):")
for g in jennings_basis(params):
    w = poly_to_word(g)
    print(f"  {format_poly(g):<42} -> {w}  (weight {w.weight()})")
print("Groebner layer:", [format_poly(g) for g in groebner_basis(params)])

# Berman: the span of the Jennings rows equals the span of the encoded
# message monomials, i.e. the radical power IS the Reed-Muller code.
for l in range(0, params.m + 1):
    p = CodeParams(params.m, l)
    assert berman_check(p)
print("\nradical power matches the Reed-Muller span for all l (m = 3)")

# The Jennings rows are independent: rank equals the code dimension.
rows = [poly_to_word(g).value for g in jennings_basis(params)]
print("rank of Jennings matrix:", rank(rows), "= dim", params.dim)

# Minimum distance by brute force over all 2^k codewords.
print("minimum weight (brute force):", min_weight_bruteforce(params),
      "= claimed", params.min_distance)

# Dimension complement: dim(m, l) + dim(m, m - l + 1) = 2^m.
m = 5
for l in range(1, m + 1):
    a = CodeParams(m, l).dim
    b = CodeParams(m, m - l + 1).dim
    assert a + b == 1 << m
print("dimension complement identity holds for m = 5")

# Encoding evaluates a square-free message of degree <= m - l at all
# points of {0,1}^m; the message monomials index the information bits.
basis_polys = [Poly(params.m, [mono]) for mono in message_monomials(params)]
print("\nmessage monomials for (3, 2):", [format_poly(f) for f in basis_polys])
msg = basis_polys[1]  # x2
print(f"encode({format_poly(msg)}) = {encode(msg, params)}")
