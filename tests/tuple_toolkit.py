"""The Groebner toolkit on exponent tuples: the reference for the packed one.

These are the tuple implementations of ``divide``, ``s_polynomial``,
``check_basis``, ``is_reduced``, ``buchberger_complete`` and
``reduce_basis`` that ``rmgb`` ran before it packed monomials into ints,
kept unchanged apart from the imports and the spelling of a one-term
``Poly``.  ``tests/test_packed_toolkit.py`` pins the library's results
equal to theirs.  ``mono_mul``, ``mono_divides`` and ``mul`` (the old
``Poly.__mul__``) are the tuple rules that ``rmgb.polyring`` ran before
``Poly.__mul__`` packed its monomials; ``tests/test_polyring.py`` pins
the packed product to ``mul``, overflow errors included.
``monomial_key`` is the lex and grlex order as tuple sort keys, which
``rmgb.polyring`` used before ``MonomialPacking`` became the one
definition of each order; ``tests/test_polyring.py`` pins the packing,
``Poly.leading`` and ``format_poly`` to it.

``subset_monomial`` and ``monomial_subset`` are the exponent-tuple form of
the subset map that ``rmgb.rmcode`` keeps on ``Word.value`` bits
(``subset_bit``, ``bit_subset``); the kernel and decoder tests read
subsets through them as an independent reference.
"""

from __future__ import annotations

from collections import deque

from rmgb.division import DivisionResult
from rmgb.groebner import BasisReport
from rmgb.polyring import DEFAULT_ORDER, EXPONENT_CAP, GRLEX, LEX, ORDERS, Poly


def monomial_key(order: str):
    """Return a sort key function realizing the given monomial order."""
    if order == LEX:
        return lambda mono: mono
    if order == GRLEX:
        return lambda mono: (sum(mono), mono)
    raise ValueError(f"unknown monomial order {order!r}, expected one of {ORDERS}")


def mono_mul(a, b):
    if len(a) != len(b):
        raise ValueError("cannot multiply monomials in different variable counts")
    prod = tuple(x + y for x, y in zip(a, b))
    if any(e > EXPONENT_CAP for e in prod):
        raise ValueError(f"exponent overflow: product {prod} exceeds cap {EXPONENT_CAP}")
    return prod


def mono_divides(a, b):
    """True when monomial ``a`` divides monomial ``b``."""
    if len(a) != len(b):
        raise ValueError("cannot compare monomials in different variable counts")
    return all(x <= y for x, y in zip(a, b))


def mul(f: Poly, g: Poly) -> Poly:
    """``f * g``: each pair of monomials multiplied by ``mono_mul``, in support order."""
    acc: set = set()
    for a in f.support:
        for b in g.support:
            acc ^= {mono_mul(a, b)}
    return Poly(f.m, acc)


def mono_div(b, a):
    """Quotient ``b / a``.  Raises ValueError when ``a`` does not divide ``b``."""
    if not mono_divides(a, b):
        raise ValueError(f"monomial {a} does not divide {b}")
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    if len(a) != len(b):
        raise ValueError("cannot compare monomials in different variable counts")
    return tuple(max(x, y) for x, y in zip(a, b))


def subset_monomial(m: int, subset) -> tuple:
    """Exponent tuple of X_I for a subset I of {1, ..., m}."""
    subset = frozenset(subset)
    for i in subset:
        if not 1 <= i <= m:
            raise ValueError(f"index {i} out of range 1..{m}")
    return tuple(1 if i + 1 in subset else 0 for i in range(m))


def monomial_subset(mono) -> frozenset:
    """Subset I with X_I equal to the given square-free monomial."""
    if any(e not in (0, 1) for e in mono):
        raise ValueError(f"monomial {mono} is not square-free")
    return frozenset(i + 1 for i, e in enumerate(mono) if e)


def divide(f: Poly, divisors, order: str = DEFAULT_ORDER) -> DivisionResult:
    """Divide ``f`` by an ordered sequence of nonzero divisors."""
    divisors = list(divisors)
    if not divisors:
        raise ValueError("need at least one divisor")
    for d in divisors:
        if not isinstance(d, Poly) or d.m != f.m:
            raise ValueError("divisors must be Poly in the same variables as f")
        if not d:
            raise ValueError("cannot divide by the zero polynomial")
    key = monomial_key(order)
    leads = [d.leading(order) for d in divisors]

    work = set(f.support)
    quotients = [set() for _ in divisors]
    rem: set = set()
    while work:
        lead = max(work, key=key)
        for i, dlead in enumerate(leads):
            if mono_divides(dlead, lead):
                q = mono_div(lead, dlead)
                quotients[i] ^= {q}
                # subtract q * divisor; in GF(2) that is a symmetric difference,
                # and it cancels `lead` itself since q * dlead == lead
                work ^= {mono_mul(q, mono) for mono in divisors[i].support}
                break
        else:
            rem.add(lead)
            work.remove(lead)
    return DivisionResult(
        quotients=tuple(Poly._make(f.m, frozenset(q)) for q in quotients),
        remainder=Poly._make(f.m, frozenset(rem)),
    )


def remainder(f: Poly, divisors, order: str = DEFAULT_ORDER) -> Poly:
    """Remainder of ``f`` on division by the given divisors."""
    return divide(f, divisors, order).remainder


def s_polynomial(f: Poly, g: Poly, order: str = DEFAULT_ORDER) -> Poly:
    """S-polynomial of ``f`` and ``g``, cancelling their leading terms.

    With lcm ``L`` of the leading monomials, this is
    ``(L / lm(f)) * f + (L / lm(g)) * g``; over GF(2) the minus sign of
    the textbook formula is a plus.  S(f, f) is zero.
    """
    if not f or not g:
        raise ValueError("s_polynomial requires nonzero polynomials")
    lf = f.leading(order)
    lg = g.leading(order)
    lcm = mono_lcm(lf, lg)
    left = mul(Poly(f.m, [mono_div(lcm, lf)]), f)
    right = mul(Poly(g.m, [mono_div(lcm, lg)]), g)
    return left + right


def _nonzero_polys(basis) -> list:
    polys = list(basis)
    if not polys or any(not p for p in polys):
        raise ValueError("basis must be a nonempty collection of nonzero polynomials")
    return polys


def check_basis(basis, order: str = DEFAULT_ORDER) -> BasisReport:
    """Test the Buchberger criterion on every pair, plus reducedness.

    A basis is Groebner exactly when every pairwise S-polynomial leaves
    zero remainder on division by the whole basis.  The first violation
    found (scanning pairs in index order) is reported.
    """
    polys = _nonzero_polys(basis)
    failing = None
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j], order)
            if not s:
                continue
            r = remainder(s, polys, order)
            if r:
                failing = (i, j, r)
                break
        if failing:
            break
    return BasisReport(
        is_groebner=failing is None,
        is_reduced=is_reduced(polys, order),
        failing_pair=failing,
    )


def is_reduced(basis, order: str = DEFAULT_ORDER) -> bool:
    """True when no monomial of any element is divisible by another's lead.

    This is the usual reducedness condition for monic bases; over GF(2)
    every nonzero polynomial is monic.
    """
    polys = _nonzero_polys(basis)
    leads = [p.leading(order) for p in polys]
    for i, p in enumerate(polys):
        for j, lead in enumerate(leads):
            if i == j:
                continue
            if any(mono_divides(lead, mono) for mono in p.support):
                return False
    return True


def buchberger_complete(generators, order: str = DEFAULT_ORDER, max_additions: int = 10000):
    """Complete a generating set to a Groebner basis (Buchberger's algorithm).

    Pairs are processed first-in first-out; every nonzero S-remainder is
    appended to the basis and paired against all earlier elements.  The
    output contains the input generators.  Raises RuntimeError if more
    than ``max_additions`` elements get added, as a divergence guard.
    """
    basis = []
    for g in generators:
        if g and g not in basis:
            basis.append(g)
    if not basis:
        raise ValueError("need at least one nonzero generator")
    pairs = deque((i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    additions = 0
    while pairs:
        i, j = pairs.popleft()
        s = s_polynomial(basis[i], basis[j], order)
        if not s:
            continue
        r = remainder(s, basis, order)
        if not r:
            continue
        basis.append(r)
        additions += 1
        if additions > max_additions:
            raise RuntimeError(f"Buchberger completion exceeded {max_additions} additions")
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))
    return tuple(basis)


def reduce_basis(basis, order: str = DEFAULT_ORDER):
    """Reduce a Groebner basis to the unique reduced Groebner basis.

    First drop elements whose leading monomial is divisible by another's
    (minimalization), then replace each survivor by its remainder on
    division by the others until nothing changes.  Output is sorted by
    descending leading monomial.
    """
    key = monomial_key(order)
    polys = []
    for p in basis:
        if p and p not in polys:
            polys.append(p)
    if not polys:
        raise ValueError("cannot reduce an empty basis")

    # minimalize: scan by ascending leading monomial so survivors are kept
    polys.sort(key=lambda p: key(p.leading(order)))
    minimal = []
    for p in polys:
        lead = p.leading(order)
        if not any(mono_divides(q.leading(order), lead) for q in minimal):
            minimal.append(p)

    # interreduce tails to a fixpoint; leading monomials are now pairwise
    # non-divisible so remainders stay nonzero and keep their leads
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(minimal):
            others = minimal[:i] + minimal[i + 1:]
            r = remainder(p, others, order) if others else p
            if r != p:
                minimal[i] = r
                changed = True
    minimal.sort(key=lambda p: key(p.leading(order)), reverse=True)
    return tuple(minimal)
