"""S-polynomials, the Buchberger criterion, completion, and reduced bases."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .division import remainder
from .polyring import DEFAULT_ORDER, Poly, mono_div, mono_divides, mono_lcm, monomial_key


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
    left = Poly.monomial(f.m, mono_div(lcm, lf)) * f
    right = Poly.monomial(g.m, mono_div(lcm, lg)) * g
    return left + right


def _nonzero_polys(basis) -> list:
    polys = list(basis)
    if not polys or any(not p for p in polys):
        raise ValueError("basis must be a nonempty collection of nonzero polynomials")
    return polys


@dataclass(frozen=True)
class BasisReport:
    is_groebner: bool
    is_reduced: bool
    failing_pair: Optional[tuple] = None  # (i, j, nonzero S-remainder)


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


def is_groebner(basis, order: str = DEFAULT_ORDER) -> bool:
    return check_basis(basis, order).is_groebner


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


def ideal_member(f: Poly, basis, order: str = DEFAULT_ORDER) -> bool:
    """Ideal membership test.  ``basis`` must be a Groebner basis."""
    if not f:
        return True
    return not remainder(f, list(basis), order)


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
