"""S-polynomials, the Buchberger criterion, completion, and reduced bases.

Each public function packs its polynomials into ints once when it
starts (``polyring.MonomialPacking``: one int per monomial, ordered as
the monomial order), keeps each basis element as a packed
``(lead, tail)`` pair, reduces with ``division.packed_remainder`` and
unpacks only the polynomials it returns.  Buchberger completion keeps
its packed basis for the whole run, so it calls neither
``s_polynomial`` nor ``division.divide`` per pair; it skips the pairs
that the Gebauer-Moeller criteria (J. Symbolic Comput. 6, 1988) show
must reduce to zero.  ``check_basis`` forms every pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .division import packed_remainder, remainder
from .polyring import DEFAULT_ORDER, MonomialPacking, Poly


def s_polynomial(f: Poly, g: Poly, order: str = DEFAULT_ORDER) -> Poly:
    """S-polynomial of ``f`` and ``g``, cancelling their leading terms.

    With lcm ``L`` of the leading monomials, this is
    ``(L / lm(f)) * f + (L / lm(g)) * g``; over GF(2) the minus sign of
    the textbook formula is a plus.  S(f, f) is zero.
    """
    if not f or not g:
        raise ValueError("s_polynomial requires nonzero polynomials")
    packing, (a, b) = _pack([f, g], order)
    return packing.poly(_packed_s(a, b, packing))


def _packed_s(a, b, packing: MonomialPacking) -> set:
    """Packed S-polynomial of two ``(lead, tail)`` pairs.

    The two leads cancel, so only the tails are multiplied; ``a``'s
    products are checked against the cap before ``b``'s.
    """
    guard, room = packing.guard, packing.room
    lcm = packing.lcm(a[0], b[0])
    s = set()
    for lead, tail in (a, b):
        cofactor = lcm - lead
        for t in tail:
            p = cofactor + t
            if (p + room) & guard:
                raise packing.overflow(p)
            if p in s:
                s.remove(p)
            else:
                s.add(p)
    return s


def _pack(polys, order: str):
    """A packing for ``polys`` and each one's ``(lead, tail)`` pair."""
    for p in polys:
        polys[0]._check_compatible(p)
    packing = MonomialPacking(polys[0].m, order)
    return packing, [packing.split(p) for p in polys]


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
    packing, packed = _pack(polys, order)
    failing = None
    for i, j in combinations(range(len(packed)), 2):
        s = _packed_s(packed[i], packed[j], packing)
        if s:
            r = packed_remainder(s, packed, packing)
            if r:
                failing = (i, j, packing.poly(r))
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
    packing, packed = _pack(_nonzero_polys(basis), order)
    for i, (lead, tail) in enumerate(packed):
        for j, (other, _) in enumerate(packed):
            if i != j and any(packing.divides(other, mono) for mono in (lead, *tail)):
                return False
    return True


def ideal_member(f: Poly, basis, order: str = DEFAULT_ORDER) -> bool:
    """Ideal membership test.  ``basis`` must be a Groebner basis."""
    if not f:
        return True
    return not remainder(f, list(basis), order)


def buchberger_complete(generators, order: str = DEFAULT_ORDER, max_additions: int = 10000):
    """Complete a generating set to a Groebner basis (Buchberger's algorithm).

    Returns the deduplicated nonzero generators in input order, then each
    nonzero S-remainder in the order it was added: a Groebner basis that
    contains the generators.  Raises RuntimeError if more than
    ``max_additions`` elements get added, as a divergence guard.

    Pairs wait in a first-in first-out queue.  Each element ``h``,
    generators included, enters by the Gebauer-Moeller update.  It pairs
    with each ``g`` of the *active set*, the elements whose lead no later
    lead divides.  A new pair is dropped when another's lcm divides its
    lcm (of equal lcms the last stays), unless lm(g) and lm(h) are
    coprime; then the coprime ones go too (product criterion).  A queued
    pair ``(i, j)`` is dropped when lm(h) divides its lcm and that lcm
    differs from lcm(i, h) and lcm(j, h) (chain criterion).  Then ``h``
    joins the active set and evicts each element whose lead lm(h)
    divides.  S-polynomials reduce against the active set only.
    """
    basis = list(dict.fromkeys(g for g in generators if g))
    if not basis:
        raise ValueError("need at least one nonzero generator")
    packing, packed = _pack(basis, order)
    guard, lcm = packing.guard, packing.lcm
    active, pairs = [], deque()  # pairs hold (lcm, i, j)

    def update(h):
        """Enter element ``h``; return the new active set's packed elements."""
        nonlocal pairs
        hl = packed[h][0]
        new = [(lcm(packed[g][0], hl), g) for g in active]
        kept = []  # coprime pairs stay in here, to prune the others
        for k, (lc, g) in enumerate(new):
            bound = lc | guard
            if lc == packed[g][0] + hl or not any(
                    (bound - other) & guard == guard for other, _ in (*new[k + 1:], *kept)):
                kept.append((lc, g))
        pairs = deque((lc, i, j) for lc, i, j in pairs if ((lc | guard) - hl) & guard != guard
                      or lc == lcm(packed[i][0], hl) or lc == lcm(packed[j][0], hl))
        pairs.extend((lc, g, h) for lc, g in kept if lc != packed[g][0] + hl)
        active[:] = [g for g in active if ((packed[g][0] | guard) - hl) & guard != guard] + [h]
        return [packed[g] for g in active]

    for h in range(len(basis)):
        divisors = update(h)
    additions = 0
    while pairs:
        _, i, j = pairs.popleft()
        r = packed_remainder(_packed_s(packed[i], packed[j], packing), divisors, packing)
        if not r:
            continue
        basis.append(packing.poly(r))
        packed.append((r[0], r[1:]))
        additions += 1
        if additions > max_additions:
            raise RuntimeError(f"Buchberger completion exceeded {max_additions} additions")
        divisors = update(len(basis) - 1)
    return tuple(basis)


def reduce_basis(basis, order: str = DEFAULT_ORDER):
    """Reduce a Groebner basis to the unique reduced Groebner basis.

    First drop elements whose leading monomial is divisible by another's
    (minimalization), then replace each survivor by its remainder on
    division by the others until nothing changes.  Output is sorted by
    descending leading monomial.
    """
    polys = []
    for p in basis:
        if p and p not in polys:
            polys.append(p)
    if not polys:
        raise ValueError("cannot reduce an empty basis")
    packing, packed = _pack(polys, order)

    # minimalize: scan by ascending leading monomial so survivors are kept
    packed.sort(key=lambda pair: pair[0])
    minimal = []
    for lead, tail in packed:
        if not any(packing.divides(other, lead) for other, _ in minimal):
            minimal.append((lead, tail))

    # interreduce tails to a fixpoint; leading monomials are now pairwise
    # non-divisible so remainders stay nonzero and keep their leads
    changed = True
    while changed:
        changed = False
        for i, (lead, tail) in enumerate(minimal):
            others = minimal[:i] + minimal[i + 1:]
            if not others:
                continue
            terms = {lead, *tail}
            r = packed_remainder(set(terms), others, packing)
            if set(r) != terms:
                minimal[i] = (r[0], r[1:])
                changed = True
    minimal.sort(key=lambda pair: pair[0], reverse=True)
    return tuple(packing.poly((lead, *tail)) for lead, tail in minimal)
