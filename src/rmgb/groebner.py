"""S-polynomials, the Buchberger criterion, completion, and reduced bases.

Each public function takes its polynomials in through
``polyring.pack_polys``, which packs each one once per order (one int
per monomial, ordered as the monomial order) into a ``(lead, tail)``
pair that the polynomial remembers.  It reduces with
``division.packed_remainder`` and unpacks only the polynomials it
returns.  Buchberger completion keeps its packed basis for the whole
run.  ``check_basis`` reduces every pair by the same basis, so it uses
``division.packed_normal_form`` with one memo for all of them, kept in
``division``'s per-thread slot, where a following ``divide`` by the
same basis and order finds it.  The divisors of completion and
``reduce_basis`` change at each step, and they stay on the classical
kernel.  Completion and ``check_basis`` share one pair rule,
``_update``: the Gebauer-Moeller criteria (J. Symbolic Comput. 6, 1988).
"""

from __future__ import annotations

from .division import basis_memo, packed_normal_form, packed_remainder, remainder
from .polyring import DEFAULT_ORDER, MonomialPacking, Poly, Record, pack_polys

MAX_ADDITIONS = 10000  # S-remainders buchberger_complete may add before it gives up


def s_polynomial(f: Poly, g: Poly, order: str = DEFAULT_ORDER) -> Poly:
    """S-polynomial of ``f`` and ``g``, cancelling their leading terms.

    With lcm ``L`` of the leading monomials, this is
    ``(L / lm(f)) * f + (L / lm(g)) * g``; over GF(2) the minus sign of
    the textbook formula is a plus.  S(f, f) is zero.
    """
    packing, (a, b) = pack_polys([f, g], order)
    return packing.poly(_packed_s(a, b, packing))


def _packed_s(a, b, packing: MonomialPacking) -> set:
    """Packed S-polynomial of two ``(lead, tail)`` pairs.

    The two leads cancel, so only the tails are multiplied; ``a``'s
    products are checked against the cap before ``b``'s.
    """
    lcm = packing.lcm(a[0], b[0])
    s = set()
    for lead, tail in (a, b):
        packing.add_products(s, lcm - lead, tail)
    return s


def _update(packing: MonomialPacking, packed, active: list, pairs: list, h: int) -> list:
    """Enter element ``h`` by the Gebauer-Moeller update; return the active elements.

    ``active`` lists, ascending, the entered elements whose lead no later
    lead divides, and ``pairs`` holds ``(lcm, i, j)``, i < j; both are
    updated in place.  ``h`` pairs with each active ``g``.  A new pair is
    dropped when another's lcm divides its lcm (of equal lcms the last
    stays), unless lm(g) and lm(h) are coprime; then the coprime ones go
    too (product criterion).  A queued pair ``(i, j)`` is dropped when
    lm(h) divides its lcm and that lcm differs from lcm(i, h) and
    lcm(j, h) (chain criterion).  The queued pairs left keep their order,
    and the new ones kept follow by g.  Then ``h`` joins the active set
    and evicts each element whose lead lm(h) divides.
    """
    guard, lcm = packing.guard, packing.lcm
    hl = packed[h][0]
    new = [lcm(packed[g][0], hl) for g in active]  # a dropped pair's entry becomes None
    # lcm(i, h) of an active i is a hit in the packing's lcm memo, filled just above
    pairs[:] = [(lc, i, j) for lc, i, j in pairs if (lc - hl) & guard
                or lc == lcm(packed[i][0], hl) or lc == lcm(packed[j][0], hl)]
    for k, (g, lc) in enumerate(zip(active, new)):
        if lc == packed[g][0] + hl:
            continue  # coprime leads: the pair goes, but its lcm stays to prune the others
        new[k] = None  # so the test sees every other live lcm: the later ones and the kept earlier ones
        for other in new:
            if other is not None and not (lc - other) & guard:
                break
        else:
            new[k] = lc
            pairs.append((lc, g, h))
    active[:] = [g for g in active if (packed[g][0] - hl) & guard] + [h]
    return [packed[g] for g in active]


class BasisReport(Record):
    __slots__ = _fields = ("is_groebner", "is_reduced", "failing_pair")

    def __init__(self, is_groebner: bool, is_reduced: bool, failing_pair: tuple | None = None):
        self._set("is_groebner", is_groebner)
        self._set("is_reduced", is_reduced)
        self._set("failing_pair", failing_pair)  # (i, j, nonzero S-remainder)


def check_basis(basis, order: str = DEFAULT_ORDER) -> BasisReport:
    """Test the Buchberger criterion, plus reducedness.

    Each element enters by ``_update``, as in completion, and only the
    kept pairs are reduced, against the whole basis, in the order they
    were formed (by j, then i).  The first pair ``(i, j)``, i < j, with
    a nonzero S-remainder is reported with it.  This is exact: for each
    dropped pair (i, j), the lead of some k divides lcm(i, j), and the
    pairs of k with i and j have coprime leads or rank before (i, j) by
    (lcm, j, i descending), so Buchberger's chain condition holds (Cox,
    Little and O'Shea, ch. 2 §10, Theorem 6).  k is the entering element
    for the chain criterion, g2 for a new pair (g, h) dropped for (g2, h).
    When one lead divides another, (g, h) is never formed because some
    e, g < e < h, with lm(e) | lm(g) evicted g; then k = e: (g, e) has
    j = e < h, and lcm(e, h) divides lcm(g, h) with i = e > g.

    The pairs share one ``packed_normal_form`` memo, so each monomial is
    reduced once for all of them.  It is ``division.basis_memo``'s, so
    the divides by this basis and order that follow in this thread use it.
    """
    packing, packed = pack_polys(basis, order)
    failing = _failing_pair(packing, packed)
    return BasisReport(failing is None, _is_reduced(packing, packed), failing)


def _failing_pair(packing: MonomialPacking, packed) -> tuple | None:
    active, pairs = [], []
    for h in range(len(packed)):
        _update(packing, packed, active, pairs, h)
    memo = basis_memo(packing, packed)
    for _, i, j in pairs:
        r = packed_normal_form(_packed_s(packed[i], packed[j], packing), packed, packing, memo)
        if r:
            return i, j, packing.poly(r)
    return None


def is_reduced(basis, order: str = DEFAULT_ORDER) -> bool:
    """True when no monomial of any element is divisible by another's lead.

    This is the usual reducedness condition for monic bases; over GF(2)
    every nonzero polynomial is monic.
    """
    return _is_reduced(*pack_polys(basis, order))


def _is_reduced(packing: MonomialPacking, packed) -> bool:
    guard = packing.guard
    for i, (lead, tail) in enumerate(packed):
        for mono in (lead, *tail):
            for j, (other, _) in enumerate(packed):
                if not (mono - other) & guard and i != j:
                    return False
    return True


def ideal_member(f: Poly, basis, order: str = DEFAULT_ORDER) -> bool:
    """Ideal membership test.  ``basis`` must be a Groebner basis."""
    if not f:
        return True
    return not remainder(f, list(basis), order)


def buchberger_complete(generators, order: str = DEFAULT_ORDER):
    """Complete a generating set to a Groebner basis (Buchberger's algorithm).

    Returns the deduplicated nonzero generators in input order, then each
    nonzero S-remainder in the order it was added: a Groebner basis that
    contains the generators.  Raises RuntimeError if more than
    ``MAX_ADDITIONS`` elements get added, as a divergence guard.

    Each element, generators included, enters by ``_update``.  The pair
    of least ``(lcm, i, j)`` is reduced first (the normal strategy,
    Buchberger 1985), against the active set only.
    """
    basis = list(dict.fromkeys(g for g in generators if g))
    packing, packed = pack_polys(basis, order)
    active, pairs = [], []
    for h in range(len(basis)):
        divisors = _update(packing, packed, active, pairs, h)
    pairs.sort(reverse=True)  # so the least pair is the last
    additions = 0
    while pairs:
        _, i, j = pairs.pop()
        r = packed_remainder(_packed_s(packed[i], packed[j], packing), divisors, packing)
        if not r:
            continue
        basis.append(packing.poly(r))
        packed.append((r[0], r[1:]))
        additions += 1
        if additions > MAX_ADDITIONS:
            raise RuntimeError(f"Buchberger completion exceeded {MAX_ADDITIONS} additions")
        divisors = _update(packing, packed, active, pairs, len(basis) - 1)
        pairs.sort(reverse=True)
    return tuple(basis)


def reduce_basis(basis, order: str = DEFAULT_ORDER):
    """Reduce a Groebner basis to the unique reduced Groebner basis.

    Scan by ascending leading monomial: drop each element whose lead a
    kept lead divides (minimalization), and keep the others as their
    remainder on division by the kept ones before them.  No larger lead
    divides a monomial of an element, so this one pass leaves each kept
    element reduced.  Output is by descending leading monomial.
    """
    packing, packed = pack_polys(dict.fromkeys(p for p in basis if p), order)
    packed.sort(key=lambda pair: pair[0])
    reduced = []
    for lead, tail in packed:
        for other, _ in reduced:
            if not (lead - other) & packing.guard:
                break
        else:
            r = packed_remainder({lead, *tail}, reduced, packing)
            reduced.append((r[0], r[1:]))
    return tuple(packing.poly((lead, *tail)) for lead, tail in reversed(reduced))
