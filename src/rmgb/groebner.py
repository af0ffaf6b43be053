"""S-polynomials, the Buchberger criterion, completion, and reduced bases.

Each public function takes its polynomials in through
``polyring.pack_polys``, which packs each one (one int per monomial,
ordered as the monomial order) into a ``(lead, tail)`` pair, and unpacks
only the polynomials it returns.  Completion and ``check_basis`` sum
each S-remainder off a normal-form memo (``_s_remainder``), without
forming the S-polynomial; the classical kernel,
``division.packed_remainder``, reduces a pair only when the memo cannot
value a product.  ``check_basis`` reduces every pair by the same basis.
It takes its pairs and memo from ``division.basis_slot``, which packs
the basis only when the thread's slot does not hold it, and keeps them
there for a following ``divide`` by the same basis and order.
Completion keeps its packed basis and one memo for its whole run, and
``division.kill`` follows the memo through each element's entry to the
active list (the rules are in ``division``'s docstring).
``reduce_basis`` divides each element once, by the classical kernel.
Completion and ``check_basis`` share one pair rule, ``_update``: the
Gebauer-Moeller criteria (J. Symbolic Comput. 6, 1988).
"""

from __future__ import annotations

from .division import basis_slot, kill, memo_remainder, packed_remainder, remainder
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

    The pairs share one normal-form memo, so each monomial is reduced
    once for all of them.  It comes from ``division.basis_slot``, so the
    divides by this basis and order that follow in this thread use it.
    """
    packing, packed, memo, _ = basis_slot(basis, order)
    failing = _failing_pair(packing, packed, memo)
    return BasisReport(failing is None, _is_reduced(packing, packed), failing)


def _failing_pair(packing: MonomialPacking, packed, memo) -> tuple | None:
    active, pairs = [], []
    for h in range(len(packed)):
        _update(packing, packed, active, pairs, h)
    for pair in pairs:
        r = _s_remainder(packing, packed, pair, packed, memo)
        if r:
            return pair[1], pair[2], packing.poly(r)
    return None


def _s_remainder(packing: MonomialPacking, packed, pair: tuple, divisors, memo) -> list:
    """Packed remainder of the S-polynomial of ``pair``, ``(lcm, i, j)`` in ``packed``, on division by ``divisors``.

    ``divisors`` is ``packed`` itself in ``check_basis`` and the active
    elements in completion, whose ``memo`` follows them.  It is the sum of the memo's values of the products q * t, with q =
    lcm / lm and t in the tail, of both elements (the remainder is
    XOR-linear), so the S-polynomial is not formed.  A product of both
    elements cancels; it is never past the cap, since at most one of
    the two q holds any given variable.  When ``memo_remainder`` cannot
    value a product (a product on its walk passes the cap, or the memo
    is full), the S-polynomial is formed and reduced by the classical
    kernel, which raises at the product it meets past the cap, or gives
    the same remainder.
    """
    lcm, i, j = pair
    (a, a_tail), (b, b_tail) = packed[i], packed[j]
    qa, qb = lcm - a, lcm - b
    r = memo_remainder([qa + t for t in a_tail] + [qb + t for t in b_tail], divisors, packing, memo)
    if r is None:
        r = packed_remainder(_packed_s(packed[i], packed[j], packing), divisors, packing)
    return r


def is_reduced(basis, order: str = DEFAULT_ORDER) -> bool:
    """True when no monomial of any element is divisible by another's lead.

    This is the usual reducedness condition for monic bases; over GF(2)
    every nonzero polynomial is monic.
    """
    return _is_reduced(*pack_polys(basis, order))


def _is_reduced(packing: MonomialPacking, packed) -> bool:
    guard = packing.guard
    leads = sorted(lead for lead, _ in packed)  # a lead above a monomial cannot divide it
    for lead, tail in packed:
        for mono in (lead, *tail):
            for other in leads:
                if other >= mono:  # an equal lead divides mono, unless it is mono's own
                    if other == mono and mono != lead:
                        return False
                    break
                if not (mono - other) & guard:
                    return False
    return len(set(leads)) == len(leads)  # two elements with one lead divide each other's


def ideal_member(f: Poly, basis, order: str = DEFAULT_ORDER) -> bool:
    """Ideal membership test.  ``basis`` must be a Groebner basis."""
    return not remainder(f, basis, order)


def _nonzero(polys) -> list:
    """The distinct nonzero ``polys`` in input order; each is checked first, as ``pack_polys`` checks it."""
    polys = list(polys)
    for p in polys:
        Poly._check_compatible(polys[0], p)
    return list(dict.fromkeys(filter(None, polys)))


def buchberger_complete(generators, order: str = DEFAULT_ORDER):
    """Complete a generating set to a Groebner basis (Buchberger's algorithm).

    Returns the deduplicated nonzero generators in input order, then each
    nonzero S-remainder in the order it was added: a Groebner basis that
    contains the generators.  Raises RuntimeError if more than
    ``MAX_ADDITIONS`` elements get added, as a divergence guard.

    Each element, generators included, enters by ``_update``.  The pair
    of least ``(lcm, i, j)`` is reduced first (the normal strategy,
    Buchberger 1985), against the active set only, by ``_s_remainder``
    off one memo for the whole run, which ``division.kill`` follows
    through each entry.
    """
    basis = _nonzero(generators)
    packing, packed = pack_polys(basis, order)
    active, pairs = [], []
    for h in range(len(basis)):
        divisors = _update(packing, packed, active, pairs, h)
    pairs.sort(reverse=True)  # so the least pair is the last
    additions, memo = 0, [{}, [], 0, {}, {}]
    while pairs:
        r = _s_remainder(packing, packed, pairs.pop(), divisors, memo)
        if not r:
            continue
        basis.append(packing.poly(r))
        packed.append((r[0], r[1:]))
        additions += 1
        if additions > MAX_ADDITIONS:
            raise RuntimeError(f"Buchberger completion exceeded {MAX_ADDITIONS} additions")
        kill(memo, divisors, r[0], packing.guard)
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
    packing, packed = pack_polys(_nonzero(basis), order)
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
