"""Multivariate division with remainder over GF(2).

Division of ``f`` by an ordered list of divisors ``(f1, ..., fs)``
produces quotients ``a1, ..., as`` and a remainder ``r`` with

    f = a1*f1 + ... + as*fs + r

where no monomial of ``r`` is divisible by any leading monomial of the
divisors, and multideg(ai*fi) <= multideg(f) whenever ``ai*fi`` is
nonzero.  The scan policy is the classical one: at each step the
leading monomial of the working polynomial is tested against the
divisors in their given order and the first match is used; if none
matches, that monomial moves to the remainder.

The remainder generally depends on the divisor order unless the
divisors form a Groebner basis.

``divide`` packs the divisors with ``polyring.pack_polys`` and ``f``
with the same ``MonomialPacking``, reduces and unpacks the remainder.
``packed_remainder`` is the classical kernel.  It keeps the working
polynomial as a set of packed monomials and takes each leading monomial
from a max-heap with lazy deletion: every monomial that enters the set is
pushed, a popped one that has since cancelled out is skipped, so the
first popped one still in the set is its largest.

``packed_normal_form`` is the memoized kernel, for many dividends by one
divisor list.  Under the first-divisor rule, which divisor reduces a
monomial depends on that monomial alone, so the remainder (and each
quotient) is XOR-linear in the dividend: rem(f) is the sum of rem(x)
over the monomials x of f.  By induction on the lead x of f: if no
divisor divides x, rem(f) = x + rem(f + x); else its first divisor d
leaves f + x + q * tail(d), q = x / lm(d), whose monomials all lie below
x, so rem(f) = rem(f + x) + rem(q * tail(d)), and rem(x) = rem(q *
tail(d)).  The kernel keeps rem(x) for each monomial it meets, computed
once from the kept remainders of the products q * t, and sums the kept
values of the dividend's monomials.  It forms the products of every
monomial of the dividend and of every product, recursively, where the
classical kernel forms only those of the monomials that still lead when
their turn comes.  So its products are a superset of the classical
run's.  When one passes the exponent cap, or the memo has no room left,
the call runs classically, which raises where it always did, or
succeeds.

Each thread keeps one slot, ``_last``: the packing and divisor list of
its last ``divide`` or ``groebner.check_basis``, always with their memo,
which its only writer, ``basis_memo``, starts empty for each new key.
``check_basis`` reduces all its S-pairs with that memo.  ``divide`` uses
it when the slot already held its divisors: from the first call after
such a check, else from the second in a row, so a one-off division runs
the classical kernel alone.  A memo's values depend only on its packing
and divisors, so which call filled it changes no result.  Completion
and ``reduce_basis`` change their divisor list at every step and stay
classical.  ``divide``'s quotients are always computed, classically,
when first read.
"""

from __future__ import annotations

import threading
from functools import cached_property
from heapq import heapify, heappop, heappush

from .polyring import DEFAULT_ORDER, MEMO_LIMIT, MonomialPacking, Poly, Record, pack_polys

VALUES_LIMIT = 8 * MEMO_LIMIT  # values per normal-form memo: a check_basis at m = 12 needs up to ~29k


class DivisionResult(Record):
    """Quotients and remainder; ``divide``'s quotients are computed, classically, when first read."""

    _fields = ("quotients", "remainder")

    def __init__(self, quotients, remainder: Poly, packing: MonomialPacking | None = None):
        # with a packing, ``quotients`` is (dividend, packed divisors)
        self._set("quotients" if packing is None else "_division", quotients)
        self._set("remainder", remainder)
        self._set("_packing", packing)

    @cached_property
    def quotients(self) -> tuple:  # read only when lazy: ``__init__`` sets given ones
        (f, divisors), packing = self._division, self._packing
        packed = [[] for _ in divisors]
        packed_remainder(set(map(packing.pack, f.support)), divisors, packing, packed)
        return tuple(map(packing.poly, packed))

    def reconstruct(self, divisors) -> Poly:
        """Recompute ``sum(quotient * divisor) + remainder``."""
        acc = self.remainder
        for q, d in zip(self.quotients, divisors):
            acc = acc + q * d
        return acc


def packed_remainder(work: set, divisors, packing: MonomialPacking, quotients=None) -> list:
    """Remainder of packed ``work`` on division by packed ``divisors``.

    ``work`` is a set of packed monomials and is used up.  ``divisors``
    is a sequence of ``packing.split`` pairs ``(lead, tail)``, scanned in
    order for the first lead that divides.  When ``quotients`` is given,
    the quotient monomials for divisor ``i`` are appended to
    ``quotients[i]``.  Returns the remainder's monomials in descending
    order.
    """
    guard, room = packing.guard, packing.room
    heap = [-p for p in work]
    heapify(heap)
    rem = []
    while heap:
        lead = -heappop(heap)
        if lead not in work:
            continue
        work.remove(lead)
        for divisor in divisors:
            q = lead - divisor[0]  # the quotient when no field borrows (polyring's docstring)
            if not q & guard:
                if quotients is not None:  # an equal divisor before this one would have divided first
                    quotients[divisors.index(divisor)].append(q)
                # subtract q * divisor: its lead cancels `lead`; each tail product toggles in `work`
                for t in divisor[1]:
                    p = q + t
                    if (p + room) & guard:
                        raise packing.overflow(p)
                    if p in work:
                        work.remove(p)
                    else:
                        work.add(p)
                        heappush(heap, -p)
                break
        else:
            rem.append(lead)
    return rem


def packed_normal_form(work: set, divisors, packing: MonomialPacking, memo) -> list:
    """``packed_remainder(work, divisors, packing)``, summed from remembered remainders of monomials.

    ``memo`` is a pair ``(values, standard)``, an empty dict and list at
    first, kept for one ``divisors`` and ``packing``.  ``values[x]`` is
    the remainder of monomial ``x`` as a bitset: bit k stands for the
    irreducible monomial ``standard[k]``.  A monomial with one product
    shares that product's value.  ``standard`` holds at most
    ``MEMO_LIMIT`` monomials, so a bitset has at most that many bits.
    Once ``values`` holds ``VALUES_LIMIT`` entries it takes no more (the
    walk that crosses the limit finishes) and serves those it holds.  A
    call whose monomials the memo cannot value within those limits, or
    that meets a product past the exponent cap, runs ``packed_remainder``
    instead and uses ``work`` up.
    """
    values, standard = memo
    acc = 0
    for x in work:
        v = values.get(x)
        if v is None:
            v = None if len(values) >= VALUES_LIMIT else _normal_value(x, divisors, packing, memo)
            if v is None:
                return packed_remainder(work, divisors, packing)
        acc ^= v
    rem = []
    while acc:
        low = acc & -acc
        rem.append(standard[low.bit_length() - 1])
        acc ^= low
    rem.sort(reverse=True)
    return rem


def _normal_value(x: int, divisors, packing: MonomialPacking, memo) -> int | None:
    """Fill ``memo`` for ``x`` and return its value; None past the cap or a full ``standard``.

    A post-order walk: a monomial is expanded once, into its products
    with the tail of its first divisor, and valued when all of them are.
    Products lie below the monomial, so a monomial on the walk's path is
    never met again below itself.  Each monomial is tested against the
    cap when it is first popped, before it is valued.
    """
    values, standard = memo
    guard, room = packing.guard, packing.room
    stack = [x]
    while stack:
        y = stack.pop()
        if y.__class__ is tuple:  # (y, products), every product valued
            y, products = y
            v = values[products[0]] if products else 0  # one product: its value is shared, not copied
            for k in range(1, len(products)):
                v ^= values[products[k]]
            values[y] = v
            continue
        if y in values:
            continue
        if (y + room) & guard:  # a product past the cap
            return None
        for lead, tail in divisors:
            q = y - lead
            if not q & guard:
                break
        else:
            if len(standard) >= MEMO_LIMIT:
                return None
            values[y] = 1 << len(standard)
            standard.append(y)
            continue
        products = [q + t for t in tail]
        stack.append((y, products))
        for p in products:
            if p not in values:
                stack.append(p)
    return values[x]


class _LastDivisors(threading.local):
    key = memo = None  # (packing, packed divisors) of this thread's last divide or check_basis, and their memo


_last = _LastDivisors()


def basis_memo(packing: MonomialPacking, packed) -> tuple:
    """This thread's memo for ``packed`` divisors under ``packing``: the slot's, or a fresh one put there."""
    if _last.key != (packing, packed):
        _last.key, _last.memo = (packing, packed), ({}, [])
    return _last.memo


def divide(f: Poly, divisors, order: str = DEFAULT_ORDER) -> DivisionResult:
    """Divide ``f`` by an ordered sequence of nonzero divisors.

    When this thread's last call here or to ``groebner.check_basis`` had
    equal divisors in the same order and monomial order, the remainder
    comes from ``packed_normal_form`` with that call's memo.  The
    quotients are always computed, classically, when first read.
    """
    packing, packed = pack_polys(divisors, order)
    if not isinstance(f, Poly) or f.m != packing.m:
        raise ValueError("f must be a Poly in the same variables as the divisors")
    work = set(map(packing.pack, f.support))
    held = _last.memo  # basis_memo returns it again only when the slot holds these divisors
    memo = basis_memo(packing, packed)
    rem = packed_normal_form(work, packed, packing, memo) if memo is held else packed_remainder(work, packed, packing)
    return DivisionResult((f, packed), packing.poly(rem), packing)


def remainder(f: Poly, divisors, order: str = DEFAULT_ORDER) -> Poly:
    """Remainder of ``f`` on division by the given divisors."""
    return divide(f, divisors, order).remainder
