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

``divide`` takes the divisors packed by ``polyring.pack_polys``, through
the slot below, packs ``f`` with the same ``MonomialPacking``, reduces
and unpacks the remainder.  ``packed_remainder`` is the classical
kernel.  It keeps the working polynomial as a set of packed monomials
and takes each leading monomial from a max-heap with lazy deletion:
every monomial that enters the set is pushed, a popped one that has
since cancelled out is skipped, so the first popped one still in the set
is its largest.

``memo_remainder`` is the memoized kernel, for many dividends by one
divisor list.  Under the first-divisor rule, which divisor reduces a
monomial depends on that monomial alone, so the remainder (and each
quotient) is XOR-linear in the dividend: rem(f) is the sum of rem(x)
over the monomials x of f.  By induction on the lead x of f: if no
divisor divides x, rem(f) = x + rem(f + x); else its first divisor d
leaves f + x + q * tail(d), q = x / lm(d), whose monomials all lie below
x, so rem(f) = rem(f + x) + rem(q * tail(d)), and rem(x) = rem(q *
tail(d)).  The kernel keeps rem(x) for each monomial it meets, computed
once from the kept remainders of the products q * t, and sums the kept
values of the dividend's monomials.  So a memo's values depend only on
the packing and on the divisors' leads, in their order, and tail sets,
not on the order of a tail's monomials.  It forms the products of every
monomial of the dividend and of every product, recursively, where the
classical kernel forms only those of the monomials that still lead when
their turn comes.  So its products are a superset of the classical
run's.  When one passes the exponent cap, or the memo has no room left,
it returns None and its caller runs the classical kernel, which raises
where it always did, or succeeds.

Buchberger completion keeps one memo while its divisor list changes:
each element it adds is appended, and evicts the elements whose leads
its lead divides.  ``kill`` follows the list through each such entry.

* Append.  A reducible monomial keeps its first divisor, and so its
  value.  An irreducible one that the new lead divides has the new
  element as its first divisor: its bit is killed.  The bit stays in
  the values that hold it, and where it is summed, ``memo_remainder``
  puts in its place the monomial's remainder under the new list (the
  substitution; exact, since the remainder is linear).
* Eviction.  A monomial whose first divisor was evicted gets another,
  and so may every monomial whose value was derived from it.  So a
  completion's memo records, for each value, the divisors its
  derivation used, and drops the values that used an evicted one.
* A full memo is emptied at the next entry.

Each thread keeps one slot, ``_last``, written only by ``basis_slot``:
the order and divisors, as a tuple, of its last ``divide`` or
``groebner.check_basis``, with their packing, packed pairs and memo.
Equal divisors hit it, lists and tuples alike, so a list changed in
place since misses.  Equal divisors that are not all the same objects
are packed again, since their tails may list their monomials in another
order, which decides the product that an overflow error names; they
keep the slot's memo.  ``check_basis`` sums its S-remainders off the
slot's memo without forming the S-polynomials.  ``divide`` uses the
memo when the slot already held its divisors: from the first call after
such a check, else from the second in a row, so a one-off division runs
the classical kernel alone.  ``reduce_basis`` reads completion's memo,
not this slot (``groebner``'s docstring).  ``divide``'s quotients are
always computed, classically, when first read.
"""

from __future__ import annotations

import threading
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import is_not

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


def memo_remainder(monos, divisors, packing: MonomialPacking, memo) -> list | None:
    """The remainder of the sum of ``monos``, from ``memo``; None when a monomial cannot be valued.

    ``memo`` is a list ``[values, standard, killed, used, bits]``, kept
    for one ``packing`` and for ``divisors``, or for a list that ``kill``
    has followed to them.  ``values[x]`` is the remainder of monomial
    ``x`` as a bitset: bit k stands for the monomial ``standard[k]``,
    irreducible unless ``killed`` sets bit k; a killed bit is replaced by
    that monomial's remainder.  A monomial with one product shares that
    product's value.  ``used`` is None in a memo of one divisor list, as
    ``basis_slot`` makes it, ``[{}, [], 0, None, None]``.  Completion's
    starts as ``[{}, [], 0, {}, {}]``: then ``used[x]`` sets the bits,
    ``bits[lead]``, of the divisors that ``values[x]`` was derived with.
    ``standard`` holds at most ``MEMO_LIMIT`` monomials, so a bitset has
    at most that many bits.  Once ``values`` holds ``VALUES_LIMIT``
    entries it takes no more (the walk that crosses the limit finishes)
    and serves those it holds.  ``monos`` may repeat a monomial, which
    then cancels.  A monomial the memo lacks is valued by
    ``_normal_value``, unless ``values`` is full.  The remainder is in
    descending order, as ``packed_remainder``'s.
    """
    values, standard, killed, _, _ = memo
    acc = 0
    while monos:
        for x in monos:
            v = values.get(x)
            if v is None:
                v = None if len(values) >= VALUES_LIMIT else _normal_value(x, divisors, packing, memo)
                if v is None:
                    return None
            acc ^= v
        stale = acc & killed  # substitution: a killed bit's monomial is summed in its place
        acc ^= stale
        monos = _monomials(stale, standard)
    rem = _monomials(acc, standard)
    rem.sort(reverse=True)
    return rem


def _monomials(bitset: int, standard: list) -> list:
    """The monomials of ``standard`` whose bits ``bitset`` sets."""
    monos = []
    while bitset:
        low = bitset & -bitset
        monos.append(standard[low.bit_length() - 1])
        bitset ^= low
    return monos


def kill(memo, divisors, lead: int, guard: int) -> None:
    """Follow completion's ``memo`` from ``divisors`` through the entry of an element with lead ``lead``.

    The rules for the append and the evictions are in the module
    docstring.  A full memo is emptied instead.
    """
    values, standard, killed, used, bits = memo
    if len(values) >= VALUES_LIMIT or len(standard) >= MEMO_LIMIT:
        memo[:] = [{}, [], 0, {}, {}]
        return
    evicted = 0  # the bits of the elements that the entry evicts
    for d, _ in divisors:
        if not (d - lead) & guard:
            evicted |= bits.get(d, 0)
    if evicted:
        for x in [x for x, mask in used.items() if mask & evicted]:
            del values[x], used[x]
    for k, y in enumerate(standard):
        if not (y - lead) & guard and not killed >> k & 1:
            killed |= 1 << k
            del values[y]  # so the walk and the substitution value y afresh
    memo[2] = killed


def _normal_value(x: int, divisors, packing: MonomialPacking, memo) -> int | None:
    """Fill ``memo`` for ``x`` and return its value; None past the cap or a full ``standard``.

    A post-order walk: a monomial is expanded once, into its products
    with the tail of its first divisor, and valued when all of them are.
    Products lie below the monomial, so a monomial on the walk's path is
    never met again below itself.  Each monomial is tested against the
    cap when it is first popped, before it is valued.
    """
    values, standard, _, used, bits = memo
    guard, room = packing.guard, packing.room
    stack = [x]
    while stack:
        y = stack.pop()
        if y.__class__ is tuple:  # (y, products, lead of the divisor), every product valued
            y, products, lead = y
            v = values[products[0]] if products else 0  # one product: its value is shared, not copied
            for k in range(1, len(products)):
                v ^= values[products[k]]
            values[y] = v
            if used is not None:  # the divisors that y's value is derived with, one bit per lead
                mask = bits.setdefault(lead, 1 << len(bits))
                for p in products:
                    mask |= used.get(p, 0)
                used[y] = mask
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
        stack.append((y, products, lead))
        for p in products:
            if p not in values:
                stack.append(p)
    return values[x]


class _LastDivisors(threading.local):
    key = packing = packed = memo = None  # see the module docstring


_last = _LastDivisors()


def basis_slot(divisors, order: str) -> tuple:
    """``(packing, packed, memo, warm)`` of ``divisors`` under ``order``, from this thread's slot.

    ``warm`` is whether the slot already held these divisors, equal and
    in this order, under this monomial order; else they are packed by
    ``pack_polys`` and put there with an empty memo.  Equal divisors
    that are not all the same objects are packed again, and keep the memo.
    """
    key = order, tuple(divisors)  # a snapshot, which a list changed in place no longer equals
    warm = _last.key == key
    if not warm or any(map(is_not, key[1], _last.key[1])):
        _last.packing, _last.packed = pack_polys(key[1], order)
        _last.key, _last.memo = key, _last.memo if warm else [{}, [], 0, None, None]
    return _last.packing, _last.packed, _last.memo, warm


def divide(f: Poly, divisors, order: str = DEFAULT_ORDER) -> DivisionResult:
    """Divide ``f`` by an ordered sequence of nonzero divisors.

    When this thread's last call here or to ``groebner.check_basis`` had
    equal divisors in the same order and monomial order, the remainder
    comes from ``memo_remainder`` with that call's memo, and the divisors
    are not packed again.  The quotients are always computed,
    classically, when first read.
    """
    packing, packed, memo, warm = basis_slot(divisors, order)
    if not isinstance(f, Poly) or f.m != packing.m:
        raise ValueError("f must be a Poly in the same variables as the divisors")
    work = set(map(packing.pack, f.support))
    rem = memo_remainder(work, packed, packing, memo) if warm else None
    if rem is None:
        rem = packed_remainder(work, packed, packing)
    return DivisionResult((f, packed), packing.poly(rem), packing)


def remainder(f: Poly, divisors, order: str = DEFAULT_ORDER) -> Poly:
    """Remainder of ``f`` on division by the given divisors."""
    return divide(f, divisors, order).remainder
