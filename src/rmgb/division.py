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
with the same ``MonomialPacking``, runs ``packed_remainder`` and unpacks
the remainder; the quotients stay packed until read.  ``packed_remainder``
keeps the working polynomial as a set of packed monomials and takes each
leading monomial from a max-heap with lazy deletion: every monomial that
enters the set is pushed, a popped one that has since cancelled out is
skipped, so the first popped one still in the set is its largest.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush

from .polyring import DEFAULT_ORDER, MonomialPacking, Poly, Record, pack_polys


class DivisionResult(Record):
    """Quotients and remainder; ``divide``'s quotients unpack when first read."""

    _fields = ("quotients", "remainder")

    def __init__(self, quotients, remainder: Poly, packing: MonomialPacking | None = None):
        self._set("quotients" if packing is None else "_packed", quotients)
        self._set("remainder", remainder)
        self._set("_packing", packing)

    @cached_property
    def quotients(self) -> tuple:  # read only while packed: ``__init__`` sets unpacked ones
        return tuple(map(self._packing.poly, self._packed))

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


def divide(f: Poly, divisors, order: str = DEFAULT_ORDER) -> DivisionResult:
    """Divide ``f`` by an ordered sequence of nonzero divisors."""
    packing, packed = pack_polys(divisors, order)
    if not isinstance(f, Poly) or f.m != packing.m:
        raise ValueError("f must be a Poly in the same variables as the divisors")
    quotients = [[] for _ in packed]
    rem = packed_remainder(set(map(packing.pack, f.support)), packed, packing, quotients)
    return DivisionResult(quotients, packing.poly(rem), packing)


def remainder(f: Poly, divisors, order: str = DEFAULT_ORDER) -> Poly:
    """Remainder of ``f`` on division by the given divisors."""
    return divide(f, divisors, order).remainder
