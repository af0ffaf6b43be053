"""Sparse multivariate polynomials over GF(2).

A monomial in ``m`` variables is an exponent tuple ``(e1, ..., em)``;
the monomial ``x1^2*x3`` in three variables is ``(2, 0, 1)``.  Since
the coefficient field is GF(2), a polynomial is fully described by its
support, the set of monomials appearing with coefficient 1, and
addition is symmetric difference of supports.

Two monomial orders are supported, both with precedence
``x1 > x2 > ... > xm``:

* ``lex``: compare exponent tuples left to right.
* ``grlex``: compare total degree first, ties broken by lex.

Exponents are capped at ``EXPONENT_CAP``; a product past it raises ValueError.
Products formed on the way can pass the cap when the reduced Groebner basis
does not: under lex, ``buchberger_complete`` raises on ``[x1*x3, x2^2*x3^2 +
x1*x3 + x2^2 + x3^2, x1^2*x2^2*x3^2 + x1*x3 + x1]``, whose reduced basis is
``[x1, x2^2*x3^2 + x2^2 + x3^2]``.  Under lex so can ideals of A =
GF(2)[X]/(X_i^2 - 1) (README, "Limits"); under grlex none has been seen to.

Products, ``Poly.leading``, ``format_poly`` and the Groebner toolkit
(division, S-polynomials, completion and basis checks) work on monomials
packed into ints by ``shared_packing(m, order)``, the one
``MonomialPacking`` per (m, order) and the one definition of each order,
and unpack only their results.  The toolkit takes its lists of
polynomials in through ``pack_polys``, which rejects an empty list, a
zero element and mixed variable counts.  Each variable gets a field of
``FIELD_BITS`` = ``EXPONENT_CAP.bit_length() + 1`` bits (4 for a cap of
4), with ``x1`` in the highest field; under grlex the total degree sits
above the fields, and under lex there is no degree field.  An exponent
is at most the cap, so it leaves the top bit of its field, the guard
bit, clear, and a product of two monomials, up to twice the cap per
variable, still fits its field.  With that invariant:

* int comparison is the monomial order;
* a product is an int addition and a quotient a subtraction;
* ``a`` divides ``b`` exactly when ``(b - a) & G == 0``, ``G`` having
  every guard bit set: the lowest field with ``b_i < a_i`` borrows and
  sets its guard bit.  In ``(b | G) - a`` no field borrows, and a field
  keeps its guard bit exactly when ``b_i >= a_i``, as ``lcm`` reads;
* a product exceeds the cap exactly when adding
  ``2^(FIELD_BITS - 1) - 1 - EXPONENT_CAP`` to each field sets a guard
  bit.

A packing memoizes ``pack``, ``unpack`` and ``lcm``, each in a
least-recently-used table of at most ``MEMO_LIMIT`` entries, so memory
stays bounded up to m = 16; it pickles and copies as the shared packing.
``pack_polys`` splits each polynomial into ``(lead, tail)`` at every
call; a ``divide`` by the divisors that ``division``'s slot holds splits
nothing.  The tail is a tuple in ``f.support``'s iteration order, which
decides the product that an overflow error names.
"""

from __future__ import annotations

import copyreg
import re
from collections.abc import Iterable
from functools import lru_cache
from operator import attrgetter

Monomial = tuple  # exponent tuple, one entry per variable

LEX = "lex"
GRLEX = "grlex"
ORDERS = (LEX, GRLEX)
DEFAULT_ORDER = GRLEX

EXPONENT_CAP = 4
MAX_VARS = 16
FIELD_BITS = EXPONENT_CAP.bit_length() + 1  # packed field width; see the module docstring
MEMO_LIMIT = 1 << 12  # entries per memo of a packing; see the module docstring


class Record:
    """Base of the immutable value types: ``Poly``, ``rmcode.Word`` and the rest.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` with ``self._set(name, value)``; assigning or deleting one
    later raises AttributeError.  Records of one class are equal when their
    fields are; they hash on the fields and show as ``Name(field=value, ...)``.
    A slotted record pickles and copies as its class called with its fields;
    one with a ``__dict__`` as that dict, so its lazy attributes stay unbuilt.
    """

    __slots__ = ()
    _set = object.__setattr__  # past the raising __setattr__; a method, so calls to it specialize

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # a tuple, given two or more fields

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # called with no value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        if hasattr(self, "__dict__"):
            return copyreg.__newobj__, (type(self),), self.__dict__
        return type(self), self._values(self)


class Poly(Record):
    """Immutable polynomial over GF(2), stored as a frozenset of monomials.

    Supports ``+`` (which is also subtraction in characteristic 2),
    ``*``, equality, hashing, and truthiness (zero polynomial is falsy).
    """

    __slots__ = _fields = ("m", "support")

    def __init__(self, m: int, monomials: Iterable[Monomial] = ()):
        if not (type(m) is int and 1 <= m <= MAX_VARS):
            raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {m}")
        support: set = set()
        for mono in monomials:
            mono = tuple(mono)
            if len(mono) != m:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {m}")
            for e in mono:
                if type(e) is not int or e < 0:
                    raise ValueError(f"bad exponent in monomial {mono}")
                if e > EXPONENT_CAP:
                    raise ValueError(f"exponent {e} exceeds cap {EXPONENT_CAP}")
            support ^= {mono}  # coefficients are mod 2, duplicates cancel
        self._set("m", m)
        self._set("support", frozenset(support))

    @classmethod
    def _make(cls, m: int, support: frozenset) -> "Poly":
        # internal fast path: support is already a validated frozenset
        self = object.__new__(cls)
        self._set("m", m)
        self._set("support", support)
        return self

    def __bool__(self) -> bool:
        return bool(self.support)

    def __len__(self) -> int:
        return len(self.support)

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        return Poly._make(self.m, self.support ^ other.support)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        packing = shared_packing(self.m, LEX)
        right = [packing.pack(b) for b in other.support]
        acc = set()
        for a in self.support:
            packing.add_products(acc, packing.pack(a), right)
        return packing.poly(acc)

    def _check_compatible(self, other) -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.m != other.m:
            raise ValueError(f"variable count mismatch: {self.m} vs {other.m}")

    def leading(self, order: str = DEFAULT_ORDER) -> Monomial:
        """Leading monomial.  Over GF(2) this is also the leading term."""
        if not self.support:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.support, key=shared_packing(self.m, order).pack)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.m}, {format_poly(self)!r})"


class MonomialPacking:
    """Monomials of ``m`` variables packed into ints whose order is ``order``.

    The layout and the guard-bit invariant are in the module docstring;
    they hold only for monomials whose exponents are at most
    ``EXPONENT_CAP``.  Callers read ``guard`` (every guard bit) and
    ``room`` (the per-field headroom below the guard bit that is left
    over the cap) and test divisibility and overflow inline.  ``pack``,
    ``unpack`` and ``lcm`` memoize ``_pack``, ``_unpack`` and ``_lcm``.
    """

    __slots__ = ("m", "grlex", "guard", "room", "_fields", "_planes", "_shifts", "pack", "unpack", "lcm")

    def __init__(self, m: int, order: str):
        if order not in ORDERS:
            raise ValueError(f"unknown monomial order {order!r}, expected one of {ORDERS}")
        ones = sum(1 << FIELD_BITS * k for k in range(m))  # lowest bit of every field
        self.m = m
        self.grlex = order == GRLEX
        self.guard = ones << (FIELD_BITS - 1)
        self.room = ones * ((1 << (FIELD_BITS - 1)) - 1 - EXPONENT_CAP)
        self._fields = ones * ((1 << FIELD_BITS) - 1)
        self._planes = [ones << k for k in range(FIELD_BITS - 1)]
        self._shifts = [FIELD_BITS * k for k in reversed(range(m))]
        self.pack = lru_cache(MEMO_LIMIT)(self._pack)
        self.unpack = lru_cache(MEMO_LIMIT)(self._unpack)
        self.lcm = lru_cache(MEMO_LIMIT)(self._lcm)

    def __reduce__(self):  # the memos do not pickle; a copy is the shared packing
        return shared_packing, (self.m, GRLEX if self.grlex else LEX)

    def _pack(self, mono: Monomial) -> int:
        p = sum(mono) if self.grlex else 0
        for e in mono:
            p = p << FIELD_BITS | e
        return p

    def _unpack(self, p: int) -> Monomial:
        mask = (1 << FIELD_BITS) - 1
        return tuple(p >> shift & mask for shift in self._shifts)

    def split(self, f: Poly):
        """``(lead, tail)`` of a nonzero ``f``: its packed leading monomial, and
        a tuple of its other monomials packed, in the order ``f.support`` yields
        them."""
        tail = [self.pack(mono) for mono in f.support]
        lead = max(tail)
        tail.remove(lead)
        return lead, tuple(tail)

    def poly(self, packed) -> Poly:
        return Poly._make(self.m, frozenset(map(self.unpack, packed)))

    def _lcm(self, a: int, b: int) -> int:
        guard = self.guard
        a_wins = (((a | guard) - b) & guard) >> (FIELD_BITS - 1)  # a_i >= b_i, one bit per field
        take_a = a_wins * ((1 << FIELD_BITS) - 1)
        fields = (a & take_a | b & ~take_a) & self._fields
        if self.grlex:
            degree = 0  # a loop, not sum() over a generator: lcm sits on the pair-update path
            for k, plane in enumerate(self._planes):
                degree += (fields & plane).bit_count() << k
            fields |= degree << FIELD_BITS * self.m
        return fields

    def add_products(self, acc: set, a: int, monos) -> None:
        """Add ``a * b`` for each b in ``monos`` to the packed set ``acc``, mod 2, under the cap."""
        guard, room = self.guard, self.room
        for b in monos:
            p = a + b
            if (p + room) & guard:
                raise self.overflow(p)
            if p in acc:
                acc.remove(p)
            else:
                acc.add(p)

    def overflow(self, p: int) -> ValueError:
        """The error for a packed product ``p`` with an exponent above the cap."""
        return ValueError(f"exponent overflow: product {self.unpack(p)} exceeds cap {EXPONENT_CAP}")


@lru_cache(maxsize=len(ORDERS) * MAX_VARS)
def shared_packing(m: int, order: str) -> MonomialPacking:
    """The one ``MonomialPacking`` of ``m`` variables under ``order``, whose memos its callers share."""
    return MonomialPacking(m, order)


def pack_polys(polys, order: str):
    """A packing for ``polys``, nonzero and in the same variables, and each
    one's ``(lead, tail)`` pair; the error for a zero one names its position."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    for k, p in enumerate(polys, start=1):
        Poly._check_compatible(polys[0], p)  # k = 1 checks polys[0] is a Poly too
        if not p.support:
            raise ValueError(f"polynomial {k} of {len(polys)} is zero; expected nonzero polynomials")
    packing = shared_packing(polys[0].m, order)
    return packing, [packing.split(p) for p in polys]


_FACTOR_RE = re.compile(r"[xXyY](\d+)(?:\^(\d+))?")


def parse_poly(text: str, m: int) -> Poly:
    """Parse polynomial text like ``"x1*x2^2 + x3 + 1"`` into a Poly.

    Grammar: terms are joined by ``+``, each term is a ``*``-separated
    product of factors ``1`` or ``x<i>`` or ``x<i>^<e>``.  The string
    ``"0"`` denotes the zero polynomial.  Whitespace is ignored, the
    variable letter is case-insensitive and ``y`` is accepted as an
    alias for ``x``.  A ``-`` is treated as ``+`` since -1 = 1 mod 2.
    """
    Poly(m)  # rejects a bad m before the terms use it
    stripped = "".join(text.split())
    if not stripped:
        raise ValueError("empty polynomial text")
    stripped = stripped.replace("-", "+")
    monomials = []
    for term in stripped.split("+"):
        if term == "":
            raise ValueError(f"empty term in polynomial text {text!r}")
        if term == "0":
            continue
        exps = [0] * m
        for factor in term.split("*"):
            if factor == "1":
                continue
            match = _FACTOR_RE.fullmatch(factor)
            if match is None:
                raise ValueError(f"cannot parse factor {factor!r} in term {term!r}")
            idx = int(match.group(1))
            exp = int(match.group(2)) if match.group(2) else 1
            if not 1 <= idx <= m:
                raise ValueError(f"variable index {idx} out of range 1..{m}")
            exps[idx - 1] += exp
        monomials.append(tuple(exps))
    return Poly(m, monomials)


def format_poly(f: Poly, order: str = DEFAULT_ORDER) -> str:
    """Render a Poly as text, terms in descending monomial order."""
    if not f:
        return "0"
    terms = []
    for mono in sorted(f.support, key=shared_packing(f.m, order).pack, reverse=True):
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        terms.append("*".join(factors) if factors else "1")
    return " + ".join(terms)
