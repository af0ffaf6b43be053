"""Binary Reed-Muller codes as radical powers of F2[X]/(X_i^2 - 1).

The group algebra A = F2[X1, ..., Xm] / (X1^2 - 1, ..., Xm^2 - 1) has a
basis of square-free monomials X_I indexed by subsets I of {1, ..., m}.
Words of length 2^m correspond to elements of A: position j (1-based,
most significant first) carries the coefficient of the j-th square-free
monomial in descending lexicographic order of exponent tuples, so
position 1 is X1*X2*...*Xm and position 2^m is the constant.

The radical of A is generated by the elements x_i = X_i - 1, and its
l-th power M^l is spanned by the products

    g_I = prod_{i in I} (X_i - 1),  |I| >= l,

which expand over GF(2) to sum_{L subset I} X_L.  Berman's theorem
identifies M^l with the Reed-Muller code RM(m - l, m) under the word
correspondence above; ``berman_check`` verifies the identification by
comparing row spaces.  The sets {g_I : |I| = l} and {X_i^2 - 1} play
the role of Groebner bases for the decoder.

In ``Word.value``, bit b is the coefficient of X_I for the I whose
indicator is the m-bit binary expansion of b, X1 being its most
significant bit; so the subsets of I are the submasks of b.  Encoding
and reduction modulo G(m, l) are then XOR transforms over submasks and
supermasks, each m masked shift-XORs on one Python int.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import gf2
from .polyring import GRLEX, MAX_VARS, Poly, monomial_key

ENUMERATION_LIMIT = 4  # largest m for which full codeword enumeration is allowed


@dataclass(frozen=True)
class CodeParams:
    """Parameters of the code M^l inside the m-variable quotient algebra."""

    m: int
    l: int

    def __post_init__(self):
        if not 1 <= self.m <= MAX_VARS:
            raise ValueError(f"m must be in 1..{MAX_VARS}, got {self.m}")
        if not 0 <= self.l <= self.m:
            raise ValueError(f"l must be in 0..m, got {self.l}")

    @property
    def n(self) -> int:
        """Block length 2^m."""
        return 1 << self.m

    @property
    def nu(self) -> int:
        """Reed-Muller order m - l."""
        return self.m - self.l

    @property
    def dim(self) -> int:
        """Dimension: sum of binomial(m, j) for j from l to m."""
        return sum(comb(self.m, j) for j in range(self.l, self.m + 1))

    @property
    def min_distance(self) -> int:
        """Minimum distance 2^l."""
        return 1 << self.l

    @property
    def t(self) -> int:
        """Guaranteed correction radius floor((2^l - 1) / 2)."""
        return ((1 << self.l) - 1) // 2


@dataclass(frozen=True)
class Word:
    """Fixed-length bit vector, most significant bit first.

    Bit j (1-based) of a length-n word is ``(value >> (n - j)) & 1``.
    """

    n: int
    value: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"word length must be positive, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value out of range for {self.n}-bit word")

    @classmethod
    def zeros(cls, n: int) -> "Word":
        return cls(n, 0)

    @classmethod
    def from_bits(cls, bits) -> "Word":
        bits = list(bits)
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            value = (value << 1) | b
        return cls(len(bits), value)

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"word string must be nonempty over 0/1, got {s!r}")
        return cls(len(s), int(s, 2))

    @property
    def bits(self) -> tuple:
        return tuple((self.value >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def weight(self) -> int:
        return self.value.bit_count()

    def flip(self, position: int) -> "Word":
        """Return a copy with the 1-based position flipped."""
        if not 1 <= position <= self.n:
            raise ValueError(f"position {position} out of range 1..{self.n}")
        return Word(self.n, self.value ^ (1 << (self.n - position)))

    def __xor__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return Word(self.n, self.value ^ other.value)

    __add__ = __xor__  # addition over GF(2)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")


@lru_cache(maxsize=None)
def monomial_positions(m: int):
    """Square-free exponent tuples in descending lex order.

    Index 0 is the all-ones tuple (the full monomial X1*...*Xm), index
    2^m - 1 is all zeros; entry j is the monomial carried by word
    position j + 1.
    """
    return tuple(
        tuple((v >> (m - 1 - j)) & 1 for j in range(m))
        for v in range((1 << m) - 1, -1, -1)
    )


@lru_cache(maxsize=None)
def _monomial_bits(m: int) -> dict:
    """Bit index in ``Word.value`` of each square-free exponent tuple."""
    return {mono: (1 << m) - 1 - i for i, mono in enumerate(monomial_positions(m))}


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


def subset_bit(m: int, subset) -> int:
    """Bit index b of X_I in ``Word.value``."""
    return _monomial_bits(m)[subset_monomial(m, subset)]


@lru_cache(maxsize=None)
def _half_masks(m: int):
    """(step, mask) per variable; mask holds the bits b < 2^m with b & step == 0."""
    n = 1 << m
    return tuple(
        (step, int(("0" * step + "1" * step) * (n // (2 * step)), 2))
        for step in (1 << i for i in range(m))
    )


def subset_xor(value: int, m: int) -> int:
    """Bit b of the result is the XOR of the bits of value at submasks of b."""
    for step, mask in _half_masks(m):
        value ^= (value & mask) << step
    return value


def superset_xor(value: int, m: int) -> int:
    """Bit b of the result is the XOR of the bits of value at supermasks of b."""
    for step, mask in _half_masks(m):
        value ^= (value >> step) & mask
    return value


@lru_cache(maxsize=None)
def _low_degree_mask(m: int, l: int) -> int:
    """The bits b < 2^m whose popcount is below l."""
    if l <= 0:
        return 0
    if m == 0:
        return 1
    return _low_degree_mask(m - 1, l) | _low_degree_mask(m - 1, l - 1) << (1 << (m - 1))


def remainder_bits(value: int, params: CodeParams) -> int:
    """Coefficient bits of the remainder of a square-free element modulo G(m, l).

    With y_i = X_i - 1, X_K is the sum of the y_J over J subset K, so the
    element's coefficients in the y basis are ``superset_xor(value)``.
    The y_J with |J| >= l span M^l and are dropped; mapping the rest back
    by the same transform leaves a combination of the standard monomials
    X_L, |L| < l, which is the unique remainder.
    """
    m = params.m
    return superset_xor(superset_xor(value, m) & _low_degree_mask(m, params.l), m)


def product_generator(m: int, subset) -> Poly:
    """The product g_I of (X_i - 1) over i in I: sum of X_L for L subset I."""
    subset = sorted(frozenset(subset))
    for i in subset:
        if not 1 <= i <= m:
            raise ValueError(f"index {i} out of range 1..{m}")
    monomials = [
        subset_monomial(m, sub)
        for k in range(len(subset) + 1)
        for sub in itertools.combinations(subset, k)
    ]
    return Poly(m, monomials)


@lru_cache(maxsize=None)
def groebner_basis(params: CodeParams):
    """The generators {g_I : |I| = l}, in descending X_I order.

    This set is the reduced Groebner basis of the ideal it generates,
    for both lex and grlex; the decoder divides by it.
    """
    return tuple(
        product_generator(params.m, subset)
        for subset in itertools.combinations(range(1, params.m + 1), params.l)
    )


@lru_cache(maxsize=None)
def square_relations(m: int):
    """The quotient relations X_i^2 - 1, one per variable."""
    out = []
    for i in range(1, m + 1):
        sq = tuple(2 if j == i - 1 else 0 for j in range(m))
        out.append(Poly(m, [sq, (0,) * m]))
    return tuple(out)


def jennings_basis(params: CodeParams):
    """Module basis {g_I : |I| >= l} of M^l, in descending X_I order."""
    out = []
    for k in range(params.m, params.l - 1, -1):
        for subset in itertools.combinations(range(1, params.m + 1), k):
            out.append(product_generator(params.m, subset))
    return tuple(out)


def word_to_poly(w: Word) -> Poly:
    """Algebra element whose coefficients are the word's bits."""
    m = w.n.bit_length() - 1
    if (1 << m) != w.n:
        raise ValueError(f"word length {w.n} is not a power of two")
    positions = monomial_positions(m)
    return Poly(m, [positions[i] for i, b in enumerate(str(w)) if b == "1"])


def poly_to_word(f: Poly) -> Word:
    """Inverse of word_to_poly; requires a square-free polynomial."""
    bits = _monomial_bits(f.m)
    value = 0
    for mono in f.support:
        if mono not in bits:  # only square-free monomials have a position
            raise ValueError("only square-free polynomials correspond to words")
        value |= 1 << bits[mono]
    return Word(1 << f.m, value)


@lru_cache(maxsize=None)
def message_monomials(params: CodeParams):
    """Square-free monomials of degree at most nu, in descending grlex order.

    These index the rows of the canonical Reed-Muller generator matrix;
    a message polynomial is any GF(2) combination of them.
    """
    key = monomial_key(GRLEX)
    monos = [
        mono
        for mono in monomial_positions(params.m)
        if sum(mono) <= params.nu
    ]
    return tuple(sorted(monos, key=key, reverse=True))


def encode(message: Poly, params: CodeParams) -> Word:
    """Evaluate a message polynomial at all points of {0,1}^m.

    The message must be square-free of total degree at most nu.  The
    bit at the position carrying exponent tuple p is message(p) mod 2;
    a square-free monomial evaluates to 1 at p exactly when its support
    is contained in the support of p, so the word is the subset-XOR
    transform of the message's coefficient bits.
    """
    if message.m != params.m:
        raise ValueError(f"message has {message.m} variables, code expects {params.m}")
    bits = poly_to_word(message).value  # raises unless square-free
    if bits & ~_low_degree_mask(params.m, params.nu + 1):
        raise ValueError(
            f"message degree {message.total_degree()} exceeds code order {params.nu}"
        )
    return Word(params.n, subset_xor(bits, params.m))


def _check_enumerable(params: CodeParams, what: str) -> None:
    if params.m > ENUMERATION_LIMIT:
        raise ValueError(f"{what} is limited to m <= {ENUMERATION_LIMIT}, got m={params.m}")


def codewords(params: CodeParams):
    """Yield all 2^dim codewords in a deterministic order (m <= 4 only)."""
    _check_enumerable(params, "codeword enumeration")
    rows = [encode(Poly.monomial(params.m, mono), params).value for mono in message_monomials(params)]
    for mask in range(1 << len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= row
        yield Word(params.n, acc)


def berman_check(params: CodeParams) -> bool:
    """Row-space equality of the radical-power basis and the RM generators."""
    radical_rows = [poly_to_word(g).bits for g in jennings_basis(params)]
    rm_rows = [encode(Poly.monomial(params.m, mono), params).bits for mono in message_monomials(params)]
    return gf2.same_row_space(gf2.bit_matrix(radical_rows), gf2.bit_matrix(rm_rows))


def min_weight_bruteforce(params: CodeParams) -> int:
    """Minimum weight over all nonzero codewords, by full enumeration."""
    _check_enumerable(params, "minimum-weight search")
    best = None
    for w in codewords(params):
        if w.value == 0:
            continue
        wt = w.weight()
        if best is None or wt < best:
            best = wt
    if best is None:
        raise ValueError("code has no nonzero codewords")
    return best


def random_message(params: CodeParams, rng) -> Poly:
    """Uniformly random message polynomial drawn from the given Random."""
    monos = message_monomials(params)
    mask = rng.getrandbits(len(monos))
    return Poly(params.m, [mono for i, mono in enumerate(monos) if (mask >> i) & 1])
