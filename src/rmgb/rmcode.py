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
comparing GF(2) ranks.  The sets {g_I : |I| = l} and {X_i^2 - 1} play
the role of Groebner bases for the decoder.

In ``Word.value``, bit b is the coefficient of X_I for the I whose
indicator is the m-bit binary expansion of b, X1 being its most
significant bit: b is the sum of 2^(m - i) over i in I, and the subsets
of I are the submasks of b.  This module owns that map: ``subset_bit``
and its inverse ``bit_subset``, and ``subset_bits`` lists the bits of
the subsets of given sizes; the decoder and the checks use them.
Encoding and reduction modulo G(m, l) are then XOR transforms over
submasks and supermasks, each m masked shift-XORs on one Python int.
A message is an int in the same convention (``encode_bits``,
``random_message_bits``), so coding a word needs no ``Poly``; ``encode``
and ``random_message`` wrap them.

``poly_to_word`` picks its path by the size of the support.  A sparse
support is written term by term through ``_monomial_index``, one tuple
hash per term.  One of more than n/4 + 32 terms is merged into
``_zero_digits(m)``, a position-ordered template of "0" digits: a
frozenset holds each element's hash, which ``dict.fromkeys`` and the
merge reuse, so no tuple is hashed again.  A monomial that is not
square-free adds a key past the n positions.  Timed cache-cold, the
merge wins above a density that falls with m (past 0.6 at m = 6, under
0.15 at m = 12); the rule lies above it at every m and keeps every
RM(3, 6) message (at most 42 terms) on the loop.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .polyring import MAX_VARS, Poly, Record

ENUMERATION_LIMIT = 4  # largest m for which full codeword enumeration is allowed
_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits to compress() selectors


class CodeParams(Record):
    """Parameters of the code M^l inside the m-variable quotient algebra.

    Set once, at construction: block length ``n`` = 2^m, Reed-Muller order
    ``nu`` = m - l and correction radius ``t`` = floor((2^l - 1) / 2).
    """

    __slots__ = ("m", "l", "n", "nu", "t")
    _fields = ("m", "l")

    def __init__(self, m: int, l: int):
        if not (type(m) is int and 1 <= m <= MAX_VARS):
            raise ValueError(f"m must be in 1..{MAX_VARS}, got {m}")
        if not (type(l) is int and 0 <= l <= m):
            raise ValueError(f"l must be in 0..m, got {l}")
        self._set("m", m)
        self._set("l", l)
        self._set("n", 1 << m)
        self._set("nu", m - l)
        self._set("t", ((1 << l) - 1) // 2)

    @property
    def dim(self) -> int:
        """Dimension: sum of binomial(m, j) for j from l to m."""
        return sum(comb(self.m, j) for j in range(self.l, self.m + 1))

    @property
    def min_distance(self) -> int:
        """Minimum distance 2^l."""
        return 1 << self.l


class Word(Record):
    """Fixed-length bit vector, most significant bit first.

    Bit j (1-based) of a length-n word is ``(value >> (n - j)) & 1``.
    """

    __slots__ = _fields = ("n", "value")

    def __init__(self, n: int, value: int):
        if not (type(n) is int and n >= 1):
            raise ValueError(f"word length must be positive, got {n}")
        if type(value) is not int:
            raise ValueError(f"word value must be an int, got {type(value).__name__}")
        if not (value >= 0 and value.bit_length() <= n):
            raise ValueError(f"value out of range for {n}-bit word")
        self._set("n", n)
        self._set("value", value)

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"word string must be nonempty over 0/1, got {s!r}")
        return cls(len(s), int(s, 2))

    def weight(self) -> int:
        return self.value.bit_count()

    def flip(self, position: int) -> "Word":
        """Return a copy with the 1-based position flipped."""
        if type(position) is not int or not 1 <= position <= self.n:
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
    return tuple(itertools.product((1, 0), repeat=m))


@lru_cache(maxsize=None)
def _monomial_index(m: int) -> dict:
    """Word position (0-based, highest bit first) of each square-free exponent tuple."""
    return {mono: i for i, mono in enumerate(monomial_positions(m))}


def subset_bit(m: int, subset) -> int:
    """Bit index b of X_I in ``Word.value``: the sum of 2^(m - i) over i in I."""
    b = 0
    for i in frozenset(subset):
        if type(i) is not int or not 1 <= i <= m:
            raise ValueError(f"index {i} out of range 1..{m}")
        b |= 1 << (m - i)
    return b


def bit_subset(m: int, b: int) -> frozenset:
    """The subset I of {1..m} whose X_I has bit b; the inverse of ``subset_bit``."""
    return frozenset(i for i in range(1, m + 1) if b >> (m - i) & 1)


def subset_bits(m: int, sizes) -> tuple:
    """The ints below 2^m with popcount in sizes, by size, then descending: for
    subsets I of the variables, the bits of the X_I in ``combinations`` order of I."""
    variable_bits = [1 << (m - i) for i in range(1, m + 1)]
    return tuple(sum(c) for k in sizes for c in itertools.combinations(variable_bits, k))


def set_bits(value: int):
    """Yield the indices of the set bits of a nonnegative int, highest first."""
    while value:
        b = value.bit_length() - 1
        yield b
        value ^= 1 << b


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


def _generator(m: int, b: int) -> Poly:
    """The product g_I of (X_i - 1) over the I of bit b: the sum of X_L, L subset I."""
    # the subsets L of I are the submasks of b, the bits with b as a supermask
    return word_to_poly(Word(1 << m, superset_xor(1 << b, m)))


def groebner_basis(params: CodeParams):
    """The generators {g_I : |I| = l}, in descending X_I order.

    This set is the reduced Groebner basis of the ideal it generates,
    for both lex and grlex; ``remainder_bits`` reduces modulo it.
    """
    return tuple(_generator(params.m, b) for b in subset_bits(params.m, (params.l,)))


def square_relations(m: int):
    """The quotient relations X_i^2 - 1, one per variable."""
    CodeParams(m, 0)  # raises unless m is in 1..MAX_VARS
    out = []
    for i in range(1, m + 1):
        sq = tuple(2 if j == i - 1 else 0 for j in range(m))
        out.append(Poly(m, [sq, (0,) * m]))
    return tuple(out)


def jennings_basis(params: CodeParams):
    """Module basis {g_I : |I| >= l} of M^l, in descending X_I order."""
    m = params.m
    return tuple(_generator(m, b) for b in subset_bits(m, range(m, params.l - 1, -1)))


def word_to_poly(w: Word) -> Poly:
    """Algebra element whose coefficients are the word's bits."""
    m = w.n.bit_length() - 1
    if (1 << m) != w.n or not 1 <= m <= MAX_VARS:
        raise ValueError(f"word length {w.n} is not 2^m for m in 1..{MAX_VARS}")
    positions, last = monomial_positions(m), w.n - 1
    if w.value.bit_count() * 16 > w.n:  # dense: select the positions of the 1 digits
        flags = str(w).encode().translate(_FLAGS)
        return Poly._make(m, frozenset(itertools.compress(positions, flags)))
    return Poly._make(m, frozenset([positions[last - b] for b in set_bits(w.value)]))


@lru_cache(maxsize=None)
def _zero_digits(m: int) -> dict:
    """Digit "0" keyed by each square-free exponent tuple, in word position order; merged into, never written."""
    return dict.fromkeys(monomial_positions(m), "0")


def poly_to_word(f: Poly) -> Word:
    """Inverse of word_to_poly; requires a square-free polynomial.  Linear in n, by two paths (module docstring)."""
    n = 1 << f.m
    if len(f.support) * 4 > n + 128:  # dense: merge by the hashes the support holds
        digits = _zero_digits(f.m) | dict.fromkeys(f.support, "1")
        if len(digits) == n:  # no key past the square-free monomials
            return Word(n, int("".join(digits.values()), 2))
    else:
        index, digits = _monomial_index(f.m), bytearray(b"0") * n
        try:
            for mono in f.support:
                digits[index[mono]] = 49  # ord("1")
            return Word(n, int(digits, 2))
        except KeyError:  # only square-free monomials have a position
            pass
    raise ValueError("only square-free polynomials correspond to words")


def message_monomials(params: CodeParams):
    """Square-free monomials of degree at most nu, in descending grlex order.

    These index the rows of the canonical Reed-Muller generator matrix;
    a message polynomial is any GF(2) combination of them.  Degrees run
    from nu down; within one degree, ``itertools.combinations`` order of
    the variable indices is descending lex order.
    """
    positions, last = monomial_positions(params.m), params.n - 1
    return tuple(positions[last - b] for b in _message_bits(params))


def _message_bits(params: CodeParams) -> tuple:
    """Bit index in ``Word.value`` of each message monomial, in the same order."""
    return subset_bits(params.m, range(params.nu, -1, -1))


def encode_bits(bits: int, params: CodeParams) -> Word:
    """Evaluate at all points of {0,1}^m the message with these coefficient bits.

    Only bits of popcount at most nu may be set.  A square-free monomial
    evaluates to 1 at a point p exactly when its support is contained in
    that of p, so the word is the subset-XOR transform of the message.
    """
    if type(bits) is not int or bits < 0 or bits.bit_length() > params.n:
        raise ValueError(f"message bits out of range for {params.n}-bit words")
    if bits & ~_low_degree_mask(params.m, params.nu + 1):
        degree = max(map(int.bit_count, set_bits(bits)))  # attained at an offending bit
        raise ValueError(f"message degree {degree} exceeds code order {params.nu}")
    return Word(params.n, subset_xor(bits, params.m))


def encode(message: Poly, params: CodeParams) -> Word:
    """Encode a square-free message polynomial of total degree at most nu."""
    if message.m != params.m:
        raise ValueError(f"message has {message.m} variables, code expects {params.m}")
    return encode_bits(poly_to_word(message).value, params)  # raises unless square-free


def _check_enumerable(params: CodeParams, what: str) -> None:
    if params.m > ENUMERATION_LIMIT:
        raise ValueError(f"{what} is limited to m <= {ENUMERATION_LIMIT}, got m={params.m}")


@lru_cache(maxsize=None)
def codeword_values(params: CodeParams) -> tuple:
    """Values of all 2^dim codewords (m <= 4 only), built by doubling: entry
    mask is the XOR of the generator rows i with bit i set in mask."""
    _check_enumerable(params, "codeword enumeration")
    values = [0]
    for b in _message_bits(params):
        row = subset_xor(1 << b, params.m)
        values += [v ^ row for v in values]
    return tuple(values)


def codewords(params: CodeParams):
    """All 2^dim codewords in a deterministic order (m <= 4 only), one by one."""
    return (Word(params.n, value) for value in codeword_values(params))


def rank(rows) -> int:
    """GF(2) rank of rows held as ints, by elimination on the leading bit."""
    pivots = {}  # leading bit -> the one kept row with that leading bit
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def berman_check(params: CodeParams) -> bool:
    """Row-space equality of the radical-power basis and the RM generators.

    Two sets of rows span the same space exactly when each has the rank
    of their union.
    """
    radical_rows = [poly_to_word(g).value for g in jennings_basis(params)]
    rm_rows = [encode_bits(1 << b, params).value for b in _message_bits(params)]
    return rank(radical_rows) == rank(rm_rows) == rank(radical_rows + rm_rows)


def min_weight_bruteforce(params: CodeParams) -> int:
    """Minimum weight over all nonzero codewords, by full enumeration."""
    _check_enumerable(params, "minimum-weight search")
    return min(v.bit_count() for v in codeword_values(params) if v)  # the all-ones word is one


def random_message_bits(params: CodeParams, rng) -> int:
    """Uniformly random message bits: one n-bit draw, masked to popcount <= nu."""
    return rng.getrandbits(params.n) & _low_degree_mask(params.m, params.nu + 1)


def random_message(params: CodeParams, rng) -> Poly:
    """Uniformly random message polynomial drawn from the given Random."""
    return word_to_poly(Word(params.n, random_message_bits(params, rng)))
