"""Output checks for the benchmark, written without calling rmgb's algorithms.

Word convention: bit b of ``Word.value`` is the coefficient of the
square-free monomial whose exponent tuple is the m-bit binary expansion
of b (X1 the most significant bit), and it is also the word's value at
the point {0,1}^m with that encoding.  So encoding a message is the
subset-XOR (zeta) transform of its coefficient bits, and a word lies in
RM(m - l, m) exactly when its binary Moebius transform, the algebraic
normal form, has no coefficient at an index of popcount > m - l.  Over
GF(2) the two transforms are the same involution.

The Groebner-toolkit checks compare against sympy (modulus 2, grlex).
"""

from __future__ import annotations

import itertools


def _half_masks(m: int):
    """For each variable bit i, the mask of indices whose bit i is 0."""
    n = 1 << m
    out = []
    for i in range(m):
        step = 1 << i
        mask = 0
        for start in range(0, n, 2 * step):
            mask |= ((1 << step) - 1) << start
        out.append((step, mask))
    return out


class RMOracle:
    """Membership, encoding and bounded-distance checks for RM(m - l, m)."""

    def __init__(self, m: int, l: int):
        self.n = 1 << m
        self.t = ((1 << l) - 1) // 2
        self._masks = _half_masks(m)
        self._high = sum(1 << b for b in range(self.n) if b.bit_count() > m - l)

    def transform(self, value: int) -> int:
        """Binary Moebius transform: m masked shift-XORs."""
        for step, mask in self._masks:
            value ^= (value & mask) << step
        return value

    def is_codeword(self, value: int) -> bool:
        return not self.transform(value) & self._high

    def monomial_bit(self, mono) -> int:
        """Word bit carrying a square-free exponent tuple."""
        b = 0
        for e in mono:
            if e not in (0, 1):
                raise ValueError(f"monomial {mono} is not square-free")
            b = (b << 1) | e
        return b

    def poly_value(self, support) -> int:
        """Coefficient word of a square-free polynomial given by its support."""
        value = 0
        for mono in support:
            value ^= 1 << self.monomial_bit(mono)
        return value

    def encode(self, support) -> int:
        """Evaluation word of a message polynomial given by its support."""
        return self.transform(self.poly_value(support))

    def has_codeword_within(self, value: int, radius: int) -> bool:
        """True when some codeword lies within Hamming distance ``radius``."""
        for k in range(radius + 1):
            for flips in itertools.combinations(range(self.n), k):
                v = value
                for b in flips:
                    v ^= 1 << b
                if self.is_codeword(v):
                    return True
        return False

    def check_decode(self, sent: int, error: int, status: str, codeword, error_support) -> str:
        """Return "" when a decode result is correct, else the reason.

        ``codeword`` is the decoded word's value (None on failure) and
        ``error_support`` the support of the returned error polynomial.
        """
        received = sent ^ error
        if status == "failure":
            if codeword is not None:
                return "failure with a codeword"
            if error.bit_count() <= self.t:
                return f"failure on an error of weight {error.bit_count()} <= t"
            if self.has_codeword_within(received, self.t):
                return "failure although a codeword lies within radius t"
            return ""
        if codeword is None:
            return f"status {status} without a codeword"
        if not self.is_codeword(codeword):
            return "result is not a codeword"
        if (codeword ^ received).bit_count() > self.t:
            return "result lies beyond radius t"
        if error.bit_count() <= self.t and codeword != sent:
            return "wrong codeword for an error within radius t"
        if self.poly_value(error_support) != codeword ^ received:
            return "error polynomial does not match codeword + received"
        return ""


class SympyGroebner:
    """Reduced Groebner bases and remainders over GF(2) in grlex, by sympy."""

    def __init__(self, m: int):
        import sympy

        self._sp = sympy
        self.gens = sympy.symbols(f"x1:{m + 1}")

    def _poly(self, support):
        return self._sp.Poly.from_dict({mono: 1 for mono in support}, *self.gens, modulus=2)

    @staticmethod
    def _support(poly) -> frozenset:
        if poly.is_zero:
            return frozenset()
        return frozenset(mono for mono, c in poly.terms() if int(c) % 2)

    def reduced_basis(self, generators):
        """Reduced Groebner basis of the generators, as a sympy GroebnerBasis."""
        return self._sp.groebner(
            [self._poly(g) for g in generators], *self.gens, modulus=2, order="grlex"
        )

    def supports(self, basis) -> frozenset:
        """Set of supports of the elements of a sympy GroebnerBasis."""
        return frozenset(self._support(p) for p in basis.polys)

    def remainder(self, f, basis) -> frozenset:
        """Support of the remainder of f modulo a sympy GroebnerBasis."""
        _, rem = basis.reduce(self._poly(f))
        return self._support(rem)
