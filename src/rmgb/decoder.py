"""Syndrome decoding of radical-power codes by Groebner remainders.

The syndrome of a received word is the remainder of its polynomial on
division by the degree-l product generators.  It vanishes exactly on
codewords, and it only depends on the error: adding a codeword does not
change it.  ``syndrome`` computes it without division, by the XOR
transforms of ``rmcode.remainder_bits`` on ``Word.value``; the tests pin
it to the remainder of ``division.remainder`` for every m <= 7.

Writing the error as a sum of square-free monomials X_I (the error
locations), the decoder exploits a weight dichotomy:

* if every location has |I| < l, the syndrome simply equals the error
  polynomial and has weight at most t;
* if some location has |I| >= l, the syndrome weight exceeds t.

In the second case the paper's algorithm, ``decode_search``, searches
for the set S of high-degree locations: it tries candidate sets in a
fixed deterministic order and accepts the first S whose shifted
syndrome drops to weight at most t - |S|; the leftover monomials are
the low-degree locations.  It accepts exactly when a codeword lies
within distance t, so it is bounded-distance decoding at radius t, but
it may try every set of up to t of the candidates.

``decode`` returns the same result in time polynomial in n, and
``decode_search`` stays as the reference the tests compare it with.
For l = 2 (t = 1) the one location is read off the syndrome: the
degree-one part of its y-basis coefficients names the variables of X_I.
For l >= 3 Reed's majority-logic decoder (Reed 1954; MacWilliams and
Sloane, ch. 13) finds the nearest codeword on ``Word.value``, and the
result is accepted when it lies within distance t.  For l <= 1, t = 0
and every nonzero syndrome is a failure.  For errors of weight at most
t the recovered codeword is exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .polyring import Poly
from .rmcode import (
    CodeParams,
    Word,
    _half_masks,
    codewords,
    monomial_subset,
    poly_to_word,  # unused here; kept bound because bench/tracer.py wraps it by name
    remainder_bits,
    subset_bit,
    subset_xor,
    superset_xor,
    word_to_poly,
)

CLEAN = "clean"
CORRECTED_LOW = "corrected_low"
CORRECTED_OMEGA = "corrected_omega"
FAILURE = "failure"


@dataclass(frozen=True)
class Syndrome:
    word: Word  # the remainder's coefficient bits, in the word convention

    @property
    def remainder(self) -> Poly:
        return word_to_poly(self.word)

    @property
    def weight(self) -> int:
        return self.word.weight()


def syndrome(v: Word, params: CodeParams) -> Syndrome:
    """Remainder of the received word's polynomial modulo the basis."""
    if v.n != params.n:
        raise ValueError(f"word length {v.n} does not match code length {params.n}")
    return Syndrome(Word(v.n, remainder_bits(v.value, params)))


@dataclass(frozen=True)
class HatSet:
    location: frozenset
    hat: frozenset  # of frozensets: the subsets L with X_L in the remainder of X_I


def hat_set(location, params: CodeParams) -> HatSet:
    """Support of the remainder of X_I, as a set of subsets of {1..m}.

    For |I| < l the monomial is already irreducible, so the hat set is
    {I}; for |I| = l it is the set of proper subsets of I.
    """
    location = frozenset(location)
    rem = Word(params.n, remainder_bits(1 << subset_bit(params.m, location), params))
    return HatSet(location, frozenset(monomial_subset(mono) for mono in word_to_poly(rem).support))


@dataclass(frozen=True)
class DecodeResult:
    status: str
    codeword: Optional[Word]
    error: Optional[Poly]
    chosen_locations: Optional[tuple] = None  # the accepted set S, omega path only


def decode(v: Word, params: CodeParams) -> DecodeResult:
    """Correct up to t errors in the received word, in time polynomial in n.

    Returns exactly what ``decode_search`` returns.  Clean words come
    back unchanged, and a syndrome of weight at most t is the error
    itself.  Past that, the one location read off the syndrome (l = 2)
    or Reed's decoding (l >= 3) is accepted when it lies within
    distance t.  Otherwise status is ``failure`` and codeword and error
    are None.
    """
    syn = syndrome(v, params)
    if not syn.weight:
        return DecodeResult(CLEAN, v, Poly.zero(params.m))
    t = params.t
    if syn.weight <= t:
        return DecodeResult(CORRECTED_LOW, v + syn.word, syn.remainder)
    if params.l == 2:
        error = _single_location(syn.word.value, params.m)
    elif params.l >= 3:
        error = _reed_error(v.value, params)
    else:  # t = 0: every nonzero syndrome is beyond the radius
        error = None
    if error is None or error.bit_count() > t:
        return DecodeResult(FAILURE, None, None)
    return DecodeResult(
        CORRECTED_OMEGA,
        Word(v.n, v.value ^ error),
        word_to_poly(Word(v.n, error)),
        _high_locations(error, params),
    )


def _single_location(syndrome_bits: int, m: int) -> Optional[int]:
    """Error bits of the one location with this syndrome for l = 2, else None.

    Below degree two the y-basis coefficients of X_I are those of 1 and
    of the y_i for i in I.  So ``superset_xor`` of the syndrome holds the
    parity of the number of errors at bit 0 and, at the bit of each y_i,
    the parity of the number of locations that contain i.  The syndrome
    is that of one location X_I exactly when bit 0 is set, and then I is
    the set of those i.
    """
    sigma = superset_xor(syndrome_bits, m)
    if not sigma & 1:
        return None
    return 1 << sum(1 << i for i in range(m) if sigma >> (1 << i) & 1)


def _reed_error(value: int, params: CodeParams) -> int:
    """The word minus its decoding by Reed's majority logic for RM(nu, m).

    Degree by degree from nu down, the coefficient of each X_J, |J| = d,
    in the message of the residual word is the XOR of its bits over any
    coset of the span of J's points.  The partial superset-XOR over J's
    variables leaves the 2^(m-d) check sums of the disjoint cosets at
    the bits q with q & J = 0, and each error spoils at most one of
    them.  A majority of ones sets the coefficient, and the encoding of
    the level's coefficients is removed from the residual.  Within
    distance t of a codeword every majority is right, and what is left
    is the error.
    """
    m = params.m
    half_masks = _half_masks(m)
    full = (1 << params.n) - 1
    residual = value
    for d in range(params.nu, 0, -1):
        majority = 1 << (m - d - 1)  # half of the 2^(m-d) votes
        coefficients = 0
        # Depth first over J as increasing variable indices, so a prefix's
        # partial transform is shared by every J that extends it.  Entries:
        # (next index, variables still to add, transform, vote bits, bit index of X_J).
        stack = [(0, d, residual, full, 0)]
        while stack:
            start, left, part, votes, j = stack.pop()
            if left == 1:
                for step, mask in half_masks[start:]:
                    if ((part ^ (part >> step)) & votes & mask).bit_count() > majority:
                        coefficients |= 1 << (j | step)
                continue
            for i in range(start, m - left + 1):
                step, mask = half_masks[i]
                stack.append((i + 1, left - 1, part ^ ((part >> step) & mask), votes & mask, j | step))
        residual ^= subset_xor(coefficients, m)
    if residual.bit_count() > 1 << (m - 1):  # the constant term
        residual ^= full
    return residual


def _high_locations(error: int, params: CodeParams) -> tuple:
    """The error's locations with |I| >= l, in ``_candidate_locations`` order.

    That order is by size descending, then ``itertools.combinations``
    order, which among sets of one size is descending order of the bit.
    """
    m = params.m
    bits = []
    while error:
        b = error.bit_length() - 1
        error ^= 1 << b
        if b.bit_count() >= params.l:
            bits.append(b)
    bits.sort(key=lambda b: (b.bit_count(), b), reverse=True)
    return tuple(frozenset(i for i in range(1, m + 1) if b >> (m - i) & 1) for b in bits)


@lru_cache(maxsize=None)
def _candidate_locations(params: CodeParams):
    # (I, bit of X_I, remainder bits of X_I) for |I| >= l, in descending X_I order
    out = []
    for k in range(params.m, params.l - 1, -1):
        for combo in itertools.combinations(range(1, params.m + 1), k):
            bit = 1 << subset_bit(params.m, combo)
            out.append((frozenset(combo), bit, remainder_bits(bit, params)))
    return tuple(out)


def decode_search(v: Word, params: CodeParams) -> DecodeResult:
    """Correct up to t errors in the received word.

    Clean words come back unchanged.  A syndrome of weight at most t is
    itself the error polynomial (all locations below degree l).  A
    heavier syndrome triggers the search over candidate sets S of
    locations with |I| >= l, increasing |S| from 1 to t; the first S
    whose shifted syndrome has weight at most t - |S| is accepted, and
    the shifted syndrome contributes the remaining low-degree locations.
    Every emitted codeword is re-checked to have zero syndrome.  If no
    candidate set qualifies, status is ``failure`` and codeword and
    error are None.
    """
    syn = syndrome(v, params)
    if not syn.weight:
        return DecodeResult(CLEAN, v, Poly.zero(params.m))
    t = params.t
    if syn.weight <= t:
        return DecodeResult(CORRECTED_LOW, v + syn.word, syn.remainder)
    rem = syn.word.value
    candidates = _candidate_locations(params)
    for size in range(1, t + 1):
        for chosen in itertools.combinations(candidates, size):
            shifted = rem
            for _, _, loc_rem in chosen:
                shifted ^= loc_rem
            if shifted.bit_count() > t - size:
                continue
            error = shifted
            for _, bit, _ in chosen:
                error ^= bit
            cw = Word(v.n, v.value ^ error)
            if syndrome(cw, params).weight == 0:
                error_poly = word_to_poly(Word(v.n, error))
                return DecodeResult(CORRECTED_OMEGA, cw, error_poly, tuple(c[0] for c in chosen))
    return DecodeResult(FAILURE, None, None)


@dataclass(frozen=True)
class MLResult:
    codeword: Word
    distance: int
    is_tie: bool


def ml_decode_bruteforce(v: Word, params: CodeParams) -> MLResult:
    """Nearest codeword by scanning the full code (m <= 4 only).

    Returns the first codeword at minimum Hamming distance in the
    enumeration order, flagging whether another codeword ties it.
    """
    if v.n != params.n:
        raise ValueError(f"word length {v.n} does not match code length {params.n}")
    best = None
    best_dist = None
    tie = False
    for c in codewords(params):
        dist = (c + v).weight()
        if best_dist is None or dist < best_dist:
            best, best_dist, tie = c, dist, False
        elif dist == best_dist:
            tie = True
    return MLResult(best, best_dist, tie)


def random_error(params: CodeParams, mode: str, seed, *, weight=None, flip_prob=None) -> Word:
    """Random error word, reproducible from the seed.

    ``mode="fixed_weight"`` flips exactly ``weight`` positions chosen
    uniformly; ``mode="bsc"`` flips each position independently with
    probability ``flip_prob``.  ``seed`` may be an int or an existing
    random.Random (useful for drawing several errors from one stream).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = params.n
    value = 0
    if mode == "fixed_weight":
        if weight is None or not 0 <= weight <= n:
            raise ValueError(f"fixed_weight mode needs a weight in 0..{n}")
        for pos in rng.sample(range(n), weight):
            value |= 1 << pos
    elif mode == "bsc":
        if flip_prob is None or not 0.0 <= flip_prob <= 1.0:
            raise ValueError("bsc mode needs a flip probability in [0, 1]")
        for pos in range(n):
            if rng.random() < flip_prob:
                value |= 1 << (n - 1 - pos)
    else:
        raise ValueError(f"unknown error mode {mode!r}, expected fixed_weight or bsc")
    return Word(n, value)
