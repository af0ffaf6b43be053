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

In the second case the decoder searches for the set S of high-degree
locations: it tries candidate sets in a fixed deterministic order and
accepts the first S whose shifted syndrome drops to weight at most
t - |S|; the leftover monomials are the low-degree locations.  For
errors of weight at most t the recovered codeword is exact.
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
    codewords,
    monomial_subset,
    poly_to_word,
    remainder_bits,
    subset_bit,
    subset_monomial,
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


@lru_cache(maxsize=None)
def _candidate_locations(params: CodeParams):
    # (I, bit of X_I, remainder bits of X_I) for |I| >= l, in descending X_I order
    out = []
    for k in range(params.m, params.l - 1, -1):
        for combo in itertools.combinations(range(1, params.m + 1), k):
            bit = 1 << subset_bit(params.m, combo)
            out.append((frozenset(combo), bit, remainder_bits(bit, params)))
    return tuple(out)


def decode(v: Word, params: CodeParams) -> DecodeResult:
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


def decode_m2(v: Word, params: CodeParams) -> DecodeResult:
    """Fast single-error decoder for l = 2.

    For l = 2 the syndrome of a single error at X_I is the sum of the
    X_i over i in I, plus possibly a constant term, so the location can
    be read straight off the degree-one monomials.  The reconstructed
    codeword is verified by a zero-syndrome check; on any mismatch
    (for instance more than one error) this falls back to the general
    decoder.
    """
    if params.l != 2:
        raise ValueError(f"fast path requires l = 2, got l = {params.l}")
    syn = syndrome(v, params)
    rem = syn.remainder
    m = params.m
    if not rem:
        return DecodeResult(CLEAN, v, Poly.zero(m))
    if all(sum(mono) <= 1 for mono in rem.support):
        location = frozenset(
            i + 1 for mono in rem.support for i, e in enumerate(mono) if e
        )
        error = Poly.monomial(m, subset_monomial(m, location))
        cw = v + poly_to_word(error)
        if syndrome(cw, params).weight == 0:
            if len(location) < params.l:
                return DecodeResult(CORRECTED_LOW, cw, error)
            return DecodeResult(CORRECTED_OMEGA, cw, error, (location,))
    return decode(v, params)


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
