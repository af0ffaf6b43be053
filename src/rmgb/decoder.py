"""Syndrome decoding of radical-power codes by Groebner remainders.

The syndrome of a received word is the remainder of its polynomial on
division by the degree-l product generators.  It vanishes exactly on
codewords, and it only depends on the error: adding a codeword does not
change it.  ``syndrome`` returns it as a ``Word``, by the XOR transforms
of ``rmcode.remainder_bits`` on ``Word.value`` and no division; the tests
pin it to the remainder of ``division.remainder`` for every m <= 7.

Writing the error as a sum of square-free monomials X_I (the error
locations), the decoder exploits a weight dichotomy.  A location I is
bit b of ``Word.value`` under the one subset map of ``rmcode``
(``subset_bit``, ``bit_subset``, ``subset_bits``), so |I| is b's popcount:

* if every location has |I| < l, the syndrome simply equals the error
  polynomial and has weight at most t;
* if some location has |I| >= l, the syndrome weight exceeds t.

In the second case the paper's algorithm, ``decode_search``, searches
for the set S of high-degree locations: it tries candidate sets in a
fixed deterministic order and accepts the first S whose shifted
syndrome drops to weight at most t - |S|; the leftover monomials are
the low-degree locations.  It accepts exactly when a codeword lies
within distance t, so it is bounded-distance decoding at radius t, but
it may try every set of up to t of the candidates, so it refuses the
(m, l) where those number more than ``SEARCH_LIMIT``.

``decode`` returns the same result in time polynomial in n, and
``decode_search`` stays as the reference the tests compare it with.
For l = 2 (t = 1) the one location is read off the syndrome: the
degree-one part of its y-basis coefficients names the variables of X_I.
For l >= 3 Reed's majority-logic decoder (Reed 1954; MacWilliams and
Sloane, ch. 13) finds the nearest codeword on ``Word.value``.  For
l <= 1, t = 0 and every nonzero syndrome is a failure.

Both decoders only find the error bits, or None, and one rule reads the
result off them.  No error, or one heavier than t, is a failure; a zero
error leaves the word clean.  Otherwise the codeword is the word plus
the error, and by the dichotomy the status is ``corrected_omega`` when
some location has |I| >= l, with those locations as the chosen set S,
and ``corrected_low`` when none has.  So status and locations agree
between the decoders by construction; only the error search differs.
For errors of weight at most t the recovered codeword is exact.  A
``DecodeResult`` holds the error as bits, and builds its ``error``
polynomial only when that is first read.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, log, log1p
from typing import Optional

from .polyring import Poly
from .rmcode import (
    CodeParams,
    Word,
    _half_masks,
    _low_degree_mask,
    bit_subset,
    codeword_values,
    poly_to_word,  # unused here; kept bound because bench/tracer.py wraps it by name
    remainder_bits,
    set_bits,
    subset_bit,
    subset_bits,
    subset_xor,
    superset_xor,
    word_to_poly,
)

CLEAN = "clean"
CORRECTED_LOW = "corrected_low"
CORRECTED_OMEGA = "corrected_omega"
FAILURE = "failure"

SEARCH_LIMIT = 10**7  # most candidate sets decode_search may have to try


def syndrome(v: Word, params: CodeParams) -> Word:
    """Remainder of the received word's polynomial modulo the basis, as a word."""
    if v.n != params.n:
        raise ValueError(f"word length {v.n} does not match code length {params.n}")
    return Word(v.n, remainder_bits(v.value, params))


def hat_set(location, params: CodeParams) -> frozenset:
    """Support of the remainder of X_I, as a set of subsets of {1..m}.

    For |I| < l the monomial is already irreducible, so the hat set is
    {I}; for |I| = l it is the set of proper subsets of I.
    """
    rem = remainder_bits(1 << subset_bit(params.m, location), params)
    return frozenset(bit_subset(params.m, b) for b in set_bits(rem))


@dataclass(frozen=True)
class DecodeResult:
    status: str
    codeword: Optional[Word]
    error_bits: Optional[int]  # the error's coefficient bits; None on failure
    chosen_locations: Optional[tuple] = None  # the accepted set S, omega path only

    @cached_property
    def error(self) -> Optional[Poly]:
        """The error polynomial, or None on failure; built on the first read."""
        if self.error_bits is None:
            return None
        return word_to_poly(Word(self.codeword.n, self.error_bits))


def decode(v: Word, params: CodeParams) -> DecodeResult:
    """Correct up to t errors in the received word, in time polynomial in n.

    Returns exactly what ``decode_search`` returns.  A syndrome of weight
    at most t is the error itself.  Past that, the one location read off
    the syndrome (l = 2) or Reed's decoding (l >= 3) is the error, and
    ``_result`` accepts it when it lies within distance t.
    """
    error = syndrome(v, params).value
    if error.bit_count() > params.t:
        if params.l == 2:
            error = _single_location(error, params.m)
        elif params.l >= 3:
            error = _reed_error(v.value, params)
        # for l <= 1, t = 0: the nonzero syndrome stays the error and fails as too heavy
    return _result(v, error, params)


def _result(v: Word, error: Optional[int], params: CodeParams) -> DecodeResult:
    """The one exit of both decoders: v less ``error``, by the module's rule.

    The chosen locations come in ``_candidate_locations`` order, which is
    ``rmcode.subset_bits``': by size descending, then descending bit
    within one size.
    """
    if error == 0:
        return DecodeResult(CLEAN, v, 0)
    if error is None or error.bit_count() > params.t:
        return DecodeResult(FAILURE, None, None)
    codeword = Word(v.n, v.value ^ error)
    high = error & ~_low_degree_mask(params.m, params.l)
    if not high:
        return DecodeResult(CORRECTED_LOW, codeword, error)
    bits = sorted(set_bits(high), key=int.bit_count, reverse=True)  # stable: highest first within a size
    return DecodeResult(CORRECTED_OMEGA, codeword, error, tuple([bit_subset(params.m, b) for b in bits]))


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


@lru_cache(maxsize=None)
def _candidate_locations(params: CodeParams):
    # (bit of X_I, remainder bits of X_I) for |I| >= l, in descending X_I order
    return tuple(
        (1 << b, remainder_bits(1 << b, params))
        for b in subset_bits(params.m, range(params.m, params.l - 1, -1))
    )


def decode_search(v: Word, params: CodeParams) -> DecodeResult:
    """Correct up to t errors in the received word.

    A syndrome of weight at most t is itself the error polynomial (all
    locations below degree l).  A heavier syndrome triggers the search
    over candidate sets S of locations with |I| >= l, increasing |S|
    from 1 to t; the first S whose shifted syndrome has weight at most
    t - |S| is accepted, and the shifted syndrome contributes the
    remaining low-degree locations.  Every emitted codeword is re-checked
    to have zero syndrome.  If no candidate set qualifies, the error is
    None; ``_result`` builds the result either way.

    Past ``SEARCH_LIMIT`` sets of 1 to t of the dim candidates, which
    depends on (m, l) alone, every word raises ValueError, clean ones too.
    """
    count = 0
    for size in range(1, params.t + 1):
        count += comb(params.dim, size)
        if count > SEARCH_LIMIT:
            raise ValueError(f"decode_search is limited to {SEARCH_LIMIT} candidate sets, "
                             f"got more at m={params.m}, l={params.l}")
    rem = syndrome(v, params).value
    t = params.t
    if rem.bit_count() <= t:
        return _result(v, rem, params)
    candidates = _candidate_locations(params)
    for size in range(1, t + 1):
        for chosen in itertools.combinations(candidates, size):
            shifted = rem
            for _, loc_rem in chosen:
                shifted ^= loc_rem
            if shifted.bit_count() > t - size:
                continue
            error = shifted
            for bit, _ in chosen:
                error ^= bit
            if not syndrome(Word(v.n, v.value ^ error), params).value:
                return _result(v, error, params)
    return _result(v, None, params)


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
    values = codeword_values(params)
    dists = [(c ^ v.value).bit_count() for c in values]
    best = min(dists)
    return MLResult(Word(v.n, values[dists.index(best)]), best, dists.count(best) > 1)


def random_error(params: CodeParams, mode: str, seed, *, weight=None, flip_prob=None) -> Word:
    """Random error word, reproducible from the seed.

    ``mode="fixed_weight"`` flips exactly ``weight`` positions chosen
    uniformly; ``mode="bsc"`` flips each position independently with
    probability ``flip_prob``.  Both modes draw the bits b of
    ``Word.value`` to flip (word position n - b) directly; bsc skips
    from flip to flip by geometric gaps, one draw per flip plus one
    (Devroye 1986, ch. X.2).
    ``seed`` may be an int or an existing random.Random (useful for
    drawing several errors from one stream).
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
        if flip_prob == 1.0:  # log1p(-1) is out of log's domain
            value = (1 << n) - 1
        elif flip_prob > 0.0:
            log_q, pos = log1p(-flip_prob), 0
            # P(gap >= k) = (1 - p)^k; compared as a float, as a tiny p makes it inf
            while (gap := log(1.0 - rng.random()) / log_q) < n - pos:
                pos += int(gap)
                value |= 1 << pos
                pos += 1
    else:
        raise ValueError(f"unknown error mode {mode!r}, expected fixed_weight or bsc")
    return Word(n, value)
