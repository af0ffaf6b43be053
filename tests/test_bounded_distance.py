"""``decode`` is bounded-distance decoding at radius t, checked past m = 4.

Two facts give the whole contract on every received word of an (m, l):

* (a) a success returns an error e of weight at most t with v ^ e a
  codeword;
* (b) for every error e of weight at most t and every codeword c,
  ``decode(c ^ e)`` returns c and e.

A codeword within t is unique, so together they say that ``decode``
succeeds exactly on the words within t of a codeword, and then exactly.
(b) is swept over every correctable error, under c = 0 and under one
seeded random codeword per error; (a) is checked on seeded words at
every distance, far ones included.  Reed's majority-logic decoder
(Reed 1954; MacWilliams and Sloane, ch. 13) is kept here as an
independent oracle for large m, where ``decode_search`` is out of reach.

Run as a script, ``python tests/test_bounded_distance.py M L`` sweeps
(b) at one (m, l) that is too slow for the suite, such as (7, 3) or
(16, 2).
"""

import itertools
import random
import sys
import time
from math import comb

import pytest

from rmgb.decoder import CLEAN, CORRECTED_LOW, CORRECTED_OMEGA, FAILURE, _result, decode, syndrome
from rmgb.rmcode import CodeParams, Word, _half_masks, encode_bits, random_message_bits, subset_xor
from test_decode_equivalence import assert_reading

SWEPT = [(m, 2) for m in range(2, 13)] + [(5, 3), (6, 3)]
STATUSES = {CLEAN, CORRECTED_LOW, CORRECTED_OMEGA, FAILURE}


def reed_error(value: int, params: CodeParams) -> int:
    """The word minus its decoding by Reed's majority logic for RM(nu, m), l >= 1.

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


def reed_decode(v: Word, params: CodeParams):
    """What ``decode`` must return, with Reed's error in place of its own."""
    return _result(v, reed_error(v.value, params), params)


def random_codeword(params: CodeParams, rng) -> int:
    return encode_bits(random_message_bits(params, rng), params).value


def noisy(c: int, weight: int, params: CodeParams, rng) -> Word:
    """The codeword c with ``weight`` seeded bits flipped."""
    return Word(params.n, c ^ sum(1 << b for b in rng.sample(range(params.n), weight)))


def sweep_correctable_errors(params: CodeParams) -> int:
    """Fact (b) for every error of weight at most t; returns the number of errors."""
    rng = random.Random(f"sweep {params.m}/{params.l}")
    count = 0
    for weight in range(params.t + 1):
        for positions in itertools.combinations(range(params.n), weight):
            e = sum(1 << b for b in positions)
            for c in (0, random_codeword(params, rng)):
                result = decode(Word(params.n, c ^ e), params)
                assert (result.error_bits, result.codeword) == (e, Word(params.n, c)), (params, e, c)
            count += 1
    return count


def assert_defined(result, v: Word, params: CodeParams):
    """Fact (a): a success is an error of weight at most t that leaves a codeword."""
    assert result.status in STATUSES
    if result.status != FAILURE:
        e = result.error_bits
        assert e.bit_count() <= params.t
        assert result.codeword.value == v.value ^ e
        assert not syndrome(result.codeword, params).value


@pytest.mark.parametrize("m,l", SWEPT)
def test_every_correctable_error_decodes_exactly(m, l):
    params = CodeParams(m, l)
    assert sweep_correctable_errors(params) == sum(comb(params.n, w) for w in range(params.t + 1))


@pytest.mark.parametrize("m,l", sorted({*SWEPT, *((m, l) for m in range(5, 11) for l in range(m + 1))}))
def test_words_at_every_distance_end_defined(m, l):
    params = CodeParams(m, l)
    rng = random.Random(f"far {m}/{l}")
    order = list(range(params.n))
    rng.shuffle(order)
    error = 0  # weight w below: the first w bits of the shuffled order
    for weight in range(params.n + 1):
        v = Word(params.n, random_codeword(params, rng) ^ error)
        result = decode(v, params)
        assert_defined(result, v, params)
        assert_reading(result, params)
        if weight <= params.t:
            assert result.status != FAILURE
        if weight < params.n:
            error |= 1 << order[weight]


@pytest.mark.parametrize("m", range(5, 13))
def test_decode_matches_reed_on_seeded_words(m):
    rng = random.Random(f"reed {m}")
    count = 40 if m <= 8 else 20  # Reed takes up to ~10 ms a word at m = 12
    for l in range(3, m + 1):
        params = CodeParams(m, l)
        for k in range(count):
            c = random_codeword(params, rng)
            if k % 4 == 3:
                v = Word(params.n, rng.getrandbits(params.n))
            else:
                v = noisy(c, rng.randint(0, min(params.t + 5, params.n)), params, rng)
            assert decode(v, params) == reed_decode(v, params), (m, l, v.value)


def test_decode_matches_reed_at_m16_l3():
    # one Reed decode at (16, 3) takes about a second
    params = CodeParams(16, 3)
    rng = random.Random(16)
    c = random_codeword(params, rng)
    v = noisy(c, params.t, params, rng)
    result = decode(v, params)
    assert result.codeword.value == c
    assert result == reed_decode(v, params)
    assert_reading(result, params)


def test_m16_every_l_in_bounded_time():
    # per l >= 3, one weight-t word decodes exactly and one uniform word ends
    # defined; no decode has been seen past ~20 ms, so the bound leaves room
    rng = random.Random(1616)
    spent = 0.0
    for l in range(3, 16):
        params = CodeParams(16, l)
        c = random_codeword(params, rng)
        near, far = noisy(c, params.t, params, rng), Word(params.n, rng.getrandbits(params.n))
        start = time.perf_counter()
        results = decode(near, params), decode(far, params)
        spent += time.perf_counter() - start
        assert results[0].codeword == Word(params.n, c), l
        assert_defined(results[1], far, params)
        for result in results:
            assert_reading(result, params)
    assert spent < 2.0, spent


if __name__ == "__main__":
    swept = CodeParams(int(sys.argv[1]), int(sys.argv[2]))
    start = time.perf_counter()
    total = sweep_correctable_errors(swept)
    print(f"({swept.m}, {swept.l}): {total} errors decoded exactly in {time.perf_counter() - start:.1f} s")
