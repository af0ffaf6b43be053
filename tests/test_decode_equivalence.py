"""``decode`` against the paper's remainder search ``decode_search``.

Both must return the same status, codeword, error and chosen locations
on every received word: exhaustively for m <= 4, and on seeded samples
for m = 5 and 6.  Each result's status and chosen locations are also
worked out here from its error bits alone, since both decoders share
the rule that reads them off.  Beyond m = 6 the search is too slow to
compare with, so the (12, 5) edge test checks ``decode`` against the
known error; past ``SEARCH_LIMIT`` candidate sets the search refuses.
"""

import random
import time
import tracemalloc

import pytest

from rmgb.decoder import (
    CLEAN,
    CORRECTED_LOW,
    CORRECTED_OMEGA,
    FAILURE,
    SEARCH_LIMIT,
    decode,
    decode_search,
    syndrome,
)
from rmgb.polyring import Poly
from rmgb.rmcode import CodeParams, Word, encode, monomial_positions, random_message

SMALL = [(m, l) for m in range(1, 5) for l in range(m + 1)]
SAMPLED = [(m, l) for m in (5, 6) for l in range(m + 1)]


def expected_reading(error_bits, params):
    """(status, chosen locations) that a result with these error bits must carry.

    A set bit b is the location of the monomial at word position n - 1 - b;
    the locations of degree >= l come by size descending, then in
    ``combinations`` order within a size.
    """
    if error_bits is None:
        return FAILURE, None
    if not error_bits:
        return CLEAN, None
    monos = monomial_positions(params.m)
    locations = [
        tuple(i + 1 for i, e in enumerate(monos[params.n - 1 - b]) if e)
        for b in range(params.n)
        if error_bits >> b & 1
    ]
    high = sorted((loc for loc in locations if len(loc) >= params.l), key=lambda loc: (-len(loc), loc))
    if not high:
        return CORRECTED_LOW, None
    return CORRECTED_OMEGA, tuple(frozenset(loc) for loc in high)


def assert_reading(result, params):
    assert (result.status, result.chosen_locations) == expected_reading(result.error_bits, params)


@pytest.mark.parametrize("m,l", SMALL)
def test_decode_matches_search_on_every_word(m, l):
    params = CodeParams(m, l)
    for value in range(1 << params.n):
        v = Word(params.n, value)
        result, reference = decode(v, params), decode_search(v, params)
        assert result == reference
        assert_reading(result, params)
        assert_reading(reference, params)


@pytest.mark.parametrize("m,l", SAMPLED)
def test_decode_matches_search_on_sampled_words(m, l):
    params = CodeParams(m, l)
    rng = random.Random(f"{m}/{l}")
    # Beyond the radius the search tries every set of up to t candidates;
    # at (6, 4) that is about 0.15 s per word, so that code gets fewer words.
    count = 100 if (m, l) == (6, 4) else 500
    for k in range(count):
        if k % 10 == 9:
            v = Word(params.n, rng.getrandbits(params.n))
        else:
            c = encode(random_message(params, rng), params)
            weight = rng.randint(0, min(params.t + 2, params.n))
            v = Word(params.n, c.value ^ sum(1 << b for b in rng.sample(range(params.n), weight)))
        result, reference = decode(v, params), decode_search(v, params)
        assert result == reference
        assert_reading(result, params)
        assert_reading(reference, params)


def test_decode_m12_l5_edge():
    params = CodeParams(12, 5)  # d = 32, t = 15
    rng = random.Random(12)
    c = encode(random_message(params, rng), params)
    high = [b for b in range(params.n) if b.bit_count() >= params.l]
    positions = rng.sample(high, params.t + 1)
    error = sum(1 << b for b in positions[:-1])

    start = time.perf_counter()
    result = decode(Word(params.n, c.value ^ error), params)
    assert time.perf_counter() - start < 1.0
    assert result.status == CORRECTED_OMEGA
    assert result.codeword == c
    monos = monomial_positions(params.m)
    assert result.error == Poly(params.m, [monos[params.n - 1 - b] for b in positions[:-1]])
    locations = [tuple(i + 1 for i, e in enumerate(monos[params.n - 1 - b]) if e) for b in positions[:-1]]
    want = sorted(locations, key=lambda loc: (-len(loc), loc))  # combinations order within a size
    assert result.chosen_locations == tuple(frozenset(loc) for loc in want)

    # Every other codeword is at distance >= 32 - 16 from this word: none lies within t.
    result = decode(Word(params.n, c.value ^ error ^ 1 << positions[-1]), params)
    assert result.status == FAILURE
    assert result.codeword is None and result.error is None


def test_search_limit(monkeypatch):
    # refused from (m, l) alone, before any syndrome or candidate is built: 151M sets at (10, 3)
    def unbuilt(*args):
        raise AssertionError("computed a remainder before refusing")

    monkeypatch.setattr("rmgb.decoder.remainder_bits", unbuilt)
    monkeypatch.setattr("rmgb.decoder.subset_bits", unbuilt)
    for m, l in [(10, 3), (16, 3), (16, 12)]:
        params = CodeParams(m, l)
        zero = Word(params.n, 0)  # a clean word is refused too
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"limited to {SEARCH_LIMIT} candidate sets, got more at m={m}, l={l}$"):
            decode_search(zero, params)
        assert time.perf_counter() - start < 0.1
    monkeypatch.undo()
    # every m <= 6 is still searched, and (8, 3) with its 1,750,759 sets
    for params in [CodeParams(m, l) for m in range(1, 7) for l in range(m + 1)] + [CodeParams(8, 3)]:
        assert decode_search(Word(params.n, 0), params).status == CLEAN


def test_search_keeps_nothing_between_calls():
    # a word beyond t at (12, 2) makes the search build its whole candidate
    # list, 4083 (bit, remainder) pairs of 4096-bit ints, about 2.4 MiB
    params = CodeParams(12, 2)
    v = Word(params.n, 1 << (params.n - 1) | 1)
    syndrome(Word(params.n, 0), params)  # warm-up: the transforms' masks stay cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert decode_search(v, params).status == FAILURE
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20, kept
