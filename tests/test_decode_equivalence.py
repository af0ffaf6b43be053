"""``decode`` against the paper's remainder search ``decode_search``.

Both must return the same status, codeword, error and chosen locations
on every received word: exhaustively for m <= 4, and on seeded samples
for m = 5 and 6.  Beyond m = 6 the search is too slow to compare with,
so the (12, 5) edge test checks ``decode`` against the known error.
"""

import random
import time

import pytest

from rmgb.decoder import CORRECTED_OMEGA, FAILURE, decode, decode_search
from rmgb.polyring import Poly
from rmgb.rmcode import CodeParams, Word, encode, monomial_positions, random_message

SMALL = [(m, l) for m in range(1, 5) for l in range(m + 1)]
SAMPLED = [(m, l) for m in (5, 6) for l in range(m + 1)]


@pytest.mark.parametrize("m,l", SMALL)
def test_decode_matches_search_on_every_word(m, l):
    params = CodeParams(m, l)
    for value in range(1 << params.n):
        v = Word(params.n, value)
        assert decode(v, params) == decode_search(v, params)


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
        assert decode(v, params) == decode_search(v, params)


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
