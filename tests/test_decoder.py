import itertools
import random

import pytest

from rmgb.decoder import (
    CLEAN,
    CORRECTED_LOW,
    CORRECTED_OMEGA,
    FAILURE,
    decode,
    decode_search,
    hat_set,
    ml_decode_bruteforce,
    random_error,
    syndrome,
)
from rmgb.division import remainder
from rmgb.polyring import GRLEX, Poly, parse_poly
from rmgb.rmcode import (
    CodeParams,
    Word,
    codewords,
    encode,
    groebner_basis,
    poly_to_word,
    random_message,
    subset_monomial,
    word_to_poly,
)

P32 = CodeParams(3, 2)


def test_syndrome_golden():
    syn = syndrome(Word.from_string("10100010"), P32)
    assert syn.remainder == parse_poly("x2 + x3 + 1", 3)
    assert syn.weight == 3


def test_syndrome_of_codewords_is_zero():
    rng = random.Random(17)
    for _ in range(20):
        c = encode(random_message(P32, rng), P32)
        assert syndrome(c, P32).weight == 0


def test_syndrome_unit_vector():
    # position 7 carries the monomial x3, which no leading term divides
    w = Word.zeros(8).flip(7)
    assert syndrome(w, P32).remainder == parse_poly("x3", 3)


def test_syndrome_shift_invariance():
    # adding a codeword never changes the syndrome: exhaustive for m = 3
    for c in codewords(P32):
        for value in range(256):
            e = Word(8, value)
            assert syndrome(c + e, P32).remainder == syndrome(e, P32).remainder


def test_syndrome_shift_invariance_m4_random():
    params = CodeParams(4, 3)
    rng = random.Random(23)
    for _ in range(200):
        c = encode(random_message(params, rng), params)
        e = Word(16, rng.getrandbits(16))
        assert syndrome(c + e, params).remainder == syndrome(e, params).remainder


def test_syndrome_length_mismatch():
    with pytest.raises(ValueError):
        syndrome(Word(4, 0), P32)


def test_hat_set_examples():
    assert hat_set({3}, P32).hat == frozenset({frozenset({3})})
    assert hat_set({1, 3}, P32).hat == frozenset(
        {frozenset(), frozenset({1}), frozenset({3})}
    )
    assert hat_set({1, 2, 3}, P32).hat == frozenset(
        {frozenset({1}), frozenset({2}), frozenset({3})}
    )


def test_hat_set_structure():
    for params in (CodeParams(4, 2), CodeParams(4, 3)):
        for k in range(0, params.m + 1):
            for combo in itertools.combinations(range(1, params.m + 1), k):
                loc = frozenset(combo)
                hs = hat_set(loc, params)
                if k < params.l:
                    assert hs.hat == frozenset({loc})
                elif k == params.l:
                    proper = frozenset(
                        frozenset(sub)
                        for r in range(k)
                        for sub in itertools.combinations(combo, r)
                    )
                    assert hs.hat == proper
                    assert len(hs.hat) == params.min_distance - 1


def hat_symdiff(locations, params):
    """Remainder of a sum of location monomials, by division and by hat sets.

    By linearity of remainders the symmetric difference of the hat sets
    must be the support of the division remainder; returns both routes.
    """
    total = Poly(params.m, [subset_monomial(params.m, loc) for loc in locations])
    by_division = remainder(total, groebner_basis(params), GRLEX)
    acc = set()
    for loc in locations:
        acc ^= hat_set(loc, params).hat
    by_hats = Poly(params.m, [subset_monomial(params.m, sub) for sub in acc])
    return by_division, by_hats


def test_hat_symdiff_examples():
    for family, want in [
        ([{1}, {2}], "x1 + x2"),
        ([{1, 2}, {1, 3}], "x2 + x3"),
        ([{2, 3}], "x2 + x3 + 1"),
    ]:
        assert hat_symdiff(family, P32) == (parse_poly(want, 3), parse_poly(want, 3))


def test_hat_symdiff_duplicates_cancel():
    # X_I + X_I = 0 over GF(2), and the two equal hat sets cancel as well
    assert hat_symdiff([{1, 2}, {1, 2}], P32) == (Poly.zero(3), Poly.zero(3))
    by_division, by_hats = hat_symdiff([{1, 2}, {1, 2}, {1, 3}], P32)
    assert by_division == by_hats == parse_poly("x1 + x3 + 1", 3)


def test_hat_symdiff_routes_agree_random():
    rng = random.Random(31)
    for params in (CodeParams(4, 2), CodeParams(4, 3)):
        all_subsets = [
            frozenset(c)
            for k in range(0, params.m + 1)
            for c in itertools.combinations(range(1, params.m + 1), k)
        ]
        for _ in range(100):
            family = rng.sample(all_subsets, rng.randint(1, 5))
            by_division, by_hats = hat_symdiff(family, params)
            assert by_division == by_hats


def test_decode_golden():
    result = decode(Word.from_string("10100010"), P32)
    assert result.status == CORRECTED_OMEGA
    assert str(result.codeword) == "10101010"
    assert result.error == parse_poly("x2*x3", 3)
    assert result.chosen_locations == (frozenset({2, 3}),)


def test_decode_clean():
    c = encode(parse_poly("y1 + 1", 3), P32)
    result = decode(c, P32)
    assert result.status == CLEAN
    assert result.codeword == c
    assert not result.error
    assert result.chosen_locations is None


def test_decode_low_weight_error():
    c = encode(parse_poly("y2", 3), P32)
    v = c.flip(8)  # position 8 carries the constant monomial
    result = decode(v, P32)
    assert result.status == CORRECTED_LOW
    assert result.codeword == c
    assert result.error == Poly.one(3)


def test_decode_failure_on_double_error():
    v = Word.from_string("11000000")  # two high-degree error locations
    result = decode(v, P32)
    assert result.status == FAILURE
    assert result.codeword is None and result.error is None


def test_decode_result_reconstructs_received():
    rng = random.Random(41)
    for params in (P32, CodeParams(4, 3)):
        for _ in range(50):
            c = encode(random_message(params, rng), params)
            e = random_error(params, "fixed_weight", rng, weight=rng.randint(0, params.t))
            v = c + e
            result = decode(v, params)
            assert result.status != FAILURE
            assert result.codeword + poly_to_word(result.error) == v
            assert (result.status == CLEAN) == (not result.error)


def test_decode_matches_search_on_single_errors_l2():
    rng = random.Random(43)
    for m in range(2, 7):
        params = CodeParams(m, 2)
        zero = Word.zeros(params.n)
        assert decode(zero, params) == decode_search(zero, params)
        for c in (zero, encode(random_message(params, rng), params)):
            for position in range(1, params.n + 1):
                v = c.flip(position)
                assert decode(v, params) == decode_search(v, params)


def test_decode_matches_search_on_double_error():
    v = Word.from_string("11000000")
    assert decode(v, P32) == decode_search(v, P32)
    assert decode(v, P32).status == FAILURE


def test_ml_bruteforce_golden():
    res = ml_decode_bruteforce(Word.from_string("10100010"), P32)
    assert str(res.codeword) == "10101010"
    assert res.distance == 1
    assert not res.is_tie


def test_ml_bruteforce_tie():
    res = ml_decode_bruteforce(Word.from_string("11000000"), P32)
    assert res.distance == 2
    assert res.is_tie


def test_random_error_fixed_weight():
    params = CodeParams(4, 3)
    e1 = random_error(params, "fixed_weight", 9, weight=3)
    e2 = random_error(params, "fixed_weight", 9, weight=3)
    assert e1 == e2
    assert e1.weight() == 3
    assert random_error(params, "fixed_weight", 9, weight=0) == Word.zeros(16)


def test_random_error_bsc():
    params = CodeParams(4, 3)
    e1 = random_error(params, "bsc", 9, flip_prob=0.3)
    e2 = random_error(params, "bsc", 9, flip_prob=0.3)
    assert e1 == e2
    assert random_error(params, "bsc", 9, flip_prob=0.0) == Word.zeros(16)
    assert random_error(params, "bsc", 9, flip_prob=1.0).weight() == 16


def test_random_error_shared_stream():
    params = CodeParams(3, 2)
    rng = random.Random(1)
    draws = {random_error(params, "fixed_weight", rng, weight=1) for _ in range(30)}
    assert len(draws) > 1


def test_random_error_bad_args():
    params = CodeParams(3, 2)
    with pytest.raises(ValueError):
        random_error(params, "fixed_weight", 0)
    with pytest.raises(ValueError):
        random_error(params, "fixed_weight", 0, weight=9)
    with pytest.raises(ValueError):
        random_error(params, "bsc", 0, flip_prob=1.5)
    with pytest.raises(ValueError):
        random_error(params, "burst", 0)
