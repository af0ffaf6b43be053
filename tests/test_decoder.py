import itertools
import os
import random
import subprocess
import sys
from functools import cache
from math import comb
from pathlib import Path

import pytest

from rmgb import decoder
from rmgb.decoder import (
    CLEAN,
    CORRECTED_LOW,
    CORRECTED_OMEGA,
    FAILURE,
    _NO_ERROR,
    _leaf_syndrome,
    _leaf_tables,
    _nearest,
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
    codeword_values,
    codewords,
    encode,
    encode_bits,
    groebner_basis,
    poly_to_word,
    random_message,
    random_message_bits,
    rank,
    subset_bits,
    superset_xor,
    word_to_poly,
)
from tuple_toolkit import subset_monomial

P32 = CodeParams(3, 2)


def test_syndrome_golden():
    syn = syndrome(Word.from_string("10100010"), P32)
    assert word_to_poly(syn) == parse_poly("x2 + x3 + 1", 3)
    assert syn.weight() == 3


def test_syndrome_of_codewords_is_zero():
    rng = random.Random(17)
    for _ in range(20):
        c = encode(random_message(P32, rng), P32)
        assert syndrome(c, P32).weight() == 0


def test_syndrome_unit_vector():
    # position 7 carries the monomial x3, which no leading term divides
    w = Word(8, 0).flip(7)
    assert word_to_poly(syndrome(w, P32)) == parse_poly("x3", 3)


def test_syndrome_shift_invariance():
    # adding a codeword never changes the syndrome: exhaustive for m = 3
    for c in codewords(P32):
        for value in range(256):
            e = Word(8, value)
            assert syndrome(c + e, P32) == syndrome(e, P32)


def test_syndrome_shift_invariance_m4_random():
    params = CodeParams(4, 3)
    rng = random.Random(23)
    for _ in range(200):
        c = encode(random_message(params, rng), params)
        e = Word(16, rng.getrandbits(16))
        assert syndrome(c + e, params) == syndrome(e, params)


def test_syndrome_length_mismatch():
    with pytest.raises(ValueError):
        syndrome(Word(4, 0), P32)


def test_hat_set_examples():
    assert hat_set({3}, P32) == frozenset({frozenset({3})})
    assert hat_set({1, 3}, P32) == frozenset(
        {frozenset(), frozenset({1}), frozenset({3})}
    )
    assert hat_set({1, 2, 3}, P32) == frozenset(
        {frozenset({1}), frozenset({2}), frozenset({3})}
    )


def test_hat_set_structure():
    for params in (CodeParams(4, 2), CodeParams(4, 3)):
        for k in range(0, params.m + 1):
            for combo in itertools.combinations(range(1, params.m + 1), k):
                loc = frozenset(combo)
                hs = hat_set(loc, params)
                if k < params.l:
                    assert hs == frozenset({loc})
                elif k == params.l:
                    proper = frozenset(
                        frozenset(sub)
                        for r in range(k)
                        for sub in itertools.combinations(combo, r)
                    )
                    assert hs == proper
                    assert len(hs) == params.min_distance - 1


def hat_symdiff(locations, params):
    """Remainder of a sum of location monomials, by division and by hat sets.

    By linearity of remainders the symmetric difference of the hat sets
    must be the support of the division remainder; returns both routes.
    """
    total = Poly(params.m, [subset_monomial(params.m, loc) for loc in locations])
    by_division = remainder(total, groebner_basis(params), GRLEX)
    acc = set()
    for loc in locations:
        acc ^= hat_set(loc, params)
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
    assert hat_symdiff([{1, 2}, {1, 2}], P32) == (Poly(3), Poly(3))
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
    assert result.error == parse_poly("1", 3)


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
        zero = Word(params.n, 0)
        assert decode(zero, params) == decode_search(zero, params)
        for c in (zero, encode(random_message(params, rng), params)):
            for position in range(1, params.n + 1):
                v = c.flip(position)
                assert decode(v, params) == decode_search(v, params)


def test_decode_matches_search_on_double_error():
    v = Word.from_string("11000000")
    assert decode(v, P32) == decode_search(v, P32)
    assert decode(v, P32).status == FAILURE


def test_decode_length_mismatch():
    with pytest.raises(ValueError, match="^word length 4 does not match code length 8$"):
        decode(Word(4, 0), P32)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_extended_hamming_leaf_matches_brute_force(k):
    # RM(k - 2, k) is M^2 in k variables: every word, 2^16 of them at k = 4
    params = CodeParams(k, 2)
    code = set(codeword_values(params))
    for y in range(1 << params.n):
        near = [c for c in (y, *(y ^ 1 << b for b in range(params.n))) if c in code]
        assert _nearest(y, k, k - 2) == (near[0] if near else None), y


@pytest.mark.parametrize("r", [1, 2])
def test_nearest_at_k4_is_the_radius_t_decoder(r):
    # RM(1, 4) has t = 3 (Reed's vote) and RM(2, 4) t = 1 (the Hamming fold):
    # on every 16-bit word _nearest returns None or a codeword within t, and it
    # finds one for every word in the radius-t balls, which do not overlap
    params = CodeParams(4, 4 - r)
    code = set(codeword_values(params))
    assert len(code) == 1 << params.dim
    found = 0
    for y in range(1 << 16):
        c = _nearest(y, 4, r)
        if c is not None:
            assert c in code and (y ^ c).bit_count() <= params.t, y
            found += 1
    assert found == len(code) * sum(comb(16, w) for w in range(params.t + 1))


LEAVES = [(5, 2), (5, 3)]


@pytest.mark.parametrize("k, r", [(4, 1), (4, 2), *LEAVES])
def test_leaf_syndrome_is_the_low_degree_y_coefficients(k, r):
    # the leaf syndrome is the word's coefficients of degree < l = k - r in the
    # y basis (remainder_bits before it maps them back): for k = 5 those of the
    # lower half's positions, then the upper half's, each in subset_bits order;
    # a linear map whose kernel is exactly RM(r, k).  At k = 4 it is the top
    # 11 - 6 (r - 1) bits of low, which the k = 5 rule reads for both halves
    params = CodeParams(k, k - r)
    order = list(subset_bits(4, range(4 - r)))
    if k == 5:
        order = list(subset_bits(4, range(5 - r))) + [16 + b for b in order]
    low = _leaf_tables()[0]
    leaf_syndrome = (lambda y: low[y] >> 6 * r - 6) if k == 4 else (lambda y: _leaf_syndrome(y, r, low))
    rng = random.Random(11)
    for y in [1 << b for b in range(params.n)] + [rng.getrandbits(params.n) for _ in range(2000)]:
        x = superset_xor(y, k)
        assert leaf_syndrome(y) == int("".join(str(x >> b & 1) for b in order), 2), y
    rows = [encode_bits(1 << b, params).value for b in subset_bits(k, range(r + 1))]
    assert [leaf_syndrome(row) for row in rows] == [0] * params.dim
    assert rank([leaf_syndrome(1 << b) for b in range(params.n)]) == params.n - params.dim


@pytest.mark.parametrize("k, r", LEAVES)
def test_leaf_error_table_holds_the_radius_t_ball(k, r):
    # one entry per syndrome; each one the sentinel or an error of weight <= t
    # at its own syndrome, and every error of weight <= t is there
    params = CodeParams(k, k - r)
    tables = _leaf_tables()
    table = tables[1 + LEAVES.index((k, r))]
    assert len(table) == 1 << params.n - params.dim
    found = 0
    for s, error in enumerate(table):
        if error != _NO_ERROR:
            assert error.bit_count() <= params.t and _leaf_syndrome(error, r, tables[0]) == s, s
            found += 1
    assert found == sum(comb(params.n, w) for w in range(params.t + 1))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_nearest_at_k5_matches_decode_search(r):
    # RM(2, 5) and RM(3, 5) are syndrome leaves and RM(1, 5) takes Reed's
    # vote: codewords plus 0..t + 1 flips, and random words
    params = CodeParams(5, 5 - r)
    rng = random.Random(12 + r)
    words = [rng.getrandbits(32) for _ in range(100)]
    for flips in range(params.t + 2):
        for _ in range(60):
            c = encode_bits(random_message_bits(params, rng), params).value
            words.append(c ^ random_error(params, "fixed_weight", rng, weight=flips).value)
    for y in words:
        expected = decode_search(Word(32, y), params).codeword
        assert _nearest(y, 5, r) == (None if expected is None else expected.value), y


@pytest.mark.parametrize("k", range(3, 11))
def test_first_order_step_is_the_radius_t_decoder(k):
    # RM(1, k) by Reed's vote, against a scan of all 2^(k+1) codewords for the
    # one within t: uniform words, and codewords plus 0, t - 1, t, t + 1 and
    # t + 2 flips, where the vote's majorities come closest to a tie
    params = CodeParams(k, k - 1)
    code = [0]
    for b in subset_bits(k, (0, 1)):
        row = encode_bits(1 << b, params).value
        code += [c ^ row for c in code]
    assert len(set(code)) == 1 << k + 1
    rng = random.Random(f"first order {k}")
    t = params.t
    words = [rng.getrandbits(params.n) for _ in range(40)]
    for flips in (0, t - 1, t, t + 1, t + 2):
        words += [rng.choice(code) ^ random_error(params, "fixed_weight", rng, weight=flips).value for _ in range(40)]
    for y in words:
        near = [c for c in code if (y ^ c).bit_count() <= t]
        assert _nearest(y, k, 1) == (near[0] if near else None), y


@cache
def call_bound(k: int, r: int) -> int:
    """The most ``_nearest`` calls that a 2^k-bit word can cost in RM(r, k).

    One at a leaf (r <= 1, r >= k - 2, the RM(2, 5) table or the RM(3, 6)
    node), and at a split 1 + T(k - 1, r - 1) + 2 T(k - 1, r): the v-decode
    and both u-copies.
    """
    if r <= 1 or r >= k - 2 or (k, r) in ((5, 2), (6, 3)):
        return 1
    return 1 + call_bound(k - 1, r - 1) + 2 * call_bound(k - 1, r)


def count_nearest_calls(monkeypatch) -> list:
    """The (k, r) of every ``_nearest`` call from here on, the recursion's too, through the module global."""
    calls, inner = [], decoder._nearest

    def counted(y, k, r):
        calls.append((k, r))
        return inner(y, k, r)

    monkeypatch.setattr(decoder, "_nearest", counted)
    return calls


def rm36_words(rng, count: int) -> list:
    """``count`` 64-bit words: half uniform, then RM(3, 6) codewords plus 0..6 flips in turn."""
    params = CodeParams(6, 3)
    words = [rng.getrandbits(64) for _ in range(count // 2)]
    for i in range(count - len(words)):
        c = encode_bits(random_message_bits(params, rng), params).value
        words.append(c ^ random_error(params, "fixed_weight", rng, weight=i % 7).value)
    return words


def test_rm36_node_matches_the_split():
    # the (6, 3) branch against the (u | u + v) split it replaces, composed
    # from the k = 5 leaves as the generic split composes them
    def split(y):
        lo, hi = y & 0xFFFFFFFF, y >> 32
        v = _nearest(lo ^ hi, 5, 2)
        if v is None:
            return None
        for copy in (lo, hi ^ v):
            u = _nearest(copy, 5, 3)
            if u is not None and (lo ^ u).bit_count() + (hi ^ v ^ u).bit_count() <= 3:
                return u | (u ^ v) << 32
        return None

    for y in rm36_words(random.Random("rm36 split"), 20000):
        assert _nearest(y, 6, 3) == split(y), y


def test_rm36_decode_is_one_call(monkeypatch):
    calls = count_nearest_calls(monkeypatch)
    for y in rm36_words(random.Random("rm36 calls"), 2000):
        calls.clear()
        decode(Word(64, y), CodeParams(6, 3))
        assert calls == [(6, 3)], y


def test_nearest_calls_stay_within_the_worst_case_bound(monkeypatch):
    assert [call_bound(12, 4), call_bound(16, 4)] == [1630, 72190]
    calls = count_nearest_calls(monkeypatch)
    for m, l in ((12, 8), (16, 12)):
        params, rng = CodeParams(m, l), random.Random(f"call bound {m} {l}")
        for _ in range(4):
            c = encode_bits(random_message_bits(params, rng), params)
            calls.clear()
            assert decode(c + random_error(params, "fixed_weight", rng, weight=params.t), params).codeword == c
            assert 1 < len(calls) <= call_bound(m, m - l)
            calls.clear()
            decode(Word(params.n, rng.getrandbits(params.n)), params)
            assert 1 <= len(calls) <= call_bound(m, m - l)


def test_leaf_tables_are_built_on_first_use():
    # a fresh process: importing rmgb and decoding a word within t of zero at
    # (6, 3) returns before the RM(3, 6) node, so it builds no table and loads
    # no array module; a word that reaches the node builds them once
    script = ("import random, sys, rmgb; from rmgb import decoder; "
              "p = rmgb.CodeParams(6, 3); "
              "r = rmgb.decode(rmgb.random_error(p, 'fixed_weight', 1, weight=3), p); "
              "print(r.error_bits.bit_count(), len(decoder._LEAF_TABLES), 'array' in sys.modules); "
              "c = rmgb.encode_bits(rmgb.random_message_bits(p, random.Random(2)), p); "
              "r = rmgb.decode(c + rmgb.random_error(p, 'fixed_weight', 3, weight=3), p); "
              "print(r.codeword == c, len(decoder._LEAF_TABLES))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["3 0 False", "True 3"]


@pytest.mark.parametrize("m", range(2, 17))
def test_l2_fails_exactly_on_even_words_with_nonzero_syndrome(m):
    # an odd-weight word lies at distance 1 from the extended Hamming code
    params = CodeParams(m, 2)
    if m <= 4:
        words = [Word(params.n, value) for value in range(1 << params.n)]
    else:
        rng = random.Random(f"l2 {m}")
        words = []
        for k in range(60):
            c = encode_bits(random_message_bits(params, rng), params).value
            if k % 4 == 3:
                c ^= rng.getrandbits(params.n)
            else:  # a codeword, or one or two bits flipped
                c ^= sum(1 << b for b in rng.sample(range(params.n), k % 4))
            words.append(Word(params.n, c))
    for v in words:
        failed = decode(v, params).status == FAILURE
        assert failed == (v.weight() % 2 == 0 and syndrome(v, params).value != 0), (m, v.value)


def test_ml_bruteforce_golden():
    res = ml_decode_bruteforce(Word.from_string("10100010"), P32)
    assert str(res.codeword) == "10101010"
    assert res.distance == 1
    assert not res.is_tie


def test_ml_bruteforce_tie():
    res = ml_decode_bruteforce(Word.from_string("11000000"), P32)
    assert res.distance == 2
    assert res.is_tie


def ml_decode_by_words(v, params):
    """Reference ML scan: XOR every enumerated codeword Word with v, keep the first minimum."""
    best = best_dist = None
    tie = False
    for c in codewords(params):
        dist = (c + v).weight()
        if best_dist is None or dist < best_dist:
            best, best_dist, tie = c, dist, False
        elif dist == best_dist:
            tie = True
    return best, best_dist, tie


def test_ml_bruteforce_matches_word_scan():
    rng = random.Random(44)
    cases = [(CodeParams(m, l), range(1 << (1 << m))) for m in range(1, 4) for l in range(m + 1)]
    cases += [(CodeParams(4, l), [rng.getrandbits(16) for _ in range(10)]) for l in range(5)]
    for params, values in cases:
        for value in values:
            v = Word(params.n, value)
            res = ml_decode_bruteforce(v, params)
            assert (res.codeword, res.distance, res.is_tie) == ml_decode_by_words(v, params), (params, value)
    with pytest.raises(ValueError, match="codeword enumeration is limited to m <= 4"):
        ml_decode_bruteforce(Word(32, 0), CodeParams(5, 2))


def test_random_error_fixed_weight():
    params = CodeParams(4, 3)
    e1 = random_error(params, "fixed_weight", 9, weight=3)
    e2 = random_error(params, "fixed_weight", 9, weight=3)
    assert e1 == e2
    assert e1.weight() == 3
    assert random_error(params, "fixed_weight", 9, weight=0) == Word(16, 0)


def test_random_error_bsc():
    params = CodeParams(4, 3)
    e1 = random_error(params, "bsc", 9, flip_prob=0.3)
    e2 = random_error(params, "bsc", 9, flip_prob=0.3)
    assert e1 == e2
    assert random_error(params, "bsc", 9, flip_prob=0.0) == Word(16, 0)
    assert random_error(params, "bsc", 9, flip_prob=1.0).weight() == 16
    # the edges of the gap draw: log1p(-1) is out of domain, a subnormal p gives an inf gap
    big = CodeParams(16, 2)
    for p in (0.0, 5e-324, 1e-300):
        assert random_error(big, "bsc", 9, flip_prob=p) == Word(big.n, 0), p
    assert random_error(big, "bsc", 9, flip_prob=1.0) == Word(big.n, (1 << big.n) - 1)


def position_counts(errors, n):
    counts = [0] * n
    for e in errors:
        for b in range(n):
            counts[b] += e.value >> b & 1
    return counts


@pytest.mark.parametrize("m,l,p", [(8, 2, 0.003), (4, 2, 0.3)])
def test_random_error_bsc_distribution(m, l, p):
    # seeded, so the 5-sigma bounds cannot flake
    params, draws = CodeParams(m, l), 5000
    rng = random.Random(m)
    errors = [random_error(params, "bsc", rng, flip_prob=p) for _ in range(draws)]
    mean = sum(e.weight() for e in errors) / draws
    assert abs(mean - params.n * p) < 5 * (params.n * p * (1 - p) / draws) ** 0.5, mean
    counts = position_counts(errors, params.n)
    assert min(counts) > 0  # every position is flipped
    for count in counts:
        assert abs(count - draws * p) < 5 * (draws * p * (1 - p)) ** 0.5, counts


def test_random_error_fixed_weight_distribution():
    params, draws, weight = CodeParams(8, 2), 2000, 3
    rng = random.Random(8)
    errors = [random_error(params, "fixed_weight", rng, weight=weight) for _ in range(draws)]
    assert all(e.weight() == weight for e in errors)
    counts = position_counts(errors, params.n)
    assert min(counts) > 0  # every position gets hit
    hit = weight / params.n  # chance that one position is among the weight chosen
    for count in counts:
        assert abs(count - draws * hit) < 5 * (draws * hit * (1 - hit)) ** 0.5, counts


def test_random_error_shared_stream():
    params = CodeParams(3, 2)
    rng = random.Random(1)
    draws = {random_error(params, "fixed_weight", rng, weight=1) for _ in range(30)}
    assert len(draws) > 1


def test_non_integer_counts_are_rejected():
    # each used to pass its range check and raise TypeError further on
    with pytest.raises(ValueError, match=r"^fixed_weight mode needs a weight in 0\.\.8$"):
        random_error(P32, "fixed_weight", 1, weight=2.5)
    with pytest.raises(ValueError, match=r"^bsc mode needs a flip probability in \[0, 1\]$"):
        random_error(P32, "bsc", 1, flip_prob="0.1")
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.16, got 2\.0$"):
        CodeParams(2.0, 1)
    with pytest.raises(ValueError, match=r"^l must be in 0\.\.m, got 1\.0$"):
        CodeParams(3, 1.0)
    # a word of length 8.5 used to construct and fail only when printed
    with pytest.raises(ValueError, match=r"^word length must be positive, got 8\.5$"):
        Word(8.5, 3)
    for make in (lambda: parse_poly("x1", 2.0), lambda: Poly(2.0, [(1, 0)])):
        with pytest.raises(ValueError, match=r"^variable count must be in 1\.\.16, got 2\.0$"):
            make()
    # a bool passed as the int it equals: Word(True, 1) failed only when printed,
    # a weight of True drew one bit, Word(3, True) built 001 and a flip
    # probability of True drew the all-ones word
    for make, message in [
        (lambda: random_error(P32, "fixed_weight", 1, weight=True), r"fixed_weight mode needs a weight in 0\.\.8"),
        (lambda: random_error(P32, "bsc", 1, flip_prob=True), r"bsc mode needs a flip probability in \[0, 1\]"),
        (lambda: Word(3, True), r"word value must be an int, got bool"),
        (lambda: CodeParams(True, 1), r"m must be in 1\.\.16, got True"),
        (lambda: CodeParams(3, True), r"l must be in 0\.\.m, got True"),
        (lambda: Word(True, 1), r"word length must be positive, got True"),
        (lambda: parse_poly("x1", True), r"variable count must be in 1\.\.16, got True"),
        (lambda: Poly(True, [(1,)]), r"variable count must be in 1\.\.16, got True"),
        # an exponent of True stayed in the support as (True, 0)
        (lambda: Poly(2, [(True, 0)]), r"bad exponent in monomial \(True, 0\)"),
        # message bits of True encoded the constant 1, and 1.5 raised AttributeError
        (lambda: encode_bits(True, P32), r"message bits out of range for 8-bit words"),
        (lambda: encode_bits(1.5, P32), r"message bits out of range for 8-bit words"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


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
