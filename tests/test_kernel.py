"""The XOR-transform kernel against the slow reference paths.

Encoding is pinned to point-by-point evaluation, and syndromes and hat
sets to multivariate division by G(m, l).  The int message core
(``encode_bits``, ``random_message_bits``) is pinned to the ``Poly``
entry points, and ``DecodeResult.error`` to its ``error_bits``.

Run as a script, ``python tests/test_kernel.py M L [COUNT]`` pins
``syndrome`` to the remainder on division by G(M, L) for COUNT seeded
dense words (default 3), at an m too slow for the suite, such as 16.
"""

import itertools
import random
import re
import sys
import time

import pytest

import rmgb.decoder
from rmgb.decoder import (
    CLEAN,
    CORRECTED_LOW,
    CORRECTED_OMEGA,
    FAILURE,
    decode,
    decode_search,
    hat_set,
    syndrome,
)
from rmgb.division import remainder
from rmgb.polyring import GRLEX, Poly, parse_poly
from rmgb.rmcode import (
    CodeParams,
    Word,
    bit_subset,
    encode,
    encode_bits,
    groebner_basis,
    message_monomials,
    monomial_positions,
    poly_to_word,
    random_message,
    random_message_bits,
    subset_bit,
    subset_bits,
    subset_xor,
    superset_xor,
    word_to_poly,
)
from tuple_toolkit import monomial_subset, subset_monomial


def encode_by_evaluation(message, params):
    """Reference encoder: evaluate the message at every point, one by one."""
    value = 0
    for point in monomial_positions(params.m):
        bit = 0
        for alpha in message.support:
            if all(a <= p for a, p in zip(alpha, point)):
                bit ^= 1
        value = (value << 1) | bit
    return Word(params.n, value)


@pytest.mark.parametrize("m", range(1, 9))
def test_encode_matches_evaluation(m):
    rng = random.Random(m)
    for l in range(m + 1):
        params = CodeParams(m, l)
        messages = [Poly(m, [mono]) for mono in message_monomials(params)]
        messages += [random_message(params, rng) for _ in range(3)]
        for message in messages:
            assert encode(message, params) == encode_by_evaluation(message, params)


@pytest.mark.parametrize("m", range(1, 8))
def test_syndrome_and_hat_sets_match_division(m):
    rng = random.Random(m)
    positions = monomial_positions(m)
    for l in range(m + 1):
        params = CodeParams(m, l)
        basis = groebner_basis(params)
        for b in range(params.n):
            unit = Word(params.n, 1 << b)
            want = remainder(word_to_poly(unit), basis, GRLEX)
            assert syndrome(unit, params) == poly_to_word(want)
            location = monomial_subset(positions[params.n - 1 - b])
            assert hat_set(location, params) == {monomial_subset(mono) for mono in want.support}
        for _ in range(20):
            v = Word(params.n, rng.getrandbits(params.n))
            want = remainder(word_to_poly(v), basis, GRLEX)
            assert syndrome(v, params) == poly_to_word(want)


def test_transforms_are_involutions():
    rng = random.Random(5)
    for m in (1, 3, 6, 10):
        for _ in range(10):
            value = rng.getrandbits(1 << m)
            assert subset_xor(subset_xor(value, m), m) == value
            assert superset_xor(superset_xor(value, m), m) == value


def test_subset_bit_matches_word_positions():
    assert subset_bit(3, {1, 2, 3}) == 7
    assert subset_bit(3, {1}) == 4
    assert subset_bit(3, set()) == 0
    for m in range(1, 6):
        for b, mono in enumerate(reversed(monomial_positions(m))):
            assert subset_bit(m, monomial_subset(mono)) == b
    with pytest.raises(ValueError):
        subset_bit(3, {4})


def test_bit_subset_inverts_subset_bit():
    for m in range(1, 7):
        for b in range(1 << m):
            location = bit_subset(m, b)
            assert subset_bit(m, location) == b
            assert bit_subset(m, subset_bit(m, location)) == location
        for bad in (0, m + 1):
            with pytest.raises(ValueError, match=f"^index {bad} out of range 1..{m}$"):
                subset_bit(m, {1, bad})
    rng = random.Random(16)
    for _ in range(200):
        location = frozenset(i for i in range(1, 17) if rng.random() < 0.5)
        assert bit_subset(16, subset_bit(16, location)) == location
        assert subset_bit(16, location) == subset_bit(16, sorted(location))  # any iterable


def test_subset_bits_follow_combinations_order():
    for m in range(1, 7):
        for sizes in [range(m, -1, -1), range(0, m + 1), (m // 2,), ()]:
            want = [
                subset_bit(m, combo)
                for k in sizes
                for combo in itertools.combinations(range(1, m + 1), k)
            ]
            assert list(subset_bits(m, sizes)) == want, (m, sizes)


@pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 16])
def test_m16_edge(l):
    params = CodeParams(16, l)
    c = encode(random_message(params, random.Random(l)), params)
    assert syndrome(c, params).weight() == 0
    result = decode(c, params)
    assert result.status == CLEAN and result.codeword == c
    if l >= 2:
        location = set(range(1, l))  # the heaviest location below degree l
        result = decode(Word(params.n, c.value ^ 1 << subset_bit(16, location)), params)
        assert result.status == CORRECTED_LOW
        assert result.codeword == c
        assert result.error == Poly(16, [subset_monomial(16, location)])
    if l in (2, 3):
        location = [2, 9, 16][:l]  # one location of size l, spread over the variables
        proper = {frozenset(sub) for k in range(l) for sub in itertools.combinations(location, k)}
        assert hat_set(location, params) == proper


@pytest.mark.parametrize("m", range(1, 9))
def test_encode_bits_matches_encode(m):
    rng = random.Random(100 + m)
    for l in range(m + 1):
        params = CodeParams(m, l)
        messages = [Poly(m, [mono]) for mono in message_monomials(params)]
        messages += [random_message(params, rng) for _ in range(3)]
        for f in messages:
            assert encode_bits(poly_to_word(f).value, params) == encode(f, params)


def message_bits_by_monomials(params, seed):
    """Reference draw: bit b of one n-bit getrandbits draw keeps the monomial of
    word position n - b when that monomial has degree at most nu."""
    draw = random.Random(seed).getrandbits(params.n)
    chosen = frozenset(
        mono
        for j, mono in enumerate(monomial_positions(params.m))
        if draw >> (params.n - 1 - j) & 1 and sum(mono) <= params.nu
    )
    return poly_to_word(Poly._make(params.m, chosen)).value


@pytest.mark.parametrize("m,l", [(m, l) for m in range(1, 9) for l in range(m + 1)] + [(16, 2), (16, 8)])
def test_random_message_bits_matches_random_message(m, l):
    params = CodeParams(m, l)
    for seed in range(3):
        bits = random_message_bits(params, random.Random(seed))
        assert bits == poly_to_word(random_message(params, random.Random(seed))).value
        assert bits == message_bits_by_monomials(params, seed)
    # one stream: successive draws continue it as random_message does
    a, b = random.Random(7), random.Random(7)
    for _ in range(3):
        assert random_message_bits(params, a) == poly_to_word(random_message(params, b)).value


@pytest.mark.parametrize("m,l", [(4, 2), (6, 3), (8, 6)])
def test_random_message_bits_are_uniform(m, l):
    # seeded, so the 5-sigma bound on each bit's count cannot flake
    params, draws = CodeParams(m, l), 2000
    rng = random.Random(m * 10 + l)
    counts = [0] * params.n
    for _ in range(draws):
        bits = random_message_bits(params, rng)
        for b in range(params.n):
            counts[b] += bits >> b & 1
    for b, count in enumerate(counts):
        if b.bit_count() > params.nu:
            assert count == 0, b  # never a bit above the code order
        else:
            assert abs(count - draws / 2) < 5 * (draws / 4) ** 0.5, (b, count)


def raises_exactly(text):
    return pytest.raises(ValueError, match=f"^{re.escape(text)}$")


@pytest.mark.parametrize("m,l", [(2, 2), (2, 1), (8, 2), (16, 2), (16, 8)])
def test_bad_messages_rejected_with_the_same_text(m, l):
    params = CodeParams(m, l)
    squared = Poly(m, [(2,) + (0,) * (m - 1), (0,) * m])  # x1^2 + 1
    # x1^2 plus up to n/4 + 33 square-free terms: from m = 8, dense enough for poly_to_word's merge
    dense = Poly(m, [(2,) + (0,) * (m - 1), *monomial_positions(m)[: params.n // 4 + 33]])
    for bad in (squared, dense):
        with raises_exactly("only square-free polynomials correspond to words"):
            poly_to_word(bad)
        with raises_exactly("only square-free polynomials correspond to words"):
            encode(bad, params)
    top = Poly(m, [(1,) * (params.nu + 1) + (0,) * (l - 1), (0,) * m])  # degree nu + 1
    text = f"message degree {params.nu + 1} exceeds code order {params.nu}"
    with raises_exactly(text):
        encode(top, params)
    with raises_exactly(text):
        encode_bits(poly_to_word(top).value, params)
    with raises_exactly(f"message has {m} variables, code expects {m - 1}"):
        encode(Poly(m, [(0,) * m]), CodeParams(m - 1, 0))


@pytest.mark.parametrize("m,l", [(3, 2), (16, 2)])
def test_encode_bits_rejects_ints_outside_the_word(m, l):
    params = CodeParams(m, l)
    text = f"message bits out of range for {params.n}-bit words"
    # 2^n first: without the range check it fails fast, while a set-bit walk on -1 never ends
    for bits in (1 << params.n, -1, -(1 << params.n)):
        with raises_exactly(text):
            encode_bits(bits, params)
    assert encode_bits(1, params) == Word(params.n, (1 << params.n) - 1)  # the constant 1


def test_encode_bits_degree_error_reads_the_largest_popcount():
    rng = random.Random(8)
    for m in range(1, 7):
        for l in range(1, m + 1):
            params = CodeParams(m, l)
            for _ in range(10):
                bits = rng.getrandbits(params.n)
                support = word_to_poly(Word(params.n, bits)).support  # the old route
                degree = max(map(sum, support), default=-1)
                if degree <= params.nu:
                    assert encode_bits(bits, params) == encode(word_to_poly(Word(params.n, bits)), params)
                    continue
                with raises_exactly(f"message degree {degree} exceeds code order {params.nu}"):
                    encode_bits(bits, params)


def test_decode_result_error_is_built_from_its_bits(monkeypatch):
    params = CodeParams(3, 2)
    c = encode(parse_poly("y1 + y3", 3), params)
    words = {
        CLEAN: c,
        CORRECTED_LOW: c.flip(8),  # the constant monomial
        CORRECTED_OMEGA: c.flip(1),  # X1*X2*X3
        FAILURE: Word.from_string("11000000"),
    }
    calls = []

    def counting(w):
        calls.append(w)
        return word_to_poly(w)

    monkeypatch.setattr(rmgb.decoder, "word_to_poly", counting)
    for status, v in words.items():
        for result in (decode(v, params), decode_search(v, params)):
            assert result.status == status
            assert not calls  # decoding builds no polynomial
            if status == FAILURE:
                assert result.error_bits is None and result.error is None
                continue
            assert result.error_bits == (v + result.codeword).value
            assert result.error == word_to_poly(Word(params.n, result.error_bits))
            assert result.error is result.error  # built once, on the first read
            assert calls == [Word(params.n, result.error_bits)]  # through the decoder's global
            calls.clear()


if __name__ == "__main__":
    m, l = int(sys.argv[1]), int(sys.argv[2])
    count = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    params = CodeParams(m, l)
    basis = groebner_basis(params)
    rng = random.Random(90 + 17 * m + l)
    start = time.perf_counter()
    for _ in range(count):
        v = Word(params.n, rng.getrandbits(params.n))
        want = poly_to_word(remainder(word_to_poly(v), basis, GRLEX))
        if syndrome(v, params) != want:
            sys.exit(f"m = {m}, l = {l}: syndrome differs from the division remainder on the word {v.value:#x}")
    print(f"m = {m}, l = {l}: syndrome equals the division remainder on {count} dense words"
          f" in {time.perf_counter() - start:.1f} s")
