"""The XOR-transform kernel against the slow reference paths.

Encoding is pinned to point-by-point evaluation, and syndromes and hat
sets to multivariate division by G(m, l).
"""

import random

import pytest

from rmgb.decoder import CLEAN, CORRECTED_LOW, decode, hat_set, syndrome
from rmgb.division import remainder
from rmgb.polyring import GRLEX, Poly
from rmgb.rmcode import (
    CodeParams,
    Word,
    encode,
    groebner_basis,
    message_monomials,
    monomial_positions,
    monomial_subset,
    poly_to_word,
    random_message,
    subset_bit,
    subset_monomial,
    subset_xor,
    superset_xor,
    word_to_poly,
)


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
        messages = [Poly.monomial(m, mono) for mono in message_monomials(params)]
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
            assert syndrome(unit, params).word == poly_to_word(want)
            location = monomial_subset(positions[params.n - 1 - b])
            assert hat_set(location, params).hat == {monomial_subset(mono) for mono in want.support}
        for _ in range(20):
            v = Word(params.n, rng.getrandbits(params.n))
            want = remainder(word_to_poly(v), basis, GRLEX)
            assert syndrome(v, params).word == poly_to_word(want)


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


@pytest.mark.parametrize("l", [0, 1, 4, 16])
def test_m16_edge(l):
    params = CodeParams(16, l)
    c = encode(random_message(params, random.Random(l)), params)
    assert syndrome(c, params).weight == 0
    result = decode(c, params)
    assert result.status == CLEAN and result.codeword == c
    if l >= 2:
        location = set(range(1, l))  # the heaviest location below degree l
        result = decode(Word(params.n, c.value ^ 1 << subset_bit(16, location)), params)
        assert result.status == CORRECTED_LOW
        assert result.codeword == c
        assert result.error == Poly.monomial(16, subset_monomial(16, location))
