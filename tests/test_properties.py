"""Property tests of syndromes and decoding, with fixed example sequences.

``derandomize=True`` makes every run draw the same examples, so these
tests are as repeatable as the rest of the suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rmgb.decoder import CLEAN, decode, syndrome
from rmgb.polyring import Poly
from rmgb.rmcode import CodeParams, Word, encode, message_monomials, word_to_poly

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def code_params(draw, min_l=0, max_m=6):
    m = draw(st.integers(max(1, min_l), max_m))
    return CodeParams(m, draw(st.integers(min_l, m)))


@st.composite
def codewords(draw, params):
    monos = message_monomials(params)
    mask = draw(st.integers(0, (1 << len(monos)) - 1))
    message = Poly(params.m, [mono for i, mono in enumerate(monos) if mask >> i & 1])
    return encode(message, params)


def words(params):
    return st.integers(0, (1 << params.n) - 1).map(lambda value: Word(params.n, value))


@PROPERTY_SETTINGS
@given(st.data())
def test_syndrome_is_linear(data):
    params = data.draw(code_params())
    a, b = data.draw(words(params)), data.draw(words(params))
    assert syndrome(a + b, params).word == syndrome(a, params).word + syndrome(b, params).word


@PROPERTY_SETTINGS
@given(st.data())
def test_codewords_have_zero_syndrome(data):
    params = data.draw(code_params())
    assert syndrome(data.draw(codewords(params)), params).weight == 0


@PROPERTY_SETTINGS
@given(st.data())
def test_decode_corrects_up_to_t_errors(data):
    params = data.draw(code_params(min_l=2))  # t >= 1
    c = data.draw(codewords(params))
    flips = data.draw(st.sets(st.integers(0, params.n - 1), max_size=params.t))
    e = Word(params.n, sum(1 << b for b in flips))
    result = decode(c + e, params)
    assert result.codeword == c
    assert result.error == word_to_poly(e)
    assert (result.status == CLEAN) == (not flips)
