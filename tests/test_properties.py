"""Property tests of syndromes, decoding, polynomial text and Groebner bases,
with fixed example sequences.

``derandomize=True`` makes every run draw the same examples, so these
tests are as repeatable as the rest of the suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rmgb.decoder import CLEAN, decode, syndrome
from rmgb.groebner import buchberger_complete, check_basis, reduce_basis
from rmgb.polyring import EXPONENT_CAP, ORDERS, Poly, format_poly, parse_poly
from rmgb.rmcode import (
    CodeParams,
    Word,
    encode,
    message_monomials,
    monomial_positions,
    square_relations,
    word_to_poly,
)

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
    assert syndrome(a + b, params) == syndrome(a, params) + syndrome(b, params)


@PROPERTY_SETTINGS
@given(st.data())
def test_codewords_have_zero_syndrome(data):
    params = data.draw(code_params())
    assert syndrome(data.draw(codewords(params)), params).weight() == 0


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


@st.composite
def polys(draw, max_m=6, max_exp=EXPONENT_CAP):
    m = draw(st.integers(1, max_m))
    mono = st.tuples(*[st.integers(0, max_exp)] * m)
    return Poly(m, draw(st.lists(mono, max_size=8)))


@PROPERTY_SETTINGS
@given(polys(), st.sampled_from(ORDERS))
def test_format_then_parse_round_trips(f, order):
    assert parse_poly(format_poly(f, order), f.m) == f


@PROPERTY_SETTINGS
@given(st.data())
def test_completion_is_groebner_and_reduces_alike_in_any_generator_order(data):
    # square-free generators plus the relations x_i^2 + 1 keep every
    # exponent that Buchberger's algorithm meets below the cap
    m = data.draw(st.integers(1, 4))
    order = data.draw(st.sampled_from(ORDERS))
    squarefree = st.sampled_from(monomial_positions(m))
    extra = data.draw(st.lists(st.lists(squarefree, min_size=1, max_size=4), min_size=1, max_size=3))
    gens = list(square_relations(m)) + [Poly(m, monos) for monos in extra]
    basis = buchberger_complete(gens, order)
    assert check_basis(basis, order).is_groebner
    permuted = data.draw(st.permutations(gens))
    assert reduce_basis(buchberger_complete(permuted, order), order) == reduce_basis(basis, order)
