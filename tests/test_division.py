import copy
import pickle
import random
import re

import pytest

from rmgb.division import DivisionResult, divide, remainder
from rmgb.polyring import GRLEX, LEX, Poly, parse_poly, shared_packing
from rmgb.rmcode import CodeParams, groebner_basis
from tuple_toolkit import mono_divides, monomial_key


def G32():
    return list(groebner_basis(CodeParams(3, 2)))


def test_received_word_walkthrough():
    # dividing the received word's polynomial by the three degree-2 generators
    v = parse_poly("x1*x2*x3 + x1*x3 + x3", 3)
    result = divide(v, G32(), GRLEX)
    assert result.remainder == parse_poly("x2 + x3 + 1", 3)
    assert [str(q) for q in result.quotients] == ["x3", "0", "1"]
    assert result.reconstruct(G32()) == v


def test_full_monomial_against_generators():
    result = divide(parse_poly("x1*x2*x3", 3), G32(), GRLEX)
    assert result.remainder == parse_poly("x1 + x2 + x3", 3)
    assert [str(q) for q in result.quotients] == ["x3", "1", "1"]


def test_divisor_in_list():
    divisors = G32()
    result = divide(divisors[0], divisors, GRLEX)
    assert not result.remainder
    assert result.quotients[0] == parse_poly("1", 3)
    assert not result.quotients[1] and not result.quotients[2]


def test_remainder_shortcuts():
    assert remainder(Poly(3), G32()) == Poly(3)
    assert remainder(parse_poly("x3", 3), G32()) == parse_poly("x3", 3)
    assert remainder(parse_poly("x1*x3", 3), G32()) == parse_poly("x1 + x3 + 1", 3)


def test_zero_divisor_rejected():
    with pytest.raises(ValueError):
        divide(parse_poly("x1", 2), [Poly(2)])
    with pytest.raises(ValueError):
        divide(parse_poly("x1", 2), [])


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        divide(parse_poly("x1", 2), [parse_poly("x1", 3)])


def test_remainder_depends_on_divisor_order_without_gb():
    # classic example: {x1*x2 + 1, x2^2 + 1} is not a Groebner basis wrt grlex,
    # so swapping divisors changes the remainder of x1*x2^2
    f = parse_poly("x1*x2^2", 2)
    f1 = parse_poly("x1*x2 + 1", 2)
    f2 = parse_poly("x2^2 + 1", 2)
    r12 = remainder(f, [f1, f2], GRLEX)
    r21 = remainder(f, [f2, f1], GRLEX)
    assert r12 == parse_poly("x2", 2)
    assert r21 == parse_poly("x1", 2)
    assert r12 != r21


def rand_poly(rng, m, max_terms=6, max_exp=2, max_deg=4):
    monos = [tuple(rng.randint(0, max_exp) for _ in range(m))
             for _ in range(rng.randint(0, max_terms))]
    return Poly(m, [mono for mono in monos if sum(mono) <= max_deg])


def rand_divisors(rng, m, count=3, order=GRLEX):
    # keep the leading monomial at maximal total degree so that division
    # never pushes intermediate exponents past the cap
    out = []
    while len(out) < count:
        p = rand_poly(rng, m)
        if p and sum(p.leading(order)) == max(map(sum, p.support)):
            out.append(p)
    return out


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_reconstruction_irreducibility_multideg(order):
    rng = random.Random(313)
    key = monomial_key(order)
    for _ in range(300):
        m = rng.randint(1, 4)
        f = rand_poly(rng, m)
        divisors = rand_divisors(rng, m, rng.randint(1, 4), order)
        result = divide(f, divisors, order)
        assert result.reconstruct(divisors) == f
        leads = [d.leading(order) for d in divisors]
        for mono in result.remainder.support:
            assert not any(mono_divides(lead, mono) for lead in leads)
        if f:
            bound = key(f.leading(order))
            for q, d in zip(result.quotients, divisors):
                prod = q * d
                if prod:
                    assert key(prod.leading(order)) <= bound


def test_remainder_linearity_random():
    rng = random.Random(414)
    for _ in range(300):
        m = rng.randint(1, 4)
        divisors = rand_divisors(rng, m, rng.randint(1, 4))
        f, g = rand_poly(rng, m), rand_poly(rng, m)
        assert remainder(f + g, divisors) == remainder(f, divisors) + remainder(g, divisors)


def test_division_result_is_frozen():
    result = divide(parse_poly("x1", 2), [parse_poly("x1 + 1", 2)])
    assert isinstance(result, DivisionResult)
    with pytest.raises(AttributeError):
        result.remainder = Poly(2)


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_division_result_pickles_and_copies(order):
    # a result keeps its packing for the lazy quotients; a copy holds the shared packing
    rng = random.Random(515)
    copiers = [lambda r, p=p: pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copiers.append(copy.deepcopy)
    for _ in range(20):
        m = rng.randint(1, 4)
        f, divisors = rand_poly(rng, m), rand_divisors(rng, m, rng.randint(1, 4), order)
        for read_first in (False, True):
            for copier in copiers:
                result = divide(f, divisors, order)
                if read_first:
                    result.quotients
                copied = copier(result)
                assert ("quotients" in vars(copied)) == read_first  # unread quotients stay packed
                assert copied._packing is shared_packing(m, order)
                assert copied == result and copied.quotients == result.quotients


def test_product_above_exponent_cap_raises():
    # the lead x1*x2^3 divides x1^4*x2^4 with quotient x1^3*x2, and
    # x1^3*x2 * x2^4 would need exponent 5
    f = parse_poly("x1^4*x2^4", 2)
    with pytest.raises(ValueError, match=re.escape("product (3, 5) exceeds cap 4")):
        divide(f, [parse_poly("x1*x2^3 + x2^4", 2)])
