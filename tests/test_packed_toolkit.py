"""The packed-int Groebner toolkit against the tuple reference.

``tuple_toolkit`` holds the exponent-tuple implementations that rmgb
used before it packed monomials into ints.  Each test feeds both the
same inputs and requires equal results: quotients and remainders,
reduced bases and the whole ``BasisReport``, under lex and grlex.
Buchberger completion skips pairs that the reference forms, so its raw
output is pinned by its properties and its reduced basis instead.
"""

import itertools
import random

import pytest

import tuple_toolkit as ref
from rmgb.division import divide
from rmgb.groebner import buchberger_complete, check_basis, is_reduced, reduce_basis, s_polynomial
from rmgb.polyring import EXPONENT_CAP, GRLEX, LEX, Poly
from rmgb.rmcode import monomial_positions, square_relations

ORDERS = (LEX, GRLEX)


def ideal_generators(rng, m):
    """``square_relations(m)`` plus two random 4-term square-free generators."""
    squarefree = monomial_positions(m)
    terms = min(4, len(squarefree))
    return list(square_relations(m)) + [Poly(m, rng.sample(squarefree, terms)) for _ in range(2)]


def random_poly(rng, m, max_terms=8, max_exp=2):
    return Poly(m, [tuple(rng.randint(0, max_exp) for _ in range(m))
                    for _ in range(rng.randint(0, max_terms))])


def divisor_orders(rng, divisors):
    """Every order of up to five divisors; else the given, reversed and 3 shuffled orders."""
    if len(divisors) <= 5:
        return [list(p) for p in itertools.permutations(divisors)]
    orders = [list(divisors), list(reversed(divisors))]
    for _ in range(3):
        shuffled = list(divisors)
        rng.shuffle(shuffled)
        orders.append(shuffled)
    return orders


def seeded_ideals(seed, count):
    rng = random.Random(seed)
    for index in range(count):
        m = 1 + index % 5
        yield rng, m, ideal_generators(rng, m)


@pytest.mark.parametrize("order", ORDERS)
def test_buchberger_reduce_and_check_match_tuple_reference(order):
    for rng, m, gens in seeded_ideals(601, 40):
        # the pair criteria skip pairs the reference forms, so the raw output
        # may hold fewer redundant elements; it must still start with the
        # generators, be Groebner, reduce alike and complete to itself
        completed = buchberger_complete(gens, order)
        distinct = tuple(dict.fromkeys(g for g in gens if g))
        assert completed[:len(distinct)] == distinct
        assert check_basis(completed, order).is_groebner
        assert buchberger_complete(completed, order) == completed
        # reduce_basis and check_basis stay pinned on the reference's completion
        basis = ref.buchberger_complete(gens, order)
        reduced = reduce_basis(basis, order)
        assert reduced == ref.reduce_basis(basis, order)
        assert reduce_basis(completed, order) == reduced
        assert check_basis(reduced, order) == ref.check_basis(reduced, order)
        # the raw generators are rarely Groebner: the failing pair must match too
        assert check_basis(gens, order) == ref.check_basis(gens, order)
        # an unreduced basis in another order; under lex its S-remainders
        # can pass the exponent cap, and then both must raise alike
        shuffled = list(basis)
        rng.shuffle(shuffled)
        assert reduce_basis(shuffled, order) == ref.reduce_basis(shuffled, order)
        assert _outcome(check_basis, shuffled, order) == _outcome(ref.check_basis, shuffled, order)


@pytest.mark.parametrize("order", ORDERS)
def test_divide_matches_tuple_reference_for_every_divisor_order(order):
    for rng, m, gens in seeded_ideals(602, 20):
        dividends = [random_poly(rng, m) for _ in range(3)]
        dividends.append(gens[-1] * gens[-2])  # a member of the ideal
        for divisors in divisor_orders(rng, gens):
            for f in dividends:
                assert _outcome(divide, f, divisors, order) == _outcome(ref.divide, f, divisors, order)
        reduced = reduce_basis(buchberger_complete(gens, order), order)
        for f in dividends:
            assert _outcome(divide, f, reduced, order) == _outcome(ref.divide, f, reduced, order)


@pytest.mark.parametrize("order", ORDERS)
def test_random_division_and_pairs_match_tuple_reference(order):
    # divisors that are not Groebner bases, with exponents up to the cap,
    # so some products overflow: the error must then match too
    rng = random.Random(603)
    overflows = 0
    for _ in range(300):
        m = rng.randint(1, 4)
        divisors = [p for p in (random_poly(rng, m, 5) for _ in range(rng.randint(1, 4))) if p]
        if not divisors:
            continue
        f = random_poly(rng, m, 10, EXPONENT_CAP)
        want = _outcome(ref.divide, f, divisors, order)
        assert _outcome(divide, f, divisors, order) == want
        overflows += isinstance(want, str)
        assert _outcome(check_basis, divisors, order) == _outcome(ref.check_basis, divisors, order)
        assert is_reduced(divisors, order) == ref.is_reduced(divisors, order)
        for a, b in itertools.product(divisors, repeat=2):
            assert _outcome(s_polynomial, a, b, order) == _outcome(ref.s_polynomial, a, b, order)
    assert overflows > 0


def _outcome(fn, *args):
    """The result of a call, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)
