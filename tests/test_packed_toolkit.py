"""The packed-int Groebner toolkit against the tuple reference.

``tuple_toolkit`` holds the exponent-tuple implementations that rmgb
used before it packed monomials into ints.  Each test feeds both the
same inputs and requires equal results: quotients and remainders and
reduced bases, under lex and grlex.  Buchberger completion skips pairs
that the reference forms, so its raw output is pinned by its properties
and its reduced basis instead.  ``check_basis`` skips the same pairs, so
outside reduced bases its report is pinned by ``_check_report_matches``.
"""

import itertools
import random
import re

import pytest

import tuple_toolkit as ref
from rmgb.division import divide
from rmgb.groebner import _packed_s, _s_remainder, buchberger_complete, check_basis, is_reduced, reduce_basis, s_polynomial
from rmgb.polyring import EXPONENT_CAP, GRLEX, LEX, Poly, parse_poly
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
        # a tuple straight from completion is reduced off completion's memo
        assert reduce_basis(buchberger_complete(gens, order), order) == reduced
        assert check_basis(reduced, order) == ref.check_basis(reduced, order)
        # the raw generators are rarely Groebner
        _check_report_matches(gens, order)
        # an unreduced basis in another order; under lex its S-remainders
        # can pass the exponent cap
        shuffled = list(basis)
        rng.shuffle(shuffled)
        assert reduce_basis(shuffled, order) == ref.reduce_basis(shuffled, order)
        _check_report_matches(shuffled, order)


# S-pairs reduced per ideal of seeded_ideals(601, 40): by buchberger_complete
# on the generators, and by check_basis on the reduced basis
PAIR_COUNTS = {
    LEX: ([1, 2, 13, 9, 11, 1, 2, 8, 15, 10, 1, 2, 4, 11, 16, 1, 2, 14, 25, 35,
           1, 2, 6, 17, 53, 1, 2, 5, 29, 49, 1, 2, 5, 9, 17, 1, 2, 3, 10, 38],
          [0, 2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 8, 8,
           0, 2, 2, 0, 30, 0, 2, 0, 8, 30, 0, 2, 0, 0, 0, 0, 2, 0, 0, 8]),
    GRLEX: ([1, 2, 13, 20, 70, 1, 2, 8, 22, 24, 1, 2, 4, 11, 44, 1, 2, 14, 29, 36,
             1, 2, 6, 23, 48, 1, 2, 10, 33, 52, 1, 2, 10, 25, 49, 1, 2, 3, 23, 57],
            [0, 2, 0, 0, 30, 0, 2, 2, 0, 13, 0, 2, 0, 0, 30, 0, 2, 0, 8, 30,
             0, 2, 2, 8, 30, 0, 2, 0, 8, 30, 0, 2, 0, 8, 30, 0, 2, 0, 8, 30]),
}


@pytest.mark.parametrize("order", ORDERS)
def test_pair_criteria_reduce_pinned_pair_counts(order, monkeypatch):
    # results alone do not show a pair the criteria should have dropped: it
    # only costs a reduction, so the reductions are counted and pinned by
    # the S-remainders that completion and check_basis sum off their memos;
    # no pair of these ideals falls back to forming its S-polynomial
    calls = []

    def counter(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(f"rmgb.groebner.{name}", counted)

    counter("_packed_s", _packed_s)
    counter("_s_remainder", _s_remainder)
    completions, checks = [], []
    for _, _, gens in seeded_ideals(601, 40):
        calls.clear()
        basis = buchberger_complete(gens, order)
        completions.append(calls.count("_s_remainder"))
        assert "_packed_s" not in calls
        reduced = reduce_basis(basis, order)
        calls.clear()
        assert check_basis(reduced, order).is_groebner
        assert "_packed_s" not in calls  # no pair fell back to forming its S-polynomial
        checks.append(len(calls))
    assert (completions, checks) == PAIR_COUNTS[order]


@pytest.mark.parametrize("order", ORDERS)
def test_check_basis_with_divisible_leads_or_not_groebner(order):
    # a reduced basis plus a multiple of one element at a random place: the
    # element's lead divides the multiple's, so the element evicts the
    # multiple from the active set when it enters after it; and the reduced
    # basis less one element plus the sum of two others, often not Groebner
    verdicts = []
    for rng, m, gens in seeded_ideals(604, 30):
        reduced = list(reduce_basis(buchberger_complete(gens, order), order))
        redundant = list(reduced)
        redundant.insert(rng.randint(0, len(reduced)),
                         rng.choice(reduced) * parse_poly(f"x{rng.randint(1, m)}", m))
        assert _check_report_matches(redundant, order).is_groebner
        if len(reduced) >= 3:
            a, b, c = rng.sample(range(len(reduced)), 3)
            mixed = [g for k, g in enumerate(reduced) if k != a] + [reduced[b] + reduced[c]]
            rng.shuffle(mixed)
            verdicts.append(_check_report_matches(mixed, order).is_groebner)
    assert False in verdicts


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
        _check_report_matches(divisors, order)
        assert is_reduced(divisors, order) == ref.is_reduced(divisors, order)
        for a, b in itertools.product(divisors, repeat=2):
            assert _outcome(s_polynomial, a, b, order) == _outcome(ref.s_polynomial, a, b, order)
    assert overflows > 0


@pytest.mark.parametrize("order", ORDERS)
def test_reduce_basis_matches_tuple_reference_on_unreduced_bases(order):
    # each reduced basis gets a redundant multiple (not minimal) and tails
    # that hold up to two other elements below their lead (not reduced)
    key = ref.monomial_key(order)
    for rng, m, gens in seeded_ideals(605, 30):
        reduced = reduce_basis(buchberger_complete(gens, order), order)
        basis = [rng.choice(reduced) * parse_poly(f"x{rng.randint(1, m)}", m)]
        for g in reduced:
            below = [h for h in reduced if key(h.leading(order)) < key(g.leading(order))]
            basis.append(sum(rng.sample(below, min(2, len(below))), g))
        rng.shuffle(basis)
        assert reduce_basis(basis, order) == ref.reduce_basis(basis, order) == reduced


@pytest.mark.parametrize("order", ORDERS)
def test_divide_quotients_unpacked_on_first_read(order):
    for rng, m, gens in seeded_ideals(606, 10):
        f = random_poly(rng, m) + gens[-1] * gens[-2]
        got, want = divide(f, gens, order), ref.divide(f, gens, order)
        assert got.remainder == want.remainder
        quotients = got.quotients
        assert quotients == want.quotients and got.quotients is quotients
        assert got.reconstruct(gens) == f


def _check_report_matches(basis, order):
    """Pin ``check_basis`` to the reference and return its report, or None.

    ``check_basis`` reduces only the pairs that the Gebauer-Moeller update
    keeps, and the reference every pair in index order, so the reported
    pair may differ and fewer products may pass the exponent cap.  So:
    when ``check_basis`` raises, the reference raises the same message up
    to the product; otherwise a reported ``(i, j, r)`` has i < j and ``r``
    is the reference's nonzero S-remainder by the whole basis, and when
    the reference does not raise, both verdicts match it.
    """
    want, got = _outcome(ref.check_basis, basis, order), _outcome(check_basis, basis, order)
    if isinstance(got, str):
        assert isinstance(want, str) and _message_form(got) == _message_form(want)
        return None
    if got.failing_pair is not None:
        i, j, r = got.failing_pair
        s = ref.s_polynomial(basis[i], basis[j], order)
        assert i < j and r and r == ref.divide(s, basis, order).remainder
    if not isinstance(want, str):
        assert (got.is_groebner, got.is_reduced) == (want.is_groebner, want.is_reduced)
    return got


def _message_form(message):
    return re.sub(r"\(.*?\)", "(...)", message)


def _outcome(fn, *args):
    """The result of a call, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)
