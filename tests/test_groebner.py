import random
import re

import pytest

import rmgb.groebner
from rmgb.division import divide, remainder
from rmgb.groebner import (
    buchberger_complete,
    check_basis,
    ideal_member,
    is_reduced,
    reduce_basis,
    s_polynomial,
)
from rmgb.polyring import GRLEX, LEX, Poly, parse_poly
from rmgb.rmcode import CodeParams, groebner_basis, jennings_basis, square_relations
from test_division import G32


def test_s_polynomial_of_generator_pair():
    g12, g13, _ = G32()
    s = s_polynomial(g12, g13, GRLEX)
    assert s == parse_poly("x1*x2 + x1*x3 + x2 + x3", 3)
    # against a Groebner basis the S-remainder must vanish
    assert not remainder(s, G32(), GRLEX)


def test_s_polynomial_self_is_zero():
    g = parse_poly("x1*x2 + x1 + 1", 2)
    assert not s_polynomial(g, g)


def test_s_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        s_polynomial(Poly(2), parse_poly("x1", 2))


def test_generator_family_is_reduced_groebner():
    report = check_basis(G32(), GRLEX)
    assert report.is_groebner
    assert report.is_reduced
    assert report.failing_pair is None


def test_square_relations_are_groebner():
    for m in (1, 2, 3):
        report = check_basis(square_relations(m), GRLEX)
        assert report.is_groebner and report.is_reduced


def test_union_basis_is_groebner():
    combined = G32() + list(square_relations(3))
    report = check_basis(combined, GRLEX)
    assert report.is_groebner
    assert report.is_reduced


def test_non_groebner_pair_reported():
    basis = [parse_poly("x1", 2), parse_poly("x1 + x2", 2)]
    report = check_basis(basis, GRLEX)
    assert not report.is_groebner
    assert not report.is_reduced
    i, j, rem = report.failing_pair
    assert (i, j) == (0, 1)
    assert rem == parse_poly("x2", 2)


def test_is_reduced_negative():
    assert not is_reduced([parse_poly("x1", 2), parse_poly("x1*x2", 2)])
    assert is_reduced([parse_poly("x1", 2), parse_poly("x2", 2)])


def test_buchberger_completion_frozen():
    f1 = parse_poly("x1*x2 + x2", 2)
    f2 = parse_poly("x2^2 + 1", 2)
    completed = buchberger_complete([f1, f2], GRLEX)
    assert completed == (f1, f2, parse_poly("x1 + 1", 2))
    assert check_basis(completed, GRLEX).is_groebner
    # idempotence: completing a Groebner basis adds nothing
    assert buchberger_complete(completed, GRLEX) == completed
    assert buchberger_complete(G32(), GRLEX) == tuple(G32())


def test_reduce_basis_of_completion():
    completed = buchberger_complete(
        [parse_poly("x1*x2 + x2", 2), parse_poly("x2^2 + 1", 2)], GRLEX
    )
    reduced = reduce_basis(completed, GRLEX)
    assert reduced == (parse_poly("x2^2 + 1", 2), parse_poly("x1 + 1", 2))
    assert is_reduced(reduced, GRLEX)


def test_reduce_basis_drops_redundant_generator():
    g12, g13, g23 = G32()
    padded = [g12 + g13, g12, g13, g23]
    assert check_basis(padded, GRLEX).is_groebner
    assert reduce_basis(padded, GRLEX) == tuple(G32())


def test_ideal_membership():
    basis = G32()
    assert ideal_member(Poly(3), basis)
    assert ideal_member(basis[0] * parse_poly("x3 + 1", 3), basis)
    # the full product of the three (x_i + 1) lies in every lower radical power
    assert ideal_member(jennings_basis(CodeParams(3, 0))[0], basis)
    assert not ideal_member(parse_poly("x3", 3), basis)
    assert not ideal_member(parse_poly("1", 3), basis)


@pytest.mark.parametrize("order", [LEX, GRLEX])
def test_remainder_permutation_invariance(order):
    rng = random.Random(55)
    basis = G32()
    for _ in range(100):
        f = Poly(3, [tuple(rng.randint(0, 1) for _ in range(3))
                     for _ in range(rng.randint(0, 6))])
        shuffled = basis[:]
        rng.shuffle(shuffled)
        assert remainder(f, shuffled, order) == remainder(f, basis, order)


def test_generator_family_is_groebner_under_lex_too():
    for m, l in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        basis = groebner_basis(CodeParams(m, l))
        report = check_basis(basis, LEX)
        assert report.is_groebner and report.is_reduced


def test_completion_divergence_guard(monkeypatch):
    monkeypatch.setattr(rmgb.groebner, "MAX_ADDITIONS", 0)
    with pytest.raises(RuntimeError):
        buchberger_complete(
            [parse_poly("x1*x2 + x2", 2), parse_poly("x2^2 + 1", 2)],
            GRLEX,
        )


def test_completion_keeps_one_of_equal_lcm_pairs():
    # h pairs with x1^2 + 1 and with x3^2 + 1 at the same lcm x1^2*x3^2; the
    # update drops one of the two pairs and must keep the other
    gens = list(square_relations(3)) + [parse_poly("x1^2*x3^2 + x1*x3 + x2^2 + x3", 3)]
    for order in (GRLEX, LEX):
        assert check_basis(buchberger_complete(gens, order), order).is_groebner


def test_completion_product_above_exponent_cap_raises():
    # the leads x1^4*x2 and x1*x2^4 share variables, so the pair is formed;
    # its S-polynomial multiplies the tail x2^4 by x2^3, which needs x2^7
    gens = [parse_poly("x1^4*x2 + x2^4", 2), parse_poly("x1*x2^4 + x1", 2)]
    with pytest.raises(ValueError, match=re.escape("product (0, 7) exceeds cap 4")):
        buchberger_complete(gens)


def test_lex_completion_of_an_ideal_of_a_stays_under_the_cap():
    # the pair of least lcm is reduced first; oldest first, this ideal of A
    # reached the product x4^5 though its reduced basis has exponents <= 2
    gens = list(square_relations(4)) + [parse_poly(text, 4) for text in (
        "x1*x3*x4 + x2*x4 + x1 + x2", "x1*x2*x3 + x1*x3 + x2*x3 + x2 + x3 + x4", "x1*x2*x3 + x1")]
    completed = buchberger_complete(gens, LEX)
    assert check_basis(completed, LEX).is_groebner
    want = tuple(parse_poly(text, 4) for text in ("x1^2 + 1", "x2 + 1", "x3 + 1", "x4 + 1"))
    assert reduce_basis(completed, LEX) == want


def test_completion_skips_pair_with_coprime_leads():
    # the leads x1^4 and x2^4 are coprime, so the S-polynomial reduces to zero
    # (product criterion): it is never formed, and its x2^5 never overflows
    gens = (parse_poly("x1^4 + x2", 2), parse_poly("x2^4 + x1", 2))
    assert buchberger_complete(gens) == gens


def test_check_basis_skips_pair_with_coprime_leads():
    # check_basis forms its pairs by the completion's rule, so it confirms
    # the basis above instead of raising on the product x2^5
    basis = [parse_poly("x1^4 + x2", 2), parse_poly("x2^4 + x1", 2)]
    report = check_basis(basis)
    assert report.is_groebner and report.is_reduced and report.failing_pair is None


# every entry point into the packed toolkit, called on one list of polynomials
LIST_CALLS = {
    "divide": lambda polys: divide(parse_poly("x1", 2), polys),
    "s_polynomial": lambda polys: s_polynomial(*polys),
    "check_basis": check_basis,
    "is_reduced": is_reduced,
    "buchberger_complete": buchberger_complete,
    "reduce_basis": reduce_basis,
}


@pytest.mark.parametrize("name", LIST_CALLS)
def test_entry_points_reject_empty_zero_and_mixed_lists(name):
    call = LIST_CALLS[name]
    x1, zero = parse_poly("x1", 2), Poly(2)
    if name != "s_polynomial":  # takes exactly two polynomials, never none
        with pytest.raises(ValueError, match="^need at least one polynomial$"):
            call([])
    with pytest.raises(ValueError, match="^variable count mismatch: 2 vs 3$"):
        call([x1, parse_poly("x1", 3)])
    if name in ("buchberger_complete", "reduce_basis"):  # these drop zero elements
        assert call([zero, x1]) == (x1,)
        with pytest.raises(ValueError, match="^need at least one polynomial$"):
            call([zero])
    else:
        with pytest.raises(ValueError, match="^polynomial 2 of 2 is zero; expected nonzero polynomials$"):
            call([x1, zero])


@pytest.mark.parametrize("name", ["buchberger_complete", "reduce_basis", "ideal_member"])
def test_entry_points_check_every_element_before_dropping_zeros(name):
    # None, 0 or a zero in other variables is refused, not dropped as a zero
    x1 = parse_poly("x1 + 1", 2)
    if name == "ideal_member":
        for f in (None, 0, Poly(3)):
            with pytest.raises(ValueError, match="^f must be a Poly in the same variables as the divisors$"):
                ideal_member(f, [x1])
        return
    call = LIST_CALLS[name]
    for polys in ([None, x1], [x1, None]):
        with pytest.raises(TypeError, match="^expected Poly, got NoneType$"):
            call(polys)
    for polys in ([0, x1], [x1, 0]):
        with pytest.raises(TypeError, match="^expected Poly, got int$"):
            call(polys)
    with pytest.raises(ValueError, match="^variable count mismatch: 2 vs 3$"):
        call([x1, Poly(3)])
    with pytest.raises(ValueError, match="^variable count mismatch: 3 vs 2$"):
        call([Poly(3), x1])
