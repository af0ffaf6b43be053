"""Cross-checks of division and basis computations against sympy."""

import random

import pytest
import sympy as sp

from rmgb.division import remainder
from rmgb.groebner import buchberger_complete, reduce_basis
from rmgb.polyring import GRLEX, LEX, Poly
from rmgb.rmcode import CodeParams, groebner_basis, monomial_positions, square_relations
from test_division import rand_poly

ORDER_NAMES = {GRLEX: "grlex", LEX: "lex"}


def gens_for(m):
    return sp.symbols(f"x1:{m + 1}")


def to_expr(poly, gens):
    if not poly:
        return sp.Integer(0)
    return sp.Add(*[
        sp.Mul(*[g ** e for g, e in zip(gens, mono) if e])
        if any(mono) else sp.Integer(1)
        for mono in poly.support
    ])


def from_expr(expr, m, gens):
    if expr == 0:
        return Poly(m)
    spoly = sp.Poly(expr, *gens, modulus=2)
    return Poly(m, [mono for mono, coeff in spoly.terms() if int(coeff) % 2])


def test_remainders_match_sympy():
    rng = random.Random(2718)
    for order in (GRLEX, LEX):
        for _ in range(100):
            m = rng.randint(2, 4)
            l = rng.randint(1, m)
            params = CodeParams(m, l)
            basis = groebner_basis(params)
            gens = gens_for(m)
            f = rand_poly(rng, m)
            mine = remainder(f, basis, order)
            _, sym_rem = sp.reduced(
                to_expr(f, gens),
                [to_expr(g, gens) for g in basis],
                *gens,
                modulus=2,
                order=ORDER_NAMES[order],
            )
            assert mine == from_expr(sym_rem, m, gens)


def test_generator_family_is_sympy_reduced_basis():
    for m in range(1, 5):
        for l in range(1, m + 1):
            params = CodeParams(m, l)
            basis = groebner_basis(params)
            gens = gens_for(m)
            gb = sp.groebner(
                [to_expr(g, gens) for g in basis], *gens, modulus=2, order="grlex"
            )
            sym_set = {from_expr(e, m, gens) for e in gb.exprs}
            assert sym_set == set(basis)
            assert reduce_basis(basis, GRLEX) == basis


def test_buchberger_pipeline_matches_sympy_random():
    rng = random.Random(1618)
    cases = 0
    while cases < 40:
        m = rng.randint(1, 3)
        # square-free low-degree generators keep completion inside the exponent cap
        generators = [
            p
            for p in (rand_poly(rng, m, 4, max_exp=1, max_deg=3) for _ in range(rng.randint(1, 3)))
            if p
        ]
        if not generators:
            continue
        cases += 1
        mine = set(reduce_basis(buchberger_complete(generators, GRLEX), GRLEX))
        gens = gens_for(m)
        gb = sp.groebner(
            [to_expr(g, gens) for g in generators], *gens, modulus=2, order="grlex"
        )
        assert mine == {from_expr(e, m, gens) for e in gb.exprs}


@pytest.mark.parametrize("order", [GRLEX, LEX])
@pytest.mark.parametrize("m", [4, 5])
def test_buchberger_pipeline_matches_sympy_on_ideals_of_a(m, order):
    # the ideals the groebner-m5 benchmark completes: the square relations
    # plus two random 4-term square-free generators
    rng = random.Random(f"ideals/{m}/{order}")
    squarefree = monomial_positions(m)
    gens = gens_for(m)
    for _ in range(10):
        generators = list(square_relations(m)) + [Poly(m, rng.sample(squarefree, 4)) for _ in range(2)]
        mine = set(reduce_basis(buchberger_complete(generators, order), order))
        gb = sp.groebner(
            [to_expr(g, gens) for g in generators], *gens, modulus=2, order=ORDER_NAMES[order]
        )
        assert mine == {from_expr(e, m, gens) for e in gb.exprs}
