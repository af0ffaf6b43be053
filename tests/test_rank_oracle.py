"""Reduced Groebner bases of ideals of A checked by linear algebra, past sympy's reach.

An element of A = GF(2)[X1..Xm]/(X_i^2 - 1) is a 2^m-bit ``Word.value``,
and multiplying by a square-free monomial X_S maps bit b to bit b ^ s.
So the ideal of A generated by g_1..g_k is the GF(2) span V of the
translates X_S * g_j.  Let G be the reduced basis of the relations
X_i^2 + 1 together with the g_j.  The oracle asks that each relation
reduces to zero by G, and of the 2^m remainders r_S = remainder(X_S, G)
that

* each r_S is square-free,
* each X_S + r_S lies in V, and
* the r_S have rank 2^m - rank(V).

Then x -> r(x), extended linearly, is the projection of A whose kernel
is V: r(x) = x mod V, so the r_S span a complement of V.  ``rmcode.rank``
is the only linear algebra, and nothing here calls sympy.  Mutations
show that the oracle rejects a wrong basis: one element dropped, or one
tail term of one element flipped.

Run as a script, ``python tests/test_rank_oracle.py M [COUNT]`` checks
COUNT seeded ideals (default 10) at one m too slow for the suite, such
as 7 or 8, under both orders.
"""

import random
import sys
import time

import pytest

from rmgb.division import remainder
from rmgb.groebner import buchberger_complete, is_reduced, reduce_basis
from rmgb.polyring import GRLEX, LEX, Poly
from rmgb.rmcode import Word, _half_masks, poly_to_word, rank, square_relations, superset_xor, word_to_poly

ORDERS = (LEX, GRLEX)
TIER1_M, TIER1_COUNT = 6, 30


def times_monomial(value: int, s: int, m: int) -> int:
    """X_S times the element ``value`` of A: bit b moves to bit b ^ s."""
    for step, mask in _half_masks(m):
        if s & step:
            value = (value & mask) << step | (value >> step) & mask
    return value


def ideal_generators(rng, m):
    """One to three generators, each a sum of translates X_T * g_I of products
    g_I of (X_i + 1) over nonempty I: each lies in the radical, so the ideal is proper."""
    n, gens = 1 << m, []
    for _ in range(rng.randint(1, 3)):
        value = 0
        for _ in range(rng.randint(1, 3)):
            subset = sum(1 << i for i in rng.sample(range(m), rng.randint(1, m)))
            value ^= times_monomial(superset_xor(1 << subset, m), rng.randrange(n), m)
        gens.append(word_to_poly(Word(n, value)))
    return gens


def oracle_failure(gens, basis, order, m) -> str:
    """Why ``basis`` is not the reduced basis of the ideal of A that ``gens``
    generate, as far as the remainders show; empty when the oracle accepts it."""
    n = 1 << m
    for relation in square_relations(m):
        if remainder(relation, basis, order):
            return f"{relation} does not reduce to zero"
    span = [times_monomial(poly_to_word(g).value, s, m) for g in gens for s in range(n)]
    dim = rank(span)
    rems = []
    for s in range(n):
        try:
            rems.append(poly_to_word(remainder(word_to_poly(Word(n, 1 << s)), basis, order)).value)
        except ValueError as exc:  # a remainder that is not square-free, or an exponent overflow
            return f"remainder of bit {s}: {exc}"
    if rank(span + [(1 << s) ^ r for s, r in enumerate(rems)]) != dim:
        return "some X_S + r_S lies outside the ideal"
    if rank(rems) != n - dim:
        return f"the remainders have rank {rank(rems)}, not {n} - {dim}"
    return ""


def reduced_basis(gens, order, m):
    return list(reduce_basis(buchberger_complete(square_relations(m) + tuple(gens), order), order))


def seeded_cases(seed, m, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, ideal_generators(rng, m)


@pytest.mark.parametrize("order", ORDERS)
def test_reduced_basis_passes_the_rank_oracle(order):
    for _, gens in seeded_cases(71, TIER1_M, TIER1_COUNT):
        basis = reduced_basis(gens, order, TIER1_M)
        assert basis != [Poly(TIER1_M, [(0,) * TIER1_M])]  # a proper ideal, so not every r_S is 0
        assert is_reduced(basis, order)
        assert oracle_failure(gens, basis, order, TIER1_M) == ""


@pytest.mark.parametrize("order", ORDERS)
def test_rank_oracle_rejects_a_wrong_basis(order):
    flipped = 0
    for rng, gens in seeded_cases(72, TIER1_M, TIER1_COUNT):
        basis = reduced_basis(gens, order, TIER1_M)
        k = rng.randrange(len(basis))
        assert oracle_failure(gens, basis[:k] + basis[k + 1:], order, TIER1_M)
        # a tail term of a reduced basis is a standard monomial, so it is not
        # in the ideal, and neither is the element less that term
        with_tail = [k for k, g in enumerate(basis) if len(g) > 1]
        if with_tail:
            k = rng.choice(with_tail)
            lead = basis[k].leading(order)
            term = rng.choice(sorted(basis[k].support - {lead}))
            wrong = basis[:k] + [basis[k] + Poly(TIER1_M, [term])] + basis[k + 1:]
            assert oracle_failure(gens, wrong, order, TIER1_M)
            flipped += 1
    assert flipped >= TIER1_COUNT // 2


if __name__ == "__main__":
    m = int(sys.argv[1])
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    for order in ORDERS:
        start = time.perf_counter()
        for _, gens in seeded_cases(70 + m, m, count):
            basis = reduced_basis(gens, order, m)
            failure = oracle_failure(gens, basis, order, m)
            if failure or not is_reduced(basis, order):
                sys.exit(f"m = {m}, {order}: {failure or 'not reduced'}; generators {gens}")
        print(f"m = {m}, {order}: {count} reduced bases pass the rank oracle in {time.perf_counter() - start:.1f} s")
