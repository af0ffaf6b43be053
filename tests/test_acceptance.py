"""Acceptance suite: ten end-to-end criteria, one pass line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import random
import time

from rmgb.cli import main
from rmgb.decoder import decode, syndrome
from rmgb.division import divide, remainder
from rmgb.groebner import buchberger_complete, check_basis, reduce_basis
from rmgb.polyring import GRLEX, parse_poly
from rmgb.rmcode import (
    CodeParams,
    Word,
    groebner_basis,
    jennings_basis,
    poly_to_word,
    rank,
    square_relations,
    word_to_poly,
)
from rmgb.selfcheck import (
    verify_berman,
    verify_decode_agreement,
    verify_dichotomy,
    verify_location_weights,
    verify_min_weight,
)
from test_division import rand_poly
from tuple_toolkit import mono_divides, monomial_key

SWEEP_PARAMS = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def rand_divisors(rng, m):
    # leading monomials stay at maximal total degree so that division
    # cannot push intermediate exponents past the cap
    count = rng.randint(1, 4)
    out = []
    while len(out) < count:
        p = rand_poly(rng, m)
        if p and sum(p.leading(GRLEX)) == max(map(sum, p.support)):
            out.append(p)
    return out


def test_criterion_01_golden_example():
    params = CodeParams(3, 2)
    received = Word.from_string("10100010")
    syn = syndrome(received, params)
    assert word_to_poly(syn) == parse_poly("x2 + x3 + 1", 3)
    result = decode(received, params)
    assert str(result.codeword) == "10101010"
    assert result.error == parse_poly("x2*x3", 3)
    assert result.status == "corrected_omega"
    decode(received, params)  # warm the cached bases before timing
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        decode(received, params)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3, f"decode took {best * 1e6:.1f} us"
    report(1, f"decode(10100010) -> 10101010, error x2*x3, {best * 1e6:.0f} us")


def test_criterion_02_buchberger_criterion():
    start = time.perf_counter()
    checked = 0
    for m in range(1, 6):
        relations = square_relations(m)
        assert check_basis(relations, GRLEX).is_groebner
        for l in range(1, m + 1):
            basis = groebner_basis(CodeParams(m, l))
            rep = check_basis(basis, GRLEX)
            assert rep.is_groebner and rep.is_reduced, (m, l)
            assert check_basis(list(basis) + list(relations), GRLEX).is_groebner, (m, l)
            checked += 1
    elapsed = time.perf_counter() - start
    report(2, f"{checked} generator families + square relations, {elapsed:.1f} s")


def test_criterion_03_berman_span_equality():
    count = 0
    for m in range(1, 5):
        for l in range(0, m + 1):
            verify_berman(CodeParams(m, l))
            count += 1
    report(3, f"span equality for {count} (m, l) pairs, m <= 4")


def test_criterion_04_dimension_formula():
    count = 0
    for m in range(1, 6):
        for l in range(0, m + 1):
            params = CodeParams(m, l)
            rows = [poly_to_word(g).value for g in jennings_basis(params)]
            assert rank(rows) == params.dim, (m, l)
            count += 1
    report(4, f"rank equals binomial sum for {count} (m, l) pairs, m <= 5")


def test_criterion_05_minimum_distance():
    start = time.perf_counter()
    count = 0
    for m in range(1, 5):
        for l in range(0, m + 1):
            verify_min_weight(CodeParams(m, l))
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"enumeration took {elapsed:.1f} s"
    report(5, f"exhaustive minimum weight = 2^l for {count} codes in {elapsed:.1f} s")


def test_criterion_06_full_decoding_correctness():
    details = []
    for m, l in SWEEP_PARAMS:
        details.append(verify_decode_agreement(CodeParams(m, l)))
    report(6, f"decode == truth == ML oracle on {len(details)} codes ({'; '.join(details)})")


def test_criterion_07_weight_dichotomy():
    for m, l in SWEEP_PARAMS:
        verify_dichotomy(CodeParams(m, l))
    locations = 0
    for m in range(1, 6):
        for l in range(1, m + 1):
            detail = verify_location_weights(CodeParams(m, l))
            locations += int(detail.split()[0])
    report(7, f"dichotomy exhaustive on {len(SWEEP_PARAMS)} codes; {locations} high-degree locations heavy")


def test_criterion_08_remainder_laws():
    rng = random.Random(88)

    cases = 0  # linearity against arbitrary divisor lists
    while cases < 1000:
        m = rng.randint(1, 4)
        divisors = rand_divisors(rng, m)
        f, g = rand_poly(rng, m), rand_poly(rng, m)
        assert remainder(f + g, divisors) == remainder(f, divisors) + remainder(g, divisors)
        cases += 1

    cases = 0  # reconstruction, irreducibility, multidegree bound
    while cases < 1000:
        m = rng.randint(1, 4)
        divisors = rand_divisors(rng, m)
        f = rand_poly(rng, m)
        result = divide(f, divisors, GRLEX)
        assert result.reconstruct(divisors) == f
        leads = [d.leading(GRLEX) for d in divisors]
        assert not any(
            mono_divides(lead, mono)
            for mono in result.remainder.support
            for lead in leads
        )
        if f:
            key = monomial_key(GRLEX)
            bound = key(f.leading(GRLEX))
            for q, d in zip(result.quotients, divisors):
                if q:
                    assert key((q * d).leading(GRLEX)) <= bound
        cases += 1

    cases = 0  # permutation invariance against Groebner bases
    while cases < 1000:
        m = rng.randint(2, 4)
        l = rng.randint(1, m)
        basis = list(groebner_basis(CodeParams(m, l)))
        if rng.random() < 0.5:
            basis += list(square_relations(m))
        shuffled = basis[:]
        rng.shuffle(shuffled)
        f = rand_poly(rng, m)
        assert remainder(f, shuffled, GRLEX) == remainder(f, basis, GRLEX)
        cases += 1

    cases = 0  # equality iff membership, sum rule, product rule
    while cases < 1000:
        m = rng.randint(2, 4)
        l = rng.randint(1, m)
        basis = groebner_basis(CodeParams(m, l))
        f, g = rand_poly(rng, m), rand_poly(rng, m)
        rf, rg = remainder(f, basis), remainder(g, basis)
        assert (rf == rg) == (not remainder(f + g, basis))
        assert remainder(f + g, basis) == rf + rg
        assert remainder(f * g, basis) == remainder(rf * rg, basis)
        cases += 1

    report(8, "linearity, reconstruction, permutation invariance, quotient-ring laws: 1000 cases each")


def test_criterion_09_reduced_basis_uniqueness():
    g12, g13, g23 = groebner_basis(CodeParams(3, 2))
    x1 = parse_poly("x1", 3)
    presentation_a = [g12 + g13, g13 + g23, g23, x1 * g23]
    presentation_b = [g13, g23, g12, g12 + g23]
    reduced_a = reduce_basis(buchberger_complete(presentation_a, GRLEX), GRLEX)
    reduced_b = reduce_basis(buchberger_complete(presentation_b, GRLEX), GRLEX)
    assert reduced_a == reduced_b
    assert reduced_a == groebner_basis(CodeParams(3, 2))
    report(9, "two presentations of the same ideal reduce to the identical basis")


def test_criterion_10_simulation_determinism(tmp_path, capsys):
    args = ["simulate", "-m", "3", "-l", "2", "--trials", "400",
            "--mode", "fixed:1", "--seed", "123"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    out_a = capsys.readouterr().out
    assert main(args + ["--out", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()
    assert json.loads(out_a)["decoded_ok"] == 400

    path_c = tmp_path / "c.csv"
    assert main(["simulate", "-m", "4", "-l", "3", "--trials", "150", "--mode",
                 "fixed:3", "--seed", "9", "--out", str(path_c)]) == 0
    assert json.loads(capsys.readouterr().out)["decoded_ok"] == 150
    report(10, "byte-identical CSV across reruns; w <= t corrects every trial")
