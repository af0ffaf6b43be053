"""Verification sweeps shared by the CLI selftest and the test suite.

Each ``verify_*`` function raises AssertionError with a description on
the first violation and returns a short summary string on success.
``run_selftest`` packages them into (name, ok, detail) rows.
"""

from __future__ import annotations

import itertools
import random

from . import gf2
from .decoder import FAILURE, decode, decode_search, hat_set, ml_decode_bruteforce, syndrome
from .polyring import Poly, parse_poly
from .rmcode import (
    CodeParams,
    Word,
    berman_check,
    encode,
    jennings_basis,
    message_monomials,
    min_weight_bruteforce,
    monomial_subset,
    poly_to_word,
    word_to_poly,
)

DEFAULT_SWEEP_SEED = 20240814


def error_words(n: int, max_weight: int):
    """All words of length n and weight at most max_weight, ascending weight."""
    out = [Word.zeros(n)]
    for k in range(1, max_weight + 1):
        for combo in itertools.combinations(range(n), k):
            value = 0
            for b in combo:
                value |= 1 << b
            out.append(Word(n, value))
    return out


def sample_codewords(params: CodeParams, sample: int, seed: int):
    """Deterministic codeword sample: the whole code when it is small."""
    total = 1 << params.dim
    if total <= max(sample, 64):
        masks = list(range(total))
    else:
        masks = sorted(random.Random(seed).sample(range(total), sample))
    monos = message_monomials(params)
    out = []
    for mask in masks:
        msg = Poly(params.m, [mono for i, mono in enumerate(monos) if (mask >> i) & 1])
        out.append(encode(msg, params))
    return out


def verify_golden_example() -> str:
    """Known-answer test: one flipped bit in an 8-bit codeword, (m,l)=(3,2)."""
    params = CodeParams(3, 2)
    received = Word.from_string("10100010")
    syn = syndrome(received, params)
    expected_syndrome = parse_poly("x2 + x3 + 1", 3)
    if syn.remainder != expected_syndrome:
        raise AssertionError(f"golden syndrome mismatch: got {syn.remainder}")
    result = decode(received, params)
    if str(result.codeword) != "10101010":
        raise AssertionError(f"golden codeword mismatch: got {result.codeword}")
    if result.error != parse_poly("x2*x3", 3):
        raise AssertionError(f"golden error mismatch: got {result.error}")
    return "decode(10100010) -> 10101010, error x2*x3"


def verify_berman(params: CodeParams) -> str:
    """Span equality of radical-power and Reed-Muller generators, plus rank."""
    if not berman_check(params):
        raise AssertionError(f"row spaces differ for m={params.m}, l={params.l}")
    rows = gf2.bit_matrix([poly_to_word(g).bits for g in jennings_basis(params)])
    rk = gf2.rank(rows)
    if rk != params.dim:
        raise AssertionError(
            f"rank {rk} != dimension {params.dim} for m={params.m}, l={params.l}"
        )
    return f"span equal, rank {rk}"


def verify_min_weight(params: CodeParams) -> str:
    got = min_weight_bruteforce(params)
    if got != params.min_distance:
        raise AssertionError(
            f"minimum weight {got} != 2^l = {params.min_distance} for m={params.m}, l={params.l}"
        )
    return f"minimum weight {got} over {1 << params.dim} codewords"


def verify_dichotomy(params: CodeParams) -> str:
    """Exhaustive weight dichotomy over all error patterns of weight <= t.

    The syndrome weight stays at most t exactly when every error
    location I has |I| < l; one high-degree location pushes it past t.
    """
    t = params.t
    checked = 0
    for e in error_words(params.n, t):
        if e.value == 0:
            continue
        locations = [monomial_subset(mono) for mono in word_to_poly(e).support]
        all_low = all(len(loc) < params.l for loc in locations)
        weight = syndrome(e, params).weight
        if (weight <= t) != all_low:
            raise AssertionError(
                f"dichotomy violated for error {e} (m={params.m}, l={params.l}): "
                f"syndrome weight {weight}, locations {sorted(map(sorted, locations))}"
            )
        checked += 1
    return f"{checked} error patterns"


def verify_location_weights(params: CodeParams) -> str:
    """Syndrome weight of a single high-degree location always exceeds t.

    For |I| = l the remainder of X_I has weight exactly 2^l - 1.
    """
    t = params.t
    checked = 0
    for k in range(params.l, params.m + 1):
        for combo in itertools.combinations(range(1, params.m + 1), k):
            loc = frozenset(combo)
            weight = len(hat_set(loc, params).hat)
            if weight <= t:
                raise AssertionError(
                    f"remainder of X_{sorted(loc)} has weight {weight} <= t = {t}"
                )
            if k == params.l and weight != params.min_distance - 1:
                raise AssertionError(
                    f"remainder of X_{sorted(loc)} has weight {weight}, "
                    f"expected 2^l - 1 = {params.min_distance - 1}"
                )
            checked += 1
    return f"{checked} locations"


def verify_decode_agreement(params: CodeParams, codeword_sample: int = 32,
                            seed: int = DEFAULT_SWEEP_SEED) -> str:
    """Full decoding correctness against the brute-force oracle.

    For sampled codewords and every error pattern of weight <= t, the
    decoder must return exactly the transmitted codeword and the exact
    error polynomial, the ML oracle must agree with no ties, and the
    paper's remainder search ``decode_search`` must return the same
    result.
    """
    if params.t < 1:
        raise ValueError("sweep needs a code with t >= 1")
    words = sample_codewords(params, codeword_sample, seed)
    errors = error_words(params.n, params.t)
    for c in words:
        for e in errors:
            v = c + e
            res = decode(v, params)
            if res.status == FAILURE:
                raise AssertionError(f"decode failed on c={c}, e={e} (m={params.m}, l={params.l})")
            if res.codeword != c or res.error != word_to_poly(e):
                raise AssertionError(
                    f"decode mismatch on c={c}, e={e} (m={params.m}, l={params.l}): "
                    f"got codeword {res.codeword}, error {res.error}"
                )
            ml = ml_decode_bruteforce(v, params)
            if ml.is_tie or ml.codeword != c:
                raise AssertionError(
                    f"ML oracle disagrees on c={c}, e={e} (m={params.m}, l={params.l})"
                )
            if decode_search(v, params) != res:
                raise AssertionError(
                    f"remainder search disagrees on c={c}, e={e} (m={params.m}, l={params.l})"
                )
    return f"{len(words)} codewords x {len(errors)} error patterns"


def run_selftest(max_m: int):
    """Run the whole battery up to max_m, as (name, ok, detail) rows."""
    if not 1 <= max_m <= 4:
        raise ValueError(f"selftest supports max_m in 1..4, got {max_m}")
    checks = []
    if max_m >= 3:
        checks.append(("golden-example", verify_golden_example, ()))
    for m in range(1, max_m + 1):
        for l in range(0, m + 1):
            checks.append((f"berman m={m} l={l}", verify_berman, (CodeParams(m, l),)))
            checks.append((f"min-weight m={m} l={l}", verify_min_weight, (CodeParams(m, l),)))
        for l in range(1, m + 1):
            checks.append(
                (f"location-weights m={m} l={l}", verify_location_weights, (CodeParams(m, l),))
            )
        for l in range(2, m + 1):
            checks.append(
                (f"weight-dichotomy m={m} l={l}", verify_dichotomy, (CodeParams(m, l),))
            )
            checks.append(
                (f"decode-vs-ml m={m} l={l}", verify_decode_agreement, (CodeParams(m, l),))
            )
    results = []
    for name, fn, args in checks:
        try:
            detail = fn(*args)
            results.append((name, True, detail))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
    return results
