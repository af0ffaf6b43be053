"""Verification sweeps shared by the CLI selftest and the test suite.

Each ``verify_*`` function raises ``CheckFailed`` with a description on
the first violation and returns a short summary string on success.
``run_selftest`` packages them into (name, ok, detail) rows.
"""

from __future__ import annotations

import random

from .decoder import FAILURE, decode, decode_search, hat_set, ml_decode_bruteforce, syndrome
from .polyring import parse_poly
from .rmcode import (
    ENUMERATION_LIMIT,
    CodeParams,
    Word,
    berman_check,
    bit_subset,
    codeword_values,
    jennings_basis,
    min_weight_bruteforce,
    poly_to_word,
    rank,
    set_bits,
    subset_bits,
    word_to_poly,
)

SWEEP_SEED = 20240814
SWEEP_CODEWORDS = 32  # codewords per code that verify_decode_agreement samples


class CheckFailed(Exception):
    """A verification sweep found a violation; the message describes it."""


def verify_golden_example() -> str:
    """Known-answer test: one flipped bit in an 8-bit codeword, (m,l)=(3,2)."""
    params = CodeParams(3, 2)
    received = Word.from_string("10100010")
    syn = word_to_poly(syndrome(received, params))
    if syn != parse_poly("x2 + x3 + 1", 3):
        raise CheckFailed(f"golden syndrome mismatch: got {syn}")
    result = decode(received, params)
    if str(result.codeword) != "10101010":
        raise CheckFailed(f"golden codeword mismatch: got {result.codeword}")
    if result.error != parse_poly("x2*x3", 3):
        raise CheckFailed(f"golden error mismatch: got {result.error}")
    return "decode(10100010) -> 10101010, error x2*x3"


def verify_berman(params: CodeParams) -> str:
    """Span equality of radical-power and Reed-Muller generators, plus rank."""
    if not berman_check(params):
        raise CheckFailed(f"row spaces differ for m={params.m}, l={params.l}")
    rk = rank(poly_to_word(g).value for g in jennings_basis(params))
    if rk != params.dim:
        raise CheckFailed(
            f"rank {rk} != dimension {params.dim} for m={params.m}, l={params.l}"
        )
    return f"span equal, rank {rk}"


def verify_min_weight(params: CodeParams) -> str:
    got = min_weight_bruteforce(params)
    if got != params.min_distance:
        raise CheckFailed(
            f"minimum weight {got} != 2^l = {params.min_distance} for m={params.m}, l={params.l}"
        )
    return f"minimum weight {got} over {1 << params.dim} codewords"


def verify_dichotomy(params: CodeParams) -> str:
    """Exhaustive weight dichotomy over all error patterns of weight <= t.

    The syndrome weight stays at most t exactly when every error
    location I has |I| < l; one high-degree location pushes it past t.
    """
    t = params.t
    errors = subset_bits(params.n, range(1, t + 1))  # the nonzero words of weight <= t
    for value in errors:
        e = Word(params.n, value)
        locations = [bit_subset(params.m, b) for b in set_bits(value)]
        all_low = all(len(loc) < params.l for loc in locations)
        weight = syndrome(e, params).weight()
        if (weight <= t) != all_low:
            raise CheckFailed(
                f"dichotomy violated for error {e} (m={params.m}, l={params.l}): "
                f"syndrome weight {weight}, locations {sorted(map(sorted, locations))}"
            )
    return f"{len(errors)} error patterns"


def verify_location_weights(params: CodeParams) -> str:
    """Syndrome weight of a single high-degree location always exceeds t.

    For |I| = l the remainder of X_I has weight exactly 2^l - 1.
    """
    t = params.t
    bits = subset_bits(params.m, range(params.l, params.m + 1))
    for b in bits:
        loc = bit_subset(params.m, b)
        weight = len(hat_set(loc, params))
        if weight <= t:
            raise CheckFailed(
                f"remainder of X_{sorted(loc)} has weight {weight} <= t = {t}"
            )
        if len(loc) == params.l and weight != params.min_distance - 1:
            raise CheckFailed(
                f"remainder of X_{sorted(loc)} has weight {weight}, "
                f"expected 2^l - 1 = {params.min_distance - 1}"
            )
    return f"{len(bits)} locations"


def verify_decode_agreement(params: CodeParams) -> str:
    """Full decoding correctness against the brute-force oracle.

    For sampled codewords and every error pattern of weight <= t, the
    decoder must return exactly the transmitted codeword and the exact
    error polynomial, the ML oracle must agree with no ties, and the
    paper's remainder search ``decode_search`` must return the same
    result.
    """
    if params.t < 1:
        raise ValueError("sweep needs a code with t >= 1")
    total = 1 << params.dim  # the whole code when it is small, else a seeded sample
    if total <= max(SWEEP_CODEWORDS, 64):
        masks = range(total)
    else:
        masks = sorted(random.Random(SWEEP_SEED).sample(range(total), SWEEP_CODEWORDS))
    words = [Word(params.n, codeword_values(params)[mask]) for mask in masks]
    errors = [Word(params.n, e) for e in subset_bits(params.n, range(params.t + 1))]
    for c in words:
        for e in errors:
            v = c + e
            res = decode(v, params)
            if res.status == FAILURE:
                raise CheckFailed(f"decode failed on c={c}, e={e} (m={params.m}, l={params.l})")
            if res.codeword != c or res.error_bits != e.value:
                raise CheckFailed(
                    f"decode mismatch on c={c}, e={e} (m={params.m}, l={params.l}): "
                    f"got codeword {res.codeword}, error {res.error}"
                )
            ml = ml_decode_bruteforce(v, params)
            if ml.is_tie or ml.codeword != c:
                raise CheckFailed(
                    f"ML oracle disagrees on c={c}, e={e} (m={params.m}, l={params.l})"
                )
            if decode_search(v, params) != res:
                raise CheckFailed(
                    f"remainder search disagrees on c={c}, e={e} (m={params.m}, l={params.l})"
                )
    return f"{len(words)} codewords x {len(errors)} error patterns"


def run_selftest(max_m: int):
    """Run the whole battery up to max_m, as (name, ok, detail) rows."""
    if not 1 <= max_m <= ENUMERATION_LIMIT:
        raise ValueError(f"selftest supports max_m in 1..{ENUMERATION_LIMIT}, got {max_m}")
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
        except CheckFailed as exc:
            results.append((name, False, str(exc)))
    return results
