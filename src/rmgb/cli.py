"""Command-line front end: basis listings, encoding, decoding, division,
Groebner checks, channel simulation, and a selftest battery.

Exit codes: 0 success, 2 input error, 3 decode failure (a negative
check, e.g. a basis that is not Groebner or a failing selftest, is 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from math import comb

from . import selfcheck
from .decoder import FAILURE, _check_error_mode, decode, random_error
from .division import divide
from .groebner import check_basis
from .polyring import DEFAULT_ORDER, ORDERS, format_poly, parse_poly
from .rmcode import (
    ENUMERATION_LIMIT,
    CodeParams,
    Word,
    encode,
    encode_bits,
    groebner_basis,
    jennings_basis,
    random_message_bits,
    square_relations,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DECODE = 3

# `basis` refuses work of more than ~5 s: a listing takes ~5 us per term,
# reduced-check ~1-3 us per pair per term of a generator
LIST_LIMIT = 10**6
CHECK_LIMIT = 4 * 10**6


def _read_poly_file(path: str, m: int):
    """One polynomial per line; blank lines and # comments are skipped."""
    polys = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                polys.append(parse_poly(text, m))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not polys:
        raise ValueError(f"{path}: no polynomials found")
    return polys


def _print_basis_report(report, order: str) -> int:
    print(f"GROEBNER: {'yes' if report.is_groebner else 'no'}")
    print(f"REDUCED: {'yes' if report.is_reduced else 'no'}")
    if report.failing_pair is not None:
        i, j, rem = report.failing_pair
        print(f"failing pair: ({i + 1}, {j + 1}), S-remainder = {format_poly(rem, order)}")
    return EXIT_OK if report.is_groebner else EXIT_CHECK_FAILED


def cmd_basis(args) -> int:
    if args.which != "H" and args.l is None:
        raise ValueError(f"basis {args.which} requires -l")
    if args.which == "H":
        polys = square_relations(args.m)
    else:
        params = CodeParams(args.m, args.l)
        _check_basis_size(args.which, args.m, args.l)  # after CodeParams checks m and l
        if args.which == "G":
            polys = groebner_basis(params)
        elif args.which == "jennings":
            polys = jennings_basis(params)
        else:  # reduced-check
            return _print_basis_report(check_basis(groebner_basis(params), args.order), args.order)
    for p in polys:
        print(format_poly(p, args.order))
    return EXIT_OK


def _check_basis_size(which: str, m: int, l: int) -> None:
    if which == "reduced-check":
        limit, what, cost = CHECK_LIMIT, "pairs times terms per generator", comb(comb(m, l), 2) << l
    else:  # the g_I, |I| = k, have C(m, k) * 2^k terms
        sizes = [l] if which == "G" else range(l, m + 1)
        limit, what, cost = LIST_LIMIT, "terms", sum(comb(m, k) << k for k in sizes)
    if cost > limit:
        raise ValueError(f"basis {which} is limited to {limit} {what}, got {cost} at m={m}, l={l}")


def cmd_encode(args) -> int:
    params = CodeParams(args.m, args.l)
    message = parse_poly(args.message, args.m)
    print(encode(message, params))
    return EXIT_OK


def cmd_decode(args) -> int:
    params = CodeParams(args.m, args.l)
    word = Word.from_string(args.word)
    result = decode(word, params)
    payload = {
        "status": result.status,
        "codeword": str(result.codeword) if result.codeword is not None else None,
        "error_poly": format_poly(result.error) if result.error is not None else None,
        "chosen_S": (
            [sorted(loc) for loc in result.chosen_locations]
            if result.chosen_locations is not None
            else None
        ),
    }
    print(json.dumps(payload))
    return EXIT_DECODE if result.status == FAILURE else EXIT_OK


def cmd_divide(args) -> int:
    f = parse_poly(args.poly, args.m)
    divisors = _read_poly_file(args.divisors, args.m)
    result = divide(f, divisors, args.order)
    for i, q in enumerate(result.quotients, start=1):
        print(f"q{i} = {format_poly(q, args.order)}")
    print(f"r = {format_poly(result.remainder, args.order)}")
    return EXIT_OK


def cmd_groebner_check(args) -> int:
    basis = _read_poly_file(args.basis_file, args.m)
    return _print_basis_report(check_basis(basis, args.order), args.order)


def _parse_mode(text: str):
    kind, _, value = text.partition(":")
    try:
        if kind == "fixed":
            return "fixed_weight", int(value), None
        if kind == "bsc":
            return "bsc", None, float(value)
    except ValueError:
        pass
    raise ValueError(f"--mode must be fixed:W or bsc:P, got {text!r}")


def cmd_simulate(args) -> int:
    params = CodeParams(args.m, args.l)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    kind, weight, flip_prob = _parse_mode(args.mode)
    _check_error_mode(params, kind, weight, flip_prob)  # before the CSV is opened
    rng = random.Random(args.seed)
    decoded_ok = failures = miscorrections = 0
    # rows are written as they come, so an interrupted run keeps them
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "error_weight", "status", "correct"])
        start = time.perf_counter()
        for trial in range(args.trials):
            sent = encode_bits(random_message_bits(params, rng), params)
            error = random_error(params, kind, rng, weight=weight, flip_prob=flip_prob)
            result = decode(sent + error, params)
            correct = result.status != FAILURE and result.codeword == sent
            if correct:
                decoded_ok += 1
            elif result.status == FAILURE:
                failures += 1
            else:
                miscorrections += 1
            writer.writerow((trial, error.weight(), result.status, "true" if correct else "false"))
        elapsed = time.perf_counter() - start
    report = {
        "m": params.m,
        "l": params.l,
        "t": params.t,
        "trials": args.trials,
        "mode": args.mode,
        "seed": args.seed,
        "decoded_ok": decoded_ok,
        "failures": failures,
        "miscorrections": miscorrections,
        "elapsed_s": round(elapsed, 6),
    }
    print(json.dumps(report))
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = selfcheck.run_selftest(args.max_m)
    passed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        passed += ok
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmgb",
        description="Reed-Muller codes as radical powers, decoded by Groebner remainders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="print a generator family or check reducedness")
    p.add_argument("-m", type=int, required=True, help="number of variables")
    p.add_argument("-l", type=int, help="radical power (not needed for H)")
    p.add_argument("--order", choices=ORDERS, default=DEFAULT_ORDER)
    p.add_argument("which", choices=["G", "H", "jennings", "reduced-check"])
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("encode", help="encode a message polynomial to a word")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("message", help="message polynomial, e.g. 'y1*y2 + 1'")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a received word (JSON result)")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("word", help="received word as a bitstring, position 1 first")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("divide", help="multivariate division with quotients")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--divisors", required=True, help="file with one polynomial per line")
    p.add_argument("--order", choices=ORDERS, default=DEFAULT_ORDER)
    p.add_argument("poly", help="dividend polynomial text")
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("groebner-check", help="Buchberger criterion on a basis file")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--order", choices=ORDERS, default=DEFAULT_ORDER)
    p.add_argument("basis_file")
    p.set_defaults(func=cmd_groebner_check)

    p = sub.add_parser("simulate", help="random-error channel simulation")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--mode", required=True, help="fixed:W (exact weight) or bsc:P (flip probability)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="run the built-in verification battery")
    p.add_argument("max_m", type=int, nargs="?", default=3,
                   help=f"largest m to sweep, at most {ENUMERATION_LIMIT} (default 3)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
