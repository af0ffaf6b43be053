"""Closed-loop benchmark of rmgb: one client, one process, no threads.

Run from the repository root:

    python3 bench/run.py --workload omega-m6l3 --seed 1 --seconds 30 --trace 0

Inputs are drawn from ``--seed`` in batches before each batch is timed,
so the same seed gives the same input sequence and a timed op receives
only its pre-built inputs.  Every op's output is checked by ``oracle``,
which does not call rmgb's algorithms.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, taken
from spans that ``tracer`` records around rmgb's module globals.  See
DESIGN.md for why each workload exists and what each metric should move.

End-to-end times are reported at reference speed: a fixed pure-Python
loop is timed after every op, and each op's time is multiplied by
``REF_S`` over the median of the loop times around it.  The raw wall-clock
figures are printed above the JSON line as ``wall_*``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from math import comb
from pathlib import Path
from time import perf_counter

from oracle import RMOracle, SympyGroebner
from tracer import NAME, NOTE, PARENT, Tracer

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # re-check gain claims on this seed; never tune on it
MIN_SAMPLES = 100  # keep going past --seconds until this many ops have run
BATCH = 16  # inputs generated per untimed generation step
GOLDEN = (5 ** 0.5 - 1) / 2
SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
SYMPY_CHECK_CAP = 300  # ideals checked against sympy; later ones get the cheap checks
# The host's speed swings by up to 2x within seconds, as neighbours come and
# go.  So a fixed piece of plain Python that never touches rmgb is timed after
# every op, and each op's time is scaled to the speed at which it takes REF_S.
REF_S = 1e-3
REF_TERMS = tuple((i % 2, i // 2 % 2, i // 4 % 2, i // 8 % 2, i // 16 % 2, i // 32) for i in range(64))
REF_WINDOW = 8  # an op's speed: median of the reference loops this many ops either side
# Traced runs do a fixed number of ops, seconds * rate / 2, so that their
# counts repeat exactly and compare across versions on the same inputs.
# At the commit that defined the benchmark the traced pass fills about
# half of --seconds and the untraced re-run of the same inputs the rest.
TRACE_OPS_PER_S = {"omega-m6l3": 40, "bsc-m8l2": 16, "groebner-m5": 8}
PATHS = {"clean": "clean", "corrected_low": "low", "corrected_omega": "omega", "failure": "failure"}
SPANS = (
    "rmcode.encode",
    "rmcode.word_to_poly",
    "rmcode.poly_to_word",
    "decoder.decode",
    "decoder.syndrome",
    "division.divide",
    "polyring.mul",
    "groebner.s_polynomial",
    "groebner.buchberger_complete",
    "groebner.reduce_basis",
    "groebner.check_basis",
    "op",
)


def load_rmgb():
    """Import rmgb from ./src, refusing any other copy."""
    src = Path.cwd() / "src"
    if not (src / "rmgb" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rmgb sources in {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import rmgb
    import rmgb.decoder
    import rmgb.division
    import rmgb.groebner
    import rmgb.polyring
    import rmgb.rmcode

    if Path(rmgb.__file__).resolve().parent != (src / "rmgb").resolve():
        raise SystemExit(f"bench: imported rmgb from {rmgb.__file__}, not from {src}")
    return rmgb


class Channel:
    """Encode a random message, add a channel error, decode: one word per op."""

    unit = "words"

    def __init__(self, m, l, weight=None, flip_prob=None):
        self.m, self.l, self.n = m, l, 1 << m
        self.weight, self.flip_prob = weight, flip_prob
        self.oracle = RMOracle(m, l)
        if weight is not None:
            # An error at a point of popcount >= l sits at a location of degree
            # >= l, which decode must find by its omega search; the number k of
            # such positions in a word sets most of its decode time.
            self.high = [b for b in range(self.n) if bin(b).count("1") >= l]
            self.low = [b for b in range(self.n) if bin(b).count("1") < l]
            shares = [comb(len(self.high), k) * comb(len(self.low), weight - k) / comb(self.n, weight)
                      for k in range(weight + 1)]
            self.k_cdf = list(itertools.accumulate(shares))

    def setup(self, rmgb):
        self.rmgb = rmgb
        self.params = rmgb.rmcode.CodeParams(self.m, self.l)
        rmgb.rmcode.groebner_basis(self.params)
        self.monos = rmgb.rmcode.message_monomials(self.params)
        # One error at the last candidate location makes the search try every
        # candidate once, which fills decode's location-remainder cache.
        last = sum(1 << (self.m - i) for i in range(self.m - self.l + 1, self.m + 1))
        rmgb.decoder.decode(rmgb.rmcode.Word(self.n, 1 << last), self.params)

    def make_input(self, rng, u):
        mask = rng.getrandbits(len(self.monos))
        message = self.rmgb.polyring.Poly(
            self.m, [mono for i, mono in enumerate(self.monos) if mask >> i & 1]
        )
        error = 0
        if self.weight is not None:
            # Stratified draw of a uniform weight-w error: u picks k from its
            # hypergeometric distribution, then the positions are uniform given k.
            k = min(bisect.bisect_right(self.k_cdf, u), self.weight)
            for b in rng.sample(self.high, k) + rng.sample(self.low, self.weight - k):
                error |= 1 << b
        else:
            for b in range(self.n):
                if rng.random() < self.flip_prob:
                    error |= 1 << b
        return message, error

    def run(self, inp):
        """Returns the output, the op's seconds and the decode call's seconds."""
        message, error = inp
        rmcode, decoder = self.rmgb.rmcode, self.rmgb.decoder
        t0 = perf_counter()
        sent = rmcode.encode(message, self.params)
        received = rmcode.Word(self.n, sent.value ^ error)
        t1 = perf_counter()
        result = decoder.decode(received, self.params)
        t2 = perf_counter()
        return (sent, result), t2 - t0, t2 - t1

    def check(self, index, inp, out):
        message, error = inp
        sent, result = out
        if sent.value != self.oracle.encode(message.support):
            return "encode disagrees with the evaluation transform"
        codeword = result.codeword.value if result.codeword is not None else None
        error_support = result.error.support if result.error is not None else ()
        return self.oracle.check_decode(sent.value, error, result.status, codeword, error_support)

    def deferred_failures(self, inputs):
        return []


class Ideals:
    """Complete, reduce and check an ideal of A, then divide by its basis: one ideal per op."""

    unit = "ideals"
    order = "grlex"

    def __init__(self, m, gen_terms, dividends):
        self.m, self.gen_terms, self.dividends = m, gen_terms, dividends
        self.pending = {}  # op index -> digest of its output, for the sympy check

    def setup(self, rmgb):
        self.rmgb = rmgb
        self.relations = rmgb.rmcode.square_relations(self.m)
        self.squarefree = rmgb.rmcode.monomial_positions(self.m)

    def _poly(self, monos):
        return self.rmgb.polyring.Poly(self.m, monos)

    def make_input(self, rng, u):
        gens = self.relations + tuple(
            self._poly(rng.sample(self.squarefree, self.gen_terms)) for _ in range(2)
        )
        dividends = []
        for _ in range(self.dividends):
            mask = rng.getrandbits(len(self.squarefree))
            dividends.append(self._poly([mono for i, mono in enumerate(self.squarefree) if mask >> i & 1]))
        return gens, tuple(dividends)

    def run(self, inp):
        gens, dividends = inp
        groebner, division = self.rmgb.groebner, self.rmgb.division
        t0 = perf_counter()
        basis = groebner.buchberger_complete(gens, self.order)
        reduced = groebner.reduce_basis(basis, self.order)
        report = groebner.check_basis(reduced, self.order)
        rems = tuple(division.divide(f, reduced, self.order).remainder for f in dividends)
        elapsed = perf_counter() - t0
        return (reduced, report, rems), elapsed, elapsed

    def check(self, index, inp, out):
        reduced, report, rems = out
        if not (report.is_groebner and report.is_reduced):
            return "check_basis rejects the reduced basis"
        if index < SYMPY_CHECK_CAP:
            self.pending[index] = _digest([p.support for p in reduced], [r.support for r in rems])
        return ""

    def deferred_failures(self, inputs):
        """Op indices whose basis or remainders differ from sympy's.

        Only a digest of each output is kept while timing, so memory does
        not grow with the op count; ``inputs`` replays the input stream.
        """
        if not self.pending:
            return []
        sym = SympyGroebner(self.m)
        bad = []
        for index, (gens, dividends) in enumerate(itertools.islice(inputs, max(self.pending) + 1)):
            if index not in self.pending:
                continue
            want = sym.reduced_basis([g.support for g in gens])
            rems = [sym.remainder(f.support, want) for f in dividends]
            if _digest(sym.supports(want), rems) != self.pending[index]:
                bad.append(index)
        self.pending = {}
        return bad


def _digest(basis, remainders):
    """Digest of a basis (a set of supports) and a list of remainder supports."""
    canon = (sorted(tuple(sorted(b)) for b in basis), [tuple(sorted(r)) for r in remainders])
    return hashlib.blake2b(repr(canon).encode(), digest_size=16).digest()


def input_stream(workload, name, seed):
    """The workload's inputs for a seed, in order; the same on every run."""
    rng = random.Random(f"{name}/{seed}")
    # u_i = start + i / golden ratio (mod 1): each u_i is uniform, and any run of
    # consecutive inputs covers [0, 1) evenly, so a workload that draws its
    # inputs' strata from u gets each stratum in its exact share in every run.
    u = random.Random(f"{name}/{seed}/strata").random()
    while True:
        yield workload.make_input(rng, u)
        u = (u + GOLDEN) % 1.0


WORKLOADS = {
    "omega-m6l3": lambda: Channel(6, 3, weight=3),
    "bsc-m8l2": lambda: Channel(8, 2, flip_prob=0.003),
    "groebner-m5": lambda: Ideals(5, gen_terms=4, dividends=8),
}


class Tally:
    """Ops attempted and failed, with the first few failures printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, index, reason):
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: op {index} failed: {reason}", file=sys.stderr)

    def attempt(self, workload, index, inp):
        """Run and check one op; returns (output, op_s, key_s) or None when it failed."""
        self.attempted += 1
        try:
            out, op_s, key_s = workload.run(inp)
        except Exception:
            self.fail(index, traceback.format_exc())
            return None
        reason = workload.check(index, inp, out)
        if reason:
            self.fail(index, reason)
        return out, op_s, key_s


def reference_loop():
    """Seconds taken by a fixed piece of plain Python, independent of rmgb.

    It does what rmgb's polynomials do most: build frozensets of exponent
    tuples, take symmetric differences and look them up in a dict.  Work of
    that kind follows the host's slowdowns more closely than integer
    arithmetic does, which tracked the channel workloads' op times worse.
    """
    t0 = perf_counter()
    seen, acc = {}, frozenset()
    for j in range(150):
        terms = frozenset(REF_TERMS[(5 * j + i) % 64] for i in range(12))
        acc ^= terms
        seen[terms] = len(acc)
        seen.get(acc)
    return perf_counter() - t0


def scaled(times, refs):
    """Each time scaled to reference speed by the reference loops around it."""
    out = array("d")
    for i, t in enumerate(times):
        local = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        out.append(t * REF_S / local)
    return out


def setup_seconds(name):
    """Median numpy import and setup times over fresh interpreters, each timing itself."""
    numpy_s, setup_s = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        numpy, setup = proc.stdout.split()[-2:]
        numpy_s.append(float(numpy))
        setup_s.append(float(setup))
    return statistics.median(numpy_s), statistics.median(setup_s)


def probe(name):
    """Print the wall time of importing numpy, then the setup time at reference speed.

    numpy is imported before the setup is timed.  Its import took about 70 %
    of a setup and doubled or halved with the host's state over minutes,
    which the reference loop does not track, so it is reported on its own.
    """
    workload = WORKLOADS[name]()
    t0 = perf_counter()
    import numpy  # noqa: F401
    numpy_s = perf_counter() - t0
    refs = [reference_loop() for _ in range(10)]
    t0 = perf_counter()
    workload.setup(load_rmgb())
    elapsed = perf_counter() - t0
    refs += [reference_loop() for _ in range(10)]
    print(numpy_s, elapsed * REF_S / statistics.median(refs))


def measure(name, seed, seconds):
    rmgb = load_rmgb()
    numpy_s, setup_s = setup_seconds(name)
    print(f"numpy_import_s {numpy_s:.6g} s (wall, not in setup_s)")
    workload = WORKLOADS[name]()
    workload.setup(rmgb)
    inputs = input_stream(workload, name, seed)
    tally = Tally()
    op_times, key_times, refs = array("d"), array("d"), array("d")
    start = perf_counter()
    while perf_counter() - start < seconds or tally.attempted < MIN_SAMPLES:
        for inp in list(itertools.islice(inputs, BATCH)):
            done = tally.attempt(workload, tally.attempted, inp)
            if done is not None:
                op_times.append(done[1])
                key_times.append(done[2])
                refs.append(reference_loop())
            if perf_counter() - start >= seconds and tally.attempted >= MIN_SAMPLES:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for index in workload.deferred_failures(input_stream(workload, name, seed)):
        tally.fail(index, "differs from sympy")
    print(f"wall_ops_per_s {len(op_times) / sum(op_times):.6g} 1/s")
    print(f"wall_call_p50_ms {statistics.median(key_times) * 1e3:.6g} ms")
    print(f"reference_loop_ms {statistics.median(refs) * 1e3:.6g} ms (nominal {REF_S * 1e3:g})")
    op_times, key_times = scaled(op_times, refs), scaled(key_times, refs)
    deciles = statistics.quantiles(key_times, n=10, method="inclusive")
    metrics = {
        "ops_per_s": (len(op_times) / sum(op_times), "1/s"),
        "call_p50_ms": (statistics.median(key_times) * 1e3, "ms"),
        "call_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    key = "decode" if workload.unit == "words" else "ideal"
    aliases = {
        f"{workload.unit}_per_s": "ops_per_s",
        f"{key}_p50_ms": "call_p50_ms",
        f"{key}_p90_ms": "call_p90_ms",
    }
    for alias, metric in aliases.items():
        print(f"{alias} {metrics[metric][0]:.6g} {metrics[metric][1]}")
    print(f"ops_failed_frac {tally.failed / tally.attempted:.6g} ratio")
    print(f"samples {len(key_times)} count")
    return tally, metrics


def trace(name, seed, seconds):
    rmgb = load_rmgb()
    workload = WORKLOADS[name]()
    workload.setup(rmgb)
    count = max(1, round(seconds * TRACE_OPS_PER_S[name] / 2))
    inputs = list(itertools.islice(input_stream(workload, name, seed), count))
    tally = Tally()
    # The untraced pass runs first, so the time ratio also charges the
    # tracer for the memory its spans hold during the traced pass.
    untraced, untraced_s = [], 0.0
    for inp in inputs:
        out, op_s, _ = workload.run(inp)
        untraced.append(out)
        untraced_s += op_s
    tracer = Tracer()
    paths = dict.fromkeys(PATHS.values(), 0)
    traced_s = 0.0
    with tracer.installed(rmgb):
        for index, (inp, plain) in enumerate(zip(inputs, untraced)):
            with tracer.op_span():
                done = tally.attempt(workload, index, inp)
            if done is None:
                continue
            traced_s += done[1]
            if done[0] != plain:
                tally.fail(index, "traced output differs from untraced output")
            if workload.unit == "words":
                paths[PATHS[done[0][1].status]] += 1
    tracer.check_accounting()
    for index in workload.deferred_failures(input_stream(workload, name, seed)):
        tally.fail(index, "differs from sympy")
    tracer.write(HERE / "out" / f"spans-{name}-seed{seed}.jsonl.gz")
    return tally, layer_metrics(tracer, paths, traced_s / untraced_s)


def layer_metrics(tracer, paths, time_ratio):
    calls, self_ns = tracer.summary()
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.self_s"] = (self_ns[span] / 1e9, "s")
        metrics[f"{span}.calls"] = (calls[span], "count")
    for path, count in paths.items():
        metrics[f"decoder.path.{path}"] = (count, "count")
    decodes, syndromes = calls["decoder.decode"], calls["decoder.syndrome"]
    verifications = syndromes - decodes
    metrics["decoder.syndrome.per_decode"] = (syndromes / decodes if decodes else 0.0, "ratio")
    metrics["decoder.verify_yield"] = (paths["omega"] / verifications if verifications else 0.0, "ratio")

    spans = tracer.spans
    divides = [s for s in spans if s[NAME] == "division.divide"]
    zero = sum(1 for s in divides if s[NOTE][1])
    metrics["division.divide.terms_in"] = (sum(s[NOTE][0] for s in divides), "count")
    metrics["division.divide.zero_frac"] = (zero / len(divides) if divides else 0.0, "ratio")
    # S-reductions are the divisions that buchberger_complete makes itself
    reductions = [s for s in divides if spans[s[PARENT]][NAME] == "groebner.buchberger_complete"]
    zero_reductions = sum(1 for s in reductions if s[NOTE][1])
    metrics["groebner.zero_reduction_frac"] = (
        zero_reductions / len(reductions) if reductions else 0.0, "ratio")
    metrics["groebner.basis_added"] = (len(reductions) - zero_reductions, "count")
    metrics["trace.time_ratio"] = (time_ratio, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return
    if not args.workload:
        parser.error("--workload is required")
    run = trace if args.trace else measure
    tally, metrics = run(args.workload, args.seed, args.seconds)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
