"""Tests of the benchmark itself: its output oracle and its traced counts.

Run from the repository root with ``python3 -m pytest bench``.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from oracle import RMOracle  # noqa: E402
from run import WORKLOADS, input_stream, scaled  # noqa: E402
from rmgb.polyring import Poly  # noqa: E402
from rmgb.rmcode import CodeParams, codewords, encode, message_monomials  # noqa: E402


@pytest.mark.parametrize("m", range(1, 5))
def test_oracle_accepts_codewords_and_rejects_flips(m):
    for l in range(m + 1):
        oracle = RMOracle(m, l)
        words = {w.value for w in codewords(CodeParams(m, l))}
        assert len(words) == 1 << CodeParams(m, l).dim
        for value in words:
            assert oracle.is_codeword(value)
            for b in range(1 << m):
                # for l = 0 the code is every word, so a flip stays a codeword
                assert oracle.is_codeword(value ^ (1 << b)) == (l == 0)


@pytest.mark.parametrize("m, l", [(3, 1), (5, 2), (6, 3), (8, 2)])
def test_oracle_encode_matches_library(m, l):
    params = CodeParams(m, l)
    monos = message_monomials(params)
    rng = random.Random(m * 31 + l)
    oracle = RMOracle(m, l)
    for _ in range(20):
        mask = rng.getrandbits(len(monos))
        message = Poly(m, [mono for i, mono in enumerate(monos) if mask >> i & 1])
        assert oracle.encode(message.support) == encode(message, params).value


def test_check_decode_rejects_wrong_results():
    oracle = RMOracle(4, 2)  # t = 1
    sent = oracle.encode({(0, 0, 0, 0), (1, 0, 0, 0)})
    error = 1 << 5
    received = sent ^ error
    assert oracle.check_decode(sent, error, "corrected_low", sent, {(0, 1, 0, 1)}) == ""
    assert oracle.check_decode(sent, error, "failure", None, ()) != ""
    assert oracle.check_decode(sent, error, "clean", received, ()) != ""
    assert oracle.check_decode(sent, error, "corrected_low", sent, {(0, 1, 1, 0)}) != ""
    double = error | 1 << 9
    assert oracle.check_decode(sent, double, "failure", None, ()) == ""


def test_scaled_times_follow_the_local_reference_speed():
    # the host halves its speed after op 20: ops and reference loops both take twice as long
    refs = [1e-3] * 20 + [2e-3] * 20
    times = [5e-3] * 20 + [10e-3] * 20
    assert list(scaled(times, refs)) == pytest.approx([5e-3] * 40)


def test_stratified_errors_keep_their_distribution():
    import rmgb

    workload = WORKLOADS["omega-m6l3"]()
    workload.setup(rmgb)
    high = set(workload.high)
    counts = [0] * 4
    for _, error in itertools.islice(input_stream(workload, "omega-m6l3", 5), 500):
        positions = [b for b in range(64) if error >> b & 1]
        assert len(positions) == 3
        counts[sum(b in high for b in positions)] += 1
    # each k in its hypergeometric share, to within two words
    shares = [b - a for a, b in zip([0.0] + workload.k_cdf, workload.k_cdf)]
    assert all(abs(c - 500 * s) <= 2 for c, s in zip(counts, shares))


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("workload", ["omega-m6l3", "bsc-m8l2", "groebner-m5"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = run_bench(workload, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append(result["metrics"])
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["op.calls"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("omega-m6l3", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
