"""``run_selftest`` reports failed checks as rows and lets other errors through."""

from math import comb

import pytest

from rmgb import selfcheck
from rmgb.rmcode import CodeParams


def test_failing_check_becomes_a_false_row(monkeypatch):
    monkeypatch.setattr(selfcheck, "berman_check", lambda params: False)
    rows = selfcheck.run_selftest(1)
    berman = [row for row in rows if row[0].startswith("berman")]
    assert berman == [
        ("berman m=1 l=0", False, "row spaces differ for m=1, l=0"),
        ("berman m=1 l=1", False, "row spaces differ for m=1, l=1"),
    ]
    assert all(ok for name, ok, _ in rows if not name.startswith("berman"))


def test_unrelated_error_is_not_swallowed(monkeypatch):
    def broken(params):
        raise TypeError("not a check failure")

    monkeypatch.setattr(selfcheck, "min_weight_bruteforce", broken)
    with pytest.raises(TypeError, match="not a check failure"):
        selfcheck.run_selftest(1)


def test_sweeps_cover_every_pattern_and_location():
    # the summaries count what each sweep visited: every error pattern of
    # weight 1..t (0..t for decoding) and every location with |I| >= l
    rows = {name: (ok, detail) for name, ok, detail in selfcheck.run_selftest(3)}
    for m in range(1, 4):
        n = 1 << m
        for l in range(1, m + 1):
            params = CodeParams(m, l)
            locations = sum(comb(m, k) for k in range(l, m + 1))
            assert rows[f"location-weights m={m} l={l}"] == (True, f"{locations} locations")
            if l < 2:
                continue
            nonzero = sum(comb(n, k) for k in range(1, params.t + 1))
            assert rows[f"weight-dichotomy m={m} l={l}"] == (True, f"{nonzero} error patterns")
            detail = f"{1 << params.dim} codewords x {nonzero + 1} error patterns"
            assert rows[f"decode-vs-ml m={m} l={l}"] == (True, detail)
    for l in (3, 4):
        t = CodeParams(4, l).t
        want = f"{sum(comb(16, k) for k in range(1, t + 1))} error patterns"
        assert selfcheck.verify_dichotomy(CodeParams(4, l)) == want
