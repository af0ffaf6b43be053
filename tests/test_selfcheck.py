"""``run_selftest`` reports failed checks as rows and lets other errors through."""

from math import comb

import pytest

from rmgb import selfcheck
from rmgb.decoder import CLEAN, FAILURE, DecodeResult, MLResult, decode
from rmgb.rmcode import CodeParams, Word


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


# one stand-in per failure branch: the name the check reads in rmgb.selfcheck,
# what replaces it, the max_m that reaches the check, its row and its message
BROKEN = [
    pytest.param("syndrome", lambda v, p: Word(p.n, 0), 3, "golden-example",
                 "golden syndrome mismatch: got 0", id="golden-syndrome"),
    pytest.param("decode", lambda v, p: decode(Word(p.n, 0), p), 3, "golden-example",
                 "golden codeword mismatch: got 00000000", id="golden-codeword"),
    pytest.param("decode", lambda v, p: DecodeResult(CLEAN, Word.from_string("10101010"), 0, p), 3,
                 "golden-example", "golden error mismatch: got 0", id="golden-error"),
    pytest.param("rank", lambda rows: 0, 1, "berman m=1 l=0",
                 "rank 0 != dimension 2 for m=1, l=0", id="berman-rank"),
    pytest.param("min_weight_bruteforce", lambda p: 0, 1, "min-weight m=1 l=0",
                 "minimum weight 0 != 2^l = 1 for m=1, l=0", id="min-weight"),
    pytest.param("syndrome", lambda v, p: Word(p.n, 0), 2, "weight-dichotomy m=2 l=2",
                 "dichotomy violated for error 1000 (m=2, l=2): syndrome weight 0, locations [[1, 2]]",
                 id="dichotomy"),
    pytest.param("hat_set", lambda loc, p: frozenset(), 1, "location-weights m=1 l=1",
                 "remainder of X_[1] has weight 0 <= t = 0", id="location-within-t"),
    pytest.param("hat_set", lambda loc, p: frozenset({frozenset(), frozenset({1})}), 1,
                 "location-weights m=1 l=1", "remainder of X_[1] has weight 2, expected 2^l - 1 = 1",
                 id="location-not-2^l-1"),
    pytest.param("decode", lambda v, p: DecodeResult(FAILURE, None, None, p), 2, "decode-vs-ml m=2 l=2",
                 "decode failed on c=0000, e=0000 (m=2, l=2)", id="decode-failed"),
    pytest.param("decode", lambda v, p: decode(Word(p.n, 0), p), 2, "decode-vs-ml m=2 l=2",
                 "decode mismatch on c=0000, e=1000 (m=2, l=2): got codeword 0000, error 0",
                 id="decode-mismatch"),
    pytest.param("ml_decode_bruteforce", lambda v, p: MLResult(v, 0, True), 2, "decode-vs-ml m=2 l=2",
                 "ML oracle disagrees on c=0000, e=0000 (m=2, l=2)", id="ml-tie"),
    pytest.param("decode_search", lambda v, p: None, 2, "decode-vs-ml m=2 l=2",
                 "remainder search disagrees on c=0000, e=0000 (m=2, l=2)", id="search-disagrees"),
]


@pytest.mark.parametrize("name, stand_in, max_m, row, message", BROKEN)
def test_each_failure_branch_becomes_its_false_row(monkeypatch, name, stand_in, max_m, row, message):
    monkeypatch.setattr(selfcheck, name, stand_in)
    assert (row, False, message) in selfcheck.run_selftest(max_m)


def test_decode_sweep_refuses_a_code_that_corrects_nothing():
    with pytest.raises(ValueError, match=r"^sweep needs a code with t >= 1$"):
        selfcheck.verify_decode_agreement(CodeParams(3, 1))
