"""``run_selftest`` reports failed checks as rows and lets other errors through."""

import pytest

from rmgb import selfcheck


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
