"""The mutant table of ``tests/mutants.py`` stays in step with the source and the tests."""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("name, file, old, new, test", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_mutant_applies_once_and_names_a_test(name, file, old, new, test):
    counts = {path.name: path.read_text().count(old) for path in SRC.glob("*.py")}
    assert {k: n for k, n in counts.items() if n} == {file: 1}
    assert new != old
    path, function = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[[\w-]+\])?", test).group(1, 2)
    assert f"\ndef {function}(" in (ROOT / path).read_text()


def test_mutant_names_are_unique():
    names = [m[0] for m in MUTANTS]
    assert len(names) == len(set(names))
