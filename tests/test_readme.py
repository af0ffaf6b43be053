"""README's examples print what README says they print."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from rmgb.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=["syndrome", "bits"])
def test_quick_start_prints_its_comments(block):
    # each print line ends in a comment that shows what it prints
    want = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == want


def test_selftest_sample_shows_the_first_and_last_lines(capsys):
    sample = README.split("$ rmgb selftest 3\n", 1)[1].split("```", 1)[0].splitlines()
    assert main(["selftest", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sample == [lines[0], "...", lines[-1]]
