"""One-line mutants of the Groebner toolkit, each with the test that kills it.

Each entry of ``MUTANTS`` is ``(name, file, old, new, test)``: ``old``
is a text that occurs exactly once in ``src/rmgb``, in ``file``;
``new`` replaces it; ``test`` is the pytest node that must fail on the
mutated tree.  ``tests/test_mutants.py`` checks in tier-1 that every old
text still occurs exactly once, so a change to the source that makes an
entry stale fails there.  A change that kills a mutant with a new test
adds the mutant here.

Run as a script, ``python tests/mutants.py [NAME ...]`` first runs every
killing test on an unmutated copy of the tree, which must pass; then,
for each mutant (or each one named), it copies ``src`` and ``tests`` to
a temporary directory, applies the mutant, runs its test with ``-x``
and reports it killed or survived.  It exits 1 if a mutant survives or
a run errs.  It needs only the standard library and pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rmgb"

NF = "tests/test_normal_form.py::"
GB = "tests/test_groebner.py::"

MUTANTS = [
    # packed_normal_form sums 0 for a monomial it cannot value, not the classical result
    ("fallback-dropped", "division.py",
     "return packed_remainder(work, divisors, packing)", "v = 0",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # the walk skips the XOR of a monomial's second product
    ("one-xor-skipped", "division.py",
     "for k in range(1, len(products)):", "for k in range(2, len(products)):",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # the walk drops the value of a monomial's first product
    ("first-value-dropped", "division.py",
     "v = values[products[0]] if products else 0", "v = 0",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # a monomial divisor (empty tail) leaves no product to share: IndexError
    ("empty-tail-guard-dropped", "division.py",
     "v = values[products[0]] if products else 0", "v = values[products[0]]",
     NF + "test_memo_matches_classical_kernel_near_the_cap"),
    # the walk values products past the exponent cap instead of falling back
    ("no-cap-test-in-walk", "division.py",
     "if (y + room) & guard:  # a product past the cap", "if False:",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # the memo's list of standard monomials grows past MEMO_LIMIT
    ("no-standard-limit", "division.py",
     "if len(standard) >= MEMO_LIMIT:", "if False:",
     NF + "test_full_memo_serves_what_it_holds[1000-3]"),
    # every divide is served by the memo, a one-off divide included
    ("divide-always-warm", "division.py",
     "if memo is held else", "if True else",
     NF + "test_one_off_divide_computes_its_quotients_when_first_read[lex]"),
    # no divide is served by the memo, not even after a check_basis of its list
    ("divide-never-warm", "division.py",
     "if memo is held else", "if False else",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # basis_memo stores its key without the packing, so no call finds the slot's memo
    ("key-without-packing", "division.py",
     "_last.key, _last.memo = (packing, packed), ({}, [])", "_last.key, _last.memo = (None, packed), ({}, [])",
     NF + "test_memo_matches_classical_kernel_on_seeded_ideals[lex]"),
    # basis_memo writes the slot but never reads it: a fresh memo on every call
    ("slot-never-read", "division.py",
     "if _last.key != (packing, packed):", "if True:",
     NF + "test_check_basis_takes_the_memo_divide_left[lex]"),
    # the lazy quotients are computed again on every read
    ("quotients-not-cached", "division.py",
     "@cached_property\n    def quotients(self)", "@property\n    def quotients(self)",
     NF + "test_one_off_divide_computes_its_quotients_when_first_read[lex]"),
    # check_basis leaves its memo under the other monomial order's packing
    ("memo-under-other-order", "groebner.py",
     "memo = basis_memo(packing, packed)\n    for _, i, j in pairs:",
     'memo = basis_memo(MonomialPacking(packing.m, "lex" if packing.grlex else "grlex"), packed)\n'
     "    for _, i, j in pairs:",
     NF + "test_check_basis_hands_its_memo_to_divide[lex]"),
    # ideal_member calls a zero, None or 0 a member without checking it
    ("ideal-member-shortcut", "groebner.py",
     "return not remainder(f, list(basis), order)", "return not f or not remainder(f, list(basis), order)",
     GB + "test_entry_points_check_every_element_before_dropping_zeros[ideal_member]"),
    # completion and reduce_basis drop zeros before checking the elements
    ("zeros-dropped-before-check", "groebner.py",
     "    polys = list(polys)\n    for p in polys:", "    polys = [p for p in polys if p]\n    for p in polys:",
     GB + "test_entry_points_check_every_element_before_dropping_zeros[buchberger_complete]"),
    # the Gebauer-Moeller test of a new pair sees only the earlier lcms, not the later ones
    ("update-later-lcms-unseen", "groebner.py",
     "for other in new:", "for other in new[:k]:",
     "tests/test_packed_toolkit.py::test_pair_criteria_reduce_pinned_pair_counts[lex]"),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def run_tests(tree: Path, tests) -> int:
    """Run pytest with ``-x`` on ``tests`` in ``tree``, against that tree's rmgb; return its exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "rmgb" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        raise SystemExit(f"unknown mutant names: {sorted(set(names) - {m[0] for m in MUTANTS})}")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        code = run_tests(base, sorted({m[4] for m in chosen}))
        if code != 0:
            print(f"the killing tests fail on the unmutated tree (pytest exit {code})")
            return 1
        for name, file, old, new, test in chosen:
            tree = Path(tmp) / name
            copy_tree(tree)
            apply(tree, file, old, new)
            start = time.perf_counter()
            code = run_tests(tree, [test])
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            failed += code != 1
            print(f"{verdict:10} {name:28} {time.perf_counter() - start:5.1f} s  {test}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
