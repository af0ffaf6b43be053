import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rmgb.cli import main

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decode_golden_json(capsys):
    code, out, _ = run(capsys, "decode", "-m", "3", "-l", "2", "10100010")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "status": "corrected_omega",
        "codeword": "10101010",
        "error_poly": "x2*x3",
        "chosen_S": [[2, 3]],
    }


def test_decode_clean_and_failure_exit_codes(capsys):
    code, out, _ = run(capsys, "decode", "-m", "3", "-l", "2", "10101010")
    assert code == 0
    assert json.loads(out)["status"] == "clean"

    code, out, _ = run(capsys, "decode", "-m", "3", "-l", "2", "11000000")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "failure"
    assert payload["codeword"] is None and payload["error_poly"] is None


def test_decode_bad_word_is_input_error(capsys):
    code, _, err = run(capsys, "decode", "-m", "3", "-l", "2", "10101")
    assert code == 2
    assert "error:" in err


def test_encode_outputs(capsys):
    code, out, _ = run(capsys, "encode", "-m", "3", "-l", "2", "y1")
    assert code == 0 and out.strip() == "11110000"
    code, out, _ = run(capsys, "encode", "-m", "3", "-l", "2", "0")
    assert code == 0 and out.strip() == "00000000"


def test_encode_degree_error(capsys):
    code, _, err = run(capsys, "encode", "-m", "3", "-l", "2", "y1*y2")
    assert code == 2
    assert "degree" in err


def test_basis_listings(capsys):
    code, out, _ = run(capsys, "basis", "-m", "3", "-l", "2", "G")
    assert code == 0
    assert out.splitlines() == [
        "x1*x2 + x1 + x2 + 1",
        "x1*x3 + x1 + x3 + 1",
        "x2*x3 + x2 + x3 + 1",
    ]
    code, out, _ = run(capsys, "basis", "-m", "1", "-l", "1", "H")
    assert code == 0 and out.strip() == "x1^2 + 1"
    code, out, _ = run(capsys, "basis", "-m", "3", "-l", "2", "jennings")
    assert code == 0 and len(out.splitlines()) == 4


def test_basis_requires_l(capsys):
    code, _, err = run(capsys, "basis", "-m", "3", "G")
    assert code == 2 and "requires -l" in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_basis_h_rejects_m_below_one(capsys, m):
    code, out, err = run(capsys, "basis", "H", "-m", m)
    assert (code, out, err) == (2, "", f"error: m must be in 1..16, got {m}\n")


def test_basis_reduced_check(capsys):
    code, out, _ = run(capsys, "basis", "-m", "3", "-l", "2", "reduced-check")
    assert code == 0
    assert out.splitlines() == ["GROEBNER: yes", "REDUCED: yes"]


@pytest.mark.parametrize("l, which, limit", [
    (1, "jennings", "1000000 terms, got 43046720"),  # 3^16 - 1
    (8, "G", "1000000 terms, got 3294720"),
    (12, "G", "1000000 terms, got 7454720"),
    (8, "reduced-check", "4000000 pairs times terms per generator, got 21199875840"),
    (14, "reduced-check", "4000000 pairs times terms per generator, got 116981760"),
], ids=["jennings-1", "G-8", "G-12", "reduced-check-8", "reduced-check-14"])
def test_basis_refuses_oversized_requests(capsys, monkeypatch, l, which, limit):
    def unbuilt(params):
        raise AssertionError("built a basis before refusing")

    monkeypatch.setattr("rmgb.cli.groebner_basis", unbuilt)
    monkeypatch.setattr("rmgb.cli.jennings_basis", unbuilt)
    start = time.perf_counter()
    code, out, err = run(capsys, "basis", "-m", "16", "-l", str(l), which)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert err == f"error: basis {which} is limited to {limit} at m=16, l={l}\n"


def test_basis_admits_requests_within_the_limits(capsys):
    code, out, _ = run(capsys, "basis", "-m", "16", "-l", "1", "reduced-check")
    assert code == 0 and out.splitlines() == ["GROEBNER: yes", "REDUCED: yes"]
    code, out, _ = run(capsys, "basis", "-m", "16", "-l", "16", "G")  # 65536 terms
    assert code == 0 and out.count("+") == 65535


def test_divide_walkthrough(capsys, tmp_path):
    gfile = tmp_path / "G.txt"
    gfile.write_text(
        "# degree-2 generators\n"
        "x1*x2 + x1 + x2 + 1\n"
        "x1*x3 + x1 + x3 + 1\n"
        "x2*x3 + x2 + x3 + 1\n"
    )
    code, out, _ = run(
        capsys, "divide", "-m", "3", "--divisors", str(gfile), "x1*x2*x3 + x1*x3 + x3"
    )
    assert code == 0
    assert out.splitlines() == ["q1 = x3", "q2 = 0", "q3 = 1", "r = x2 + x3 + 1"]


def test_divide_parse_error(capsys, tmp_path):
    gfile = tmp_path / "G.txt"
    gfile.write_text("x1 + oops\n")
    code, _, err = run(capsys, "divide", "-m", "3", "--divisors", str(gfile), "x1")
    assert code == 2 and "G.txt:1" in err


def test_divide_by_zero_line_names_its_position(capsys, tmp_path):
    gfile = tmp_path / "G.txt"
    gfile.write_text("x1 + 1\n# a comment\n0\nx2\n")
    code, out, err = run(capsys, "divide", "-m", "3", "--divisors", str(gfile), "x1")
    assert (code, out) == (2, "")
    assert err == "error: polynomial 2 of 3 is zero; expected nonzero polynomials\n"


def test_groebner_check_positive_and_negative(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("x1*x2 + x1 + x2 + 1\nx1*x3 + x1 + x3 + 1\nx2*x3 + x2 + x3 + 1\n")
    code, out, _ = run(capsys, "groebner-check", "-m", "3", str(good))
    assert code == 0
    assert out.splitlines()[:2] == ["GROEBNER: yes", "REDUCED: yes"]

    bad = tmp_path / "bad.txt"
    bad.write_text("x1\nx1 + x2\n")
    code, out, _ = run(capsys, "groebner-check", "-m", "2", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "GROEBNER: no"
    assert "failing pair: (1, 2)" in lines[2]


def test_groebner_check_union_file(capsys, tmp_path):
    path = tmp_path / "gh.txt"
    path.write_text(
        "x1*x2 + x1 + x2 + 1\nx1*x3 + x1 + x3 + 1\nx2*x3 + x2 + x3 + 1\n"
        "x1^2 + 1\nx2^2 + 1\nx3^2 + 1\n"
    )
    code, out, _ = run(capsys, "groebner-check", "-m", "3", str(path))
    assert code == 0 and out.splitlines()[0] == "GROEBNER: yes"


def test_groebner_check_coprime_leads(capsys, tmp_path):
    # a Groebner basis whose one pair has coprime leads; forming that pair
    # would multiply past the exponent cap
    path = tmp_path / "coprime.txt"
    path.write_text("x1^4 + x2\nx2^4 + x1\n")
    code, out, _ = run(capsys, "groebner-check", "-m", "2", str(path))
    assert code == 0 and out.splitlines()[:2] == ["GROEBNER: yes", "REDUCED: yes"]


def test_missing_basis_file(capsys, tmp_path):
    code, _, err = run(capsys, "groebner-check", "-m", "2", str(tmp_path / "nope.txt"))
    assert code == 2 and "error:" in err


def test_basis_file_of_blank_and_comment_lines(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n# no polynomial here\n   \n")
    code, out, err = run(capsys, "groebner-check", "-m", "2", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: no polynomials found\n")


def test_simulate_deterministic(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", "-m", "3", "-l", "2", "--trials", "200",
            "--mode", "fixed:1", "--seed", "11"]
    code, stdout_a, _ = run(capsys, *args, "--out", str(out_a))
    assert code == 0
    code, stdout_b, _ = run(capsys, *args, "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    report = json.loads(stdout_a)
    assert report["decoded_ok"] == 200
    assert report["failures"] == 0 and report["miscorrections"] == 0

    lines = out_a.read_text().splitlines()
    assert lines[0] == "trial,error_weight,status,correct"
    assert len(lines) == 201
    assert lines[1].startswith("0,1,")


# CSV sha256 prefixes and JSON summaries (without elapsed_s) of seeded runs.
# Re-recorded when messages and BSC errors came to be drawn in Word.value's
# bit order (one masked getrandbits per message, geometric gaps between BSC
# flips): that moved the bsc rows, m6 and m8, and added m16-bsc.  The fixed:W
# rows m3 and m16 held; any other change of a seeded stream must re-record here.
SIMULATE_GOLDEN = [
    (("-m", "3", "-l", "2", "--mode", "fixed:1", "--seed", "11", "--trials", "200"),
     "63366e4a64a9738a", (1, 200, 0, 0)),
    (("-m", "6", "-l", "3", "--mode", "bsc:0.03", "--seed", "5", "--trials", "300"),
     "945133d760b96da3", (3, 263, 37, 0)),
    (("-m", "8", "-l", "2", "--mode", "bsc:0.003", "--seed", "7", "--trials", "300"),
     "cb593841dff68b64", (1, 242, 47, 11)),
    (("-m", "16", "-l", "2", "--mode", "fixed:1", "--seed", "3", "--trials", "30"),
     "c75e04dc2df9a023", (1, 30, 0, 0)),
    (("-m", "16", "-l", "2", "--mode", "bsc:0.00001", "--seed", "3", "--trials", "200"),
     "92454d4f42d33c97", (1, 176, 17, 7)),
]


@pytest.mark.parametrize("argv,digest,counts", SIMULATE_GOLDEN, ids=["m3", "m6", "m8", "m16", "m16-bsc"])
def test_simulate_golden(capsys, tmp_path, argv, digest, counts):
    path = tmp_path / "sim.csv"
    code, stdout, _ = run(capsys, "simulate", *argv, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest
    report = json.loads(stdout)
    assert report.pop("elapsed_s") >= 0
    opts = dict(zip(argv[::2], argv[1::2]))
    t, ok, failures, miscorrections = counts
    want = (
        f'{{"m": {opts["-m"]}, "l": {opts["-l"]}, "t": {t}, "trials": {opts["--trials"]}, '
        f'"mode": "{opts["--mode"]}", "seed": {opts["--seed"]}, "decoded_ok": {ok}, '
        f'"failures": {failures}, "miscorrections": {miscorrections}}}'
    )
    assert json.dumps(report) == want


@pytest.mark.parametrize("mode,ok", [("bsc:5e-324", 20), ("bsc:1", 0)])
def test_simulate_edge_flip_probabilities(capsys, tmp_path, mode, ok):
    # a subnormal p makes every gap to the next flip inf; p = 1 flips every bit,
    # which adds the all-ones codeword, so each trial is a miscorrection
    argv = ["simulate", "-m", "3", "-l", "2", "--trials", "20", "--mode", mode, "--seed", "1"]
    code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path / "sim.csv"))
    assert code == 0
    report = json.loads(stdout)
    assert (report["decoded_ok"], report["miscorrections"]) == (ok, 20 - ok)


def test_simulate_bad_out_fails_before_any_trial(capsys, tmp_path, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("rmgb.cli.decode", no_trials)
    code, _, err = run(
        capsys, "simulate", "-m", "3", "-l", "2", "--trials", "5", "--mode", "fixed:1",
        "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 2 and "error:" in err


def test_simulate_interrupted_run_keeps_its_rows(capsys, tmp_path, monkeypatch):
    from rmgb import cli

    argv = ["simulate", "-m", "3", "-l", "2", "--trials", "10", "--mode", "fixed:1", "--seed", "11"]
    full = tmp_path / "full.csv"
    assert run(capsys, *argv, "--out", str(full))[0] == 0
    real, calls = cli.decode, []

    def interrupt_third(v, params):
        calls.append(v)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(v, params)

    monkeypatch.setattr(cli, "decode", interrupt_third)
    cut = tmp_path / "cut.csv"
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--out", str(cut)])
    assert cut.read_text().splitlines() == full.read_text().splitlines()[:3]  # header, two rows


def test_simulate_builds_no_polynomial(capsys, tmp_path, monkeypatch):
    from rmgb.polyring import Poly

    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a Poly")

    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(Poly, "_make", classmethod(refuse))
    code, stdout, _ = run(
        capsys, "simulate", "-m", "6", "-l", "3", "--trials", "50", "--mode", "bsc:0.03",
        "--seed", "5", "--out", str(tmp_path / "s.csv"),
    )
    assert code == 0 and json.loads(stdout)["trials"] == 50


def test_simulate_zero_weight_all_clean(capsys, tmp_path):
    path = tmp_path / "clean.csv"
    code, stdout, _ = run(
        capsys, "simulate", "-m", "3", "-l", "2", "--trials", "20",
        "--mode", "fixed:0", "--seed", "4", "--out", str(path),
    )
    assert code == 0
    assert json.loads(stdout)["decoded_ok"] == 20
    rows = path.read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "clean" for row in rows)


@pytest.mark.parametrize("mode", ["burst:2", "fixed:", "fixed:x", "bsc:", "bsc:abc", "burst:0.5", "fixed:1.5"])
def test_simulate_bad_mode(capsys, tmp_path, mode):
    code, _, err = run(
        capsys, "simulate", "-m", "3", "-l", "2", "--trials", "5",
        "--mode", mode, "--seed", "0", "--out", str(tmp_path / "x.csv"),
    )
    assert (code, err) == (2, f"error: --mode must be fixed:W or bsc:P, got {mode!r}\n")


def test_simulate_rejects_zero_trials(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "simulate", "-m", "3", "-l", "2", "--trials", "0",
                            "--mode", "fixed:1", "--out", str(out))
    assert (code, stdout, err) == (2, "", "error: --trials must be at least 1\n")
    assert not out.exists()


@pytest.mark.parametrize("mode, message", [
    ("fixed:99", "fixed_weight mode needs a weight in 0..16"),
    ("fixed:-1", "fixed_weight mode needs a weight in 0..16"),
    ("bsc:1.5", "bsc mode needs a flip probability in [0, 1]"),
    ("bsc:-0.1", "bsc mode needs a flip probability in [0, 1]"),
])
def test_simulate_rejects_out_of_range_mode_before_writing(capsys, tmp_path, mode, message):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "simulate", "-m", "4", "-l", "2", "--trials", "5",
                            "--mode", mode, "--seed", "0", "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_selftest_small(capsys):
    for max_m in ("2", "4"):  # 4 is the advertised maximum
        code, out, _ = run(capsys, "selftest", max_m)
        assert code == 0
        assert "checks passed" in out.splitlines()[-1]
        assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def test_selftest_capability_limit(capsys):
    code, _, err = run(capsys, "selftest", "5")
    assert code == 2 and "max_m" in err


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "rmgb", "decode", "-m", "3", "-l", "2", "10100010"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["codeword"] == "10101010"


def test_console_script_help():
    # Read the declared target from pyproject.toml, not importlib.metadata,
    # which reports whatever egg-info or dist-info is on the path; then run it
    # in a fresh interpreter the way pip's generated wrapper does, so the
    # check needs no install.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rmgb"]
    module, _, attr = target.partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv = ['rmgb', '--help']\n"
        f"sys.exit({attr}())\n"
    )
    proc = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: rmgb")
    assert "simulate" in proc.stdout


@pytest.mark.skipif(shutil.which("rmgb") is None, reason="rmgb executable not on PATH")
def test_console_script_executable_help():
    proc = subprocess.run(["rmgb", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_runs_on_the_standard_library_alone():
    # rmgb has no third-party runtime dependency: refuse every import outside
    # the standard library, import each rmgb module (bar __main__, which runs
    # the CLI on import) and run a selftest
    script = (
        "import pkgutil, sys\n"
        "class StdlibOnly:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        top = name.partition('.')[0]\n"
        "        if top != 'rmgb' and top not in sys.stdlib_module_names:\n"
        "            raise ImportError(f'{name} is not in the standard library')\n"
        "sys.meta_path.insert(0, StdlibOnly())\n"
        "import rmgb, rmgb.cli\n"
        "for mod in pkgutil.iter_modules(rmgb.__path__):\n"
        "    if mod.name != '__main__':\n"
        "        __import__('rmgb.' + mod.name)\n"
        "sys.exit(rmgb.cli.main(['selftest', '3']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout
