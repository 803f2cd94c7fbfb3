"""Command-line contract: exit codes, formats, determinism, env defaults."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import mixlim
from mixlim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_json_zone1(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["fluctuation"] == "clt_full"
        assert payload["lln"] == "lln_full"
        assert payload["zone"] == 1

    def test_boundary_exits_2(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "1.5",
        )
        assert code == 2
        assert "boundary" in out

    def test_bad_alpha_exits_1(self, capsys):
        code, _, err = run(
            capsys, "classify", "--alpha", "2.5", "--gamma1", "1", "--gamma2", "1",
        )
        assert code == 1
        assert "alpha" in err

    def test_missing_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "0.5", "--gamma1", "1")
        assert code == 1
        assert "usage" in err


class TestMoments:
    def test_report_fields(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "0.5",
            "--n", "100",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["eps_n"] == 0.1
        assert payload["m_n"] == 100.0
        assert payload["mean_z"] == pytest.approx(1.9)


class TestSimulate:
    def test_csv_contract(self, capsys, tmp_path):
        out_file = tmp_path / "z1.csv"
        code, _, _ = run(
            capsys, "simulate", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
            "--n", "1000", "--reps", "50", "--seed", "42", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "replicate,value"
        assert len(lines) == 51
        # 17 significant digits and LF endings
        assert re.match(r"^0,-?\d+\.\d+", lines[1])
        assert b"\r" not in out_file.read_bytes()
        meta = json.loads((tmp_path / "z1.csv.meta.json").read_text())
        assert meta["schema"] == 1
        assert meta["plan"]["limit"] == "std_normal"
        assert meta["config"]["seed"] == 42
        assert "version" in meta

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "simulate", "--alpha", "0.5", "--gamma1", "2", "--gamma2", "0.6",
            "--n", "2000", "--reps", "40", "--seed", "7",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(f1))[0] == 0
        assert run(capsys, *args, "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_thread_invariance(self, capsys, tmp_path):
        args = [
            "simulate", "--alpha", "0.5", "--gamma1", "2", "--gamma2", "0.6",
            "--n", "2000", "--reps", "40", "--seed", "7",
        ]
        f1, f2 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert run(capsys, *args, "--threads", "1", "--out", str(f1))[0] == 0
        assert run(capsys, *args, "--threads", "8", "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_boundary_point_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "1.5",
            "--n", "1000", "--reps", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "boundary" in err

    def test_env_threads_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXLIM_THREADS", "3")
        from mixlim.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
             "--n", "100", "--reps", "5", "--out", "x.csv"]
        )
        assert args.threads == 3


class TestVerify:
    def test_clt_point_passes(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "verify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
            "--n-ladder", "2000,5000", "--reps", "200", "--seed", "7",
            "--out", str(out_file),
        )
        payload = json.loads(out_file.read_text())
        assert code == 0
        assert payload["test"] == "normal"
        assert payload["passed"] is True
        assert [r["n"] for r in payload["rungs"]] == [2000, 5000]
        for rung in payload["rungs"]:
            assert rung["statistic"] < rung["critical_value"]

    def test_stable_point_reports_ecf(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "verify", "--alpha", "0.5", "--gamma1", "2", "--gamma2", "0.6",
            "--n-ladder", "5000", "--reps", "300", "--seed", "7",
            "--out", str(out_file),
        )
        payload = json.loads(out_file.read_text())
        assert code == 0
        assert payload["test"] == "stable"
        assert "ecf_distance" in payload["rungs"][0]

    def test_forced_mismatch_fails(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "verify", "--alpha", "0.5", "--gamma1", "2", "--gamma2", "0.3",
            "--n-ladder", "3000", "--reps", "150", "--seed", "7",
            "--force-test", "normal", "--out", str(tmp_path / "rep.json"),
        )
        assert code == 3

    def test_lln_mode(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "verify", "--alpha", "1.5", "--gamma1", "1", "--gamma2", "0.5",
            "--n-ladder", "2000,4000,8000", "--reps", "150", "--seed", "11",
            "--force-test", "lln-full", "--out", str(out_file),
        )
        payload = json.loads(out_file.read_text())
        assert payload["test"] == "lln_full"
        assert code in (0, 3)
        assert "median" in payload["rungs"][0]

    def test_lln_mode_short_ladder_exits_1(self, capsys):
        code, _, err = run(
            capsys, "verify", "--alpha", "1.5", "--gamma1", "1", "--gamma2", "0.5",
            "--n-ladder", "2000,8000", "--reps", "150",
            "--force-test", "lln-full",
        )
        assert code == 1
        assert "3 row sizes" in err

    def test_boundary_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "1.5",
            "--n-ladder", "1000", "--reps", "100",
        )
        assert code == 2

    def test_forced_normal_at_boundary_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "1.5",
            "--n-ladder", "1000", "--reps", "100", "--force-test", "normal",
        )
        assert code == 2
        assert "boundary" in err

    @pytest.mark.parametrize("gamma2", ["0.3", "0.45"])
    def test_alpha_one_stable_point_passes(self, capsys, tmp_path, gamma2):
        """Truncated-mean centering against the exact compensated 1-stable law."""
        out_file = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "verify", "--alpha", "1", "--gamma1", "2", "--gamma2", gamma2,
            "--n-ladder", "10000,30000", "--reps", "2000", "--out", str(out_file),
        )
        payload = json.loads(out_file.read_text())
        assert payload["test"] == "stable"
        assert code == 0, payload["rungs"]

    def test_bad_ladder_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
            "--n-ladder", "5000,2000", "--reps", "100",
        )
        assert code == 1

    def test_too_few_replicates_for_verdict_exits_1(self, capsys):
        code, _, err = run(
            capsys, "verify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
            "--n-ladder", "2000", "--reps", "50",
        )
        assert code == 1
        assert "100 replicates" in err



# Valid options of each command that validates a campaign; each rejected case
# below replaces one of them (or adds --threads, --level or --delta).
COMMAND_OPTIONS = {
    "moments": {"--n": "100"},
    "simulate": {"--n": "100", "--reps": "10"},
    "verify": {"--n-ladder": "1000", "--reps": "100"},
}
MODEL_ERRORS = [
    ("--alpha", "2", "alpha must be in (0, 2)"),
    ("--lambda", "0", "lam must be positive"),
    ("--gamma1", "0", "gamma1 must be positive"),
    ("--gamma2", "-1", "gamma2 must be positive"),
]
REJECTED = [
    *[(command, *error) for command in COMMAND_OPTIONS for error in MODEL_ERRORS],
    ("moments", "--n", "1", "row sizes must be >= 2"),
    ("simulate", "--n", "1", "row sizes must be >= 2"),
    ("verify", "--n-ladder", "1,1000", "row sizes must be >= 2"),
    ("verify", "--n-ladder", ",", "at least one row size n is required"),
    ("verify", "--n-ladder", "5000,2000", "row sizes must be strictly increasing"),
    ("verify", "--n-ladder", "2000,2000", "row sizes must be strictly increasing"),
    ("simulate", "--reps", "0", "replicates must be >= 1"),
    ("verify", "--reps", "0", "replicates must be >= 1"),
    ("simulate", "--threads", "0", "threads must be >= 1"),
    ("verify", "--threads", "0", "threads must be >= 1"),
    ("verify", "--level", "0", "level must be in (0, 1)"),
    ("verify", "--level", "1", "level must be in (0, 1)"),
    ("verify", "--delta", "0", "delta must be positive"),
    ("verify", "--delta", "-0.1", "delta must be positive"),
]


@pytest.mark.parametrize(
    "command, flag, value, message", REJECTED,
    ids=[f"{c}{f}={v}" for c, f, v, _ in REJECTED],
)
def test_rejected_input_exits_1(capsys, tmp_path, command, flag, value, message):
    options = {
        "--alpha": "0.5", "--lambda": "1", "--gamma1": "1", "--gamma2": "2",
        **COMMAND_OPTIONS[command], flag: value,
    }
    argv = [command, *(part for item in options.items() for part in item)]
    out_file = tmp_path / "x.csv"
    if command == "simulate":
        argv += ["--out", str(out_file)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert message in err
    assert out == ""
    assert not out_file.exists()

class TestPhaseGrid:
    def test_full_grid(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "phase-grid", "--alpha", "0.5",
            "--gamma1", "0.05:3:0.05", "--gamma2", "0.05:3:0.05",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "gamma1,gamma2,zone,fluctuation,lln"
        assert len(lines) == 3601
        zones = {int(line.split(",")[2]) for line in lines[1:]}
        assert zones >= {1, 2, 3, 4, 5, 6}

    def test_alpha_above_one_has_no_zones(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "phase-grid", "--alpha", "1.5",
            "--gamma1", "0.2:2:0.2", "--gamma2", "0.2:2:0.2",
            "--out", str(out_file),
        )
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        assert {r[2] for r in rows} == {"0"}
        assert {r[3] for r in rows} <= {"clt_full", "stable", "boundary"}
        assert {r[4] for r in rows} == {"lln_full"}

    def test_step_larger_than_range_exits_1(self, capsys):
        code, _, err = run(
            capsys, "phase-grid", "--alpha", "0.5",
            "--gamma1", "0.05:3:5", "--gamma2", "0.05:3:0.05",
        )
        assert code == 1
        assert "range" in err

    def test_malformed_range_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "phase-grid", "--alpha", "0.5",
            "--gamma1", "0.05:3", "--gamma2", "0.05:3:0.05",
        )
        assert code == 1


def _fresh_python(*args):
    """Run a fresh interpreter that imports mixlim from this source tree."""
    src = str(Path(mixlim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    proc = _fresh_python("-m", "mixlim", "classify",
                         "--alpha", "0.5", "--gamma1", "2", "--gamma2", "0.3")
    assert proc.returncode == 0, proc.stderr
    assert "fluctuation: stable" in proc.stdout


WRITING_COMMANDS = {
    "moments": ["moments", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2", "--n", "100"],
    "simulate": ["simulate", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
                 "--n", "1000", "--reps", "10"],
    "verify": ["verify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
               "--n-ladder", "1000", "--reps", "100"],
    "phase-grid": ["phase-grid", "--alpha", "0.5", "--gamma1", "1:2:0.5", "--gamma2", "1:2:0.5"],
}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_io_failure_exits_4(capsys, tmp_path, command):
    argv = [*WRITING_COMMANDS[command], "--out", str(tmp_path / "missing_dir" / "x.out")]
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert err.startswith("error: cannot write output: ")
    assert out == ""


# ---------------------------------------------------------------------------
# Golden contract: one case per command path.  Each case's exit code, stderr,
# stdout and output files are recorded in golden_cli.json; text output is
# kept as rows of comma-separated fields.  Exit codes, stderr, strings and the
# key order of every JSON object must match exactly; numbers, the numeric
# fields of text output included, within a relative 1e-9, so the last-bit
# differences of numpy's SIMD dispatch classes do not count.  "{out}" in an
# argument stands for an output path and, in the outputs, for that path.
# Rerecord with ``python tests/test_cli.py`` only when an output is meant to
# change.
# ---------------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")


def _point(alpha, gamma1, gamma2, *rest):
    return ["--alpha", alpha, "--gamma1", gamma1, "--gamma2", gamma2, *rest]


GOLDEN_CASES = {
    "verify-clt": ["verify", *_point("0.5", "1", "2"),
                   "--n-ladder", "2000,5000", "--reps", "200", "--seed", "7"],
    "verify-zone4-uncompensated": ["verify", *_point("0.5", "2", "0.6"),
                                   "--n-ladder", "3000,6000", "--reps", "300", "--seed", "7"],
    "verify-zone5-compensated": ["verify", *_point("0.5", "2", "0.3"),
                                 "--n-ladder", "6000", "--reps", "300", "--seed", "3"],
    "verify-edge-gamma2-1-minus-alpha": ["verify", *_point("0.5", "2", "0.5"),
                                         "--n-ladder", "4000", "--reps", "300"],
    "verify-alpha-1": ["verify", *_point("1", "2", "0.3"),
                       "--n-ladder", "2000,6000", "--reps", "300"],
    "verify-alpha-1.5-lambda-0.3-out": ["verify", *_point("1.5", "2", "0.2", "--lambda", "0.3"),
                                        "--n-ladder", "5000", "--reps", "300",
                                        "--seed", "5", "--out", "{out}"],
    "verify-forced-normal-zone5-fails": ["verify", *_point("0.5", "2", "0.3"),
                                         "--n-ladder", "3000", "--reps", "150", "--seed", "7",
                                         "--force-test", "normal"],
    "verify-forced-stable-clt-rejected": ["verify", *_point("0.5", "1", "2"),
                                          "--n-ladder", "1000", "--reps", "100",
                                          "--force-test", "stable"],
    "verify-boundary": ["verify", *_point("0.5", "1", "1.5"),
                        "--n-ladder", "1000", "--reps", "100"],
    "verify-lln-full": ["verify", *_point("0.5", "1", "2"),
                        "--n-ladder", "1000,2000,4000", "--reps", "150", "--seed", "11",
                        "--force-test", "lln-full"],
    "verify-lln-light": ["verify", *_point("0.5", "2", "0.6"),
                         "--n-ladder", "1000,2000,4000", "--reps", "150", "--seed", "11",
                         "--force-test", "lln-light"],
    "verify-lln-full-boundary": ["verify", *_point("0.5", "1", "1.5"),
                                 "--n-ladder", "1000,2000,4000", "--reps", "150",
                                 "--force-test", "lln-full"],
    "simulate": ["simulate", *_point("0.5", "2", "0.3"),
                 "--n", "2000", "--reps", "40", "--seed", "7", "--out", "{out}"],
    "moments": ["moments", *_point("0.5", "2", "0.3", "--lambda", "2"), "--n", "1000"],
    "classify-text": ["classify", *_point("0.5", "2", "0.5")],
    "classify-json": ["classify", *_point("0.5", "2", "0.3"), "--format", "json"],
    "phase-grid": ["phase-grid", "--alpha", "0.5", "--gamma1", "0.5:2:0.5",
                   "--gamma2", "0.25:1.5:0.25"],
}


def _field(text):
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(text):
    """A JSON object, or text as rows of comma-separated fields, numbers as floats."""
    if text.startswith("{"):
        return json.loads(text)
    return [[_field(f) for f in line.split(",")] for line in text.splitlines()]


def _golden_run(out_dir, argv):
    """Exit code, stderr, stdout and output files of one command, with the
    output path written back as "{out}"."""
    out = str(out_dir / "out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([part.replace("{out}", out) for part in argv])
    files = {
        path.name.replace("out", "{out}", 1): _parsed(path.read_text().replace(out, "{out}"))
        for path in sorted(out_dir.iterdir())
    }
    return {"exit": code, "stderr": stderr.getvalue().replace(out, "{out}"),
            "stdout": _parsed(stdout.getvalue().replace(out, "{out}")), "files": files}


def _assert_same(actual, expected, where="$"):
    """``actual == expected`` with exact key order and floats within rel 1e-9."""
    assert type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert list(actual) == list(expected), f"{where}: keys {list(actual)}"
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: length {len(actual)}"
        for k, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{k}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-9), f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_cli_contract(tmp_path, case):
    expected = json.loads(GOLDEN_PATH.read_text())[case]
    _assert_same(_golden_run(tmp_path, GOLDEN_CASES[case]), expected)


# ---------------------------------------------------------------------------
# scipy is imported where it is called, not with the package.  These checks
# run fresh interpreters, because the test modules themselves import scipy.
# ---------------------------------------------------------------------------

_SCIPY_AFTER_MAIN = """
import contextlib, io, sys
import mixlim.cli
argv = {argv!r}
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert mixlim.cli.main(argv) in (0, 3)
print(" ".join(name for name in sys.modules if name.startswith("scipy")))
"""


_SCIPY_AFTER_CDF = """
import sys
import numpy as np
from mixlim.stable_limit import StableLimitSpec, cdf
for alpha in (0.5, 1.0, 1.5):
    cdf(np.linspace(-2.0, 8.0, 11), StableLimitSpec(alpha), True)
print(" ".join(name for name in sys.modules if name.startswith("scipy")))
"""


@pytest.mark.parametrize("script, absent", [
    (_SCIPY_AFTER_MAIN.format(argv=[]), "scipy"),
    (_SCIPY_AFTER_MAIN.format(argv=["classify", *_point("0.5", "2", "0.3")]), "scipy"),
    (_SCIPY_AFTER_MAIN.format(argv=["verify", *_point("0.5", "2", "0.3"),
                                    "--n-ladder", "2000", "--reps", "100"]),
     "scipy.integrate"),
    (_SCIPY_AFTER_CDF, "scipy.integrate"),
], ids=["import", "classify", "verify-stable", "cdf-array"])
def test_scipy_is_loaded_on_first_use(script, absent):
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert [name for name in loaded if name == absent or name.startswith(absent + ".")] == []


_LAZY_SCIPY_VALUES = """
import contextlib, io, json
from mixlim.cli import main
from mixlim.diagnostics import lyapounov_ratio
from mixlim.model import ModelParams, derive_instance
from mixlim.stable_limit import StableLimitSpec, cdf, char_exponent
params = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=1.3)
spec = StableLimitSpec(alpha=1.5)
psi = char_exponent(0.7, spec, True)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["verify", "--alpha", "0.5", "--gamma1", "1", "--gamma2", "2",
          "--n-ladder", "2000", "--reps", "100"])
print(lyapounov_ratio(params, derive_instance(params, 10**5)).hex(),
      cdf(0.7, spec, True).hex(), psi.real.hex(), psi.imag.hex(),
      json.loads(out.getvalue())["rungs"][0]["statistic"].hex())
"""


def test_lazy_scipy_imports_resolve_the_same_functions():
    """One value behind each lazily imported scipy function, pinned to the
    bit: ``quad`` (``lyapounov_ratio``), ``gamma`` (``char_exponent`` at
    alpha = 1.5, where ``math.gamma`` differs by an ulp, and ``cdf`` through
    its scale sigma) and ``ndtr`` (a normal rung's KS statistic, which
    0.5 * erfc(-x/sqrt 2) moves).  A lazy import that resolved to another
    implementation would change one of them."""
    proc = _fresh_python("-c", _LAZY_SCIPY_VALUES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "0x1.c7fa66fd91a98p+2",  # lyapounov_ratio, zone 2 point at n = 1e5
        "0x1.6b1adc13ad2ecp-2",  # cdf(0.7), alpha = 1.5, compensated
        "-0x1.77d1456d85b17p+0", "0x1.4390a85827d00p-1",  # char_exponent(0.7)
        "0x1.abcab2a1bfad8p-5",  # normal KS statistic, zone 1, n = 2000, 100 rows
    ]


if __name__ == "__main__":
    golden = {}
    for name, argv in GOLDEN_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = _golden_run(Path(tmp), argv)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
