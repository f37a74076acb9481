"""CLI tests: argument handling, exit codes, output formats, determinism."""

import csv
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from test_asymptotics import _assert_reaped, _forks

import cotsum
from cotsum import numerics
from cotsum.cli import _render, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- eval


def test_eval_c0(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--h", "1", "--k", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "eval"
    assert payload["values"]["c0"] == pytest.approx(0.5, rel=1e-12)


def test_eval_with_alpha(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--h", "1", "--k", "3", "--alpha", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["estermann_re"] == 0.25
    assert payload["values"]["estermann_im"] == pytest.approx(0.0962250, abs=1e-7)


def test_eval_text_format(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--h", "1", "--k", "4", "--format", "text"]
    )
    assert code == 0
    assert "values.c0 = 0.5" in out


def test_eval_rejects_non_coprime(capsys):
    code, _, err = run_cli(capsys, ["eval", "--h", "2", "--k", "4"])
    assert code == 2
    assert "coprime" in err


def test_eval_rejects_bad_range(capsys):
    assert run_cli(capsys, ["eval", "--h", "5", "--k", "3"])[0] == 2
    code, _, err = run_cli(capsys, ["eval", "--h", "1", "--k", "1"])
    assert code == 2
    assert err == "error: need 1 <= h < k, got (1, 1)\n"


def test_eval_extended_precision_diagnostics(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["eval", "--h", "1", "--k", "3", "--precision", "113"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["c0"] == pytest.approx(math.sqrt(3) / 9, rel=1e-12)
    assert payload["diagnostics"]["c0_digits"].startswith("0.19245008972987")
    # only --precision sets the precision: the environment is not read
    monkeypatch.setenv("COTSUM_PRECISION", "113")
    code, out, _ = run_cli(capsys, ["eval", "--h", "1", "--k", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"]["precision"] == 53
    assert "c0_digits" not in payload["diagnostics"]


def test_usage_error_exit_code(capsys):
    assert main(["eval", "--h", "1"]) == 2  # missing --k
    assert main(["nonsense"]) == 2
    assert main(["verify", "--suite", "bogus"]) == 2
    # --format is the stdout format on every command, never the rows format
    assert main(["residuals", "--b-min", "3", "--b-max", "4", "--format", "csv"]) == 2


def test_removed_summation_flags_are_usage_errors(capsys):
    eval_c0 = ["eval", "--h", "1", "--k", "4"]
    code, _, err = run_cli(capsys, [*eval_c0, "--summation", "naive"])
    assert code == 2
    assert "--summation" in err
    assert run_cli(capsys, [*eval_c0, "--parallel-chunk", "64"])[0] == 2


# ----------------------------------------------------------------- verify


def test_verify_lemma4_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "lemma4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["passed"] is True
    assert payload["values"]["failed"] == 0
    assert payload["values"]["max_residue"] <= 10


def test_verify_lemma2_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "lemma2"])
    assert code == 0


def test_verify_prop1_small(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "prop1", "--size", "40"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["cases"] == 39
    assert payload["diagnostics"]["max_cot_cos_residue"] <= 1e-10
    assert payload["diagnostics"]["max_frac_error"] <= 1e-10


def test_verify_prop1_with_no_cases_is_not_a_pass(capsys):
    code, out, err = run_cli(capsys, ["verify", "--suite", "prop1", "--size", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "no cases" in err


@pytest.mark.parametrize("suite,size,cases", [("lemma4", "20", 4), ("lemma2", "5", 6)])
def test_verify_grid_suites_honour_size(capsys, suite, size, cases):
    code, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--size", size])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["cases"] == cases
    assert payload["parameters"]["size"] == int(size)


@pytest.mark.parametrize("suite,size", [("lemma4", "3"), ("lemma2", "1")])
def test_verify_grid_below_its_smallest_value_has_no_cases(capsys, suite, size):
    code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--size", size])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "no cases" in err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_verify_rejects_non_positive_size(capsys, size):
    for suite in ("prop1", "corollary"):
        code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--size", size])
        assert code == 2
        assert out == ""
        assert "--size must be positive" in err


def test_verify_floor_small(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "floor", "--size", "20"])
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnostics"]["max_imag_residue"] <= 1e-9


def test_verify_lemma5_scaled_down(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "lemma5", "--size", "1000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["passed"] is True


def test_verify_corollary_scaled_down(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "corollary", "--size", "20000"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnostics"]["gap"] <= 1e-3


def test_constants_extended_precision_gap_holds(capsys):
    code53, out53, _ = run_cli(
        capsys, ["constants", "--K", "2000", "--bs", "100,200,400"]
    )
    code113, out113, _ = run_cli(
        capsys,
        ["constants", "--K", "2000", "--bs", "100,200,400", "--precision", "113"],
    )
    assert code53 == code113 == 0
    gap53 = json.loads(out53)["values"]["C0_gap"]
    gap113 = json.loads(out113)["values"]["C0_gap"]
    assert gap113 <= gap53 + 1e-12  # gap shrinks or holds at higher precision


def test_verify_text_prints_case_lines(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "lemma4", "--format", "text"]
    )
    assert code == 0
    assert out.count("PASS lemma4") == 16


def test_verify_failure_exit_code(capsys, monkeypatch):
    from cotsum import checks

    def broken_suite(size, seed, cfg):
        return [("case", False, 1.0)], {}

    monkeypatch.setitem(checks.SUITES, "lemma4", broken_suite)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "lemma4"])
    assert code == 1
    payload = json.loads(out)
    assert payload["values"]["passed"] is False
    assert payload["diagnostics"]["failed_cases"] == ["case"]


def test_a_nan_residue_fails_and_is_reported(capsys, monkeypatch):
    from cotsum import checks, exact

    assert math.isnan(checks.worst_residue([1e-12, math.nan, 1e-11]))
    assert checks.worst_residue([1e-12, 1e-11]) == 1e-11
    assert checks.worst_residue([]) == 0.0
    cfg = cotsum.PrecisionConfig()
    # max(0.0, nan) is 0.0: a broken identity must not pass with residue 0
    monkeypatch.setattr(exact, "cot_cos_identity_residual", lambda a, b, n, cfg: math.nan)
    cases, extra = checks.prop1(5, 1, cfg)
    assert cases and not any(ok for _, ok, _ in cases)
    assert all(math.isnan(residue) for _, _, residue in cases)
    assert math.isnan(extra["max_cot_cos_residue"])
    assert extra["max_frac_error"] <= 1e-10
    code, out, _ = run_cli(capsys, ["verify", "--suite", "prop1", "--size", "5"])
    assert code == 1
    payload = json.loads(out)
    assert payload["values"]["failed"] == 4
    assert math.isnan(payload["values"]["max_residue"])
    # the floor suite: a nan imaginary part for one class of each b, a = 2's
    floor_class_sums = exact._floor_class_sums

    def one_nan(b, classes, cfg):
        sums = floor_class_sums(b, classes, cfg)
        sums[2 % b] = (sums[2 % b][0], math.nan)
        return sums

    monkeypatch.setattr(exact, "_floor_class_sums", one_nan)
    cases, extra = checks.floor(4, None, cfg)
    assert [ok for _, ok, _ in cases] == [False, False, False]
    assert all(math.isnan(residue) for _, _, residue in cases)
    assert math.isnan(extra["max_imag_residue"])
    assert extra["max_rounding_distance"] <= 1e-6


def _child_env():
    """This environment, with the imported package first on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(cotsum.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe_without_traceback():
    env = _child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cotsum", "verify", "--suite", "lemma4",
             "--format", "text"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == -signal.SIGPIPE
    assert b"Traceback" not in proc.stderr


# The entrypoint's exits, a suite patched to fail among them: main alone
# leaves the heap unfrozen, the entrypoint freezes it before it exits.
_ENTRYPOINT = """\
import gc, sys
from cotsum import checks, cli
if sys.argv.pop(1) == "fails":
    checks.SUITES["lemma4"] = lambda size, seed, cfg: ([("case", False, 1.0)], {})
print("main", cli.main(), gc.get_freeze_count(), file=sys.stderr)
try:
    cli.entrypoint()
except SystemExit as exc:
    print("entrypoint", exc.code, gc.get_freeze_count(), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "lemma4, argv, code",
    [
        ("passes", ["verify", "--help"], 0),
        ("passes", ["verify", "--suite", "lemma4"], 0),
        ("fails", ["verify", "--suite", "lemma4"], 1),
        ("passes", ["eval", "--h", "1", "--k", "0"], 2),
    ],
)
def test_entrypoint_freezes_the_heap_before_it_exits(lemma4, argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRYPOINT, lemma4, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    exits = {
        words[0]: (int(words[1]), int(words[2]))
        for words in map(str.split, proc.stderr.splitlines())
        if words and words[0] in ("main", "entrypoint")
    }
    assert exits["main"] == (code, 0)
    entry_code, frozen = exits["entrypoint"]
    assert entry_code == code
    assert frozen > 0


def _child_imports(argv, cwd=None) -> set:
    """The modules loaded after ``cotsum.cli.main(argv)`` in a fresh process."""
    script = (
        "import sys, cotsum.cli\n"
        "if sys.argv[1:]: cotsum.cli.main(sys.argv[1:])\n"
        "print('modules:', *sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=cwd,
        timeout=120,
    )
    last = proc.stderr.splitlines()[-1].split()
    assert last[0] == "modules:", (argv, proc.stderr)
    return set(last[1:])


def test_only_binary64_c0_imports_numpy(tmp_path):
    # numpy's import costs ~0.1 s, so import, help, verify, constants and the
    # extended-precision c0 skip it
    scan = ["residuals", "--b-min", "256", "--b-max", "1024", "--geometric-step", "2"]
    for argv, loaded in (
        ([], False),
        (["verify", "--suite", "floor", "--size", "5"], False),
        (["verify", "--suite", "prop1", "--size", "5"], False),
        (["constants", "--help"], False),
        (["constants", "--K", "1000"], False),
        (["eval", "--h", "1", "--k", "5"], True),
        (scan, True),
        ([*scan, "--precision", "113"], False),
        (["eval", "--h", "1", "--k", "5", "--precision", "113"], False),
    ):
        assert ("numpy" in _child_imports(argv, cwd=tmp_path)) is loaded, argv


def _bare_interpreter_modules() -> set:
    """The modules a bare interpreter, with this environment, has loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
        timeout=120,
    )
    return set(proc.stdout.split())


def test_cli_starts_import_only_what_their_command_runs(tmp_path):
    # dataclasses (~8 ms with inspect and ast), fractions (~4 ms with decimal)
    # and csv would cost every start; only the commands that use them pay,
    # and none uses csv.  Each package module costs its compile and import
    # (2-4 ms), so a --help loads none of them, and json only a command's
    # output does.
    # A module the interpreter loads anyway (a site hook) cannot be told apart.
    package = {"cotsum.numerics", "cotsum.exact", "cotsum.asymptotics", "cotsum.checks"}
    modules = {"dataclasses", "fractions", "csv", "json", *package}
    modules -= _bare_interpreter_modules()
    ran = {"cotsum.numerics", "cotsum.exact", "json"}
    for argv, loaded in (
        ([], set()),
        (["--help"], set()),
        (["eval", "--help"], set()),
        (["verify", "--help"], set()),
        (["residuals", "--help"], set()),
        (["constants", "--help"], set()),
        (["verify", "--suite", "floor", "--size", "5"], {*package, "json"}),
        (["constants", "--K", "1000"], {*ran, "cotsum.asymptotics"}),
        (["residuals", "--b-min", "256", "--b-max", "1024", "--geometric-step", "2"],
         {*ran, "cotsum.asymptotics"}),
        (["eval", "--h", "1", "--k", "5"], ran),
        (["eval", "--h", "1", "--k", "5", "--alpha", "1"], {*ran, "fractions"}),
    ):
        assert _child_imports(argv, cwd=tmp_path) & modules == loaded & modules, argv


def test_binary64_runs_never_import_mpmath(tmp_path):
    # mpmath's import costs ~35 ms, so only extended precision pays for it
    for argv, loaded in (
        ([], False),
        (["eval", "--h", "1", "--k", "5"], False),
        (["verify", "--suite", "floor", "--size", "5"], False),
        (["residuals", "--b-min", "256", "--b-max", "1024", "--geometric-step", "2"],
         False),
        (["constants", "--K", "1000"], False),
        (["eval", "--h", "1", "--k", "5", "--precision", "113"], True),
    ):
        assert ("mpmath" in _child_imports(argv, cwd=tmp_path)) is loaded, argv


# -------------------------------------------------------------- residuals


def test_residuals_small_scan(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        ["residuals", "--b-min", "3", "--b-max", "4", "--out", str(out_file)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["rows"] == 2
    with out_file.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["b"] for row in rows] == ["3", "4"]
    assert float(rows[0]["delta"]) == pytest.approx(0.3472, abs=1e-3)
    assert float(rows[1]["delta"]) == pytest.approx(0.3400, abs=1e-3)
    # full round-trip precision: delta re-parses to exactly the stored value
    assert float(rows[0]["delta"]) == float(rows[0]["c0_exact"]) - float(
        rows[0]["c0_main_terms"]
    )


def test_residuals_json_rows_with_trailing_summary(capsys, tmp_path, monkeypatch):
    out_file = tmp_path / "rows.json"
    argv = ["residuals", "--b-min", "4", "--b-max", "64", "--geometric-step", "2",
            "--format", "json"]
    code, out, _ = run_cli(capsys, [*argv, "--out", str(out_file)])
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert len(rows) == 6  # 4, 8, 16, 32, 64 plus the summary
    for row in rows[:-1]:
        assert set(row) == {"b", "c0_exact", "c0_main_terms", "delta"}
    assert set(rows[-1]) == {"slope", "intercept", "max_abs_delta"}
    # the suffix of --out picks the rows format, not --format
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["parameters"]["out"] == "residuals.csv"
    assert (tmp_path / "residuals.csv").read_text().startswith("b,c0_exact,")
    assert not (tmp_path / "residuals.json").exists()


def test_residuals_unwritable_out_is_a_usage_error(capsys, tmp_path):
    out_file = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(
        capsys,
        ["residuals", "--b-min", "256", "--b-max", "512", "--out", str(out_file)],
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(out_file) in err
    assert not out_file.parent.exists()


def test_residuals_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, ["residuals", "--b-min", "5", "--b-max", "2"])
    assert code == 2


def test_residuals_budget_check(capsys):
    code, _, err = run_cli(
        capsys,
        ["residuals", "--b-min", "2", "--b-max", "1000", "--budget", "100"],
    )
    assert code == 2
    assert "geometric-step" in err


def test_residuals_budget_prices_the_terms_c0_sums(capsys, tmp_path):
    # c0 sums (b-1)//2 terms: b = 256, 512, 1024 cost 127 + 255 + 511 = 893
    argv = [
        "residuals", "--b-min", "256", "--b-max", "1024", "--geometric-step", "2",
        "--out", str(tmp_path / "rows.csv"),
    ]
    code, out, _ = run_cli(capsys, argv + ["--budget", "893"])
    assert code == 0
    assert json.loads(out)["diagnostics"]["total_steps"] == 893
    code, _, err = run_cli(capsys, argv + ["--budget", "892"])
    assert code == 2
    assert "893" in err


def test_residuals_default_budget_admits_the_2_to_30_ladder():
    # 256..2^30 doubling counts 1,073,741,673 terms and sums half of them,
    # about 6 s on a 2-vCPU Xeon at the rate measured on 256..2^28 (1.3-1.9 s);
    # the default admits it without --budget, and refuses 2^31
    from cotsum import cli

    def cost(b_max):
        return sum((b - 1) // 2 for b in cli._residual_bs(256, b_max, 2.0))

    assert cost(2**30) == 1_073_741_673 <= cli.DEFAULT_RESIDUAL_BUDGET
    assert cost(2**31) > cli.DEFAULT_RESIDUAL_BUDGET


def test_residuals_geometric_ladder(capsys, tmp_path):
    out_file = tmp_path / "ladder.csv"
    argv = ["residuals", "--b-min", "256", "--b-max", "4096", "--geometric-step", "2"]
    code, out, _ = run_cli(capsys, [*argv, "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["rows"] == 5
    assert abs(payload["values"]["slope"]) <= 0.02
    # --format text changes stdout only: the same result as text lines, and
    # the same rows file
    text_file = tmp_path / "ladder-text.csv"
    code, text, _ = run_cli(
        capsys, [*argv, "--format", "text", "--out", str(text_file)]
    )
    assert code == 0
    parameters = {**payload["parameters"], "out": str(text_file)}
    assert text == _render("text", "residuals", parameters, payload["values"],
                           payload["diagnostics"]) + "\n"
    assert text_file.read_bytes() == out_file.read_bytes()


@pytest.mark.parametrize("step", ["inf", "1e400", "nan"])
def test_residuals_rejects_a_step_that_is_not_finite(capsys, tmp_path, step):
    out_file = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys,
        ["residuals", "--b-min", "256", "--b-max", "4096",
         "--geometric-step", step, "--out", str(out_file)],
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out_file.exists()


def test_residuals_huge_finite_step_samples_b_min_only(capsys, tmp_path):
    # 256 * 1e308 overflows to inf, which ends the ladder
    code, out, _ = run_cli(
        capsys,
        ["residuals", "--b-min", "256", "--b-max", "512", "--geometric-step",
         "1e308", "--out", str(tmp_path / "rows.csv")],
    )
    assert code == 0
    assert json.loads(out)["values"]["rows"] == 1


def test_residuals_rejects_a_ladder_too_long_to_build():
    # a step one ulp above 1 needs ~1.25e16 multiplications from 256 to 4096;
    # it is refused before the first, so a child that hangs fails the test
    proc = subprocess.run(
        [sys.executable, "-m", "cotsum", "residuals", "--b-min", "256",
         "--b-max", "4096", "--geometric-step", "1.0000000000000002",
         "--out", os.devnull],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""



def _two_gb_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_residuals_rejects_an_integer_ladder_too_long_to_build():
    # 10^12 rows would need about 38 TB as a list; under a 2 GB address-space
    # limit, building it fails with a MemoryError instead of a clean exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "cotsum", "residuals", "--b-min", "2",
         "--b-max", str(10**12), "--out", os.devnull],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
        preexec_fn=_two_gb_address_space,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "over the limit" in proc.stderr
    assert proc.stdout == ""


def test_residuals_integer_ladder_limit_is_in_rows(capsys):
    # 2..1000001 is MAX_LADDER_STEPS rows, which only the budget refuses;
    # one row more is refused by the ladder limit
    from cotsum import cli

    argv = ["residuals", "--b-min", "2", "--out", os.devnull, "--b-max"]
    code, _, err = run_cli(capsys, argv + [str(1 + cli.MAX_LADDER_STEPS)])
    assert code == 2 and "over the budget" in err
    code, _, err = run_cli(capsys, argv + [str(2 + cli.MAX_LADDER_STEPS)])
    assert code == 2 and "over the limit" in err


# -------------------------------------------------------------- constants


def test_constants_small_run(capsys):
    code, out, _ = run_cli(
        capsys, ["constants", "--K", "2000", "--bs", "100,200,400"]
    )
    assert code == 0
    payload = json.loads(out)
    vals = payload["values"]
    assert vals["euler_gamma"] == pytest.approx(0.5772156649015329, rel=1e-15)
    assert vals["log_two_pi"] == pytest.approx(1.8378770664093456, rel=1e-15)
    assert vals["closed_form_C0"] == pytest.approx(-0.6303307007539063, rel=1e-12)
    assert "r_100" in vals and "r_400" in vals
    assert vals["C0_gap"] <= 1e-2  # coarse truncation still lands close


def test_constants_single_b_skips_extrapolation(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--K", "1000", "--bs", "2"])
    assert code == 0
    payload = json.loads(out)
    assert "r_2" in payload["values"]
    assert "C0_estimate" not in payload["values"]
    assert "skipped" in payload["diagnostics"]["extrapolation"]


def test_constants_forks_one_child_for_two_b(capsys, monkeypatch):
    # one r_series call sums both r(b); its one child sums both upper halves
    argv = ["constants", "--K", str(2 * numerics._CHILD_MIN_TERMS), "--bs", "100,1000"]
    monkeypatch.setattr(numerics, "_cpus", lambda: 1)
    serial = run_cli(capsys, argv)
    assert serial[0] == 0
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    pids = _forks(monkeypatch)
    assert run_cli(capsys, argv) == serial
    assert len(pids) == 1
    _assert_reaped(pids)


def test_constants_rejects_bad_bs(capsys):
    assert run_cli(capsys, ["constants", "--bs", "xyz"])[0] == 2
    assert run_cli(capsys, ["constants", "--bs", "1,2,3"])[0] == 2


def test_constants_checks_bs_before_summing(capsys, monkeypatch):
    summed = []
    monkeypatch.setattr(
        cotsum.asymptotics, "_r_segment", lambda *args: summed.append(args)
    )
    for bs in ("1000,100,10", "100,100,1000", "1000,100"):
        code, out, err = run_cli(capsys, ["constants", "--K", "100000", "--bs", bs])
        assert code == 2
        assert out == ""
        assert "strictly increasing" in err
    assert summed == []


def test_constants_rejects_a_repeated_b_before_summing(capsys, monkeypatch):
    summed = []
    monkeypatch.setattr(
        cotsum.asymptotics, "_r_segment", lambda *args: summed.append(args)
    )
    for bs in ("100,100", "7,7"):
        code, out, err = run_cli(capsys, ["constants", "--K", "1000", "--bs", bs])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "strictly increasing" in err
    assert summed == []


def test_constants_reproduces_the_recorded_bits(capsys):
    # reprs recorded from the 8-operation term k*log1p(b/(kb-1)) - 1 +
    # (1/2 - 1/b)/k; a rewrite of r(b) that keeps the bits keeps these
    code, out, _ = run_cli(
        capsys, ["constants", "--K", "20000", "--bs", "100,1000,10000"]
    )
    assert code == 0
    vals = json.loads(out)["values"]
    assert {key: repr(vals[key]) for key in
            ("r_100", "r_1000", "r_10000", "C0_estimate")} == {
        "r_100": "0.3597519493617796",
        "r_1000": "0.36867012211405736",
        "r_10000": "0.3695693074711665",
        "C0_estimate": "-0.6303307003501886",
    }


# ------------------------------------------------------------ rendering

# Full stdout in both formats: key order, indentation, each value's repr and
# the final newline.
RENDERED = [
    (
        "eval --h 3 --k 8 --alpha 2 --precision 113",
        """\
{
  "command": "eval",
  "diagnostics": {
    "c0_digits": "0.414213562373095048801688724209698081",
    "estermann_im_digits": "-0.871320343559642573202533086314547073"
  },
  "parameters": {
    "alpha": 2,
    "h": 3,
    "k": 8,
    "precision": 113
  },
  "values": {
    "c0": 0.41421356237309503,
    "estermann_im": -0.8713203435596426,
    "estermann_re": 0.0
  }
}
""",
    ),
    (
        "eval --h 3 --k 8 --alpha 2 --precision 113 --format text",
        """\
command: eval
parameters.alpha = 2
parameters.h = 3
parameters.k = 8
parameters.precision = 113
values.c0 = 0.41421356237309503
values.estermann_im = -0.8713203435596426
values.estermann_re = 0.0
diagnostics.c0_digits = '0.414213562373095048801688724209698081'
diagnostics.estermann_im_digits = '-0.871320343559642573202533086314547073'
""",
    ),
    (
        "verify --suite lemma4 --size 20",
        """\
{
  "command": "verify",
  "diagnostics": {
    "failed_cases": [],
    "max_scaled_defect": 0.40931086666506994
  },
  "parameters": {
    "precision": 53,
    "seed": 927227,
    "size": 20,
    "suite": "lemma4"
  },
  "values": {
    "cases": 4,
    "failed": 0,
    "max_residue": 0.40931086666506994,
    "passed": true
  }
}
""",
    ),
    (
        "verify --suite lemma4 --size 20 --format text",
        """\
PASS lemma4 k=10,b=10 residue=0.33490872022983725
PASS lemma4 k=10,b=20 residue=0.39155824786033877
PASS lemma4 k=20,b=10 residue=0.3493063403142141
PASS lemma4 k=20,b=20 residue=0.40931086666506994
command: verify
parameters.precision = 53
parameters.seed = 927227
parameters.size = 20
parameters.suite = 'lemma4'
values.cases = 4
values.failed = 0
values.max_residue = 0.40931086666506994
values.passed = True
diagnostics.failed_cases = []
diagnostics.max_scaled_defect = 0.40931086666506994
""",
    ),
    (
        "constants --K 1000 --bs 2 --format text",
        """\
command: constants
parameters.K = 1000
parameters.bs = [2]
parameters.precision = 53
values.closed_form_C0 = -0.6303307007539063
values.euler_gamma = 0.5772156649015329
values.log_two_pi = 1.8378770664093456
values.r_2 = 0.15342640971962737
diagnostics.extrapolation = 'skipped: need at least 3 values of b'
diagnostics.r_2_tail_bound = 1.4380763246890638e-10
""",
    ),
]


@pytest.mark.parametrize("argv, expected", RENDERED)
def test_rendered_output_is_pinned(capsys, argv, expected):
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert out == expected


# The residuals scan writes its rows to --out, so it runs in a scratch
# directory: stdout in both formats, and the bytes of both row files.
RESIDUALS_RENDERED = [
    (
        "residuals --b-min 3 --b-max 4 --out rows.csv",
        """\
{
  "command": "residuals",
  "diagnostics": {
    "total_steps": 2
  },
  "parameters": {
    "b_max": 4,
    "b_min": 3,
    "geometric_step": null,
    "out": "rows.csv",
    "precision": 53
  },
  "values": {
    "intercept": 0.37452492806948023,
    "max_abs_delta": 0.34719559372244546,
    "rows": 2,
    "slope": -0.024876232160271235
  }
}
""",
    ),
    (
        "residuals --b-min 3 --b-max 4 --out rows.csv --format text",
        """\
command: residuals
parameters.b_max = 4
parameters.b_min = 3
parameters.geometric_step = None
parameters.out = 'rows.csv'
parameters.precision = 53
values.intercept = 0.37452492806948023
values.max_abs_delta = 0.34719559372244546
values.rows = 2
values.slope = -0.024876232160271235
diagnostics.total_steps = 2
""",
    ),
    (
        "residuals --b-min 3 --b-max 4 --out rows.csv --precision 113",
        """\
{
  "command": "residuals",
  "diagnostics": {
    "total_steps": 2
  },
  "parameters": {
    "b_max": 4,
    "b_min": 3,
    "geometric_step": null,
    "out": "rows.csv",
    "precision": 113
  },
  "values": {
    "intercept": 0.37452492806948157,
    "max_abs_delta": 0.3471955937224455,
    "rows": 2,
    "slope": -0.024876232160272394
  }
}
""",
    ),
    (
        "residuals --b-min 3 --b-max 4 --out rows.csv --precision 113 --format text",
        """\
command: residuals
parameters.b_max = 4
parameters.b_min = 3
parameters.geometric_step = None
parameters.out = 'rows.csv'
parameters.precision = 113
values.intercept = 0.37452492806948157
values.max_abs_delta = 0.3471955937224455
values.rows = 2
values.slope = -0.024876232160272394
diagnostics.total_steps = 2
""",
    ),
]


@pytest.mark.parametrize("argv, expected", RESIDUALS_RENDERED)
def test_residuals_rendered_output_is_pinned(capsys, tmp_path, monkeypatch, argv,
                                             expected):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert out == expected


RESIDUALS_ROW_FILES = [
    (
        53,
        """\
b,c0_exact,c0_main_terms,delta
3,0.19245008972987523,-0.15474550399257025,0.34719559372244546
4,0.5000000000000001,0.15996085230021312,0.340039147699787
""",
        """\
[
  {
    "b": 3,
    "c0_exact": 0.19245008972987523,
    "c0_main_terms": -0.15474550399257025,
    "delta": 0.34719559372244546
  },
  {
    "b": 4,
    "c0_exact": 0.5000000000000001,
    "c0_main_terms": 0.15996085230021312,
    "delta": 0.340039147699787
  },
  {
    "intercept": 0.37452492806948023,
    "max_abs_delta": 0.34719559372244546,
    "slope": -0.024876232160271235
  }
]
""",
    ),
    (
        113,
        """\
b,c0_exact,c0_main_terms,delta
3,0.19245008972987526,-0.15474550399257028,0.3471955937224455
4,0.5,0.15996085230021326,0.3400391476997867
""",
        """\
[
  {
    "b": 3,
    "c0_exact": 0.19245008972987526,
    "c0_main_terms": -0.15474550399257028,
    "delta": 0.3471955937224455
  },
  {
    "b": 4,
    "c0_exact": 0.5,
    "c0_main_terms": 0.15996085230021326,
    "delta": 0.3400391476997867
  },
  {
    "intercept": 0.37452492806948157,
    "max_abs_delta": 0.3471955937224455,
    "slope": -0.024876232160272394
  }
]
""",
    ),
]


@pytest.mark.parametrize("precision, csv_rows, json_rows", RESIDUALS_ROW_FILES)
def test_residuals_row_files_are_pinned(capsys, tmp_path, precision, csv_rows,
                                        json_rows):
    written = {}
    for suffix in ("csv", "json"):
        out_file = tmp_path / f"rows.{suffix}"
        code, _, _ = run_cli(capsys, ["residuals", "--b-min", "3", "--b-max", "4",
                                      "--precision", str(precision),
                                      "--out", str(out_file)])
        assert code == 0
        written[suffix] = out_file.read_bytes().decode("utf-8")
    assert written == {"csv": csv_rows, "json": json_rows}
    # both files hold the same rows, bit for bit
    header, *lines = written["csv"].splitlines()
    fields = header.split(",")
    from_csv = [dict(zip(fields, line.split(","))) for line in lines]
    from_json = json.loads(written["json"])[:-1]
    assert [set(row) for row in from_json] == [set(fields)] * len(from_csv)
    for csv_row, json_row in zip(from_csv, from_json):
        assert int(csv_row.pop("b")) == json_row.pop("b")
        assert {key: float(value).hex() for key, value in csv_row.items()} == {
            key: value.hex() for key, value in json_row.items()}


# ------------------------------------------------------------ determinism


def test_repeated_runs_are_identical_in_process(capsys):
    argvs = [
        ["eval", "--h", "3", "--k", "8", "--alpha", "2"],
        ["verify", "--suite", "lemma4"],
        ["constants", "--K", "1000", "--bs", "10,100,1000"],
        ["eval", "--h", "3", "--k", "8"],
    ]
    for argv in argvs:
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
