"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import cotsum
from cotsum import (
    PrecisionConfig,
    ReducedFraction,
    c0,
    checks,
    g_partial,
    residual_scan,
)

CFG = PrecisionConfig()
SEED = 927227


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_small_values():
    v2 = c0(ReducedFraction(1, 2), CFG)
    v3 = c0(ReducedFraction(1, 3), CFG)
    v4 = c0(ReducedFraction(1, 4), CFG)
    err2 = abs(v2)
    err3 = abs(v3 - math.sqrt(3) / 9) / (math.sqrt(3) / 9)
    err4 = abs(v4 - 0.5) / 0.5
    ok = err2 <= 1e-15 and err3 <= 1e-12 and err4 <= 1e-12
    report(1, ok, f"c0(1/2)={v2!r}, rel err c0(1/3)={err3:.2e}, c0(1/4)={err4:.2e}")
    assert err2 <= 1e-15
    assert err3 <= 1e-12
    assert err4 <= 1e-12


def failed(cases) -> list[str]:
    return [name for name, ok, _ in cases if not ok]


def test_criterion_2_proposition_1_suite():
    cases, extra = checks.prop1(200, SEED, CFG)
    max_cos, max_frac = extra["max_cot_cos_residue"], extra["max_frac_error"]
    ok = not failed(cases) and max_cos <= 1e-10 and max_frac <= 1e-10
    report(2, ok, f"max cot*cos residue={max_cos:.2e}, max frac error={max_frac:.2e}")
    assert failed(cases) == []
    assert max_cos <= 1e-10
    assert max_frac <= 1e-10


def test_criterion_3_floor_identity():
    cases, extra = checks.floor(100, SEED, CFG)
    max_im, max_round = extra["max_imag_residue"], extra["max_rounding_distance"]
    ok = not failed(cases) and max_im <= 1e-9 and max_round <= 1e-6
    report(3, ok, f"b<=100, a<=1000: {len(failed(cases))} failed values of b, "
                  f"max imag residue={max_im:.2e}, "
                  f"max rounding distance={max_round:.2e}")
    assert failed(cases) == []
    assert max_im <= 1e-9
    assert max_round <= 1e-6


def test_criterion_4_representation_consistency():
    worst_margin = math.inf
    worst_b = None
    for b in range(2, 51):
        L = 10**4 * b
        err = abs(g_partial(b, L, CFG) / math.pi - c0(ReducedFraction(1, b), CFG))
        bound = 0.05 * b * b / L + 1e-6
        if bound - err < worst_margin:
            worst_margin = bound - err
            worst_b = b
        assert err <= bound, f"b={b}: err {err:.3e} > bound {bound:.3e}"
    report(4, True, f"b=2..50 at L=1e4*b within O(b^2/L) bound; "
                    f"smallest margin {worst_margin:.2e} at b={worst_b}")


def test_criterion_5_taylor_remainder_shapes():
    cases, extra = checks.lemma4(None, SEED, CFG)
    worst = extra["max_scaled_defect"]
    ok = not failed(cases) and worst <= 10
    report(5, ok, f"max scaled defect {worst:.3f} <= 10 over the grid")
    assert failed(cases) == []
    assert worst <= 10


def test_criterion_6_weighted_floor_sum_closure():
    cases, extra = checks.lemma5(10**4, SEED, CFG)
    inputs = [(b, b * ratio) for b in (10, 100) for ratio in (10**4, 10**5)]
    assert [name for name, _, _ in cases] == [f"b={b},L={L}" for b, L in inputs]
    for (name, ok, defect), (b, L) in zip(cases, inputs):
        bound = 2 + 0.05 * b * b / L
        assert ok and defect <= bound, f"({name}): {defect:.4f} > {bound:.4f}"
    report(6, True, f"max closure defect {extra['max_closure_defect']:.4f} "
                    "<= 2 + 0.05*b^2/L")


def test_criterion_7_constant_closure():
    cases, extra = checks.corollary(10**6, SEED, CFG)
    gap = extra["gap"]
    ok = not failed(cases) and gap <= 1e-3
    report(7, ok, f"C0 estimate {extra['estimate']!r} vs closed form "
                  f"{extra['closed_form']!r}: gap {gap:.2e} <= 1e-3")
    assert failed(cases) == []
    assert gap <= 1e-3


def test_criterion_8_headline_bounded_residual():
    records, fit = residual_scan([2**j for j in range(8, 19)], CFG)
    spot, _ = residual_scan([3, 4], CFG)
    d3 = abs(spot[0].delta - 0.3472)
    d4 = abs(spot[1].delta - 0.3400)
    ok = (
        fit.max_abs_delta <= 1.0
        and abs(fit.slope) <= 0.02
        and d3 <= 1e-3
        and d4 <= 1e-3
    )
    report(8, ok, f"b=2^8..2^18: max|delta|={fit.max_abs_delta:.4f} <= 1.0, "
                  f"|slope|={abs(fit.slope):.2e} <= 0.02; "
                  f"delta(3) off by {d3:.1e}, delta(4) off by {d4:.1e}")
    assert fit.max_abs_delta <= 1.0
    assert abs(fit.slope) <= 0.02
    assert d3 <= 1e-3
    assert d4 <= 1e-3


# The directory that holds the imported package (``src/`` in a checkout, or
# site-packages after an install).  Child processes get it first on their
# path so that ``python -m cotsum`` runs the code under test from any cwd.
PACKAGE_ROOT = str(Path(cotsum.__file__).resolve().parent.parent)


def run_cotsum(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cotsum", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"cotsum {' '.join(args)} exited {proc.returncode}:\n"
        f"{proc.stderr.decode()}"
    )
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["eval", "--h", "1", "--k", "3", "--alpha", "2"],
        ["eval", "--h", "5", "--k", "12"],
        ["verify", "--suite", "lemma4"],
        ["verify", "--suite", "prop1", "--size", "25"],
        ["residuals", "--b-min", "256", "--b-max", "4096",
         "--geometric-step", "2", "--out", "rows.csv"],
        ["residuals", "--b-min", "256", "--b-max", "4096",
         "--geometric-step", "2", "--out", "rows.json", "--format", "json"],
        ["constants", "--K", "2000", "--bs", "100,200,400"],
    ]
    all_ok = True
    for args in commands:
        out_name = None
        if "--out" in args:
            out_name = args[args.index("--out") + 1]
        first = run_cotsum(args, tmp_path)
        first_file = (tmp_path / out_name).read_bytes() if out_name else None
        second = run_cotsum(args, tmp_path)
        second_file = (tmp_path / out_name).read_bytes() if out_name else None
        same = first == second and first_file == second_file
        all_ok = all_ok and same
        assert same, f"output differs across runs for {args}"
        json.loads(first)  # stdout is well-formed machine-readable JSON
    report(9, all_ok, f"{len(commands)} CLI invocations byte-identical across "
                      "repeat runs")
