"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py         # from the repository root, about a minute

1. ``BENCHMARK.json`` has the required keys and limits, and its metric names,
   units and workloads are the ones ``bench/run.py`` reports.
2. Every workload runs once on tiny inputs (``--size tiny``), untraced and
   traced; each result line has exactly ``correct``, ``attempted``,
   ``failed`` and ``metrics``, passes its checks and reports every metric
   with its unit as a finite number.
3. In a directory holding only ``BENCHMARK.json`` and ``bench/``, the harness
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                     "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if not (isinstance(spec.get("run_seconds"), int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from bench/run.py")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: needs a one-line why")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for kind, expected, keys in (
        ("end_to_end", run.END_TO_END_UNITS, {"name", "unit", "better", "bound"}),
        ("per_layer", run.LAYER_UNITS, {"name", "unit", "better"}),
    ):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if declared != expected:
            problems.append(f"{kind} names or units differ from bench/run.py")
        for m in spec[kind]:
            if set(m) != keys or m["better"] not in ("lower", "higher"):
                problems.append(f"{kind} {m.get('name')}: bad keys or 'better'")
            if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
                problems.append(f"{kind} {m['name']}: bad name or unit")
            if kind == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def check_result(line: str, units: dict) -> list[str]:
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:200]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys: {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"run not correct: failed={result.get('failed')}")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or isinstance(attempted, bool) or attempted < 1:
        problems.append(f"attempted must be a whole number >= 1, got {attempted!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        value = m.get("value")
        finite = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not NAME.fullmatch(name) or not (finite and math.isfinite(value)):
            problems.append(f"{name}: bad name or value {value!r}")
        if m.get("unit") != units.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {units.get(name)!r}")
    return problems


def harness(cwd: Path, workload: str, trace: int, size: str = "tiny"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    for workload in run.WORKLOADS:
        for trace, units in ((0, run.END_TO_END_UNITS), (1, run.LAYER_UNITS)):
            proc = harness(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            found = (
                check_result(lines[-1], units)
                if proc.returncode == 0 and lines
                else [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            )
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = harness(bare, run.WORKLOADS[0], 0, size="full")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare directory: harness did not fail cleanly")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for p in problems:
        print(f"problem: {p}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
