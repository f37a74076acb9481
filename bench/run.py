"""cotsum benchmark: time the CLI end to end, trace it per layer, check every output.

    python3 bench/run.py --workload scan_deep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs ``src/cotsum`` and
``bench/reference.json`` (regenerate the latter with ``bench/reference.py``).

Workloads (each a real ``cotsum`` CLI invocation):

* ``scan_deep``: ``residuals --b-min 256 --b-max 4194304 --geometric-step 2``,
  15 rows and 8,388,337 cot terms; the cot rows outgrow every CPU cache.
* ``constants``: ``constants --K 200000 --bs 100,1000,10000``, r(b) partial
  sums only; no cot row is built.
* ``identities``: ``verify --suite floor`` then ``verify --suite prop1``,
  about 107k identity evaluations on small, heavily reused cot rows.  The
  seed goes to ``--seed``; the other two commands take none.

Load: this process runs one single-threaded CLI child at a time, a closed
loop with one client.  Each child gets the package directory as an absolute
``PYTHONPATH`` and its own scratch directory under ``.bench_work/``.

``--trace 0`` measures end to end.  It repeats the workload's commands in
fresh processes until ``--seconds`` is used up, each repetition preceded by
two timed ``<subcommand> --help`` starts and followed by ``calibrate()``, and
reports over the repetitions:

* ``wall_s``: median wall time of the workload's processes;
* ``terms_per_s``: the term count fixed by the inputs divided by the wall
  time, median;
* ``peak_rss_mb``: the largest peak RSS of any workload child (``os.wait4``);
* ``abs_err``: accuracy against the reference data, computed here;
* ``setup_s``: median wall time of ``--help`` (interpreter start, import and
  parser build).

On a shared 2-vCPU Xeon host the speed drifts by tens of percent over tens
of seconds, which no median over one run can remove.  So each time above is
scaled by ``CAL_NOMINAL_S`` over the time ``calibrate()``, a fixed
pure-Python loop, takes just before and after its repetition: times are
seconds at the calibration loop's nominal speed.  The raw times and the scale
factors are in the report line.

``--trace 1`` runs the commands once untraced, once under
``bench/trace_run.py`` (spans around the calls between modules) and once
under its tracemalloc pass, and reports the per-layer metrics in
``LAYER_UNITS``.  ``trace.overhead_s`` is traced minus untraced wall time,
both scaled as above, and ``trace.unattributed_s`` the traced process's wall
time outside ``cli.main`` (interpreter start and imports).

Every output is checked; a check that fails counts as a failed operation and
a nonzero exit fails every operation of that process.  The line before the
result carries the host facts, the seed, every sample and ``fail_ratio``.
The last line is the result: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
TRACE_SCRIPT = BENCH / "trace_run.py"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("scan_deep", "constants", "identities")

# A run must end well inside three minutes, whatever the children do.
RUN_BUDGET_S = 170.0
MIN_REPEATS = 3
SETUP_PER_REPEAT = 2
# calibrate() takes about CAL_NOMINAL_S on a quiet 2-vCPU Xeon host.
CAL_ROUNDS = 120
CAL_NOMINAL_S = 0.5

# Acceptance bounds, as in tests/test_acceptance.py.
MAX_ABS_DELTA = 1.0
MAX_ABS_SLOPE = 0.02
MAX_C0_GAP = 1e-3
# A scan row must match the 113-bit reference to 1e-15 of b*log(b), 15 to 30
# binary64 ulps of c0(1/b); today's rows are 30 to 1400 times closer.
ROW_REL_TOL = 1e-15
# Reported abs_err when a run produced no output to compare.
NO_OUTPUT_ERR = 1e308

END_TO_END_UNITS = {
    "wall_s": "s",
    "terms_per_s": "1/s",
    "peak_rss_mb": "MB",
    "abs_err": "1",
    "setup_s": "s",
}

LAYER_UNITS = {
    "numerics.cot_row.s": "s",
    "numerics.cot_row.hits": "count",
    "numerics.cot_row.misses": "count",
    "numerics.cot_row.hit_ratio": "ratio",
    "numerics.cot_row.entries": "count",
    "exact.c0.calls": "count",
    "exact.c0.s": "s",
    "exact.c0.self_s": "s",
    "exact.c0.terms": "count",
    "exact.c0.peak_alloc_mb": "MB",
    "numerics.sum.calls": "count",
    "numerics.sum.terms": "count",
    "numerics.sum.s": "s",
    "asymptotics.r_series.calls": "count",
    "asymptotics.r_series.s": "s",
    "asymptotics.r_series.terms": "count",
    "asymptotics.estimate_C0.self_s": "s",
    "asymptotics.residual_scan.self_s": "s",
    "asymptotics.c0_main_terms.calls": "count",
    "asymptotics.c0_main_terms.s": "s",
    "numerics.constants.calls": "count",
    "numerics.constants.s": "s",
    "exact.identity.calls": "count",
    "exact.identity.s": "s",
    "exact.identity.self_s": "s",
    "exact.identity.terms": "count",
    "exact.unit_row.hits": "count",
    "exact.unit_row.misses": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "series.calls": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Child:
    """One finished process: exit code, wall time, peak RSS and what it wrote."""

    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    files: dict


@dataclass(frozen=True)
class Workload:
    commands: list  # argument lists for ``python -m cotsum``, run in order
    help_subcommand: str
    terms: int
    ops: int  # checked operations per repetition of the commands
    check: Callable  # list[Child] -> (failed, abs_err)

    def checked(self, children: list) -> tuple[int, float]:
        """Failed operations and abs_err; a nonzero exit or output that cannot be
        read fails every operation."""
        try:
            return self.check(children)
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
            return self.ops, NO_OUTPUT_ERR


class Runner:
    """Starts CLI children one at a time inside the run's time budget."""

    def __init__(self, src_dir: Path, work_dir: Path, deadline: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.env.pop("COTSUM_PRECISION", None)
        self.work_dir = work_dir
        self.deadline = deadline

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def run(self, args: list) -> Child:
        cwd = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            with open(cwd / ".stdout", "wb") as out, open(cwd / ".stderr", "wb") as err:
                start = perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args], cwd=cwd, env=self.env,
                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                )
                timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
                wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            files = {
                p.name: p.read_bytes()
                for p in cwd.iterdir()
                if p.is_file() and p.name not in (".stdout", ".stderr")
            }
            return Child(
                code=proc.returncode,
                wall=wall,
                rss_mb=usage.ru_maxrss / 1024.0,
                stdout=(cwd / ".stdout").read_bytes(),
                files=files,
            )
        finally:
            shutil.rmtree(cwd, ignore_errors=True)

    def cli(self, argv: list) -> Child:
        return self.run(["-m", "cotsum", *argv])


def _fit(bs: list, deltas: list) -> tuple[float, float]:
    """Least-squares slope of delta against log(b), and max |delta|."""
    xs = [math.log(b) for b in bs]
    n = len(xs)
    x_bar = sum(xs) / n
    y_bar = sum(deltas) / n
    sxx = sum((x - x_bar) ** 2 for x in xs)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, deltas))
    return sxy / sxx, max(abs(y) for y in deltas)


def _payload(child: Child) -> dict:
    if child.code != 0:
        raise ValueError(f"exit code {child.code}")
    return json.loads(child.stdout)


def check_scan(children: list, ladder: list, delta_ref: dict):
    """One operation per row plus one for the fit; rows must match the reference."""
    report = _payload(children[0])["values"]
    rows = list(csv.reader(io.StringIO(children[0].files["residuals.csv"].decode())))
    rows = rows[1:]
    if [int(r[0]) for r in rows] != ladder:
        raise ValueError("rows are not the expected ladder of b")
    failed = 0
    worst = Decimal(0)
    for b_text, _, _, delta_text in rows:
        b = int(b_text)
        err = abs(Decimal(delta_text) - delta_ref[b])
        worst = max(worst, err)
        failed += err > Decimal(ROW_REL_TOL * b * math.log(b))
    slope, max_abs = _fit(ladder, [float(r[3]) for r in rows])
    fit_ok = (
        report["rows"] == len(ladder)
        and max_abs <= MAX_ABS_DELTA
        and abs(slope) <= MAX_ABS_SLOPE
        and abs(report["slope"] - slope) <= 1e-9
        and report["max_abs_delta"] == max_abs
    )
    return failed + (not fit_ok), float(worst)


def check_constants(children: list, bs: list, closed_form: Decimal):
    """One operation per r(b) plus one for the extracted constant."""
    values = _payload(children[0])["values"]
    failed = sum(not math.isfinite(values[f"r_{b}"]) for b in bs)
    gap = abs(Decimal(values["C0_estimate"]) - closed_form)
    ok = (
        gap <= Decimal(MAX_C0_GAP)
        and abs(Decimal(values["closed_form_C0"]) - closed_form) <= Decimal("1e-15")
    )
    return failed + (not ok), float(gap)


def check_identities(children: list, suites: list):
    """One operation per case; a suite that fails, exits nonzero or runs the wrong
    number of cases fails all its cases.  abs_err is the largest distance to an
    exact integer (floor) or rational (prop1 fractional part) value."""
    failed = 0
    errs = []
    for child, (_, cases, err_key) in zip(children, suites):
        try:
            payload = _payload(child)
        except ValueError:
            failed += cases
            continue
        values = payload["values"]
        if values["cases"] != cases or values["passed"] is not True or values["failed"]:
            failed += cases
            continue
        errs.append(payload["diagnostics"][err_key])
    return failed, max(errs) if len(errs) == len(suites) else NO_OUTPUT_ERR


def load_reference() -> tuple[dict, Decimal]:
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    delta_ref = {row["b"]: Decimal(row["delta"]) for row in data["delta_ref"]}
    return delta_ref, Decimal(data["C0_closed_form"])


def make_workloads(tiny: bool, seed: int) -> dict:
    """The three workloads; ``tiny`` shrinks every input for the self-check."""
    delta_ref, closed_form = load_reference()
    ladder = [2**j for j in range(8, 13 if tiny else 23)]
    K = 20_000 if tiny else 200_000
    bs = [100, 1000, 10000]
    floor_size, prop1_size = (10, 20) if tiny else (100, 200)
    suites = [
        ("floor", floor_size - 1, "max_rounding_distance"),
        ("prop1", prop1_size - 1, "max_frac_error"),
    ]
    sizes = {"floor": floor_size, "prop1": prop1_size}

    def b_terms(top: int) -> int:
        return sum(b - 1 for b in range(2, top + 1))

    return {
        "scan_deep": Workload(
            commands=[["residuals", "--b-min", str(ladder[0]), "--b-max",
                       str(ladder[-1]), "--geometric-step", "2"]],
            help_subcommand="residuals",
            terms=sum(b - 1 for b in ladder),
            ops=len(ladder) + 1,
            check=lambda children: check_scan(children, ladder, delta_ref),
        ),
        "constants": Workload(
            commands=[["constants", "--K", str(K), "--bs", ",".join(map(str, bs))]],
            help_subcommand="constants",
            terms=len(bs) * K,
            ops=len(bs) + 1,
            check=lambda children: check_constants(children, bs, closed_form),
        ),
        "identities": Workload(
            commands=[["verify", "--suite", name, "--size", str(sizes[name]),
                       "--seed", str(seed)] for name, _, _ in suites],
            help_subcommand="verify",
            # floor: 1000 values of a per b; prop1: 20 draws per b, two sums each.
            terms=1000 * b_terms(floor_size) + 40 * b_terms(prop1_size),
            ops=sum(cases for _, cases, _ in suites),
            check=lambda children: check_identities(children, suites),
        ),
    }


def host_facts(seed: int, probe: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "mpmath": probe["mpmath"],
        "mpmath_backend": probe["mpmath_backend"],
        "seed": seed,
        # A child's peak RSS can be no lower than this process's RSS when it
        # was started, so this must stay below every reported peak_rss_mb.
        "harness_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop (cot values, a row, a sum)."""
    start = perf_counter()
    n = 10_000
    for _ in range(CAL_ROUNDS):
        row = [0.0] * n
        for k in range(1, n):
            row[k] = 1 / math.tan(math.pi * (k * 7919 % n) / n + 1e-9)
        total = 0.0
        for m, v in enumerate(row):
            total += v * m / n
    return perf_counter() - start


def measure_end_to_end(runner: Runner, workload: Workload, seconds: int):
    """Repeat the workload until ``seconds`` is used up (see the module docstring).

    The ``--help`` starts are spread over the whole run, so their median does
    not hinge on one moment's load.
    """
    attempted = failed = 0
    raw_setup, raw_walls, scales, rss, errs = [], [], [], [], []

    def start_up() -> float:
        nonlocal attempted, failed
        child = runner.cli([workload.help_subcommand, "--help"])
        attempted += 1
        failed += child.code != 0 or b"usage:" not in child.stdout
        return child.wall

    start_up()  # warms the OS file cache and the bytecode cache
    cal_before = calibrate()
    start = perf_counter()
    while True:
        raw_setup.append([start_up() for _ in range(SETUP_PER_REPEAT)])
        children = [runner.cli(argv) for argv in workload.commands]
        bad, err = workload.checked(children)
        attempted += workload.ops
        failed += bad
        raw_walls.append(sum(c.wall for c in children))
        rss.append(max(c.rss_mb for c in children))
        errs.append(err)
        cal_after = calibrate()
        scales.append(2 * CAL_NOMINAL_S / (cal_before + cal_after))
        cal_before = cal_after
        elapsed = perf_counter() - start
        if runner.remaining() < 2 * max(raw_walls):
            break
        repeat_s = elapsed / len(raw_walls)
        if len(raw_walls) >= MIN_REPEATS and elapsed + repeat_s > seconds:
            break
    walls = [w * k for w, k in zip(raw_walls, scales)]
    setup = [s * k for group, k in zip(raw_setup, scales) for s in group]
    metrics = {
        "wall_s": statistics.median(walls),
        "terms_per_s": statistics.median(workload.terms / w for w in walls),
        "peak_rss_mb": max(rss),
        "abs_err": max(errs),
        "setup_s": statistics.median(setup),
    }
    samples = {"wall_s": walls, "raw_wall_s": raw_walls, "speed_scale": scales,
               "raw_setup_s": raw_setup, "peak_rss_mb": rss, "abs_err": errs}
    return attempted, failed, metrics, samples


def _merge_traces(traces: list) -> tuple[dict, dict, list]:
    layers: dict = {}
    caches: dict = {}
    absent: set = set()
    for t in traces:
        absent.update(t["absent"])
        for name, fields in t["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(fields, 0))
            for key, value in fields.items():
                acc[key] += value
        for name, c in t["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            acc["hits"] += c["hits"]
            acc["misses"] += c["misses"]
            acc["entries"] = max(acc["entries"], c["entries"])
    return layers, caches, sorted(absent)


def measure_layers(runner: Runner, workload: Workload):
    """Untraced, traced and tracemalloc passes over the workload's commands."""
    attempted = failed = 0
    passes = {"untraced": [], "traced": [], "tracemalloc": []}
    traces, peaks = [], []
    wall_untraced = wall_traced = 0.0  # scaled as in measure_end_to_end
    for argv in workload.commands:
        cal_before = calibrate()
        untraced = runner.cli(argv)
        cal_between = calibrate()
        traced = runner.run([str(TRACE_SCRIPT), "--out", "trace.json", "--", *argv])
        cal_after = calibrate()
        wall_untraced += untraced.wall * 2 * CAL_NOMINAL_S / (cal_before + cal_between)
        wall_traced += traced.wall * 2 * CAL_NOMINAL_S / (cal_between + cal_after)
        passes["untraced"].append(untraced)
        passes["traced"].append(traced)
        alloc = runner.run(
            [str(TRACE_SCRIPT), "--out", "trace.json", "--tracemalloc", "--", *argv]
        )
        passes["tracemalloc"].append(alloc)
        for child, sink in ((traced, traces), (alloc, peaks)):
            if "trace.json" in child.files:
                sink.append(json.loads(child.files.pop("trace.json")))
    for children in passes.values():
        attempted += workload.ops
        failed += workload.checked(children)[0]
    if len(traces) != len(workload.commands) or len(peaks) != len(workload.commands):
        return attempted, failed, None, {}
    layers, caches, absent = _merge_traces(traces)

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def cache(name: str, key: str) -> int:
        return caches.get(name, {}).get(key, 0)

    hits, misses = cache("numerics.cot_row", "hits"), cache("numerics.cot_row", "misses")
    traced_raw = sum(c.wall for c in passes["traced"])
    out_bytes = sum(
        len(c.stdout) + sum(len(v) for v in c.files.values()) for c in passes["traced"]
    )
    metrics = {
        "numerics.cot_row.s": layer("numerics.cot_row", "s"),
        "numerics.cot_row.hits": hits,
        "numerics.cot_row.misses": misses,
        "numerics.cot_row.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "numerics.cot_row.entries": cache("numerics.cot_row", "entries"),
        "exact.c0.calls": layer("exact.c0", "calls"),
        "exact.c0.s": layer("exact.c0", "s"),
        "exact.c0.self_s": layer("exact.c0", "self_s"),
        "exact.c0.terms": layer("exact.c0", "terms"),
        "exact.c0.peak_alloc_mb": max(p["c0_peak_alloc_bytes"] for p in peaks) / 2**20,
        "numerics.sum.calls": layer("numerics.sum", "calls"),
        "numerics.sum.terms": layer("numerics.sum", "terms"),
        "numerics.sum.s": layer("numerics.sum", "s"),
        "asymptotics.r_series.calls": layer("asymptotics.r_series", "calls"),
        "asymptotics.r_series.s": layer("asymptotics.r_series", "s"),
        "asymptotics.r_series.terms": layer("asymptotics.r_series", "sum_terms"),
        "asymptotics.estimate_C0.self_s": layer("asymptotics.estimate_C0", "self_s"),
        "asymptotics.residual_scan.self_s": layer("asymptotics.residual_scan", "self_s"),
        "asymptotics.c0_main_terms.calls": layer("asymptotics.c0_main_terms", "calls"),
        "asymptotics.c0_main_terms.s": layer("asymptotics.c0_main_terms", "s"),
        "numerics.constants.calls": layer("numerics.constants", "calls"),
        "numerics.constants.s": layer("numerics.constants", "s"),
        "exact.identity.calls": layer("exact.identity", "calls"),
        "exact.identity.s": layer("exact.identity", "s"),
        "exact.identity.self_s": layer("exact.identity", "self_s"),
        "exact.identity.terms": layer("exact.identity", "terms"),
        "exact.unit_row.hits": cache("exact.unit_row", "hits"),
        "exact.unit_row.misses": cache("exact.unit_row", "misses"),
        "cli.main.s": layer("cli.main", "s"),
        "cli.self_s": layer("cli.main", "self_s"),
        "cli.out_bytes": out_bytes,
        "series.calls": layer("series", "calls"),
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.unattributed_s": traced_raw - layer("cli.main", "s"),
    }
    samples = {"wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
               "absent": absent}
    return attempted, failed, metrics, samples


# Runs in a child, as the CLI children do, so that this process stays smaller
# than any child (see harness_rss_mb).
PROBE = """
import json, importlib.util, cotsum, mpmath, mpmath.libmp
from importlib import metadata
print(json.dumps({
    "cotsum": cotsum.__file__,
    "mpmath": mpmath.__version__,
    "mpmath_backend": mpmath.libmp.BACKEND,
    "numpy": metadata.version("numpy") if importlib.util.find_spec("numpy") else "absent",
}))
"""


def probe_package(runner: Runner, src: Path) -> dict:
    """Import cotsum in a child and check that it is this checkout's package."""
    child = runner.run(["-c", PROBE])
    if child.code != 0:
        raise SystemExit(f"error: cannot import cotsum from {src}")
    info = json.loads(child.stdout)
    if Path(info["cotsum"]).resolve().parent.parent != src:
        raise SystemExit(f"error: imported {info['cotsum']}, not the package in {src}")
    return info


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input (harness self-check)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = perf_counter() + RUN_BUDGET_S
    # On SIGTERM unwind through Runner.run, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    src = (ROOT / "src").resolve()
    if not (src / "cotsum" / "__init__.py").is_file():
        raise SystemExit(f"error: no cotsum package under {src}")
    if not REFERENCE.is_file():
        raise SystemExit(f"error: missing {REFERENCE}; run bench/reference.py")
    workload = make_workloads(args.size == "tiny", args.seed)[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        runner = Runner(src, work_dir, deadline)
        probe = probe_package(runner, src)
        if args.trace:
            attempted, failed, metrics, samples = measure_layers(runner, workload)
            units = LAYER_UNITS
        else:
            attempted, failed, metrics, samples = measure_end_to_end(
                runner, workload, args.seconds
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    if metrics is None:
        print("error: a traced child wrote no trace", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "size": args.size,
        "host": host_facts(args.seed, probe),
        "fail_ratio": failed / attempted,
        "samples": samples,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
