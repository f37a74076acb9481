"""Traced in-process run of ``cotsum.cli.main(argv)``, one CLI command per process.

    python3 bench/trace_run.py --out METRICS.json [--tracemalloc] -- ARGV...

``bench/run.py`` starts this with the package directory on ``PYTHONPATH``, in
the same scratch directory and environment as an untraced CLI child, so the
command's stdout and output files are the same and are checked the same way.

Nothing under ``src/`` changes.  Each cross-module name is replaced where the
caller looks it up (``WRAPPED``), so a span records the call whichever module
makes it.  Spans stay in memory as parallel arrays, each with its parent's
id; at exit they are reduced to per-layer calls, time, self time (span time
minus the time of its child spans) and terms, which go to ``--out`` as JSON
together with ``cache_info()`` deltas of the lru-cached rows.  A wrapped name
that no longer exists is listed under ``absent`` instead of failing the run.

With ``--tracemalloc`` no spans are recorded.  Instead tracemalloc runs only
inside each ``c0`` call and the largest traced peak is reported, so that the
timed spans of the other pass are not distorted by allocation tracing.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import operator
import sys
import tracemalloc
from array import array
from time import perf_counter


def _c0_terms(args) -> int:
    return args[0].k - 1


def _identity_terms(args) -> int:
    return args[1] - 1


# Counts the values handed to sum_strategy, which may be a list or a generator.
SUMMED = "summed"

# (module, attribute looked up by the caller, span name, terms of one call)
WRAPPED = [
    ("cotsum.exact", "sum_strategy", "numerics.sum", SUMMED),
    ("cotsum.exact", "_cot_row", "numerics.cot_row", None),
    ("cotsum.exact", "_floor_identity_parts", "exact.identity", _identity_terms),
    ("cotsum.exact", "cot_cos_identity_residual", "exact.identity", _identity_terms),
    ("cotsum.exact", "frac_via_cot_sin", "exact.identity", _identity_terms),
    ("cotsum.exact", "c0", "exact.c0", _c0_terms),
    ("cotsum.asymptotics", "c0", "exact.c0", _c0_terms),
    ("cotsum.asymptotics", "sum_strategy", "numerics.sum", SUMMED),
    ("cotsum.asymptotics", "c0_main_terms", "asymptotics.c0_main_terms", None),
    ("cotsum.asymptotics", "r_series", "asymptotics.r_series", None),
    ("cotsum.asymptotics", "estimate_C0", "asymptotics.estimate_C0", None),
    ("cotsum.asymptotics", "residual_scan", "asymptotics.residual_scan", None),
    ("cotsum.asymptotics", "euler_gamma", "numerics.constants", None),
    ("cotsum.asymptotics", "log_two_pi", "numerics.constants", None),
    ("cotsum.cli", "euler_gamma", "numerics.constants", None),
    ("cotsum.cli", "log_two_pi", "numerics.constants", None),
    ("cotsum.series", "sum_strategy", "series", SUMMED),
]

# lru-cached rows whose cache_info() deltas are reported: (module, attribute, name)
CACHES = [
    ("cotsum.numerics", "_cot_row", "numerics.cot_row"),
    ("cotsum.exact", "_unit_row", "exact.unit_row"),
]

# numerics.sum terms are also credited to the nearest enclosing span of these.
SUM_OWNERS = ("asymptotics.r_series",)


def _counted(values):
    """Pass ``values`` through unchanged and return a callable giving their count."""
    if hasattr(values, "__len__"):
        n = len(values)
        return values, lambda: n
    counter = itertools.count()
    # zip stops at the first exhausted iterator without advancing the counter.
    return map(operator.itemgetter(0), zip(values, counter)), lambda: next(counter)


class Trace:
    """In-memory span store; one span per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.terms = array("q")
        self.stack = [-1]

    def wrap(self, fn, name: str, terms=None):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(code)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.terms.append(0)
            count = None
            if terms is SUMMED:
                values, count = _counted(args[0])
                args = (values, *args[1:])
            elif terms is not None:
                self.terms[sid] = terms(args)
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
                if count is not None:
                    self.terms[sid] = count()

        return traced

    def summary(self) -> dict:
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        layers = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "terms": 0, "sum_terms": 0}
            for name in self.names
        }
        owners = {self.names.index(o) for o in SUM_OWNERS if o in self.names}
        sum_code = self.names.index("numerics.sum") if "numerics.sum" in self.names else -1
        for i in range(n):
            layer = layers[self.names[self.name_of[i]]]
            layer["calls"] += 1
            layer["s"] += duration[i]
            layer["self_s"] += duration[i] - child[i]
            layer["terms"] += self.terms[i]
            if self.name_of[i] == sum_code and owners:
                p = self.parent[i]
                while p >= 0 and self.name_of[p] not in owners:
                    p = self.parent[p]
                if p >= 0:
                    layers[self.names[self.name_of[p]]]["sum_terms"] += self.terms[i]
        return layers


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


def _install(wrapped, make) -> list[str]:
    """Replace each existing (module, attr) with ``make(...)``; return the absent ones."""
    absent = []
    for module, attr, *rest in wrapped:
        fn = _lookup(module, attr)
        if fn is None:
            absent.append(f"{module}.{attr}")
            continue
        setattr(sys.modules[module], attr, make(fn, *rest))
    return absent


def _cache_stats() -> dict:
    stats = {}
    for module, attr, name in CACHES:
        fn = _lookup(module, attr)
        info = getattr(fn, "cache_info", None)
        stats[name] = info() if info is not None else None
    return stats


def _cache_deltas(before: dict, after: dict) -> dict:
    deltas = {}
    for name, end in after.items():
        start = before[name]
        if start is None or end is None:
            continue
        deltas[name] = {
            "hits": end.hits - start.hits,
            "misses": end.misses - start.misses,
            "entries": end.currsize,
        }
    return deltas


def _peak_tracker(peaks: list):
    def make(fn, *_):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    return make


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the metrics JSON")
    parser.add_argument(
        "--tracemalloc",
        action="store_true",
        help="measure the peak allocation of c0 calls instead of recording spans",
    )
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    import cotsum.cli

    result: dict = {"argv": argv}
    if opts.tracemalloc:
        peaks: list[int] = []
        c0_sites = [w for w in WRAPPED if w[2] == "exact.c0"]
        result["absent"] = _install(c0_sites, _peak_tracker(peaks))
        code = cotsum.cli.main(argv)
        result["c0_peak_alloc_bytes"] = max(peaks, default=0)
    else:
        trace = Trace()
        result["absent"] = _install(WRAPPED, trace.wrap)
        before = _cache_stats()
        main_traced = trace.wrap(cotsum.cli.main, "cli.main")
        code = main_traced(argv)
        result["caches"] = _cache_deltas(before, _cache_stats())
        result["layers"] = trace.summary()
    sys.stdout.flush()
    result["exit_code"] = code
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
