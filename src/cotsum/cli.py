"""Command-line interface.

Subcommands
-----------
eval        evaluate c0(h/k) and, optionally, the zeta-type value at the
            origin for a twist order alpha
verify      run a named identity/bound suite (prop1, floor, lemma2, lemma4,
            lemma5, corollary) and exit nonzero on any failure
residuals   scan delta(b) = c0(1/b) - main_terms(b) over a range of b, write
            the rows to --out (JSON if it ends in .json, else CSV) and
            report the log-fit
constants   report gamma, log(2*pi), the block-series values r(b) and the
            extrapolated main-term constant

Every command takes --precision BITS (default 53), the working precision,
and --format json|text, the format of its stdout.
Exit codes: 0 success, 1 verification failure, 2 usage/precondition error.
Machine-readable output is byte-identical across repeated runs with the same
arguments; nothing time- or host-dependent is ever emitted.
"""

from __future__ import annotations

import argparse
import gc
import math
import signal
import sys

# A start compiles and imports only what its command runs: the package's
# modules and json are imported by the functions that use them, so a --help
# loads none of them.

__all__ = ["build_parser", "main", "entrypoint"]

# checks.SUITES' names in its order, kept here so that the parser needs no checks
SUITE_NAMES = ("prop1", "floor", "lemma2", "lemma4", "lemma5", "corollary")

# Counted as (b-1)//2 terms a row; c0 sums about 11 ns a term on a 2-vCPU
# Xeon, so about 17 s for a ladder with no doubling row.  A row that doubles
# the one before sums half its count: 256..2^28 took 1.3-1.9 s (2.7-3.2 s
# summing every term), so the doubling ladder 256..2^30 (1,073,741,673
# terms counted, 536,870,911 summed) fits in about 6 s; 256..2^31 does not.
DEFAULT_RESIDUAL_BUDGET = 15 * 10**8
# Most rows an integer ladder, or multiplications a geometric one, may take;
# either would otherwise take ages or all memory before the budget is checked.
MAX_LADDER_STEPS = 10**6

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _render(fmt: str, command: str, parameters, values, diagnostics) -> str:
    """One result as sorted-key JSON, or as ``section.key = repr(value)`` lines."""
    sections = {"parameters": parameters, "values": values, "diagnostics": diagnostics}
    if fmt == "json":
        import json

        return json.dumps({"command": command, **sections}, sort_keys=True, indent=2)
    lines = [f"command: {command}"]
    for name, section in sections.items():
        lines += [f"{name}.{key} = {section[key]!r}" for key in sorted(section)]
    return "\n".join(lines)


def _full_digits(x, cfg: PrecisionConfig) -> str:
    """Decimal string carrying the full working precision of x, an mpf.

    Every extended-precision value printed (c0, the Estermann imaginary part,
    gamma, log 2pi) is already an mpf and is formatted as it is: passing it
    through ``mpmath.mpf`` would re-round it at the ambient (53-bit)
    precision and corrupt the low digits.
    """
    # Only extended-precision runs print digits, so only they import mpmath.
    import mpmath

    digits = max(17, int(cfg.working_precision * 0.30103) + 2)
    return mpmath.nstr(x, digits)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--precision",
        type=int,
        default=53,
        help="working precision in bits (>= 53; default: 53)",
    )
    sub.add_argument(
        "--format",
        choices=["json", "text"],
        default="json",
        help="output format on stdout (default: json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotsum",
        description="Evaluate the cotangent sum c0(h/k), verify its finite "
        "trigonometric identities, and measure the residual of its two-term "
        "asymptotics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate c0(h/k) and related values")
    p_eval.add_argument("--h", type=int, required=True, help="numerator h")
    p_eval.add_argument("--k", type=int, required=True, help="denominator k >= 2")
    p_eval.add_argument(
        "--alpha",
        type=int,
        default=None,
        help="also report the zeta-type value at the origin for this twist order",
    )
    _add_common_flags(p_eval)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=SUITE_NAMES,
        help="which identity/bound suite to run",
    )
    p_verify.add_argument(
        "--size", type=int, default=None, help="suite-specific size; see README"
    )
    p_verify.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for the sampled prop1 cases (fixed default)",
    )
    _add_common_flags(p_verify)

    p_res = sub.add_parser("residuals", help="scan delta(b) over a range of b")
    p_res.add_argument("--b-min", type=int, required=True)
    p_res.add_argument("--b-max", type=int, required=True)
    p_res.add_argument(
        "--geometric-step",
        type=float,
        default=None,
        help="multiply b by this factor between samples (default: every integer)",
    )
    p_res.add_argument(
        "--out",
        type=str,
        default="residuals.csv",
        help="output path for the rows, written as JSON if it ends in .json "
        "and as CSV otherwise (default: residuals.csv)",
    )
    p_res.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_RESIDUAL_BUDGET,
        help="maximum total half-row terms counted ((b-1)//2 per sampled b)",
    )
    _add_common_flags(p_res)

    p_const = sub.add_parser("constants", help="report the extracted constants")
    p_const.add_argument(
        "--K",
        type=int,
        default=10**6,
        help="largest truncation of r(b); its partial sums at K/8, K/4, K/2 "
        "and K are extrapolated in 1/K (K >= 100)",
    )
    p_const.add_argument(
        "--bs",
        type=str,
        default="100,1000,10000",
        help="strictly increasing b >= 2, comma-separated, for r(b) and its limit",
    )
    _add_common_flags(p_const)

    return parser


def _cmd_eval(args: argparse.Namespace,
              cfg: PrecisionConfig) -> tuple[dict, dict, dict]:
    from . import exact
    from .numerics import ReducedFraction

    frac = ReducedFraction(args.h, args.k)
    parameters = {"h": args.h, "k": args.k, "alpha": args.alpha}
    value = exact.c0(frac, cfg)
    values = {"c0": float(value)}
    diagnostics = {}
    if cfg.extended:
        diagnostics["c0_digits"] = _full_digits(value, cfg)
    if args.alpha is not None:
        ev = exact.estermann_at_zero(frac, args.alpha, cfg)
        values["estermann_re"] = float(ev.real_part)
        values["estermann_im"] = float(ev.imag_part)
        if cfg.extended:
            diagnostics["estermann_im_digits"] = _full_digits(ev.imag_part, cfg)
    return parameters, values, diagnostics


def _cmd_verify(args: argparse.Namespace,
                cfg: PrecisionConfig) -> tuple[dict, dict, dict]:
    from . import checks
    from .numerics import PreconditionError

    if args.size is not None and args.size < 1:
        raise PreconditionError(f"--size must be positive, got {args.size}")
    seed = checks.DEFAULT_SEED if args.seed is None else args.seed
    cases, extra = checks.SUITES[args.suite](args.size, seed, cfg)
    if not cases:
        raise PreconditionError(
            f"suite {args.suite} with --size {args.size} has no cases to check"
        )
    failures = [name for name, ok, _ in cases if not ok]
    if args.format == "text":
        for name, ok, residue in cases:
            print(f"{'PASS' if ok else 'FAIL'} {args.suite} {name} "
                  f"residue={residue!r}")
    parameters = {"suite": args.suite, "size": args.size, "seed": seed}
    values = {
        "cases": len(cases),
        "failed": len(failures),
        "max_residue": checks.worst_residue(res for _, _, res in cases),
        "passed": not failures,
    }
    return parameters, values, {"failed_cases": failures, **extra}


def _residual_bs(b_min: int, b_max: int, step: float | None) -> list[int]:
    from .numerics import PreconditionError

    if step is None:
        if b_max - b_min >= MAX_LADDER_STEPS:
            raise PreconditionError(
                f"the integer ladder from {b_min} to {b_max} has {b_max - b_min + 1} "
                f"rows, over the limit {MAX_LADDER_STEPS}; use --geometric-step"
            )
        return list(range(b_min, b_max + 1))
    if not 1.0 < step < math.inf:
        raise PreconditionError(
            f"geometric step must be finite and exceed 1, got {step}"
        )
    steps = (math.log(b_max) - math.log(b_min)) / math.log(step)
    if steps > MAX_LADDER_STEPS:
        raise PreconditionError(
            f"geometric step {step!r} needs about {steps:.3g} steps from {b_min} "
            f"to {b_max}, over the limit {MAX_LADDER_STEPS}"
        )
    bs = []
    current = float(b_min)
    # a huge finite step overflows to inf, which round() rejects
    while math.isfinite(current) and round(current) <= b_max:
        b = int(round(current))
        if not bs or b > bs[-1]:
            bs.append(b)
        current *= step
    return bs


def _cmd_residuals(args: argparse.Namespace,
                   cfg: PrecisionConfig) -> tuple[dict, dict, dict]:
    from . import asymptotics
    from .numerics import PreconditionError

    if args.b_min < 2 or args.b_min >= args.b_max:
        raise PreconditionError(
            f"need 2 <= b_min < b_max, got ({args.b_min}, {args.b_max})"
        )
    bs = _residual_bs(args.b_min, args.b_max, args.geometric_step)
    cost = sum((b - 1) // 2 for b in bs)
    if cost > args.budget:
        raise PreconditionError(
            f"scan would take {cost} half-row terms counted, over the budget "
            f"{args.budget}; use --geometric-step to thin the sample"
        )
    records, report = asymptotics.residual_scan(bs, cfg)
    try:
        _write_residuals(args.out, records, report)
    except OSError as err:
        raise PreconditionError(
            f"cannot write {args.out!r}: {err.strerror or err}"
        ) from err
    parameters = {"b_min": args.b_min, "b_max": args.b_max,
                  "geometric_step": args.geometric_step, "out": args.out}
    values = {"rows": len(records), **report._asdict()}
    return parameters, values, {"total_steps": cost}


def _write_residuals(path: str, records, report) -> None:
    """The rows as JSON, with a trailing summary, if path ends in .json; else CSV."""
    from .asymptotics import ResidualRecord

    fields = ResidualRecord._fields
    rows = [dict(zip(fields, (r.b, *map(float, r[1:])))) for r in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if path.endswith(".json"):
            import json

            json.dump([*rows, report._asdict()], fh, sort_keys=True, indent=2)
            fh.write("\n")
        else:  # the int b and float reprs never need CSV quoting
            fh.write(",".join(fields) + "\n")
            fh.writelines(",".join(map(repr, row.values())) + "\n" for row in rows)


def _cmd_constants(args: argparse.Namespace,
                   cfg: PrecisionConfig) -> tuple[dict, dict, dict]:
    from . import asymptotics
    from .numerics import PreconditionError, euler_gamma, log_two_pi

    try:
        bs = [int(part) for part in args.bs.split(",") if part.strip()]
    except ValueError as err:
        raise PreconditionError(f"could not parse --bs {args.bs!r}") from err
    gamma = euler_gamma(cfg)
    l2p = log_two_pi(cfg)
    closed_form = float(asymptotics._closed_form_C0(cfg))
    values = {
        "euler_gamma": float(gamma),
        "log_two_pi": float(l2p),
        "closed_form_C0": closed_form,
    }
    diagnostics = {}
    if cfg.extended:
        diagnostics["euler_gamma_digits"] = _full_digits(gamma, cfg)
        diagnostics["log_two_pi_digits"] = _full_digits(l2p, cfg)
    if len(bs) >= 3:
        estimate, estimates = asymptotics.estimate_C0(bs, args.K, cfg)
        values["C0_estimate"] = float(estimate.value)
        values["C0_gap"] = abs(float(estimate.value) - closed_form)
        diagnostics["C0_tail_bound"] = estimate.tail_bound
    else:
        estimates = asymptotics.r_series(bs, args.K, cfg)
        diagnostics["extrapolation"] = "skipped: need at least 3 values of b"
    for b, est in zip(bs, estimates):
        values[f"r_{b}"] = float(est.value)
        diagnostics[f"r_{b}_tail_bound"] = est.tail_bound
    return {"K": args.K, "bs": bs}, values, diagnostics


_HANDLERS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "residuals": _cmd_residuals,
    "constants": _cmd_constants,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    from .numerics import PrecisionConfig

    try:
        cfg = PrecisionConfig(args.precision)
        parameters, values, diagnostics = _HANDLERS[args.subcommand](args, cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    parameters["precision"] = cfg.working_precision
    print(_render(args.format, args.subcommand, parameters, values, diagnostics))
    return EXIT_VERIFY_FAILED if values.get("passed") is False else EXIT_OK


def entrypoint() -> None:
    # A closed stdout (``cotsum ... | head``) ends the process by SIGPIPE, as
    # it would a C tool, not with a traceback and the verification-failed exit.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    # The process ends here.  Frozen, its heap is skipped by the full cycle
    # collections that interpreter shutdown runs while it tears the modules
    # down (shutdown took 11 ms in a bare interpreter and 26 ms with numpy
    # loaded, on a 2-vCPU Xeon).  Refcounts still free what they can; the
    # OS reclaims the rest.
    gc.freeze()
    raise SystemExit(code)
