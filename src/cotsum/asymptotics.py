"""Asymptotic expansion of c0(1/b) and the residual-analysis harness.

The chain goes: blocks of the harmonic series expand through endpoint
differences F_i(k); the correction series r(b) built from those blocks
converges, as b grows, to a constant tied to the two-term asymptotics

    c0(1/b) = (1/pi) * b * log(b) - (b/pi) * (log(2*pi) - gamma) + O(1);

and the residual scan measures delta(b) = c0(1/b) - main_terms(b) over a
geometric ladder of b, fitting delta against log(b) to discriminate a bounded
error term from one growing like log(b).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact import _check_c0_k, c0
from .numerics import (
    DEFAULT_CONFIG,
    ConstantEstimate,
    PrecisionConfig,
    PreconditionError,
    ReducedFraction,
    _context,
    _in_two,
    euler_gamma,
    log_two_pi,
    sum_strategy,
)

__all__ = [
    "LogFitReport",
    "ResidualRecord",
    "c0_main_terms",
    "estimate_C0",
    "f_term",
    "g_partial",
    "inner_block_expansion",
    "r_series",
    "residual_scan",
    "s_sum_asymptotic",
    "s_sum_direct",
    "taylor_f1",
    "taylor_f2",
]

# As b grows the terms of r(b) tend to k*log((k+1)/k) - 1 + 1/(2k), whose
# partial sums telescope against Stirling's formula:
#   sum_{k<=N} = (N+1)*log(N+1) - log((N+1)!) - N + H_N/2
#             -> 1 + (gamma - log(2*pi))/2.
# The closed-form main terms use (gamma - log(2*pi))/2 itself (the block
# regrouping behind r(b) overruns a plain truncation by most of one final
# block, worth exactly 2b - 2 + o(1) in S(L;b), i.e. 1 per unit of 2b), so
# the extrapolated limit of r carries a structural offset of exactly 1.
R_SERIES_OFFSET = 1.0

class ResidualRecord(NamedTuple):
    """One row of a residual scan: delta = c0_exact - c0_main_terms at b."""

    b: int
    c0_exact: float
    c0_main_terms: float
    delta: float


class LogFitReport(NamedTuple):
    """Least-squares fit of delta against log(b) over a scan."""

    slope: float
    intercept: float
    max_abs_delta: float


def f_term(i: int, k: int, b: int) -> float:
    """Endpoint difference F_i(k) = 1/((k+1)b - 1)^i - 1/(kb - 1)^i."""
    if i < 1 or k < 1 or b < 2:
        raise PreconditionError(f"need i, k >= 1 and b >= 2, got ({i}, {k}, {b})")
    return 1.0 / ((k + 1) * b - 1) ** i - 1.0 / (k * b - 1) ** i


def inner_block_expansion(k: int, b: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Three-term approximation to the harmonic block sum_{kb <= a < (k+1)b} 1/a.

        log( ((k+1)b - 1) / (kb - 1) ) + F_1(k)/2 - F_2(k)/12

    The omitted remainder is on the order of 1/(k^4 * b^4).
    """
    if k < 1 or b < 2:
        raise PreconditionError(f"need k >= 1 and b >= 2, got ({k}, {b})")
    hi = (k + 1) * b - 1
    lo = k * b - 1
    with _context(cfg) as (mt, pi, real):
        f1 = real(1) / hi - real(1) / lo
        f2 = real(1) / hi**2 - real(1) / lo**2
        return mt.log(real(hi) / lo) + f1 / 2 - f2 / 12


def taylor_f1(k: int, b: int) -> float:
    """Leading terms of F_1(k)/2 in 1/k and 1/b:

        -1/(2 k^2 b) + 1/(2 k^3 b) - 1/(k^3 b^2)
    """
    if k < 1 or b < 2:
        raise PreconditionError(f"need k >= 1 and b >= 2, got ({k}, {b})")
    k2 = k * k
    k3 = k2 * k
    return -1.0 / (2 * k2 * b) + 1.0 / (2 * k3 * b) - 1.0 / (k3 * b * b)


def taylor_f2(k: int, b: int) -> float:
    """Leading terms of -F_2(k)/12 in 1/k and 1/b:

        1/(6 k^3 b^2) - 1/(4 k^4 b^2) + 1/(2 k^4 b^3)
    """
    if k < 1 or b < 2:
        raise PreconditionError(f"need k >= 1 and b >= 2, got ({k}, {b})")
    k3 = k**3
    k4 = k3 * k
    b2 = b * b
    return 1.0 / (6 * k3 * b2) - 1.0 / (4 * k4 * b2) + 1.0 / (2 * k4 * b2 * b)


def s_sum_direct(L: int, b: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """The weighted floor sum S(L;b) = 2b * sum_{1<=a<=L} floor(a/b)/a.

    Evaluated by the direct definition, one block of constant floor(a/b)
    after another (terms in increasing a; indices a < b contribute zero and
    are skipped).  Regrouping the sum into blocks of constant floor
    reproduces it exactly at the truncation (L/b + 1)*b - 1; that identity
    is exercised by the tests.
    """
    if b < 2:
        raise PreconditionError(f"need b >= 2, got {b}")
    if L % b != 0:
        raise PreconditionError(f"need b | L, got L = {L}, b = {b}")
    with _context(cfg) as (mt, pi, real):
        return 2 * b * sum_strategy(
            (
                real(q) / a
                for q in range(1, L // b + 1)
                for a in range(q * b, min(q * b + b, L + 1))
            ),
            cfg,
        )


def g_partial(b: int, L: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """G_L(b) = sum_{1<=a<=L, b !| a} [ (b/a)*(1 + 2*floor(a/b)) - 2 ].

    Each term equals (b + 2*b*q - 2*a)/a with q = floor(a/b), summed in
    increasing a over the blocks q*b < a < (q+1)*b; G_L(b)/pi is a partial
    sum of the conditionally convergent series (1/pi) sum_{b !| a}
    b*(1 - 2*{a/b})/a for c0(1/b).
    """
    if b < 2:
        raise PreconditionError(f"need b >= 2, got {b}")
    if L < b:
        raise PreconditionError(f"need L >= b, got L = {L}, b = {b}")
    with _context(cfg) as (mt, pi, real):
        return sum_strategy(
            (
                real(b + 2 * b * q - 2 * a) / a
                for q in range(L // b + 1)
                for a in range(q * b + 1, min(q * b + b, L + 1))
            ),
            cfg,
        )


def _neville_to_zero(xs: list[float], ys: list):
    """Polynomial extrapolation of (xs, ys) to x = 0; returns the diagonal."""
    diag = []
    cur = list(ys)
    diag.append(cur[-1])
    n = len(xs)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            num = xs[i] * cur[i + 1] - xs[i + level] * cur[i]
            nxt.append(num / (xs[i] - xs[i + level]))
        cur = nxt
        diag.append(cur[-1])
    return diag


def _r_terms(b: int, lo: int, hi: int, mt, real):
    """Terms k = lo+1..hi of r(b), each k*log1p(b/(kb-1)) - 1 + (1/2 - 1/b)/k.

    That is k*(log(ratio) - 1/k + 1/(2k^2) - 1/(bk^2)) with the ratio
    ((k+1)b-1)/(kb-1) = 1 + b/(kb-1), so the log is taken by ``log1p`` and
    c = 1/2 - 1/b is formed once: 8 operations a term, not 14.  k*log1p(...)
    lies in [log 2, 1.1], so subtracting 1 is exact (Sterbenz), and each term
    carries an absolute rounding error of a few units of 2^-p at working
    precision p.  The terms come from one generator.

    In binary64 k is a float, so no product is formed as a Python int.  Only
    k*b and k*b - 1 must be exact for a term to have the bits of the int-k
    form; while b*k < 2^53 they are.  Past 2^53, k*b and k*b - 1 can each
    round, so a term can move by up to about 2^-52, which :func:`r_series`'s
    bound counts for each such term.  mpmath keeps k an int: its products are
    exact below 2^p, and an mpf k costs more.
    """
    log1p = mt.log1p
    one = real(1)
    rb = real(b)
    c = one / 2 - one / rb
    k_type = float if real is float else int
    return (
        k * log1p(rb / (k * rb - one)) - one + c / k
        for k in map(k_type, range(lo + 1, hi + 1))
    )


def _r_segment(b: int, lo: int, hi: int, cfg: PrecisionConfig):
    """The terms k = lo+1..hi of r(b) in one correctly rounded sum."""
    with _context(cfg) as (mt, pi, real):
        return sum_strategy(_r_terms(b, lo, hi, mt, real), cfg)


def _r_checkpoints(bs: list[int], K: int, cfg: PrecisionConfig):
    """Partial sums of each r(b), b in bs, at n = K/8, K/4, K/2 and K.

    Returns ``(ns, partials)``, with ``partials[i]`` the four partial sums of
    r(bs[i]).  Each segment between checkpoints is one correctly rounded sum
    of its terms, and each partial sum one correctly rounded sum of the
    segment sums before it.  The last segments, terms K/2+1..K of every b,
    are half the work: one forked child sums them while this process sums
    the three segments before them of every b (see :func:`numerics._in_two`;
    below its break-even, or with one CPU, this process sums them too).
    A segment's sum is a pure function of (b, lo, hi, cfg), so the bits do
    not depend on which process computed it.
    """
    ns = [K // 8, K // 4, K // 2, K]

    def segment_sums(item):
        b, bounds = item
        return [_r_segment(b, lo, hi, cfg) for lo, hi in zip(bounds, bounds[1:])]

    # each b's lower bounds, then its upper ones: the child gets every upper half
    items = [(b, bounds) for b in bs for bounds in ([0] + ns[:3], ns[2:])]
    sums = _in_two(segment_sums, items, len(bs) * (K - K // 2))
    partials = []
    for lower, upper in zip(sums[::2], sums[1::2]):
        segments = lower + upper
        partials.append([sum_strategy(segments[: i + 1], cfg) for i in range(len(ns))])
    return ns, partials


def r_series(
    bs: list[int], K: int, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> list[ConstantEstimate]:
    """Block-correction series r(b) of each b in bs, extrapolated from sums up to K.

    Terms decay like 1/k^2 and have an expansion in 1/k, so the tail beyond n
    has one in 1/n.  The partial sums at n = K/8, K/4, K/2 and K are
    extrapolated to 1/n = 0 by Neville's scheme.  ``tail_bound`` is the last
    diagonal step plus K * 2^-p, the rounding floor of K terms at working
    precision p, plus 13 * 2^-p for each k <= K with b*k >= 2^p; it is an
    estimate, nothing is certified.

    The last part is zero while b*K < 2^p, where k*b and k*b - 1 are exact.
    Past 2^p their roundings move d = k*b - 1 by a relative 2^(1-p) at most
    (to first order), and a term k*log1p(b/d) by k*x/(1 + x) <= 1 times
    that, x = b/d (see :func:`_r_terms`).  Such shifts need not cancel (at
    b = 2^40, k*b - 1 always rounds up to k*b), and Neville's weights at the
    four checkpoints have absolute sum 135/21, so each such term moves the
    result by at most 2^(1-p) * 135/21 < 13 * 2^-p.

    bs must be one or more values of b >= 2, strictly increasing, and
    K >= 100; both are checked before anything is summed.  With two CPUs
    usable, one forked child sums the terms K/2+1..K of every b while this
    process sums the terms up to K/2 (see :func:`_r_checkpoints`).  Each
    segment is one correctly rounded sum of the same terms wherever it runs,
    so each r(b) has the same bits on one CPU or on many, whatever bs holds
    besides b.
    """
    _check_bs(bs, 1)
    if K < 100:
        raise PreconditionError(f"need K >= 100, got {K}")
    ns, partials = _r_checkpoints(bs, K, cfg)
    p = cfg.working_precision
    estimates = []
    with _context(cfg) as (mt, pi, real):
        xs = [real(1) / n for n in ns]
        for b, sums in zip(bs, partials):
            diag = _neville_to_zero(xs, sums)
            step = abs(float(diag[-1] - diag[-2]))
            past = max(0, K - (2**p - 1) // b)
            rounding = (K + 13 * past) * 2.0**-p
            estimates.append(
                ConstantEstimate(value=diag[-1], tail_bound=step + rounding)
            )
    return estimates


def _check_bs(bs: list[int], fewest: int) -> None:
    """PreconditionError unless bs is ``fewest`` or more b >= 2, strictly increasing."""
    if len(bs) < fewest:
        noun = "value" if fewest == 1 else "values"
        raise PreconditionError(f"need at least {fewest} {noun} of b, got {len(bs)}")
    if any(b < 2 for b in bs):
        raise PreconditionError(f"every b must be >= 2, got {bs}")
    if sorted(set(bs)) != list(bs):
        raise PreconditionError(f"bs must be strictly increasing, got {bs}")


def estimate_C0(
    bs: list[int], K: int, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> tuple[ConstantEstimate, list[ConstantEstimate]]:
    """Extract the main-term constant by extrapolating r(b) in 1/b to b = infinity.

    Returns ``(constant, r_series(bs, K, cfg))``.  bs must be three or more
    values of b >= 2, strictly increasing, and K >= 100; both are checked
    before anything is summed.

    Richardson-style: polynomial extrapolation at nodes 1/b (two levels for
    three nodes), then subtraction of the structural offset 1 between the
    block series' limit and the closed-form constant (gamma - log(2*pi))/2.

    In x = 1/b, r = const - x + sum_{n>=2} zeta(n) x^n / n, so the last
    diagonal step (three nodes against the two smallest x) is about
    c2 * x1 * x2 while the three-node error is about c3 * x0 * x1 * x2, with
    c3/c2 = 2*zeta(3)/(3*zeta(2)) ~ 0.49.  The tail_bound is therefore the
    step times x0 = 1/bs[0], about twice the expected extrapolation error,
    plus the worst per-b tail bound.
    """
    _check_bs(bs, 3)
    estimates = r_series(bs, K, cfg)
    with _context(cfg) as (mt, pi, real):
        diag = _neville_to_zero([real(1) / b for b in bs], [e.value for e in estimates])
        value = diag[-1] - R_SERIES_OFFSET
        extrapolation_step = abs(float(diag[-1] - diag[-2]))
    tail_bound = extrapolation_step / bs[0] + max(e.tail_bound for e in estimates)
    return ConstantEstimate(value=value, tail_bound=tail_bound), estimates


def _closed_form_C0(cfg: PrecisionConfig):
    """The closed-form constant (gamma - log(2*pi))/2 at working precision."""
    gamma = euler_gamma(cfg)
    l2p = log_two_pi(cfg)
    with _context(cfg):
        return (gamma - l2p) / 2


def s_sum_asymptotic(
    L: int, b: int, C0: float, cfg: PrecisionConfig = DEFAULT_CONFIG
):
    """Four-term asymptotic for S(L;b):

        2*b*C0 + 2*L + (1 - b)*log(L/b) + (1 - b)*gamma

    with C0 the main-term constant; the omitted remainder is O(b^2/L) + O(1).
    """
    if b < 2:
        raise PreconditionError(f"need b >= 2, got {b}")
    if L % b != 0:
        raise PreconditionError(f"need b | L, got L = {L}, b = {b}")
    gamma = euler_gamma(cfg)
    with _context(cfg) as (mt, pi, real):
        return 2 * b * real(C0) + 2 * L + (1 - b) * (mt.log(real(L) / b) + gamma)


def c0_main_terms(b: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """The two asymptotic main terms of c0(1/b):

        (1/pi) * b * log(b) - (b/pi) * (log(2*pi) - gamma)
    """
    if b < 2:
        raise PreconditionError(f"need b >= 2, got {b}")
    gamma = euler_gamma(cfg)
    l2p = log_two_pi(cfg)
    with _context(cfg) as (mt, pi, real):
        return (real(b) / pi) * (mt.log(real(b)) - l2p + gamma)


def residual_scan(
    bs: list[int], cfg: PrecisionConfig = DEFAULT_CONFIG
) -> tuple[list[ResidualRecord], LogFitReport]:
    """Exact-minus-main-terms residuals delta(b) over increasing b, with a fit.

    Each b costs one O(b) exact evaluation of c0(1/b); in binary64 a b
    twice the one before costs half, since :func:`c0` keeps the last row's
    exact parts and reuses them for the row's even r (see
    :func:`exact._row_parts`).  Every b is checked against c0's limits
    before the first.  The report carries the least-squares slope and
    intercept of delta against log(b) (computed in binary64) plus
    max |delta|: a bounded error term shows a near-zero slope, while an
    error growing like log(b) would show a stable nonzero slope.
    """
    _check_bs(bs, 1)
    for b in bs:
        _check_c0_k(b)
    records = []
    for b in bs:
        exact = c0(ReducedFraction(1, b), cfg)
        main = c0_main_terms(b, cfg)
        with _context(cfg):
            delta = exact - main
        records.append(
            ResidualRecord(b=b, c0_exact=exact, c0_main_terms=main, delta=delta)
        )
    xs = [math.log(r.b) for r in records]
    ys = [float(r.delta) for r in records]
    n = len(xs)
    if n == 1:
        slope, intercept = 0.0, ys[0]
    else:
        x_bar = sum(xs) / n
        y_bar = sum(ys) / n
        sxx = sum((x - x_bar) ** 2 for x in xs)
        sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = y_bar - slope * x_bar
    report = LogFitReport(
        slope=slope,
        intercept=intercept,
        max_abs_delta=max(abs(y) for y in ys),
    )
    return records, report
