"""Exact finite-sum evaluation.

The central object is the cotangent sum

    c0(h/k) = -sum_{m=1}^{k-1} (m/k) * cot(pi*m*h/k),

together with the closed forms it feeds (the zeta-type value at the origin for
both parities of the twist order alpha) and a family of finite trigonometric
identities: a floor function written as an exponential sum, the vanishing
cotangent-cosine sum, and the fractional part recovered from a
cotangent-sine sum.  Every divisibility decision is made in exact integer
arithmetic; floating point only enters once angles are reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .numerics import (
    DEFAULT_CONFIG,
    CapacityError,
    PrecisionConfig,
    PreconditionError,
    ReducedFraction,
    _context,
    _cot_kernel,
    _cot_row,
    _exact_parts,
    bernoulli,
    sum_strategy,
)

__all__ = [
    "EstermannValue",
    "MAX_DERIVATIVE_ORDER",
    "c0",
    "cot_cos_identity_residual",
    "estermann_at_zero",
    "floor_identities",
    "frac_via_cot_sin",
]

# Derivative polynomials have integer coefficients that grow like n!, so the
# supported order is capped; raise the cap explicitly if you need more.
MAX_DERIVATIVE_ORDER = 16

# c0 works in int64 residues m*h with m <= k/2 and h < k, so k < 2^32.
_C0_MAX_K = 2**32
# Terms per numpy chunk of the binary64 c0.
_C0_CHUNK = 1 << 14


@dataclass(frozen=True)
class EstermannValue:
    """Value at the origin for twist order ``alpha``, split into parts.

    For odd ``alpha`` the value is the rational B_{alpha+1}/(2(alpha+1)) and
    ``imag_part`` is exactly zero.  For even ``alpha`` the prefactor
    (-i/2)^(alpha+1) is purely imaginary, so ``real_part`` is 1/4 when
    ``alpha`` is 0 and exactly zero otherwise.
    """

    real_part: float
    imag_part: float
    alpha: int


def c0(frac: ReducedFraction, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """The cotangent sum c0(h/k) = -sum_{m=1}^{k-1} (m/k) cot(pi*m*h/k).

    The terms m and k - m share one cotangent up to sign, so the sum is taken
    over half the row:

        c0(h/k) = sum_{m=1}^{(k-1)//2} cot(pi*r_m/k) * (k - 2m)/k,  r_m = m*h mod k,

    each cotangent by :func:`_cot_kernel`'s folding and quadrant choice, in
    one correctly rounded sum (:func:`_half_row_sum` with P(u) = u in
    extended precision).  In binary64 each numpy chunk of terms is first
    reduced without error to a few floats with the same exact sum
    (:func:`_exact_parts`), so that sum rounds as a sum of the terms would.
    No row is built: cost O(k) time, and memory bounded by one chunk of
    terms.  Because the fold keeps the sign exactly, c0((k-h)/k) is bitwise
    -c0(h/k).  k must be below 2^32 (:class:`CapacityError`).
    """
    h, k = frac.h, frac.k
    if k < 2:
        raise PreconditionError(f"c0 requires k >= 2, got k = {k}")
    if k >= _C0_MAX_K:
        raise CapacityError(f"c0 requires k < 2^32, got k = {k}")
    if not cfg.extended:
        parts = []
        for terms in _half_row_chunks(h, k):
            parts += _exact_parts(terms)
        return sum_strategy(parts, cfg)
    return _half_row_sum(h, k, _cot_derivative_coeffs(0), cfg)


def _half_row_chunks(h: int, k: int):
    """Binary64 terms of c0's half-row sum, as float64 arrays of up to _C0_CHUNK.

    Each term repeats :func:`_cot_kernel`'s operations elementwise: fold r to
    min(r, k - r), then 1/tan(pi*r/k) if 4r <= k, else tan(pi*(k - 2r)/(2k));
    then times the weight (k - 2m), negated where the fold flipped the sign,
    over k.  Negating the weight instead of the cotangent gives the same bits.
    """
    # Imported here: numpy's import would cost every other command ~0.1 s.
    import numpy as np

    end = (k - 1) // 2 + 1
    for start in range(1, end, _C0_CHUNK):
        m = np.arange(start, min(start + _C0_CHUNK, end), dtype=np.int64)
        r = m * h
        r %= k
        w = k - 2 * m
        np.negative(w, out=w, where=2 * r > k)
        r = np.minimum(r, k - r)
        near = 4 * r <= k
        t = np.where(near, r, k - 2 * r) * np.pi
        t /= np.where(near, k, 2 * k)
        np.tan(t, out=t)
        np.reciprocal(t, out=t, where=near)
        t *= w
        t /= k
        yield t


@lru_cache(maxsize=None)
def _cot_derivative_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (low order first) of P_n with cot^(n) = P_n(cot).

    P_0(u) = u and P_{n+1}(u) = -(1 + u^2) * P_n'(u), from cot' = -(1 + cot^2).
    """
    coeffs: tuple[int, ...] = (0, 1)
    for _ in range(n):
        deriv = tuple(i * c for i, c in enumerate(coeffs))[1:]
        out = [0] * (len(deriv) + 2)
        for i, c in enumerate(deriv):
            out[i] -= c
            out[i + 2] -= c
        coeffs = tuple(out)
    return coeffs


def _horner(coeffs: tuple[int, ...], u):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * u + c
    return acc


def _half_row_sum(h: int, k: int, coeffs: tuple[int, ...], cfg: PrecisionConfig):
    """sum_{m=1}^{(k-1)//2} P(cot(pi*r_m/k)) * (k - 2m)/k with r_m = m*h mod k.

    P has the integer ``coeffs``; one correctly rounded sum, no row kept.
    """
    with _context(cfg) as (mt, pi, real):
        return sum_strategy(
            (
                _horner(coeffs, _cot_kernel(m * h % k, k, mt, pi)) * (k - 2 * m) / k
                for m in range(1, (k - 1) // 2 + 1)
            ),
            cfg,
        )


def estermann_at_zero(
    frac: ReducedFraction, alpha: int, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> EstermannValue:
    """Closed-form value at the origin for twist order ``alpha``.

    k = 1:      (-1)^(alpha+1) * B_{alpha+1} / (2(alpha+1))
    odd alpha:  B_{alpha+1} / (2(alpha+1))
    even alpha: (-i/2)^(alpha+1) sum_{m=1}^{k-1} (m/k) cot^(alpha)(pi*m*h/k)
                + 1/4 when alpha = 0, where the sum is -c0(h/k).

    For even alpha >= 2 the sum is :func:`_half_row_sum` with P_alpha, the
    polynomial in cot of cot^(alpha), like :func:`c0`'s with no row kept.
    """
    if alpha < 0:
        raise PreconditionError(f"alpha must be >= 0, got {alpha}")
    if frac.k == 1 or alpha % 2 == 1:
        value = bernoulli(alpha + 1) / (2 * (alpha + 1))
        if frac.k == 1 and alpha % 2 == 0:
            value = -value
        with _context(cfg) as (mt, pi, real):
            return EstermannValue(
                real_part=real(value.numerator) / value.denominator,
                imag_part=real(0),
                alpha=alpha,
            )
    if alpha > MAX_DERIVATIVE_ORDER:
        raise CapacityError(
            f"even alpha {alpha} exceeds derivative maximum {MAX_DERIVATIVE_ORDER}"
        )
    if alpha == 0:
        # -(i/2) sum (m/k) cot(pi*m*h/k) = (i/2) c0(h/k), halved exactly.
        with _context(cfg) as (mt, pi, real):
            return EstermannValue(
                real_part=real(0.25), imag_part=c0(frac, cfg) / 2, alpha=0
            )
    # (-i/2)^(alpha+1) with alpha+1 odd is purely imaginary: -i/2^(alpha+1)
    # when alpha = 0 (mod 4) and +i/2^(alpha+1) when alpha = 2 (mod 4).
    sign = -1 if alpha % 4 == 0 else 1
    # P_alpha is odd and cot(pi*(k-m)*h/k) = -cot(pi*m*h/k), so the terms m
    # and k - m combine into P(cot_m) * (2m - k)/k: the sum is -s, and the
    # value -sign * s / 2^(alpha+1), taken as 0 - sign * s so that an empty
    # half row (k = 2) gives +0.0 for every alpha.
    s = _half_row_sum(frac.h, frac.k, _cot_derivative_coeffs(alpha), cfg)
    with _context(cfg) as (mt, pi, real):
        return EstermannValue(
            real_part=real(0), imag_part=(0 - sign * s) / 2 ** (alpha + 1), alpha=alpha
        )


@lru_cache(maxsize=32)
def _unit_row(b: int, working_precision: int):
    """cos/sin of 2*pi*j/b for j = 0..b-1, at the requested precision."""
    with _context(PrecisionConfig(working_precision)) as (mt, pi, real):
        cos_row = [real(1)] * b
        sin_row = [real(0)] * b
        for j in range(1, b):
            theta = (2 * pi * j) / b
            cos_row[j] = mt.cos(theta)
            sin_row[j] = mt.sin(theta)
    return cos_row, sin_row


def _gathered(row, step: int, b: int) -> list:
    """row[m*step mod b] for m = 1..b-1 (0 <= step < b)."""
    if step == 0:
        return [row[0]] * (b - 1)
    return [row[i % b] for i in range(step, step * b, step)]


def floor_identities(b: int, a_values, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """``(real, imag)`` of the exponential-sum expression for floor(a/b), per a.

        floor(a/b) = a/b + 1/(2b) - 1/2
                     + (1/(2b)) sum_{m=1}^{b-1} (1 - i*cot(pi*m/b)) e^(2*pi*i*m*a/b)

    ``a_values`` is an iterable of integers a >= 1, read once; the pairs come
    back in its order.  The exponential has period b in a, so the sum's real
    and imaginary parts are each formed, correctly rounded, once per residue
    class a mod b present, and every a of a class only adds its own a/b.
    """
    a_values = list(a_values)
    if b < 2 or min(a_values, default=1) < 1:
        raise PreconditionError(
            f"need a >= 1 and b >= 2, got a = {min(a_values, default=None)}, b = {b}"
        )
    cot = _cot_row(b, cfg.working_precision)
    cos_row, sin_row = _unit_row(b, cfg.working_precision)
    two_b = 2 * b
    cot_tail = cot[1:]
    parts = [None] * b
    with _context(cfg) as (mt, pi, real):
        for step in {a % b for a in a_values}:
            re_terms = []
            im_terms = []
            for c, wr, wi in zip(
                cot_tail, _gathered(cos_row, step, b), _gathered(sin_row, step, b)
            ):
                re_terms.append(wr + c * wi)
                im_terms.append(wi - c * wr)
            parts[step] = (
                sum_strategy(re_terms, cfg) / two_b,
                sum_strategy(im_terms, cfg) / two_b,
            )
        offset = real(1) / two_b
        half = real(1) / 2
        return [
            (real(a) / b + offset - half + re, im)
            for a in a_values
            for re, im in [parts[a % b]]
        ]


def cot_cos_identity_residual(
    a: int, b: int, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG
):
    """sum_{m=1}^{b-1} cot(pi*m/b) cos(2*pi*m*n*a/b), which vanishes identically.

    The returned value is a pure numerical residue; callers assert on its size.
    """
    if a < 1 or b < 2 or n < 1:
        raise PreconditionError(f"need a, n >= 1 and b >= 2, got ({a}, {b}, {n})")
    cot = _cot_row(b, cfg.working_precision)
    cos_row, _ = _unit_row(b, cfg.working_precision)
    step = (n * a) % b
    return sum_strategy(map(mul, cot[1:], _gathered(cos_row, step, b)), cfg)


def frac_via_cot_sin(
    a: int, b: int, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG
):
    """Fractional part {n*a/b} from the cotangent-sine sum (requires b !| n*a).

        {n*a/b} = 1/2 - (1/(2b)) sum_{m=1}^{b-1} cot(pi*m/b) sin(2*pi*m*n*a/b)
    """
    if a < 1 or b < 2 or n < 1:
        raise PreconditionError(f"need a, n >= 1 and b >= 2, got ({a}, {b}, {n})")
    step = (n * a) % b
    if step == 0:
        raise PreconditionError(
            f"identity requires b to not divide n*a, got b = {b}, n*a = {n * a}"
        )
    cot = _cot_row(b, cfg.working_precision)
    _, sin_row = _unit_row(b, cfg.working_precision)
    with _context(cfg) as (mt, pi, real):
        s = sum_strategy(map(mul, cot[1:], _gathered(sin_row, step, b)), cfg)
        return real(1) / 2 - s / (2 * b)
