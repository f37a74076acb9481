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

import math
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .numerics import (
    DEFAULT_CONFIG,
    CapacityError,
    PrecisionConfig,
    PreconditionError,
    ReducedFraction,
    _context,
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
    "frac_via_cot_sin",
]

# Derivative polynomials have integer coefficients that grow like n!, so the
# supported order is capped; raise the cap explicitly if you need more.
MAX_DERIVATIVE_ORDER = 16

# The binary64 c0 forms r*h^-1 mod k in int64 with r < k/2 and h^-1 < k, so
# k < 2^32 keeps the product below 2^63.
_C0_MAX_K = 2**32
# Terms per numpy chunk of the binary64 c0.
_C0_CHUNK = 1 << 14


class EstermannValue(NamedTuple):
    """Value at the origin for twist order ``alpha``, split into parts.

    For odd ``alpha`` the value is the rational B_{alpha+1}/(2(alpha+1)) and
    ``imag_part`` is exactly zero.  For even ``alpha`` the prefactor
    (-i/2)^(alpha+1) is purely imaginary, so ``real_part`` is 1/4 when
    ``alpha`` is 0 and exactly zero otherwise.
    """

    real_part: float
    imag_part: float


def c0(frac: ReducedFraction, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """The cotangent sum c0(h/k) = -sum_{m=1}^{k-1} (m/k) cot(pi*m*h/k).

    The terms m and k - m share one cotangent up to sign, so the sum is taken
    over half the row, indexed by the folded residue r (see
    :func:`_half_row_chunks`):

        c0(h/k) = sum_{r=1}^{(k-1)//2} cot(pi*r/k) * (k - 2*m_r)/k,  m_r = r*h^-1 mod k,

    in one correctly rounded sum.  In binary64 each numpy chunk of terms is
    reduced without error to a few floats with the same exact sum
    (:func:`_exact_parts`), so that sum rounds once, as one fsum of the
    terms in any order would: the order of the terms cannot change the bits.
    For even k the even-r terms are those of c0((h mod k/2)/(k/2)), so their
    parts are that row's, and :func:`_row_parts` keeps the last row's parts:
    a doubling ladder of k sums half its terms.  In extended precision the
    terms stream through :func:`_half_row_sum` with P(u) = u.  No row is
    built: cost O(k) time, and memory bounded by one numpy chunk of terms in
    binary64 and by no terms in extended precision.
    Because the fold keeps the sign exactly, c0((k-h)/k) is bitwise
    -c0(h/k).  k must be below 2^32 (:class:`CapacityError`).
    """
    h, k = frac.h, frac.k
    _check_c0_k(k)
    if not cfg.extended:
        return sum_strategy(_row_parts(h, k), cfg)
    return _half_row_sum(h, k, _cot_derivative_coeffs(0), cfg)


def _check_c0_k(k: int) -> None:
    """Raise unless :func:`c0` takes the denominator k: k < 2^32."""
    if k >= _C0_MAX_K:
        raise CapacityError(f"c0 requires k < 2^32, got k = {k}")


# A doubling scan asks for row k/2 just before row k, so one row is enough.
@lru_cache(maxsize=1)
def _row_parts(h: int, k: int) -> list[float]:
    """Floats whose exact sum is that of :func:`_half_row_chunks`' terms.

    For an even k > 2 the even-r terms are those of row (h mod k/2, k/2)
    (see :func:`_half_row_chunks`), so the parts are a copy of that row's
    plus those of the odd-r terms; else those of every term.  The half row
    is taken first, so no chunk is held while it recurses.
    """
    if k % 2 or k == 2:
        parts, odd_only = [], False
    else:
        parts, odd_only = list(_row_parts(h % (k // 2), k // 2)), True
    for terms in _half_row_chunks(h, k, odd_only):
        parts += _exact_parts(terms)
    return parts


def _half_row_chunks(h: int, k: int, odd_only: bool = False):
    """Binary64 terms of c0's half-row sum, as float64 arrays of up to _C0_CHUNK.

    The terms are indexed by the folded residue r = 1..(k-1)//2, not by m:

        c0(h/k) = sum_{r=1}^{(k-1)//2} cot(pi*r/k) * (k - 2*m_r)/k,  m_r = r*h^-1 mod k.

    The m of the half row with m*h = +-r (mod k) is m_r or k - m_r,
    whichever is below k/2, and either way its signed weight is k - 2*m_r.
    So these are the m-indexed terms, each formed from the same floats by
    :func:`_cot_kernel`'s operations: for r <= k//4 (one contiguous near
    range) 1/tan(pi*r/k), for k//4 < r (one contiguous far range)
    tan(pi*(k - 2r)/(2k)); then times the weight, over k.  No term needs a
    fold, a sign or a mask.  With h = 1, m_r = r, so the weight k - 2r is
    also the far angle's numerator.  Every integer is exact in float64.
    With ``odd_only`` only the terms of odd r come, in the same order.

    The term of row (h, 2k) at r = 2r' is bit for bit the term of row
    (h mod k, k) at r'.  The angles do not depend on h.  Near angle:
    2r'*pi rounds to twice r'*pi, and that over 2k is the double r'*pi/k.
    Far angle: (2k - 4r')*pi/(4k) is likewise the double (k - 2r')*pi/(2k).
    So tan and reciprocal see the same inputs.  h^-1 mod 2k is also
    (h mod k)^-1 mod k, so at r = 2r', m = 2*(r'*(h mod k)^-1 mod k) and the
    weight 2k - 2m is twice row k's integer weight; when h mod k = 1, row
    k's float weight k - 2r' is that same integer.  So the product is twice
    row k's, and over 2k it gives row k's double.  The ranges match:
    2r' <= (2k)//4 iff r' <= k//4, and 2r' <= (2k-1)//2 iff r' <= (k-1)//2.
    Scaling by two is exact short of overflow or subnormals, which
    k < 2^32 reaches neither.  So row (h, 2k)'s even-r terms are row
    (h mod k, k)'s terms, and its odd-r terms are all that is new.
    """
    # Imported here: numpy's import would cost every other command ~0.1 s.
    import numpy as np

    inv = pow(h, -1, k)
    step = 2 if odd_only else 1
    quarter, half = k // 4, (k - 1) // 2
    for near, lo, hi in ((True, 1, quarter + 1), (False, quarter + 1, half + 1)):
        for start in range(lo | 1 if odd_only else lo, hi, step * _C0_CHUNK):
            stop = min(start + step * _C0_CHUNK, hi)
            # k - 2r for r = start, start + step, .. < stop: the far angle's
            # numerator and, with h = 1, the weight
            w = np.arange(k - 2 * start, k - 2 * stop, -2 * step, dtype=np.float64)
            if near:
                t = np.arange(start, stop, step, dtype=np.float64)
                t *= np.pi
                t /= k
                np.tan(t, out=t)
                np.reciprocal(t, out=t)
            else:
                t = w * np.pi
                t /= 2 * k
                np.tan(t, out=t)
            if inv != 1:
                w = np.arange(start, stop, step, dtype=np.int64)
                w *= inv
                w %= k
                w *= -2
                w += k
            t *= w
            t /= k
            yield t


def _cot_kernel(r: int, k: int, mt, pi):
    """cot(pi*r/k) for 1 <= r <= k-1, inside an already-entered context.

    The quadrant is chosen from the exact integers r, k so that the tangent is
    only ever evaluated on (0, pi/4]; together with the exact reduction this
    keeps the relative error at a few ulps even when cot is large or near its
    zero crossing.  For r > k/2 it is exactly -cot(pi*(k-r)/k); the half-row
    sums here pass only r <= k/2.
    """
    two_r = 2 * r
    if two_r == k:
        return 0.0 if mt is math else mt.mpf(0)
    if two_r > k:
        return -_cot_kernel(k - r, k, mt, pi)
    if 4 * r <= k:
        return 1 / mt.tan(pi * r / k)
    return mt.tan(pi * (k - two_r) / (2 * k))


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
    """sum_{r=1}^{(k-1)//2} P(cot(pi*r/k)) * (k - 2*m_r)/k with m_r = r*h^-1 mod k.

    P has the integer ``coeffs`` and is odd, so, as in
    :func:`_half_row_chunks`, these are the half row's m-indexed terms
    P(cot(pi*m*h/k)) * (k - 2m)/k, bit for bit.  One correctly rounded sum,
    no row kept.
    """
    inv = pow(h, -1, k)
    with _context(cfg) as (mt, pi, real):
        return sum_strategy(
            (
                _horner(coeffs, _cot_kernel(r, k, mt, pi)) * (k - 2 * (r * inv % k)) / k
                for r in range(1, (k - 1) // 2 + 1)
            ),
            cfg,
        )


def estermann_at_zero(
    frac: ReducedFraction, alpha: int, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> EstermannValue:
    """Closed-form value at the origin for twist order ``alpha``.

    odd alpha:  B_{alpha+1} / (2(alpha+1))
    even alpha: (-i/2)^(alpha+1) sum_{m=1}^{k-1} (m/k) cot^(alpha)(pi*m*h/k)
                + 1/4 when alpha = 0, where the sum is -c0(h/k).

    For even alpha the sum is the half-row sum with P_alpha, the polynomial
    in cot of cot^(alpha): :func:`c0` when alpha = 0, else
    :func:`_half_row_sum`, of the same terms; no row is kept.
    """
    if alpha < 0:
        raise PreconditionError(f"alpha must be >= 0, got {alpha}")
    if alpha % 2 == 1:
        value = bernoulli(alpha + 1) / (2 * (alpha + 1))
        with _context(cfg) as (mt, pi, real):
            return EstermannValue(
                real_part=real(value.numerator) / value.denominator, imag_part=real(0)
            )
    if alpha > MAX_DERIVATIVE_ORDER:
        raise CapacityError(
            f"even alpha {alpha} exceeds derivative maximum {MAX_DERIVATIVE_ORDER}"
        )
    # (-i/2)^(alpha+1) with alpha+1 odd is imaginary: -i/2^(alpha+1) when
    # alpha = 0 (mod 4) and +i/2^(alpha+1) when alpha = 2 (mod 4).
    sign = -1 if alpha % 4 == 0 else 1
    # P_alpha is odd and cot(pi*(k-m)*h/k) = -cot(pi*m*h/k), so the terms m
    # and k - m combine into P(cot_m) * (2m - k)/k: the sum is -s, and the
    # value -sign * s / 2^(alpha+1), taken as 0 - sign * s so that an empty
    # half row (k = 2) gives +0.0 for every alpha.
    if alpha == 0:
        s = c0(frac, cfg)
    else:
        s = _half_row_sum(frac.h, frac.k, _cot_derivative_coeffs(alpha), cfg)
    with _context(cfg) as (mt, pi, real):
        return EstermannValue(
            real_part=real(0.25 if alpha == 0 else 0),
            imag_part=(0 - sign * s) / 2 ** (alpha + 1),
        )


# Copies of one period laid end to end in each unit row: a gather takes about
# step/_ROW_COPIES + 1 slices, and a row holds _ROW_COPIES * b entries.
_ROW_COPIES = 32


# The suites walk b upwards, so only the last few rows are ever reused.
@lru_cache(maxsize=4)
def _unit_row(b: int, working_precision: int):
    """``(cot, cos_row, sin_row)`` for b, at the requested precision.

    cot[m-1] = cot(pi*m/b) for m = 1..b-1, and cot[b-m-1] is bitwise -cot[m-1].
    cos_row and sin_row hold cos/sin of 2*pi*j/b laid _ROW_COPIES times:
    entry j + t*b is the same object as entry j, so they have period b.
    """
    with _context(PrecisionConfig(working_precision)) as (mt, pi, real):
        cot = [_cot_kernel(m, b, mt, pi) for m in range(1, b // 2 + 1)]
        cot += [-c for c in reversed(cot[: (b - 1) // 2])]
        cos_row = [real(1)] * b
        sin_row = [real(0)] * b
        for j in range(1, b):
            theta = (2 * pi * j) / b
            cos_row[j] = mt.cos(theta)
            sin_row[j] = mt.sin(theta)
    return cot, cos_row * _ROW_COPIES, sin_row * _ROW_COPIES


def _gathered(row, step: int, b: int) -> list:
    """row[m*step mod b] for m = 1..b-1 (0 <= step < b) from a row of period b.

    From start = m*step mod b the next entries lie at start + step,
    start + 2*step, ... for as long as they stay inside the row, so each such
    run of m is one extended slice row[start:stop:step].
    """
    if step == 0:
        return [row[0]] * (b - 1)
    out, m, end = [], 1, len(row)
    while m < b:
        start = m * step % b
        stop = min(start + (b - m) * step, end)
        out += row[start:stop:step]
        m += (stop - start + step - 1) // step
    return out


def _floor_class_sums(b: int, classes, cfg: PrecisionConfig) -> dict:
    """``{s: (re, im)}``: the floor identity's sum over m for each class s.

        (1/(2b)) sum_{m=1}^{b-1} (1 - i*cot(pi*m/b)) e^(2*pi*i*m*s/b)

    for each residue s (0 <= s < b) in ``classes``, its real and imaginary
    parts each formed from the terms wr + c*wi and wi - c*wr, with
    c = cot(pi*m/b) and (wr, wi) the cos and sin entries at m*s mod b, and
    summed correctly rounded.  A class s and its conjugate t = b - s share
    their products: (b - m)*t = m*s (mod b), so t's term at b - m reads the
    entries of s's term at m, and cot at b - m is bitwise -c (see
    :func:`_unit_row`).  Rounding to nearest is symmetric in sign, so
    fl(-c*w) = -fl(c*w), and t's terms are wr - c*wi and wi + c*wr from the
    same products p = c*wi and q = c*wr.  So one pass over m gives both
    classes, each sum with the terms that a pass of its own would give, and
    a correctly rounded sum does not depend on their order.  Classes 0 and
    b/2, and a class whose conjugate is not requested, take a pass alone.
    """
    classes = set(classes)
    cot, cos_row, sin_row = _unit_row(b, cfg.working_precision)
    two_b = 2 * b
    sums = {}
    with _context(cfg) as (mt, pi, real):
        for s in classes:
            if s in sums:
                continue
            re_s, im_s, re_t, im_t = [], [], [], []
            for c, wr, wi in zip(
                cot, _gathered(cos_row, s, b), _gathered(sin_row, s, b)
            ):
                p = c * wi
                q = c * wr
                re_s.append(wr + p)
                im_s.append(wi - q)
                re_t.append(wr - p)
                im_t.append(wi + q)
            sums[s] = (sum_strategy(re_s, cfg) / two_b, sum_strategy(im_s, cfg) / two_b)
            t = b - s
            if t != s and t in classes:
                sums[t] = (
                    sum_strategy(re_t, cfg) / two_b,
                    sum_strategy(im_t, cfg) / two_b,
                )
    return sums


def _floor_reals(b: int, a_values, re, cfg: PrecisionConfig) -> list:
    """a/b + 1/(2b) - 1/2 + re for each a of one class, whose real sum is re."""
    with _context(cfg) as (mt, pi, real):
        offset = real(1) / (2 * b)
        half = real(1) / 2
        return [real(a) / b + offset - half + re for a in a_values]


def cot_cos_identity_residual(
    a: int, b: int, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG
):
    """sum_{m=1}^{b-1} cot(pi*m/b) cos(2*pi*m*n*a/b), which vanishes identically.

    The returned value is a pure numerical residue; callers assert on its size.
    """
    if a < 1 or b < 2 or n < 1:
        raise PreconditionError(f"need a, n >= 1 and b >= 2, got ({a}, {b}, {n})")
    cot, cos_row, _ = _unit_row(b, cfg.working_precision)
    step = (n * a) % b
    return sum_strategy(map(mul, cot, _gathered(cos_row, step, b)), cfg)


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
    cot, _, sin_row = _unit_row(b, cfg.working_precision)
    with _context(cfg) as (mt, pi, real):
        s = sum_strategy(map(mul, cot, _gathered(sin_row, step, b)), cfg)
        return real(1) / 2 - s / (2 * b)
