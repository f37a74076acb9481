"""Shared numerical kernel.

Provides the precision configuration used across the package, exact-rational
Bernoulli numbers, cotangent evaluation at rational multiples of pi, one
correctly rounded sum, and an error-free reduction of a numpy array to a few
floats with the same exact sum.

Two precision modes are supported: binary64 (the default, 53-bit significand,
evaluated with the ``math`` module) and an extended mode (> 53 bits, evaluated
with ``mpmath`` inside a working-precision context).  Each precision-dependent
function runs its arithmetic in one ``with _context(cfg) as (mt, pi, real)``
block.  ``mpmath`` is imported only by the extended mode, so a binary64 run
never pays for its import.  All operations are pure functions of their
arguments; the extended mode serialises around the shared mpmath context with
a re-entrant lock so concurrent callers stay safe.  ``_in_child`` runs one
such function in a forked child, beside the caller's own work.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Iterable

__all__ = [
    "CapacityError",
    "ConstantEstimate",
    "NumericalConsistencyError",
    "PrecisionConfig",
    "PreconditionError",
    "ReducedFraction",
    "DEFAULT_CONFIG",
    "bernoulli",
    "euler_gamma",
    "log_two_pi",
    "sum_strategy",
]


class CapacityError(ValueError):
    """A requested index or size exceeds the configured maximum."""


class PreconditionError(ValueError):
    """The arguments violate a documented precondition."""


class NumericalConsistencyError(ArithmeticError):
    """An internal cross-check left a residue above its tolerance."""


# Extended-precision evaluation shares the global mpmath context; the lock is
# re-entrant because kernel operations call each other.
_MP_LOCK = threading.RLock()


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision for all numeric operations.

    ``working_precision`` is in bits of significand; 53 selects the binary64
    fast path.  Every sum is correctly rounded at this precision (see
    :func:`sum_strategy`).
    """

    working_precision: int = 53

    def __post_init__(self) -> None:
        if self.working_precision < 53:
            raise PreconditionError(
                f"working_precision must be >= 53, got {self.working_precision}"
            )

    @property
    def extended(self) -> bool:
        return self.working_precision > 53


DEFAULT_CONFIG = PrecisionConfig()


@dataclass(frozen=True)
class ReducedFraction:
    """A fraction h/k in lowest terms, the argument of the cotangent sum.

    k = 1 is permitted (with h = 1) only because the value at integer
    arguments has its own closed form; every other use requires k >= 2 and
    1 <= h < k.
    """

    h: int
    k: int

    def __post_init__(self) -> None:
        if self.h < 1 or self.k < 1:
            raise ValueError(f"h and k must be positive, got ({self.h}, {self.k})")
        if self.k == 1:
            if self.h != 1:
                raise ValueError("k = 1 requires h = 1")
            return
        if not self.h < self.k:
            raise ValueError(f"need 1 <= h < k, got ({self.h}, {self.k})")
        if gcd(self.h, self.k) != 1:
            raise ValueError(f"h and k must be coprime, got ({self.h}, {self.k})")


@dataclass(frozen=True)
class ConstantEstimate:
    """A numerically extracted constant with truncation metadata.

    ``tail_bound`` is an a-posteriori estimate (not a certified enclosure) of
    the truncation, extrapolation and rounding error.  A larger
    ``truncation_K`` shrinks its truncation part, but the rounding part grows
    with ``truncation_K``, so past some K the bound grows again.
    """

    value: float
    truncation_K: int
    tail_bound: float


# The binary64 context: entering it costs no generator frame.
_BINARY64 = nullcontext((math, math.pi, float))


@contextmanager
def _extended(working_precision: int):
    import mpmath

    with _MP_LOCK, mpmath.workprec(working_precision):
        yield mpmath, +mpmath.pi, mpmath.mpf


def _context(cfg: PrecisionConfig):
    """The numeric context of ``cfg``: ``with _context(cfg) as (mt, pi, real):``.

    ``mt`` is a math-like module (``math`` or ``mpmath``), ``pi`` the constant
    at working precision, and ``real`` the scalar constructor (``float`` or
    ``mpmath.mpf``).  In extended precision the block holds the mpmath lock
    and one ``mpmath.workprec`` scope, so intermediate arithmetic keeps full
    precision; every mpf operation must stay inside the block, since even a
    negation outside it rounds to mpmath's ambient 53 bits.
    """
    if cfg.working_precision <= 53:
        return _BINARY64
    return _extended(cfg.working_precision)


def euler_gamma(cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Euler-Mascheroni constant gamma = lim (H_n - log n) at working precision.

    In binary64 this is the literal that rounding the 61-bit value gives.
    """
    if not cfg.extended:
        return 0.5772156649015329
    with _extended(cfg.working_precision + 8) as (mt, pi, real):
        return +mt.euler


def log_two_pi(cfg: PrecisionConfig = DEFAULT_CONFIG):
    """log(2*pi) at working precision.

    In binary64 this is the literal that rounding the 61-bit value gives;
    ``math.log(2 * math.pi)`` is 1 ulp below it.
    """
    if not cfg.extended:
        return 1.8378770664093456
    with _extended(cfg.working_precision + 8) as (mt, pi, real):
        return mt.log(2 * pi)


@lru_cache(maxsize=None)
def _bernoulli_exact(m: int) -> Fraction:
    # Defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0, solved for B_m.
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * _bernoulli_exact(j)
    return -acc / (m + 1)


def bernoulli(m: int, max_index: int = 64) -> Fraction:
    """Exact Bernoulli number B_m (convention B_1 = -1/2) as a Fraction.

    Computed by the defining recurrence in exact rational arithmetic and
    cached.  Indices above ``max_index`` raise :class:`CapacityError`.
    """
    if m < 0:
        raise PreconditionError(f"Bernoulli index must be >= 0, got {m}")
    if m > max_index:
        raise CapacityError(f"Bernoulli index {m} exceeds maximum {max_index}")
    return _bernoulli_exact(m)


def _cot_kernel(r: int, k: int, mt, pi):
    """cot(pi*r/k) for 1 <= r <= k-1, inside an already-entered context.

    The quadrant is chosen from the exact integers r, k so that the tangent is
    only ever evaluated on (0, pi/4]; together with the exact reduction this
    keeps the relative error at a few ulps even when cot is large or near its
    zero crossing.
    """
    two_r = 2 * r
    if two_r == k:
        return 0.0 if mt is math else mt.mpf(0)
    if two_r > k:
        return -_cot_kernel(k - r, k, mt, pi)
    if 4 * r <= k:
        return 1 / mt.tan(pi * r / k)
    return mt.tan(pi * (k - two_r) / (2 * k))


@lru_cache(maxsize=32)
def _cot_row(k: int, working_precision: int):
    """Row of cot(pi*r/k) for r = 1..k-1 (index 0 unused).

    Built once per (k, precision) with the antisymmetry cot(pi*(k-r)/k) =
    -cot(pi*r/k) applied exactly, so paired entries are exact negations.
    """
    row: list = [None] * k
    with _context(PrecisionConfig(working_precision)) as (mt, pi, real):
        for r in range(1, k // 2 + 1):
            row[r] = _cot_kernel(r, k, mt, pi)
        for r in range(1, (k + 1) // 2):
            row[k - r] = -row[r]
    return row


def sum_strategy(values: Iterable, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Sum a finite sequence, correctly rounded at the working precision.

    ``math.fsum`` in binary64.  In extended precision ``mpmath.fsum`` adds
    exactly and rounds once; it only drops a term lying more than twice the
    working precision in bits below the running sum.  Terms are taken in the
    order given, so repeated runs are bit-identical.  The empty sum is zero.
    """
    with _context(cfg) as (mt, pi, real):
        return mt.fsum(values)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _in_child(worth_a_fork: bool, fn, *args):
    """``with _in_child(worth_a_fork, fn, *args) as result:`` runs fn(*args) aside.

    On entry a forked child starts computing fn(*args), so the work the
    caller does inside the block runs beside it on a second CPU; ``result()``
    returns the child's value, read through a pipe.  fn runs in this process
    instead, when ``result()`` is called, if ``worth_a_fork`` is false,
    ``os.fork`` is missing, fewer than 2 CPUs are usable, or another thread
    is alive (a fork would copy any lock that thread holds, ``_MP_LOCK``
    included).  If the child delivers no complete result, ``result()``
    computes fn(*args) here, so an exception in fn surfaces in this process.
    fn must be a pure function of its arguments: then every path gives the
    same bits.  On leaving the block the child is killed and reaped, also
    when the block raises.  Enter the block outside any ``_context`` block.
    """
    if not (
        worth_a_fork
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and _cpus() >= 2
    ):
        yield lambda: fn(*args)
        return
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            data = pickle.dumps(fn(*args))
            while data:
                data = data[os.write(write_fd, data):]
        finally:
            os._exit(0)
    os.close(write_fd)

    def result():
        data = b""
        while chunk := os.read(read_fd, 1 << 16):
            data += chunk
        try:
            return pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            return fn(*args)

    try:
        yield result
    finally:
        os.close(read_fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _exact_parts(x) -> list[float]:
    """Floats whose exact sum is the exact sum of the float64 array ``x``.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008).  Each pass takes the
    power of two sigma = 2^(e + bitlen(n+1) + 1), where max|r| < 2^e, splits
    every remainder r into q = (sigma + r) - sigma and r - q without error,
    and adds up the q: they are multiples of 2^-53*sigma whose partial sums
    stay below sigma, so numpy's sum of them is exact in any order.  The
    remainders shrink by at least 51 - bitlen(n+1) bits a pass until all are
    zero.  ``math.fsum`` of the result therefore equals ``math.fsum`` of
    ``x``, bit for bit; an input of zeros gives one zero carrying the sign
    that an IEEE sum of those zeros has.  ``x`` is left unchanged.

    Raises :class:`PreconditionError` if ``x`` holds an inf or a nan, or if
    sigma would overflow: max|x| >= 2^(1022 - bitlen(n+1)).
    """
    import numpy as np

    shift = (len(x) + 1).bit_length() + 1
    parts: list[float] = []
    r = x
    while r.size:
        mu = float(max(r.max(), -r.min()))
        if mu == 0.0:
            if not parts:
                parts.append(-0.0 if np.signbit(x).all() else 0.0)
            break
        if not math.isfinite(mu):
            raise PreconditionError("cannot sum an array holding inf or nan exactly")
        e = math.frexp(mu)[1] + shift
        if e > 1023:
            raise PreconditionError(
                f"array maximum {mu!r} is too large to sum {len(x)} terms exactly"
            )
        sigma = math.ldexp(1.0, e)
        q = r + sigma
        q -= sigma
        parts.append(float(q.sum()))
        r = r - q
    return parts
