"""Shared numerical kernel.

Provides the precision configuration used across the package, exact-rational
Bernoulli numbers, one correctly rounded sum that holds no terms, and an
error-free reduction of a numpy array to a few floats with the same exact sum.

Two precision modes are supported: binary64 (the default, 53-bit significand,
evaluated with the ``math`` module) and an extended mode (> 53 bits, evaluated
with ``mpmath`` inside a working-precision context).  Each precision-dependent
function runs its arithmetic in one ``with _context(cfg) as (mt, pi, real)``
block.  ``mpmath`` is imported only by the extended mode, so a binary64 run
never pays for its import.  All operations are pure functions of their
arguments; the extended mode serialises around the shared mpmath context with
a re-entrant lock so concurrent callers stay safe.  ``_in_two`` maps one
such function over a list, half of the list in a forked child.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from contextlib import contextmanager, nullcontext
from functools import lru_cache
from math import comb, gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CapacityError",
    "ConstantEstimate",
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


# Extended-precision evaluation shares the global mpmath context; the lock is
# re-entrant because kernel operations call each other.
_MP_LOCK = threading.RLock()


class PrecisionConfig(NamedTuple("PrecisionConfig", [("working_precision", int)])):
    """Working precision for all numeric operations.

    ``working_precision`` is in bits of significand; 53 selects the binary64
    fast path.  Every sum is correctly rounded at this precision (see
    :func:`sum_strategy`).  ``_replace`` would skip ``__new__``'s check.
    """

    __slots__ = ()

    def __new__(cls, working_precision: int = 53):
        if working_precision < 53:
            raise PreconditionError(
                f"working_precision must be >= 53, got {working_precision}"
            )
        return super().__new__(cls, working_precision)

    @property
    def extended(self) -> bool:
        return self.working_precision > 53


DEFAULT_CONFIG = PrecisionConfig()


class ReducedFraction(NamedTuple("ReducedFraction", [("h", int), ("k", int)])):
    """The argument h/k of the cotangent sum, in lowest terms with 1 <= h < k.

    ``_replace`` would skip these checks.
    """

    __slots__ = ()

    def __new__(cls, h: int, k: int):
        if not 1 <= h < k:
            raise PreconditionError(f"need 1 <= h < k, got ({h}, {k})")
        if gcd(h, k) != 1:
            raise PreconditionError(f"h and k must be coprime, got ({h}, {k})")
        return super().__new__(cls, h, k)


class ConstantEstimate(NamedTuple):
    """A numerically extracted constant with its error estimate.

    ``tail_bound`` is an a-posteriori estimate (not a certified enclosure) of
    the truncation, extrapolation and rounding error.  A larger truncation K
    shrinks its truncation part, but the rounding part grows with K, so past
    some K the bound grows again.
    """

    value: float
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
    """Euler-Mascheroni constant gamma = lim (H_n - log n).

    In binary64 this is the literal that rounding the 61-bit value gives.
    Above 53 bits it is an mpf rounded at ``p + 8`` bits, 8 guard bits over
    the working precision ``p`` (121 bits at 113); ``c0_main_terms`` uses them.
    """
    if not cfg.extended:
        return 0.5772156649015329
    with _extended(cfg.working_precision + 8) as (mt, pi, real):
        return +mt.euler


def log_two_pi(cfg: PrecisionConfig = DEFAULT_CONFIG):
    """log(2*pi).

    In binary64 this is the literal that rounding the 61-bit value gives;
    ``math.log(2 * math.pi)`` is 1 ulp below it. Above 53 bits it is an mpf
    rounded at ``p + 8`` bits, 8 guard bits over the working precision ``p``
    (121 bits at 113); ``c0_main_terms`` uses them.
    """
    if not cfg.extended:
        return 1.8378770664093456
    with _extended(cfg.working_precision + 8) as (mt, pi, real):
        return mt.log(2 * pi)


# The largest Bernoulli index :func:`bernoulli` returns.
_BERNOULLI_CAP = 64


@lru_cache(maxsize=None)
def _bernoulli_exact(m: int) -> Fraction:
    # Defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0, solved for B_m.
    from fractions import Fraction  # ~4 ms to import: only its users pay

    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * _bernoulli_exact(j)
    return -acc / (m + 1)


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (convention B_1 = -1/2) as a Fraction.

    Computed by the defining recurrence in exact rational arithmetic and
    cached.  Indices above ``_BERNOULLI_CAP`` (64) raise :class:`CapacityError`.
    """
    if m < 0:
        raise PreconditionError(f"Bernoulli index must be >= 0, got {m}")
    if m > _BERNOULLI_CAP:
        raise CapacityError(f"Bernoulli index {m} exceeds maximum {_BERNOULLI_CAP}")
    return _bernoulli_exact(m)


def sum_strategy(values: Iterable, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """Sum a finite sequence, correctly rounded at the working precision.

    ``math.fsum`` in binary64; in extended precision one exact running sum
    (mpmath's ``mpf_sum`` without a precision) rounded once.  Either way the
    result does not depend on the order of the terms, and no term is held
    once it is added.  The empty sum is zero.
    """
    with _context(cfg) as (mt, pi, real):
        if mt is math:
            return math.fsum(values)
        from mpmath.libmp import mpf_pos, mpf_sum

        # convert is lossless; precision 0 rounds nothing, and mpf_sum drops
        # a term only across a gap of 10^6 bits, far past any sum here
        exact = mpf_sum((mt.convert(x)._mpf_ for x in values), 0)
        return mt.mp.make_mpf(mpf_pos(exact, *mt.mp._prec_rounding))


# Fewest terms of work in a child for which its fork pays.  On a 2-vCPU Xeon
# the fork, pipe and reaping cost about 2 ms, what 10k binary64 r(b) terms do
# (r_series(100, K), medians of 61 alternated runs, four sets: K = 8000:
# 1.5-2.2 ms in one process, 2.7-3.0 ms with the child; K = 12000: 2.3-3.1
# and 3.2-4.3 ms; K = 16384: 3.0-3.6 and 3.6-4.7 ms; K = 24576: 4.2-6.7 and
# 4.2-6.3 ms, the child faster in 34 to 49 of 61), so r(b)'s child pays from
# about K/2 = 12k up.  That is below 2^14, and the identity suites fork at the
# same 2^13 terms, so the constant stays.  mpmath's terms cost more, so the
# child pays there too.
_CHILD_MIN_TERMS = 1 << 13


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two(fn, items, child_terms: int) -> list:
    """``[fn(x) for x in items]``, the values of ``items[1::2]`` from a forked child.

    The child computes the values of ``items[1::2]`` while this process
    computes those of ``items[::2]``, and the child's list comes back
    through a pipe; interleaving splits any cost that grows smoothly along
    ``items`` about evenly.  Everything runs here instead if
    ``child_terms``, the caller's estimate of the child's work in terms, is
    below ``_CHILD_MIN_TERMS``, ``os.fork`` is missing, fewer than 2 CPUs
    are usable, another thread is alive (a fork would copy any lock that
    thread holds, ``_MP_LOCK`` included), or ``os.pipe`` or ``os.fork``
    fails.  If the child delivers no complete result, its values are
    computed here, so an exception in fn surfaces in this process.
    fn must be a pure function of its argument: then every path gives the
    same bits.  The child is killed and reaped before this returns, also
    when this process's own half raises.  Call it outside any ``_context``
    block.
    """
    pid = None
    if (
        child_terms >= _CHILD_MIN_TERMS
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and _cpus() >= 2
    ):
        import pickle

        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            pid = os.fork()
        except OSError:  # EAGAIN, ENOMEM or EMFILE: no child, all runs here
            for fd in fds:
                os.close(fd)
    if pid is None:
        return [fn(x) for x in items]
    if pid == 0:
        try:
            os.close(read_fd)
            data = pickle.dumps([fn(x) for x in items[1::2]])
            while data:
                data = data[os.write(write_fd, data):]
        finally:
            os._exit(0)
    os.close(write_fd)
    out = [None] * len(items)
    try:
        out[::2] = [fn(x) for x in items[::2]]
        data = b""
        while chunk := os.read(read_fd, 1 << 16):
            data += chunk
    finally:
        os.close(read_fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    try:
        out[1::2] = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        out[1::2] = [fn(x) for x in items[1::2]]
    return out


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
