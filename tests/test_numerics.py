"""Kernel tests: constants, Bernoulli numbers, cotangent rows, summation."""

import math
import os
import random
import threading
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath.libmp import from_rational, round_nearest
from test_asymptotics import _assert_reaped, _forks, _open_fds, _refuse_fork

from cotsum import (
    CapacityError,
    ConstantEstimate,
    PrecisionConfig,
    PreconditionError,
    ReducedFraction,
    bernoulli,
    c0,
    euler_gamma,
    log_two_pi,
    sum_strategy,
)
from cotsum import numerics
from cotsum.exact import _cot_kernel, _unit_row
from cotsum.numerics import (
    _MP_LOCK,
    _context,
    _exact_parts,
    _in_two,
)

ULP = 2.0**-52


# ---------------------------------------------------------------- constants


def gamma_oracle_harmonic() -> float:
    """gamma from the harmonic sum with its endpoint corrections.

    H_N = log N + gamma + 1/(2N) - 1/(12 N^2) + O(N^-4); at N = 10^6 the
    truncation is far below binary64 resolution.
    """
    n = 10**6
    h = math.fsum(1.0 / i for i in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n * n)


def gamma_oracle_alternating() -> float:
    """Second, independent route: the alternating series

        sum_{n>=1} (-1)^(n-1) log(n)/n = log(2)^2/2 - gamma*log(2),

    accelerated by repeated averaging of its partial sums.
    """
    terms = [(-1) ** (n - 1) * math.log(n) / n for n in range(1, 4001)]
    partials = []
    acc = 0.0
    for t in terms:
        acc += t
        partials.append(acc)
    # repeated averaging: each pass halves the oscillating component
    row = partials[-600:]
    for _ in range(40):
        row = [(row[i] + row[i + 1]) / 2 for i in range(len(row) - 1)]
    alt_sum = row[len(row) // 2]
    log2 = math.log(2.0)
    return (log2 * log2 / 2 - alt_sum) / log2


def test_euler_gamma_against_two_independent_oracles(cfg):
    g = euler_gamma(cfg)
    assert abs(g - gamma_oracle_harmonic()) < 5e-13
    assert abs(g - gamma_oracle_alternating()) < 1e-9
    assert 0.577215 < g < 0.577216


def test_euler_gamma_precision_monotone(cfg, cfg_ext):
    g53 = euler_gamma(cfg)
    g113 = euler_gamma(cfg_ext)
    assert abs(float(g113) - g53) < 1e-15  # first 15 digits agree


def test_euler_gamma_is_harmonic_limit(cfg):
    # the O(1/x) remainder of H(x) - log(x) at x = 10^6
    n = 10**6
    h = math.fsum(1.0 / i for i in range(1, n + 1))
    assert abs(euler_gamma(cfg) - (h - math.log(n))) < 1e-6


def test_log_two_pi_value_and_identities(cfg):
    v = log_two_pi(cfg)
    assert v == pytest.approx(1.8378770664093456, abs=4 * ULP)
    assert math.exp(v) / (2 * math.pi) == pytest.approx(1.0, abs=4 * ULP)
    assert v - math.log(2) - math.log(math.pi) == pytest.approx(0.0, abs=4 * ULP)


def test_binary64_constants_are_the_rounded_61_bit_values(cfg):
    # the binary64 literals are what the mpmath path at 53 + 8 bits rounded
    # to; math.log(2*math.pi) rounds its argument first and lands 1 ulp low
    with mpmath.workprec(61):
        gamma61 = float(+mpmath.euler)
        l2p61 = float(mpmath.log(2 * (+mpmath.pi)))
    assert euler_gamma(cfg) == gamma61 == 0.5772156649015329
    assert log_two_pi(cfg) == l2p61 == 1.8378770664093456
    assert math.log(2 * math.pi) == 1.8378770664093453
    assert type(euler_gamma(cfg)) is float and type(log_two_pi(cfg)) is float


def test_log_two_pi_extended_digits(cfg_ext):
    v = log_two_pi(cfg_ext)
    with mpmath.workprec(160):
        ref = mpmath.log(2 * mpmath.pi)
        assert abs(v - ref) < mpmath.mpf(2) ** -110


# ---------------------------------------------------------------- bernoulli


def test_bernoulli_small_values():
    assert bernoulli(0) == Fraction(1)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == Fraction(0)
    assert bernoulli(4) == Fraction(-1, 30)
    assert type(bernoulli(12)) is Fraction


def test_bernoulli_odd_indices_vanish():
    for m in range(3, 64, 2):
        assert bernoulli(m) == 0


def test_bernoulli_recurrence_exact():
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for every m >= 1, with no tolerance
    for m in range(1, 65):
        acc = sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
        assert acc == 0


def test_bernoulli_capacity_and_domain():
    with pytest.raises(CapacityError):
        bernoulli(65)
    with pytest.raises(PreconditionError):
        bernoulli(-1)


# ------------------------------------------------------------ cotangent


def test_cot_row_antisymmetry_exhaustive():
    # cot(pi*(k-m)/k) = -cot(pi*m/k), bitwise by construction
    for k in range(2, 201):
        cot = _unit_row(k, 53)[0]
        assert len(cot) == k - 1
        for m in range(1, k):
            assert cot[m - 1] == -cot[k - m - 1]


@given(
    k=st.integers(min_value=2, max_value=10**6),
    r=st.integers(min_value=1, max_value=10**6),
)
def test_cot_kernel_matches_high_precision_oracle(k, r):
    r = r % k
    if r == 0:
        return
    got = _cot_kernel(r, k, math, math.pi)
    if 2 * r == k:
        assert got == 0.0  # cot(pi/2) is exactly zero
        return
    with mpmath.workprec(80):
        ref = mpmath.cot(mpmath.pi * r / k)
        assert abs(got - ref) <= 8 * ULP * abs(ref)


def test_cot_kernel_extended_precision(cfg_ext):
    with _context(cfg_ext) as (mt, pi, real):
        v = _cot_kernel(1, 3, mt, pi)
    with mpmath.workprec(160):
        ref = mpmath.cot(mpmath.pi / 3)
        assert abs(v - ref) < mpmath.mpf(2) ** -105


def _mp_lock_is_free() -> bool:
    """Whether another thread can take the mpmath lock (it is re-entrant, so
    this thread could take it even while holding it)."""
    free = []

    def probe():
        got = _MP_LOCK.acquire(blocking=False)
        if got:
            _MP_LOCK.release()
        free.append(got)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return free[0]


def test_context_restores_precision_and_releases_the_lock(cfg, cfg_ext):
    assert isinstance(_context(cfg), nullcontext)
    with _context(cfg_ext):
        assert mpmath.mp.prec == 113
        assert not _mp_lock_is_free()

    def failing():
        yield mpmath.mpf(1)
        raise RuntimeError("iterable failed")

    # the iterable raises inside sum_strategy's block
    with pytest.raises(RuntimeError, match="iterable failed"):
        sum_strategy(failing(), cfg_ext)
    assert mpmath.mp.prec == 53
    assert _mp_lock_is_free()
    # sum_strategy returns from inside its block
    assert sum_strategy([0.5, 0.25], cfg_ext) == 0.75
    assert mpmath.mp.prec == 53
    assert _mp_lock_is_free()


# ------------------------------------------------------------ sum_strategy


def test_sum_basic(cfg):
    assert sum_strategy([1.0, 2.0, 3.0], cfg) == 6.0
    assert sum_strategy([], cfg) == 0.0
    assert sum_strategy(iter([]), cfg) == 0.0


def test_sum_compensated_beats_naive_drift(cfg):
    # a naive running sum drifts by ~1e-6 here; the correctly rounded sum
    # has no drift at all
    values = [0.1] * 10**6
    assert sum_strategy(values, cfg) == float(10**6 * Fraction(0.1))


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=300))
def test_all_strategies_agree_with_fsum(values):
    # one correct rounding of the exact rational sum, not mere closeness
    exact = sum(map(Fraction, values))
    assert sum_strategy(values, PrecisionConfig()) == float(exact)


def test_compensated_matches_exact_rational_reference(cfg):
    # c0-style weighted cotangent terms, against the exact sum of the same
    # binary64 values
    for k in (101, 1009, 9973):
        cot = _unit_row(k, 53)[0]
        terms = [(cot[r - 1] * m) / k for m, r in zip(range(1, k), _residues(3, k))]
        exact = sum(Fraction(t) for t in terms)
        assert sum_strategy(terms, cfg) == float(exact)


def test_sum_extended_matches_exact_rational_reference(cfg_ext):
    k = 1009
    cot = _unit_row(k, 113)[0]
    with mpmath.workprec(113):
        terms = [(cot[r - 1] * m) / k for m, r in zip(range(1, k), _residues(3, k))]
    exact = sum(_mpf_fraction(t) for t in terms)
    got = _mpf_fraction(sum_strategy(terms, cfg_ext))
    assert abs(got - exact) <= abs(exact) * Fraction(1, 2**105)


def test_sum_extended_matches_the_exact_sum_rounded_once(cfg_ext):
    # mixed signs and magnitudes 2^-120..2^-20 over 3 chunks of 4096 and a
    # tail, a float and an int among them, and a pair near 2^60 in the first
    # and last chunks that cancels: a partial rounded to 113 bits would lose
    # the first chunk's small terms.  The oracle is the exact rational sum,
    # rounded once: mpmath.fsum drops far-apart partials as mpf_sum does.
    rng = random.Random(20151)
    with mpmath.workprec(113):
        big = mpmath.mpf(rng.getrandbits(113)) * 2**-53
        terms = [big]
        for _ in range(3 * 4096 + 15):
            x = mpmath.ldexp(rng.getrandbits(113), rng.randint(-233, -133))
            terms.append(-x if rng.random() < 0.5 else x)
        terms[100], terms[5000] = 0.1, -7
        terms.append(-big)
        exact = sum(_mpf_fraction(mpmath.mpf(t)) for t in terms)
    expected = from_rational(exact.numerator, exact.denominator, 113, round_nearest)
    assert sum_strategy(terms, cfg_ext)._mpf_ == expected
    assert sum_strategy(iter(terms), cfg_ext)._mpf_ == expected
    assert isinstance(sum_strategy([], cfg_ext), mpmath.mpf)


def test_sum_extended_keeps_a_term_between_two_far_cancelling_ones(cfg_ext):
    # 2^400 and -2^400 with a 1 between them, 4096 zeros apart: a sum that
    # rounds partials of 4096 terms drops the 1 beside 2^400, as
    # mpmath.fsum does; one exact running sum keeps it
    with mpmath.workprec(113):
        big = mpmath.mpf(2) ** 400
    terms = [big] + [0] * 4095 + [1] + [0] * 4095 + [-big]
    assert sum_strategy(terms, cfg_ext) == 1
    assert sum_strategy(iter(terms), cfg_ext) == 1


def test_sum_extended_memory_does_not_grow_with_the_terms(cfg_ext):
    # c0(1/2^16) at 113 bits sums 32767 terms; held all at once, as one
    # mpmath.fsum holds them, they peak at 4.7 MiB, one chunk of 4096 at
    # 1.2 MiB, and one running sum at 54 KiB
    c0(ReducedFraction(1, 64), cfg_ext)  # mpmath's lazy imports and caches
    tracemalloc.start()
    try:
        c0(ReducedFraction(1, 2**16), cfg_ext)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10


def _exact_sum(values) -> float:
    """float(sum(map(Fraction, values))), by integers: every finite float is
    an integer multiple of 2^-1074, and int / int rounds correctly."""
    scale = 2**1074
    total = 0
    for v in values:
        num, den = v.as_integer_ratio()
        total += num * (scale // den)
    return float(Fraction(total, scale))


def _passes_bound(x) -> int:
    # each pass lowers the exponent of max|r| by at least 51 - bitlen(n+1),
    # from frexp(max|x|) down to at worst frexp(2^-1074) = -1073
    top = math.frexp(float(np.abs(x).max()))[1]
    return -(-(top + 1073) // (51 - (len(x) + 1).bit_length())) + 1


@st.composite
def _float_arrays(draw):
    """float64 arrays of 1..2^14+1 terms over a drawn band of 2^-1074..2^900.

    Some share one sign, so the sum of each pass's q grows like n*max|x|;
    some are followed by their own negations, shuffled (total cancellation);
    some are all zeros of one sign.
    """
    n = draw(st.integers(min_value=1, max_value=2**14 + 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    kind = draw(st.sampled_from(["band", "one_sign", "cancel", "zeros"]))
    if kind == "zeros":
        return np.full(n, draw(st.sampled_from([-0.0, 0.0])))
    lo = draw(st.integers(min_value=-1074, max_value=900))
    hi = draw(st.integers(min_value=lo, max_value=min(900, lo + 200)))
    mant = rng.random(n) + 0.5
    if kind == "one_sign":
        sign = draw(st.sampled_from([-1.0, 1.0]))
    else:
        sign = rng.choice([-1.0, 1.0], n)
    x = np.ldexp(mant * sign, rng.integers(lo, hi + 1, n))
    if kind == "cancel":
        x = np.concatenate([x, -rng.permutation(x)])
    return x


@given(_float_arrays())
def test_exact_parts_sum_to_the_exact_sum(x):
    # one fsum over the parts rounds the chunk's exact sum, as one fsum over
    # the terms does: equal values, and the same bits as fsum of the terms
    before = x.copy()
    parts = _exact_parts(x)
    got = math.fsum(parts)
    assert got == _exact_sum(x.tolist())
    assert got.hex() == math.fsum(x.tolist()).hex()
    assert 1 <= len(parts) <= _passes_bound(x)
    assert np.array_equal(x.view(np.int64), before.view(np.int64))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_exact_parts_never_return_a_wrong_sum(values):
    # magnitudes up to the largest float: either the sum is exact, or the
    # input is refused because sigma would overflow
    x = np.array(values)
    limit = 2.0 ** (1022 - (len(x) + 1).bit_length())
    try:
        parts = _exact_parts(x)
    except PreconditionError:
        assert np.abs(x).max() >= limit
        return
    assert np.abs(x).max() < limit
    assert math.fsum(parts).hex() == math.fsum(values).hex()
    assert math.fsum(parts) == _exact_sum(values)


def test_exact_parts_edge_inputs():
    assert _exact_parts(np.array([], dtype=np.float64)) == []
    # one zero with the sign an IEEE sum of the zeros has
    assert math.copysign(1.0, _exact_parts(np.full(5, -0.0))[0]) == -1.0
    assert math.copysign(1.0, _exact_parts(np.array([-0.0, 0.0]))[0]) == 1.0
    assert _exact_parts(np.array([5e-324, -5e-324, 5e-324])) == [5e-324]
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionError):
            _exact_parts(np.array([1.0, bad, 2.0]))
    # n = 1: sigma = 2^(e + 3) overflows from max|x| = 2^1020
    with pytest.raises(PreconditionError):
        _exact_parts(np.array([2.0**1020]))
    below = math.nextafter(2.0**1020, 0.0)
    assert math.fsum(_exact_parts(np.array([below]))) == below


def _mpf_fraction(x) -> Fraction:
    man, exp = x.man_exp  # magnitude only
    return int(mpmath.sign(x)) * Fraction(man) * Fraction(2) ** exp


def _residues(h, k):
    r = 0
    for _ in range(1, k):
        r = (r + h) % k
        yield r


# ------------------------------------------------------------ config types


def _assert_immutable_value(make, field):
    """Two records of equal fields are equal, hash alike and refuse writes.

    The records are named tuples.  Their ``_replace`` would skip the checks
    in ``__new__``; nothing in the package calls it.
    """
    record, twin = make(), make()
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    assert record == twin and hash(record) == hash(twin)


def test_precision_config_validation():
    with pytest.raises(PreconditionError):
        PrecisionConfig(working_precision=52)
    assert PrecisionConfig(working_precision=113).extended
    assert not PrecisionConfig().extended
    assert PrecisionConfig() == PrecisionConfig(53) == numerics.DEFAULT_CONFIG
    _assert_immutable_value(lambda: PrecisionConfig(113), "working_precision")
    _assert_immutable_value(lambda: ConstantEstimate(0.5, 1e-9), "value")


def test_reduced_fraction_invariants():
    ReducedFraction(1, 2)
    ReducedFraction(3, 8)
    for h, k in ((1, 1), (2, 4), (4, 3), (0, 5), (2, 1)):
        with pytest.raises(PreconditionError):
            ReducedFraction(h, k)
    _assert_immutable_value(lambda: ReducedFraction(3, 8), "h")
    assert ReducedFraction(3, 8) != ReducedFraction(5, 8)


@given(h=st.integers(min_value=1, max_value=500), k=st.integers(min_value=2, max_value=500))
def test_reduced_fraction_accepts_exactly_the_coprime_pairs(h, k):
    if h < k and math.gcd(h, k) == 1:
        frac = ReducedFraction(h, k)
        assert (frac.h, frac.k) == (h, k)
    else:
        with pytest.raises(ValueError):
            ReducedFraction(h, k)


# ------------------------------------------------------------------ _in_two


def test_in_two_raises_the_error_of_fn_here(monkeypatch):
    # the child fails on its item without writing; the error surfaces when
    # its value is computed here, and the child is reaped
    calls, pids = [], []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def failing(x):
        calls.append((os.getpid(), x))
        if x == "boom":
            raise ValueError(x)
        return x

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    with pytest.raises(ValueError, match="boom"):
        _in_two(failing, ["fine", "boom"], numerics._CHILD_MIN_TERMS)
    assert calls == [(os.getpid(), "fine"), (os.getpid(), "boom")]
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def _value(x):
    # a pure function whose values carry their item, so an interleaving
    # error shows as a misplaced value
    return x, math.sqrt(x) / 3


@pytest.mark.parametrize(
    "path", ["child", "one cpu", "refused", "silent", "too small"]
)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 28])
@pytest.mark.parametrize("as_list", [True, False])
def test_in_two_is_the_map_of_fn_on_every_path(path, n, as_list, monkeypatch):
    items = list(range(n)) if as_list else range(n)
    parent, here = os.getpid(), []

    def fn(x):
        if os.getpid() != parent:
            if path == "silent":
                os._exit(0)
        else:
            here.append(x)
        return _value(x)

    monkeypatch.setattr(numerics, "_cpus", lambda: 1 if path == "one cpu" else 2)
    pids = _forks(monkeypatch)
    if path == "refused":
        monkeypatch.setattr(os, "fork", _refuse_fork)
    fds = _open_fds()
    least = numerics._CHILD_MIN_TERMS
    got = _in_two(fn, items, least - 1 if path == "too small" else least)
    assert type(got) is list
    assert got == [_value(x) for x in items]
    assert _open_fds() == fds
    assert len(pids) == (1 if path in ("child", "silent") else 0)
    _assert_reaped(pids)
    # on the child path this process computed only the even-indexed values
    expected_here = {
        "child": list(items[::2]),
        "silent": list(items[::2]) + list(items[1::2]),
    }.get(path, list(items))
    assert here == expected_here


# A child can be moved off its parent's CPU only where another one is usable.
_TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and 2 usable CPUs",
)


def _mask(x):
    return x, sorted(os.sched_getaffinity(0))


@_TWO_CPUS
def test_in_two_runs_the_child_off_the_parents_cpu(monkeypatch):
    usable = sorted(os.sched_getaffinity(0))
    parent = os.getpid()
    pids = _forks(monkeypatch)
    items = list(range(5))
    for c in usable:
        # the reader is asked for this process's CPU; any other pid pins nothing
        monkeypatch.setattr(
            numerics, "_cpu_of", lambda pid, c=c: c if pid == parent else None
        )
        got = _in_two(_mask, items, numerics._CHILD_MIN_TERMS)
        others = [cpu for cpu in usable if cpu != c]
        assert got == [(x, others if x % 2 else usable) for x in items]
        assert sorted(os.sched_getaffinity(0)) == usable
    assert len(pids) == len(usable)
    _assert_reaped(pids)


@_TWO_CPUS
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_the_cpu_reader_names_a_usable_cpu():
    usable = os.sched_getaffinity(0)
    assert numerics._cpu_of(os.getpid()) in usable
    # unpatched, the child keeps every usable CPU but one
    got = _in_two(_mask, [0, 1], numerics._CHILD_MIN_TERMS)
    assert got[0] == (0, sorted(usable))
    assert len(got[1][1]) == len(usable) - 1
    assert set(got[1][1]) < usable


def _refuse(*args):
    raise OSError("refused")


@_TWO_CPUS
@pytest.mark.parametrize("fails", ["reader", "setaffinity", "no setaffinity"])
def test_a_child_that_cannot_leave_the_parents_cpu_runs_unpinned(fails, monkeypatch):
    parent, here = os.getpid(), []

    def fn(x):
        if os.getpid() == parent:
            here.append(x)
        return _mask(x)

    if fails == "reader":
        monkeypatch.setattr(numerics, "_cpu_of", _refuse)
    elif fails == "setaffinity":
        monkeypatch.setattr(os, "sched_setaffinity", _refuse)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    pids = _forks(monkeypatch)
    items = list(range(5))
    got = _in_two(fn, items, numerics._CHILD_MIN_TERMS)
    assert got == [_mask(x) for x in items]
    # the child computed its half
    assert here == items[::2]
    assert len(pids) == 1
    _assert_reaped(pids)


def test_in_two_on_one_cpu_forks_and_pins_nothing(monkeypatch):
    # under a one-CPU mask (taskset -c 0) this is the real path, else _cpus says 1
    if numerics._cpus() > 1:
        monkeypatch.setattr(numerics, "_cpus", lambda: 1)
    pinned = []
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda *args: pinned.append(args), raising=False
    )
    pids = _forks(monkeypatch)
    items = list(range(5))
    assert _in_two(_mask, items, 1 << 20) == [_mask(x) for x in items]
    assert pids == []
    assert pinned == []
