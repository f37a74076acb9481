"""Asymptotics tests: block expansion, correction series, constant, residuals."""

import errno
import math
import os
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from cotsum import (
    CapacityError,
    PrecisionConfig,
    PreconditionError,
    c0_main_terms,
    estimate_C0,
    euler_gamma,
    f_term,
    inner_block_expansion,
    log_two_pi,
    r_series,
    residual_scan,
    s_sum_asymptotic,
    s_sum_direct,
    taylor_f1,
    taylor_f2,
)
from cotsum import asymptotics, checks, g_partial, numerics
from cotsum.asymptotics import _neville_to_zero, _r_checkpoints, _r_terms
from cotsum.numerics import _context, sum_strategy


def closed_form_constant(cfg) -> float:
    return (euler_gamma(cfg) - log_two_pi(cfg)) / 2


# ----------------------------------------------------------------- f_term


def test_f_term_hand_values():
    assert f_term(1, 1, 2) == pytest.approx(1 / 3 - 1, rel=1e-15)
    assert f_term(2, 1, 2) == pytest.approx(1 / 9 - 1, rel=1e-15)


def test_f_term_sign_and_decay():
    # first denominator exceeds the second, so the difference is negative
    for k in (10, 100, 10**4, 10**6):
        v = f_term(1, k, 7)
        assert v < 0
        assert abs(v) <= 2.0 / (k * k * 7)


def test_f_term_preconditions():
    with pytest.raises(PreconditionError):
        f_term(0, 1, 2)
    with pytest.raises(PreconditionError):
        f_term(1, 1, 1)


# ------------------------------------------------- inner_block_expansion


def block_sum(k: int, b: int) -> float:
    return math.fsum(1.0 / a for a in range(k * b, (k + 1) * b))


def test_inner_block_expansion_examples(cfg):
    assert abs(inner_block_expansion(1, 10, cfg) - block_sum(1, 10)) <= 1e-4
    assert abs(inner_block_expansion(10, 100, cfg) - block_sum(10, 100)) <= 1e-9
    expected = math.log(3.0) - 1 / 3 + 2 / 27
    assert inner_block_expansion(1, 2, cfg) == pytest.approx(expected, rel=1e-14)
    # remainder scale for the smallest block
    assert abs(inner_block_expansion(1, 2, cfg) - (1 / 2 + 1 / 3)) <= 1 / 16


def test_inner_block_expansion_defect_grid(cfg):
    for k in (1, 2, 5, 10, 20, 50):
        for b in (2, 5, 10, 50, 100):
            defect = abs(inner_block_expansion(k, b, cfg) - block_sum(k, b))
            assert defect <= 1.0 / (k**4 * b**4) + 1e-12


# ------------------------------------------------------------ taylor terms


def test_taylor_f1_remainder_bounds():
    assert abs(f_term(1, 10, 10) / 2 - taylor_f1(10, 10)) <= 10 / (10**4 * 10)
    assert abs(f_term(1, 100, 50) / 2 - taylor_f1(100, 50)) <= 10 / (100**4 * 50)
    # outside the large-k,b regime the values merely stay finite
    assert math.isfinite(taylor_f1(2, 2))


def test_taylor_f2_remainder_bounds():
    assert abs(-f_term(2, 10, 10) / 12 - taylor_f2(10, 10)) <= 10 / (10**5 * 10**2)
    assert abs(-f_term(2, 50, 20) / 12 - taylor_f2(50, 20)) <= 10 / (50**5 * 20**2)
    assert math.isfinite(taylor_f2(1, 10**6))
    # at k = 1 and huge b the 1/(6 k^3 b^2) term dominates the other two
    t = taylor_f2(1, 10**6)
    assert t == pytest.approx(1 / (6 * 10**12), rel=1e-5)


def test_taylor_scaled_defect_grid():
    for k in (10, 20, 50, 100):
        for b in (10, 20, 50, 100):
            d1 = abs(f_term(1, k, b) / 2 - taylor_f1(k, b)) * k**4 * b
            d2 = abs(-f_term(2, k, b) / 12 - taylor_f2(k, b)) * k**5 * b**2
            assert d1 <= 10
            assert d2 <= 10


# ------------------------------------------------------------ s_sum_direct


def test_s_sum_direct_hand_values(cfg):
    assert s_sum_direct(4, 2, cfg) == pytest.approx(16 / 3, rel=1e-14)
    assert s_sum_direct(6, 3, cfg) == pytest.approx(6.7, rel=1e-14)


def test_s_sum_direct_requires_divisibility(cfg):
    with pytest.raises(PreconditionError):
        s_sum_direct(7, 3, cfg)


def test_s_sum_regrouping_identity_exact_rationals():
    # The block regrouping 2b sum_k k * sum_{kb <= a < (k+1)b} 1/a equals the
    # direct definition truncated at (K+1)b - 1; checked incrementally in
    # exact rational arithmetic for every K with b <= 10, K*b <= 1000.
    for b in range(2, 11):
        direct = Fraction(0)  # sum of floor(a/b)/a up to the last block end
        regrouped = Fraction(0)
        a = 1
        for K in range(1, 1000 // b + 1):
            block = Fraction(0)
            for x in range(K * b, (K + 1) * b):
                block += Fraction(1, x)
            regrouped += K * block
            while a <= (K + 1) * b - 1:
                direct += Fraction(a // b, a)
                a += 1
            assert 2 * b * direct == 2 * b * regrouped


def test_s_sum_direct_matches_rational_oracle(cfg):
    for b, L in [(2, 64), (5, 200), (9, 450)]:
        oracle = 2 * b * sum(Fraction(a // b, a) for a in range(1, L + 1))
        assert s_sum_direct(L, b, cfg) == pytest.approx(float(oracle), rel=1e-13)


def _s_sum_counter(L, b, cfg):
    """s_sum_direct's earlier loop: a = b..L with floor(a/b) kept by a counter."""

    def terms(real):
        q = 0
        rem = b - 1
        for a in range(b, L + 1):
            rem += 1
            if rem == b:
                rem = 0
                q += 1
            yield real(q) / a

    with _context(cfg) as (mt, pi, real):
        return 2 * b * sum_strategy(terms(real), cfg)


def _g_partial_counter(b, L, cfg):
    """g_partial's earlier loop: a = 1..L with floor(a/b) kept by a counter."""

    def terms(real):
        q = 0
        rem = 0
        for a in range(1, L + 1):
            rem += 1
            if rem == b:
                rem = 0
                q += 1
                continue
            yield real(b + 2 * b * q - 2 * a) / a

    with _context(cfg) as (mt, pi, real):
        return sum_strategy(terms(real), cfg)


def _bits(x):
    return (type(x), x.hex() if isinstance(x, float) else x._mpf_)


@pytest.mark.parametrize("precision", [53, 113])
def test_block_loops_match_the_counter_loop(precision):
    # one-term blocks (b = 2), L = b, L = b + 1 and L = q*b +/- 1, bit for bit
    cfg = PrecisionConfig(working_precision=precision)
    for b, L in [(2, 2), (2, 10), (7, 7), (7, 14), (7, 70), (10, 60)]:
        assert _bits(s_sum_direct(L, b, cfg)) == _bits(_s_sum_counter(L, b, cfg))
    for b, L in [(2, 2), (2, 3), (2, 11), (7, 7), (7, 8), (7, 20), (7, 22), (7, 100)]:
        assert _bits(g_partial(b, L, cfg)) == _bits(_g_partial_counter(b, L, cfg))


# ---------------------------------------------------------------- r series


def r_term(k: int, b: int) -> float:
    return k * (
        math.log(((k + 1) * b - 1) / (k * b - 1))
        - 1.0 / k
        + 1.0 / (2 * k * k)
        - 1.0 / (b * k * k)
    )


def r_closed_form(b: int, cfg):
    """The limit of r(b) as K -> infinity, at the working precision of cfg.

    Summing k*log(((k+1)b-1)/(kb-1)) by parts leaves log Gamma(N + 1 - 1/b),
    and Stirling's formula takes N -> infinity:

        r(b) = 1 - 1/b + log Gamma(1 - 1/b) + (1/2 - 1/b)*gamma - log(2*pi)/2
    """
    with mpmath.workprec(cfg.working_precision):
        inv_b = mpmath.mpf(1) / b
        return (
            1
            - inv_b
            + mpmath.loggamma(1 - inv_b)
            + (mpmath.mpf(1) / 2 - inv_b) * mpmath.euler
            - mpmath.log(2 * mpmath.pi) / 2
        )


def test_r_series_first_term_and_partial_oracle(cfg):
    # k = 1, b = 2: log(3/1) - 1 + 1/2 - 1/(2*1^2) = log(3) - 1
    assert r_term(1, 2) == pytest.approx(math.log(3.0) - 1.0, rel=1e-12)
    # the log1p form of the terms matches the log-ratio form
    for b in (2, 100):
        for k, term in enumerate(_r_terms(b, 0, 10, math, float), start=1):
            assert term == pytest.approx(r_term(k, b), rel=1e-12)
    ns, (partials,) = _r_checkpoints([2], 100, cfg)
    oracle = math.fsum(r_term(k, 2) for k in range(1, 101))
    assert ns[-1] == 100
    assert partials[-1] == pytest.approx(oracle, rel=1e-12)
    est = r_series([2], 100, cfg)[0]
    assert est.value == _neville_to_zero([1 / n for n in ns], partials)[-1]


def _r_terms_one_by_one(b, lo, hi, mt, real):
    # the term expression with every product formed from an int k
    c = real(1) / 2 - real(1) / b
    for k in range(lo + 1, hi + 1):
        yield k * mt.log1p(real(b) / (k * b - 1)) - real(1) + c / k


def _r_terms_bracket(b, lo, hi, mt, real):
    # the former 14-operation term k*(log1p(b/(kb-1)) - 1/k + 1/(2k^2) -
    # 1/(bk^2)) over an int k, kept as the reference of the accuracy tests
    for k in range(lo + 1, hi + 1):
        kk = k * k
        yield k * (
            mt.log1p(real(b) / (k * b - 1))
            - real(1) / k
            + real(1) / (2 * kk)
            - real(1) / (b * kk)
        )


def _checkpoints_one_by_one(b, K, precision, terms=_r_terms_one_by_one):
    ns = [K // 8, K // 4, K // 2, K]

    def partials(mt, real):
        segments = [
            mt.fsum(terms(b, lo, hi, mt, real))
            for lo, hi in zip([0] + ns, ns)
        ]
        return [mt.fsum(segments[: i + 1]) for i in range(len(ns))]

    if precision == 53:
        return ns, partials(math, float)
    with mpmath.workprec(precision):
        return ns, partials(mpmath, mpmath.mpf)


def _one_b_checkpoints(b, K, cfg):
    ns, (partials,) = _r_checkpoints([b], K, cfg)
    return ns, partials


@pytest.mark.parametrize("precision", [53, 113])
@pytest.mark.parametrize("b", [2, 1000])
def test_r_checkpoints_match_the_term_by_term_sums_bitwise(b, precision):
    # K = 8C puts every checkpoint on a multiple of C, K = 8C -+ 8 puts K/8
    # one term before or after one and the later checkpoints a few terms off,
    # and K = 100 is small; mpmath is slow, so C is 2^12 at 53 bits and 2^6
    # at 113
    chunk = 1 << 12 if precision == 53 else 1 << 6
    cfg = PrecisionConfig(working_precision=precision)
    for K in (100, 8 * chunk - 8, 8 * chunk, 8 * chunk + 8):
        assert _one_b_checkpoints(b, K, cfg) == _checkpoints_one_by_one(b, K, precision)


_ACCURACY_BS = [2, 3, 100, 1000, 10**4, 2**40]


@pytest.mark.parametrize("precision", [53, 113])
@pytest.mark.parametrize("b", _ACCURACY_BS)
def test_r_checkpoints_agree_with_the_bracket_form(b, precision):
    # each partial sum of n terms lies within n * 2^-p of the same sum of the
    # former bracket form's terms; at b = 2^40, b*k passes 2^53 from k = 8193
    K = 2 * 10**4
    cfg = PrecisionConfig(working_precision=precision)
    ns, partials = _one_b_checkpoints(b, K, cfg)
    _, reference = _checkpoints_one_by_one(b, K, precision, _r_terms_bracket)
    for n, got, want in zip(ns, partials, reference):
        with mpmath.workprec(precision):
            gap = abs(got - want)
        assert gap <= n * 2.0**-precision


@pytest.mark.parametrize("K", [2 * 10**4, 2 * 10**5])
@pytest.mark.parametrize("b", _ACCURACY_BS)
def test_r_series_lies_within_its_tail_bound_of_the_closed_form(b, K, cfg, cfg_ext):
    # at b = 2^40, b*k passes 2^53 from k = 8193 and those terms share a
    # rounding bias; the bound's part for them must leave a margin
    share = 0.75 if b == 2**40 else 1
    est = r_series([b], K, cfg)[0]
    assert abs(est.value - r_closed_form(b, cfg_ext)) <= share * est.tail_bound


# The first k with k*k past 2^53, so k*k is no longer an exact double
_K_SQUARED_PAST_2_53 = 94_906_266


def _r_term_windows(b, width):
    # windows (lo, hi] of k: from k = 1, across _K_SQUARED_PAST_2_53, and up
    # to the last k with b*k < 2^53; a window past that last k is left out
    last = (2**53 - 1) // b
    windows = [
        (0, width),
        (_K_SQUARED_PAST_2_53 - width // 2, _K_SQUARED_PAST_2_53 + width // 2),
        (last - width, last),
    ]
    return [(lo, hi) for lo, hi in windows if hi <= last]


@pytest.mark.parametrize("b", [2, 3, 100, 10**4, 10**6, 2**40])
def test_r_terms_have_the_bits_of_the_int_k_form(b):
    # While b*k < 2^53 the float k forms every product of a term with the
    # rounding of the int form, also once k*k is past 2^53
    for lo, hi in _r_term_windows(b, 2000):
        got = [x.hex() for x in _r_terms(b, lo, hi, math, float)]
        assert got == [x.hex() for x in _r_terms_one_by_one(b, lo, hi, math, float)]


def test_r_terms_have_the_bits_of_the_int_k_form_at_113_bits(cfg_ext):
    for b in (3, 10**6):
        for lo, hi in _r_term_windows(b, 64):
            with _context(cfg_ext) as (mt, pi, real):
                got = [x._mpf_ for x in _r_terms(b, lo, hi, mt, real)]
                want = [x._mpf_ for x in _r_terms_one_by_one(b, lo, hi, mt, real)]
            assert got == want


def _forks(monkeypatch):
    # the pids of the children forked from here on, read in this process
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _serial(bs, K, cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(numerics, "_cpus", lambda: 1)
        return r_series(bs, K, cfg)


@pytest.mark.parametrize("precision", [53, 113])
def test_r_series_has_the_same_bits_with_and_without_the_child(precision, monkeypatch):
    # The upper half summed in a forked child (2 CPUs) and in this process
    # (1 CPU), with K/2 one term below the break-even, at it, and one above
    # it with K odd.  mpmath is slow, so at 113 bits the break-even shrinks.
    if precision > 53:
        monkeypatch.setattr(numerics, "_CHILD_MIN_TERMS", 1 << 7)
    least = numerics._CHILD_MIN_TERMS
    cfg = PrecisionConfig(working_precision=precision)
    pids = _forks(monkeypatch)
    for b in (2, 3, 100, 10**4):
        for K in (2 * least - 2, 2 * least, 2 * least + 1):
            results = []
            for cpus in (1, 2):
                monkeypatch.setattr(numerics, "_cpus", lambda: cpus)
                before = len(pids)
                results.append((_one_b_checkpoints(b, K, cfg), r_series([b], K, cfg)))
                forked = cpus == 2 and K - K // 2 >= least
                assert len(pids) - before == (2 if forked else 0)
            assert results[0] == results[1]
            assert results[0][0] == _checkpoints_one_by_one(b, K, precision)
    _assert_reaped(pids)


def test_r_series_leaves_no_child_behind(cfg, monkeypatch):
    # one child sums the upper halves of every r(b) of the call, and each
    # r(b) has the bits of one CPU and of its own one-b call
    K = 2 * numerics._CHILD_MIN_TERMS
    serial = {b: _serial([b], K, cfg, monkeypatch)[0] for b in (100, 1000)}
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    pids = _forks(monkeypatch)
    for bs in ([100], [100, 1000]):
        before = len(pids)
        assert r_series(bs, K, cfg) == [serial[b] for b in bs]
        assert len(pids) - before == 1
    _assert_reaped(pids)


def test_an_interrupt_in_the_parent_kills_and_reaps_the_child(cfg, monkeypatch):
    # the child would sleep for a minute: only a kill ends it in time
    parent = os.getpid()

    def segment(b, lo, hi, cfg):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    monkeypatch.setattr(asymptotics, "_r_segment", segment)
    pids = _forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        r_series([100], 2 * numerics._CHILD_MIN_TERMS, cfg)
    assert time.monotonic() - start < 30
    assert len(pids) == 1
    _assert_reaped(pids)


def test_a_child_that_writes_nothing_leaves_the_bits_alone(cfg, monkeypatch):
    K = 2 * numerics._CHILD_MIN_TERMS
    expected = _serial([100], K, cfg, monkeypatch)
    parent = os.getpid()
    segment = asymptotics._r_segment

    def silent_in_the_child(b, lo, hi, cfg):
        if os.getpid() != parent:
            os._exit(0)
        return segment(b, lo, hi, cfg)

    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    monkeypatch.setattr(asymptotics, "_r_segment", silent_in_the_child)
    pids = _forks(monkeypatch)
    assert r_series([100], K, cfg) == expected
    assert len(pids) == 1
    _assert_reaped(pids)


def _refuse_fork():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _refuse_pipe():
    raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))


def _open_fds():
    """This process's open fds, where /proc lists them; else None."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("refused", ["pipe", "fork"])
def test_a_refused_fork_keeps_the_upper_half_in_process(refused, cfg, monkeypatch):
    # the OS refuses the pipe or the child: no error, no fd left open, and
    # the bits of the one-CPU path
    K = 2 * numerics._CHILD_MIN_TERMS
    expected = _serial([100], K, cfg, monkeypatch)
    pipes = []
    pipe = os.pipe

    def recording_pipe():
        pipes.append(pipe())
        return pipes[-1]

    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    if refused == "pipe":
        monkeypatch.setattr(os, "pipe", _refuse_pipe)
    else:
        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(os, "fork", _refuse_fork)
    fds = _open_fds()
    assert r_series([100], K, cfg) == expected
    assert _open_fds() == fds
    assert len(pipes) == (1 if refused == "fork" else 0)
    for fd in (fd for pair in pipes for fd in pair):
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


def test_a_live_thread_keeps_the_upper_half_in_process(cfg, monkeypatch):
    # a fork could copy a lock the other thread holds, so none is made
    K = 2 * numerics._CHILD_MIN_TERMS
    expected = _serial([100], K, cfg, monkeypatch)
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    pids = _forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        got = r_series([100], K, cfg)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert pids == []
    assert got == expected


@pytest.mark.parametrize("path", ["child", "refused", "silent"])
def test_estimate_c0_forks_one_child_for_every_b(path, cfg, monkeypatch):
    # one child sums the upper halves of all three r(b), and the bits are
    # those of one CPU, also when the fork is refused or the child writes
    # nothing; each r(b) keeps the bits of its own r_series
    bs, K = [100, 1000, 10000], 2 * numerics._CHILD_MIN_TERMS
    with monkeypatch.context() as m:
        m.setattr(numerics, "_cpus", lambda: 1)
        expected = estimate_C0(bs, K, cfg)
        assert expected[1] == r_series(bs, K, cfg)
    monkeypatch.setattr(numerics, "_cpus", lambda: 2)
    pids = _forks(monkeypatch)
    if path == "refused":
        monkeypatch.setattr(os, "fork", _refuse_fork)
    if path == "silent":
        parent = os.getpid()
        segment = asymptotics._r_segment

        def silent_in_the_child(b, lo, hi, cfg):
            if os.getpid() != parent:
                os._exit(0)
            return segment(b, lo, hi, cfg)

        monkeypatch.setattr(asymptotics, "_r_segment", silent_in_the_child)
    assert estimate_C0(bs, K, cfg) == expected
    assert len(pids) == (0 if path == "refused" else 1)
    _assert_reaped(pids)


def test_r_series_converges_to_offset_constant(cfg):
    # r(b) -> 1 + (gamma - log(2*pi))/2 as b grows; at b = 10^4 the defect is
    # O(1/b) and the truncation tail is ~1/(3K)
    est = r_series([10**4], 2 * 10**5, cfg)[0]
    limit = 1 + closed_form_constant(cfg)
    assert abs(est.value - limit) <= 1e-3
    assert est.tail_bound <= 1e-4


def test_r_series_tail_bound_shrinks_with_K(cfg, cfg_ext):
    # from K = 10^3 to 10^4 truncation, not rounding, dominates the bound
    small = r_series([1000], 10**3, cfg)[0]
    large = r_series([1000], 10**4, cfg)[0]
    assert large.tail_bound < small.tail_bound
    # the bound covers the real error, binary64 rounding included, against the
    # 113-bit value at K = infinity, which the 113-bit series confirms
    for b in (2, 100):
        ref = r_closed_form(b, cfg_ext)
        check = r_series([b], 10**4, cfg_ext)[0]
        assert abs(check.value - ref) <= check.tail_bound
        for K in (10**3, 10**4, 10**5):
            est = r_series([b], K, cfg)[0]
            assert abs(est.value - ref) <= est.tail_bound


@pytest.mark.parametrize("b", [3**33, 10**17])
def test_r_series_bound_holds_past_b_k_2_53(b, cfg, cfg_ext):
    # b*k passes 2^53 from k = 2 (3^33) or from k = 1 (10^17), where k*b - 1
    # and (b*k)*k can round twice: a term can move by about one ulp, which the
    # K * 2^-53 rounding part of the bound covers
    ref = r_closed_form(b, cfg_ext)
    for K in (10**3, 10**4):
        est = r_series([b], K, cfg)[0]
        assert abs(est.value - ref) <= est.tail_bound


def test_r_series_rate_in_b(cfg):
    # |r(2b) - r(b)| <= 2/b
    for b in (100, 1000):
        r_b, r_2b = r_series([b, 2 * b], 2 * 10**5, cfg)
        gap = abs(r_2b.value - r_b.value)
        assert gap <= 2.0 / b


def test_r_series_preconditions(cfg, monkeypatch):
    summed = []
    monkeypatch.setattr(asymptotics, "_r_segment", lambda *args: summed.append(args))
    for bs, K, message in (
        ([1], 1000, "every b must be >= 2"),
        ([], 1000, "need at least 1 value of b"),
        ([100, 10], 1000, "strictly increasing"),
        ([100, 100], 1000, "strictly increasing"),
        ([1], 50, "every b must be >= 2"),
        ([10], 50, "need K >= 100"),
    ):
        with pytest.raises(PreconditionError, match=message):
            r_series(bs, K, cfg)
    assert summed == []


# --------------------------------------------------------------- estimate_C0


def test_estimate_c0_small_K(cfg):
    est, _ = estimate_C0([100, 1000, 10000], 10**5, cfg)
    assert abs(est.value - closed_form_constant(cfg)) <= 1e-3
    assert est.tail_bound > 0


def test_estimate_c0_doubling_halves_the_gap(cfg):
    coarse, _ = estimate_C0([50, 500, 5000], 5 * 10**4, cfg)
    fine, _ = estimate_C0([100, 1000, 10000], 10**5, cfg)
    target = closed_form_constant(cfg)
    assert abs(fine.value - target) <= abs(coarse.value - target) / 2 + 1e-9


def test_estimate_c0_small_bs_is_coarser(cfg):
    small_bs, _ = estimate_C0([2, 3, 4], 10**5, cfg)
    good, _ = estimate_C0([100, 1000, 10000], 10**5, cfg)
    target = closed_form_constant(cfg)
    assert abs(small_bs.value - target) >= abs(good.value - target)
    assert small_bs.tail_bound >= good.tail_bound


def test_estimate_c0_preconditions(cfg):
    with pytest.raises(PreconditionError):
        estimate_C0([1000], 10**4, cfg)
    with pytest.raises(PreconditionError):
        estimate_C0([1000, 2000], 10**4, cfg)
    with pytest.raises(PreconditionError):
        estimate_C0([2000, 1000, 100], 10**4, cfg)


def test_estimate_c0_checks_K_before_it_sums(cfg, monkeypatch):
    summed = []
    monkeypatch.setattr(asymptotics, "_r_segment", lambda *args: summed.append(args))
    with pytest.raises(PreconditionError):
        estimate_C0([100, 1000, 10000], 99, cfg)
    assert summed == []


def test_estimate_c0_reaches_the_extrapolation_floor(cfg):
    # the 1/K extrapolation leaves the 3-node 1/b extrapolation's ~4e-10 error
    est, _ = estimate_C0([100, 1000, 10000], 2 * 10**4, cfg)
    assert abs(est.value - closed_form_constant(cfg)) <= 1e-9


def test_estimate_c0_tail_bound_covers_the_gap_closely(cfg):
    # the bound is about twice the extrapolation error, not ~200 times it
    est, _ = estimate_C0([100, 1000, 10000], 2 * 10**4, cfg)
    gap = abs(est.value - closed_form_constant(cfg))
    assert gap <= est.tail_bound <= 10 * gap


# ---------------------------------------------------------- s_sum closure


def test_s_sum_asymptotic_single_case(cfg):
    b, L = 10, 10**5
    defect = abs(
        s_sum_direct(L, b, cfg)
        - s_sum_asymptotic(L, b, closed_form_constant(cfg), cfg)
    )
    assert defect <= 2 + 0.05 * b * b / L


def test_s_sum_asymptotic_requires_divisibility(cfg):
    with pytest.raises(PreconditionError):
        s_sum_asymptotic(101, 10, -0.63, cfg)


# ------------------------------------------------------------- main terms


def test_c0_main_terms_hand_values(cfg):
    assert c0_main_terms(4, cfg) == pytest.approx(0.15997, abs=1e-4)
    assert c0_main_terms(3, cfg) == pytest.approx(-0.15475, abs=1e-4)
    assert c0_main_terms(2, cfg) == pytest.approx(-0.36128, abs=1e-4)


def test_c0_main_terms_formula(cfg):
    for b in (7, 101, 4096):
        expected = (
            b * math.log(b) / math.pi
            - b * (log_two_pi(cfg) - euler_gamma(cfg)) / math.pi
        )
        assert c0_main_terms(b, cfg) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ residual scan


def test_residual_scan_spot_values(cfg):
    records, report = residual_scan([3, 4], cfg)
    assert [r.b for r in records] == [3, 4]
    assert records[0].delta == pytest.approx(0.3472, abs=1e-3)
    assert records[1].delta == pytest.approx(0.3400, abs=1e-3)
    for r in records:
        assert r.delta == r.c0_exact - r.c0_main_terms
    assert report.max_abs_delta == pytest.approx(0.3472, abs=1e-3)


def test_residual_scan_delta_keeps_the_working_precision(cfg_ext):
    # delta is formed at 113 bits, not rounded to mpmath's ambient 53
    records, _ = residual_scan([256, 4096], cfg_ext)
    for r in records:
        with mpmath.workprec(113):
            expected = r.c0_exact - r.c0_main_terms
        assert r.delta._mpf_ == expected._mpf_


def test_residual_scan_single_b(cfg):
    records, report = residual_scan([3], cfg)
    assert report.slope == 0.0
    assert report.intercept == pytest.approx(records[0].delta)


def test_residual_scan_validation(cfg):
    with pytest.raises(PreconditionError):
        residual_scan([], cfg)
    with pytest.raises(PreconditionError):
        residual_scan([4, 3], cfg)
    with pytest.raises(PreconditionError):
        residual_scan([1, 3], cfg)


def test_residual_scan_checks_the_c0_cap_before_the_first_row(cfg, monkeypatch):
    # the ladder ends past c0's k < 2^32: no row is computed at all, and the
    # error names the first b past the cap, as c0 itself would
    calls = []

    def counted(frac, cfg):
        calls.append(frac.k)
        return 0.0

    monkeypatch.setattr(asymptotics, "c0", counted)
    with pytest.raises(CapacityError, match=r"c0 requires k < 2\^32, got k = 4294967296"):
        residual_scan([3, 2**31, 2**32, 2**33], cfg)
    assert calls == []


def test_residual_scan_holds_one_previous_row(cfg):
    # a doubling row reuses only the half row's exact parts, a few floats a
    # chunk, so the peak is one chunk's arrays (0.63 MiB measured); keeping
    # the terms of the half row 2^19 instead would take 2 MiB.  numpy is
    # imported and a first scan run before tracing starts, so neither the
    # import nor first-call setup is counted.
    import numpy  # noqa: F401

    bs = [2**j for j in range(8, 21)]
    residual_scan(bs[:3], cfg)
    tracemalloc.start()
    try:
        residual_scan(bs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_residual_scan_small_ladder_is_flat(cfg):
    records, report = residual_scan([2**j for j in range(6, 12)], cfg)
    assert abs(report.slope) <= 0.02
    assert report.max_abs_delta <= 1.0


# ------------------------------------------------- extended-precision spot


def test_extended_precision_holds_a_fortiori(cfg_ext):
    # the same bound shapes at 113 bits
    assert abs(inner_block_expansion(1, 10, cfg_ext) - block_sum(1, 10)) <= 1e-4
    b, L = 10, 10**4
    defect = abs(
        s_sum_direct(L, b, cfg_ext)
        - s_sum_asymptotic(L, b, closed_form_constant(cfg_ext), cfg_ext)
    )
    assert defect <= 2 + 0.05 * b * b / L
    est = r_series([1000], 10**4, cfg_ext)[0]
    assert abs(est.value - (1 + closed_form_constant(cfg_ext))) <= 2e-3


def test_lemma5_forms_the_constant_at_working_precision(cfg_ext, monkeypatch):
    # formed outside a precision block, it would round to 53 bits, ~2e-17 off
    used = []
    s_sum_asymptotic = asymptotics.s_sum_asymptotic

    def recording(L, b, C0, cfg):
        used.append(C0)
        return s_sum_asymptotic(L, b, C0, cfg)

    monkeypatch.setattr(asymptotics, "s_sum_asymptotic", recording)
    checks.lemma5(1, None, cfg_ext)
    with mpmath.workprec(200):
        reference = (mpmath.euler - mpmath.log(2 * mpmath.pi)) / 2
        assert used and all(abs(C0 - reference) <= 1e-33 for C0 in used)
