"""Finite-sum tests: c0, the value at the origin, identities."""

import math
import random
import tracemalloc
from fractions import Fraction
from math import gcd
from operator import is_

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import cotsum.exact
from cotsum import (
    CapacityError,
    PrecisionConfig,
    PreconditionError,
    ReducedFraction,
    c0,
    checks,
    cot_cos_identity_residual,
    estermann_at_zero,
    frac_via_cot_sin,
    sum_strategy,
)
from cotsum.asymptotics import residual_scan
from cotsum.exact import (
    _C0_CHUNK,
    _ROW_COPIES,
    _cot_derivative_coeffs,
    _cot_kernel,
    _gathered,
    _half_row_chunks,
    _half_row_sum,
    _horner,
    _row_parts,
    _unit_row,
)
from cotsum.numerics import _context

ULP = 2.0**-52


# ------------------------------------------------------------------- c0


def test_c0_hand_values(cfg):
    assert abs(c0(ReducedFraction(1, 2), cfg)) <= 1e-15
    assert c0(ReducedFraction(1, 3), cfg) == pytest.approx(
        math.sqrt(3) / 9, rel=1e-12
    )
    assert c0(ReducedFraction(1, 4), cfg) == pytest.approx(0.5, rel=1e-12)
    assert c0(ReducedFraction(2, 3), cfg) == pytest.approx(
        -math.sqrt(3) / 9, rel=1e-12
    )


def test_c0_antisymmetry_exhaustive_small(cfg):
    # c0((k-h)/k) = -c0(h/k) bitwise: the residues of k-h are k - r_m, whose
    # folded cotangents, and so terms, are exact negations
    for k in range(2, 161):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            assert c0(ReducedFraction(k - h, k), cfg) == -c0(ReducedFraction(h, k), cfg)


@given(
    k=st.integers(min_value=161, max_value=500),
    h_seed=st.integers(min_value=1, max_value=10**9),
)
def test_c0_antisymmetry_sampled_large(k, h_seed):
    h = 1 + h_seed % (k - 1)
    while gcd(h, k) != 1:
        h = h % (k - 1) + 1
    lhs = c0(ReducedFraction(k - h, k))
    rhs = -c0(ReducedFraction(h, k))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_c0_rejects_k_beyond_int64_residues(cfg, cfg_ext):
    # m*h with m <= k/2 and h < k must fit in int64; raised before any work
    for config in (cfg, cfg_ext):
        with pytest.raises(CapacityError):
            c0(ReducedFraction(1, 2**32 + 1), config)


def test_c0_powers_of_two_match_the_full_row(cfg):
    # the half-row sum reproduces -fsum over the full row bit for bit at k = 2^j
    for j in range(8, 17):
        k = 2**j
        full_row = -math.fsum(
            _cot_kernel(m, k, math, math.pi) * m / k for m in range(1, k)
        )
        assert c0(ReducedFraction(1, k), cfg) == full_row


# c0(h/k).hex() at the residuals ladder's rows b = 2^8..2^22 (h = 1), at
# three larger arguments with odd k, and at four with even k and h != 1, as
# computed by the m-indexed half-row kernel.  The half row of (2^21 + 1, 2^22)
# is row (1, 2^21).
C0_PINNED_HEX = {
    (1, 2**8): "0x1.5d73d2440e4bep+8",
    (1, 2**9): "0x1.95c69640df0e2p+9",
    (1, 2**10): "0x1.ce2dc5ff19f99p+10",
    (1, 2**11): "0x1.034f943ce58fep+12",
    (1, 2**12): "0x1.1f8ad1c4d3c8ep+13",
    (1, 2**13): "0x1.3bc75558ead9cp+14",
    (1, 2**14): "0x1.58047beccdd7cp+15",
    (1, 2**15): "0x1.7441f3ff04acbp+16",
    (1, 2**16): "0x1.907f94d000e51p+17",
    (1, 2**17): "0x1.acbd4a0046ad4p+18",
    (1, 2**18): "0x1.c8fb09602af4cp+19",
    (1, 2**19): "0x1.e538cdd7dce9ep+20",
    (1, 2**20): "0x1.00bb4a6dbaa8ap+22",
    (1, 2**21): "0x1.0eda2e92806c5p+23",
    (1, 2**22): "0x1.1cf91308c2f4ep+24",
    (1234567, 2**22 + 1): "0x1.73c875eed7da0p+19",
    (2**22, 2**22 + 1): "-0x1.1cf917ce24021p+24",
    (3, 2**20 + 1): "0x1.48e3fba914580p+20",
    (3, 2**20): "0x1.280b9f973c55bp+20",
    (12345, 2**22): "-0x1.23618b7a7d46ap+18",
    (2**21 + 1, 2**22): "0x1.00bb49cac11efp+23",
    (5, 3 * 2**18): "0x1.0bde96acf6e75p+19",
}


@pytest.mark.parametrize("h, k", sorted(C0_PINNED_HEX))
def test_c0_pinned_bits(cfg, h, k):
    # any rewrite of the binary64 kernel must keep these bits, and keep
    # c0((k-h)/k) the exact negation of c0(h/k)
    value = c0(ReducedFraction(h, k), cfg)
    assert value.hex() == C0_PINNED_HEX[h, k]
    assert c0(ReducedFraction(k - h, k), cfg).hex() == (-value).hex()


def _half_row_chunks_reference(h, k):
    """The half-row terms as first written: np.where for the fold and sign."""
    end = (k - 1) // 2 + 1
    for start in range(1, end, _C0_CHUNK):
        m = np.arange(start, min(start + _C0_CHUNK, end), dtype=np.int64)
        r = m * h % k
        flip = 2 * r > k
        r = np.where(flip, k - r, r)
        near = 4 * r <= k
        t = np.tan(np.pi * np.where(near, r, k - 2 * r) / np.where(near, k, 2 * k))
        cot = np.where(near, 1 / t, t)
        cot = np.where(flip, -cot, cot)
        yield cot * (k - 2 * m) / k


def test_half_row_chunks_match_the_reference_bitwise(cfg):
    # the kernel walks the folded residue r, not m, so its chunks differ from
    # the reference's, but its terms are the same multiset bit for bit, sign
    # included.  k = 2*2^14 +- 1 puts the half row's end on either side of a
    # chunk boundary; k = 4*2^14 + {-1, 0, 1, 4, 5} and 8*2^14 +- 1 put the
    # near/far boundary k//4 on, before and after one.  c0 stays one
    # correctly rounded fsum of exactly these terms.
    rng = random.Random(1410)
    ks = [2, 3, 4, 5, 6, 8, 12, 2**15 - 1, 2**15 + 1, 2**15 + 3, 2**16 + 1, 2**17 - 1]
    ks += [rng.randrange(2, 10**5) for _ in range(20)]
    ks += [2 * rng.randrange(2, 10**5) for _ in range(10)]
    ks += [4 * _C0_CHUNK + d for d in (-1, 0, 1, 4, 5)]
    ks += [8 * _C0_CHUNK - 1, 8 * _C0_CHUNK + 1]
    cases = []
    for k in ks:
        for h in (1, k - 1, rng.randrange(1, k)):
            while gcd(h, k) != 1:
                h = h % (k - 1) + 1
            cases.append((h, k))
    assert len(set(cases)) >= 70
    for h, k in sorted(set(cases)):
        got = list(_half_row_chunks(h, k))
        want = list(_half_row_chunks_reference(h, k))
        for chunk in got:
            assert chunk.dtype == np.float64 and 0 < chunk.size <= _C0_CHUNK, (h, k)
        got_bits = np.sort(np.concatenate([np.empty(0), *got]).view(np.int64))
        want_bits = np.sort(np.concatenate([np.empty(0), *want]).view(np.int64))
        assert got_bits.size == (k - 1) // 2, (h, k)
        assert np.array_equal(got_bits, want_bits), (h, k)
        terms = [v for chunk in want for v in chunk.tolist()]
        assert c0(ReducedFraction(h, k), cfg).hex() == math.fsum(terms).hex(), (h, k)


def _row_bits(h, k, odd_only=False):
    chunks = list(_half_row_chunks(h, k, odd_only))
    for chunk in chunks:
        assert chunk.dtype == np.float64 and 0 < chunk.size <= _C0_CHUNK, (h, k)
    return np.concatenate([np.empty(0), *chunks]).view(np.int64)


def test_even_r_terms_of_row_2b_are_row_b_terms():
    # the identity c0's reuse rests on: row (h, 2b)'s term at r = 2r' is row
    # (h mod b, b)'s term at r', bit for bit; the odd-only chunks are the
    # odd-r terms of the all-r chunks, in order.  b = 2^16 + 1 and 3*2^18
    # put row b's near/far boundary and chunk ends off the powers of two;
    # for even b, h = b + 1 meets the h = 1 row through the int64 weight path.
    rng = random.Random(29)
    for b in [*range(2, 601), 2**16 + 1, 3 * 2**18, 2**21]:
        for h in {1, 2 * b - 1, b + 1, rng.randrange(1, 2 * b)}:
            while gcd(h, 2 * b) != 1:
                h = h % (2 * b - 1) + 1
            row_2b = _row_bits(h, 2 * b)
            assert np.array_equal(row_2b[1::2], _row_bits(h % b, b)), (h, b)
            assert np.array_equal(
                _row_bits(h, 2 * b, odd_only=True), row_2b[0::2]
            ), (h, b)


def test_odd_only_chunks_are_the_odd_r_terms_for_any_h():
    rng = random.Random(2026)
    for k in [3, 4, 5, 7, 9, 2 * _C0_CHUNK + 3, 4 * _C0_CHUNK + 2, 8 * _C0_CHUNK + 5]:
        for h in (1, k - 1, rng.randrange(1, k)):
            while gcd(h, k) != 1:
                h = h % (k - 1) + 1
            assert np.array_equal(_row_bits(h, k, odd_only=True), _row_bits(h, k)[0::2])


@pytest.mark.parametrize(
    "bs",
    [
        [2**j for j in range(1, 23)],
        [3 * 2**j for j in range(20)],
        [5 * 2**j for j in range(20)],
        list(range(2, 401)),
        [3**j for j in range(1, 14)],
        [2, 3, 6, 12, 13, 26, 100, 200, 400, 401, 802],
    ],
    ids=["doubling", "3*2^j", "5*2^j", "integers", "powers-of-3", "mixed"],
)
def test_c0_ladder_equals_c0_row_by_row(cfg, cfg_ext, bs):
    # reusing the half row's parts keeps every row's bits: the scan's rows
    # and a cold c0 both equal one fsum of all of the row's terms
    records, _ = residual_scan(bs, cfg)
    for b, r in zip(bs, records):
        want = math.fsum(np.concatenate([np.empty(0), *_half_row_chunks(1, b)]))
        _row_parts.cache_clear()
        assert r.c0_exact.hex() == c0(ReducedFraction(1, b), cfg).hex() == want.hex(), b
    small = [b for b in bs if b <= 200][:6]
    records, _ = residual_scan(small, cfg_ext)
    assert [r.c0_exact for r in records] == [
        c0(ReducedFraction(1, b), cfg_ext) for b in small
    ]


def test_doubling_ladder_sums_half_its_terms(cfg, monkeypatch):
    # rows 2^8..2^22 hold sum (b-1)//2 = 4,194,161 terms; with row b/2's
    # parts reused only 2^21 - 1 of them are built and summed
    built = []

    def counted(h, k, odd_only=False):
        for terms in _half_row_chunks(h, k, odd_only):
            built.append(terms.size)
            yield terms

    monkeypatch.setattr(cotsum.exact, "_half_row_chunks", counted)
    _row_parts.cache_clear()
    residual_scan([2**j for j in range(8, 23)], cfg)
    assert sum(built) == 2**21 - 1


def test_cold_c0_holds_no_chunk_while_it_recurses(cfg):
    # a cold c0(1/2^20) takes its half rows first, so one chunk's arrays
    # are alive at a time (0.63 MiB measured); building the row's own
    # chunks before recursing keeps a chunk per level and peaks at 1 MiB.
    # numpy is imported and first used before tracing starts.
    c0(ReducedFraction(1, 2**10), cfg)
    _row_parts.cache_clear()
    tracemalloc.start()
    try:
        c0(ReducedFraction(1, 2**20), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_residual_scan_reproduces_the_pinned_c0_bits(cfg):
    records, _ = residual_scan([2**j for j in range(8, 23)], cfg)
    assert [(1, r.b) for r in records] == sorted(C0_PINNED_HEX)[:15]
    for r in records:
        assert r.c0_exact.hex() == C0_PINNED_HEX[1, r.b], r.b


def test_np_tan_within_one_ulp_on_the_kernels_arguments():
    # The binary64 c0 takes np.tan's error as at most 1 ulp.  Sample the
    # arguments _half_row_chunks gives it at h = 1, r*pi/k for r <= k//4 and
    # (k - 2r)*pi/(2k) above, check that they rebuild the kernel's terms bit
    # for bit, and check np.tan on them against 120-bit mpmath, so that a
    # numpy with a worse tan fails here.
    rng = random.Random(2718)
    for k in (7, 1000, 4 * _C0_CHUNK + 5, 10**6 + 3, 2**20):
        quarter, half = k // 4, (k - 1) // 2
        terms = np.concatenate(list(_half_row_chunks(1, k)))
        picks = {1, quarter, quarter + 1, half} | {
            rng.randint(1, half) for _ in range(400)
        }
        r = np.array(sorted(p for p in picks if 1 <= p <= half), dtype=np.float64)
        near = r <= quarter
        arg = np.where(near, r * np.pi / k, (k - 2 * r) * np.pi / (2 * k))
        assert ((0 < arg) & (arg < 0.786)).all(), k
        tan = np.tan(arg)
        rebuilt = np.where(near, 1 / tan, tan) * (k - 2 * r) / k
        got = terms[r.astype(np.int64) - 1]
        assert np.array_equal(rebuilt.view(np.int64), got.view(np.int64)), k
        with mpmath.workprec(120):
            for x, y in zip(arg.tolist(), tan.tolist()):
                exact = mpmath.tan(mpmath.mpf(x))
                assert abs(y - exact) <= math.ulp(float(exact)), (k, x)


def test_c0_binary64_against_120_bits(cfg):
    # error in ulps of the larger of |c0| and the row's largest cot, about
    # k/pi: the terms set the error's scale, and they can cancel to a small c0
    rng = random.Random(20260)
    cases = 0
    while cases < 40:
        k = rng.randrange(2, 3000)
        h = rng.randrange(1, k)
        if gcd(h, k) != 1:
            continue
        cases += 1
        frac = ReducedFraction(h, k)
        ref = c0(frac, PrecisionConfig(working_precision=120))
        err = abs(mpmath.mpf(c0(frac, cfg)) - ref)
        assert err <= 32 * math.ulp(max(abs(float(ref)), k / math.pi)), (h, k)


def test_c0_extended_precision_matches_double(cfg, cfg_ext):
    v53 = c0(ReducedFraction(3, 7), cfg)
    v113 = c0(ReducedFraction(3, 7), cfg_ext)
    assert abs(float(v113) - v53) < 1e-13


# ------------------------------------------------------ estermann_at_zero


def test_estermann_alpha0_examples(cfg):
    v3 = estermann_at_zero(ReducedFraction(1, 3), 0, cfg)
    assert v3.real_part == 0.25
    assert v3.imag_part == pytest.approx(0.09622504486493763, rel=1e-12)
    v4 = estermann_at_zero(ReducedFraction(1, 4), 0, cfg)
    assert v4.real_part == 0.25
    assert v4.imag_part == pytest.approx(0.25, rel=1e-12)


def test_estermann_alpha0_consistency_with_c0(cfg):
    # real part 1/4 exactly, imaginary part c0/2, across assorted fractions
    for h, k in [(1, 2), (1, 5), (2, 5), (3, 8), (5, 12), (7, 30), (11, 97)]:
        v = estermann_at_zero(ReducedFraction(h, k), 0, cfg)
        assert v.real_part == 0.25
        assert v.imag_part == c0(ReducedFraction(h, k), cfg) / 2


def test_estermann_odd_alpha_is_rational(cfg):
    v = estermann_at_zero(ReducedFraction(1, 5), 1, cfg)
    assert v.real_part == pytest.approx(1 / 24, rel=1e-15)
    assert v.imag_part == 0.0
    # independent of h/k for odd alpha
    v2 = estermann_at_zero(ReducedFraction(3, 7), 1, cfg)
    assert v2.real_part == v.real_part
    v3 = estermann_at_zero(ReducedFraction(1, 9), 3, cfg)
    assert v3.real_part == pytest.approx(float(Fraction(-1, 240)), rel=1e-15)
    assert v3.imag_part == 0.0


def test_estermann_even_alpha_structure(cfg):
    # purely imaginary prefactor for even alpha >= 2: real part exactly zero
    v = estermann_at_zero(ReducedFraction(2, 7), 2, cfg)
    assert v.real_part == 0.0
    assert v.imag_part != 0.0
    w = estermann_at_zero(ReducedFraction(2, 7), 4, cfg)
    assert w.real_part == 0.0


def test_estermann_empty_half_row_keeps_the_sign_of_zero(cfg):
    # k = 2 has no half-row term: the value is +0.0 whatever the sign of the
    # prefactor, -1 when alpha = 0 (mod 4) and +1 when alpha = 2 (mod 4)
    for alpha, bits in ((2, "0x0.0p+0"), (4, "0x0.0p+0"), (6, "0x0.0p+0")):
        value = estermann_at_zero(ReducedFraction(1, 2), alpha, cfg)
        assert value.imag_part.hex() == bits


def test_estermann_even_alpha_against_120_bits(cfg, cfg_ext):
    # the half-row sum against the full row sum_{m=1}^{k-1} (m/k) P(cot) at
    # 120 bits, in ulps of the larger of the value and the largest scaled
    # term: binary64 within 16 (7 seen), 113 bits within 256 (58 seen)
    rng = random.Random(4099)
    cases = 0
    while cases < 8:
        k = rng.randrange(2, 3000)
        h = rng.randrange(1, k)
        if gcd(h, k) != 1:
            continue
        cases += 1
        frac = ReducedFraction(h, k)
        with mpmath.workprec(120):
            cots = [mpmath.cot(mpmath.pi * (m * h % k) / k) for m in range(1, k)]
        for alpha in (2, 4):
            coeffs = _cot_derivative_coeffs(alpha)
            scale = (-1 if alpha % 4 == 0 else 1) * mpmath.mpf(2) ** -(alpha + 1)
            with mpmath.workprec(120):
                terms = [m * _horner(coeffs, u) / k for m, u in enumerate(cots, 1)]
                ref = scale * mpmath.fsum(terms)
                size = max(abs(ref), abs(scale) * max(abs(t) for t in terms))
            for config, ulps, bits in ((cfg, 16, 53), (cfg_ext, 256, 113)):
                got = estermann_at_zero(frac, alpha, config).imag_part
                with mpmath.workprec(120):
                    err = abs(mpmath.mpf(got) - ref)
                    assert err <= ulps * size * mpmath.mpf(2) ** (1 - bits), (
                        h, k, alpha, bits,
                    )


def test_estermann_alpha_validation(cfg):
    with pytest.raises(PreconditionError):
        estermann_at_zero(ReducedFraction(1, 3), -1, cfg)
    with pytest.raises(CapacityError):
        estermann_at_zero(ReducedFraction(1, 3), 18, cfg)


def _half_row_sum_by_m(h, k, coeffs, cfg):
    # the half row in m order, r_m = m*h mod k folded by the kernel:
    # sum_{m=1}^{(k-1)//2} P(cot(pi*r_m/k)) * (k - 2m)/k
    with _context(cfg) as (mt, pi, real):
        return sum_strategy(
            (
                _horner(coeffs, _cot_kernel(m * h % k, k, mt, pi)) * (k - 2 * m) / k
                for m in range(1, (k - 1) // 2 + 1)
            ),
            cfg,
        )


def _bits(x):
    return x.hex() if isinstance(x, float) else x._mpf_


@pytest.mark.parametrize("h, k", [(1, 8193), (3, 10007), (1, 16384)])
def test_c0_at_113_bits_has_the_bits_of_the_m_ordered_half_row(h, k, cfg_ext):
    # k past 4096 terms, so the r and m orders differ over many terms
    want = _half_row_sum_by_m(h, k, _cot_derivative_coeffs(0), cfg_ext)
    assert _bits(c0(ReducedFraction(h, k), cfg_ext)) == _bits(want)


@pytest.mark.parametrize("precision", [53, 113])
@pytest.mark.parametrize("alpha", [2, 4])
def test_even_alpha_half_row_has_the_bits_of_the_m_ordered_sum(alpha, precision):
    cfg = PrecisionConfig(precision)
    coeffs = _cot_derivative_coeffs(alpha)
    for h, k in [(1, 7), (2, 7), (5, 12), (3, 64), (7, 101), (123, 499)]:
        want = _half_row_sum_by_m(h, k, coeffs, cfg)
        assert _bits(_half_row_sum(h, k, coeffs, cfg)) == _bits(want), (h, k)


# ------------------------------------------------ derivative polynomials


def cot_derivative(n: int, r: int, k: int) -> float:
    """cot^(n)(pi*r/k) as estermann_at_zero forms it: P_n at the kernel's cot."""
    return _horner(_cot_derivative_coeffs(n), _cot_kernel(r, k, math, math.pi))


def test_cot_derivative_examples():
    assert cot_derivative(0, 1, 4) == pytest.approx(1.0, abs=8 * ULP)
    assert cot_derivative(1, 1, 4) == pytest.approx(-2.0, rel=8 * ULP)
    assert cot_derivative(2, 1, 4) == pytest.approx(4.0, rel=8 * ULP)


def test_cot_derivative_matches_finite_difference():
    # d/dx cot^(n-1)(x) at x = pi*r/k, via a central difference of the
    # polynomial evaluated at cot(x +/- h) computed directly from libm
    h_step = 1e-5
    for k, r in [(7, 2), (12, 5), (9, 4), (10, 3)]:
        x = math.pi * r / k
        for n in range(1, 7):
            coeffs = _cot_derivative_coeffs(n - 1)
            up = _horner(coeffs, math.cos(x + h_step) / math.sin(x + h_step))
            dn = _horner(coeffs, math.cos(x - h_step) / math.sin(x - h_step))
            fd = (up - dn) / (2 * h_step)
            got = cot_derivative(n, r, k)
            assert got == pytest.approx(fd, rel=1e-4)


# ------------------------------------------------------- floor identity


def _floor_parts(a, b, cfg):
    """``(real, imag)`` of floor(a/b)'s expression, as the floor suite forms it."""
    s = a % b
    re_s, im = cotsum.exact._floor_class_sums(b, {s}, cfg)[s]
    (re,) = cotsum.exact._floor_reals(b, [a], re_s, cfg)
    return re, im


def _floor_ok(a, b, re, im):
    """The floor suite's checks of one a: real part and imaginary residue."""
    return (
        abs(re - a // b) <= checks.FLOOR_ROUND_TOL and abs(im) <= checks.FLOOR_IMAG_TOL
    )


def test_floor_examples(cfg):
    for a, b, floor in ((7, 3, 2), (6, 3, 2), (1, 97, 0)):
        re, im = _floor_parts(a, b, cfg)
        assert _floor_ok(a, b, re, im)
        assert round(re) == floor


@given(a=st.integers(min_value=1, max_value=10**6), b=st.integers(min_value=2, max_value=300))
def test_floor_property(a, b):
    re, im = _floor_parts(a, b, PrecisionConfig())
    assert _floor_ok(a, b, re, im)
    assert round(re) == a // b


def test_floor_identity_reports_its_checks(cfg, monkeypatch):
    re, im = _floor_parts(7, 3, cfg)
    assert re == pytest.approx(2.0, abs=1e-12)
    assert abs(im) <= 1e-12
    cases, _ = checks.floor(3, checks.DEFAULT_SEED, cfg)
    assert [passed for _, passed, _ in cases] == [True, True]
    # a real part 1e-5 off the floor, an imaginary residue of 1e-8, or a nan
    # part fails the suite's case; 5e-7 and 5e-10 pass
    for d_re, d_im, ok in (
        (5e-7, 5e-10, True),
        (1e-5, 0.0, False),
        (0.0, 1e-8, False),
        (math.nan, 0.0, False),
        (0.0, math.nan, False),
    ):
        # class sums that put every a's real part at floor(a/b) + d_re
        monkeypatch.setattr(
            cotsum.exact,
            "_floor_class_sums",
            lambda b, classes, cfg: {
                s: (d_re + 0.5 - (s + 0.5) / b, d_im) for s in classes
            },
        )
        cases, _ = checks.floor(3, checks.DEFAULT_SEED, cfg)
        assert [passed for _, passed, _ in cases] == [ok, ok]


def _floor_class_oracle(b, classes, precision):
    """``{s: (re, im)}``, each class's sum over 2b formed term by term."""
    with mpmath.workprec(precision):
        if precision == 53:
            mt, pi, fsum = math, math.pi, math.fsum
        else:
            mt, pi, fsum = mpmath, +mpmath.pi, mpmath.fsum
        sums = {}
        for s in classes:
            re_terms = []
            im_terms = []
            for m in range(1, b):
                c = _cot_kernel(m, b, mt, pi)
                j = m * s % b
                wr, wi = mt.cos(2 * pi * j / b), mt.sin(2 * pi * j / b)
                re_terms.append(wr + c * wi)
                im_terms.append(wi - c * wr)
            sums[s] = fsum(re_terms) / (2 * b), fsum(im_terms) / (2 * b)
    return sums


def _floor_oracle(a_values, b, precision):
    """floor(a/b)'s expression per a, each class sum formed term by term."""
    sums = _floor_class_oracle(b, {a % b for a in a_values}, precision)
    with mpmath.workprec(precision):
        real = float if precision == 53 else mpmath.mpf
        out = []
        for a in a_values:
            re, im = sums[a % b]
            out.append((real(a) / b + real(1) / (2 * b) - real(1) / 2 + re, im))
    return out


def _floor_row_oracle(b, precision):
    """The floor suite's ``(max_im, max_round)`` of b, from the per-a oracle."""
    a_values = range(1, 1001)
    parts = _floor_oracle(a_values, b, precision)
    return (
        checks.worst_residue([abs(float(im)) for _, im in parts]),
        checks.worst_residue(
            [abs(float(re) - a // b) for a, (re, _) in zip(a_values, parts)]
        ),
    )


def _class_bits(sums):
    return {s: (_bits(re), _bits(im)) for s, (re, im) in sums.items()}


@pytest.mark.parametrize("precision", [53, 113])
@pytest.mark.parametrize(
    "b, classes",
    [
        *((b, range(b)) for b in (2, 3, 4, 12, 97, 100)),
        # one-sided sets: a class whose conjugate is not requested
        (7, {1}),
        (7, {1, 2}),
        (12, {1}),
        (12, {1, 2}),
        (12, {6}),
        (100, {50}),
    ],
)
def test_floor_class_sums_are_the_term_by_term_sums(b, classes, precision):
    cfg = PrecisionConfig(working_precision=precision)
    got = cotsum.exact._floor_class_sums(b, classes, cfg)
    assert sorted(got) == sorted(classes)
    assert _class_bits(got) == _class_bits(_floor_class_oracle(b, classes, precision))


def test_conjugate_pair_past_4096_terms_has_the_bits_of_two_lone_passes(cfg_ext):
    # 4098 terms a class at 113 bits: the shared pass hands one class its
    # terms in reverse m order, which its correctly rounded sums must not see
    b = 4099
    paired = cotsum.exact._floor_class_sums(b, {5, b - 5}, cfg_ext)
    lone = {
        **cotsum.exact._floor_class_sums(b, {5}, cfg_ext),
        **cotsum.exact._floor_class_sums(b, {b - 5}, cfg_ext),
    }
    assert _class_bits(paired) == _class_bits(lone)


@pytest.mark.parametrize("b", [2, 3, 4, 12, 97, 100])
def test_floor_class_sums_gather_once_per_conjugate_pair(b, cfg, monkeypatch):
    gathers = []

    def counted(row, step, b):
        gathers.append(step)
        return _gathered(row, step, b)

    monkeypatch.setattr(cotsum.exact, "_gathered", counted)
    cotsum.exact._floor_class_sums(b, range(b), cfg)
    # classes 0 and b/2 alone, every other class with its conjugate b - s
    assert len(gathers) == 2 * (b // 2 + 1)
    assert sorted(set(gathers)) == list(range(b // 2 + 1))


@pytest.mark.parametrize("precision", [53, 113])
@pytest.mark.parametrize("b", [2, 7, 97])
def test_floor_sums_are_computed_once_per_residue_class(b, precision, monkeypatch):
    cfg = PrecisionConfig(working_precision=precision)
    summed = []

    def counted(values, cfg):
        summed.append(len(values))
        return sum_strategy(values, cfg)

    monkeypatch.setattr(cotsum.exact, "sum_strategy", counted)
    a = 12345
    # a and a + 3b share a class: one pair of sums, and the oracle's bits
    s = a % b
    re, im = cotsum.exact._floor_class_sums(b, {s}, cfg)[s]
    reals = cotsum.exact._floor_reals(b, [a, a + 3 * b], re, cfg)
    assert [(x, im) for x in reals] == _floor_oracle([a, a + 3 * b], b, precision)
    assert summed == [b - 1, b - 1]
    # a = 1..1000 covers every class of b: one pair of sums per class
    summed.clear()
    assert checks._floor_row(b, cfg) == _floor_row_oracle(b, precision)
    assert summed == [b - 1] * (2 * b)


@pytest.mark.parametrize("precision", [53, 113])
def test_floor_suite_matches_the_per_a_reference(precision):
    # the suite's cases and extras from floor(a/b) evaluated one a at a time
    cfg = PrecisionConfig(working_precision=precision)
    cases = []
    imag = []
    rounding = []
    for b in range(2, 13):
        a_values = range(1, 1001)
        parts = _floor_oracle(a_values, b, precision)
        ok = all(
            abs(re - a // b) <= 1e-6 and abs(im) <= 1e-9
            for a, (re, im) in zip(a_values, parts)
        )
        max_im = max(abs(float(im)) for _, im in parts)
        cases.append((f"b={b}", ok, max_im))
        imag.append(max_im)
        rounding.append(max(abs(float(re) - a // b) for a, (re, _) in zip(a_values, parts)))
    extra = {"max_imag_residue": max(imag), "max_rounding_distance": max(rounding)}
    assert checks.floor(12, checks.DEFAULT_SEED, cfg) == (cases, extra)


# ------------------------------------------------- proposition identities


def test_cot_cos_identity_examples(cfg):
    assert cot_cos_identity_residual(1, 2, 1, cfg) == 0.0
    assert abs(cot_cos_identity_residual(3, 7, 2, cfg)) <= 1e-12
    assert abs(cot_cos_identity_residual(5, 360, 11, cfg)) <= 1e-10


@given(
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=2, max_value=200),
    n=st.integers(min_value=1, max_value=10**6),
)
def test_cot_cos_identity_property(a, b, n):
    assert abs(cot_cos_identity_residual(a, b, n)) <= 1e-10


def test_frac_identity_examples(cfg):
    assert frac_via_cot_sin(1, 3, 1, cfg) == pytest.approx(1 / 3, abs=1e-10)
    assert frac_via_cot_sin(5, 4, 3, cfg) == pytest.approx(0.75, abs=1e-10)
    with pytest.raises(PreconditionError):
        frac_via_cot_sin(2, 4, 2, cfg)


@given(
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=2, max_value=200),
    n=st.integers(min_value=1, max_value=10**6),
)
def test_frac_identity_property(a, b, n):
    if (n * a) % b == 0:
        with pytest.raises(PreconditionError):
            frac_via_cot_sin(a, b, n)
        return
    value = frac_via_cot_sin(a, b, n)
    assert 0.0 <= value < 1.0
    assert value == pytest.approx(((n * a) % b) / b, abs=1e-10)


# ---------------------------------------------------------- unit-row gathers


def _assert_gathers_match_the_modular_reference(b: int, precision: int):
    # every step, both unit rows: the same objects as row[m*step % b], m = 1..b-1
    m = np.arange(1, b)
    for row in _unit_row(b, precision)[1:]:
        assert len(row) == _ROW_COPIES * b
        period = np.array(row[:b], dtype=object)
        for step in range(b):
            got = _gathered(row, step, b)
            expected = period[m * step % b].tolist()
            assert len(got) == b - 1 and all(map(is_, got, expected)), (b, step)


def test_gathered_is_the_modular_gather_for_every_step():
    for b in [*range(2, 301), 997, 1024, 4097]:
        _assert_gathers_match_the_modular_reference(b, 53)
    _assert_gathers_match_the_modular_reference(97, 113)


def test_identity_rows_grow_linearly_in_b(cfg):
    # prop1 over b = 2..200 with every row built inside the traced run: rows
    # of 32*b entries peak at about 0.8 MB, rows of b*b entries above 3 MB
    _unit_row.cache_clear()
    tracemalloc.start()
    try:
        checks.prop1(200, checks.DEFAULT_SEED, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ----------------------------------------------------------- row-sum zero


def cot_row_sum_zero(b: int, cfg) -> float:
    """sum_{m=1}^{b-1} cot(pi*m/b) over the row the identities use; zero exactly."""
    return sum_strategy(_unit_row(b, cfg.working_precision)[0], cfg)


def test_cot_row_sum_zero(cfg):
    assert cot_row_sum_zero(2, cfg) == 0.0
    assert abs(cot_row_sum_zero(3, cfg)) <= 1e-15
    assert abs(cot_row_sum_zero(10**4, cfg)) <= 1e-9


def test_cot_row_sum_zero_sweep(cfg):
    for b in range(2, 400):
        assert abs(cot_row_sum_zero(b, cfg)) <= 1e-12
