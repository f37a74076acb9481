"""Finite-sum tests: c0, the value at the origin, identities."""

import math
import random
from fractions import Fraction
from math import gcd

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
    bernoulli,
    c0,
    checks,
    cot_cos_identity_residual,
    estermann_at_zero,
    floor_identities,
    frac_via_cot_sin,
    sum_strategy,
)
from cotsum.exact import _C0_CHUNK, _cot_derivative_coeffs, _half_row_chunks, _horner
from cotsum.numerics import _cot_kernel, _cot_row

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


def test_c0_rejects_integer_argument(cfg):
    with pytest.raises(PreconditionError):
        c0(ReducedFraction(1, 1), cfg)


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
    # chunk by chunk and bit for bit, sign included; k = 2*2^14 +- 1 puts the
    # half row's end on either side of a chunk boundary.  c0 stays one
    # correctly rounded fsum of exactly these terms.
    rng = random.Random(1410)
    ks = [2, 3, 4, 5, 6, 8, 12, 2**15 - 1, 2**15 + 1, 2**15 + 3, 2**16 + 1, 2**17 - 1]
    ks += [rng.randrange(2, 10**5) for _ in range(20)]
    ks += [2 * rng.randrange(2, 10**5) for _ in range(10)]
    cases = []
    for k in ks:
        for h in (1, k - 1, rng.randrange(1, k)):
            while gcd(h, k) != 1:
                h = h % (k - 1) + 1
            cases.append((h, k))
    assert len(set(cases)) >= 50
    for h, k in sorted(set(cases)):
        got = list(_half_row_chunks(h, k))
        want = list(_half_row_chunks_reference(h, k))
        assert len(got) == len(want) == -(-((k - 1) // 2) // _C0_CHUNK), (h, k)
        for a, b in zip(got, want):
            assert a.dtype == np.float64 and a.shape == b.shape, (h, k)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), (h, k)
        terms = [v for chunk in want for v in chunk.tolist()]
        assert c0(ReducedFraction(h, k), cfg).hex() == math.fsum(terms).hex(), (h, k)


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


def test_estermann_integer_argument_branch(cfg):
    one = ReducedFraction(1, 1)
    assert estermann_at_zero(one, 1, cfg).real_part == pytest.approx(1 / 24, rel=1e-15)
    # even alpha: (-1)^(alpha+1) B_{alpha+1} / (2(alpha+1))
    assert estermann_at_zero(one, 0, cfg).real_part == pytest.approx(0.25, rel=1e-15)
    assert estermann_at_zero(one, 2, cfg).real_part == 0.0  # B_3 = 0
    v5 = estermann_at_zero(one, 5, cfg)
    assert v5.real_part == pytest.approx(float(bernoulli(6) / 12), rel=1e-15)


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


# ------------------------------------------------------- floor_identities


def _floor_ok(a, b, re, im):
    """The floor suite's checks of one a: real part and imaginary residue."""
    return (
        abs(re - a // b) <= checks.FLOOR_ROUND_TOL and abs(im) <= checks.FLOOR_IMAG_TOL
    )


def test_floor_examples(cfg):
    for a, b, floor in ((7, 3, 2), (6, 3, 2), (1, 97, 0)):
        ((re, im),) = floor_identities(b, [a], cfg)
        assert _floor_ok(a, b, re, im)
        assert round(re) == floor


@given(a=st.integers(min_value=1, max_value=10**6), b=st.integers(min_value=2, max_value=300))
def test_floor_property(a, b):
    ((re, im),) = floor_identities(b, [a])
    assert _floor_ok(a, b, re, im)
    assert round(re) == a // b


def test_floor_preconditions(cfg):
    with pytest.raises(PreconditionError):
        floor_identities(3, [0], cfg)
    with pytest.raises(PreconditionError):
        floor_identities(1, [3], cfg)


def test_floor_identity_reports_its_checks(cfg, monkeypatch):
    ((re, im),) = floor_identities(3, [7], cfg)
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
        monkeypatch.setattr(
            cotsum.exact,
            "floor_identities",
            lambda b, a_values, cfg: [(a // b + d_re, d_im) for a in a_values],
        )
        cases, _ = checks.floor(3, checks.DEFAULT_SEED, cfg)
        assert [passed for _, passed, _ in cases] == [ok, ok]


def _floor_oracle(a_values, b, precision):
    """floor(a/b)'s expression per a, each class sum formed term by term."""
    with mpmath.workprec(precision):
        if precision == 53:
            mt, pi, fsum, real = math, math.pi, math.fsum, float
        else:
            mt, pi, fsum, real = mpmath, +mpmath.pi, mpmath.fsum, mpmath.mpf
        sums = {}
        out = []
        for a in a_values:
            if a % b not in sums:
                re_terms = []
                im_terms = []
                for m in range(1, b):
                    c = _cot_kernel(m, b, mt, pi)
                    j = m * a % b
                    wr, wi = mt.cos(2 * pi * j / b), mt.sin(2 * pi * j / b)
                    re_terms.append(wr + c * wi)
                    im_terms.append(wi - c * wr)
                sums[a % b] = fsum(re_terms), fsum(im_terms)
            re, im = sums[a % b]
            out.append(
                (real(a) / b + real(1) / (2 * b) - real(1) / 2 + re / (2 * b), im / (2 * b))
            )
    return out


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
    assert cotsum.exact.floor_identities(b, [a, a + 3 * b], cfg) == _floor_oracle(
        [a, a + 3 * b], b, precision
    )
    assert summed == [b - 1, b - 1]
    # a = 1..3b covers every class three times: one pair of sums per class
    summed.clear()
    assert len(cotsum.exact.floor_identities(b, range(1, 3 * b + 1), cfg)) == 3 * b
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


def test_floor_identities_takes_a_one_shot_iterable(cfg):
    # a generator is read once, so it gives what the list gives
    assert floor_identities(5, (a for a in [7, 8]), cfg) == floor_identities(
        5, [7, 8], cfg
    )
    assert len(floor_identities(5, iter([7, 8]), cfg)) == 2


def test_floor_identities_preconditions(cfg):
    assert cotsum.exact.floor_identities(5, [], cfg) == []
    for b, a_values in ((1, [3]), (5, [4, 0, 2])):
        with pytest.raises(PreconditionError):
            cotsum.exact.floor_identities(b, a_values, cfg)


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


# ----------------------------------------------------------- row-sum zero


def cot_row_sum_zero(b: int, cfg) -> float:
    """sum_{m=1}^{b-1} cot(pi*m/b) over the row the identities use; zero exactly."""
    return sum_strategy(_cot_row(b, cfg.working_precision)[1:], cfg)


def test_cot_row_sum_zero(cfg):
    assert cot_row_sum_zero(2, cfg) == 0.0
    assert abs(cot_row_sum_zero(3, cfg)) <= 1e-15
    assert abs(cot_row_sum_zero(10**4, cfg)) <= 1e-9


def test_cot_row_sum_zero_sweep(cfg):
    for b in range(2, 400):
        assert abs(cot_row_sum_zero(b, cfg)) <= 1e-12
