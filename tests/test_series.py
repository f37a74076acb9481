"""Series tests: G_L(b), the partial sums of the c0(1/b) series times pi."""

import math
from fractions import Fraction

import pytest

from cotsum import PreconditionError, ReducedFraction, c0, g_partial


# ------------------------------------------------------- c0 series partials


def test_c0_series_two_term_hand_value(cfg):
    # a = 1: 3*(1 - 2/3)/1 = 1; a = 2: 3*(1 - 4/3)/2 = -1/2
    assert g_partial(3, 3, cfg) / math.pi == pytest.approx(0.5 / math.pi, rel=1e-14)


def test_c0_series_b2_vanishes_identically(cfg):
    # every term has 1 - 2*{a/2} = 0
    assert g_partial(2, 2 * 10**6, cfg) == 0.0


def test_c0_series_converges_to_exact_quarter(cfg):
    got = g_partial(4, 4 * 10**6, cfg) / math.pi
    assert got == pytest.approx(0.5, abs=1e-4)


def test_c0_series_preconditions(cfg):
    with pytest.raises(PreconditionError):
        g_partial(1, 10, cfg)
    with pytest.raises(PreconditionError):
        g_partial(5, 4, cfg)


# ------------------------------------------------------------- g partials


def test_g_partial_hand_values(cfg):
    # b = 3, L = 3: a = 1 gives 3 - 2 = 1 and a = 2 gives 3/2 - 2 = -1/2
    assert g_partial(2, 2, cfg) == 0.0
    assert g_partial(3, 3, cfg) == pytest.approx(0.5, rel=1e-14)


def test_g_partial_approaches_pi_times_c0(cfg):
    # G_L(4)/pi tends to c0(1/4) = 1/2
    assert g_partial(4, 4 * 10**5, cfg) == pytest.approx(math.pi * 0.5, abs=1e-2)


def test_g_and_series_terms_identical_in_exact_arithmetic():
    # (b - 2*(a mod b))/a == (b + 2b*floor(a/b) - 2a)/a for b !| a, term by term
    for b in range(2, 21):
        for a in range(1, 100 * b + 1):
            if a % b == 0:
                continue
            series_term = Fraction(b - 2 * (a % b), a)
            g_term = Fraction(b + 2 * b * (a // b) - 2 * a, a)
            assert series_term == g_term


def test_g_partial_rep_consistency_medium(cfg):
    # O(b^2/L)-shaped agreement at a mid-size truncation
    for b in (3, 7, 20):
        L = 10**4 * b
        err = abs(g_partial(b, L, cfg) / math.pi - c0(ReducedFraction(1, b), cfg))
        assert err <= 0.05 * b * b / L + 1e-6
