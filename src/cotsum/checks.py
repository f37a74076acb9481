"""The paper's checks, run by ``verify`` and by the acceptance tests.

Each suite maps ``(size, seed, cfg)`` (``size=None`` for its default) to
``(cases, extra)``: ``(case, passed, residue)`` tuples and named worst residues.
``exact`` and ``asymptotics`` are called through their modules, so a tracer that
patches a function there sees these calls too.
"""

import math
import random

from . import asymptotics, exact
from .numerics import PrecisionConfig, euler_gamma, log_two_pi

DEFAULT_SEED = 927227


def _worst(cases) -> float:
    return max((residue for _, _, residue in cases), default=0.0)


def prop1(size: int | None, seed: int, cfg: PrecisionConfig):
    size = 200 if size is None else size
    rng = random.Random(seed)
    cases = []
    worst_cos = 0.0
    worst_frac = 0.0
    for b in range(2, size + 1):
        max_cos = 0.0
        max_frac = 0.0
        for _ in range(20):
            a = rng.randrange(1, 10**6)
            n = rng.randrange(1, 10**6)
            residue = abs(float(exact.cot_cos_identity_residual(a, b, n, cfg)))
            max_cos = max(max_cos, residue)
            # the fractional part of n*a/b is checked only where it is not 0
            while (n * a) % b == 0:
                a = rng.randrange(1, 10**6)
                n = rng.randrange(1, 10**6)
            got = exact.frac_via_cot_sin(a, b, n, cfg)
            max_frac = max(max_frac, abs(float(got) - ((n * a) % b) / b))
        ok = max_cos <= 1e-10 and max_frac <= 1e-10
        cases.append((f"b={b}", ok, max(max_cos, max_frac)))
        worst_cos = max(worst_cos, max_cos)
        worst_frac = max(worst_frac, max_frac)
    extra = {"max_cot_cos_residue": worst_cos, "max_frac_error": worst_frac}
    return cases, extra


def floor(size: int | None, seed: int, cfg: PrecisionConfig):
    size = 100 if size is None else size
    cases = []
    worst_im = 0.0
    worst_round = 0.0
    for b in range(2, size + 1):
        ok = True
        max_im = 0.0
        max_round = 0.0
        for a in range(1, 1001):
            re, im, real_ok, imag_ok = exact.floor_identity(a, b, cfg)
            ok = ok and real_ok and imag_ok
            max_im = max(max_im, abs(float(im)))
            max_round = max(max_round, abs(float(re) - a // b))
        cases.append((f"b={b}", ok, max_im))
        worst_im = max(worst_im, max_im)
        worst_round = max(worst_round, max_round)
    extra = {"max_imag_residue": worst_im, "max_rounding_distance": worst_round}
    return cases, extra


def lemma2(size: int | None, seed: int, cfg: PrecisionConfig):
    size = 100 if size is None else size
    ks = [k for k in (1, 2, 5, 10, 20, 50, 100) if k <= size]
    bs = [b for b in (2, 5, 10, 20, 50, 100) if b <= size]
    cases = []
    for k in ks:
        for b in bs:
            block = math.fsum(1.0 / a for a in range(k * b, (k + 1) * b))
            approx = float(asymptotics.inner_block_expansion(k, b, cfg))
            defect = abs(approx - block)
            bound = 1.0 / (k**4 * b**4) + 1e-12
            cases.append((f"k={k},b={b}", defect <= bound, defect))
    return cases, {"max_block_defect": _worst(cases)}


def lemma4(size: int | None, seed: int, cfg: PrecisionConfig):
    grid = [v for v in (10, 20, 50, 100) if size is None or v <= size]
    cases = []
    for k in grid:
        for b in grid:
            d1 = abs(
                asymptotics.f_term(1, k, b) / 2 - asymptotics.taylor_f1(k, b)
            ) * k**4 * b
            d2 = abs(
                -asymptotics.f_term(2, k, b) / 12 - asymptotics.taylor_f2(k, b)
            ) * k**5 * b**2
            cases.append((f"k={k},b={b}", d1 <= 10 and d2 <= 10, max(d1, d2)))
    return cases, {"max_scaled_defect": _worst(cases)}


def lemma5(size: int | None, seed: int, cfg: PrecisionConfig):
    base_ratio = 10**4 if size is None else size
    c0_const = (euler_gamma(cfg) - log_two_pi(cfg)) / 2
    cases = []
    for b in (10, 100):
        for ratio in (base_ratio, 10 * base_ratio):
            L = b * ratio
            direct = asymptotics.s_sum_direct(L, b, cfg)
            approx = asymptotics.s_sum_asymptotic(L, b, c0_const, cfg)
            defect = abs(float(direct - approx))
            bound = 2 + 0.05 * b * b / L
            cases.append((f"b={b},L={L}", defect <= bound, defect))
    return cases, {"max_closure_defect": _worst(cases)}


def corollary(size: int | None, seed: int, cfg: PrecisionConfig):
    K = 10**6 if size is None else size
    closed_form = (euler_gamma(cfg) - log_two_pi(cfg)) / 2
    estimate = asymptotics.estimate_C0([100, 1000, 10000], K, cfg)
    gap = abs(float(estimate.value - closed_form))
    cases = [(f"bs=100,1000,10000,K={K}", gap <= 1e-3, gap)]
    extra = {
        "estimate": float(estimate.value),
        "closed_form": float(closed_form),
        "gap": gap,
        "tail_bound": estimate.tail_bound,
    }
    return cases, extra


SUITES = {
    "prop1": prop1,  # Proposition 1: the cot*cos and fractional-part identities
    "floor": floor,  # the floor identity as an exponential sum
    "lemma2": lemma2,  # Lemma 2: the inner block sum against its expansion
    "lemma4": lemma4,  # Lemma 4: the Taylor remainders of f_1 and f_2
    "lemma5": lemma5,  # Lemma 5: S(L;b) against its four-term asymptotic
    "corollary": corollary,  # the Corollary: C0 = (gamma - log 2pi)/2
}
