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

# The floor identity's tolerances at binary64 scale: its imaginary residue
# to zero, its real part to floor(a/b).
FLOOR_IMAG_TOL = 1e-9
FLOOR_ROUND_TOL = 1e-6


def worst_residue(residues) -> float:
    """The largest residue, nan if any residue is nan, 0.0 if there are none.

    ``max`` alone would drop a nan that is not first, so a suite whose
    identity broke down would report a small residue and pass.
    """
    residues = list(residues)
    if any(map(math.isnan, residues)):
        return math.nan
    return max(residues, default=0.0)


def _worst(cases) -> float:
    return worst_residue(residue for _, _, residue in cases)


def prop1(size: int | None, seed: int, cfg: PrecisionConfig):
    size = 200 if size is None else size
    rng = random.Random(seed)
    cases = []
    cos_residues = []
    frac_errors = []
    for b in range(2, size + 1):
        cos_b = []
        frac_b = []
        for _ in range(20):
            a = rng.randrange(1, 10**6)
            n = rng.randrange(1, 10**6)
            cos_b.append(abs(float(exact.cot_cos_identity_residual(a, b, n, cfg))))
            # the fractional part of n*a/b is checked only where it is not 0
            while (n * a) % b == 0:
                a = rng.randrange(1, 10**6)
                n = rng.randrange(1, 10**6)
            got = exact.frac_via_cot_sin(a, b, n, cfg)
            frac_b.append(abs(float(got) - ((n * a) % b) / b))
        max_cos = worst_residue(cos_b)
        max_frac = worst_residue(frac_b)
        # a nan maximum fails both comparisons
        ok = max_cos <= 1e-10 and max_frac <= 1e-10
        cases.append((f"b={b}", ok, worst_residue((max_cos, max_frac))))
        cos_residues.append(max_cos)
        frac_errors.append(max_frac)
    extra = {
        "max_cot_cos_residue": worst_residue(cos_residues),
        "max_frac_error": worst_residue(frac_errors),
    }
    return cases, extra


def floor(size: int | None, seed: int, cfg: PrecisionConfig):
    size = 100 if size is None else size
    a_values = range(1, 1001)
    cases = []
    imag_residues = []
    rounding_distances = []
    for b in range(2, size + 1):
        parts = exact.floor_identities(b, a_values, cfg)
        max_im = worst_residue([abs(float(im)) for _, im in parts])
        max_round = worst_residue(
            [abs(float(re) - a // b) for a, (re, _) in zip(a_values, parts)]
        )
        # on the binary64 residues; a nan maximum fails both comparisons
        ok = max_round <= FLOOR_ROUND_TOL and max_im <= FLOOR_IMAG_TOL
        cases.append((f"b={b}", ok, max_im))
        imag_residues.append(max_im)
        rounding_distances.append(max_round)
    extra = {
        "max_imag_residue": worst_residue(imag_residues),
        "max_rounding_distance": worst_residue(rounding_distances),
    }
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
