"""The paper's checks, run by ``verify`` and by the acceptance tests.

Each suite maps ``(size, seed, cfg)`` (``size=None`` for its default) to
``(cases, extra)``: ``(case, passed, residue)`` tuples and named worst residues.
``floor`` and ``prop1`` compute one row per b, the rows of b = 3, 5, 7, ...
in a forked child when that half pays for a fork (``numerics._in_two``).
``prop1`` makes the seeded draws of every b here, before the fork, so the
child reads the draws of its b from what it inherits.
Both suites have one shape: ``exact`` returns correctly rounded sums per b,
read from one cached row set of that b (``exact._unit_row``: cot, cos and
sin) built in the process that checks b, and this module forms every
residue at the working precision, rounding it to a float once.
``prop1`` takes two ``exact._cot_row_sums`` calls per b, over the cos and
the sin row.  ``floor`` works per residue class of a mod b, not per a: one
``exact._floor_class_sums`` call per b gives the sums of the classes that
a = 1..1000 cover, conjugate classes s and b - s from one pass, and each
a then costs only its real part and its distance to floor(a/b).
"""

import math
import random
from array import array

from . import asymptotics, exact
from .numerics import PrecisionConfig, _context, _in_two

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


def _prop1_draws(seed: int, last_b: int) -> dict:
    """``{b: draws}`` for b = 2..last_b: the 20 ``(a, n, a_frac, n_frac)`` of b.

    One ``random.Random(seed)`` stream in b order.  ``(a, n)`` is for the
    cot-cos identity; ``(a_frac, n_frac)`` starts as ``(a, n)`` and is redrawn
    until b does not divide ``n_frac*a_frac``, since the fractional part is
    checked only where it is not 0.  The suite draws once, before its rows
    are split between processes.  The 80 numbers of b lie end to end in C
    longs, a third of the memory they take as ints in tuples.
    """
    rng = random.Random(seed)
    draws = {}
    for b in range(2, last_b + 1):
        draws[b] = array("l")
        for _ in range(20):
            a = a_frac = rng.randrange(1, 10**6)
            n = n_frac = rng.randrange(1, 10**6)
            while (n_frac * a_frac) % b == 0:
                a_frac = rng.randrange(1, 10**6)
                n_frac = rng.randrange(1, 10**6)
            draws[b].extend((a, n, a_frac, n_frac))
    return draws


def _prop1_row(b: int, draws: dict, cfg: PrecisionConfig) -> tuple:
    """``(max_cos, max_frac)`` of b over its draws, each residue rounded once."""
    d = draws[b]
    cos_steps, frac_steps = ([n * a % b for a, n in zip(d[i::4], d[i + 1::4])]
                             for i in (0, 2))
    cos_sums = exact._cot_row_sums(b, cos_steps, 1, cfg)
    sin_sums = exact._cot_row_sums(b, frac_steps, 2, cfg)
    with _context(cfg) as (mt, pi, real):
        frac_b = [
            abs(float(real(1) / 2 - s / (2 * b) - real(q) / b))
            for s, q in zip(sin_sums, frac_steps)
        ]
    return worst_residue(abs(float(s)) for s in cos_sums), worst_residue(frac_b)


def prop1(size: int | None, seed: int, cfg: PrecisionConfig):
    size = 200 if size is None else size
    bs = range(2, size + 1)
    # per b, two identities of b - 1 terms for each of the 20 draws
    child_terms = 40 * sum(b - 1 for b in bs[1::2])
    draws = _prop1_draws(seed, size)
    rows = _in_two(lambda b: _prop1_row(b, draws, cfg), bs, child_terms)
    cases = []
    for b, (max_cos, max_frac) in zip(bs, rows):
        # a nan maximum fails both comparisons
        ok = max_cos <= 1e-10 and max_frac <= 1e-10
        cases.append((f"b={b}", ok, worst_residue((max_cos, max_frac))))
    extra = {
        "max_cot_cos_residue": worst_residue(max_cos for max_cos, _ in rows),
        "max_frac_error": worst_residue(max_frac for _, max_frac in rows),
    }
    return cases, extra


def _floor_row(b: int, cfg: PrecisionConfig) -> tuple:
    """``(max_im, max_round)`` of b over a = 1..1000, class by class.

    The a of class s are s, s + b, ...; those of class 0 are b, 2b, ...
    Each distance to floor(a/b) is formed at the working precision, rounded once.
    """
    last_a = 1000
    # the classes of a = 1..last_a: no class 0 past b = last_a
    classes = range(0 if b <= last_a else 1, min(b, last_a + 1))
    sums = exact._floor_class_sums(b, classes, cfg)
    max_im = worst_residue([abs(float(im)) for _, im in sums.values()])
    with _context(cfg) as (mt, pi, real):
        offset = real(1) / (2 * b)
        half = real(1) / 2
        rounding = [
            abs(float(real(a) / b + offset - half + re - a // b))
            for s, (re, _) in sums.items()
            for a in range(s or b, last_a + 1, b)
        ]
    return max_im, worst_residue(rounding)


def floor(size: int | None, seed: int, cfg: PrecisionConfig):
    size = 100 if size is None else size
    bs = range(2, size + 1)
    # per b, two sums of b - 1 terms for each of the b residue classes of a;
    # a class and its conjugate b - s share their products, not their terms
    child_terms = 2 * sum(b * (b - 1) for b in bs[1::2])
    rows = _in_two(lambda b: _floor_row(b, cfg), bs, child_terms)
    cases = []
    for b, (max_im, max_round) in zip(bs, rows):
        # on the binary64 residues; a nan maximum fails both comparisons
        ok = max_round <= FLOOR_ROUND_TOL and max_im <= FLOOR_IMAG_TOL
        cases.append((f"b={b}", ok, max_im))
    extra = {
        "max_imag_residue": worst_residue(max_im for max_im, _ in rows),
        "max_rounding_distance": worst_residue(max_round for _, max_round in rows),
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
    c0_const = asymptotics._closed_form_C0(cfg)
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
    closed_form = asymptotics._closed_form_C0(cfg)
    estimate, _ = asymptotics.estimate_C0([100, 1000, 10000], K, cfg)
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
