"""Exact evaluation and asymptotic verification of the cotangent sum c0(h/k).

The package evaluates c0(h/k) = -sum_{m=1}^{k-1} (m/k) cot(pi*m*h/k) exactly
as a finite sum, provides the closed forms and finite trigonometric identities
surrounding it, and measures how well the two-term asymptotics

    c0(1/b) = (1/pi) b log b - (b/pi)(log 2pi - gamma) + delta(b)

track the exact values: the residual delta(b) stays bounded rather than
growing like log b, and the scan tooling here quantifies that.
"""

from .asymptotics import (
    LogFitReport,
    ResidualRecord,
    c0_main_terms,
    check_C0_nodes,
    estimate_C0,
    extrapolate_C0,
    f_term,
    g_partial,
    inner_block_expansion,
    r_series,
    residual_scan,
    s_sum_asymptotic,
    s_sum_direct,
    taylor_f1,
    taylor_f2,
)
from .exact import (
    EstermannValue,
    c0,
    cot_cos_identity_residual,
    estermann_at_zero,
    floor_identities,
    frac_via_cot_sin,
)
from .numerics import (
    CapacityError,
    ConstantEstimate,
    DEFAULT_CONFIG,
    PrecisionConfig,
    PreconditionError,
    ReducedFraction,
    bernoulli,
    euler_gamma,
    log_two_pi,
    sum_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConstantEstimate",
    "DEFAULT_CONFIG",
    "EstermannValue",
    "LogFitReport",
    "PrecisionConfig",
    "PreconditionError",
    "ReducedFraction",
    "ResidualRecord",
    "bernoulli",
    "c0",
    "c0_main_terms",
    "check_C0_nodes",
    "cot_cos_identity_residual",
    "estermann_at_zero",
    "estimate_C0",
    "euler_gamma",
    "extrapolate_C0",
    "f_term",
    "floor_identities",
    "frac_via_cot_sin",
    "g_partial",
    "inner_block_expansion",
    "log_two_pi",
    "r_series",
    "residual_scan",
    "s_sum_asymptotic",
    "s_sum_direct",
    "sum_strategy",
    "taylor_f1",
    "taylor_f2",
    "__version__",
]
