"""Exact evaluation and asymptotic verification of the cotangent sum c0(h/k).

The package evaluates c0(h/k) = -sum_{m=1}^{k-1} (m/k) cot(pi*m*h/k) exactly
as a finite sum, provides the closed forms and finite trigonometric identities
surrounding it, and measures how well the two-term asymptotics

    c0(1/b) = (1/pi) b log b - (b/pi)(log 2pi - gamma) + delta(b)

track the exact values: the residual delta(b) stays bounded rather than
growing like log b, and the scan tooling here quantifies that.
"""

from . import asymptotics, exact, numerics
from .asymptotics import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*numerics.__all__, *exact.__all__, *asymptotics.__all__, "__version__"]
