"""Exact evaluation and asymptotic verification of the cotangent sum c0(h/k).

The package evaluates c0(h/k) = -sum_{m=1}^{k-1} (m/k) cot(pi*m*h/k) exactly
as a finite sum, provides the closed forms and finite trigonometric identities
surrounding it, and measures how well the two-term asymptotics

    c0(1/b) = (1/pi) b log b - (b/pi)(log 2pi - gamma) + delta(b)

track the exact values: the residual delta(b) stays bounded rather than
growing like log b, and the scan tooling here quantifies that.

The public names are those in the ``__all__`` of ``numerics``, ``exact`` and
``asymptotics``, plus ``__version__``.  ``import cotsum`` loads none of the
three: a name, or the submodule itself, imports its module on first use
(PEP 562), so that a CLI start compiles only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# Each imports the ones before it.
_MODULES = ("numerics", "exact", "asymptotics")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for m in _MODULES for n in __getattr__(m).__all__] + ["__version__"]
    else:
        # In _MODULES' order, so the search imports no module that the name's
        # own does not.  No public name starts with "_", so a probe such as
        # __wrapped__ imports nothing.
        owner = None
        if not name.startswith("_"):
            owner = next((m for m in map(__getattr__, _MODULES) if name in m.__all__),
                         None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
