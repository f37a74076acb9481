"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import cotsum

# __main__ runs the CLI on import.
SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(cotsum.__path__) if name != "__main__"
)


def test_package_exports_resolve():
    namespace = {}
    exec("from cotsum import *", namespace)
    assert [n for n in cotsum.__all__ if n not in namespace] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"cotsum.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
