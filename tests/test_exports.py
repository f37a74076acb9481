"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _child_env

import cotsum
from cotsum import checks, cli

# __main__ runs the CLI on import.
SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(cotsum.__path__) if name != "__main__"
)


def test_package_exports_resolve():
    namespace = {}
    exec("from cotsum import *", namespace)
    assert [n for n in cotsum.__all__ if n not in namespace] == []


def test_package_exports_are_the_star_exported_modules():
    # a name in two lists would be star-imported twice, the later one winning
    lists = [cotsum.numerics.__all__, cotsum.exact.__all__, cotsum.asymptotics.__all__]
    names = [name for exported in lists for name in exported]
    assert len(names) == len(set(names))
    assert len(cotsum.__all__) == len(set(cotsum.__all__))
    assert set(cotsum.__all__) == {*names, "__version__"}


def _fresh(script: str) -> list:
    """The words ``script`` prints in a fresh interpreter, this package first."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
        timeout=120,
    )
    return proc.stdout.split()


def test_import_cotsum_loads_no_submodule():
    # a CLI start pays only for the modules its command runs
    assert _fresh(
        "import sys, cotsum\n"
        "print(*[m for m in sys.modules if m.startswith('cotsum.')])\n"
    ) == []


def test_star_import_binds_exactly_the_package_list():
    # __all__ is built on its first read, here by the star import itself
    assert _fresh(
        "import cotsum\n"
        "namespace = {}\n"
        "exec('from cotsum import *', namespace)\n"
        "print(sorted(set(namespace) - {'__builtins__'}) == sorted(cotsum.__all__))\n"
    ) == ["True"]


@pytest.mark.parametrize("name", ["numerics", "exact", "asymptotics"])
def test_star_exported_modules_resolve_before_their_import(name):
    assert _fresh(
        "import sys, cotsum\n"
        f"print('cotsum.{name}' in sys.modules, "
        f"cotsum.{name} is sys.modules['cotsum.{name}'])\n"
    ) == ["False", "True"]


@pytest.mark.parametrize("name", ["no_such_name", "_cot_row"])
def test_an_unknown_name_raises_attribute_error(name):
    # _cot_row is numerics' own, never star-exported
    message = f"module 'cotsum' has no attribute '{name}'"
    with pytest.raises(AttributeError, match=message):
        getattr(cotsum, name)


def test_cli_suite_names_are_the_suites():
    # the parser names them without importing checks
    assert cli.SUITE_NAMES == tuple(checks.SUITES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"cotsum.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_exported_exception_has_a_raiser():
    # an exception class nothing raises is dead API, however often it is caught
    raised = set()
    for path in Path(cotsum.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
            ):
                raised.add(node.exc.func.id)
    exceptions = [
        name
        for name in cotsum.__all__
        if isinstance(getattr(cotsum, name), type)
        and issubclass(getattr(cotsum, name), BaseException)
    ]
    assert exceptions
    assert [name for name in exceptions if name not in raised] == []


def _references(path: Path) -> set:
    """Names read in ``path``, as a ``Name`` or an ``Attribute``.

    A top-level statement's reads of the name it defines do not count, so a
    definition, a recursion or a self-reference does not reach itself.
    ``__all__`` lists hold strings, not names, and an import binds a name
    without reading it.
    """
    refs = set()
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {top.name}
        else:
            defined = {
                node.id
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
        read = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
        }
        refs |= read - defined
    return refs


def test_every_public_name_is_reached():
    # by the package's own code (the CLI, the verify suites and what they
    # call), or by an acceptance criterion: criterion 4 holds g_partial
    src = Path(cotsum.__file__).parent
    paths = [*src.glob("*.py"), Path(__file__).parent / "test_acceptance.py"]
    reached = set().union(*map(_references, paths))
    assert [n for n in cotsum.__all__ if n != "__version__" and n not in reached] == []
