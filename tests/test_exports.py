"""Every name a module lists in __all__ exists, so its star import works,
and every name the package re-exports is listed in its module's __all__."""

import ast
import importlib
from pathlib import Path

import pytest

import epsakit

MODULES = ("tensor", "ops", "psa", "models", "complexity", "training", "gradcheck")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"epsakit.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"epsakit.{name}.__all__ lists missing names {missing}"


def _package_imports():
    """(module, name) for every name epsakit/__init__.py imports from a submodule."""
    tree = ast.parse(Path(epsakit.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


@pytest.mark.parametrize("module,name", [pytest.param(m, n, id=f"{m}.{n}") for m, n in _package_imports()])
def test_package_reexports_only_listed_names(module, name):
    assert name in importlib.import_module(f"epsakit.{module}").__all__, (
        f"epsakit re-exports {name} but epsakit.{module}.__all__ does not list it"
    )
