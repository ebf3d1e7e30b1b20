"""Every name a module lists in __all__ exists, so its star import works,
every name the package re-exports is listed in its module's __all__, and
no module imports a name it neither uses nor exports."""

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


# Imported but not used by the module itself: perfbench's tracer and its
# tests look these names up in psa and patch them there.
UNUSED_IMPORTS_ALLOWED = {("psa", "relu"), ("psa", "linear")}

SOURCES = sorted(p for p in Path(epsakit.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(n for n in imported - used - exported if (path.stem, n) not in UNUSED_IMPORTS_ALLOWED)
    assert not unused, f"epsakit/{path.name} imports {unused} but never uses them"
