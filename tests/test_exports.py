"""Every name a module lists in __all__ exists, so its star import works."""

import importlib

import pytest

MODULES = ("tensor", "ops", "psa", "models", "complexity", "training", "gradcheck")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"epsakit.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"epsakit.{name}.__all__ lists missing names {missing}"
