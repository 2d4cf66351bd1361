"""Every name that the package or one of its modules lists in ``__all__``
resolves."""

import importlib
import pkgutil

import pytest

import signeddec

SUBMODULES = [f"signeddec.{m.name}" for m in pkgutil.iter_modules(signeddec.__path__)]
MODULES = [
    name for name in ["signeddec", *SUBMODULES]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
