"""Every name the package and its modules export through ``__all__``
resolves, so a deleted or renamed name leaves no stale export behind."""

import importlib
import pkgutil

import pytest

import siltkit

MODULES = ["siltkit"] + [f"siltkit.{info.name}"
                         for info in pkgutil.iter_modules(siltkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == [], name

