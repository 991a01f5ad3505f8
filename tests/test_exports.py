"""Every name a module lists in ``__all__`` is an attribute of it, so a name
left behind by a deletion fails here, not at some user's star import."""

import importlib
import pkgutil

import pytest

import evtlab

MODULES = [f"evtlab.{m.name}" for m in pkgutil.iter_modules(evtlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_what_the_module_has(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
