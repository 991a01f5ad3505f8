"""Every name a module lists in ``__all__`` is an attribute of it, so a name
left behind by a deletion fails here, not at some user's star import; and
``evtlab`` exports exactly those lists, each module's ``__all__`` being the
one declaration of a public name."""

import importlib
import pkgutil
import types

import pytest

import evtlab

MODULES = [f"evtlab.{m.name}" for m in pkgutil.iter_modules(evtlab.__path__)]
# evtlab re-exports every module's __all__ but the command line's
EXPORTED = [m for m in MODULES if m not in ("evtlab.cli", "evtlab.__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_what_the_module_has(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_evtlab_exports_the_modules_all_lists_and_its_submodules():
    public = {n for n in vars(evtlab) if not n.startswith("_")}
    declared = {n for m in EXPORTED for n in importlib.import_module(m).__all__}
    submodules = {n for n in public if isinstance(getattr(evtlab, n), types.ModuleType)}
    assert public == declared | submodules
    assert all(getattr(evtlab, n).__name__ == f"evtlab.{n}" for n in submodules)


def test_evtlab_geometric_is_the_law_factory_not_the_submodule():
    assert evtlab.geometric is evtlab.dist.geometric
