"""Every exported name resolves, and each has one owner.

``from chpricing import *`` and ``from chpricing.ucp import *`` fail on a
stale ``__all__`` entry, but no import in the tests does that, so a
deleted or renamed function would leave its export behind unnoticed.
This checks the package's ``__all__`` and each submodule's.  The package
re-exports its public submodules' ``__all__`` by star import, where a
name declared in two modules would silently take the later module's
object; the owner test catches that.
"""
import importlib
import pkgutil

import pytest

import chpricing

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(chpricing.__path__))


@pytest.mark.parametrize("module_name", [""] + SUBMODULES)
def test_all_names_resolve(module_name):
    name = "chpricing" + (f".{module_name}" if module_name else "")
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_every_submodule_declares_its_exports():
    assert {"hull", "pricing", "ucp"} <= set(SUBMODULES)
    for module_name in SUBMODULES:
        assert importlib.import_module(f"chpricing.{module_name}").__all__


def test_each_public_name_has_one_owner():
    exported = chpricing.__all__
    assert len(exported) == len(set(exported)), "a name is exported twice"
    public = [m for m in SUBMODULES if not m.startswith("_")]
    declared = ["__version__"]
    for module_name in public:
        module = importlib.import_module(f"chpricing.{module_name}")
        declared += module.__all__
        for export in module.__all__:
            obj = getattr(module, export)
            assert getattr(chpricing, export) is obj, export
            assert obj.__module__ == module.__name__, \
                f"{module.__name__}.{export} is declared in {obj.__module__}"
    assert sorted(exported) == sorted(declared)
