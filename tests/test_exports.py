"""Every exported name resolves.

``from chpricing import *`` and ``from chpricing.ucp import *`` fail on a
stale ``__all__`` entry, but no import in the library or the tests does
that, so a deleted or renamed function would leave its export behind
unnoticed.  This checks the package's ``__all__`` and each submodule's.
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
