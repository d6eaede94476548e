"""The benchmark's tracer binds library functions by name; they must exist.

``perfbench/tracing.py`` wraps each function in its ``WRAPPED`` table, and
``perfbench/run.py --trace 1`` fails if one is missing.  This reads the
table's literal from the source, without running perfbench, so a rename
or deletion in the library fails here first.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing_table(name):
    """The literal assigned to a module-level name of perfbench/tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACING}")


WRAPPED = tracing_table("WRAPPED")


@pytest.mark.parametrize("module_name", sorted(WRAPPED))
def test_wrapped_functions_resolve(module_name):
    module = importlib.import_module(f"chpricing.{module_name}")
    for fn_name in WRAPPED[module_name]:
        assert callable(getattr(module, fn_name, None)), \
            f"chpricing.{module_name}.{fn_name} is traced but missing"


def test_crossing_layer_names_are_wrapped():
    wrapped = {f"{m}.{fn}" for m, fns in WRAPPED.items() for fn in fns}
    assert set(tracing_table("CROSSING")) <= wrapped
