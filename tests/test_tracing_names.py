"""The benchmark's tracer binds library functions by name; they must exist.

``perfbench/tracing.py`` wraps each function in its ``WRAPPED`` table, and
``perfbench/run.py --trace 1`` fails if one is missing.  This reads the
table's literal from the source, without running perfbench, so a rename
or deletion in the library fails here first.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chpricing

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


def test_installed_tracer_wraps_the_package_names():
    # Tracer.install rebinds each wrapper wherever a chpricing module binds
    # the original, the package's star re-exports included; run in a fresh
    # interpreter, as perfbench's traced child runs it
    exported = [f"{m}.{fn}" for m, fns in sorted(WRAPPED.items()) for fn in fns
                if fn in chpricing.__all__]
    code = f"""
import importlib, json, sys
sys.path.insert(0, {str(TRACING.parent)!r})
import chpricing, tracing
tracing.Tracer().install()
seen = {{}}
for name in {exported!r}:
    module_name, fn = name.split(".")
    obj = getattr(chpricing, fn)
    module = importlib.import_module("chpricing." + module_name)
    seen[name] = [obj is getattr(module, fn), hasattr(obj, "__wrapped__")]
print(json.dumps(seen))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(chpricing.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    seen = json.loads(done.stdout)
    assert exported and sorted(seen) == sorted(exported)
    assert {name: flags for name, flags in seen.items() if flags != [True, True]} == {}
