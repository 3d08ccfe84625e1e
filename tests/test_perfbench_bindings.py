"""The names the perfbench tracer binds must exist in the package.

``perfbench/tracing.py`` skips a name it cannot find, so a renamed function
would silently read 0 in the benchmark's per-layer counters.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    t = _tracing()
    out = [(layer, cls, meth) for layer, cls, meth in t.METHODS]
    out += [(layer, None, name) for layer, names in t.PRIVATE.items() for name in names]
    out += [(layer, None, name)
            for layer, name in (qual.split(".") for qual in t.INTEGRATIONS)]
    return out


@pytest.mark.parametrize("layer, cls, name", _bindings())
def test_traced_name_resolves(layer, cls, name):
    mod = importlib.import_module("momentflow." + layer)
    if cls is not None:
        # the tracer looks the method up on the class itself
        assert name in vars(getattr(mod, cls))
    else:
        assert inspect.isfunction(getattr(mod, name, None))
