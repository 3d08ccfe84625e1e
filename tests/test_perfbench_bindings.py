"""The names the perfbench tracer binds and the calls the workloads make
must exist in the package.

``perfbench/tracing.py`` skips a name it cannot find, so a renamed function
would silently read 0 in the benchmark's per-layer counters; a dropped
parameter would fail the benchmark's tasks instead of a test.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import momentflow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


@pytest.mark.parametrize("module",
                         sorted(m.name for m in pkgutil.iter_modules(momentflow.__path__)))
def test_every_exported_name_resolves(module):
    # the tracer wraps each module's __all__ and skips a missing name
    mod = importlib.import_module("momentflow." + module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _workload_calls():
    """((module, name), positional count, keywords) of each call that
    perfbench/workloads.py makes into momentflow, read from its source."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, functions = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "momentflow":
            modules.update((a.asname or a.name, "momentflow." + a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("momentflow."):
            functions.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in modules:
            target = (modules[f.value.id], f.attr)
        elif isinstance(f, ast.Name) and f.id in functions:
            target = functions[f.id]
        else:
            continue
        calls.add((target, len(node.args), tuple(k.arg for k in node.keywords)))
    return sorted(calls)


def test_workload_calls_are_found():
    calls = {(target, kw) for target, _, kw in _workload_calls()}
    assert (("momentflow.degeneration", "torus_oracle"), ("max_support",)) in calls
    assert (("momentflow.flow", "FlowOptions"), ("t_max",)) in calls


@pytest.mark.parametrize("target, positional, keywords", [
    pytest.param(*call, id=f"{call[0][0].removeprefix('momentflow.')}.{call[0][1]}")
    for call in _workload_calls()])
def test_workload_call_binds(target, positional, keywords):
    module, name = target
    fn = getattr(importlib.import_module(module), name)
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
