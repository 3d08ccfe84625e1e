"""The package runs on numpy alone: it never loads any scipy module.

scipy stays a dependency of the test suite (the reference exponential and
logarithm); the package exponentiates through ``linalg.expm`` and takes the
logarithms of Kempf-Ness path steps by their Mercator series. The sources
and tests import nothing they do not use, and use no API newer than the
Python 3.10 that pyproject.toml allows.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

PROBE = """
import sys
import numpy as np
import momentflow, momentflow.cli
from momentflow.algebra import torus_presentation
from momentflow.builtins import BUILTIN_NAMES
from momentflow.linalg import expm
from momentflow.representation import kempf_ness_value

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("loaded by import", scipy_modules())
for name in BUILTIN_NAMES:
    code = momentflow.cli.main(["--builtin", name, "--quiet", "--out-dir", sys.argv[1]])
    assert code == 0, (name, code)
    assert not scipy_modules(), ("loaded by " + name, scipy_modules())
path = expm(np.linspace(0.0, 1.0, 201)[:, None, None] * np.ones((1, 1, 1)))
value = kempf_ness_value(torus_presentation([[1]]), np.array([1.0 + 0j]), path)
assert abs(value - 2.0) <= 1e-9, value
assert not scipy_modules(), ("loaded by kempf_ness_value", scipy_modules())
"""


def test_import_builtins_and_kempf_ness_leave_scipy_unloaded(tmp_path):
    result = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "out")],
                            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in ("u1_weight1", "torus_12", "torus_c3", "su2_symd", "mgs_u1", "mgs_su2"):
        assert (tmp_path / "out" / name / "report.txt").is_file()


def test_no_scipy_import_in_sources():
    statement = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    hits = [path.name for path in sorted((SRC / "momentflow").glob("*.py"))
            if statement.search(path.read_text())]
    assert hits == []


def test_every_import_is_used():
    # a name a module imports is read in it or exported in its __all__; the
    # package's __init__ re-exports, so it is left out
    unused = []
    paths = sorted((SRC / "momentflow").glob("*.py")) + sorted(TESTS.glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(x, "id", None) == "__all__" for x in node.targets)
                 for elt in node.value.elts}
        unused += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in (a.asname or a.name.split(".")[0] for a in node.names)
                   if name not in used]
    assert unused == []


def _newer_than_python_3_10(node):
    """Whether ``node`` uses an API new in Python 3.11, which pyproject.toml
    does not require: ``BaseException.add_note`` or ``contextlib.chdir``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "add_note"
    if isinstance(node, ast.Attribute):
        return node.attr == "chdir" and getattr(node.value, "id", None) == "contextlib"
    if isinstance(node, ast.ImportFrom):
        return node.module == "contextlib" and any(a.name == "chdir" for a in node.names)
    return False


def test_sources_and_tests_run_on_python_3_10():
    paths = sorted((SRC / "momentflow").glob("*.py")) + sorted(TESTS.glob("*.py"))
    hits = [f"{path.name}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if _newer_than_python_3_10(node)]
    assert hits == []
