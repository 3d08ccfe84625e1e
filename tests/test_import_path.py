"""Importing momentflow and running a builtin never loads scipy.linalg.

scipy stays a dependency of the test suite (the reference exponential and
logarithm), but the package itself exponentiates through ``linalg.expm``;
``kempf_ness_value`` alone imports scipy, inside the function.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import momentflow, momentflow.cli
assert "scipy.linalg" not in sys.modules, "loaded by import"
code = momentflow.cli.main(["--builtin", "mgs_su2", "--quiet", "--out-dir", sys.argv[1]])
assert code == 0, code
assert "scipy.linalg" not in sys.modules, "loaded by the mgs_su2 run"
"""


def test_import_and_builtin_run_leave_scipy_linalg_unloaded(tmp_path):
    result = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "out")],
                            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "mgs_su2" / "report.txt").is_file()


def test_no_scipy_expm_in_sources():
    hits = [path.name for path in sorted((SRC / "momentflow").glob("*.py"))
            if "scipy.linalg.expm" in path.read_text()]
    assert hits == []
