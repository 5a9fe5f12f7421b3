"""Importing the package must not import scipy.stats.

``scipy.stats`` was once imported for one beta quantile, and its import was
the largest part of the package's start-up time and memory.  Each check runs
in a fresh interpreter, so imports made by the test session do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["mspc", "mspc.cli"])
def test_import_leaves_out_scipy_stats(module):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    code = (f"import sys, {module}; print({module}.__file__); "
            "print(*sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    origin, loaded = proc.stdout.splitlines()
    assert Path(origin).resolve().is_relative_to(SRC)
    assert loaded == ""
