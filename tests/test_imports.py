"""Import hygiene of the package.

Importing the package must import neither scipy.stats nor scipy.optimize.

``scipy.stats`` was once imported for one beta quantile, and ``scipy.optimize``
for one scalar root of the back-off's secular equation; each import was a
large part of the package's start-up time and memory.  Each of these checks
runs in a fresh interpreter, so imports made by the test session do not count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LEFT_OUT = ("scipy.stats", "scipy.optimize")


@pytest.mark.parametrize("module", ["mspc", "mspc.cli"])
def test_import_leaves_out_heavy_scipy_modules(module):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    code = (f"import sys, {module}; print({module}.__file__); "
            f"print(*sorted(m for m in sys.modules "
            f"if any(m == p or m.startswith(p + '.') for p in {LEFT_OUT!r})))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    origin, loaded = proc.stdout.splitlines()
    assert Path(origin).resolve().is_relative_to(SRC)
    assert loaded == ""


def test_no_module_imports_a_private_name_of_another():
    # The benchmark's tracer times public names only, so a private kernel
    # imported across modules runs untimed.
    private = []
    for path in sorted((SRC / "mspc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                            f"import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
