"""Import hygiene of the package.

No module of the package imports scipy when it is loaded, so importing the
package loads no scipy module.  Each scipy subpackage it once imported
(stats, optimize, special, linalg) was a large part of its start-up time and
memory, and scipy.linalg loaded a second OpenBLAS whose idle thread pool
spun while numpy's worked.  Two functions import part of scipy when called:
the Clopper-Pearson interval of the coverage experiment (``scipy.special``,
for a beta quantile numpy has no form of), and the band routines of
``linalg`` where numpy's wheel OpenBLAS is not found (``scipy.linalg``).  A
pipeline run maps one OpenBLAS library.  The checks run in a fresh
interpreter, so imports made by the test session do not count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = SRC.parent


def run_fresh(code: str, *args: str) -> list:
    """The lines that ``code`` prints, run in a fresh interpreter that finds the package in src/."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, cwd=ROOT)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("module", ["mspc", "mspc.cli"])
def test_import_leaves_out_heavy_scipy_modules(module):
    origin, loaded = run_fresh(f"import sys, {module}; print({module}.__file__); "
                               f"print(*sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert Path(origin).resolve().is_relative_to(SRC)
    assert loaded == ""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_pipeline_maps_one_openblas(tmp_path):
    # numpy's OpenBLAS does every factorization, the band routines included,
    # so a pipeline run starts one BLAS thread pool.
    code = ("import sys\nfrom pathlib import Path\nfrom mspc.cli import main\n"
            "assert main(['pipeline', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "maps = Path('/proc/self/maps').read_text().splitlines()\n"
            "paths = {line.split()[-1] for line in maps if len(line.split()) == 6}\n"
            "print(*sorted('BLAS ' + p for p in paths "
            "if Path(p).name.startswith(('libscipy_openblas', 'libopenblas'))), sep='\\n')\n")
    blas = [line for line in run_fresh(code, "configs/two_state.json", str(tmp_path))
            if line.startswith("BLAS ")]
    assert len(blas) == 1, blas


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


def scipy_imports(tree: ast.AST, scope: str = "<module>") -> set:
    """(scope, module) for every import of scipy in ``tree``; scope is the enclosing function."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= scipy_imports(node, node.name)
            continue
        if isinstance(node, ast.Import):
            found |= {(scope, alias.name) for alias in node.names if alias.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            found |= {(scope, f"{node.module}.{alias.name}") if node.module == "scipy"
                      else (scope, node.module) for alias in node.names}
        found |= scipy_imports(node, scope)
    return found


def test_scipy_is_imported_at_load_by_no_module():
    # Only two functions import scipy, when called: the coverage experiment's
    # beta quantile and the band routines where numpy's OpenBLAS is not found.
    found = {path.name: scipy_imports(ast.parse(path.read_text()))
             for path in sorted((SRC / "mspc").glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {
        "linalg.py": {("banded_cholesky_solve", "scipy.linalg")},
        "validate.py": {("clopper_pearson_interval", "scipy.special")},
    }


def annotation_names(node: ast.AST) -> set:
    """Names read by an annotation, those inside string annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(tree: ast.AST) -> set:
    """Names that ``tree`` imports and never reads, in its code or in its annotations."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= annotation_names(node.annotation)
    return imported - used


def test_every_import_is_used():
    # No linter runs on the package; __init__.py imports its modules to re-export them.
    found = {path.name: unused_imports(ast.parse(path.read_text()))
             for path in sorted((SRC / "mspc").glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_check_reads_code_and_string_annotations():
    code = ("from __future__ import annotations\n"
            "import numpy as np\nimport os.path\nfrom .ocp import SocRow, ConicProgram\n"
            "def f(x: 'SocRow | None') -> 'np.ndarray':\n    return x\n")
    assert unused_imports(ast.parse(code)) == {"os", "ConicProgram"}
