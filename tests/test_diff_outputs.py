"""scripts/diff_outputs.py: the output comparison used to check that a change
keeps every demo output, up to floating-point rounding."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"
_spec = importlib.util.spec_from_file_location("diff_outputs", _SCRIPT)
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)


def write_tree(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


REPORT = {"passed": True, "rows": [{"j": 0, "h": 0.25}], "status": "Optimal"}
CSV = "j,k,rate\n0,1,0.125\n0,2,0.5\n"


@pytest.fixture
def base(tmp_path):
    return write_tree(tmp_path / "a", {"report.json": json.dumps(REPORT), "v.csv": CSV})


def test_identical_directories_exit_0(tmp_path, base, capsys):
    other = write_tree(tmp_path / "b", {"report.json": json.dumps(REPORT), "v.csv": CSV})
    assert diff_outputs.main(str(base), str(other)) == 0
    out = capsys.readouterr().out
    assert "report.json: identical" in out and "v.csv: identical" in out


def test_numeric_difference_prints_largest_relative_and_exits_0(tmp_path, base, capsys):
    doc = {**REPORT, "rows": [{"j": 0, "h": 0.25 * (1 + 1e-12)}]}
    other = write_tree(tmp_path / "b", {"report.json": json.dumps(doc),
                                        "v.csv": CSV.replace("0.5", "0.5000000001")})
    assert diff_outputs.main(str(base), str(other)) == 0
    out = capsys.readouterr().out
    assert "report.json: differs" in out and "v.csv: differs" in out
    assert ".rows[].h: max relative difference 1e-12" in out
    assert "[].rate: max relative difference 2e-10" in out
    assert "non-numeric" not in out


@pytest.mark.parametrize("doc", [
    {**REPORT, "status": "Infeasible"},
    {**REPORT, "passed": False},
    {**REPORT, "rows": []},
])
def test_non_numeric_mismatch_exits_1(tmp_path, base, capsys, doc):
    other = write_tree(tmp_path / "b", {"report.json": json.dumps(doc), "v.csv": CSV})
    assert diff_outputs.main(str(base), str(other)) == 1
    assert "non-numeric" in capsys.readouterr().out


def test_missing_file_exits_1(tmp_path, base, capsys):
    other = write_tree(tmp_path / "b", {"report.json": json.dumps(REPORT)})
    assert diff_outputs.main(str(base), str(other)) == 1
    assert f"v.csv: missing in {other}" in capsys.readouterr().out
