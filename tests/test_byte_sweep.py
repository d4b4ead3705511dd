import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _byte_sweep():
    spec = importlib.util.spec_from_file_location("byte_sweep", ROOT / "tools" / "byte_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_sweep_of_a_tree_against_itself_agrees():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "byte_sweep.py"), src, src, "--only", "algebra.ini", "hall.ini"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["algebra.ini", "hall.ini"]
    pattern = (r"same; violations 0 / 0; peak RSS (\d+\.\d) / (\d+\.\d) MB, "
               r"growth over import (\d+\.\d) / (\d+\.\d) MB")
    for line in lines:
        match = re.search(pattern, line)
        assert match, line
        peak_a, peak_b, growth_a, growth_b = (float(x) for x in match.groups())
        assert 0 < growth_a < peak_a and 0 < growth_b < peak_b, line


def test_byte_sweep_names_the_one_moved_cell(tmp_path):
    header = "check,value,tolerance,pass\n"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(header + "unitarity,2.0e-12,1e-10,True\ngauge,4.0,1e-08,True\n")
    b.write_text(header + "unitarity,2.0e-12,1e-10,True\ngauge,5.0,1e-08,True\n")
    lines = _byte_sweep().column_changes(a.read_text(), b.read_text())
    assert lines == ["value: 1 cell(s), max abs 1.0000e+00 at gauge (4.0 -> 5.0), max rel 2.5000e-01"]
    assert _byte_sweep().column_changes(a.read_text(), a.read_text()) == []


def test_byte_sweep_names_the_one_moved_summary_leaf():
    a = {
        "schema_version": 2,
        "checks": [["unitarity", 2.0e-12, 1e-10, True], ["gauge", 4.0, 1e-08, False]],
        "cell_errors": ["cell 1: StepSizeError: h ||H|| = 0.6"],
    }
    b = json.loads(json.dumps(a))
    b["checks"][1][1] = 5.0
    texts = [json.dumps(x, indent=2, sort_keys=True) for x in (a, b)]
    lines = _byte_sweep().json_changes(*texts)
    # a check is named by its first item; a list of strings keeps plain indices
    assert lines == ["checks[1:gauge][1]: abs 1.0000e+00 (4.0 -> 5.0), rel 2.5000e-01"]
    b["checks"][1][3] = True
    b["cell_errors"][0] = "cell 0: StepSizeError: h ||H|| = 0.6"
    assert _byte_sweep().json_changes(texts[1], json.dumps(b)) == [
        "cell_errors[0]: 'cell 1: StepSizeError: h ||H|| = 0.6' -> 'cell 0: StepSizeError: h ||H|| = 0.6'",
        "checks[1:gauge][3]: False -> True",
    ]
    assert _byte_sweep().json_changes(texts[0], texts[0]) == []
