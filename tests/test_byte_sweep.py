import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_byte_sweep_of_a_tree_against_itself_agrees():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "byte_sweep.py"), src, src, "--only", "algebra.ini", "hall.ini"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["algebra.ini", "hall.ini"]
    assert all(line.endswith("same; violations 0 / 0") for line in lines), lines
