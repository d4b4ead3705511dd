import contextlib
import io
import re
from pathlib import Path

from kubolab.acceptance import THRESHOLDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Quick start in Python", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    hall, chern = (float(x) for x in out.getvalue().split())
    assert abs(abs(hall) - abs(chern)) < THRESHOLDS["hall_quantization_clean"]
