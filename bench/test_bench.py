"""Fast test of the benchmark itself, on --tiny inputs.

usage: python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_prints_every_metric_with_its_unit(capsys, workload, trace):
    result, _ = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0",
                                 "--trace", str(trace), "--tiny"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_perturbed_reference_raises_checks_failed(capsys, monkeypatch, tmp_path):
    references = json.loads(run.REFERENCES.read_text())
    recorded = references["hall-L24/tiny"][str(run.base_seed_for(0))]
    recorded["hall_scaled_mean"] *= 1.0 + 1e-6
    perturbed = tmp_path / "references.json"
    perturbed.write_text(json.dumps(references))
    monkeypatch.setattr(run, "REFERENCES", perturbed)
    result, lines = _result(capsys, ["--workload", "hall-L24", "--seed", "0", "--seconds", "0",
                                     "--trace", "0", "--tiny"])
    assert result["correct"] is False and result["failed"] >= 1
    assert any("reference mismatch hall_scaled_mean" in line for line in lines)


def test_violations_cell_errors_and_output_drift_are_counted(monkeypatch):
    clean = {"violations": []}
    gate = {"violations": [["hall", 0.1, 0.05, False]]}
    cell = {"violations": [["cell_error", "cell 3: LinAlgError", "", False]]}
    reference = {"x": 1.0, "zero": 0.0}

    def check(data, outputs):
        monkeypatch.setattr(run, "physical_outputs", lambda experiment, out_dir: outputs)
        return run.check_suite_run(data, "hall", 2, None, reference)[:2]

    # one gate check, two cells, one reference value; "zero" is defect-sized
    assert check(clean, {"x": 1.0, "zero": 1e-15}) == (4, 0)
    assert check(gate, {"x": 1.0, "zero": 0.0}) == (4, 1)
    assert check(cell, {"x": 1.0, "zero": 0.0}) == (4, 1)
    assert check(clean, {"x": 1.0 + 1e-7, "zero": 0.0}) == (4, 1)
    assert run.compare_outputs({"a": "1", "b": "2"}, {"a": "1", "b": "3"})[:2] == (2, 1)
