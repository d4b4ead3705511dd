"""Suite-level benchmark for kubolab.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Each suite run is a fresh process (bench/child.py) that imports kubolab
from ``src/`` of this checkout, loads an INI config generated here from
--seed, and calls the public ``run_experiment``.  Suite runs repeat,
sequentially, until --seconds is spent, and at least twice; they use
``threads = 1`` and one BLAS thread (see BLAS_THREADS).  Each workload is
sized to a few seconds per suite run, so that an invocation's medians rest
on several runs spread over the whole --seconds window.

--trace 0 reports end-to-end medians: wall_s (suite start to manifest
written), setup_s (process start, import kubolab, parse config) and
peak_rss_mb, each over the suite runs of the invocation.  --trace 1 alternates
plain and traced suite runs and reports the per-layer metrics of spans.py,
harness.cpu_s and trace.overhead_s; it writes the spans of the traced runs
to .bench_out/trace-<workload>-seed<n>.json.

Every suite run is checked: suite violations and cell_error rows, physical
outputs against references.json, and output sha256 agreement between the
runs of one invocation, traced runs included.  The last stdout line is one
JSON object with the metrics and the checks attempted and failed; a
human-readable table with quartiles and sample counts comes before it.

--tiny shrinks every workload for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

# The user seed is folded onto these base seeds, for each of which the
# physical outputs were recorded at the commit that added the benchmark.
BASE_SEED0 = 20240811
N_BASE_SEEDS = 16

# Reference comparison: tighter than every acceptance gate on the compared
# values (kubo_vs_resolvent 1e-6, density_norm_conservation 1e-8), well above
# rounding across BLAS builds and thread counts (~1e-14 relative).  Values
# below DEFECT_SIZED are defect-sized (exact zeros by symmetry) and skipped.
RTOL = 1e-9
ATOL = 1e-12
DEFECT_SIZED = 1e-8

# OpenBLAS threads the 36x36 eigh of dynamics-check and the 64x64 products
# of kubo-sweep without making them faster, and then runs them 2-3x slower
# whenever another process holds the second core; hall-L24 gains 1.5x from a
# second thread and loses 2x under the same load.  One thread keeps the
# measured times independent of other load on the machine.
BLAS_THREADS = "1"

MIN_SUITE_RUNS = 2
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0

# Why each workload: see BENCHMARK.json.  "tiny" overrides shrink it for the
# benchmark's own test.
WORKLOADS = {
    "hall-L24": {
        "model": {"dimension": "2", "sides": "24,24", "boundary": "torus", "flux_p": "1",
                  "flux_q": "3", "disorder_w": "0.5", "n_realizations": "3"},
        "state": {"kind": "projection", "e_f": "auto", "filling": "0.3333333333333333"},
        "drive": {},
        "run": {"experiment": "hall", "name": "hall"},
        "tiny": {"model": {"sides": "6,6", "n_realizations": "2"}},
    },
    "kubo-sweep": {
        "model": {"dimension": "2", "sides": "8,8", "boundary": "torus", "flux_p": "1",
                  "flux_q": "4", "disorder_w": "0.5", "n_realizations": "1"},
        "state": {"kind": "projection", "e_f": "auto", "filling": "0.25"},
        "drive": {"eta_list": "1.0,0.5,0.25,0.125", "field_magnitude": "0.001", "field_axis": "2"},
        "run": {"experiment": "kubo-sweep", "name": "sweep"},
        "tiny": {"model": {"sides": "4,4", "n_realizations": "1"}, "drive": {"eta_list": "1.0"}},
    },
    "dynamics-check": {
        "model": {"dimension": "2", "sides": "6,6", "boundary": "torus", "flux_p": "1",
                  "flux_q": "3", "disorder_w": "0.0"},
        "state": {"kind": "projection", "e_f": "auto", "filling": "0.3333333333333333"},
        "drive": {"eta_list": "2.0", "field_magnitude": "0.1", "field_axis": "2", "step": "0.005"},
        "run": {"experiment": "dynamics-check", "name": "dynamics"},
        "tiny": {"drive": {"eta_list": "4.0", "step": "0.02"}},
    },
}

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def base_seed_for(seed: int) -> int:
    return BASE_SEED0 + seed % N_BASE_SEEDS


def reference_key(workload: str, tiny: bool) -> str:
    return f"{workload}/tiny" if tiny else workload


def sections(workload: str, base_seed: int, tiny: bool) -> dict:
    """Config sections of one workload input, section -> key -> raw value."""
    spec = WORKLOADS[workload]
    out = {}
    for section in ("model", "state", "drive", "run"):
        out[section] = dict(spec[section], **(spec["tiny"].get(section, {}) if tiny else {}))
    out["model"]["base_seed"] = str(base_seed)
    out["run"]["threads"] = "1"
    return out


def config_text(workload: str, base_seed: int, tiny: bool) -> str:
    lines = []
    for section, values in sections(workload, base_seed, tiny).items():
        lines += [f"[{section}]"] + [f"{k} = {v}" for k, v in values.items()] + [""]
    return "\n".join(lines)


def n_cells(workload: str, tiny: bool) -> int:
    """Guarded cells the suite maps over; each may yield a cell_error row."""
    config = sections(workload, 0, tiny)
    n_real = int(config["model"].get("n_realizations", "1"))
    experiment = config["run"]["experiment"]
    if experiment == "hall":
        return n_real
    if experiment == "kubo-sweep":
        return n_real * len(config["drive"]["eta_list"].split(","))
    return 0


# ---------------------------------------------------------------------------
# suite runs
# ---------------------------------------------------------------------------


def run_child(mode: str, config: Path, out_dir: Path, result: Path, run_id: str = "") -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = repr(time.monotonic())
    argv = [sys.executable, str(BENCH / "child.py"), mode, spawned, str(config), str(out_dir),
            str(result), run_id]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {config.name} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {config.name} failed:\n{proc.stderr[-4000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    if not Path(data["kubolab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported kubolab from {data['kubolab_file']}, not from {SRC}")
    return data


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def physical_outputs(experiment: str, out_dir: Path) -> dict:
    """The recorded physical outputs of one suite run, by name."""
    if experiment == "hall":
        rows = _rows(out_dir / "hall_summary.csv")  # no row when every cell failed
        return {"hall_scaled_mean": float(rows[0]["hall_scaled_mean"])} if rows else {}
    if experiment == "kubo-sweep":
        out = {}
        for row in _rows(out_dir / "kubo_sweep.csv"):
            cell = f"eta={row['eta']},j={row['j']},k={row['k']}"
            for col in ("sigma_res_re", "sigma_kubo_re", "streda_re"):
                out[f"{cell}:{col}"] = float(row[col])
        return out
    if experiment == "dynamics-check":
        out = {}
        for i, row in enumerate(_rows(out_dir / "dynamics_timeseries.csv")):
            for col in ("norm1", "norm2", "norminf"):
                out[f"row={i}:{col}"] = float(row[col])
        return out
    raise ValueError(f"no physical outputs for {experiment!r}")


def compare_to_reference(values: dict, reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for values against one recorded set."""
    if reference is None:
        return 1, 1, ["no reference recorded for this input"]
    attempted, failed, messages = 0, 0, []
    for key, ref in sorted(reference.items()):
        if abs(ref) < DEFECT_SIZED:
            continue
        attempted += 1
        got = values.get(key)
        if got is None or not abs(got - ref) <= RTOL * abs(ref) + ATOL:
            failed += 1
            messages.append(f"reference mismatch {key}: got {got!r}, recorded {ref!r}")
    for key in sorted(set(values) - set(reference)):
        attempted += 1
        failed += 1
        messages.append(f"output {key} has no recorded reference")
    return attempted, failed, messages


def check_suite_run(data: dict, experiment: str, cells: int, out_dir: Path,
                    reference: dict | None) -> tuple[int, int, list[str]]:
    """Gate violations, cell errors and reference values of one suite run."""
    violations = data["violations"]
    cell_errors = [v for v in violations if v and v[0] == "cell_error"]
    gates = [v for v in violations if not (v and v[0] == "cell_error")]
    attempted = 1 + cells
    failed = min(attempted, (1 if gates else 0) + len(cell_errors))
    messages = [f"violation {v}" for v in violations]
    a, f, m = compare_to_reference(physical_outputs(experiment, out_dir), reference)
    return attempted + a, failed + f, messages + m


def compare_outputs(first: dict, other: dict) -> tuple[int, int, list[str]]:
    """Output sha256 agreement of two runs of the same config and code."""
    names = sorted(set(first) | set(other))
    bad = [n for n in names if first.get(n) != other.get(n)]
    return len(names), len(bad), [f"output {n} differs between runs" for n in bad]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


# ---------------------------------------------------------------------------
# one benchmark invocation
# ---------------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    if not (SRC / "kubolab" / "__init__.py").is_file():
        raise BenchError(f"kubolab sources not found under {SRC}")
    experiment = WORKLOADS[workload]["run"]["experiment"]
    base_seed = base_seed_for(seed)
    cells = n_cells(workload, tiny)
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = references.get(reference_key(workload, tiny), {}).get(str(base_seed))

    work = WORK / f"{workload}{'-tiny' if tiny else ''}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(config_text(workload, base_seed, tiny))
    result = work / "result.json"

    attempted, failed, messages = 0, 0, []
    plain, traced = [], []
    started = time.monotonic()

    first_outputs = None
    k = 0
    while True:
        mode = "traced" if trace and k % 2 == 1 else "plain"
        out_dir = work / f"run{k}"
        t0 = time.monotonic()
        data = run_child(mode, config, out_dir, result, f"{workload}-seed{seed}-run{k}")
        last = time.monotonic() - t0
        a, f, m = check_suite_run(data, experiment, cells, out_dir / WORKLOADS[workload]["run"]["name"], reference)
        attempted, failed, messages = attempted + a, failed + f, messages + m
        if first_outputs is None:
            first_outputs = data["outputs"]
        else:
            a, f, m = compare_outputs(first_outputs, data["outputs"])
            attempted, failed, messages = attempted + a, failed + f, messages + m
        shutil.rmtree(out_dir)
        (traced if mode == "traced" else plain).append(data)
        k += 1
        elapsed = time.monotonic() - started
        if k >= MIN_SUITE_RUNS and (elapsed + last > seconds or elapsed + last > RUN_BUDGET_S):
            break

    samples = {
        "wall_s": [d["wall_s"] for d in plain],
        "setup_s": [d["setup_s"] for d in plain],
        "peak_rss_mb": [d["peak_rss_mb"] for d in plain],
    }
    if trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(d["layers"][name] for d in traced)
        metrics["harness.cpu_s"] = statistics.median(d["cpu_s"] for d in plain)
        metrics["trace.overhead_s"] = (
            statistics.median(d["wall_s"] for d in traced) - statistics.median(samples["wall_s"])
        )
        trace_file = WORK / f"trace-{workload}{'-tiny' if tiny else ''}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "base_seed": base_seed,
            "layers": [d["layers"] for d in traced],
            "runs": [d["spans"] for d in traced],
        }))
        samples["traced_wall_s"] = [d["wall_s"] for d in traced]
    else:
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    shutil.rmtree(work)
    return {
        "workload": workload, "seed": seed, "base_seed": base_seed,
        "attempted": attempted, "failed": failed, "messages": messages,
        "samples": samples, "metrics": metrics,
    }


def units_for(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the benchmark's test")
    args = parser.parse_args(argv)
    try:
        units = units_for(bool(args.trace))
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for msg in report["messages"]:
        print(f"CHECK FAILED {msg}")
    print(f"{args.workload} seed={args.seed} base_seed={report['base_seed']} "
          f"checks_failed={report['failed']} checks_total={report['attempted']}")
    for name, values in report["samples"].items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<16} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    metrics = {}
    for name, unit in units.items():
        if name not in report["metrics"]:
            print(f"benchmark error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": report["metrics"][name], "unit": unit}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
