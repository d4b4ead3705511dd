"""Run the benchmark on several seeds and report each metric's spread.

usage: python3 bench/spread.py --workload NAME [--seeds 0-9] [--trace 0|1]
                               [--record bench/baseline.json]

The spread of a metric is the distance between the first and third
quartile of its values over the seeds, as a share of their median; the
benchmark is steady when each end-to-end spread stays well inside the
metric's bound in BENCHMARK.json.  --record adds the runs, their summary
and the machine's environment to a JSON file under the workload's name.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run


def environment() -> dict:
    """nproc, BLAS and the benchmark's BLAS threads, versions, git commit and L3 size."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (run.ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": run.BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "l3_cache": l3.read_text().strip() if l3.exists() else None,
    }


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None)
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=run.ROOT, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["elapsed_s"] = time.monotonic() - t0
        runs.append(result)
        print(f"seed {seed}: {result['elapsed_s']:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = run.quartiles(values)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": spread,
                         "bound": bounds.get(name)}
        if name in bounds or args.trace:
            print(f"{name:<48} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread "
                  f"{'-' if spread is None else f'{spread:.4f}'}"
                  f"{'' if bounds.get(name) is None else f'  bound {bounds[name]}'}")
    if args.record:
        path = run.ROOT / args.record
        data = json.loads(path.read_text()) if path.exists() else {}
        data["environment"] = environment()
        key = f"{args.workload}/trace{args.trace}"
        data.setdefault("runs", {})[key] = {"seeds": args.seeds, "seconds": spec["run_seconds"],
                                            "summary": summary, "results": runs}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
