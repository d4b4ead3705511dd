"""Compare the outputs of two kubolab source trees, byte for byte.

usage: python3 tools/byte_sweep.py SRC_A SRC_B [--only NAME ...]

SRC_A and SRC_B are `src/` directories.  Each shipped config
(configs/*.ini) and each benchmark workload (bench/run.py's config_text at
the base seed of `--seed 5`) runs once per tree, in a fresh process with
PYTHONPATH=<src> and OPENBLAS_NUM_THREADS=1.  Per config it prints whether
every manifest output hash and the config_sha256 agree, and the violation
counts on both sides; under each CSV output that differs, one line per moved
column with its largest absolute and relative change, and under a differing
summary.json, one line per moved leaf with its JSON path (a check is named
in it, as in checks[5:weight_inequality][1]) and its absolute and relative
change.  Exit status 1 on any difference or failed run.
`--only` runs the named configs (file names such as hall.ini, or workload
names such as hall-L24).
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_SEED = 5

CHILD = """
import json, sys
import kubolab
from kubolab.harness import ExperimentConfig, run_experiment
manifest = run_experiment(ExperimentConfig.load(sys.argv[1]), out_dir=sys.argv[2])
print(json.dumps({"package": kubolab.__file__, "outputs": manifest.outputs,
                  "config_sha256": manifest.config_sha256,
                  "violations": len(manifest.violations)}))
"""


def configs() -> dict[str, str]:
    """name -> config text: the shipped configs, then the bench workloads."""
    out = {path.name: path.read_text() for path in sorted((ROOT / "configs").glob("*.ini"))}
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for workload in bench.WORKLOADS:
        out[workload] = bench.config_text(workload, bench.base_seed_for(BENCH_SEED), tiny=False)
    return out


def run(src: Path, name: str, text: str) -> dict:
    """One suite run of the config `text` on the tree `src`, in a fresh
    process; "texts" maps the name of each CSV output and of summary.json to
    its text."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="byte-sweep-") as work:
        config = Path(work) / name
        config.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(config), str(Path(work) / "out")],
            cwd=work, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{name} on {src} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["texts"] = {
            path.name: path.read_text()
            for path in (Path(work) / "out").rglob("*")
            if path.suffix == ".csv" or path.name == "summary.json"
        }
    if not Path(result["package"]).resolve().is_relative_to(src):
        raise RuntimeError(f"kubolab was imported from {result['package']}, not {src}")
    return result


def column_changes(text_a: str, text_b: str) -> list[str]:
    """One line per column that differs between two CSV texts: the cells
    that moved, the largest absolute change with the row (named by its first
    cell) where it is, and the largest relative change |b - a| / |a|."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text))) for text in (text_a, text_b))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return [f"header or row count differs: {len(rows_a)} / {len(rows_b)} rows"]
    lines = []
    for j, column in enumerate(rows_a[0]):
        moved = [(row_a[0], row_a[j], row_b[j]) for row_a, row_b in zip(rows_a[1:], rows_b[1:]) if row_a[j] != row_b[j]]
        if not moved:
            continue
        try:
            changes = [(abs(float(b) - float(a)), label, a, b) for label, a, b in moved]
        except ValueError:
            lines.append(f"{column}: {len(moved)} cell(s), not numeric")
            continue
        rel = max(change / abs(float(a)) if float(a) else float("inf") for change, _, a, _ in changes)
        change, label, a, b = max(changes)
        lines.append(f"{column}: {len(moved)} cell(s), max abs {change:.4e} at {label} ({a} -> {b}), max rel {rel:.4e}")
    return lines


def _named(i: int, item) -> str:
    """The index of a list element, with the name of a record such as a check
    [name, value, tolerance, passed] after it: "5:weight_inequality"."""
    return f"{i}:{item[0]}" if isinstance(item, list) and item and isinstance(item[0], str) else str(i)


def _leaves(node, path: str = "") -> dict:
    """{JSON path: value} of every scalar and every empty container under node."""
    if isinstance(node, dict) and node:
        children = {f"{path}.{key}" if path else key: item for key, item in node.items()}
    elif isinstance(node, list) and node:
        children = {f"{path}[{_named(i, item)}]": item for i, item in enumerate(node)}
    else:
        return {path: node}
    return {leaf: value for child, item in children.items() for leaf, value in _leaves(item, child).items()}


def json_changes(text_a: str, text_b: str) -> list[str]:
    """One line per leaf that differs between two JSON texts: its path, and
    for two numbers the absolute change |b - a| and the relative change
    |b - a| / |a|; otherwise the two values, or the tree that has it."""
    leaves_a, leaves_b = (_leaves(json.loads(text)) for text in (text_a, text_b))
    lines = []
    for path in list(leaves_a) + [p for p in leaves_b if p not in leaves_a]:
        if path not in leaves_a or path not in leaves_b:
            lines.append(f"{path}: only in {'A' if path in leaves_a else 'B'}")
            continue
        a, b = leaves_a[path], leaves_b[path]
        if repr(a) == repr(b):
            continue
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
            change = abs(b - a)
            rel = change / abs(a) if a else float("inf")
            lines.append(f"{path}: abs {change:.4e} ({a!r} -> {b!r}), rel {rel:.4e}")
        else:
            lines.append(f"{path}: {a!r} -> {b!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--only", nargs="+", metavar="NAME", help="configs to run (default: all)")
    args = parser.parse_args(argv)
    texts = configs()
    unknown = set(args.only or ()) - set(texts)
    if unknown:
        parser.error(f"unknown config(s) {sorted(unknown)}; choose from {sorted(texts)}")
    names = [name for name in texts if args.only is None or name in args.only]
    srcs = [args.src_a.resolve(), args.src_b.resolve()]
    differ = False
    for name in names:
        try:
            a, b = (run(src, name, texts[name]) for src in srcs)
        except RuntimeError as exc:
            print(f"{name}: ERROR {exc}")
            differ = True
            continue
        files = sorted(set(a["outputs"]) | set(b["outputs"]))
        moved = [f for f in files if a["outputs"].get(f) != b["outputs"].get(f)]
        if a["config_sha256"] != b["config_sha256"]:
            moved.insert(0, "config_sha256")
        differ |= bool(moved)
        verdict = "same" if not moved else "DIFFERS: " + ", ".join(moved)
        print(f"{name}: {len(files)} outputs, {verdict}; "
              f"violations {a['violations']} / {b['violations']}")
        for output in moved:
            if output in a["texts"] and output in b["texts"]:
                changes = json_changes if output.endswith(".json") else column_changes
                for line in changes(a["texts"][output], b["texts"][output]):
                    print(f"  {output} {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
