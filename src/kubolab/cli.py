"""Command line entry point.

Subcommands name the experiment suite; a config file supplies everything
else.  --check exits nonzero when any acceptance tolerance is violated.
"""

from __future__ import annotations

import argparse
import sys

from .harness import SUITES, ConfigError, ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kubolab",
        description="linear-response experiments on disordered magnetic lattices",
    )
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES:
        sp = sub.add_parser(name, help=f"run the {name} suite")
        sp.add_argument("--config", required=True, help="path to the config file")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--check", action="store_true", help="exit nonzero on tolerance violations")
        sp.add_argument("--threads", type=int, default=None, help="worker thread override")
        sp.add_argument("--seed", type=int, default=None, help="base seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        cfg.set("run", "experiment", args.suite)
        if args.threads is not None:
            cfg.set("run", "threads", args.threads)
        if args.seed is not None:
            cfg.set("model", "base_seed", args.seed)
        manifest = run_experiment(cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    n_bad = len(manifest.violations)
    for name, value, tolerance, _ in manifest.violations:
        print(f"VIOLATION {name} value={value} tolerance={tolerance}")
    print(
        f"{manifest.experiment}: {len(manifest.outputs)} output files, "
        f"{n_bad} violations (config {manifest.config_sha256[:12]})"
    )
    if args.check and n_bad:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
