"""Run one kubolab suite in this fresh process and write its timings as JSON.

usage: python child.py MODE SPAWNED CONFIG OUT_DIR RESULT_JSON [RUN_ID]

MODE is "plain" (run the suite) or "traced" (run it with spans; see
spans.py).
SPAWNED is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so setup_s spans the
interpreter start too.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    mode, spawned, config, out_dir, result_path = argv[:5]
    import kubolab
    from kubolab.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig.load(config)
    setup_s = time.monotonic() - float(spawned)
    result = {"kubolab_file": kubolab.__file__, "setup_s": setup_s}
    tracer = None
    if mode == "traced":
        from spans import ROOT, Tracer

        tracer = Tracer(argv[5], cfg.lattice_config().n_sites)
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer is None:
        manifest = run_experiment(cfg, out_dir)
    else:
        manifest = tracer.call(ROOT, run_experiment, cfg, out_dir)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outputs"] = manifest.outputs
    result["violations"] = manifest.violations
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_columns()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
