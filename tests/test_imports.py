"""The import graph: kubolab needs numpy only.

Every suite runs, with 0 violations, in an interpreter where importing
scipy fails, and leaves no scipy module loaded.  numpy.random is loaded
with the package, so that a suite's first disorder draw imports nothing.
Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the shapes of the three benchmark workloads and of the other shipped
# configs, shrunk; disorder > 0 so that the realizations draw from numpy.random
SUITE_CONFIGS = {
    "hall": (
        "[model]\ndimension = 2\nsides = 6,6\nflux_p = 1\nflux_q = 3\n"
        "disorder_w = 0.5\nbase_seed = 11\nn_realizations = 2\n"
        "[state]\ne_f = auto\nfilling = 0.3333333333333333\n"
        "[run]\nexperiment = hall\nname = hall\n"
    ),
    "kubo-sweep": (
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 4\n"
        "disorder_w = 0.5\nbase_seed = 11\nn_realizations = 1\n"
        "[state]\ne_f = auto\nfilling = 0.25\n"
        "[drive]\neta_list = 1.0\n"
        "[run]\nexperiment = kubo-sweep\nname = sweep\n"
    ),
    "dynamics-check": (
        "[model]\ndimension = 2\nsides = 6,6\nflux_p = 1\nflux_q = 3\n"
        "[state]\ne_f = auto\nfilling = 0.3333333333333333\n"
        "[drive]\neta_list = 4.0\nfield_magnitude = 0.1\nstep = 0.02\n"
        "[run]\nexperiment = dynamics-check\nname = dynamics\n"
    ),
    "equilibrium": (
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 4\n"
        "disorder_w = 1.0\nbase_seed = 11\nn_realizations = 3\n"
        "[state]\nkind = fermi_dirac\nbeta = 4.0\ne_f = -1.8\n"
        "[run]\nexperiment = equilibrium\nname = equilibrium\n"
    ),
    "funcalc-check": (
        "[model]\ndimension = 1\nsides = 8\nboundary = open\nbase_seed = 11\n"
        "[run]\nexperiment = funcalc-check\nname = funcalc\n"
    ),
    "algebra-check": (
        "[model]\ndimension = 1\nsides = 8\nboundary = torus\ndisorder_w = 1.0\nbase_seed = 7\n"
        "[run]\nexperiment = algebra-check\nname = algebra\n"
    ),
}

PROBE = textwrap.dedent(
    """
    import json, sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not installed here")

    sys.meta_path.insert(0, NoScipy())

    def loaded(prefix):
        return sorted(k for k in sys.modules if k == prefix or k.startswith(prefix + "."))

    facts = {}
    import kubolab
    import kubolab.cli
    facts["numpy_random_after_import"] = "numpy.random" in sys.modules

    from kubolab.harness import ExperimentConfig, run_experiment
    facts["runs"] = {}
    for name, text in json.loads(sys.argv[1]).items():
        before = set(sys.modules)
        manifest = run_experiment(ExperimentConfig.parse(text), sys.argv[2])
        facts["runs"][name] = {
            "new_modules": sorted(set(sys.modules) - before),
            "violations": manifest.violations,
        }
    facts["scipy_loaded"] = loaded("scipy")
    print(json.dumps(facts))
    """
)


def _probe(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SUITE_CONFIGS), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.slow
def test_every_suite_runs_without_scipy(tmp_path):
    facts = _probe(tmp_path)

    assert facts["numpy_random_after_import"]
    assert set(facts["runs"]) == set(SUITE_CONFIGS)
    for name, run in facts["runs"].items():
        assert run["violations"] == [], name
        assert not [m for m in run["new_modules"] if m.startswith("numpy.random")], (name, run["new_modules"])
    assert facts["scipy_loaded"] == []
