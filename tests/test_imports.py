"""The import graph: `import kubolab` needs numpy only.

scipy is loaded by the Fermi-Dirac occupation (`fermi_dirac` and a
finite-temperature state's profile) and `hs_norm` alone, on first use, and
the zero-temperature suites never reach either.  numpy.random is loaded with
the package, so that a suite's first disorder draw imports nothing.  Each
check runs in a fresh interpreter, because this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kubolab.funcalc import SpectralData, fermi_dirac, gaussian_function, hs_norm
from kubolab.model import CovariantOperator

from conftest import make_chain

SRC = Path(__file__).resolve().parents[1] / "src"

# the shapes of the three benchmark workloads, shrunk; disorder > 0 so that
# the realizations draw from numpy.random
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
}

PROBE = textwrap.dedent(
    """
    import json, sys

    def loaded(prefix):
        return sorted(k for k in sys.modules if k == prefix or k.startswith(prefix + "."))

    facts = {}
    import kubolab
    import kubolab.cli
    facts["scipy_after_import"] = loaded("scipy")
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

    from kubolab.funcalc import SpectralData, fermi_dirac, gaussian_function, hs_norm
    from kubolab.model import CovariantOperator, FluxSpec, LatticeConfig, LatticeModel
    import numpy as np

    facts["hs_norm"] = hs_norm(gaussian_function(), 1)
    facts["scipy_after_hs_norm"] = "scipy.integrate" in sys.modules
    model = LatticeModel(LatticeConfig(1, (2,), "open"), FluxSpec())
    h = CovariantOperator(np.diag([0.3, 5.0]), model)
    f = fermi_dirac(SpectralData.from_operator(h), beta=2.0, e_f=0.3)
    facts["fermi_dirac"] = np.diag(f.matrix).real.tolist()
    facts["scipy_after_fermi_dirac"] = "scipy.special" in sys.modules
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
def test_zero_temperature_suites_never_load_scipy(tmp_path):
    facts = _probe(tmp_path)

    assert facts["scipy_after_import"] == []
    assert facts["numpy_random_after_import"]
    assert set(facts["runs"]) == set(SUITE_CONFIGS)
    for name, run in facts["runs"].items():
        assert run["violations"] == [], name
        new = run["new_modules"]
        assert not [m for m in new if m == "scipy" or m.startswith("scipy.")], (name, new)
        assert not [m for m in new if m.startswith("numpy.random")], (name, new)

    # the two scipy users still work, loading scipy on demand
    assert facts["scipy_after_hs_norm"] and facts["scipy_after_fermi_dirac"]
    assert facts["hs_norm"] == hs_norm(gaussian_function(), 1)
    model = make_chain(2, "open")
    h = CovariantOperator([[0.3, 0.0], [0.0, 5.0]], model)
    f = fermi_dirac(SpectralData.from_operator(h), beta=2.0, e_f=0.3)
    assert facts["fermi_dirac"] == f.matrix.diagonal().real.tolist()
    assert facts["fermi_dirac"][0] == 0.5
