import configparser
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from kubolab.cli import main as cli_main
from kubolab.dynamics import evolve_density_ode
from kubolab.harness import (
    SUITES,
    ConfigError,
    ExperimentConfig,
    ensemble_average,
    run_experiment,
)
from kubolab.model import LatticeModel
from kubolab.opspace import norms
from kubolab.response import ResponseBasis

MINIMAL_CONFIG = """\
[model]
dimension = 1
sides = 8
boundary = torus
disorder_w = 1.0
base_seed = 777

[state]
kind = fermi_dirac
beta = 3.0
e_f = -0.5

[run]
experiment = algebra-check
name = t
"""


def small_config(overrides=None):
    cfg = ExperimentConfig.parse(MINIMAL_CONFIG)
    for (sec, key), val in (overrides or {}).items():
        cfg.set(sec, key, val)
    return cfg


# -- config ------------------------------------------------------------------


def test_config_round_trip():
    # validated text values (e_f, s_min, method) are stored as written
    cfg = small_config({("drive", "s_min"): "-30", ("drive", "method"): "magnus2"})
    again = ExperimentConfig.parse(cfg.serialize())
    assert again.values == cfg.values
    assert again.digest() == cfg.digest()


def test_defaults_are_filled():
    cfg = ExperimentConfig.parse("[model]\ndimension = 2\n")
    assert cfg[("model", "sides")] == (12, 12)
    assert cfg[("run", "experiment")] == "algebra-check"


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse("[model]\nflux = 3\n")
    assert "model.flux" in str(err.value)


def test_bad_value_reports_key():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse("[model]\ndimension = two\n")
    assert "model.dimension" in str(err.value)


def test_unknown_tolerance_override_rejected():
    cfg = small_config({("run", "tolerance_overrides"): "no_such_tol=1"})
    with pytest.raises(ConfigError):
        cfg.tolerances()


def test_tolerance_override_applied():
    cfg = small_config({("run", "tolerance_overrides"): "algebra_identity=1e-6"})
    assert cfg.tolerances()["algebra_identity"] == 1e-6


def test_auto_fermi_level_sits_in_gap():
    cfg = ExperimentConfig.parse(
        "[model]\ndimension = 2\nsides = 6,6\nflux_p = 1\nflux_q = 3\n"
        "[state]\ne_f = auto\nfilling = 0.3333333333333333\n"
    )
    model = cfg.model_for(0)
    evals = np.linalg.eigvalsh(
        __import__("kubolab").build_hamiltonian(model).matrix
    )
    e_f = cfg.fermi_energy(evals)
    assert evals[11] < e_f < evals[12]


@pytest.mark.parametrize(
    "raw,value", [("", ()), ("0", (0.0,)), ("1.0,0.5,1.0", (1.0, 0.5, 1.0))],
    ids=["empty", "zero", "repeated"],
)
def test_eta_list_validated_when_built(raw, value):
    with pytest.raises(ConfigError, match=r"drive\.eta_list"):
        ExperimentConfig.parse(f"[drive]\neta_list = {raw}\n")
    with pytest.raises(ConfigError, match=r"drive\.eta_list"):
        small_config().set("drive", "eta_list", value)


def test_drive_axis_validated():
    cfg = small_config({("drive", "field_axis"): 3})
    with pytest.raises(ConfigError):
        cfg.drive_for(1.0)


def test_field_axis_one_based():
    cfg = ExperimentConfig.parse("[model]\ndimension = 2\nsides = 6,6\n")
    drive = cfg.drive_for(1.0)  # default axis label 2 -> internal axis 1
    assert drive.field[0] == 0.0 and drive.field[1] != 0.0


# -- ensemble averaging --------------------------------------------------------


def test_single_value_has_no_stderr():
    mean, stderr = ensemble_average([3.25])
    assert mean == 3.25 and stderr is None


def test_constant_list_zero_stderr():
    mean, stderr = ensemble_average([2.0] * 12)
    assert mean == 2.0 and stderr == 0.0


def test_stderr_tracks_normal_scaling():
    rng = np.random.default_rng(5)
    sigma_true = 2.0
    n = 25
    estimates = []
    for _ in range(100):
        vals = rng.normal(0.0, sigma_true, size=n)
        _, stderr = ensemble_average(vals.tolist())
        estimates.append(stderr)
    target = sigma_true / np.sqrt(n)
    assert abs(np.mean(estimates) - target) < 0.3 * target


# -- experiment runs -------------------------------------------------------------


def test_algebra_suite_passes(tmp_path):
    manifest = run_experiment(small_config(), out_dir=tmp_path)
    assert manifest.violations == []
    out = tmp_path / "t"
    assert (out / "algebra_check.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_sha256"] == manifest.config_sha256


def test_outputs_bitwise_deterministic(tmp_path):
    run_experiment(small_config(), out_dir=tmp_path / "a")
    run_experiment(small_config(), out_dir=tmp_path / "b")
    for name in ("algebra_check.csv", "summary.json"):
        assert (tmp_path / "a/t" / name).read_bytes() == (tmp_path / "b/t" / name).read_bytes()


def test_thread_count_does_not_change_outputs(tmp_path):
    equilibrium = small_config({
        ("model", "n_realizations"): 6,
        ("run", "experiment"): "equilibrium",
        ("model", "dimension"): 2,
        ("model", "sides"): (4, 4),
        ("model", "flux_p"): 1,
        ("model", "flux_q"): 4,
    })
    kubo_sweep = ExperimentConfig.parse(
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 4\n"
        "disorder_w = 0.5\nbase_seed = 42\nn_realizations = 3\n"
        "[state]\ne_f = auto\nfilling = 0.25\n"
        "[drive]\neta_list = 1.0,0.5\n"
        "[run]\nexperiment = kubo-sweep\nname = t\n"
    )
    hall = ExperimentConfig.parse(
        "[model]\ndimension = 2\nsides = 12,12\nflux_p = 1\nflux_q = 3\n"
        "disorder_w = 0.5\nbase_seed = 20240811\nn_realizations = 4\n"
        "[state]\ne_f = auto\nfilling = 0.3333333333333333\n"
        "[run]\nexperiment = hall\nname = t\n"
    )
    for i, (cfg1, threads) in enumerate([(equilibrium, 4), (kubo_sweep, 2), (hall, 2)]):
        cfg_n = ExperimentConfig.parse(cfg1.serialize())
        cfg_n.set("run", "threads", threads)
        one = run_experiment(cfg1, out_dir=tmp_path / f"{i}_one")
        many = run_experiment(cfg_n, out_dir=tmp_path / f"{i}_many")
        assert one.outputs == many.outputs  # summary.json's config hash included
        for name in one.outputs:
            assert (tmp_path / f"{i}_one/t" / name).read_bytes() == (
                tmp_path / f"{i}_many/t" / name
            ).read_bytes()


DYNAMICS_TINY = """\
[model]
dimension = 2
sides = 6,6
boundary = torus
flux_p = 1
flux_q = 3
disorder_w = 0.0

[state]
kind = projection
e_f = auto
filling = 0.3333333333333333

[drive]
eta_list = 4.0
field_magnitude = 0.1
field_axis = 2
step = 0.02

[run]
experiment = dynamics-check
name = t
"""


def test_weight_gate_reads_its_margin(tmp_path):
    # a margin of -0.5 asks for a weighted norm below half the bound
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    cfg.set("run", "tolerance_overrides", "weight_margin=-0.5")
    manifest = run_experiment(cfg, out_dir=tmp_path)
    gate = [v for v in manifest.violations if v[0] == "weight_inequality"]
    assert len(gate) == 1 and gate[0][2] == -0.5


@pytest.mark.slow
def test_dynamics_suite_gates_timeseries_and_determinism(tmp_path):
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(ExperimentConfig.parse(DYNAMICS_TINY), out_dir=tmp_path / "b")
    assert first.violations == []
    with open(tmp_path / "a/t/dynamics_check.csv", newline="") as fh:
        checks = list(csv.DictReader(fh))
    assert len(checks) == 8 and all(row["pass"] == "True" for row in checks)

    # the timeseries is the suite's one Liouville march, on its own grid; its
    # last row is the rho(0) the gates judge
    with open(tmp_path / "a/t/dynamics_timeseries.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    spectral = cfg.spectral_for(0)
    state = cfg.state_for(spectral)
    rho = evolve_density_ode(spectral, cfg.drive_for(4.0), state, 0.0, cfg.grid_for(4.0))
    n = norms(rho)
    assert float(last["t"]) == 0.0
    assert [float(last[c]) for c in ("norm1", "norm2", "norminf")] == [n.norm1, n.norm2, n.norminf]

    assert first.outputs == second.outputs
    for name in first.outputs:
        assert (tmp_path / "a/t" / name).read_bytes() == (tmp_path / "b/t" / name).read_bytes()


DECOMPOSITION_CASES = {
    "kubo-sweep": (
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 4\n"
        "disorder_w = 0.5\nbase_seed = 42\nn_realizations = 2\n"
        "[state]\ne_f = auto\nfilling = 0.25\n"
        "[drive]\neta_list = 1.0,0.5,0.25\n",
        2, 0,
    ),
    "hall": (
        "[model]\ndimension = 2\nsides = 6,6\nflux_p = 1\nflux_q = 3\n"
        "disorder_w = 0.5\nbase_seed = 20240811\nn_realizations = 2\n"
        "[state]\ne_f = auto\nfilling = 0.3333333333333333\n",
        2, 1,  # the one eigvalsh is the clean model's, for e_F
    ),
    "equilibrium": (
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 4\n"
        "disorder_w = 1.0\nbase_seed = 5\nn_realizations = 3\n"
        "[state]\ne_f = auto\nfilling = 0.25\n",
        3, 0,
    ),
}


def _count_decompositions(monkeypatch, n):
    """Counts of np.linalg.eigh and eigvalsh calls on n x n inputs, live."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(a, *args, _raw=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) == (n, n):
                counts[_name] += 1
            return _raw(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("experiment", sorted(DECOMPOSITION_CASES))
def test_one_eigendecomposition_per_realization(tmp_path, monkeypatch, experiment):
    text, eigh_calls, eigvalsh_calls = DECOMPOSITION_CASES[experiment]
    cfg = ExperimentConfig.parse(text + f"[run]\nexperiment = {experiment}\nname = t\n")
    counts = _count_decompositions(monkeypatch, cfg.lattice_config().n_sites)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert not [v for v in manifest.violations if v[0] == "cell_error"]
    assert counts == {"eigh": eigh_calls, "eigvalsh": eigvalsh_calls}


def test_dynamics_check_decomposition_budget(tmp_path, monkeypatch):
    # the realization's H once, H(r_k) at every node of the RK4 Duhamel march,
    # and one H at each step of the two magnus2 propagator marches (unitarity
    # and the weight bound); the Liouville march of an RK4 grid decomposes nothing
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    grid = cfg.grid_for(4.0)
    assert grid.method == "ode_rk4"
    s = grid.s_min
    expected = 1 + (grid.n_steps(s, 0.0, even=True) + 1) + grid.n_steps(s, 0.0) + grid.n_steps(s / 4.0, 0.0)
    counts = _count_decompositions(monkeypatch, cfg.lattice_config().n_sites)
    assert run_experiment(cfg, out_dir=tmp_path).violations == []
    assert counts["eigh"] == expected


@pytest.mark.parametrize("include_fd,bases_per_realization", [(False, 1), (True, 2)])
def test_one_response_basis_per_realization(tmp_path, monkeypatch, include_fd, bases_per_realization):
    # the eta loop builds only kernels; the FD cross-check adds one
    # gauge-derivative basis per realization, and per eta one eigh of H(0)
    # for each of its 2d net currents, which start from the realization's zeta
    text, _, _ = DECOMPOSITION_CASES["kubo-sweep"]
    fd = "include_fd = true\nstep = 0.05\ntruncation_tol = 1e-6\n" if include_fd else ""
    cfg = ExperimentConfig.parse(text + fd + "[run]\nexperiment = kubo-sweep\nname = t\n")
    kernels = []
    raw = ResponseBasis.of.__func__

    def counted(cls, spectral, state, kernel="minimal_image"):
        kernels.append(kernel)
        return raw(cls, spectral, state, kernel)

    monkeypatch.setattr(ResponseBasis, "of", classmethod(counted))
    counts = _count_decompositions(monkeypatch, cfg.lattice_config().n_sites)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert not [v for v in manifest.violations if v[0] == "cell_error"]
    assert len(kernels) == 2 * bases_per_realization
    assert kernels.count("minimal_image") == 2
    d, n_eta = cfg[("model", "dimension")], len(cfg[("drive", "eta_list")])
    assert counts["eigh"] == 2 * (1 + 2 * d * n_eta * include_fd)


@pytest.mark.parametrize(
    "experiment,extra,filled",
    [
        ("hall", "", False),
        ("kubo-sweep", "", False),
        ("kubo-sweep", "include_fd = true\nstep = 0.05\ntruncation_tol = 1e-6\n", True),
    ],
    ids=["hall", "kubo-sweep", "kubo-sweep-fd"],
)
def test_dense_hop_cache_only_on_the_driven_path(tmp_path, monkeypatch, experiment, extra, filled):
    # H and the velocities form their hop matrices on demand; only H(t) keeps them
    models = []
    parts = LatticeModel._forward_parts.func
    monkeypatch.setattr(LatticeModel, "_forward_parts", property(lambda m: models.append(m) or parts(m)))
    text, _, _ = DECOMPOSITION_CASES[experiment]
    cfg = ExperimentConfig.parse(text + extra + f"[run]\nexperiment = {experiment}\nname = t\n")
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert not [v for v in manifest.violations if v[0] == "cell_error"]
    assert bool(models) == filled


def test_manifest_records_seeds_and_hashes(tmp_path):
    cfg = small_config({("model", "n_realizations"): 3})
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert len(manifest.seeds) == 3
    from kubolab.model import realization_seed

    assert manifest.seeds[1] == realization_seed(777, 1)
    data = json.loads((tmp_path / "t" / "manifest.json").read_text())
    assert set(data["outputs"]) == {"algebra_check.csv", "summary.json"}


def test_unknown_experiment_rejected():
    cfg = small_config({("run", "experiment"): "nonsense"})
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_kubo_sweep_csv_schema(tmp_path):
    cfg = ExperimentConfig.parse(
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 4\n"
        "disorder_w = 0.5\nbase_seed = 3\nn_realizations = 2\n"
        "[state]\ne_f = auto\nfilling = 0.25\n"
        "[drive]\neta_list = 1.0,0.5\n"
        "[run]\nexperiment = kubo-sweep\nname = t\n"
    )
    run_experiment(cfg, out_dir=tmp_path)
    header = (tmp_path / "t/kubo_sweep.csv").read_text().splitlines()[0]
    assert header == (
        "eta,j,k,sigma_fd_re,sigma_fd_im,sigma_kubo_re,sigma_kubo_im,"
        "sigma_res_re,sigma_res_im,streda_re,streda_im,n_realizations,stderr"
    )
    raw = (tmp_path / "t/kubo_sweep_raw.csv").read_text().splitlines()
    assert len(raw) == 1 + 2 * 2 * 4  # two etas, two realizations, 2x2 tensor

    # the ensemble's imaginary columns are the means of the computed ones
    with open(tmp_path / "t/kubo_sweep_raw.csv") as fh:
        raw = list(csv.DictReader(fh))
    with open(tmp_path / "t/kubo_sweep.csv") as fh:
        ens = list(csv.DictReader(fh))
    columns = ("sigma_res_im", "sigma_kubo_im", "streda_im")
    assert any(float(row[c]) != 0.0 for row in raw for c in columns)
    for row in ens:
        cell = [r for r in raw if (r["eta"], r["j"], r["k"]) == (row["eta"], row["j"], row["k"])]
        assert len(cell) == 2
        for c in columns:
            assert float(row[c]) == math.fsum(float(r[c]) for r in cell) / 2


# -- CLI ---------------------------------------------------------------------------


def test_cli_runs_and_exits_zero(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL_CONFIG)
    rc = cli_main(["algebra-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0


# the base each kubo-sweep case starts from: its finite-difference route runs
# in well under a second when the config is sound
CONFIG_ERROR_BASES = {
    "kubo-sweep": (
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 4\n"
        "disorder_w = 0.5\nbase_seed = 11\n"
        "[state]\nfilling = 0.25\n"
        "[drive]\neta_list = 4.0\ninclude_fd = true\n"
    ),
    "equilibrium": "[model]\nsides = 4,4\n[state]\nkind = fermi_dirac\n",
}


@pytest.mark.parametrize(
    "suite,section,key,raw",
    [
        ("equilibrium", "state", "e_f", "abc"),
        ("dynamics-check", "drive", "s_min", "-1e3x"),
        ("dynamics-check", "drive", "method", "rk5"),
        # values that each parse, but that the lattice or the time grid rejects
        ("kubo-sweep", "model", "sides", "6"),
        ("hall", "model", "sides", "6"),
        ("kubo-sweep", "drive", "step", "-0.01"),
        ("kubo-sweep", "drive", "s_min", "-3"),
        ("algebra-check", "run", "tolerance_overrides", "algebra_identity=abc"),
        # an unknown state, and a state the Streda trace of hall does not take
        ("hall", "state", "kind", "bogus"),
        ("hall", "state", "kind", "fermi_dirac"),
        # values outside their key's own domain, which its schema parser rejects
        ("kubo-sweep", "drive", "include_fd", "yes"),
        ("kubo-sweep", "model", "n_realizations", "0"),
        ("kubo-sweep", "state", "e_f", "nan"),
        ("equilibrium", "state", "beta", "0"),
        ("kubo-sweep", "state", "filling", "nan"),
        ("kubo-sweep", "drive", "truncation_tol", "0"),
        ("dynamics-check", "drive", "step", "nan"),
        ("dynamics-check", "drive", "s_min", "nan"),
        ("kubo-sweep", "drive", "eta_list", "inf"),
        ("dynamics-check", "drive", "field_magnitude", "nan"),
        ("kubo-sweep", "drive", "delta_e", "0"),
        ("hall", "model", "disorder_w", "nan"),
        # files that configparser itself rejects (section None: raw is the whole file)
        ("hall", None, "no section header", "x = 1\n"),
        ("hall", None, "duplicate key", "[model]\ndimension = 2\ndimension = 2\n"),
    ],
)
def test_cli_rejects_malformed_value_as_config_error(tmp_path, capsys, suite, section, key, raw):
    cfg_path = tmp_path / "cfg.ini"
    if section is None:
        cfg_path.write_text(raw)
    else:
        parser = configparser.ConfigParser()
        parser.read_string(CONFIG_ERROR_BASES.get(suite, ""))
        parser.read_dict({"run": {"name": "t"}})
        parser.read_dict({section: {key: raw}})
        with cfg_path.open("w") as fh:
            parser.write(fh)
    rc = cli_main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:")
    assert section is None or f"{section}.{key}" in err
    assert not (tmp_path / "out").exists()


def test_shipped_configs_parse_round_trip_and_build():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    assert paths
    for path in paths:
        cfg = ExperimentConfig.load(path)
        assert cfg[("run", "experiment")] in SUITES, path.name
        assert ExperimentConfig.parse(cfg.serialize()).values == cfg.values, path.name
        cfg.lattice_config(), cfg.flux(), cfg.disorder()


def test_set_and_constructor_run_the_schema_parser():
    # the parser's own reason is kept in the message
    with pytest.raises(ConfigError, match=r"drive\.method.*choose from"):
        small_config().set("drive", "method", "rk5")
    with pytest.raises(ConfigError, match=r"drive\.method.*choose from"):
        ExperimentConfig({("drive", "method"): "rk5"})
    with pytest.raises(ConfigError, match=r"model\.dimension.*invalid literal"):
        ExperimentConfig.parse("[model]\ndimension = two\n")
    cfg = small_config({("model", "sides"): [6, 6], ("drive", "s_min"): -30.0})
    assert cfg[("model", "sides")] == (6, 6) and cfg[("drive", "s_min")] == "-30.0"


# suite -> (config, tolerance override that fails a gate, that gate's name)
FAILING_GATE_CASES = {
    "hall": (DECOMPOSITION_CASES["hall"][0], "hall_quantization_disordered=1e-30", "hall"),
    "kubo-sweep": (DECOMPOSITION_CASES["kubo-sweep"][0], "kubo_vs_resolvent=1e-30", "kubo_vs_resolvent"),
    "dynamics-check": (DYNAMICS_TINY, "gauge_equivalence=1e-30", "gauge_equivalence"),
    "equilibrium": (MINIMAL_CONFIG, "equilibrium_clean=0", "equilibrium_j_1"),
    "funcalc-check": (MINIMAL_CONFIG, "hs_vs_spectral=1e-30", "hs_vs_spectral"),
    "algebra-check": (MINIMAL_CONFIG, "algebra_identity=1e-30", "centrality_diamond"),
}


@pytest.mark.parametrize(
    "suite",
    [pytest.param(s, marks=pytest.mark.slow) if s == "funcalc-check" else s for s in SUITES],
)
def test_cli_check_mode_flags_violations(tmp_path, capsys, suite):
    # every suite's violations are [name, value, tolerance, passed] records,
    # printed field by field
    text, override, gate = FAILING_GATE_CASES[suite]
    cfg = ExperimentConfig.parse(text)
    cfg.set("run", "name", "t")
    cfg.set("run", "tolerance_overrides", override)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg.serialize())
    rc = cli_main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--check"])
    assert rc == 2
    violations = json.loads((tmp_path / "out/t/summary.json").read_text())["violations"]

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    for v in violations:
        assert len(v) == 4 and isinstance(v[0], str) and number(v[1]), v
        assert (number(v[2]) or v[2] == "") and v[3] is False, v
    assert gate in [v[0] for v in violations]
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("VIOLATION ")]
    assert printed == [f"VIOLATION {name} value={value} tolerance={tol}" for name, value, tol, _ in violations]


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        MINIMAL_CONFIG.replace("experiment = algebra-check", "experiment = equilibrium")
    )
    cli_main(["equilibrium", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    cli_main(["equilibrium", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "9"])
    assert (tmp_path / "a/t/equilibrium_raw.csv").read_text() != (
        tmp_path / "b/t/equilibrium_raw.csv"
    ).read_text()


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[model]\nbogus = 1\n")
    rc = cli_main(["algebra-check", "--config", str(cfg_path)])
    assert rc == 1


@pytest.mark.parametrize("experiment", ["equilibrium", "hall", "kubo-sweep"])
def test_cell_failures_recorded_not_fatal(tmp_path, experiment):
    # a degenerate Fermi level in every realization: cells fail, the run
    # completes, and the failures are summarized
    cfg = ExperimentConfig.parse(
        "[model]\ndimension = 1\nsides = 4\nboundary = torus\n"
        "disorder_w = 0.0\nn_realizations = 2\n"
        "[state]\nkind = projection\ne_f = 0.0\n"
        f"[run]\nexperiment = {experiment}\nname = t\n"
    )
    manifest = run_experiment(cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    cell_errors = summary["summary"]["cell_errors"]
    assert len(cell_errors) == 2 and all("Degenerate" in msg for msg in cell_errors)
    assert manifest.violations == [["cell_error", msg, "", False] for msg in cell_errors]
    for name in manifest.outputs:
        if name.endswith(".csv"):  # header only: no realization survived
            assert len((tmp_path / "t" / name).read_text().splitlines()) == 1


def test_cell_linalg_failure_recorded_not_fatal(tmp_path, monkeypatch):
    def residue(model, state):
        raise np.linalg.LinAlgError("imaginary residue 1e-3 exceeds 1e-8")

    monkeypatch.setattr("kubolab.harness.equilibrium_current", residue)
    cfg = small_config({("run", "experiment"): "equilibrium", ("model", "n_realizations"): 2})
    run_experiment(cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert len(summary["summary"]["cell_errors"]) == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_cell_programming_error_is_fatal(tmp_path, monkeypatch, threads):
    def broken(model, state):
        raise TypeError("unsupported operand")

    monkeypatch.setattr("kubolab.harness.equilibrium_current", broken)
    cfg = small_config({
        ("run", "experiment"): "equilibrium",
        ("model", "n_realizations"): 2,
        ("run", "threads"): threads,
    })
    with pytest.raises(TypeError, match="unsupported operand"):
        run_experiment(cfg, out_dir=tmp_path)


HALL_L24 = (
    "[model]\ndimension = 2\nsides = 24,24\nflux_p = 1\nflux_q = 3\n"
    "disorder_w = 0.5\nbase_seed = 20240811\nn_realizations = 2\n"
    "[state]\ne_f = auto\nfilling = 0.3333333333333333\n"
    "[run]\nexperiment = hall\nname = hall\n"
)

RSS_PROBE = textwrap.dedent(
    """
    import json, sys
    import kubolab
    from kubolab.harness import ExperimentConfig, run_experiment

    def status_kib(field):
        # this process's own counters: ru_maxrss would also carry the peak
        # of the forking parent, which exec keeps
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

    after_import = status_kib("VmRSS")
    manifest = run_experiment(ExperimentConfig.parse(sys.argv[1]), sys.argv[2])
    growth = (status_kib("VmHWM") - after_import) * 1024
    print(json.dumps({"growth": growth, "violations": manifest.violations}))
    """
)


@pytest.mark.slow
def test_hall_peak_rss_over_import_is_bounded(tmp_path):
    # the working set of one realization: P, M_0, M_1, one P M_j, the
    # eigenvectors and the eigh workspace, well under the dozen N x N arrays
    # a dense hop cache and a whole-spectrum P would hold
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, HALL_L24, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout.splitlines()[-1])
    assert facts["violations"] == []
    n = 24 * 24
    assert facts["growth"] <= 9 * n * n * 16
