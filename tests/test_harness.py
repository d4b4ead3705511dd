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

from kubolab.acceptance import THRESHOLDS
from kubolab.cli import main as cli_main
from kubolab import dynamics, harness, response
from kubolab.dynamics import evolve_density_ode
from kubolab.harness import (
    SUITES,
    ConfigError,
    ExperimentConfig,
    ensemble_average,
    run_experiment,
)
from kubolab.opspace import norms

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
    # validated text values (e_f, boundary) are stored as written
    cfg = small_config({("state", "e_f"): "-5e-1", ("model", "boundary"): "open"})
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
    # a config cannot change a tolerance: the table has no config key
    with pytest.raises(ConfigError, match=r"unknown config key run\.tolerance_overrides"):
        small_config({("run", "tolerance_overrides"): "no_such_tol=1"})


@pytest.mark.parametrize(
    "override",
    [
        "algebra_identity=abc",
        "algebra_identity=nan",
        # entries whose THRESHOLDS value is a tuple or an int, not a float
        "riemann_order_ratio=2",
        "hall_n_realizations=3",
        "eta_sweep_values=0.5",
        # float parameters, which the suites read from the table alone
        "fd_delta_e=0.5",
        "hall_disorder_strength=9.0",
    ],
)
def test_tolerance_overrides_checked_on_parse(override):
    # no THRESHOLDS entry, of any type, is set from a config file
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse(f"[run]\ntolerance_overrides = {override}\n")
    assert "unknown config key run.tolerance_overrides" in str(err.value)


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
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_sha256"] == manifest.config_sha256


def test_outputs_bitwise_deterministic(tmp_path):
    run_experiment(small_config(), out_dir=tmp_path / "a")
    run_experiment(small_config(), out_dir=tmp_path / "b")
    assert (tmp_path / "a/t/summary.json").read_bytes() == (tmp_path / "b/t/summary.json").read_bytes()


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


def test_weight_gate_reads_its_margin(tmp_path, monkeypatch):
    # a margin of -0.5 asks for a weighted norm below half the bound
    monkeypatch.setitem(THRESHOLDS, "weight_margin", -0.5)
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    gate = [v for v in manifest.violations if v[0] == "weight_inequality"]
    assert len(gate) == 1 and gate[0][2] == -0.5
    # the value is the relative excess weighted_norm / bound - 1, so a failed
    # gate reads above its tolerance
    assert gate[0][1] > gate[0][2]

    # and a passing one at or below it: 2.0000015 against a bound of 2 is an
    # excess of 7.5e-7, inside the default margin 1e-6, though 1.5e-6 above
    monkeypatch.setitem(THRESHOLDS, "weight_margin", 1e-6)
    report = dynamics.WeightReport(weighted_norm=2.0000015, bound=2.0, gamma=1.0)
    monkeypatch.setattr(harness, "propagator_weight_check", lambda *args: report)
    run_experiment(cfg, out_dir=tmp_path / "fake")
    checks = json.loads((tmp_path / "fake/t/summary.json").read_text())["checks"]
    (_, value, tolerance, passed), = [c for c in checks if c[0] == "weight_inequality"]
    assert passed is True and value == pytest.approx(7.5e-7) and value <= tolerance


@pytest.mark.slow
def test_dynamics_suite_gates_timeseries_and_determinism(tmp_path):
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(ExperimentConfig.parse(DYNAMICS_TINY), out_dir=tmp_path / "b")
    assert first.violations == []
    checks = json.loads((tmp_path / "a/t/summary.json").read_text())["checks"]
    assert len(checks) == 8 and all(passed is True for *_, passed in checks)

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
    """Counts of the n x n matrices np.linalg.eigh and eigvalsh decompose,
    a stack counting once per matrix, live."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(a, *args, _raw=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a)[-2:] == (n, n):
                counts[_name] += int(np.prod(np.shape(a)[:-2]))
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
    # the realization's H once, and H(r_k) at every node of the RK4 Duhamel
    # march (every fourth of its steps, their count a multiple of 16); the
    # magnus2 unitarity propagator, marched as U(0, s/4) U(s/4, s), whose first
    # factor the weight bound reads, takes its exponentials from Taylor
    # polynomials, and the RK4 Liouville march decomposes nothing.
    # eigvalsh: the step-size guard of the four marches, and rho_min_eigenvalue;
    # the weight bound's shift reads the realization's own eigenvalues
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    grid = cfg.grid_for(4.0)
    s = grid.s_min
    n_duh = grid.n_steps(s, 0.0, 4 * dynamics._NODE_STRIDE)
    expected = 1 + (n_duh // dynamics._NODE_STRIDE + 1)
    counts = _count_decompositions(monkeypatch, cfg.lattice_config().n_sites)
    assert run_experiment(cfg, out_dir=tmp_path).violations == []
    assert counts == {"eigh": expected, "eigvalsh": 4 + 1}


def test_dynamics_check_keeps_the_configured_truncation_tol(tmp_path):
    # the Duhamel refinement and gauge grids start at the config's s_min, so
    # they keep its tolerance: at 1e-10 a 1e-12 grid would refuse that start
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    cfg.set("drive", "truncation_tol", 1e-10)
    assert run_experiment(cfg, out_dir=tmp_path).violations == []


@pytest.mark.parametrize("include_fd", [False, True])
def test_one_response_basis_per_realization(tmp_path, monkeypatch, include_fd):
    # V~_j = V* v_j V is built once per realization and axis: the FD
    # cross-check reads its gauge-derivative basis from the eta loop's, and
    # takes per eta one eigh of H(0) for each of its 2d net currents, which
    # start from the realization's zeta
    text, _, _ = DECOMPOSITION_CASES["kubo-sweep"]
    fd = "include_fd = true\nstep = 0.05\ntruncation_tol = 1e-6\n" if include_fd else ""
    cfg = ExperimentConfig.parse(text + fd + "[run]\nexperiment = kubo-sweep\nname = t\n")
    axes = []
    raw = response.velocity_operator

    def counted(model, axis):
        axes.append(axis)
        return raw(model, axis)

    monkeypatch.setattr(response, "velocity_operator", counted)
    counts = _count_decompositions(monkeypatch, cfg.lattice_config().n_sites)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert not [v for v in manifest.violations if v[0] == "cell_error"]
    d, n_eta = cfg[("model", "dimension")], len(cfg[("drive", "eta_list")])
    assert axes == list(range(d)) * cfg[("model", "n_realizations")]
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
    # only the finite-difference route forms H(t); it scatters the bond list
    # afresh, so no model keeps an N x N array once the run is done
    models = []
    h_at = dynamics._h_at
    monkeypatch.setattr(dynamics, "_h_at", lambda m, *a: models.append(m) or h_at(m, *a))
    text, _, _ = DECOMPOSITION_CASES[experiment]
    cfg = ExperimentConfig.parse(text + extra + f"[run]\nexperiment = {experiment}\nname = t\n")
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert not [v for v in manifest.violations if v[0] == "cell_error"]
    assert bool(models) == filled
    for model in {id(m): m for m in models}.values():
        kept = [v for v in vars(model).values() if isinstance(v, np.ndarray) and v.size >= model.n_sites**2]
        assert not kept


def test_manifest_records_seeds_and_hashes(tmp_path):
    cfg = small_config({("model", "n_realizations"): 3})
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert len(manifest.seeds) == 3
    from kubolab.model import realization_seed

    assert manifest.seeds[1] == realization_seed(777, 1)
    data = json.loads((tmp_path / "t" / "manifest.json").read_text())
    assert set(data["outputs"]) == {"summary.json"}


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


def test_kubo_sweep_gates_read_back_from_its_csvs(tmp_path):
    # the gap series is kubo_sweep.csv's: each final-gap gate is, bit for bit,
    # |Re sigma_res - Re sigma_Streda| of an off-diagonal pair at the file's
    # smallest eta, and the kubo_vs_resolvent gates follow its eta order
    cfg = ExperimentConfig.load(Path(__file__).resolve().parents[1] / "configs" / "kubo_sweep.ini")
    run_experiment(cfg, out_dir=tmp_path)
    out = tmp_path / cfg[("run", "name")]
    checks = json.loads((out / "summary.json").read_text())["checks"]
    with open(out / "kubo_sweep.csv", newline="") as fh:
        ens = list(csv.DictReader(fh))
    with open(out / "kubo_sweep_raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    etas = list(dict.fromkeys(row["eta"] for row in ens))
    assert len(etas) == 4
    final = [
        abs(float(row["sigma_res_re"]) - float(row["streda_re"]))
        for row in ens if row["eta"] == etas[-1] and row["j"] != row["k"]
    ]
    assert len(final) == 2 and [c[1] for c in checks if c[0] == "eta_sweep_final_gap"] == final

    def kubo_gap(eta):
        return max(
            abs(complex(float(r["sigma_kubo_re"]), float(r["sigma_kubo_im"]))
                - complex(float(r["sigma_res_re"]), float(r["sigma_res_im"])))
            for r in raw if r["eta"] == eta
        )

    kubo = [c[1] for c in checks if c[0] == "kubo_vs_resolvent"]
    assert kubo == pytest.approx([kubo_gap(eta) for eta in etas], rel=1e-12)


# -- CLI ---------------------------------------------------------------------------


def test_cli_runs_and_exits_zero(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL_CONFIG)
    rc = cli_main(["algebra-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0


# the base each kubo-sweep case starts from: its finite-difference route runs
# in well under a second when the config is sound; hall's is an 8x8 torus
# with flux p = 1, so a flux_q that does not divide 8 is a lattice mismatch
CONFIG_ERROR_BASES = {
    "hall": "[model]\nsides = 8,8\nflux_p = 1\n",
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
        # values that each parse, but that the lattice rejects
        ("kubo-sweep", "model", "sides", "6"),
        ("hall", "model", "sides", "6"),
        ("hall", "model", "flux_q", "3"),
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
        ("kubo-sweep", "drive", "step", "-0.01"),
        ("dynamics-check", "drive", "step", "nan"),
        ("kubo-sweep", "drive", "eta_list", "inf"),
        ("dynamics-check", "drive", "field_magnitude", "nan"),
        ("hall", "model", "disorder_w", "nan"),
        ("algebra-check", "run", "threads", "0"),
        ("algebra-check", "run", "threads", "-4"),
        # lattice keys outside their own domain, refused before any suite runs
        ("funcalc-check", "model", "boundary", "bogus"),
        ("funcalc-check", "model", "dimension", "3"),
        ("funcalc-check", "model", "dimension", "0"),
        ("funcalc-check", "model", "flux_q", "0"),
        # keys outside the schema, refused as unknown: the time grid is fixed
        # by drive.truncation_tol and drive.step, and every tolerance and the
        # FD step by the acceptance table
        ("dynamics-check", "drive", "s_min", "-1e3x"),
        ("dynamics-check", "drive", "method", "rk5"),
        ("kubo-sweep", "drive", "s_min", "-3"),
        ("dynamics-check", "drive", "s_min", "nan"),
        ("kubo-sweep", "drive", "delta_e", "0"),
        ("algebra-check", "run", "tolerance_overrides", "algebra_identity=abc"),
        ("algebra-check", "run", "tolerance_overrides", "algebra_identity=nan"),
        ("algebra-check", "run", "tolerance_overrides", "algebra_identity=inf"),
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


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_cli_threads_override_must_be_positive(tmp_path, capsys, threads):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL_CONFIG)
    rc = cli_main(["algebra-check", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", threads])
    assert rc == 1
    assert "run.threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_hall_on_a_chain_is_a_config_error(tmp_path, capsys):
    # sigma_12 needs a second axis; a chain is refused before any decomposition
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[model]\ndimension = 1\nsides = 12\n[run]\nname = t\n")
    rc = cli_main(["hall", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and "model.dimension" in err
    assert not (tmp_path / "out").exists()


def test_cli_hall_at_a_gapless_filling_is_a_config_error(tmp_path, capsys):
    # at flux 1/2 the two bands touch, so the Chern oracle has no integer to compare sigma with
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        "[model]\ndimension = 2\nsides = 4,4\nflux_p = 1\nflux_q = 2\n"
        "[state]\ne_f = auto\nfilling = 0.5\n[run]\nname = t\n"
    )
    rc = cli_main(["hall", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:")
    assert all(key in err for key in ("model.flux_p", "model.flux_q", "state.filling"))
    assert not (tmp_path / "out").exists()


def test_shipped_configs_carry_the_threshold_parameters():
    configs = Path(__file__).resolve().parents[1] / "configs"
    hall = ExperimentConfig.load(configs / "hall.ini")
    assert hall[("model", "n_realizations")] == THRESHOLDS["hall_n_realizations"]
    assert hall[("model", "disorder_w")] == THRESHOLDS["hall_disorder_strength"]
    kubo_sweep = ExperimentConfig.load(configs / "kubo_sweep.ini")
    assert kubo_sweep[("drive", "eta_list")] == THRESHOLDS["eta_sweep_values"]
    equilibrium = ExperimentConfig.load(configs / "equilibrium.ini")
    assert equilibrium[("model", "n_realizations")] == THRESHOLDS["equilibrium_n_realizations"]


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
    with pytest.raises(ConfigError, match=r"model\.boundary.*choose from"):
        small_config().set("model", "boundary", "bogus")
    with pytest.raises(ConfigError, match=r"model\.boundary.*choose from"):
        ExperimentConfig({("model", "boundary"): "bogus"})
    with pytest.raises(ConfigError, match=r"model\.dimension.*invalid literal"):
        ExperimentConfig.parse("[model]\ndimension = two\n")
    cfg = small_config({("model", "sides"): [6, 6], ("state", "e_f"): -0.5})
    assert cfg[("model", "sides")] == (6, 6) and cfg[("state", "e_f")] == "-0.5"


# case -> (suite, config, THRESHOLDS entry and a value of it that fails a gate, that gate's name);
# a suite's first case is named after it
FAILING_GATE_CASES = {
    "hall": ("hall", DECOMPOSITION_CASES["hall"][0], ("hall_quantization_disordered", 1e-30), "hall"),
    "kubo-sweep": (
        "kubo-sweep", DECOMPOSITION_CASES["kubo-sweep"][0], ("kubo_vs_resolvent", 1e-30), "kubo_vs_resolvent"
    ),
    "dynamics-check": ("dynamics-check", DYNAMICS_TINY, ("gauge_equivalence", 1e-30), "gauge_equivalence"),
    "equilibrium": (
        "equilibrium", MINIMAL_CONFIG.replace("disorder_w = 1.0", "disorder_w = 0.0"),
        ("equilibrium_clean", 0.0), "equilibrium_j_1",
    ),
    "funcalc-check": ("funcalc-check", MINIMAL_CONFIG, ("hs_vs_spectral", 1e-30), "hs_vs_spectral"),
    "funcalc-check-refinement": (
        "funcalc-check", MINIMAL_CONFIG, ("hs_refinement_gain", 1e30), "hs_refinement_gain"
    ),
    "algebra-check": ("algebra-check", MINIMAL_CONFIG, ("algebra_identity", 1e-30), "centrality_diamond"),
}


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, marks=pytest.mark.slow) if suite == "funcalc-check" else case
        for case, (suite, *_) in FAILING_GATE_CASES.items()
    ],
)
def test_cli_check_mode_flags_violations(tmp_path, monkeypatch, capsys, case):
    # every suite's violations are [name, value, tolerance, passed] records,
    # printed field by field
    suite, text, (key, failing), gate = FAILING_GATE_CASES[case]
    monkeypatch.setitem(THRESHOLDS, key, failing)
    cfg = ExperimentConfig.parse(text)
    cfg.set("run", "name", "t")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg.serialize())
    rc = cli_main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--check"])
    assert rc == 2
    violations = json.loads((tmp_path / "out/t/manifest.json").read_text())["violations"]
    # summary.json is the suite's whole gate record; its failed checks are the
    # manifest's violations before the cell errors, in order
    summary = json.loads((tmp_path / "out/t/summary.json").read_text())
    assert set(summary) == {"schema_version", "experiment", "config_sha256", "checks", "cell_errors"}
    assert [c for c in summary["checks"] if not c[3]] == [v for v in violations if v[0] != "cell_error"]

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    for v in violations:
        assert len(v) == 4 and isinstance(v[0], str) and number(v[1]), v
        assert (number(v[2]) or v[2] == "") and v[3] is False, v
    assert gate in [v[0] for v in violations]
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("VIOLATION ")]
    assert printed == [f"VIOLATION {name} value={value} tolerance={tol}" for name, value, tol, _ in violations]


def test_every_suite_has_a_failing_gate_case():
    assert FAILING_GATE_CASES.keys() >= set(SUITES)


def test_duhamel_refinement_gate_needs_a_strict_decrease(tmp_path, monkeypatch):
    # a residual that stays flat as the step halves fails the gate, though it
    # sits below THRESHOLDS["duhamel_residual"]
    flat = dynamics.DuhamelReport(residual=1e-9, quadrature_estimate=0.0)
    monkeypatch.setattr(harness, "duhamel_residual", lambda *args: flat)
    manifest = run_experiment(ExperimentConfig.parse(DYNAMICS_TINY), out_dir=tmp_path)
    assert [v[0] for v in manifest.violations] == ["duhamel_refinement"]


def test_kubo_sweep_fd_runs_on_a_chain(tmp_path, capsys):
    # the finite-difference route drives each axis itself, so a chain runs it
    # under the default field_axis = 2, a key that only dynamics-check reads
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        "[model]\ndimension = 1\nsides = 12\ndisorder_w = 0.5\nbase_seed = 3\n"
        "[state]\ne_f = auto\nfilling = 0.25\n"
        "[drive]\neta_list = 1.0\ninclude_fd = true\nstep = 0.01\ntruncation_tol = 1e-10\n"
        "[run]\nname = t\n"
    )
    rc = cli_main(["kubo-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--check"])
    assert rc == 0, capsys.readouterr()
    with open(tmp_path / "out/t/kubo_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["sigma_fd_re"] != ""


def test_every_config_key_is_read(tmp_path, monkeypatch):
    # the keys the suites read on small configs are exactly the schema's, so
    # no key is set and then ignored; funcalc-check is left out, since it reads
    # only model.base_seed, which algebra-check reads too.  The FD step is the
    # acceptance table's: a patched entry is the field of every FD evolution
    read, deltas = set(), []
    getitem = ExperimentConfig.__getitem__
    monkeypatch.setattr(ExperimentConfig, "__getitem__", lambda cfg, key: read.add(key) or getitem(cfg, key))
    monkeypatch.setattr(
        response, "evolve_density_ode",
        lambda spectral, drive, *args: deltas.append(max(map(abs, drive.field))) or evolve_density_ode(spectral, drive, *args),
    )
    monkeypatch.setitem(THRESHOLDS, "fd_delta_e", 2e-3)
    fd = DECOMPOSITION_CASES["kubo-sweep"][0] + "include_fd = true\nstep = 0.05\ntruncation_tol = 1e-6\n"
    # MINIMAL_CONFIG's equilibrium is at finite temperature, so it reads state.beta
    cases = [(s, text) for s, text, _, _ in FAILING_GATE_CASES.values() if s != "funcalc-check"]
    for i, (suite, text) in enumerate(cases + [("kubo-sweep", fd)]):
        cfg = ExperimentConfig.parse(text)
        cfg.set("run", "experiment", suite)
        if i == 0:  # run.output_dir is read only when no out_dir is given
            cfg.set("run", "output_dir", str(tmp_path / "default"))
        run_experiment(cfg, out_dir=None if i == 0 else tmp_path / str(i))
    assert read == set(harness._SCHEMA)
    assert deltas and set(deltas) == {2e-3}


def test_cli_seed_override_changes_outputs(tmp_path):
    # a disordered equilibrium run needs two realizations for its stderr gate
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        MINIMAL_CONFIG.replace("experiment = algebra-check", "experiment = equilibrium")
        .replace("base_seed = 777", "base_seed = 777\nn_realizations = 2")
    )
    cli_main(["equilibrium", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    cli_main(["equilibrium", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "9"])
    assert (tmp_path / "a/t/equilibrium_raw.csv").read_text() != (
        tmp_path / "b/t/equilibrium_raw.csv"
    ).read_text()


def test_disordered_equilibrium_needs_two_realizations(tmp_path, capsys):
    # one disordered realization has no stderr to bound, and the clean gate
    # does not apply to it: a config error, before any file is written
    cfg = ExperimentConfig.load(Path(__file__).resolve().parents[1] / "configs" / "equilibrium.ini")
    cfg.set("model", "n_realizations", 1)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg.serialize())
    assert cli_main(["equilibrium", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "model.n_realizations >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[model]\nbogus = 1\n")
    rc = cli_main(["algebra-check", "--config", str(cfg_path)])
    assert rc == 1
    # a missing file too: one `config error:` line naming it, not a traceback
    missing = tmp_path / "missing.ini"
    capsys.readouterr()
    assert cli_main(["hall", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unreadable config file") and str(missing) in err
    assert len(err.splitlines()) == 1


SUITE_CSVS = {
    "equilibrium": ["equilibrium_raw.csv", "equilibrium_summary.csv"],
    "hall": ["hall_raw.csv", "hall_summary.csv"],
    "kubo-sweep": ["kubo_sweep.csv", "kubo_sweep_raw.csv"],
    "dynamics-check": ["dynamics_refinement.csv", "dynamics_timeseries.csv"],
}


@pytest.mark.parametrize(
    "experiment,e_f,drive,error",
    [
        pytest.param("equilibrium", 0.0, "", "Degenerate", id="equilibrium"),
        pytest.param("hall", 0.0, "", "Degenerate", id="hall"),
        pytest.param("kubo-sweep", 0.0, "", "Degenerate", id="kubo-sweep"),
        pytest.param("dynamics-check", 0.0, "", "Degenerate", id="dynamics-check"),
        # a gapped Fermi level, but a step past the march's guard h ||H|| < 0.5
        pytest.param("dynamics-check", 1.0, "[drive]\nstep = 0.2\n", "StepSizeError", id="dynamics-check-step"),
    ],
)
def test_cell_failures_recorded_not_fatal(tmp_path, experiment, e_f, drive, error):
    # a numerical failure in every cell (a degenerate Fermi level, or an
    # unstable step): cells fail, the run completes, and the failures are
    # summarized; dynamics-check runs the one cell of realization 0
    # hall and dynamics-check need two axes; the others run on the chain
    two_axes = experiment in ("hall", "dynamics-check")
    lattice = "dimension = 2\nsides = 4,4\n" if two_axes else "dimension = 1\nsides = 4\n"
    cfg = ExperimentConfig.parse(
        f"[model]\n{lattice}boundary = torus\n"
        "disorder_w = 0.0\nn_realizations = 2\n"
        f"[state]\nkind = projection\ne_f = {e_f}\n{drive}"
        f"[run]\nexperiment = {experiment}\nname = t\n"
    )
    manifest = run_experiment(cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    cell_errors = summary["cell_errors"]
    cells = 1 if experiment == "dynamics-check" else 2
    assert len(cell_errors) == cells and all(error in msg for msg in cell_errors)
    assert manifest.violations == [["cell_error", msg, "", False] for msg in cell_errors]
    csvs = sorted(name for name in manifest.outputs if name.endswith(".csv"))
    assert csvs == SUITE_CSVS[experiment]
    for name in csvs:  # header only: no realization survived
        assert len((tmp_path / "t" / name).read_text().splitlines()) == 1


def test_cell_linalg_failure_recorded_not_fatal(tmp_path, monkeypatch):
    def residue(model, state):
        raise np.linalg.LinAlgError("imaginary residue 1e-3 exceeds 1e-8")

    monkeypatch.setattr("kubolab.harness.equilibrium_current", residue)
    cfg = small_config({("run", "experiment"): "equilibrium", ("model", "n_realizations"): 2})
    run_experiment(cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert len(summary["cell_errors"]) == 2


def test_equilibrium_gate_fails_a_lone_disordered_realization(tmp_path, monkeypatch):
    # a cell error can leave one disordered realization, with no stderr for
    # the gate to bound: the gate fails, at tolerance 0
    real, calls = harness.equilibrium_current, []

    def second_fails(spectral, state):
        calls.append(spectral)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("imaginary residue 1e-3 exceeds 1e-8")
        return real(spectral, state)

    monkeypatch.setattr(harness, "equilibrium_current", second_fails)
    cfg = ExperimentConfig.load(Path(__file__).resolve().parents[1] / "configs" / "equilibrium.ini")
    cfg.set("model", "n_realizations", 2)
    violations = run_experiment(cfg, out_dir=tmp_path).violations
    assert [(v[0], v[2]) for v in violations] == [("equilibrium_j_1", 0.0), ("equilibrium_j_2", 0.0), ("cell_error", "")]


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


def test_dynamics_programming_error_is_fatal(tmp_path, monkeypatch):
    # dynamics-check records numerical failures only; a defect propagates
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr("kubolab.harness.density_path", broken)
    cfg = ExperimentConfig.parse(
        "[model]\ndimension = 2\nsides = 4,4\n[state]\ne_f = 1.0\n"
        "[run]\nexperiment = dynamics-check\nname = t\n"
    )
    with pytest.raises(TypeError, match="unsupported operand"):
        run_experiment(cfg, out_dir=tmp_path)
    assert not (tmp_path / "t").exists()


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
