import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from kubolab.cli import main as cli_main
from kubolab.dynamics import evolve_density_ode
from kubolab.harness import (
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
    cfg = small_config()
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


def test_weighted_average():
    mean, stderr = ensemble_average([1.0, 3.0], weights=[3.0, 1.0])
    assert mean == pytest.approx(1.5)
    assert stderr is not None and stderr > 0


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
    cases = [
        (equilibrium, 4, "equilibrium_raw.csv"),
        (kubo_sweep, 2, "kubo_sweep_raw.csv"),
        (hall, 2, "hall_raw.csv"),
    ]
    for i, (cfg1, threads, name) in enumerate(cases):
        cfg_n = ExperimentConfig.parse(cfg1.serialize())
        cfg_n.set("run", "threads", threads)
        run_experiment(cfg1, out_dir=tmp_path / f"{i}_one")
        run_experiment(cfg_n, out_dir=tmp_path / f"{i}_many")
        assert (tmp_path / f"{i}_one/t/{name}").read_bytes() == (
            tmp_path / f"{i}_many/t/{name}"
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


def test_dynamics_suite_gates_timeseries_and_determinism(tmp_path):
    cfg = ExperimentConfig.parse(DYNAMICS_TINY)
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(ExperimentConfig.parse(DYNAMICS_TINY), out_dir=tmp_path / "b")
    assert first.violations == []
    with open(tmp_path / "a/t/dynamics_check.csv", newline="") as fh:
        checks = list(csv.DictReader(fh))
    assert len(checks) == 8 and all(row["pass"] == "True" for row in checks)

    # the timeseries is the magnus2 Liouville march; its last row is rho(0)
    with open(tmp_path / "a/t/dynamics_timeseries.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    model = cfg.model_for(0)
    grid = replace(cfg.grid_for(4.0), method="magnus2")
    state = cfg.state_for(cfg.spectral_for(0))
    rho = evolve_density_ode(model, cfg.drive_for(4.0), state, 0.0, grid).rho
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


@pytest.mark.parametrize("experiment", sorted(DECOMPOSITION_CASES))
def test_one_eigendecomposition_per_realization(tmp_path, monkeypatch, experiment):
    text, eigh_calls, eigvalsh_calls = DECOMPOSITION_CASES[experiment]
    cfg = ExperimentConfig.parse(text + f"[run]\nexperiment = {experiment}\nname = t\n")
    n = cfg.lattice_config().n_sites
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(a, *args, _raw=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) == (n, n):
                counts[_name] += 1
            return _raw(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert not [v for v in manifest.violations if v[0] == "cell_error"]
    assert counts == {"eigh": eigh_calls, "eigvalsh": eigvalsh_calls}


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


# -- CLI ---------------------------------------------------------------------------


def test_cli_runs_and_exits_zero(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL_CONFIG)
    rc = cli_main(["algebra-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0


def test_cli_check_mode_flags_violations(tmp_path):
    text = MINIMAL_CONFIG.replace(
        "[run]\n", "[run]\ntolerance_overrides = algebra_identity=1e-30\n"
    )
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    rc = cli_main(
        ["algebra-check", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--check"]
    )
    assert rc == 2


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


def test_cell_failures_recorded_not_fatal(tmp_path):
    # a degenerate Fermi level in every realization: cells fail, the run
    # completes, and the failures are summarized
    cfg = ExperimentConfig.parse(
        "[model]\ndimension = 1\nsides = 4\nboundary = torus\n"
        "disorder_w = 0.0\nn_realizations = 2\n"
        "[state]\nkind = projection\ne_f = 0.0\n"
        "[run]\nexperiment = equilibrium\nname = t\n"
    )
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert len(manifest.violations) >= 2
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert len(summary["summary"]["cell_errors"]) == 2
    assert "Degenerate" in summary["summary"]["cell_errors"][0]


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
