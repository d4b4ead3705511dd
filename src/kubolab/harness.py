"""Experiment configuration, disorder-ensemble orchestration, persistence.

Configs are flat, typed key-value text files with sections; unknown keys
are rejected and parse(serialize(c)) round-trips exactly.  Every suite
writes raw per-realization rows and an ensemble summary, plus a JSON
summary and a run manifest.  Fixed config implies bitwise-identical
output files across runs and across thread counts.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import THRESHOLDS
from .model import (
    ConfigurationError,
    CovariantOperator,
    DisorderSpec,
    FluxSpec,
    LatticeConfig,
    LatticeModel,
    build_hamiltonian,
    realization_seed,
    sample_disorder,
    shift_disorder,
)
from .funcalc import (
    CoverageError,
    DegenerateFermiLevelError,
    EquilibriumState,
    HSQuadrature,
    QuadratureAccuracyError,
    SpectralData,
    apply_spectral,
    combes_thomas_probe,
    gaussian_function,
    hs_apply,
    hs_norm,
    localization_diagnostic,
    fermi_projection,
    position_commutator,
)
from .dynamics import (
    DriveProtocol,
    StepSizeError,
    TimeGrid,
    density_path,
    duhamel_residual,
    evolve_density_duhamel,
    evolve_density_ode,
    gauge_equivalence_check,
    propagate,
    propagator_weight_check,
)
from .opspace import (
    EnsembleOperator,
    comm_ddagger,
    comm_diamond,
    comm_odot,
    dagger,
    hs_inner,
    norm2,
    norms,
    prod_diamond,
    prod_left,
    prod_right,
    trace_per_unit_volume,
)
from .response import (
    chern_number_fhs,
    equilibrium_current,
    eta_sweep,
    hall_scaled,
    sigma_streda,
)


class ConfigError(ValueError):
    """Config file failed typed validation; message carries the key path."""


# ---------------------------------------------------------------------------
# typed configuration
# ---------------------------------------------------------------------------

SUITES = (
    "hall",
    "kubo-sweep",
    "dynamics-check",
    "equilibrium",
    "funcalc-check",
    "algebra-check",
)


def _parse_int_list(s):
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _parse_float_list(s):
    return tuple(float(tok) for tok in s.split(",") if tok.strip())


def _fmt_list(v):
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)


# (section, key) -> (parser, formatter, default)
_SCHEMA = {
    ("model", "dimension"): (int, str, 2),
    ("model", "sides"): (_parse_int_list, _fmt_list, (12, 12)),
    ("model", "boundary"): (str, str, "torus"),
    ("model", "flux_p"): (int, str, 0),
    ("model", "flux_q"): (int, str, 1),
    ("model", "disorder_w"): (float, repr, 0.0),
    ("model", "base_seed"): (int, str, 12345),
    ("model", "n_realizations"): (int, str, 1),
    ("state", "kind"): (str, str, "projection"),
    ("state", "beta"): (float, repr, 10.0),
    ("state", "e_f"): (str, str, "auto"),
    ("state", "filling"): (float, repr, 1.0 / 3.0),
    ("state", "assumption_form"): (str, str, "b"),
    ("drive", "eta_list"): (_parse_float_list, _fmt_list, (1.0, 0.5, 0.25, 0.125)),
    ("drive", "field_magnitude"): (float, repr, 1e-3),
    ("drive", "field_axis"): (int, str, 2),  # 1-based axis label
    ("drive", "s_min"): (str, str, "auto"),
    ("drive", "step"): (float, repr, 0.01),
    ("drive", "method"): (str, str, "ode_rk4"),
    ("drive", "truncation_tol"): (float, repr, 1e-12),
    ("drive", "include_fd"): (lambda s: s.lower() == "true", lambda b: str(bool(b)).lower(), False),
    ("drive", "delta_e"): (float, repr, 1e-3),
    ("run", "experiment"): (str, str, "algebra-check"),
    ("run", "name"): (str, str, "run"),
    ("run", "output_dir"): (str, str, "out"),
    ("run", "threads"): (int, str, 1),
    ("run", "tolerance_overrides"): (str, str, ""),
}


def _check_eta_list(etas):
    if not etas or not all(eta > 0 for eta in etas) or len(set(etas)) != len(etas):
        raise ConfigError(
            f"drive.eta_list must be non-empty, positive and without repeats: {_fmt_list(etas)!r}"
        )


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, (_, _, default) in _SCHEMA.items():
            self.values.setdefault(key, default)
        unknown = set(self.values) - set(_SCHEMA)
        if unknown:
            sec, key = sorted(unknown)[0]
            raise ConfigError(f"unknown config key {sec}.{key}")
        _check_eta_list(self.values[("drive", "eta_list")])

    def __getitem__(self, key):
        return self.values[key]

    def set(self, section, key, value):
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown config key {section}.{key}")
        if (section, key) == ("drive", "eta_list"):
            _check_eta_list(value)
        self.values[(section, key)] = value

    # -- persistence ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        cp.read_string(text)
        values = {}
        for section in cp.sections():
            for key, raw in cp.items(section):
                if (section, key) not in _SCHEMA:
                    raise ConfigError(f"unknown config key {section}.{key}")
                parser = _SCHEMA[(section, key)][0]
                try:
                    values[(section, key)] = parser(raw)
                except Exception as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
        return cls(values)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.parse(Path(path).read_text())

    def serialize(self) -> str:
        out = io.StringIO()
        sections = ("model", "state", "drive", "run")
        for section in sections:
            out.write(f"[{section}]\n")
            for (sec, key), (_, fmt, _) in _SCHEMA.items():
                if sec == section:
                    out.write(f"{key} = {fmt(self.values[(sec, key)])}\n")
            out.write("\n")
        return out.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    # -- derived objects ----------------------------------------------------

    def lattice_config(self) -> LatticeConfig:
        return LatticeConfig(
            self[("model", "dimension")],
            self[("model", "sides")],
            self[("model", "boundary")],
        )

    def flux(self) -> FluxSpec:
        return FluxSpec(self[("model", "flux_p")], self[("model", "flux_q")])

    def disorder(self) -> DisorderSpec:
        return DisorderSpec(self[("model", "disorder_w")], self[("model", "base_seed")])

    def model_for(self, index: int) -> LatticeModel:
        cfg = self.lattice_config()
        pot = sample_disorder(self.disorder(), index, cfg.n_sites)
        return LatticeModel(cfg, self.flux(), pot)

    def spectral_for(self, index: int) -> SpectralData:
        """The one eigendecomposition of realization `index`'s H."""
        return SpectralData.from_operator(build_hamiltonian(self.model_for(index)))

    def fermi_energy(self, evals: np.ndarray) -> float:
        """e_F for the spectrum `evals`: the configured value, or mid-gap at
        the configured filling when e_f = auto."""
        raw = self[("state", "e_f")]
        if raw != "auto":
            return float(raw)
        n_below = max(1, min(len(evals) - 1, round(self[("state", "filling")] * len(evals))))
        return float((evals[n_below - 1] + evals[n_below]) / 2.0)

    def state_for(self, spectral: SpectralData) -> EquilibriumState:
        kind = self[("state", "kind")]
        e_f = self.fermi_energy(spectral.eigenvalues)
        if kind == "projection":
            return EquilibriumState("projection", e_f)
        if kind == "fermi_dirac":
            return EquilibriumState("fermi_dirac", e_f, self[("state", "beta")])
        raise ConfigError(f"unknown state kind {kind!r}")

    def drive_for(self, eta: float) -> DriveProtocol:
        d = self[("model", "dimension")]
        axis = self[("drive", "field_axis")] - 1
        if not 0 <= axis < d:
            raise ConfigError("drive.field_axis out of range")
        e = [0.0] * d
        e[axis] = self[("drive", "field_magnitude")]
        return DriveProtocol(eta, tuple(e))

    def grid_for(self, eta: float) -> TimeGrid:
        raw = self[("drive", "s_min")]
        tol = self[("drive", "truncation_tol")]
        s_min = float(np.log(tol) / eta) if raw == "auto" else float(raw)
        return TimeGrid(
            s_min,
            0.0,
            self[("drive", "step")],
            self[("drive", "method")],
            truncation_tol=tol,
        )

    def tolerances(self) -> dict:
        tol = dict(THRESHOLDS)
        raw = self[("run", "tolerance_overrides")]
        for item in raw.split(","):
            if item.strip():
                key, _, val = item.partition("=")
                if key.strip() not in tol:
                    raise ConfigError(f"unknown tolerance {key.strip()!r}")
                tol[key.strip()] = float(val)
        return tol


# ---------------------------------------------------------------------------
# manifest and output plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config_sha256: str
    code_version: str
    experiment: str
    seeds: list[int]
    started_at: str
    finished_at: str
    outputs: dict  # relative path -> sha256 of bytes
    violations: list

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


class _OutputWriter:
    """Single writer per file; records content hashes for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.hashes = {}

    def write_text(self, name: str, text: str):
        data = text.encode()
        (self.out_dir / name).write_bytes(data)
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, header: list[str], rows: list[list]):
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(_csv_cell(v) for v in row) + "\n")
        self.write_text(name, buf.getvalue())

    def write_json(self, name: str, payload):
        self.write_text(name, json.dumps(payload, indent=2, sort_keys=True))


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def ensemble_average(values, weights=None):
    """(mean, stderr) with order-independent summation; stderr is None for
    a single sample."""
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        raise ValueError("need at least one value")
    if weights is None:
        mean = math.fsum(values) / n
        if n == 1:
            return mean, None
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        return mean, math.sqrt(var / n)
    weights = [float(w) for w in weights]
    total = math.fsum(weights)
    mean = math.fsum(w * v for w, v in zip(weights, values)) / total
    if n == 1:
        return mean, None
    n_eff = total**2 / math.fsum(w * w for w in weights)
    var = math.fsum(w * (v - mean) ** 2 for w, v in zip(weights, values)) / total
    var_unbiased = var * n_eff / max(n_eff - 1.0, 1e-300)
    return mean, math.sqrt(var_unbiased / n_eff)


def _map_cells(fn, cells, threads: int):
    """Order-preserving map; thread count never changes the results."""
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


_CELL_FAILURES = (
    DegenerateFermiLevelError, CoverageError, QuadratureAccuracyError,
    StepSizeError, ConfigurationError, np.linalg.LinAlgError,
)


def _map_cells_guarded(fn, cells, threads: int):
    """Like _map_cells, but a numerical failure (one of _CELL_FAILURES) in
    one cell is recorded and the run continues; any other exception is a
    defect and propagates. Returns (results, errors)."""

    def guarded(cell):
        try:
            return ("ok", fn(cell))
        except _CELL_FAILURES as exc:  # summarized at exit, never fatal per cell
            return ("error", f"cell {cell!r}: {type(exc).__name__}: {exc}")

    outcomes = _map_cells(guarded, cells, threads)
    results = [payload for status, payload in outcomes if status == "ok"]
    errors = [payload for status, payload in outcomes if status == "error"]
    return results, errors


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _check_rows(rows):
    return [r for r in rows if not r[-1]]


def _suite_algebra(cfg: ExperimentConfig, writer: _OutputWriter, tol):
    model = cfg.model_for(0)
    h = build_hamiltonian(model)
    n = model.n_sites
    rng = np.random.default_rng(realization_seed(cfg[("model", "base_seed")], 999))

    def random_op(scale=1.0):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return CovariantOperator(scale * m / np.sqrt(n), model)

    a, b, c = random_op(), random_op(), random_op()
    t_tol = tol["algebra_identity"]
    checks = []

    def add(name, defect):
        checks.append([name, float(defect), t_tol, float(defect) < t_tol])

    add("centrality_diamond", abs(trace_per_unit_volume(prod_diamond(a, b)) - trace_per_unit_volume(prod_diamond(b, a))))
    add("centrality_mixed", abs(trace_per_unit_volume(prod_left(c, a)) - trace_per_unit_volume(prod_right(a, c))))
    add("trace_diamond_inner", abs(trace_per_unit_volume(prod_diamond(a, b)) - hs_inner(dagger(a), b)))
    lhs = trace_per_unit_volume(prod_diamond(comm_odot(c, a), b))
    rhs = trace_per_unit_volume(prod_left(c, comm_diamond(a, b)))
    add("commutator_shuffle", abs(lhs - rhs))
    na, nb = norms(a), norms(b)
    add("trace_vs_norm1", max(0.0, abs(trace_per_unit_volume(a)) - na.norm1))
    add("holder_diamond", max(0.0, norms(prod_diamond(a, b)).norm1 - na.norm2 * nb.norm2))
    add("dagger_isometry", abs(norms(dagger(a)).norm1 - na.norm1))
    add("norm_chain", max(0.0, na.norm1 - np.sqrt(n) * na.norm2) + max(0.0, na.norm2 - np.sqrt(n) * na.norminf))
    hd = comm_ddagger(h, a).matrix - (h.matrix @ a.matrix - a.matrix @ h.matrix)
    add("ddagger_commutator", np.linalg.norm(hd))
    assoc = prod_right(prod_left(b, a), c).matrix - prod_left(b, prod_right(a, c)).matrix
    add("left_right_associativity", np.linalg.norm(assoc))
    bac = dagger(prod_right(prod_left(b, a), c)).matrix - prod_right(
        prod_left(dagger(c), dagger(a)), dagger(b)
    ).matrix
    add("bac_dagger", np.linalg.norm(bac))
    shifts = [tuple(rng.integers(0, s) for s in model.config.sides) for _ in range(3)]
    if model.config.boundary == "torus":
        single = trace_per_unit_volume(h)
        ens = EnsembleOperator.uniform(
            [build_hamiltonian(shift_disorder(model, sh)) for sh in shifts] + [h]
        )
        add("translation_sum_trace", abs(single - trace_per_unit_volume(ens)))

    writer.write_csv("algebra_check.csv", ["identity", "defect", "tolerance", "pass"], checks)
    return {"checks": {r[0]: r[1] for r in checks}}, _check_rows(checks)


def _suite_equilibrium(cfg: ExperimentConfig, writer: _OutputWriter, tol):
    n_real = cfg[("model", "n_realizations")]
    threads = cfg[("run", "threads")]

    def one(index):
        spectral = cfg.spectral_for(index)
        j = equilibrium_current(spectral, cfg.state_for(spectral))
        return [index, realization_seed(cfg[("model", "base_seed")], index)] + [float(x) for x in j]

    d = cfg[("model", "dimension")]
    rows, cell_errors = _map_cells_guarded(one, list(range(n_real)), threads)
    writer.write_csv(
        "equilibrium_raw.csv",
        ["realization", "seed"] + [f"j_{a+1}" for a in range(d)],
        rows,
    )
    summary_rows, violations = [], []
    for a in range(d) if rows else ():
        mean, stderr = ensemble_average([r[2 + a] for r in rows])
        if stderr is None or stderr == 0.0:
            ok = abs(mean) < tol["equilibrium_clean"]
        else:
            ok = abs(mean) <= tol["equilibrium_sigma_factor"] * stderr
        summary_rows.append([a + 1, mean, stderr if stderr is not None else "", len(rows), ok])
    writer.write_csv(
        "equilibrium_summary.csv", ["axis", "mean", "stderr", "n", "pass"], summary_rows
    )
    violations = _check_rows(summary_rows)
    violations += [["cell_error", msg, "", False] for msg in cell_errors]
    return {"axes": summary_rows, "cell_errors": cell_errors}, violations


def _suite_hall(cfg: ExperimentConfig, writer: _OutputWriter, tol):
    p, q = cfg[("model", "flux_p")], cfg[("model", "flux_q")]
    n_real = cfg[("model", "n_realizations")]
    threads = cfg[("run", "threads")]
    clean_model = LatticeModel(cfg.lattice_config(), cfg.flux())
    clean_evals = np.linalg.eigvalsh(build_hamiltonian(clean_model).matrix)
    e_f = cfg.fermi_energy(clean_evals)
    n_occ = int(np.sum(clean_evals <= e_f))
    bands = max(1, round(n_occ * q / clean_model.n_sites))
    chern = chern_number_fhs(p, q, bands) if p != 0 else 0.0

    def one(index):
        p_fermi = fermi_projection(cfg.spectral_for(index), e_f)
        sigma = sigma_streda(p_fermi)
        scaled = hall_scaled(sigma)
        loc = localization_diagnostic(p_fermi)
        return [
            index,
            realization_seed(cfg[("model", "base_seed")], index),
            float(sigma[0, 1].real),
            scaled,
            chern,
            loc.decay_rate,
        ]

    rows, cell_errors = _map_cells_guarded(one, list(range(n_real)), threads)
    writer.write_csv(
        "hall_raw.csv",
        ["realization", "seed", "sigma_12", "hall_scaled", "chern_oracle", "loc_rate"],
        rows,
    )
    if not rows:
        writer.write_csv("hall_summary.csv", ["hall_scaled_mean", "stderr", "chern_oracle", "gap", "tolerance", "pass"], [])
        return {"cell_errors": cell_errors}, [["cell_error", msg, "", False] for msg in cell_errors]
    mean, stderr = ensemble_average([r[3] for r in rows])
    gap = abs(abs(mean) - abs(chern)) if p != 0 else abs(mean)
    bound = tol["hall_quantization_clean"] if cfg[("model", "disorder_w")] == 0 else tol["hall_quantization_disordered"]
    ok = gap < bound
    writer.write_csv(
        "hall_summary.csv",
        ["hall_scaled_mean", "stderr", "chern_oracle", "gap", "tolerance", "pass"],
        [[mean, stderr if stderr is not None else "", chern, gap, bound, ok]],
    )
    violations = [] if ok else [["hall", gap, bound, False]]
    violations += [["cell_error", msg, "", False] for msg in cell_errors]
    return {"hall_scaled_mean": mean, "chern": chern, "gap": gap, "cell_errors": cell_errors}, violations


def _suite_kubo_sweep(cfg: ExperimentConfig, writer: _OutputWriter, tol):
    etas = sorted(cfg[("drive", "eta_list")], reverse=True)
    n_real = cfg[("model", "n_realizations")]
    threads = cfg[("run", "threads")]
    grid_for = cfg.grid_for if cfg[("drive", "include_fd")] else None
    d = cfg[("model", "dimension")]

    def one(index):
        spectral = cfg.spectral_for(index)
        reports = eta_sweep(
            spectral, cfg.state_for(spectral), etas, grid_for, delta_e=cfg[("drive", "delta_e")]
        )
        return index, reports

    sweeps, cell_errors = _map_cells_guarded(one, list(range(n_real)), threads)
    raw_rows = []
    for e, eta in enumerate(etas):  # eta-major rows
        for index, reports in sweeps:
            rep = reports[e]
            res, kubo, streda, fd = rep.sigma_resolvent, rep.sigma_kubo, rep.sigma_streda, rep.sigma_fd
            for j in range(d):
                for k in range(d):
                    raw_rows.append(
                        [
                            eta, index, j + 1, k + 1,
                            res[j, k].real, res[j, k].imag,
                            kubo[j, k].real, kubo[j, k].imag,
                            streda[j, k].real, streda[j, k].imag,
                            fd[j, k].real if fd is not None else "",
                            fd[j, k].imag if fd is not None else "",
                        ]
                    )
    writer.write_csv(
        "kubo_sweep_raw.csv",
        [
            "eta", "realization", "j", "k",
            "sigma_res_re", "sigma_res_im", "sigma_kubo_re", "sigma_kubo_im",
            "streda_re", "streda_im", "sigma_fd_re", "sigma_fd_im",
        ],
        raw_rows,
    )

    ens_rows, violations = [], []
    gaps = {}
    for e, eta in enumerate(etas):
        sub = [reports[e] for _, reports in sweeps]
        for j in range(d):
            for k in range(d):
                fd_vals = [r.sigma_fd[j, k].real for r in sub if r.sigma_fd is not None]
                fd_mean = math.fsum(fd_vals) / len(fd_vals) if fd_vals else ""
                fd_im = 0.0 if fd_vals else ""
                res_mean, stderr = ensemble_average([r.sigma_resolvent[j, k].real for r in sub])
                kubo_mean, _ = ensemble_average([r.sigma_kubo[j, k].real for r in sub])
                streda_mean, _ = ensemble_average([r.sigma_streda[j, k].real for r in sub])
                ens_rows.append(
                    [
                        eta, j + 1, k + 1,
                        fd_mean, fd_im,
                        kubo_mean, 0.0,
                        res_mean, 0.0,
                        streda_mean, 0.0,
                        len(sub), stderr if stderr is not None else "",
                    ]
                )
                if j != k:
                    gaps.setdefault((j, k), []).append(abs(res_mean - streda_mean))
        kubo_gap = max(
            float(np.max(np.abs(r.sigma_kubo - r.sigma_resolvent))) for r in sub
        )
        if kubo_gap > tol["kubo_vs_resolvent"]:
            violations.append(["kubo_vs_resolvent", kubo_gap, tol["kubo_vs_resolvent"], False])
        for r in sub:
            fd_gap = r.diagnostics.get("fd_vs_resolvent")
            if fd_gap is not None and fd_gap > tol["fd_vs_resolvent"]:
                violations.append(["fd_vs_resolvent", fd_gap, tol["fd_vs_resolvent"], False])
    writer.write_csv(
        "kubo_sweep.csv",
        [
            "eta", "j", "k",
            "sigma_fd_re", "sigma_fd_im", "sigma_kubo_re", "sigma_kubo_im",
            "sigma_res_re", "sigma_res_im", "streda_re", "streda_im",
            "n_realizations", "stderr",
        ],
        ens_rows,
    )
    for (j, k), series in gaps.items():
        if len(series) > 1 and series[-1] > tol["eta_sweep_final_gap"]:
            violations.append(["eta_sweep_final_gap", series[-1], tol["eta_sweep_final_gap"], False])
    violations += [["cell_error", msg, "", False] for msg in cell_errors]
    return {
        "etas": etas,
        "gap_series": {f"{j+1},{k+1}": v for (j, k), v in gaps.items()},
        "cell_errors": cell_errors,
    }, violations


def _suite_dynamics(cfg: ExperimentConfig, writer: _OutputWriter, tol):
    spectral = cfg.spectral_for(0)
    model = spectral.model
    eta = max(cfg[("drive", "eta_list")])
    drive = cfg.drive_for(eta)
    grid = cfg.grid_for(eta)
    state = cfg.state_for(spectral)
    rows, violations = [], []
    timeseries = []

    dm_ode = evolve_density_ode(model, drive, state, 0.0, grid)
    dm_duh = evolve_density_duhamel(model, drive, state, 0.0, grid)
    diff = norm2(
        type(dm_ode.rho)(dm_ode.rho.matrix - dm_duh.rho.matrix, model)
    )
    rows.append(["density_route_agreement", diff, tol["density_route_agreement"], diff < tol["density_route_agreement"]])
    zeta = state.build(spectral)
    cons = abs(norm2(dm_ode.rho) - norm2(zeta))
    rows.append(["norm2_conservation", cons, tol["density_norm_conservation"], cons < tol["density_norm_conservation"]])
    evals = np.linalg.eigvalsh(dm_ode.rho.matrix)
    rows.append(["rho_min_eigenvalue", float(evals[0]), tol["density_min_eigenvalue"], evals[0] >= tol["density_min_eigenvalue"]])
    if state.kind == "projection":
        proj = float(np.linalg.norm(dm_ode.rho.matrix @ dm_ode.rho.matrix - dm_ode.rho.matrix))
        rows.append(["projection_defect", proj, tol["density_projection_defect"], proj < tol["density_projection_defect"]])

    magnus = replace(grid, method="magnus2")
    prop = propagate(model, drive, 0.0, grid.s_min, magnus)
    rows.append(["propagator_unitarity", prop.unitarity_defect, tol["propagator_unitarity"], prop.unitarity_defect < tol["propagator_unitarity"]])
    wreport = propagator_weight_check(model, drive, 0.0, grid.s_min / 4.0, magnus)
    rows.append(["weight_inequality", wreport.weighted_norm - wreport.bound, tol["weight_margin"], wreport.holds])

    # norms of rho(t) at 8 checkpoints and the end of one march: the conserved-quantity trace
    nsteps = magnus.n_steps(grid.s_min, 0.0)
    every = max(1, nsteps // 8)
    for k, (r, rho_t) in enumerate(density_path(model, drive, zeta.matrix, 0.0, magnus)):
        if k % every == 0 or k == nsteps:
            n = norms(CovariantOperator((rho_t + rho_t.conj().T) / 2, model))
            defect = float(np.linalg.norm(rho_t @ rho_t - rho_t))
            timeseries.append([r, n.norm1, n.norm2, n.norminf, defect])

    # two-site Duhamel residual refinement
    chain = LatticeModel(LatticeConfig(1, (2,), "open"), FluxSpec(), np.zeros(2))
    drive1 = DriveProtocol(eta, (0.1,))
    psi = np.array([1.0, 0.0], dtype=complex)
    residuals = []
    refinement = []
    for step in (0.04, 0.02, 0.01):
        rep = duhamel_residual(chain, drive1, 0.0, grid.s_min, psi, TimeGrid(grid.s_min, 0.0, step))
        residuals.append(rep.residual)
        refinement.append([step, rep.residual, rep.quadrature_estimate])
    ok = residuals[-1] < tol["duhamel_residual"] and all(
        b <= a for a, b in zip(residuals, residuals[1:])
    )
    rows.append(["duhamel_refinement", residuals[-1], tol["duhamel_residual"], ok])

    # gauge equivalence on an open chain
    open_chain = LatticeModel(LatticeConfig(1, (8,), "open"), FluxSpec(), np.zeros(8))
    drive_open = DriveProtocol(eta, (0.2,))
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    disc = gauge_equivalence_check(open_chain, drive_open, psi0, 0.0, TimeGrid(grid.s_min, 0.0, 0.002))
    rows.append(["gauge_equivalence", disc, tol["gauge_equivalence"], disc < tol["gauge_equivalence"]])

    writer.write_csv("dynamics_check.csv", ["check", "value", "tolerance", "pass"], rows)
    writer.write_csv(
        "dynamics_timeseries.csv",
        ["t", "norm1", "norm2", "norminf", "projection_defect"],
        timeseries,
    )
    writer.write_csv(
        "dynamics_refinement.csv", ["step", "duhamel_residual", "quadrature_estimate"], refinement
    )
    return {"checks": {r[0]: r[1] for r in rows}}, _check_rows(rows)


def _suite_funcalc(cfg: ExperimentConfig, writer: _OutputWriter, tol):
    rng = np.random.default_rng(realization_seed(cfg[("model", "base_seed")], 777))
    n = 32
    chain = LatticeModel(LatticeConfig(1, (n,), "open"), FluxSpec(), np.zeros(n))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = CovariantOperator((m + m.conj().T) / (2 * np.sqrt(n)), chain, hermitian=True)
    spectral = SpectralData.from_operator(h)
    f = gaussian_function(center=float(np.mean(spectral.eigenvalues)), width=1.0)
    exact = apply_spectral(spectral, f)
    quad = HSQuadrature.for_spectrum(
        spectral.eigenvalues[0], spectral.eigenvalues[-1], order_m=5, nx=64, margin=8.0
    )
    rows = []
    errors = []
    for level in range(3):
        approx, diag = hs_apply(h, f, quad)
        err = float(np.linalg.norm(approx.matrix - exact.matrix, 2))
        errors.append(err)
        rows.append([level, quad.nx, quad.ny, err, diag["abs_convergence_surrogate"]])
        quad = quad.refine()
    ok = errors[-1] < tol["hs_vs_spectral"]
    writer.write_csv("funcalc_hs.csv", ["level", "nx", "ny", "error", "surrogate"], rows)

    ct_rows = []
    chain64 = LatticeModel(LatticeConfig(1, (64,), "open"), FluxSpec(), np.zeros(64))
    h64 = build_hamiltonian(chain64)
    for z in (2j, 3j, 4j):
        rep = combes_thomas_probe(h64, z)
        ct_rows.append([str(z), rep.rate, rep.r_squared])
    writer.write_csv("funcalc_combes_thomas.csv", ["z", "rate", "r_squared"], ct_rows)

    ratio_rows = []
    for width in (0.5, 1.0, 2.0):
        g = gaussian_function(width=width)
        norm3 = hs_norm(g, 3)
        gh = apply_spectral(spectral, g)
        comm = float(np.linalg.norm(position_commutator(gh, 0).matrix, 2))
        ratio_rows.append([width, comm, norm3, comm / norm3])
    writer.write_csv(
        "funcalc_commutator_ratio.csv", ["width", "comm_norm", "f_norm3", "ratio"], ratio_rows
    )
    violations = [] if ok else [["hs_vs_spectral", errors[-1], tol["hs_vs_spectral"], False]]
    return {"hs_errors": errors}, violations


_SUITE_FN = {
    "algebra-check": _suite_algebra,
    "equilibrium": _suite_equilibrium,
    "hall": _suite_hall,
    "kubo-sweep": _suite_kubo_sweep,
    "dynamics-check": _suite_dynamics,
    "funcalc-check": _suite_funcalc,
}


def run_experiment(cfg: ExperimentConfig, out_dir=None, check: bool = False) -> RunManifest:
    """Dispatch the configured suite, write outputs, and return the manifest."""
    experiment = cfg[("run", "experiment")]
    if experiment not in _SUITE_FN:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {SUITES}")
    out = Path(out_dir) if out_dir is not None else Path(cfg[("run", "output_dir")])
    writer = _OutputWriter(out / cfg[("run", "name")])
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    summary, violations = _SUITE_FN[experiment](cfg, writer, cfg.tolerances())
    finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    writer.write_json(
        "summary.json",
        {
            "schema_version": 1,
            "experiment": experiment,
            "config_sha256": cfg.digest(),
            "summary": _plain(summary),
            "violations": _plain(violations),
        },
    )
    seeds = [
        realization_seed(cfg[("model", "base_seed")], i)
        for i in range(cfg[("model", "n_realizations")])
    ]
    manifest = RunManifest(
        config_sha256=cfg.digest(),
        code_version=__version__,
        experiment=experiment,
        seeds=seeds,
        started_at=started,
        finished_at=finished,
        outputs=dict(sorted(writer.hashes.items())),
        violations=_plain(violations),
    )
    (writer.out_dir / "manifest.json").write_text(manifest.to_json())
    return manifest


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj
