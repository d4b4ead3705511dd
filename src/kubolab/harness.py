"""Experiment configuration, disorder-ensemble orchestration, persistence.

Configs are flat, typed key-value text files with sections; unknown keys
are rejected and parse(serialize(c)) round-trips exactly.  Every suite
writes its data CSVs and returns (checks, cell_errors): all its gates as
`Check(name, value, tolerance, passed)` records, passing or not, and one
message per realization that failed numerically.  run_experiment is the
one writer of that record: summary.json holds it as returned, and the run
manifest holds the violations (the failed checks, then one cell_error per
message).  Fixed config implies bitwise-identical output files across
runs and across thread counts; the config hash leaves out run.name,
run.output_dir and run.threads, which never change results.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

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
    position_commutator,
)
from .dynamics import (
    DriveProtocol,
    StepSizeError,
    TimeGrid,
    density_path,
    duhamel_residual,
    evolve_density_duhamel,
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

def _parse_int_list(s):
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _parse_float_list(s):
    return tuple(float(tok) for tok in s.split(",") if tok.strip())


def _fmt_list(v):
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)


def _auto_or_float(s):
    """A value that is "auto" or a finite float, kept as written."""
    if s != "auto" and not math.isfinite(float(s)):
        raise ValueError("must be auto or finite")
    return s


def _between(lo, hi, cast=float):
    """A parser for `cast` values strictly between lo and hi; NaN never is."""
    def parse(s):
        if not lo < cast(s) < hi:
            raise ValueError(f"must lie strictly between {lo} and {hi}")
        return cast(s)
    return parse


def _one_of(*choices):
    """A parser that accepts exactly the given words."""
    def parse(s):
        if s not in choices:
            raise ValueError(f"choose from {choices}")
        return s
    return parse


def _eta_list(s):
    etas = _parse_float_list(s)
    if not etas or not all(0 < eta < math.inf for eta in etas) or len(set(etas)) != len(etas):
        raise ValueError("must be non-empty, finite, positive and without repeats")
    return etas


# (section, key) -> (parser, formatter, default)
_SCHEMA = {
    ("model", "dimension"): (_between(0, 3, int), str, 2),
    ("model", "sides"): (_parse_int_list, _fmt_list, (12, 12)),
    ("model", "boundary"): (_one_of("torus", "open"), str, "torus"),
    ("model", "flux_p"): (int, str, 0),
    ("model", "flux_q"): (_between(0, math.inf, int), str, 1),
    ("model", "disorder_w"): (_between(-math.inf, math.inf), repr, 0.0),
    ("model", "base_seed"): (int, str, 12345),
    ("model", "n_realizations"): (_between(0, math.inf, int), str, 1),
    ("state", "kind"): (_one_of("projection", "fermi_dirac"), str, "projection"),
    ("state", "beta"): (_between(0, math.inf), repr, 10.0),
    ("state", "e_f"): (_auto_or_float, str, "auto"),
    ("state", "filling"): (_between(0, 1), repr, 1.0 / 3.0),
    ("drive", "eta_list"): (_eta_list, _fmt_list, (1.0, 0.5, 0.25, 0.125)),
    ("drive", "field_magnitude"): (_between(-math.inf, math.inf), repr, 1e-3),
    ("drive", "field_axis"): (int, str, 2),  # 1-based axis label
    ("drive", "step"): (_between(0, math.inf), repr, 0.01),
    ("drive", "truncation_tol"): (_between(0, 1), repr, 1e-12),
    ("drive", "include_fd"): (lambda s: _one_of("true", "false")(s.lower()) == "true", lambda b: str(bool(b)).lower(), False),
    ("run", "experiment"): (str, str, "algebra-check"),
    ("run", "name"): (str, str, "run"),
    ("run", "output_dir"): (str, str, "out"),
    ("run", "threads"): (_between(0, math.inf, int), str, 1),
}

# where and how a run executes, never what it computes; left out of the digest
_EXECUTION_ONLY = {("run", "name"), ("run", "output_dir"), ("run", "threads")}


def _checked(key, value):
    """`value` through the schema parser of `key`, on parse, construction and set alike."""
    parser, fmt, _ = _SCHEMA[key]
    try:
        return parser(value if isinstance(value, str) else fmt(value))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key[0]}.{key[1]}: {value!r} ({exc})") from exc


@contextmanager
def _building_from(*keys):
    """Turns a ValueError (ConfigurationError included) raised while building
    from these keys into a ConfigError that names them."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad value for {', '.join(keys)}: {exc}") from exc


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.values) - set(_SCHEMA)
        if unknown:
            sec, key = sorted(unknown)[0]
            raise ConfigError(f"unknown config key {sec}.{key}")
        self.values = {
            key: _checked(key, self.values.get(key, default))
            for key, (_, _, default) in _SCHEMA.items()
        }

    def __getitem__(self, key):
        return self.values[key]

    def set(self, section, key, value):
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown config key {section}.{key}")
        self.values[(section, key)] = _checked((section, key), value)

    # -- persistence ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unreadable config: {exc}") from exc
        return cls({(sec, key): raw for sec in cp.sections() for key, raw in cp.items(sec)})

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"unreadable config file {str(path)!r}: {exc}") from exc
        return cls.parse(text)

    def serialize(self, skip=frozenset()) -> str:
        out = io.StringIO()
        sections = ("model", "state", "drive", "run")
        for section in sections:
            out.write(f"[{section}]\n")
            for (sec, key), (_, fmt, _) in _SCHEMA.items():
                if sec == section and (sec, key) not in skip:
                    out.write(f"{key} = {fmt(self.values[(sec, key)])}\n")
            out.write("\n")
        return out.getvalue()

    def digest(self) -> str:
        """sha256 of the serialized config without its execution-only keys,
        so the hash, like the results, is the same for any thread count."""
        return hashlib.sha256(self.serialize(_EXECUTION_ONLY).encode()).hexdigest()

    # -- derived objects ----------------------------------------------------

    def lattice_config(self) -> LatticeConfig:
        keys = ("dimension", "sides", "boundary")
        with _building_from("model.dimension", "model.sides"):  # boundary is checked on parse
            return LatticeConfig(*(self[("model", k)] for k in keys))

    def flux(self) -> FluxSpec:
        with _building_from("model.flux_p", "model.flux_q"):
            return FluxSpec(self[("model", "flux_p")], self[("model", "flux_q")])

    def disorder(self) -> DisorderSpec:
        with _building_from("model.disorder_w"):
            return DisorderSpec(self[("model", "disorder_w")], self[("model", "base_seed")])

    def model_for(self, index: int | None) -> LatticeModel:
        """Realization `index`, or the clean lattice for index None."""
        cfg, flux = self.lattice_config(), self.flux()
        pot = None if index is None else sample_disorder(self.disorder(), index, cfg.n_sites)
        with _building_from("model.dimension", "model.sides", "model.flux_q"):
            return LatticeModel(cfg, flux, pot)

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
        beta = self[("state", "beta")] if kind == "fermi_dirac" else None
        return EquilibriumState(kind, self.fermi_energy(spectral.eigenvalues), beta)

    def drive_for(self, eta: float) -> DriveProtocol:
        d = self[("model", "dimension")]
        axis = self[("drive", "field_axis")] - 1
        if not 0 <= axis < d:
            raise ConfigError("drive.field_axis out of range")
        e = [0.0] * d
        e[axis] = self[("drive", "field_magnitude")]
        return DriveProtocol(eta, tuple(e))

    def grid_for(self, eta: float) -> TimeGrid:
        """The time grid from s_min, where e^(eta s_min) = drive.truncation_tol."""
        tol = self[("drive", "truncation_tol")]
        return TimeGrid(float(np.log(tol) / eta), self[("drive", "step")], truncation_tol=tol)


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
        self.hashes = {}

    def write_text(self, name: str, text: str):
        # the directory is made with the first file, so a run that fails first leaves none
        self.out_dir.mkdir(parents=True, exist_ok=True)
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
    return str(v)


def ensemble_average(values):
    """(mean, stderr) with order-independent summation; stderr is None for
    a single sample."""
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        raise ValueError("need at least one value")
    mean = math.fsum(values) / n
    if n == 1:
        return mean, None
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _mean_parts(values):
    """Ensemble means of the real and imaginary parts of complex samples."""
    return ensemble_average(np.real(values))[0], ensemble_average(np.imag(values))[0]


_CELL_FAILURES = (
    DegenerateFermiLevelError, CoverageError, QuadratureAccuracyError,
    StepSizeError, np.linalg.LinAlgError,
)


def _map_realizations(fn, cfg: ExperimentConfig):
    """Order-preserving map of fn over the config's realization indices, on
    run.threads workers; thread count never changes the results. A numerical
    failure (one of _CELL_FAILURES) in one cell is recorded and the run
    continues; any other exception is a defect and propagates. Returns
    (results, errors)."""
    cells, threads = list(range(cfg[("model", "n_realizations")])), cfg[("run", "threads")]

    def guarded(cell):
        try:
            return ("ok", fn(cell))
        except _CELL_FAILURES as exc:  # summarized at exit, never fatal per cell
            return ("error", f"cell {cell!r}: {type(exc).__name__}: {exc}")

    if threads <= 1 or len(cells) <= 1:
        outcomes = [guarded(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(guarded, cells))
    results = [payload for status, payload in outcomes if status == "ok"]
    errors = [payload for status, payload in outcomes if status == "error"]
    return results, errors


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    """One acceptance gate; each suite decides `passed` with its own
    comparison.  summary.json writes it as the list [name, value, tolerance,
    passed], so value and tolerance are plain floats (a cell_error's are its
    message and "")."""

    name: str
    value: object
    tolerance: object
    passed: bool

    @classmethod
    def below(cls, name: str, value, tolerance: float) -> "Check":
        """The common strict gate value < tolerance."""
        value = float(value)
        return cls(name, value, tolerance, value < tolerance)


def _suite_algebra(cfg: ExperimentConfig, writer: _OutputWriter):
    model = cfg.model_for(0)
    h = build_hamiltonian(model)
    n = model.n_sites
    rng = np.random.default_rng(realization_seed(cfg[("model", "base_seed")], 999))

    def random_op(scale=1.0):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return CovariantOperator(scale * m / np.sqrt(n), model)

    a, b, c = random_op(), random_op(), random_op()
    na, nb = norms(a), norms(b)
    defects = {
        "centrality_diamond": abs(trace_per_unit_volume(prod_diamond(a, b)) - trace_per_unit_volume(prod_diamond(b, a))),
        "centrality_mixed": abs(trace_per_unit_volume(prod_left(c, a)) - trace_per_unit_volume(prod_right(a, c))),
        "trace_diamond_inner": abs(trace_per_unit_volume(prod_diamond(a, b)) - hs_inner(dagger(a), b)),
        "commutator_shuffle": abs(
            trace_per_unit_volume(prod_diamond(comm_odot(c, a), b))
            - trace_per_unit_volume(prod_left(c, comm_diamond(a, b)))
        ),
        "trace_vs_norm1": max(0.0, abs(trace_per_unit_volume(a)) - na.norm1),
        "holder_diamond": max(0.0, norms(prod_diamond(a, b)).norm1 - na.norm2 * nb.norm2),
        "dagger_isometry": abs(norms(dagger(a)).norm1 - na.norm1),
        "norm_chain": max(0.0, na.norm1 - np.sqrt(n) * na.norm2) + max(0.0, na.norm2 - np.sqrt(n) * na.norminf),
        "ddagger_commutator": np.linalg.norm(comm_ddagger(h, a).matrix - (h.matrix @ a.matrix - a.matrix @ h.matrix)),
        "left_right_associativity": np.linalg.norm(
            prod_right(prod_left(b, a), c).matrix - prod_left(b, prod_right(a, c)).matrix
        ),
        "bac_dagger": np.linalg.norm(
            dagger(prod_right(prod_left(b, a), c)).matrix
            - prod_right(prod_left(dagger(c), dagger(a)), dagger(b)).matrix
        ),
    }
    shifts = [tuple(rng.integers(0, s) for s in model.config.sides) for _ in range(3)]
    if model.config.boundary == "torus":
        ens = EnsembleOperator.uniform(
            [build_hamiltonian(shift_disorder(model, sh)) for sh in shifts] + [h]
        )
        defects["translation_sum_trace"] = abs(trace_per_unit_volume(h) - trace_per_unit_volume(ens))
    return [Check.below(name, defect, THRESHOLDS["algebra_identity"]) for name, defect in defects.items()], []


def _suite_equilibrium(cfg: ExperimentConfig, writer: _OutputWriter):
    clean = cfg[("model", "disorder_w")] == 0
    if not clean and cfg[("model", "n_realizations")] < 2:
        raise ConfigError("equilibrium on a disordered model needs model.n_realizations >= 2: its gate bounds the mean by the stderr")

    def one(index):
        spectral = cfg.spectral_for(index)
        j = equilibrium_current(spectral, cfg.state_for(spectral))
        return [index, realization_seed(cfg[("model", "base_seed")], index)] + [float(x) for x in j]

    d = cfg[("model", "dimension")]
    rows, cell_errors = _map_realizations(one, cfg)
    writer.write_csv(
        "equilibrium_raw.csv",
        ["realization", "seed"] + [f"j_{a+1}" for a in range(d)],
        rows,
    )
    summary_rows, checks = [], []
    for a in range(d) if rows else ():
        mean, stderr = ensemble_average([r[2 + a] for r in rows])
        if clean:
            check = Check.below(f"equilibrium_j_{a+1}", abs(mean), THRESHOLDS["equilibrium_clean"])
        else:  # a lone realization left by cell errors has no stderr: only 0 passes
            bound = THRESHOLDS["equilibrium_sigma_factor"] * (stderr or 0.0)
            check = Check(f"equilibrium_j_{a+1}", abs(mean), bound, abs(mean) <= bound)
        summary_rows.append([a + 1, mean, stderr if stderr is not None else "", len(rows), check.passed])
        checks.append(check)
    writer.write_csv(
        "equilibrium_summary.csv", ["axis", "mean", "stderr", "n", "pass"], summary_rows
    )
    return checks, cell_errors


def _suite_hall(cfg: ExperimentConfig, writer: _OutputWriter):
    if cfg[("state", "kind")] != "projection":
        raise ConfigError("hall needs state.kind = projection, the Fermi projection it traces")
    if cfg[("model", "dimension")] != 2:
        raise ConfigError("hall needs model.dimension = 2, the two axes of sigma_12")
    p, q = cfg[("model", "flux_p")], cfg[("model", "flux_q")]
    clean_model = cfg.model_for(None)
    clean_evals = np.linalg.eigvalsh(build_hamiltonian(clean_model).matrix)
    e_f = cfg.fermi_energy(clean_evals)
    n_occ = int(np.sum(clean_evals <= e_f))
    bands = max(1, round(n_occ * q / clean_model.n_sites))
    with _building_from("model.flux_p", "model.flux_q", "state.filling"):  # gapless bands have no Chern integer
        chern = chern_number_fhs(p, q, bands) if p != 0 else 0.0

    def one(index):
        spectral = cfg.spectral_for(index)
        sigma = sigma_streda(spectral, e_f)
        return [index, realization_seed(cfg[("model", "base_seed")], index), float(sigma[0, 1].real),
                hall_scaled(sigma), chern, localization_diagnostic(spectral, e_f)]

    rows, cell_errors = _map_realizations(one, cfg)
    header = ["realization", "seed", "sigma_12", "hall_scaled", "chern_oracle", "loc_rate"]
    writer.write_csv("hall_raw.csv", header, rows)
    summary_rows, checks = [], []
    if rows:
        mean, stderr = ensemble_average([r[3] for r in rows])
        gap = abs(abs(mean) - abs(chern))
        clean = cfg[("model", "disorder_w")] == 0
        bound = THRESHOLDS["hall_quantization_clean" if clean else "hall_quantization_disordered"]
        checks.append(Check.below("hall", gap, bound))
        summary_rows.append([mean, stderr if stderr is not None else "", chern, gap, bound, checks[0].passed])
    header = ["hall_scaled_mean", "stderr", "chern_oracle", "gap", "tolerance", "pass"]
    writer.write_csv("hall_summary.csv", header, summary_rows)
    return checks, cell_errors


def _suite_kubo_sweep(cfg: ExperimentConfig, writer: _OutputWriter):
    etas = sorted(cfg[("drive", "eta_list")], reverse=True)
    grid_for = cfg.grid_for if cfg[("drive", "include_fd")] else None
    d = cfg[("model", "dimension")]

    def one(index):
        spectral = cfg.spectral_for(index)
        return index, eta_sweep(spectral, cfg.state_for(spectral), etas, grid_for)

    sweeps, cell_errors = _map_realizations(one, cfg)
    # per realization: the Streda tensor, the resolvent, Kubo and FD stacks, the FD gaps
    streda, res, kubo, fd, fd_gap = ([sweep[i] for _, sweep in sweeps] for i in range(5))
    raw_rows, ens_rows, checks, final_gaps = [], [], [], {}
    t_kubo, t_fd = THRESHOLDS["kubo_vs_resolvent"], THRESHOLDS["fd_vs_resolvent"]
    t_final = THRESHOLDS["eta_sweep_final_gap"]
    for e, eta in enumerate(etas if sweeps else ()):  # eta-major; no ensemble when every cell failed
        for r, (index, _) in enumerate(sweeps):
            for j, k in np.ndindex(d, d):
                raw_rows.append(
                    [
                        eta, index, j + 1, k + 1,
                        res[r][e, j, k].real, res[r][e, j, k].imag,
                        kubo[r][e, j, k].real, kubo[r][e, j, k].imag,
                        streda[r][j, k].real, streda[r][j, k].imag,
                        *((fd[r][e, j, k].real, fd[r][e, j, k].imag) if grid_for else ("", "")),
                    ]
                )
        for j, k in np.ndindex(d, d):
            res_jk = [rs[e, j, k] for rs in res]
            res_mean, stderr = ensemble_average(np.real(res_jk))
            streda_mean, streda_im = _mean_parts([st[j, k] for st in streda])
            ens_rows.append(
                [
                    eta, j + 1, k + 1,
                    *(_mean_parts([f[e, j, k] for f in fd]) if grid_for else ("", "")),
                    *_mean_parts([kb[e, j, k] for kb in kubo]),
                    res_mean, ensemble_average(np.imag(res_jk))[0],
                    streda_mean, streda_im,
                    len(sweeps), stderr if stderr is not None else "",
                ]
            )
            if j != k:  # overwritten per eta, so the smallest (last) eta's stays
                final_gaps[j, k] = abs(res_mean - streda_mean)
        kubo_gap = max(float(np.max(np.abs(kb[e] - rs[e]))) for kb, rs in zip(kubo, res))
        checks.append(Check("kubo_vs_resolvent", kubo_gap, t_kubo, kubo_gap <= t_kubo))
        if grid_for:
            checks += [Check("fd_vs_resolvent", g[e], t_fd, g[e] <= t_fd) for g in fd_gap]
    writer.write_csv(
        "kubo_sweep_raw.csv",
        [
            "eta", "realization", "j", "k",
            "sigma_res_re", "sigma_res_im", "sigma_kubo_re", "sigma_kubo_im",
            "streda_re", "streda_im", "sigma_fd_re", "sigma_fd_im",
        ],
        raw_rows,
    )
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
    if len(etas) > 1:
        checks += [Check("eta_sweep_final_gap", g, t_final, g <= t_final) for g in final_gaps.values()]
    return checks, cell_errors


def _suite_dynamics(cfg: ExperimentConfig, writer: _OutputWriter):
    """The dynamics gates on realization 0.  A numerical failure there (one of
    _CELL_FAILURES) is recorded as its one cell error, as the ensemble suites
    do, and the CSVs are written with their headers only."""
    cell_errors = []
    try:
        spectral = cfg.spectral_for(0)
        model = spectral.model
        eta = max(cfg[("drive", "eta_list")])
        drive = cfg.drive_for(eta)
        grid = cfg.grid_for(eta)
        state = cfg.state_for(spectral)
        zeta = state.build(spectral)

        # one Liouville march: the norms of rho(t) at 8 checkpoints and its end are the
        # conserved-quantity trace; its symmetrized last state is the rho(0) the gates judge
        timeseries = []
        nsteps = grid.n_steps(grid.s_min, 0.0)
        every = max(1, nsteps // 8)
        for k, (r, rho_t) in enumerate(density_path(model, drive, zeta.matrix, 0.0, grid)):
            if k % every == 0 or k == nsteps:
                rho_ode = CovariantOperator((rho_t + rho_t.conj().T) / 2, model)
                n = norms(rho_ode)
                defect = float(np.linalg.norm(rho_t @ rho_t - rho_t))
                timeseries.append([r, n.norm1, n.norm2, n.norminf, defect])

        rho_duh = evolve_density_duhamel(model, drive, state, 0.0, grid)
        diff = norm2(CovariantOperator(rho_ode.matrix - rho_duh.matrix, model))
        min_eig = float(np.linalg.eigvalsh(rho_ode.matrix)[0])
        floor = THRESHOLDS["density_min_eigenvalue"]
        checks = [
            Check.below("density_route_agreement", diff, THRESHOLDS["density_route_agreement"]),
            Check.below("norm2_conservation", abs(norm2(rho_ode) - norm2(zeta)), THRESHOLDS["density_norm_conservation"]),
            Check("rho_min_eigenvalue", min_eig, floor, min_eig >= floor),
        ]
        if state.kind == "projection":
            proj = np.linalg.norm(rho_ode.matrix @ rho_ode.matrix - rho_ode.matrix)
            checks.append(Check.below("projection_defect", proj, THRESHOLDS["density_projection_defect"]))

        # U(0, s_min) = U(0, s_min/4) U(s_min/4, s_min); the weight bound reads the first factor
        late = propagate(model, drive, 0.0, grid.s_min / 4.0, grid)
        u = late.matrix @ propagate(model, drive, grid.s_min / 4.0, grid.s_min, grid).matrix
        unitarity = np.linalg.norm(u.conj().T @ u - np.eye(model.n_sites))
        checks.append(Check.below("propagator_unitarity", unitarity, THRESHOLDS["propagator_unitarity"]))
        wreport = propagator_weight_check(spectral, drive, 0.0, grid.s_min / 4.0, late)
        excess, margin = wreport.weighted_norm / wreport.bound - 1.0, THRESHOLDS["weight_margin"]
        checks.append(Check("weight_inequality", excess, margin, excess <= margin))

        # two-site Duhamel residual refinement
        chain = LatticeModel(LatticeConfig(1, (2,), "open"), FluxSpec(), np.zeros(2))
        drive1 = DriveProtocol(eta, (0.1,))
        psi = np.array([1.0, 0.0], dtype=complex)
        residuals = []
        refinement = []
        for step in (0.04, 0.02, 0.01):
            rep = duhamel_residual(chain, drive1, 0.0, grid.s_min, psi, replace(grid, step=step))
            residuals.append(rep.residual)
            refinement.append([step, rep.residual, rep.quadrature_estimate])
        ok = residuals[-1] < THRESHOLDS["duhamel_residual"] and all(np.diff(residuals) < 0)
        checks.append(Check("duhamel_refinement", residuals[-1], THRESHOLDS["duhamel_residual"], ok))

        # gauge equivalence on an open chain
        open_chain = LatticeModel(LatticeConfig(1, (8,), "open"), FluxSpec(), np.zeros(8))
        drive_open = DriveProtocol(eta, (0.2,))
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi0 /= np.linalg.norm(psi0)
        disc = gauge_equivalence_check(open_chain, drive_open, psi0, 0.0, replace(grid, step=0.002))
        checks.append(Check.below("gauge_equivalence", disc, THRESHOLDS["gauge_equivalence"]))
    except _CELL_FAILURES as exc:
        checks, timeseries, refinement = [], [], []
        cell_errors.append(f"cell 0: {type(exc).__name__}: {exc}")
    writer.write_csv(
        "dynamics_timeseries.csv",
        ["t", "norm1", "norm2", "norminf", "projection_defect"],
        timeseries,
    )
    writer.write_csv(
        "dynamics_refinement.csv", ["step", "duhamel_residual", "quadrature_estimate"], refinement
    )
    return checks, cell_errors


def _suite_funcalc(cfg: ExperimentConfig, writer: _OutputWriter):
    rng = np.random.default_rng(realization_seed(cfg[("model", "base_seed")], 777))
    n = 32
    chain = LatticeModel(LatticeConfig(1, (n,), "open"), FluxSpec(), np.zeros(n))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = CovariantOperator((m + m.conj().T) / (2 * np.sqrt(n)), chain)
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
    gain, floor = min(a / b for a, b in zip(errors, errors[1:])), THRESHOLDS["hs_refinement_gain"]
    checks = [Check.below("hs_vs_spectral", errors[-1], THRESHOLDS["hs_vs_spectral"])]
    return checks + [Check("hs_refinement_gain", gain, floor, gain >= floor)], []


_SUITE_FN = {
    "hall": _suite_hall,
    "kubo-sweep": _suite_kubo_sweep,
    "dynamics-check": _suite_dynamics,
    "equilibrium": _suite_equilibrium,
    "funcalc-check": _suite_funcalc,
    "algebra-check": _suite_algebra,
}
SUITES = tuple(_SUITE_FN)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    """Dispatch the configured suite, write outputs, and return the manifest.
    summary.json holds the suite's (checks, cell_errors) as returned, every
    check passing or not; the manifest's violations are the failed checks,
    then one cell_error per cell error message."""
    experiment = cfg[("run", "experiment")]
    if experiment not in _SUITE_FN:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {SUITES}")
    out = Path(out_dir) if out_dir is not None else Path(cfg[("run", "output_dir")])
    writer = _OutputWriter(out / cfg[("run", "name")])
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        checks, cell_errors = _SUITE_FN[experiment](cfg, writer)
    except ConfigurationError as exc:  # values that each parse but do not fit together
        raise ConfigError(f"{experiment}: {exc}") from exc
    finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    writer.write_json(
        "summary.json",
        {
            "schema_version": 2,
            "experiment": experiment,
            "config_sha256": cfg.digest(),
            "checks": checks,
            "cell_errors": cell_errors,
        },
    )
    violations = [c for c in checks if not c.passed]
    violations += [Check("cell_error", msg, "", False) for msg in cell_errors]
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
        violations=[list(v) for v in violations],
    )
    (writer.out_dir / "manifest.json").write_text(manifest.to_json())
    return manifest
