"""Adiabatic drive, propagators, and the driven density matrix.

The time-dependent field lives in the vector-potential gauge as bond-phase
shifts (torus compatible); the scalar gauge H + E(t).X exists only on the
open box, where the two descriptions are compared by a dual evolution.
The density matrix rho(t) is produced both by the integral (Duhamel)
construction and by direct integration of the Liouville equation, which
cross-validate each other.

H(t) differs from H only by the phase e^{i F_a(t)} on the hops of each
driven axis a (E_a != 0), so `_h_at` adds those phased hops to a static part
cached on the model (`LatticeModel._static_part`).

Every propagator, Duhamel sum and density route is one march of H(t)
(`_march`), and so are both gauges of the gauge check, the scalar one a
march of H + E(t).X: the integrator and the step-size guard are chosen there
and nowhere else, and only the current state is held, so memory is O(N^2)
whatever the number of steps.  An RK4 step assembles H three times (the
midpoint once for both middle stages), and the march hands on what its step
holds of H(r_k): an RK4 step's k1 matrix, a riemann_product step's eigh.

A single evolution is sequential in time; independent (realization, field,
eta) evolutions may run concurrently.  The only state they may share is the
model's cache of static parts, whose entries are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import (
    ConfigurationError,
    CovariantOperator,
    LatticeModel,
    UnsupportedOperationError,
    build_hamiltonian,
    displacement_table,
    position_matrix,
)
from .funcalc import EquilibriumState, SpectralData, divided_difference_kernel


class StepSizeError(ValueError):
    """Time step violates the stability guard h * ||H|| < 0.5."""


@dataclass(frozen=True)
class DriveProtocol:
    """Adiabatic switching at rate eta: E(t) = e^{eta t_-} E, with
    F(t) = (e^{eta t_-}/eta + t_+) E so that F' = E(t) and F(-inf) = 0."""

    eta: float
    field: tuple[float, ...]

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigurationError("adiabatic rate eta must be positive")
        object.__setattr__(self, "field", tuple(float(e) for e in self.field))

    @cached_property
    def driven_axes(self) -> tuple[int, ...]:
        """Axes with a nonzero field: the only hops that change with t."""
        return tuple(axis for axis, e in enumerate(self.field) if e != 0.0)

    def field_at(self, t: float) -> np.ndarray:
        return np.exp(self.eta * min(t, 0.0)) * np.array(self.field)

    def f_integral(self, t: float) -> np.ndarray:
        return (np.exp(self.eta * min(t, 0.0)) / self.eta + max(t, 0.0)) * np.array(
            self.field
        )

    def s_min_for(self, truncation_tol: float = 1e-12) -> float:
        return float(np.log(truncation_tol) / self.eta)


INTEGRATORS = ("riemann_product", "ode_rk4", "magnus2")


@dataclass
class TimeGrid:
    """Uniform stepping scheme from s_min; each march ends at its caller's t."""

    s_min: float
    step: float
    method: str = "ode_rk4"  # one of INTEGRATORS
    truncation_tol: float = 1e-12

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigurationError("step must be positive")
        if self.method not in INTEGRATORS:
            raise ConfigurationError(f"unknown integrator {self.method!r}")

    def validate(self, drive: DriveProtocol) -> None:
        if not np.exp(drive.eta * self.s_min) <= self.truncation_tol * (1.0 + 1e-9):
            raise ConfigurationError(
                f"s_min={self.s_min} truncates too early: e^(eta s_min) = "
                f"{np.exp(drive.eta * self.s_min):.2e} > {self.truncation_tol:.0e}"
            )

    def n_steps(self, s: float, t: float, even: bool = False) -> int:
        n = max(1, int(np.ceil((t - s) / self.step - 1e-12)))
        if even and n % 2:
            n += 1
        return n


# ---------------------------------------------------------------------------
# driven Hamiltonian and gauge
# ---------------------------------------------------------------------------


def _h_at(model: LatticeModel, drive: DriveProtocol, t: float) -> np.ndarray:
    """Raw driven Hamiltonian matrix (fast path for the integrators), a
    fresh array on every call.

    H(t) = static + sum_a (c_a T_a + conj(c_a) T_a*) + diag(V) over the
    driven axes a, with c_a = e^{i F_a(t)} and T_a the forward hops of axis
    a; static and each T_a* are cached on the model.  Hop supports of
    different axes are disjoint and conj(c t) = conj(c) conj(t), so summed in
    this order every entry, signed zeros included, equals phasing every
    forward hop and adding the conjugate transpose.
    """
    # the phases as Python scalars: same values, less overhead per call
    scale = float(np.exp(drive.eta * min(t, 0.0))) / drive.eta + max(t, 0.0)
    static, hops = model._static_part(drive.driven_axes)
    h = static.copy()
    for axis, fwd, bwd in hops:
        c = complex(np.exp(1j * scale * drive.field[axis]))
        h += c * fwd
        h += c.conjugate() * bwd
    h.reshape(-1)[:: h.shape[0] + 1] += model.potential
    return h


def hamiltonian_at(model: LatticeModel, drive: DriveProtocol, t: float) -> CovariantOperator:
    """H(t): every forward hop along axis j carries the extra phase
    e^{i F_j(t)}, wrap bonds included; the t -> -inf limit is the undriven
    Hamiltonian and covariance on the torus holds for all t."""
    return CovariantOperator(_h_at(model, drive, t), model)


def _v_at(model: LatticeModel, drive: DriveProtocol, t: float, axis: int) -> np.ndarray:
    scale = np.exp(drive.eta * min(t, 0.0)) / drive.eta + max(t, 0.0)
    part = np.exp(1j * scale * drive.field[axis]) * model._forward_parts[axis]
    return -1j * (part - part.conj().T)


def velocity_at(model: LatticeModel, drive: DriveProtocol, t: float, axis: int) -> CovariantOperator:
    """Velocity of H(t): the bond rule applied to the driven hops."""
    return CovariantOperator(_v_at(model, drive, t, axis), model)


def gauge_operator(model: LatticeModel, drive: DriveProtocol, t: float) -> CovariantOperator:
    """G(t) = diag(e^{i F(t) . x}) over the integer site coordinates."""
    f = drive.f_integral(t)
    phase = model.coords.astype(float) @ f
    return CovariantOperator(np.diag(np.exp(1j * phase)), model)


def _expm_hermitian(eig, scale: complex) -> np.ndarray:
    """exp(scale H) from the eigendecomposition (evals, evecs) of H."""
    evals, evecs = eig
    return (evecs * np.exp(scale * evals)) @ evecs.conj().T


# ---------------------------------------------------------------------------
# the time march
# ---------------------------------------------------------------------------


def _schrodinger(hr: np.ndarray, m: np.ndarray) -> np.ndarray:
    return -1j * (hr @ m)


def _liouville(hr: np.ndarray, m: np.ndarray) -> np.ndarray:
    # every RK4 stage is Hermitian, so [H, m] = Hm - (Hm)*
    hm = hr @ m
    return -1j * (hm - hm.conj().T)


def _rk4_step(h_at, apply, r: float, y: np.ndarray, h: float, h_r: np.ndarray) -> np.ndarray:
    """One RK4 step of y' = apply(H(r), y) from h_r = H(r): H is assembled
    once at the midpoint r + h/2 for both middle stages, and at r + h."""
    k1 = apply(h_r, y)
    h_mid = h_at(r + h / 2)
    k2 = apply(h_mid, y + (h / 2) * k1)
    k3 = apply(h_mid, y + (h / 2) * k2)
    k4 = apply(h_at(r + h), y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _march(h_at, grid: TimeGrid, s: float, t: float, nsteps: int, y, conjugate=False):
    """Yield (r_k, y_k, h_k), k = 0..nsteps, along one march of H(r) = h_at(r)
    from y at s, with r_k = s + k (t - s) / nsteps and r_n = t, by
    grid.method (see propagate).

    States and propagators advance as y -> U y; with `conjugate`, density
    matrices advance as y -> U y U*.  h_k is what the step from r_k holds of
    H(r_k): its eigendecomposition (riemann_product), the matrix (ode_rk4, the
    step's k1), or None (magnus2, and k = n).  The step-size guard is checked
    before the first step, and only the current y is held.
    """
    if t < s:
        raise ValueError(f"a march needs s <= t, got s={s}, t={t}")
    hnorm = float(np.max(np.abs(np.linalg.eigvalsh(h_at(s)))))
    if grid.step * hnorm >= 0.5:
        raise StepSizeError(
            f"step {grid.step} violates h * ||H|| = {grid.step * hnorm:.3f} < 0.5"
        )
    h = (t - s) / nsteps
    apply = _liouville if conjugate else _schrodinger
    riemann = grid.method == "riemann_product"
    offset = 0.0 if riemann else 0.5
    r = s
    for k in range(nsteps):
        if grid.method == "ode_rk4":
            h_r = h_at(s + k * h)
            yield r, y, h_r
            y = _rk4_step(h_at, apply, s + k * h, y, h, h_r)
        else:
            eig = np.linalg.eigh(h_at(s + (k + offset) * h))
            yield r, y, (eig if riemann else None)
            u = _expm_hermitian(eig, -1j * h)
            y = u @ y @ u.conj().T if conjugate else u @ y
        r = t if k + 1 == nsteps else s + (k + 1) * h
    yield r, y, None


def _final(march):
    """The last (r, y) of a march, dropping the earlier ones as they pass."""
    return deque(march, maxlen=1)[0]


def _simpson_weight(k: int, n: int) -> float:
    """Composite Simpson weight of node k of n (even) intervals, without h/3."""
    if k in (0, n):
        return 1.0
    return 4.0 if k % 2 else 2.0


@lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached
    per order."""
    rule = leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def propagate(
    model: LatticeModel,
    drive: DriveProtocol,
    t: float,
    s: float,
    grid: TimeGrid,
) -> CovariantOperator:
    """U(t, s), s <= t, as a unitary CovariantOperator, by the grid's method.

    `riemann_product` multiplies exact exponentials of the Hamiltonian
    frozen at the left endpoint of each step (first order, exactly unitary
    per step); `magnus2` freezes at the midpoint (second order);
    `ode_rk4` integrates i dU/dt = H(t) U (fourth order).
    """
    eye = np.eye(model.n_sites, dtype=complex)
    march = _march(partial(_h_at, model, drive), grid, s, t, grid.n_steps(s, t), eye)
    _, u, _ = next(march) if t == s else _final(march)
    return CovariantOperator(u, model)


def free_propagator(spectral: SpectralData, tau: float) -> np.ndarray:
    """U0(tau) = e^{-i tau H} from the eigendecomposition."""
    return _expm_hermitian((spectral.eigenvalues, spectral.eigenvectors), -1j * tau)


# ---------------------------------------------------------------------------
# Duhamel identity
# ---------------------------------------------------------------------------


@dataclass
class DuhamelReport:
    residual: float
    quadrature_estimate: float


def duhamel_residual(
    model: LatticeModel,
    drive: DriveProtocol,
    t: float,
    s: float,
    psi: np.ndarray,
    grid: TimeGrid,
) -> DuhamelReport:
    """|| U(t,s) psi - U0(t-s) psi - i * integral_s^t U0(t-r) (H - H(r)) U(r,s) psi dr ||.

    The integral identity is exact for matrices; the residual measures the
    quadrature plus integrator error and vanishes under refinement.  The
    Simpson and trapezoid sums are accumulated as the march passes each
    node.
    """
    psi = np.asarray(psi, dtype=complex)
    h0 = build_hamiltonian(model)
    spectral = SpectralData.from_operator(h0)
    nsteps = grid.n_steps(s, t, even=True)
    simpson = np.zeros_like(psi)
    trapezoid = np.zeros_like(psi)
    h_at = partial(_h_at, model, drive)
    for k, (r, y, _) in enumerate(_march(h_at, grid, s, t, nsteps, psi)):
        node = free_propagator(spectral, t - r) @ ((h0.matrix - h_at(r)) @ y)
        simpson += _simpson_weight(k, nsteps) * node
        trapezoid += node if 0 < k < nsteps else node / 2
    h = (t - s) / nsteps
    simpson *= h / 3.0
    trapezoid *= h
    lhs = y - free_propagator(spectral, t - s) @ psi - 1j * simpson
    return DuhamelReport(
        residual=float(np.linalg.norm(lhs)),
        quadrature_estimate=float(np.linalg.norm(simpson - trapezoid)),
    )


# ---------------------------------------------------------------------------
# density matrix evolution
# ---------------------------------------------------------------------------


def _zeta(state, eig):
    """zeta(r) = f(H(r)) from the eigendecomposition eig = (evals, evecs) of H(r)."""
    evals, evecs = eig
    return (evecs * state.profile()(evals)) @ evecs.conj().T


def _drive_commutator(model, drive, state, tables, r, kernel, eig):
    """[E . x, zeta(r)] in the chosen finite-volume realization, from the
    eigendecomposition eig = (evals, evecs) of H(r).

    "gauge_derivative" is the spectral divided difference, the exact
    derivative of f(H(r)) under the drive and the form that makes the
    integral identity hold on the torus; "minimal_image" is the entrywise
    displacement commutator, equal to it up to wrap terms controlled by
    the decay of zeta.
    """
    evals, evecs = eig
    out = np.zeros(evecs.shape, dtype=complex)
    if kernel == "minimal_image":
        zeta = _zeta(state, eig)
        for axis in drive.driven_axes:
            out += drive.field[axis] * (tables[axis] * zeta)
        return out
    f_vals, fp_vals = state.profile()(evals), state.profile_derivative()(evals)
    for axis in drive.driven_axes:
        vt = evecs.conj().T @ _v_at(model, drive, r, axis) @ evecs
        # the divided difference realizes i[x, zeta]; strip the i here
        k = -1j * divided_difference_kernel(evals, f_vals, fp_vals, vt)
        out += drive.field[axis] * (evecs @ k @ evecs.conj().T)
    return out


def evolve_density_duhamel(
    model: LatticeModel,
    drive: DriveProtocol,
    state: EquilibriumState,
    t: float,
    grid: TimeGrid,
    kernel: str = "gauge_derivative",
) -> CovariantOperator:
    """The driven state rho(t), symmetrized, from the integral formula
    rho(t) = zeta(t) - i * integral_{s_min}^{t} e^{eta r_-} U(t,r) [E.x, zeta(r)] U(r,t) dr.

    The commutator with zeta(r) = f(H(r)) is taken spectrally at every node
    (torus consistent) and realized per `kernel` (see _drive_commutator);
    zeta(t) itself is built once, from the last node.  The default keeps
    the integral identity exact at finite volume so this route
    cross-validates the Liouville integration to integrator accuracy.  One
    forward march of V(r) = U(r, s_min) carries the propagator sandwich, and
    each node's Simpson term is added as the march passes it, so memory is
    O(N^2) whatever the step count.  H(r) is assembled and decomposed once
    per node: the march hands over its step's k1 matrix or eigendecomposition.
    """
    if kernel not in ("gauge_derivative", "minimal_image"):
        raise ValueError(f"unknown commutator kernel {kernel!r}")
    grid.validate(drive)
    s = grid.s_min
    nsteps = grid.n_steps(s, t, even=True)
    tables = [displacement_table(model, axis) for axis in range(model.config.dimension)]
    acc = np.zeros((model.n_sites, model.n_sites), dtype=complex)
    eye = np.eye(model.n_sites, dtype=complex)
    h_at = partial(_h_at, model, drive)
    for k, (r, v, eig) in enumerate(_march(h_at, grid, s, t, nsteps, eye)):
        if not isinstance(eig, tuple):  # H(r) itself, or None
            eig = np.linalg.eigh(h_at(r) if eig is None else eig)
        m_r = _drive_commutator(model, drive, state, tables, r, kernel, eig)
        weight = _simpson_weight(k, nsteps) * np.exp(drive.eta * min(r, 0.0))
        acc += weight * (v.conj().T @ m_r @ v)
    acc *= (t - s) / nsteps / 3.0
    rho = _zeta(state, eig) - 1j * (v @ acc @ v.conj().T)
    return CovariantOperator((rho + rho.conj().T) / 2.0, model)


def density_path(
    model: LatticeModel,
    drive: DriveProtocol,
    rho: np.ndarray,
    t: float,
    grid: TimeGrid,
):
    """Yield (r, rho(r)) along one march of i d(rho)/dt = [H(t), rho] from
    the matrix rho at grid.s_min to t; the matrices are not symmetrized."""
    grid.validate(drive)
    s = grid.s_min
    march = _march(partial(_h_at, model, drive), grid, s, t, grid.n_steps(s, t), rho, conjugate=True)
    return ((r, y) for r, y, _ in march)


def evolve_density_ode(
    spectral: SpectralData,
    drive: DriveProtocol,
    state: EquilibriumState,
    t: float,
    grid: TimeGrid,
) -> CovariantOperator:
    """The driven state rho(t), symmetrized, by direct integration of
    i d(rho)/dt = [H(t), rho] from zeta = f(H) at s_min, zeta built on the
    caller's decomposition `spectral` of H (no eigh)."""
    model = spectral.model
    _, rho = _final(density_path(model, drive, state.build(spectral).matrix, t, grid))
    return CovariantOperator((rho + rho.conj().T) / 2.0, model)


# ---------------------------------------------------------------------------
# gauge equivalence (open box) and the weighted propagator bound
# ---------------------------------------------------------------------------


def gauge_equivalence_check(
    model: LatticeModel,
    drive: DriveProtocol,
    psi0: np.ndarray,
    t: float,
    grid: TimeGrid,
) -> float:
    """|| G(t)* psi_vec(t) - psi_scal(t) || for the dual evolution.

    psi_vec evolves under the bond-phase H(t), psi_scal under the scalar
    potential H + E(t).X; only meaningful on the open box where X is a
    genuine position matrix.
    """
    if model.config.boundary != "open":
        raise UnsupportedOperationError("gauge equivalence needs the open box")
    grid.validate(drive)
    psi0 = np.asarray(psi0, dtype=complex)
    s = grid.s_min
    nsteps = grid.n_steps(s, t)
    h0 = build_hamiltonian(model).matrix
    xs = [position_matrix(model, axis).matrix for axis in range(model.config.dimension)]

    def h_scal(r):
        e = drive.field_at(r)
        return h0 + sum(e[j] * xs[j] for j in range(len(xs)))

    # both sides by RK4, so the discrepancy measures the gauge, not the integrator
    rk4 = replace(grid, method="ode_rk4")
    _, psi_vec, _ = _final(_march(partial(_h_at, model, drive), rk4, s, t, nsteps, psi0))
    _, psi_scal, _ = _final(_march(h_scal, rk4, s, t, nsteps, psi0))
    g = gauge_operator(model, drive, t).matrix
    return float(np.linalg.norm(g.conj().T @ psi_vec - psi_scal))


@dataclass
class WeightReport:
    weighted_norm: float
    bound: float
    gamma: float


def propagator_weight_check(
    model: LatticeModel,
    drive: DriveProtocol,
    t: float,
    s: float,
    grid: TimeGrid,
) -> WeightReport:
    """||(H(t)+gamma) U(t,s) (H(s)+gamma)^{-1}|| against exp(int ||C(r)|| dr),
    with C(r) = sum_j E_j(r) v_j(r) (H(r)+gamma)^{-1} and gamma shifting H
    above 1."""
    h0 = build_hamiltonian(model).matrix
    lam_min = float(np.min(np.linalg.eigvalsh(h0)))
    gamma = max(1.0, 1.0 - lam_min)
    prop = propagate(model, drive, t, s, grid)
    n = model.n_sites
    eye = np.eye(n)
    ht = _h_at(model, drive, t) + gamma * eye
    hs = _h_at(model, drive, s) + gamma * eye
    lhs = float(np.linalg.norm(ht @ prop.matrix @ np.linalg.inv(hs), 2))

    nodes, weights = gauss_legendre(24)
    total = 0.0
    n_panels = max(4, int(np.ceil((t - s))))
    edges = np.linspace(s, t, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2, (b - a) / 2
        for x, w in zip(nodes, weights):
            r = mid + half * x
            e_r = drive.field_at(r)
            hr = _h_at(model, drive, r) + gamma * eye
            c = sum(
                e_r[j] * _v_at(model, drive, r, j)
                for j in range(model.config.dimension)
            )
            total += w * half * float(np.linalg.norm(c @ np.linalg.inv(hr), 2))
    return WeightReport(lhs, float(np.exp(total)), gamma)
