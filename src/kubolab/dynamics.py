"""Adiabatic drive, propagators, and the driven density matrix.

The time-dependent field lives in the vector-potential gauge as bond-phase
shifts (torus compatible); the scalar gauge H + E(t).X exists only on the
open box, where the two descriptions are compared by a dual evolution.
The density matrix rho(t) is produced both by the integral (Duhamel)
construction and by direct integration of the Liouville equation, which
cross-validate each other.

H(t) differs from H only by the phase e^{i F_a(t)} on the hops of each
driven axis a (E_a != 0), so `_h_at` scatters the model's bond list with
those phases, as `build_hamiltonian` scatters it without them.

Every propagator, Duhamel sum and density route is one march of H(t)
(`_march`), and so is the gauge check, its two gauges one stack: the
step-size guard sits there and nowhere else, and only the current state and
one block of steps' H(t) (one `_h_at` call) are held, so memory is O(N^2)
whatever the number of steps.  Each route fixes its own integrator:
`propagate` marches by magnus2, the midpoint exponential product, each
exponential a Taylor polynomial, not an eigh; the Liouville route by RK4's
stages; every other route by RK4's step matrices y -> S_k y, a block's at
once.  An RK4 march hands on its step's k1 matrix H(r_k); the Duhamel
density route decomposes it at every _NODE_STRIDE-th step only.

A single evolution is sequential in time; independent (realization, field,
eta) evolutions may run concurrently.  The only state they may share is the
model's cached bond list, whose entries are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import KW_ONLY, dataclass
from functools import cached_property, partial
from itertools import islice
from math import factorial

import numpy as np

from .model import (
    ConfigurationError,
    CovariantOperator,
    LatticeModel,
    UnsupportedOperationError,
    _scatter,
    build_hamiltonian,
    position_matrix,
)
from .funcalc import EquilibriumState, SpectralData, gauss_legendre, spectral_position_commutator


class StepSizeError(ValueError):
    """Time step violates the stability guard h * ||H|| < 0.5."""


@dataclass(frozen=True)
class DriveProtocol:
    """Adiabatic switching at rate eta: E(t) = e^{eta t_-} E, with
    F(t) = (e^{eta t_-}/eta + t_+) E so that F' = E(t) and F(-inf) = 0."""

    eta: float
    field: tuple[float, ...]

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ConfigurationError(f"adiabatic rate eta must be finite and positive, not {self.eta!r}")
        object.__setattr__(self, "field", tuple(float(e) for e in self.field))
        if not all(np.isfinite(self.field)):
            raise ConfigurationError(f"field must be finite, not {self.field!r}")

    @cached_property
    def driven_axes(self) -> tuple[int, ...]:
        """Axes with a nonzero field: the only hops that change with t."""
        return tuple(axis for axis, e in enumerate(self.field) if e != 0.0)

    def field_at(self, t) -> np.ndarray:
        """E(t); for an array of times, one row per time."""
        return np.exp(self.eta * np.minimum(t, 0.0))[..., None] * np.array(self.field)

    def f_integral(self, t) -> np.ndarray:
        """F(t), which every driven phase reads, with t_+ = t - t_- (exact);
        for an array of times, one row per time."""
        t_minus = np.minimum(t, 0.0)
        scale = np.exp(self.eta * t_minus) / self.eta + (t - t_minus)
        return scale[..., None] * np.array(self.field)


# Steps per march block: as many as keep three N x N arrays a step (RK4's stage times, magnus2's
# Taylor x^2 and accumulators) within _BLOCK_BYTES (4 steps at N = 36), at most _BLOCK_STEPS.
_BLOCK_BYTES = 256 * 1024
_BLOCK_STEPS = 16
_NODE_STRIDE = 4  # march steps per node of the smooth Duhamel density integrand


@dataclass
class TimeGrid:
    """Uniform stepping scheme from s_min; each march ends at its caller's t."""

    s_min: float
    step: float
    _: KW_ONLY
    truncation_tol: float = 1e-12

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigurationError("step must be positive")

    def validate(self, drive: DriveProtocol) -> None:
        if not np.exp(drive.eta * self.s_min) <= self.truncation_tol * (1.0 + 1e-9):
            raise ConfigurationError(
                f"s_min={self.s_min} truncates too early: e^(eta s_min) = "
                f"{np.exp(drive.eta * self.s_min):.2e} > {self.truncation_tol:.0e}"
            )

    def n_steps(self, s: float, t: float, multiple: int = 1) -> int:
        n = max(1, int(np.ceil((t - s) / self.step - 1e-12)))
        return -(-n // multiple) * multiple


# ---------------------------------------------------------------------------
# driven Hamiltonian and gauge
# ---------------------------------------------------------------------------


def _h_at(model: LatticeModel, drive: DriveProtocol, t) -> np.ndarray:
    """H(t), a fresh array on every call; for an array of times, the stack
    of H(t).  H(-inf) = H, and H(t) is covariant on the torus for all t.

    The bond list of H with each amplitude of a driven axis a (E_a != 0),
    wrap bonds included, times c_a = e^{i F_a(t)}, scattered with the
    potential on the diagonal: on every bond and diagonal entry, the bits of
    phasing every forward hop and adding the conjugate transpose.  The
    undriven hops are scattered once and copied to every time; no two axes
    share a position, so adding the driven hops, then the diagonal, keeps
    one scatter's bits.
    """
    times = np.asarray(t, dtype=float)
    f = drive.f_integral(times)
    n = model.n_sites
    undriven = [(axis, a) for axis, (_, _, a) in enumerate(model.bonds) if axis not in drive.driven_axes]
    flat = np.empty(times.shape + (n * n,), dtype=complex)
    flat[...] = _scatter(model, undriven).reshape(-1)
    offsets = n * n * np.arange(times.size).reshape(times.shape + (1,))
    for axis in drive.driven_axes:
        forward, backward = model._bond_positions[axis]
        amplitude = np.exp(1j * f[..., axis])[..., None] * model.bonds[axis][2]
        flat.reshape(-1)[offsets + forward] += amplitude
        flat.reshape(-1)[offsets + backward] += amplitude.conj()
    flat[..., :: n + 1] += model.potential
    return flat.reshape(times.shape + (n, n))


def _v_at(model: LatticeModel, drive: DriveProtocol, t: float, axis: int) -> np.ndarray:
    """Velocity of H(t) along axis: the bond rule applied to the driven hops,
    each carrying the phase e^{i F_axis(t)}, a fresh array."""
    _, _, amplitude = model.bonds[axis]
    return _scatter(model, [(axis, -1j * (np.exp(1j * drive.f_integral(t)[axis]) * amplitude))])


def gauge_operator(model: LatticeModel, drive: DriveProtocol, t: float) -> CovariantOperator:
    """G(t) = diag(e^{i F(t) . x}) over the integer site coordinates."""
    f = drive.f_integral(t)
    phase = model.coords.astype(float) @ f
    return CovariantOperator(np.diag(np.exp(1j * phase)), model)


def _expm_hermitian(eig, scale: complex) -> np.ndarray:
    """exp(scale H) from the eigendecomposition (evals, evecs) of H."""
    evals, evecs = eig
    return (evecs * np.exp(scale * evals)) @ evecs.conj().T


def _expm_taylor(hs: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale H) for each H of the Hermitian stack hs, overwritten by x = scale H: the
    Taylor polynomial of least degree m with theta^(m+1) e^theta / (m+1)! <= 2^-53, theta
    >= ||x||_2 the largest row sum of |x| (by hypot: numpy's complex abs first touches
    128 KiB), by Paterson-Stockmeyer in x^2 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488 (2011)): 1 + m // 2 products; x^2 and two accumulators share one stack."""
    x = np.multiply(hs, scale, out=hs)
    theta, m = float(np.max(np.hypot(x.real, x.imag).sum(axis=-1))), 1
    while theta ** (m + 1) / factorial(m + 1) * np.exp(theta) > 2.0**-53:
        m += 1
    x2, acc, scratch = np.empty((3,) + x.shape, x.dtype)
    np.matmul(x, x, out=x2)
    acc[...] = 0
    for j in range(m - m % 2, -1, -2):  # acc <- acc x^2 + x / (j + 1)! + 1 / j!
        if j + 2 <= m:
            acc, scratch = np.matmul(acc, x2, out=scratch), acc
        if j < m:
            acc += np.multiply(x, 1.0 / factorial(j + 1), out=scratch)
        acc.reshape(*x.shape[:-2], -1)[..., :: x.shape[-1] + 1] += 1.0 / factorial(j)
    return acc


# ---------------------------------------------------------------------------
# the time march
# ---------------------------------------------------------------------------


def _schrodinger(k1s: np.ndarray, mids: np.ndarray, ends: np.ndarray, c: complex) -> np.ndarray:
    """RK4's step matrices S_k of y' = -iH(r) y (y -> S_k y) for a block of steps, built in place
    on mids and ends, the stacks of H(r_k + h/2) and H(r_k + h), S_k in mids; c = -ih, and k1s =
    H(r_k) is only read: cK1 = cH(r_k), cK2 = cH(r_k + h/2)(I + cK1/2), cK3 = cH(r_k + h/2)(I +
    cK2/2), cK4 = cH(r_k + h)(I + cK3) and S_k = I + (cK1 + 2cK2 + 2cK3 + cK4)/6."""
    a2, a4 = np.multiply(mids, c, out=mids), np.multiply(ends, c, out=ends)
    k2 = np.matmul(a2, k1s)
    k2 *= c / 2
    k2 += a2  # cK2
    prod = np.matmul(a2, k2)
    k3 = np.add(a2, np.multiply(prod, 0.5, out=prod), out=a2)  # cK3, on mids
    k4 = np.add(a4, np.matmul(a4, k3, out=prod), out=a4)  # cK4, on ends
    k3 += k2
    k3 *= 2
    k3 += np.add(k4, np.multiply(k1s, c, out=prod), out=prod)
    k3 /= 6
    k3.reshape(*k3.shape[:-2], -1)[..., :: k3.shape[-1] + 1] += 1.0
    return k3


def _liouville(hr: np.ndarray, m: np.ndarray) -> np.ndarray:
    # every RK4 stage is Hermitian, so [H, m] = Hm - (Hm)*
    hm = hr @ m
    return -1j * (hm - hm.conj().T)


def _march(h_at, grid: TimeGrid, s: float, t: float, nsteps: int, y, rhs=_schrodinger):
    """Yield (r_k, y_k, h_k), k = 0..nsteps, along one march of H(r) from y
    at s, with r_k = s + k (t - s) / nsteps and r_n = t.  h_at maps a time
    to H(r), which may be a stack advanced side by side, and an array of
    times to the stack of their H(r).

    The caller fixes the integrator.  RK4 integrates dy/dt = -iH(r) y for
    states and propagators by its step matrices, y -> S_k y (_schrodinger),
    and density matrices, y -> U y U*, by its stages of dy/dt = rhs(H(r), y)
    (_liouville).  With rhs None, magnus2 advances y -> U y by the midpoint
    exponential (see propagate).  Each block of steps (see _BLOCK_BYTES)
    takes one h_at call on its stage times (RK4: r_k, r_k + h/2 for k2 and
    k3, r_k + h; magnus2: s + (k + 1/2) h, then one stacked _expm_taylor).
    h_k is the step's k1 matrix H(r_k), read-only (RK4), or None (magnus2,
    and k = n).  The step-size guard comes first, and only the current y
    and block are held: the previous block goes before the next is assembled.
    """
    if t < s:
        raise ValueError(f"a march needs s <= t, got s={s}, t={t}")
    h_s = h_at(s)
    hnorm = float(np.max(np.abs(np.linalg.eigvalsh(h_s))))
    if grid.step * hnorm >= 0.5:
        raise StepSizeError(
            f"step {grid.step} violates h * ||H|| = {grid.step * hnorm:.3f} < 0.5"
        )
    h = (t - s) / nsteps
    block = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (3 * h_s.nbytes)))
    r = s
    for start in range(0, nsteps, block):
        ks = np.arange(start, min(start + block, nsteps))
        us = k1s = mids = ends = None  # the previous block goes before the next is assembled
        if rhs is None:
            us = _expm_taylor(h_at(s + (ks + 0.5) * h), -1j * h)
        else:
            nodes = s + ks * h
            k1s, mids, ends = h_at(np.concatenate([nodes, nodes + h / 2, nodes + h])).reshape(3, -1, *h_s.shape)
            if rhs is _schrodinger:
                us = _schrodinger(k1s, mids, ends, -1j * h)
            k1s = k1s.copy()  # a handed-out H(r_k) must not hold the stage stack
            k1s.flags.writeable = False
        for i, k in enumerate(ks.tolist()):
            yield r, y, None if k1s is None else k1s[i]
            if us is not None:
                y = us[i] @ y
            else:
                k1 = rhs(k1s[i], y)
                k2 = rhs(mids[i], y + (h / 2) * k1)
                k3 = rhs(mids[i], y + (h / 2) * k2)
                k4 = rhs(ends[i], y + h * k3)
                y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
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


def _boole_weight(k: int, n: int) -> float:
    """Composite Boole weight of node k of n (a multiple of 4) intervals, without 2h/45."""
    return 7.0 if k in (0, n) else (14.0, 32.0, 12.0, 32.0)[k % 4]


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
    """U(t, s), s <= t, as a unitary CovariantOperator, by the magnus2 march:
    the product of the exponentials of H frozen at the midpoint of each step,
    second order and unitary to rounding (Blanes, Casas, Oteo & Ros, Phys.
    Rep. 470, 151 (2009)), each exponential a Taylor polynomial, no eigh.
    """
    eye = np.eye(model.n_sites, dtype=complex)
    march = _march(partial(_h_at, model, drive), grid, s, t, grid.n_steps(s, t), eye, rhs=None)
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
    nsteps = grid.n_steps(s, t, multiple=2)
    simpson = np.zeros_like(psi)
    trapezoid = np.zeros_like(psi)
    h_at = partial(_h_at, model, drive)
    for k, (r, y, h_r) in enumerate(_march(h_at, grid, s, t, nsteps, psi)):
        if h_r is None:  # the last node
            h_r = h_at(r)
        node = free_propagator(spectral, t - r) @ ((h0.matrix - h_r) @ y)
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


def _drive_commutator(model, drive, state, r, eig):
    """[E . x, zeta(r)] from the eigendecomposition eig = (evals, evecs) of
    H(r): per driven axis, -i times the spectral divided difference
    i[x, zeta(r)] of the driven velocity v(r), the exact derivative of
    f(H(r)) under the drive and the form that makes the integral identity
    hold on the torus."""
    spectral = SpectralData(*eig, model)
    out = np.zeros(eig[1].shape, dtype=complex)
    for axis in drive.driven_axes:
        comm = spectral_position_commutator(spectral, state, _v_at(model, drive, r, axis))
        out += drive.field[axis] * (-1j * comm.matrix)
    return out


def evolve_density_duhamel(
    model: LatticeModel,
    drive: DriveProtocol,
    state: EquilibriumState,
    t: float,
    grid: TimeGrid,
) -> CovariantOperator:
    """The driven state rho(t), symmetrized, from the integral formula
    rho(t) = zeta(t) - i * integral_{s_min}^{t} e^{eta r_-} U(t,r) [E.x, zeta(r)] U(r,t) dr.

    The commutator with zeta(r) = f(H(r)) is taken spectrally at every node,
    as the divided difference of the driven velocity (see _drive_commutator),
    so the integral identity is exact at finite volume, on the torus too, and
    this route cross-validates the Liouville integration to integrator
    accuracy.  zeta(t) itself is built once, from the last node.  One
    forward march of V(r) = U(r, s_min) carries the propagator sandwich.  The
    smooth integrand takes a node at every _NODE_STRIDE-th step, summed by
    the composite Boole rule over a step count rounded up to a multiple of
    4 _NODE_STRIDE (Simpson's gap grows as the stride^4), each term added as
    the march passes it, so memory is O(N^2) whatever the step count.  H(r)
    is assembled and decomposed once per node: the RK4 march hands over its
    step's k1 matrix.
    """
    grid.validate(drive)
    s = grid.s_min
    nsteps = grid.n_steps(s, t, multiple=4 * _NODE_STRIDE)
    acc = np.zeros((model.n_sites, model.n_sites), dtype=complex)
    eye = np.eye(model.n_sites, dtype=complex)
    h_at = partial(_h_at, model, drive)
    nodes = islice(_march(h_at, grid, s, t, nsteps, eye), 0, None, _NODE_STRIDE)
    for k, (r, v, h_r) in enumerate(nodes):
        eig = np.linalg.eigh(h_at(r) if h_r is None else h_r)
        m_r = _drive_commutator(model, drive, state, r, eig)
        weight = _boole_weight(k, nsteps // _NODE_STRIDE) * np.exp(drive.eta * min(r, 0.0))
        acc += weight * (v.conj().T @ m_r @ v)
    acc *= 2.0 * _NODE_STRIDE * (t - s) / nsteps / 45.0
    evals, evecs = eig
    rho = (evecs * state.profile()(evals)) @ evecs.conj().T - 1j * (v @ acc @ v.conj().T)
    return CovariantOperator((rho + rho.conj().T) / 2.0, model)


def density_path(
    model: LatticeModel,
    drive: DriveProtocol,
    rho: np.ndarray,
    t: float,
    grid: TimeGrid,
):
    """Yield (r, rho(r)) along one RK4 march of i d(rho)/dt = [H(t), rho] from
    the matrix rho at grid.s_min to t; the matrices are not symmetrized."""
    grid.validate(drive)
    s = grid.s_min
    march = _march(partial(_h_at, model, drive), grid, s, t, grid.n_steps(s, t), rho, _liouville)
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
    potential H + E(t).X, in one march of the stack [H_vec, H_scal]; only
    meaningful on the open box where X is a genuine position matrix.
    """
    if model.config.boundary != "open":
        raise UnsupportedOperationError("gauge equivalence needs the open box")
    grid.validate(drive)
    s = grid.s_min
    h0 = build_hamiltonian(model).matrix
    xs = [position_matrix(model, axis).matrix for axis in range(model.config.dimension)]

    def h_both(r):
        e = drive.field_at(r)
        h_scal = h0 + sum(e[..., j, None, None] * xs[j] for j in range(len(xs)))
        return np.stack([_h_at(model, drive, r), h_scal], axis=-3)

    # both sides by one RK4 march, so the discrepancy measures the gauge, not the integrator
    both = np.asarray([psi0, psi0], dtype=complex)[..., None]
    _, (psi_vec, psi_scal), _ = _final(_march(h_both, grid, s, t, grid.n_steps(s, t), both))
    g = gauge_operator(model, drive, t).matrix
    return float(np.linalg.norm(g.conj().T @ psi_vec[:, 0] - psi_scal[:, 0]))


@dataclass
class WeightReport:
    weighted_norm: float
    bound: float
    gamma: float


def propagator_weight_check(
    spectral: SpectralData,
    drive: DriveProtocol,
    t: float,
    s: float,
    prop: CovariantOperator,
) -> WeightReport:
    """||(H(t)+gamma) U(t,s) (H(s)+gamma)^{-1}|| against exp(int ||C(r)|| dr),
    with C(r) = sum_j E_j(r) v_j(r) (H(r)+gamma)^{-1} over the driven axes j,
    for the caller's propagator prop = U(t, s); gamma = max(1, 1 - E_0), E_0
    the lowest eigenvalue in the caller's decomposition `spectral` of H."""
    model = spectral.model
    gamma = max(1.0, 1.0 - float(spectral.eigenvalues[0]))
    eye = np.eye(model.n_sites)
    ht, hs = _h_at(model, drive, [t, s]) + gamma * eye
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
            c = np.zeros(eye.shape, dtype=complex)
            for j in drive.driven_axes:
                c += e_r[j] * _v_at(model, drive, r, j)
            total += w * half * float(np.linalg.norm(c @ np.linalg.inv(hr), 2))
    return WeightReport(lhs, float(np.exp(total)), gamma)
