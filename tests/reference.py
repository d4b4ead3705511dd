"""Reference implementations that only the tests call.

The magnetic translations that implement covariance, the Liouvillian
superoperator in the eigenbasis of H, two routes to the structure of the
Kubo formula through it (the velocity-projection identity and the
kernel-projection conductivity), the triple-commutator structure of a
projection, the contour route to f'(H) through (z - H)^{-2}, the
propagators of the two integrators `propagate` does not use (the Riemann
product and RK4), the Duhamel density with the minimal-image drive
commutator, the gauge check with each gauge marched on its own, and a
Richardson check of a smooth function's declared derivatives.  The library
computes none of these; the tests hold its routes against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from kubolab import dynamics
from kubolab.model import (
    ConfigurationError,
    CovariantOperator,
    LatticeModel,
    UnsupportedOperationError,
    _site_indices,
    build_hamiltonian,
    displacement_table,
    position_matrix,
    velocity_operator,
)
from kubolab.funcalc import (
    HSQuadrature,
    SmoothFunction,
    SpectralData,
    almost_analytic_dbar,
    apply_spectral,
    fermi_projection,
    position_commutator,
)
from kubolab.opspace import comm_ddagger, prod_right


# ---------------------------------------------------------------------------
# magnetic translations
# ---------------------------------------------------------------------------


def magnetic_translation(model: LatticeModel, a) -> CovariantOperator:
    """Unitary magnetic translation by the integer lattice vector a.

    Moves site indicators (U chi_b U* = chi_{b+a}) and conjugates the clean
    Hamiltonian into itself; with disorder it intertwines the model with its
    shifted realization.  Torus only.
    """
    if model.config.boundary != "torus":
        raise UnsupportedOperationError("magnetic translations need the torus")
    a = np.asarray(a, dtype=int)
    if a.shape != (model.config.dimension,):
        raise ConfigurationError("translation vector has wrong dimension")
    n = model.n_sites
    coords = model.coords
    sides = model.config.sides
    if model.flux.numerator != 0:
        # multiplier e^{i 2 pi phi a0 x1} must close around the axis-1 seam
        if (model.flux.numerator * int(a[0]) * sides[1]) % model.flux.denominator != 0:
            raise ConfigurationError(
                "magnetic translation incommensurate: phi * a0 * L1 not integer"
            )
        chi = 2.0 * np.pi * model.flux.phi * int(a[0]) * coords[:, 1]
    else:
        chi = np.zeros(n)
    target = _site_indices(sides, coords + a)
    u = np.zeros((n, n), dtype=complex)
    u[target, np.arange(n)] = np.exp(1j * chi[target])
    return CovariantOperator(u, model)


# ---------------------------------------------------------------------------
# Liouvillian superoperator in the eigenbasis
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LiouvillianRep:
    """Superoperator B -> [H, B] represented in the eigenbasis of H, where
    it acts entrywise as multiplication by E_m - E_n."""

    spectral: SpectralData
    degeneracy_tol: float | None = None

    def __post_init__(self):
        e = self.spectral.eigenvalues
        if self.degeneracy_tol is None:
            self.degeneracy_tol = 1e-9 * max(float(e[-1] - e[0]), 1.0)
        self._gaps = e[:, None] - e[None, :]

    def to_eigenbasis(self, b: np.ndarray) -> np.ndarray:
        v = self.spectral.eigenvectors
        return v.conj().T @ b @ v

    def from_eigenbasis(self, bt: np.ndarray) -> np.ndarray:
        v = self.spectral.eigenvectors
        return v @ bt @ v.conj().T

    def apply(self, b: CovariantOperator) -> CovariantOperator:
        bt = self.to_eigenbasis(b.matrix)
        return CovariantOperator(self.from_eigenbasis(self._gaps * bt), b.model)

    def evolve(self, t: float, b: CovariantOperator) -> CovariantOperator:
        """exp(-i t L)(B) = U0(t) B U0(-t)."""
        bt = self.to_eigenbasis(b.matrix)
        return CovariantOperator(
            self.from_eigenbasis(np.exp(-1j * t * self._gaps) * bt), b.model
        )

    def resolvent(self, eta: float, b: CovariantOperator) -> CovariantOperator:
        """(i L + eta)^{-1} B, exact entrywise division."""
        if eta <= 0:
            raise ValueError("eta must be positive")
        bt = self.to_eigenbasis(b.matrix)
        return CovariantOperator(
            self.from_eigenbasis(bt / (1j * self._gaps + eta)), b.model
        )

    def kernel_projection(self, b: CovariantOperator, tol: float | None = None) -> CovariantOperator:
        """Orthogonal projection onto the complement of Ker L: zero out the
        eigenbasis entries with |E_m - E_n| below the degeneracy tolerance."""
        tol = self.degeneracy_tol if tol is None else tol
        if tol <= 0:
            raise ValueError("kernel tolerance must be positive")
        bt = self.to_eigenbasis(b.matrix)
        return CovariantOperator(
            self.from_eigenbasis(np.where(np.abs(self._gaps) < tol, 0.0, bt)), b.model
        )


def velocity_projection_identity_defect(
    spectral: SpectralData, e_f: float, axis: int, profile=None
) -> float:
    """Defect of the commutator exchange between the projected velocity and
    the driven position commutator:

        [P, 2 D_j f(H)] + [H, i[x_j, P]]_dd (.)_R f(H) = 0.

    Exact (to rounding) on the open box; wrap-bounded on the torus."""
    model = spectral.model
    h = apply_spectral(spectral, lambda e: e)
    p = fermi_projection(spectral, e_f)
    f_h = (
        np.eye(model.n_sites, dtype=complex)
        if profile is None
        else apply_spectral(spectral, profile).matrix
    )
    d_j = velocity_operator(model, axis).matrix / 2.0
    m_j = CovariantOperator(1j * position_commutator(p, axis).matrix, model)
    lhs = p.matrix @ (2.0 * d_j @ f_h) - (2.0 * d_j @ f_h) @ p.matrix
    rhs = prod_right(comm_ddagger(h, m_j), CovariantOperator(f_h, model)).matrix
    return float(np.linalg.norm(lhs + rhs, 2))


def sigma_liouvillian_pathway(spectral: SpectralData, e_f: float, eta: float) -> np.ndarray:
    """sigma_jk(eta) = << i (L + i eta)^{-1} L([P, i[x_j, P]]), i[x_k, P] >>,
    the kernel-projection route; agrees with sigma_resolvent for zeta = P."""
    liou = LiouvillianRep(spectral)
    p = fermi_projection(spectral, e_f)
    d = spectral.model.config.dimension
    n = spectral.model.n_sites
    m_ops = [1j * position_commutator(p, axis).matrix for axis in range(d)]
    gaps = liou._gaps
    sigma = np.zeros((d, d), dtype=complex)
    for j in range(d):
        c_j = p.matrix @ m_ops[j] - m_ops[j] @ p.matrix
        ct = liou.to_eigenbasis(c_j)
        at = 1j * gaps * ct / (gaps + 1j * eta)
        for k in range(d):
            mt = liou.to_eigenbasis(m_ops[k])
            sigma[j, k] = np.sum(at.conj() * mt) / n
    return sigma


def triple_commutator_check(p: CovariantOperator, axis: int | None = None) -> float:
    """max_axis || [P, [P, [x_k, P]]] - [x_k, P] ||; identically zero for a
    projection against exact position, wrap-bounded on the torus."""
    axes = range(p.model.config.dimension) if axis is None else [axis]
    worst = 0.0
    pm = p.matrix
    for k in axes:
        m = position_commutator(p, k).matrix
        inner = pm @ m - m @ pm
        outer = pm @ inner - inner @ pm
        worst = max(worst, float(np.linalg.norm(outer - m, 2)))
    return worst


# ---------------------------------------------------------------------------
# contour derivative
# ---------------------------------------------------------------------------


def hs_apply_derivative(op: CovariantOperator, f: SmoothFunction, quad: HSQuadrature) -> CovariantOperator:
    """Contour evaluation of f'(H): funcalc.hs_apply's node sum with each
    resolvent squared, (z - H)^{-2}."""
    h = op.matrix
    xs, ys, area = quad.nodes()
    eye = np.eye(h.shape[0], dtype=complex)
    acc = np.zeros_like(eye)
    for y in ys:
        weights = -(1.0 / (2.0 * np.pi)) * almost_analytic_dbar(f, quad.order_m, xs, y) * area
        for xval, w in zip(xs, weights):
            if w == 0.0:
                continue
            res = np.linalg.solve((xval + 1j * y) * eye - h, eye)
            acc += w * (res @ res)
    # real f: the lower half plane contributes the conjugate transpose
    return CovariantOperator(acc + acc.conj().T, op.model)


# ---------------------------------------------------------------------------
# propagators by the other integrators
# ---------------------------------------------------------------------------


def riemann_product(model, drive, t, s, grid) -> np.ndarray:
    """U(t, s), s <= t, as the product of exact exponentials of H(r_k) frozen
    at the left endpoint r_k = s + k h of each of the grid's steps: first
    order, unitary to rounding."""
    n = grid.n_steps(s, t)
    h = (t - s) / n
    u = np.eye(model.n_sites, dtype=complex)
    for k in range(n):
        eig = np.linalg.eigh(dynamics._h_at(model, drive, s + k * h))
        u = dynamics._expm_hermitian(eig, -1j * h) @ u
    return u


def rk4_propagator(model, drive, t, s, grid) -> np.ndarray:
    """U(t, s), s <= t, by the library's RK4 march of the identity: fourth
    order, unitary only to its truncation error."""
    eye = np.eye(model.n_sites, dtype=complex)
    march = dynamics._march(partial(dynamics._h_at, model, drive), grid, s, t, grid.n_steps(s, t), eye)
    return dynamics._final(march)[1]


# ---------------------------------------------------------------------------
# Duhamel density, minimal-image commutator
# ---------------------------------------------------------------------------


def evolve_density_duhamel_minimal_image(model, drive, state, t, grid) -> CovariantOperator:
    """dynamics.evolve_density_duhamel, streamed the same way, with
    [E . x, zeta(r)] realized as the minimal-image displacement commutator
    sum_a E_a (x_a(m) - x_a(n)) zeta(r)_mn instead of the divided difference.
    The integral identity then holds only up to wrap terms set by the decay
    of zeta, which is what the linear-response comparison with the Streda
    form on the torus measures."""
    grid.validate(drive)
    s = grid.s_min
    nsteps = grid.n_steps(s, t, 4 * dynamics._NODE_STRIDE)
    tables = [displacement_table(model, axis) for axis in range(model.config.dimension)]
    acc = np.zeros((model.n_sites, model.n_sites), dtype=complex)
    eye = np.eye(model.n_sites, dtype=complex)
    h_at = partial(dynamics._h_at, model, drive)
    march = dynamics._march(h_at, grid, s, t, nsteps, eye)
    for k, (r, v, h_r) in enumerate(islice(march, 0, None, dynamics._NODE_STRIDE)):
        evals, evecs = np.linalg.eigh(h_at(r) if h_r is None else h_r)
        zeta = (evecs * state.profile()(evals)) @ evecs.conj().T
        m_r = np.zeros(evecs.shape, dtype=complex)
        for axis in drive.driven_axes:
            m_r += drive.field[axis] * (tables[axis] * zeta)
        weight = dynamics._boole_weight(k, nsteps // dynamics._NODE_STRIDE) * np.exp(drive.eta * min(r, 0.0))
        acc += weight * (v.conj().T @ m_r @ v)
    acc *= 2.0 * dynamics._NODE_STRIDE * (t - s) / nsteps / 45.0
    rho = zeta - 1j * (v @ acc @ v.conj().T)
    return CovariantOperator((rho + rho.conj().T) / 2.0, model)


# ---------------------------------------------------------------------------
# gauge check, one march per gauge
# ---------------------------------------------------------------------------


def gauge_equivalence_two_marches(model, drive, psi0, t, grid) -> float:
    """dynamics.gauge_equivalence_check with psi_vec and psi_scal each
    marched on its own: one RK4 march of the bond-phase H(t) and one of the
    scalar gauge H + E(t).X, from psi0 at grid.s_min to t."""
    psi0 = np.asarray(psi0, dtype=complex)
    s = grid.s_min
    nsteps = grid.n_steps(s, t)
    h0 = build_hamiltonian(model).matrix
    xs = [position_matrix(model, axis).matrix for axis in range(model.config.dimension)]

    def h_scal(r):
        e = drive.field_at(r)
        return h0 + sum(e[..., j, None, None] * xs[j] for j in range(len(xs)))

    h_vec = partial(dynamics._h_at, model, drive)
    _, psi_vec, _ = dynamics._final(dynamics._march(h_vec, grid, s, t, nsteps, psi0))
    _, psi_scal, _ = dynamics._final(dynamics._march(h_scal, grid, s, t, nsteps, psi0))
    g = dynamics.gauge_operator(model, drive, t).matrix
    return float(np.linalg.norm(g.conj().T @ psi_vec - psi_scal))


# ---------------------------------------------------------------------------
# derivative check
# ---------------------------------------------------------------------------


def verify_derivatives(f: SmoothFunction, points, orders=None, rtol: float = 1e-6) -> float:
    """Check declared derivatives against central finite differences.

    Returns the worst relative error over the sampled points and orders;
    raises if it exceeds rtol.
    """
    orders = orders if orders is not None else range(1, min(f.m_max, 4) + 1)
    worst = 0.0
    for r in orders:
        for x in points:
            g = lambda u: f.deriv(r - 1, u)
            stencil = _richardson_difference(g, x, 1e-2)
            claimed = f.deriv(r, x)
            scale = max(abs(claimed), abs(stencil), 1e-8)
            worst = max(worst, abs(claimed - stencil) / scale)
    if worst > rtol:
        raise ValueError(f"derivative check failed: relative error {worst:.3e}")
    return worst


def _richardson_difference(g, x, h):
    d1 = (g(x + h) - g(x - h)) / (2 * h)
    d2 = (g(x + h / 2) - g(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0
