"""Currents and the conductivity tensor by independent routes.

Routes: the closed-form Liouvillian-resolvent expression, time quadrature
of the current-current kernel, and a central finite difference of the net
current driven by the full dynamics.  The zero-temperature limit is the
commutator (Streda) form, validated against a plaquette Chern-number
oracle on the magnetic Brillouin zone.

Every route except the finite difference reads one `SpectralData` of the
realization's H (the Streda form reads only its Fermi projection), so a
realization is diagonalized once however many routes and etas use it.
Each realization is an independent pure computation; callers may
parallelize over realizations freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import CovariantOperator, LatticeModel, velocity_operator
from .funcalc import (
    EquilibriumState,
    SpectralData,
    apply_spectral,
    fermi_projection,
    position_commutator,
    spectral_position_commutator,
)
from .dynamics import (
    DriveProtocol,
    TimeGrid,
    evolve_density_duhamel,
    evolve_density_ode,
    hamiltonian_at,
    velocity_at,
)
from .opspace import comm_ddagger, prod_right


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
        if self.degeneracy_tol is None:
            self.degeneracy_tol = 1e-9 * max(self.spectral.width, 1.0)
        e = self.spectral.eigenvalues
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


# ---------------------------------------------------------------------------
# currents
# ---------------------------------------------------------------------------


def _realness_guard(values: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    resid = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if resid > tol:
        raise np.linalg.LinAlgError(f"imaginary residue {resid:.3e} exceeds {tol:.0e}")
    return values.real


def net_current(
    model: LatticeModel,
    drive: DriveProtocol,
    state: EquilibriumState,
    grid: TimeGrid,
    route: str = "ode_liouville",
    kernel: str = "gauge_derivative",
) -> np.ndarray:
    """Net current J_j = T(v_j(0) (rho(0) - zeta(0))), v(0) the velocity of
    the driven Hamiltonian at t = 0.

    The difference form subtracts the instantaneous equilibrium current of
    H(0); on the finite torus the drive phases act as a boundary twist, so
    this form (rather than subtracting the undriven T(v_j zeta)) is the one
    whose E-derivative matches the response formulas.  The two agree in the
    infinite-volume limit, where the equilibrium current vanishes at every
    twist.
    """
    d = model.config.dimension
    if route == "ode_liouville":
        rho = evolve_density_ode(model, drive, state, 0.0, grid).rho
    elif route == "duhamel_integral":
        rho = evolve_density_duhamel(model, drive, state, 0.0, grid, kernel=kernel).rho
    else:
        raise ValueError(f"unknown dynamics route {route!r}")
    spectral0 = SpectralData.from_operator(hamiltonian_at(model, drive, 0.0))
    zeta0 = state.build(spectral0)
    out = np.zeros(d, dtype=complex)
    for j in range(d):
        v0 = velocity_at(model, drive, 0.0, j).matrix
        out[j] = np.sum(v0 * (rho.matrix - zeta0.matrix).T) / model.n_sites
    return _realness_guard(out)


def equilibrium_current(spectral: SpectralData, state_or_profile) -> np.ndarray:
    """T(D_j f(H)) per axis, D_j = v_j / 2; vanishes for clean models and
    in ensemble mean for disordered ones."""
    model = spectral.model
    if isinstance(state_or_profile, EquilibriumState):
        zeta = state_or_profile.build(spectral).matrix
    else:
        zeta = apply_spectral(spectral, state_or_profile).matrix
    d = model.config.dimension
    out = np.zeros(d, dtype=complex)
    for j in range(d):
        dj = velocity_operator(model, j).matrix / 2.0
        out[j] = np.sum(dj * zeta.T) / model.n_sites
    return _realness_guard(out, tol=1e-8)


# ---------------------------------------------------------------------------
# conductivity: three routes
# ---------------------------------------------------------------------------


def _response_ingredients(spectral: SpectralData, state: EquilibriumState, kernel: str = "minimal_image"):
    model = spectral.model
    liou = LiouvillianRep(spectral)
    zeta = state.build(spectral)
    d = model.config.dimension
    d_ops = [
        CovariantOperator(velocity_operator(model, j).matrix / 2.0, model, hermitian=True)
        for j in range(d)
    ]
    if kernel == "minimal_image":
        m_ops = [
            CovariantOperator(1j * position_commutator(zeta, k).matrix, model)
            for k in range(d)
        ]
    elif kernel == "gauge_derivative":
        m_ops = [spectral_position_commutator(spectral, state, k) for k in range(d)]
    else:
        raise ValueError(f"unknown commutator kernel {kernel!r}")
    return liou, d_ops, m_ops


def sigma_resolvent(
    spectral: SpectralData, state: EquilibriumState, eta: float, kernel: str = "minimal_image"
) -> np.ndarray:
    """sigma_jk(eta) = -T{ 2 D_j (i L + eta)^{-1} (i [x_k, zeta]) }.

    `kernel` picks the finite-volume realization of i[x_k, zeta]: the
    minimal-image commutator (default), or the spectral divided difference
    that the driven dynamics differentiates into; the two agree up to wrap
    terms set by the decay of zeta.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    liou, d_ops, m_ops = _response_ingredients(spectral, state, kernel)
    d = len(d_ops)
    n = spectral.model.n_sites
    sigma = np.zeros((d, d), dtype=complex)
    for k in range(d):
        r = liou.resolvent(eta, m_ops[k]).matrix
        for j in range(d):
            sigma[j, k] = -2.0 * np.sum(d_ops[j].matrix * r.T) / n
    return sigma


def sigma_kubo_integral(
    spectral: SpectralData,
    state: EquilibriumState,
    eta: float,
    s_min: float | None = None,
    panel_width: float = 0.5,
    panel_order: int = 10,
    kernel: str = "minimal_image",
) -> np.ndarray:
    """sigma_jk(eta) = -T{ 2 int_{-inf}^0 e^{eta r} D_j U0(-r)(i [x_k, zeta]) dr }
    by composite Gauss-Legendre panels on [s_min, 0], weight untransformed.

    In the eigenbasis of H, U0(-r) multiplies entry (m, n) by
    e^{i r (E_m - E_n)} = u_m conj(u_n), u = e^{i r E}.  The weighted node sum
    is then one kernel K = sum_i w_i e^{eta r_i} u(r_i) u(r_i)^*, built as an
    (N x p)(p x N) product per panel of p nodes, and
    sigma_jk = -(2 / N) sum_mn (D~_j^T o K o M~_k)_mn.  Cost
    O(nodes N + panels p N^2), not O(nodes N^3); memory O(N^2 + p N)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    liou, d_ops, m_ops = _response_ingredients(spectral, state, kernel)
    n = spectral.model.n_sites
    if s_min is None:
        s_min = float(np.log(1e-12) / eta)
    nodes, weights = leggauss(panel_order)
    n_panels = max(1, int(np.ceil(-s_min / panel_width)))
    edges = np.linspace(s_min, 0.0, n_panels + 1)
    energies = spectral.eigenvalues
    kern = np.zeros((n, n), dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        r = mid + half * nodes
        u = np.exp(1j * np.outer(energies, r))
        kern += (u * (weights * half * np.exp(eta * r))) @ u.conj().T
    d_kern = [liou.to_eigenbasis(op.matrix).T * kern for op in d_ops]
    m_tilde = [liou.to_eigenbasis(op.matrix) for op in m_ops]
    return np.array([[-2.0 * np.sum(dk * mt) / n for mt in m_tilde] for dk in d_kern])


def sigma_finite_difference(
    model: LatticeModel,
    state: EquilibriumState,
    eta: float,
    grid: TimeGrid,
    delta_e: float = 1e-3,
    route: str = "ode_liouville",
) -> np.ndarray:
    """Central difference of the net current over +- delta_e along each axis;
    the full dynamics runs per evaluation."""
    d = model.config.dimension
    sigma = np.zeros((d, d))
    for k in range(d):
        e_plus = np.zeros(d)
        e_plus[k] = delta_e
        j_plus = net_current(model, DriveProtocol(eta, tuple(e_plus)), state, grid, route)
        j_minus = net_current(model, DriveProtocol(eta, tuple(-e_plus)), state, grid, route)
        sigma[:, k] = (j_plus - j_minus) / (2.0 * delta_e)
    return sigma.astype(complex)


# ---------------------------------------------------------------------------
# zero-temperature limit: commutator form and its structure
# ---------------------------------------------------------------------------


def sigma_streda(p: CovariantOperator) -> np.ndarray:
    """sigma_jk = -i T{ P [[x_j, P], [x_k, P]] } for the Fermi projection P;
    antisymmetric with exactly zero diagonal."""
    d = p.model.config.dimension
    n = p.model.n_sites
    m_ops = [position_commutator(p, axis).matrix for axis in range(d)]
    pm_ops = [p.matrix @ m for m in m_ops]
    # T(P [M_j, M_k]) = tr(P M_j M_k) - tr(P M_k M_j); each trace is O(N^2)
    traces = np.array([[np.sum(pm_ops[j] * m_ops[k].T) for k in range(d)] for j in range(d)])
    return -1j * (traces - traces.T) / n


def hall_scaled(sigma: np.ndarray) -> float:
    """Dimensionless Hall number 2 pi sigma_01 (= -2 pi i T{P[[x0,P],[x1,P]]});
    near an integer for gapped clean commensurate flux."""
    return float(2.0 * np.pi * sigma[0, 1].real)


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


# ---------------------------------------------------------------------------
# Chern-number oracle (plaquette field strength on the magnetic BZ)
# ---------------------------------------------------------------------------


def hofstadter_bloch(p: int, q: int, k1: float, k2: float) -> np.ndarray:
    """q x q Bloch Hamiltonian of the clean flux-p/q lattice in Landau
    gauge, magnetic unit cell of q sites along axis 0."""
    phi = p / q
    h = np.zeros((q, q), dtype=complex)
    for j in range(q):
        h[j, j] += -2.0 * np.cos(k2 - 2.0 * np.pi * phi * j)
        h[j, (j + 1) % q] += -np.exp(1j * k1)
        h[j, (j - 1) % q] += -np.exp(-1j * k1)
    return h


def chern_number_fhs(p: int, q: int, n_occ: int, nk1: int = 18, nk2: int = 18) -> float:
    """Plaquette field-strength Chern number of the lowest n_occ bands on
    the magnetic Brillouin zone [0, 2 pi / q) x [0, 2 pi).

    The Bloch matrix satisfies H(k1 + 2 pi / q) = W H(k1) W* with the
    diagonal gauge W = diag(e^{-2 pi i j / q}); the seam frames are glued
    with W so the plaquette sum closes on the torus.
    """
    k1s = np.linspace(0.0, 2.0 * np.pi / q, nk1, endpoint=False)
    k2s = np.linspace(0.0, 2.0 * np.pi, nk2, endpoint=False)
    frames = np.zeros((nk1 + 1, nk2, q, n_occ), dtype=complex)
    for i1, k1 in enumerate(k1s):
        for i2, k2 in enumerate(k2s):
            _, vec = np.linalg.eigh(hofstadter_bloch(p, q, k1, k2))
            frames[i1, i2] = vec[:, :n_occ]
    w = np.exp(-2j * np.pi * np.arange(q) / q)
    frames[nk1] = w[None, :, None] * frames[0]

    def link(a, b):
        m = frames[a].conj().T @ frames[b]
        det = np.linalg.det(m)
        return det / abs(det)

    total = 0.0
    for i1 in range(nk1):
        for i2 in range(nk2):
            a = (i1, i2)
            b = (i1 + 1, i2)
            c = (i1 + 1, (i2 + 1) % nk2)
            d = (i1, (i2 + 1) % nk2)
            total += np.angle(link(a, b) * link(b, c) * link(c, d) * link(d, a))
    return total / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# report and sweep
# ---------------------------------------------------------------------------


@dataclass
class ResponseReport:
    eta: float
    sigma_resolvent: np.ndarray
    sigma_streda: np.ndarray | None = None
    sigma_kubo: np.ndarray | None = None
    sigma_fd: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    n_realizations: int = 1
    stderr: float | None = None

    def __post_init__(self):
        for name in ("sigma_resolvent", "sigma_kubo", "sigma_fd"):
            mat = getattr(self, name)
            if mat is not None:
                resid = float(np.max(np.abs(np.asarray(mat).imag)))
                self.diagnostics.setdefault("imag_residues", {})[name] = resid
        if self.sigma_streda is not None:
            s = np.asarray(self.sigma_streda)
            self.diagnostics["streda_antisymmetry_defect"] = float(
                np.max(np.abs(s + s.T))
            )


def eta_sweep(
    spectral: SpectralData,
    state: EquilibriumState,
    etas,
    grid_for=None,
    delta_e: float = 1e-3,
) -> list[ResponseReport]:
    """Resolvent and Kubo conductivity of one realization along a strictly
    descending eta list, with its Streda value (computed once) attached for
    the gap comparison.

    With `grid_for` (eta -> TimeGrid) the finite difference of the real
    dynamics runs too, and its gap to the gauge-derivative resolvent, the
    response formula on the same finite-volume kernel, is recorded as the
    `fd_vs_resolvent` diagnostic."""
    etas = list(etas)
    if any(e <= 0 for e in etas) or any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("etas must be positive and strictly descending")
    streda = sigma_streda(fermi_projection(spectral, state.e_f))
    out = []
    for eta in etas:
        rep = ResponseReport(
            eta=eta,
            sigma_resolvent=sigma_resolvent(spectral, state, eta),
            sigma_streda=streda,
            sigma_kubo=sigma_kubo_integral(spectral, state, eta),
        )
        if grid_for is not None:
            rep.sigma_fd = sigma_finite_difference(
                spectral.model, state, eta, grid_for(eta), delta_e=delta_e
            )
            fd_ref = sigma_resolvent(spectral, state, eta, kernel="gauge_derivative")
            rep.diagnostics["fd_vs_resolvent"] = float(np.max(np.abs(rep.sigma_fd - fd_ref)))
        rep.diagnostics["gap_to_streda"] = float(
            np.max(np.abs(rep.sigma_resolvent - streda))
        )
        out.append(rep)
    return out
