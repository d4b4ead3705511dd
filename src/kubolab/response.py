"""Currents and the conductivity tensor by independent routes.

Routes: the closed-form Liouvillian-resolvent expression, time quadrature
of the current-current kernel, and a central finite difference of the net
current driven by the full dynamics.  The zero-temperature limit is the
commutator (Streda) form, validated against a plaquette Chern-number
oracle on the magnetic Brillouin zone.

The resolvent and Kubo routes are one contraction over a `ResponseBasis`,
the realization's D_j and i[x_k, zeta] in the eigenbasis of its H, with
two kernels of E_m - E_n: 1 / (eta + i w) and the quadrature of
int e^{eta r} e^{i w r} dr.  The basis is built once per realization from
its `SpectralData` (the Streda form reads only the Fermi projection), so a
realization is diagonalized once and its O(N^3) products are taken once,
however many etas use it.  Each realization is an independent pure
computation; callers may parallelize over realizations freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CovariantOperator, velocity_operator
from .funcalc import (
    EquilibriumState,
    SpectralData,
    divided_difference_kernel,
    fermi_projection,
    position_commutator,
)
from .dynamics import (
    DriveProtocol,
    TimeGrid,
    evolve_density_ode,
    gauss_legendre,
    hamiltonian_at,
    velocity_at,
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
    rho: CovariantOperator, drive: DriveProtocol, state: EquilibriumState
) -> np.ndarray:
    """Net current J_j = T(v_j(0) (rho - zeta(0))) of the driven state
    rho = rho(0), which the caller evolves by either density route; v(0) is
    the velocity of the driven Hamiltonian at t = 0 and zeta(0) the state
    built on H(0), the one decomposition made here.

    The difference form subtracts the instantaneous equilibrium current of
    H(0); on the finite torus the drive phases act as a boundary twist, so
    this form (rather than subtracting the undriven T(v_j zeta)) is the one
    whose E-derivative matches the response formulas.  The two agree in the
    infinite-volume limit, where the equilibrium current vanishes at every
    twist.
    """
    model = rho.model
    d = model.config.dimension
    zeta0 = state.build(SpectralData.from_operator(hamiltonian_at(model, drive, 0.0)))
    out = np.zeros(d, dtype=complex)
    for j in range(d):
        v0 = velocity_at(model, drive, 0.0, j).matrix
        out[j] = np.sum(v0 * (rho.matrix - zeta0.matrix).T) / model.n_sites
    return _realness_guard(out)


def equilibrium_current(spectral: SpectralData, state: EquilibriumState) -> np.ndarray:
    """T(D_j zeta) per axis, D_j = v_j / 2, zeta the state built on
    `spectral`; vanishes for clean models and in ensemble mean for
    disordered ones."""
    model = spectral.model
    zeta = state.build(spectral).matrix
    d = model.config.dimension
    out = np.zeros(d, dtype=complex)
    for j in range(d):
        dj = velocity_operator(model, j).matrix / 2.0
        out[j] = np.sum(dj * zeta.T) / model.n_sites
    return _realness_guard(out, tol=1e-8)


# ---------------------------------------------------------------------------
# conductivity: three routes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ResponseBasis:
    """The eta-independent half of the Kubo formula for one realization, in
    the eigenbasis of its H: the energies E, D~_j^T (D_j = v_j / 2) and
    M~_k = (i [x_k, zeta])~.

    There L acts entrywise as multiplication by E_m - E_n, so every route is
    one contraction sigma_jk = -(2 / N) sum_mn (D~_j^T o K o M~_k)_mn and only
    the kernel K(E_m - E_n) differs between routes.  `kernel` picks the
    finite-volume realization of i[x_k, zeta]: the minimal-image commutator
    (default), or the spectral divided difference that the driven dynamics
    differentiates into; the two agree up to wrap terms set by the decay of
    zeta."""

    energies: np.ndarray
    d_tilde_t: list
    m_tilde: list

    @classmethod
    def of(cls, spectral: SpectralData, state: EquilibriumState, kernel: str = "minimal_image"):
        model = spectral.model
        v, vh = spectral.eigenvectors, spectral.eigenvectors.conj().T
        e = spectral.eigenvalues
        axes = range(model.config.dimension)
        v_tilde = [vh @ velocity_operator(model, j).matrix @ v for j in axes]
        if kernel == "minimal_image":
            zeta = state.build(spectral)
            m_tilde = [vh @ (1j * position_commutator(zeta, k).matrix) @ v for k in axes]
        elif kernel == "gauge_derivative":
            f, fp = state.profile()(e), state.profile_derivative()(e)
            m_tilde = [divided_difference_kernel(e, f, fp, vt) for vt in v_tilde]
        else:
            raise ValueError(f"unknown commutator kernel {kernel!r}")
        return cls(e, [(vt / 2.0).T for vt in v_tilde], m_tilde)

    def contract(self, kern: np.ndarray) -> np.ndarray:
        """-(2 / N) sum_mn (D~_j^T o K o M~_k)_mn for every axis pair (j, k)."""
        n = len(self.energies)
        return np.array(
            [[-2.0 * np.sum(dt * kern * mt) / n for mt in self.m_tilde] for dt in self.d_tilde_t]
        )


def _require_rate(eta: float) -> None:
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")


def sigma_resolvent(basis: ResponseBasis, eta: float) -> np.ndarray:
    """sigma_jk(eta) = -T{ 2 D_j (i L + eta)^{-1} (i [x_k, zeta]) }, the basis
    contracted with the kernel 1 / (eta + i (E_m - E_n))."""
    _require_rate(eta)
    e = basis.energies
    return basis.contract(1.0 / (1j * (e[:, None] - e[None, :]) + eta))


def sigma_kubo_integral(
    basis: ResponseBasis,
    eta: float,
    s_min: float | None = None,
    panel_width: float = 0.5,
    panel_order: int = 10,
) -> np.ndarray:
    """sigma_jk(eta) = -T{ 2 int_{-inf}^0 e^{eta r} D_j U0(-r)(i [x_k, zeta]) dr }
    by composite Gauss-Legendre panels on [s_min, 0], weight untransformed.

    In the eigenbasis of H, U0(-r) multiplies entry (m, n) by
    e^{i r w}, w = E_m - E_n.  The P panels share the half-width h, and node
    i of panel q sits at r = c_q + h x_i, so every term factorizes as
    e^{z r} = e^{z c_q} e^{z h x_i}, z = eta + i w, and the weighted node sum
    is one entrywise product K = B o G of
      - the in-panel factor B = A diag(w_i h e^{eta h x_i}) A^*,
        A_mi = e^{i h x_i E_m}, one (N x p)(p x N) product; and
      - the panel factor G = sum_q e^{z c_q}, a geometric series over the
        centres c_q = s_min + (2q + 1) h, summed in closed form:
            G = (1 - e^{z s_min}) / (2 sinh(z h)),
        with 1 - e^{eta s_min} u_m u_n^* over
        2 sinh(eta h) Re(v_m v_n^*) + 2i cosh(eta h) Im(v_m v_n^*),
        u = e^{i s_min E}, v = e^{i h E}; written so, the denominator does
        not cancel at w = 0 and is nonzero for every eta > 0,
    contracted with the basis.  Cost O(N (p + 1)) exponentials and O(N^2 p)
    multiply-adds, whatever the panel count P; memory O(N^2)."""
    _require_rate(eta)
    if s_min is None:
        s_min = float(np.log(1e-12) / eta)
    if not s_min < 0:
        raise ValueError("s_min must be negative")
    if not panel_width > 0:
        raise ValueError("panel_width must be positive")
    if panel_order < 1:
        raise ValueError("panel_order must be at least 1")
    nodes, weights = gauss_legendre(panel_order)
    half = -s_min / (2.0 * max(1, int(np.ceil(-s_min / panel_width))))
    energies = basis.energies
    u, v = np.exp(1j * s_min * energies), np.exp(1j * half * energies)
    # G, then B multiplied into it; each step works in place or drops its
    # operand, so no more N x N arrays are alive than the contraction makes
    kern = 1.0 - np.exp(eta * s_min) * np.outer(u, u.conj())
    den = np.outer(v, v.conj())
    den.real *= 2.0 * np.sinh(eta * half)
    den.imag *= 2.0 * np.cosh(eta * half)
    kern /= den
    del den
    a = np.exp(1j * np.outer(energies, half * nodes))
    kern *= (a * (weights * half * np.exp(eta * half * nodes))) @ a.conj().T
    return basis.contract(kern)


def sigma_finite_difference(
    spectral: SpectralData,
    state: EquilibriumState,
    eta: float,
    grid: TimeGrid,
    delta_e: float = 1e-3,
) -> np.ndarray:
    """Central difference of the net current over +- delta_e along each axis;
    the Liouville dynamics runs per evaluation, from zeta built on `spectral`,
    so each of the 2d evaluations decomposes only H(0) (see net_current)."""
    def current(field):
        drive = DriveProtocol(eta, tuple(field))
        return net_current(evolve_density_ode(spectral, drive, state, 0.0, grid), drive, state)

    d = spectral.model.config.dimension
    sigma = np.zeros((d, d))
    for k in range(d):
        e_plus = np.zeros(d)
        e_plus[k] = delta_e
        sigma[:, k] = (current(e_plus) - current(-e_plus)) / (2.0 * delta_e)
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
    # T(P [M_j, M_k]) = tr(P M_j M_k) - tr(P M_k M_j), each O(N^2).  T_kj is not
    # conj(T_jk): M_j is not exactly anti-Hermitian at half-box separations.
    traces = np.zeros((d, d), dtype=complex)
    for j in range(d):
        pm = p.matrix @ m_ops[j]
        traces[j] = [np.sum(pm * m.T) for m in m_ops]
        del pm  # one P M_j alive at a time
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
# sweep
# ---------------------------------------------------------------------------


def eta_sweep(
    spectral: SpectralData,
    state: EquilibriumState,
    etas,
    grid_for=None,
    delta_e: float = 1e-3,
):
    """(streda, resolvent, kubo, fd, fd_gap) of one realization along a
    strictly descending eta list: the d x d Streda tensor, once, and one
    d x d resolvent and Kubo array per eta, from one response basis.

    With `grid_for` (eta -> TimeGrid), `fd` holds the finite difference of
    the real dynamics per eta, and `fd_gap` its max gap to the
    gauge-derivative resolvent, the response formula on the same
    finite-volume kernel; without it both are None."""
    etas = list(etas)
    for eta in etas:
        _require_rate(eta)
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("etas must be strictly descending")
    streda = sigma_streda(fermi_projection(spectral, state.e_f))
    basis = ResponseBasis.of(spectral, state)
    resolvent = np.array([sigma_resolvent(basis, eta) for eta in etas])
    kubo = np.array([sigma_kubo_integral(basis, eta) for eta in etas])
    if grid_for is None:
        return streda, resolvent, kubo, None, None
    fd_basis = ResponseBasis.of(spectral, state, "gauge_derivative")
    fd = np.array([sigma_finite_difference(spectral, state, e, grid_for(e), delta_e) for e in etas])
    fd_gap = [float(np.max(np.abs(f - sigma_resolvent(fd_basis, eta)))) for f, eta in zip(fd, etas)]
    return streda, resolvent, kubo, fd, fd_gap
