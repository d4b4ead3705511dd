"""Reference implementations that only the tests call.

The Liouvillian superoperator in the eigenbasis of H, two routes to the
structure of the Kubo formula through it (the velocity-projection identity
and the kernel-projection conductivity), and a Richardson check of a smooth
function's declared derivatives.  The library computes none of these; the
tests hold its routes against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kubolab.model import CovariantOperator, velocity_operator
from kubolab.funcalc import (
    SmoothFunction,
    SpectralData,
    apply_spectral,
    fermi_projection,
    position_commutator,
)
from kubolab.opspace import comm_ddagger, prod_right


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
