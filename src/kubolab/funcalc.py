"""Functions of Hermitian lattice operators, two ways.

Exact spectral calculus (the single source of truth for f(H)) and an
independent contour representation through an almost-analytic extension of
f, used to validate the machinery rather than for production.  Also the
Fermi states, position commutators, and the localization / resolvent-decay
diagnostics.

Pure functions throughout; the contour accumulation sums in a fixed node
order so results are independent of scheduling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import CovariantOperator, LatticeModel, displacement_table


class DegenerateFermiLevelError(ValueError):
    """Fermi level sits on an eigenvalue; the projection is ambiguous."""


class CoverageError(ValueError):
    """Contour grid rectangle does not cover the spectrum."""


class QuadratureAccuracyError(RuntimeError):
    """1D quadrature failed to converge; carries the achieved estimate."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SpectralData:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    covariant operator."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    model: LatticeModel

    @classmethod
    def from_operator(cls, op: CovariantOperator) -> "SpectralData":
        # eigh reads one triangle, so a non-Hermitian op would give a wrong spectrum
        scale, defect = np.linalg.norm(op.matrix), np.linalg.norm(op.matrix - op.matrix.conj().T)
        if scale > 0 and defect > 1e-12 * scale:
            raise ValueError(f"eigh needs a Hermitian operator: ||A - A*|| = {defect:.3e} > 1e-12 ||A||")
        evals, evecs = np.linalg.eigh(op.matrix)
        return cls(evals, evecs, op.model)


def apply_spectral(spectral: SpectralData, f) -> CovariantOperator:
    """V diag(f(E)) V* for a callable or SmoothFunction f."""
    fn = f.value if isinstance(f, SmoothFunction) else f
    fe = np.asarray(fn(spectral.eigenvalues), dtype=complex)
    v = spectral.eigenvectors
    return CovariantOperator((v * fe) @ v.conj().T, spectral.model)


def fermi_projection(spectral: SpectralData, e_f: float) -> CovariantOperator:
    """Spectral projection W W* onto energies <= E_F, W the occupied eigenvectors.

    E_F within 1e-9 of an eigenvalue is an error (reporting the enclosing
    gap edges) rather than a convention: silently half-filling a degenerate
    level would corrupt every quantization check downstream.
    """
    occupation = _occupation(e_f)
    evals = spectral.eigenvalues
    gap_to_level = np.min(np.abs(evals - e_f))
    if gap_to_level < 1e-9:
        below = evals[evals < e_f - 1e-9]
        above = evals[evals > e_f + 1e-9]
        lo = below[-1] if below.size else -np.inf
        hi = above[0] if above.size else np.inf
        raise DegenerateFermiLevelError(
            f"E_F={e_f} is within 1e-9 of an eigenvalue; nearest clean gap "
            f"edges are ({lo}, {hi})"
        )
    w = spectral.eigenvectors[:, occupation(evals) == 1.0]
    return CovariantOperator(w @ w.conj().T, spectral.model)


def _occupation(e_f: float, beta: float | None = None):
    """The occupation profile E -> f(E) that every Fermi state is built
    from: the step E <= E_F for beta None, else 1 / (1 + e^{beta (E - E_F)}).
    A non-finite E_F is refused: it would fill every level or none."""
    if not np.isfinite(e_f):
        raise ValueError(f"e_f must be finite, got {e_f!r}")
    if beta is None:
        return lambda e: (np.asarray(e) <= e_f).astype(float)
    # e^x overflows to inf past x ~ 709, where 1 / (1 + inf) = 0 is the exact limit
    return np.errstate(over="ignore")(lambda e: 1.0 / (1.0 + np.exp(beta * (np.asarray(e) - e_f))))


def fermi_dirac(spectral: SpectralData, beta: float, e_f: float) -> CovariantOperator:
    """f(H) with f(E) = 1 / (1 + e^{beta (E - E_F)}), finite beta > 0."""
    if not (0 < beta < np.inf):
        raise ValueError("beta must be finite and positive")
    return apply_spectral(spectral, _occupation(e_f, beta))


@dataclass(frozen=True)
class EquilibriumState:
    """Initial equilibrium profile: zero-T projection or finite-beta state,
    checked at construction so that `build` and `profile` read one state."""

    kind: str  # "projection" | "fermi_dirac"
    e_f: float
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("projection", "fermi_dirac"):
            raise ValueError(f"unknown equilibrium kind {self.kind!r}")
        _occupation(self.e_f)  # refuses a non-finite e_f
        if self.kind == "fermi_dirac" and not (self.beta is not None and 0 < self.beta < np.inf):
            raise ValueError(f"fermi_dirac needs a finite beta > 0, got {self.beta!r}")

    def build(self, spectral: SpectralData) -> CovariantOperator:
        if self.kind == "projection":
            return fermi_projection(spectral, self.e_f)
        return fermi_dirac(spectral, self.beta, self.e_f)

    def profile(self):
        """f(E), the same function `build` applies to the spectrum."""
        return _occupation(self.e_f, None if self.kind == "projection" else self.beta)

    def profile_derivative(self):
        if self.kind == "projection":
            # E_F is kept away from eigenvalues, so f' vanishes on the spectrum
            return lambda e: np.zeros_like(np.asarray(e, dtype=float))
        f = self.profile()
        beta = self.beta
        return lambda e: -beta * f(e) * (1.0 - f(e))


# ---------------------------------------------------------------------------
# smooth test functions
# ---------------------------------------------------------------------------


@dataclass
class SmoothFunction:
    """Real-valued smooth function with derivatives up to order m_max.

    `derivative(r, x)` must return the r-th derivative evaluated at x;
    order 0 is the function itself.
    """

    value: callable
    derivative: callable
    m_max: int

    def deriv(self, r: int, x):
        if r == 0:
            return self.value(x)
        if r > self.m_max:
            raise ValueError(f"derivative order {r} exceeds m_max={self.m_max}")
        return self.derivative(r, x)


def gaussian_function(center: float = 0.0, width: float = 1.0, m_max: int = 12) -> SmoothFunction:
    """exp(-(x-c)^2 / (2 w^2)) with exact derivatives via Hermite recursion."""

    def value(x):
        u = (np.asarray(x, dtype=float) - center) / width
        return np.exp(-0.5 * u**2)

    def derivative(r, x):
        u = (np.asarray(x, dtype=float) - center) / width
        # d^r/du^r e^{-u^2/2} = (-1)^r He_r(u) e^{-u^2/2}
        he = np.polynomial.hermite_e.hermeval(u, [0.0] * r + [1.0])
        return ((-1.0) ** r) * he * np.exp(-0.5 * u**2) / width**r

    return SmoothFunction(value, derivative, m_max=m_max)


# ---------------------------------------------------------------------------
# the |||f|||_m norms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached per order."""
    rule = leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


_NORM_TOL = 1e-10  # the kept panels' disagreements sum to at most this times the integral
_NORM_LEVELS = 40  # bisections before a panel is given up


def _line_integral(g) -> float:
    """integral of g over the line, mapped onto (-1, 1) by u = x / (1 - x^2): a panel's 10-node
    Gauss-Legendre value is kept when the sum over its halves agrees, else the panel is bisected."""
    nodes, weights = gauss_legendre(10)
    c, h, total = np.linspace(-0.875, 0.875, 8), np.full(8, 0.125), 0.0  # panel centres and half-widths
    for _ in range(_NORM_LEVELS):
        cs, hs = np.concatenate([c, c - h / 2, c + h / 2])[:, None], np.concatenate([h, h / 2, h / 2])[:, None]
        # 1 - x^2 as (1 + x)(1 - x), each from the exact panel centre, so it keeps its digits near x = +-1
        x, pq = cs + hs * nodes, ((1 + cs) + hs * nodes) * ((1 - cs) - hs * nodes)
        whole, left, right = np.split((g(x / pq) * (1 + x * x) / pq**2 * hs) @ weights, 3)
        halves = left + right
        ok = np.abs(whole - halves) <= _NORM_TOL * abs(total + np.sum(halves)) * h
        total += np.sum(halves[ok])
        c, h = np.concatenate([c[~ok] - h[~ok] / 2, c[~ok] + h[~ok] / 2]), np.tile(h[~ok] / 2, 2)
        if not c.size:
            return float(total)
    estimate = float(total + np.sum(halves[~ok]))
    raise QuadratureAccuracyError(f"no convergence in {_NORM_LEVELS} bisections: {estimate}", estimate)


def hs_norm(f: SmoothFunction, m: int) -> float:
    """sum_{r=0}^{m} integral |f^(r)(u)| <u>^{r-1} du, one `_line_integral` per order."""
    return sum(_line_integral(lambda u, r=r: np.abs(f.deriv(r, u)) * (1.0 + u * u) ** ((r - 1) / 2.0))
               for r in range(m + 1))


# ---------------------------------------------------------------------------
# contour functional calculus
# ---------------------------------------------------------------------------


def _bump(u):
    """e^{-1/u} for u > 0, else 0, and its derivative e^{-1/u} / u^2."""
    value, slope = np.zeros_like(u, dtype=float), np.zeros_like(u, dtype=float)
    pos = u > 0
    value[pos] = np.exp(-1.0 / u[pos])
    slope[pos] = value[pos] / u[pos] ** 2
    return value, slope


def plateau_cutoff(t):
    """(chi, chi') for the smooth even plateau chi: 1 on [-1, 1], 0 outside
    [-2, 2], and a / (a + b) between, from one evaluation of the bumps
    a = e^{-1/(2 - |t|)} and b = e^{-1/(|t| - 1)}."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    a, ap = _bump(2.0 - at)
    b, bp = _bump(at - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        chi = np.where(at <= 1.0, 1.0, np.where(at >= 2.0, 0.0, a / (a + b)))
        chi_prime = np.where((at <= 1.0) | (at >= 2.0), 0.0, -np.sign(t) * (ap * b + a * bp) / (a + b) ** 2)
    return chi, chi_prime


@dataclass
class HSQuadrature:
    """Midpoint tensor grid over a complex rectangle, excluding a thin band
    around the real axis.

    The rectangle is [x_lo, x_hi] x [-y_max, y_max]; rows of midpoints fill
    [y_min, y_max] in the upper half plane and are mirrored below.  `refine`
    halves both grid spacings and the excluded band.
    """

    order_m: int
    x_lo: float
    x_hi: float
    y_max: float
    nx: int
    ny: int
    y_min: float | None = None

    def __post_init__(self):
        if self.order_m < 2:
            raise ValueError("extension order m must be >= 2")
        if self.y_min is None:
            self.y_min = 0.5 * (self.y_max / self.ny)

    @classmethod
    def for_spectrum(cls, e_lo, e_hi, order_m=3, nx=96, margin=None):
        """Rectangle sized so the cutoff's transition band |y| in
        [<x>, 2<x>] is fully inside: that band carries an O(1) share of
        the contour mass."""
        width = max(e_hi - e_lo, 1.0)
        margin = margin if margin is not None else 0.75 * width
        x_edge = max(abs(e_lo - margin), abs(e_hi + margin))
        y_max = 2.05 * np.sqrt(1.0 + x_edge**2)
        ny = max(8, int(np.ceil(y_max / ((e_hi - e_lo + 2 * margin) / nx))))
        return cls(order_m, e_lo - margin, e_hi + margin, y_max, nx, ny)

    def refine(self) -> "HSQuadrature":
        return HSQuadrature(
            self.order_m, self.x_lo, self.x_hi, self.y_max,
            2 * self.nx, 2 * self.ny, self.y_min / 2.0,
        )

    def nodes(self):
        """Upper-half-plane midpoint nodes z and their cell area."""
        hx = (self.x_hi - self.x_lo) / self.nx
        hy = (self.y_max - self.y_min) / self.ny
        xs = self.x_lo + hx * (np.arange(self.nx) + 0.5)
        ys = self.y_min + hy * (np.arange(self.ny) + 0.5)
        return xs, ys, hx * hy


def almost_analytic_dbar(f: SmoothFunction, m: int, x, y):
    """(d/dx + i d/dy) applied to the order-m almost-analytic extension
    f~(x+iy) = sum_{r<=m} f^(r)(x) (iy)^r / r! * chi(y / <x>)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bracket = np.sqrt(1.0 + x * x)
    t = y / bracket
    sigma, sigma_t = plateau_cutoff(t)
    dsigma_dy = sigma_t / bracket
    dsigma_dx = -sigma_t * y * x / bracket**3

    taylor = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    iy_pow = np.ones_like(taylor)
    factorial = 1.0
    for r in range(m + 1):
        if r > 0:
            iy_pow = iy_pow * (1j * y)
            factorial *= r
        taylor = taylor + f.deriv(r, x) * iy_pow / factorial
    # residual term: sigma * f^(m+1)(x) (iy)^m / m!
    residual = f.deriv(m + 1, x) * iy_pow / factorial
    return (dsigma_dx + 1j * dsigma_dy) * taylor + sigma * residual


def _spectral_bounds(h: np.ndarray):
    # extremal eigenvalues only; the contour evaluation itself never
    # touches the eigendecomposition
    evals = np.linalg.eigvalsh(h)
    return float(evals[0]), float(evals[-1])


def hs_apply(
    op: CovariantOperator,
    f: SmoothFunction,
    quad: HSQuadrature,
) -> tuple[CovariantOperator, dict]:
    """Contour evaluation of f(H) through resolvents.

    Independent of the eigendecomposition: every node is a dense linear
    solve.  Returns the operator and a diagnostics dict with the
    absolute-convergence surrogate sum |df~| / |Im z|.
    """
    if f.m_max < quad.order_m + 1:
        raise ValueError("f needs derivatives up to order m+1")
    h = op.matrix
    e_lo, e_hi = _spectral_bounds(h)
    if e_lo < quad.x_lo or e_hi > quad.x_hi:
        raise CoverageError(
            f"spectral bounds [{e_lo:.3f}, {e_hi:.3f}] outside grid "
            f"[{quad.x_lo:.3f}, {quad.x_hi:.3f}]"
        )
    xs, ys, area = quad.nodes()
    n = h.shape[0]
    eye = np.eye(n, dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    surrogate = 0.0
    for y in ys:
        dbar = almost_analytic_dbar(f, quad.order_m, xs, y)
        weights = -(1.0 / (2.0 * np.pi)) * dbar * area
        surrogate += float(np.sum(np.abs(dbar)) * area / abs(y))
        for xval, w in zip(xs, weights):
            if w == 0.0:
                continue
            z = xval + 1j * y
            acc += w * np.linalg.solve(z * eye - h, eye)
    # real f: the lower half plane contributes the conjugate transpose
    result = acc + acc.conj().T
    return CovariantOperator(result, op.model), {"abs_convergence_surrogate": 2.0 * surrogate}


# ---------------------------------------------------------------------------
# position commutators and decay diagnostics
# ---------------------------------------------------------------------------


def position_commutator(a: CovariantOperator, axis: int) -> CovariantOperator:
    """Entrywise [x_axis, A]_mn = displacement_table(model, axis)[m, n] * A_mn.

    On the open box this is the exact commutator with the position matrix;
    on the torus it is the minimal-image realization, faithful only where A
    decays within half the box.
    """
    table = displacement_table(a.model, axis)
    return CovariantOperator(table * a.matrix, a.model)


def divided_difference_kernel(evals, f_vals, f_prime_vals, v_tilde, tol=1e-9):
    """Eigenbasis matrix of D f(H)[-v], the exact derivative of f(H) under
    a uniform shift of the vector potential along the axis of v.

    Entries v_mn (f_n - f_m) / (E_m - E_n), with the f' limit on (near-)
    degenerate pairs; this is the torus-exact realization of i[x, f(H)]
    and coincides with the minimal-image commutator when the box dwarfs
    the operator's support.
    """
    de = evals[:, None] - evals[None, :]
    df = f_vals[None, :] - f_vals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(de) > tol, df / np.where(de == 0, 1.0, de), 0.0)
    limit = np.where(np.abs(de) <= tol, -0.5 * (f_prime_vals[:, None] + f_prime_vals[None, :]), 0.0)
    return v_tilde * (ratio + limit)


def spectral_position_commutator(
    spectral: SpectralData, state: EquilibriumState, v: np.ndarray
) -> CovariantOperator:
    """i[x, zeta] realized through the spectral divided difference,
    V dd(E, f, f', V* v V) V*, for the velocity matrix v = i[H, x] of the
    Hamiltonian that `spectral` decomposes: the static v_axis, or the
    driven v_axis(r) of H(r)."""
    evals, evecs = spectral.eigenvalues, spectral.eigenvectors
    vt = evecs.conj().T @ v @ evecs
    f_vals, fp_vals = state.profile()(evals), state.profile_derivative()(evals)
    kernel = divided_difference_kernel(evals, f_vals, fp_vals, vt)
    return CovariantOperator(evecs @ kernel @ evecs.conj().T, spectral.model)


def _pair_distances(model: LatticeModel) -> np.ndarray:
    d2 = np.zeros((model.n_sites, model.n_sites))
    for axis in range(model.config.dimension):
        d2 += displacement_table(model, axis) ** 2
    return np.sqrt(d2)


def _fit_log_decay(dist, weight):
    mask = (dist > 0.5) & (weight > 1e-280)
    if np.count_nonzero(mask) < 2:
        return np.inf, 1.0
    x = dist[mask]
    y = np.log(weight[mask])
    coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
    slope = coeffs[0]
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    r2 = 1.0 - (res[0] / ss_tot if res.size and ss_tot > 0 else 0.0)
    return -slope, float(r2)


def localization_diagnostic(p: CovariantOperator) -> float:
    """Decay rate of an exponential fit of |P_xy| vs the minimal-image
    distance; a positive rate flags the localized/gapped regime."""
    dist = _pair_distances(p.model)
    weight = np.abs(p.matrix) ** 2
    rmax = dist.max()
    bins = np.arange(0.0, rmax + 1.0)
    centers, means = [], []
    for lo in bins:
        mask = (dist >= lo) & (dist < lo + 1.0)
        if np.any(mask):
            centers.append(lo + 0.5 if lo > 0 else 0.0)
            means.append(float(np.sqrt(np.mean(weight[mask]))))
    return float(_fit_log_decay(np.array(centers), np.array(means))[0])


@dataclass
class ResolventDecayReport:
    rate: float
    r_squared: float
    exact_locality: bool


def combes_thomas_probe(op: CovariantOperator, z: complex) -> ResolventDecayReport:
    """Off-diagonal decay of (H - z)^{-1} and a fitted exponential rate.

    The rate grows with |Im z| away from the spectrum; a singular-looking
    solve triggers a conditioning warning instead of an exception.
    """
    if z.imag == 0:
        raise ValueError("need Im z != 0")
    h = op.matrix
    n = h.shape[0]
    mat = h - z * np.eye(n)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        warnings.warn("resolvent solve is badly conditioned (z near spectrum)")
    res = np.linalg.solve(mat, np.eye(n, dtype=complex))
    off = res - np.diag(np.diag(res))
    if np.max(np.abs(off)) < 1e-14:
        return ResolventDecayReport(np.inf, 1.0, True)
    dist = _pair_distances(op.model)
    mask = dist > 0.5
    rate, r2 = _fit_log_decay(dist[mask], np.abs(res[mask]))
    return ResolventDecayReport(rate, r2, False)
