"""Disordered magnetic tight-binding lattices on finite boxes and tori.

Builds the Anderson-Hofstadter Hamiltonian in Landau gauge (Peierls phase
e^{i*2*pi*phi*x0} on forward hops along axis 1), the cyclic shift of the
disorder that covariance pairs with a magnetic translation, the
minimal-image displacement tables, and the bond-resolved velocity operators.

All constructors are pure functions of immutable inputs; there is no shared
mutable state, so any number of them may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import numpy.random  # loaded here, not lazily by the first sample_disorder call

_MASK64 = (1 << 64) - 1


class ConfigurationError(ValueError):
    """Inconsistent lattice / flux / drive parameters."""


class UnsupportedOperationError(RuntimeError):
    """Operation not defined for this boundary condition."""


class ModelMismatchError(ValueError):
    """Operands are indexed by different lattices."""


def splitmix64(z: int) -> int:
    """One splitmix64 output step; a pure function of the 64-bit input."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def realization_seed(base_seed: int, index: int) -> int:
    """Per-realization seed, reproducible independently of execution order."""
    if index < 0:
        raise ValueError("realization index must be >= 0")
    return splitmix64(splitmix64(base_seed & _MASK64) ^ (index + 0x9E3779B97F4A7C15))


def _coords(sides) -> np.ndarray:
    """(N, d) site coordinates, row-major in the index; C-ordered, as coords @ f rounds by layout."""
    return np.indices(sides).reshape(len(sides), -1).T.copy()


def _site_indices(sides, coords) -> np.ndarray:
    """Site index of each coordinate row of `coords`, wrapped into the box."""
    return np.ravel_multi_index(np.asarray(coords).T, sides, mode="wrap")


@dataclass(frozen=True)
class LatticeConfig:
    """Finite box geometry: dimension, per-axis site counts, boundary."""

    dimension: int
    sides: tuple[int, ...]
    boundary: str = "torus"  # "torus" | "open"

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigurationError("dimension must be 1 or 2")
        object.__setattr__(self, "sides", tuple(int(s) for s in self.sides))
        if len(self.sides) != self.dimension:
            raise ConfigurationError("sides must list one length per axis")
        if any(s < 1 for s in self.sides):
            raise ConfigurationError("sides must be positive")
        if self.boundary not in ("torus", "open"):
            raise ConfigurationError(f"unknown boundary {self.boundary!r}")
        if self.n_sites < 2:
            raise ConfigurationError("need at least 2 sites")

    @property
    def n_sites(self) -> int:
        return math.prod(self.sides)


@dataclass(frozen=True)
class FluxSpec:
    """Rational flux per plaquette phi = p/q in the fixed Landau gauge.

    The phase is accumulated on hops along axis 1 and grows with coordinate
    0; p = 0 means every hopping phase is 1.
    """

    numerator: int = 0
    denominator: int = 1

    def __post_init__(self):
        if self.denominator <= 0:
            raise ConfigurationError("flux denominator must be positive")
        if self.numerator != 0 and np.gcd(self.numerator, self.denominator) != 1:
            raise ConfigurationError("flux p/q must be in lowest terms")

    @property
    def phi(self) -> float:
        return self.numerator / self.denominator


@dataclass(frozen=True)
class DisorderSpec:
    """I.i.d. site disorder, uniform on [-W/2, W/2], seeded reproducibly."""

    strength: float = 0.0
    base_seed: int = 0

    def __post_init__(self):
        if self.strength < 0:
            raise ConfigurationError("disorder strength must be >= 0")


def sample_disorder(spec: DisorderSpec, index: int, n_sites: int) -> np.ndarray:
    """Draw realization `index` of the on-site potential on n_sites sites.

    Deterministic pure function of its arguments: identical inputs give
    identical vectors, independent of execution order.
    """
    if index < 0:
        raise ValueError("realization index must be >= 0")
    if spec.strength == 0.0:
        return np.zeros(n_sites)
    rng = np.random.default_rng(realization_seed(spec.base_seed, index))
    return rng.uniform(-spec.strength / 2.0, spec.strength / 2.0, size=n_sites)


@dataclass(eq=False)
class LatticeModel:
    """One disorder realization of the magnetic tight-binding lattice.

    `potential` holds the per-site values of a single realization; the
    hopping amplitude is the standard Anderson-Hofstadter convention -1.
    """

    config: LatticeConfig
    flux: FluxSpec = field(default_factory=FluxSpec)
    potential: np.ndarray | None = None

    def __post_init__(self):
        n = self.config.n_sites
        if self.potential is None:
            self.potential = np.zeros(n)
        self.potential = np.asarray(self.potential, dtype=float)
        if self.potential.shape != (n,):
            raise ConfigurationError("potential must have one value per site")
        if self.config.dimension == 1 and self.flux.numerator != 0:
            raise ConfigurationError("flux requires dimension 2")
        if (
            self.config.dimension == 2
            and self.flux.numerator != 0
            and self.config.boundary == "torus"
            and self.config.sides[0] % self.flux.denominator != 0
        ):
            raise ConfigurationError(
                "torus with flux p/q needs q | L0 (side transverse to the "
                f"Landau gauge axis); got q={self.flux.denominator}, "
                f"L0={self.config.sides[0]}"
            )

    # -- site bookkeeping -------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.config.n_sites

    @property
    def tag(self):
        """Identity of the lattice indexing rows/columns of operators."""
        return (self.config, self.flux)

    @cached_property
    def coords(self) -> np.ndarray:
        """(N, d) integer coordinates; site index is row-major in coords."""
        return _coords(self.config.sides)

    # -- bonds -------------------------------------------------------------

    @cached_property
    def bonds(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per axis: (head sites m, tail sites n, hop amplitude -e^{i theta}).

        Each entry describes the forward hop n -> m = n + e_axis (with wrap
        on the torus), carrying the amplitude as matrix element H[m, n];
        theta is the Landau-gauge Peierls phase 2 pi phi x0 on axis 1 and 0
        elsewhere.  H, H(t) and the velocities are all scattered from this
        list (`_scatter`); the model keeps no N x N matrix.
        """
        sides = self.config.sides
        out = []
        for axis, step in enumerate(np.eye(self.config.dimension, dtype=int)):
            tail = np.arange(self.n_sites)
            if self.config.boundary == "open":
                tail = tail[self.coords[:, axis] < sides[axis] - 1]
            head = _site_indices(sides, self.coords[tail] + step)
            phi = self.flux.phi if axis == 1 else 0.0
            theta = 2.0 * np.pi * phi * self.coords[tail, 0]
            # a complex product, not a negation: it keeps H's signed zeros
            out.append((head, tail, -1.0 * np.exp(1j * theta)))
        return out

    @cached_property
    def _bond_positions(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per axis: flat positions of (head, tail) and (tail, head) in an
        N x N matrix.  A translation is injective, so neither array repeats a
        position."""
        n = self.n_sites
        return [(head * n + tail, tail * n + head) for head, tail, _ in self.bonds]


@dataclass(eq=False)
class CovariantOperator:
    """Complex square matrix indexed by the sites of a LatticeModel."""

    matrix: np.ndarray
    model: LatticeModel

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.model.n_sites
        if self.matrix.shape != (n, n):
            raise ModelMismatchError(
                f"matrix shape {self.matrix.shape} does not match {n} sites"
            )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def require_same_model(self, other: "CovariantOperator") -> None:
        if self.model.tag != other.model.tag:
            raise ModelMismatchError("operands live on different lattices")


def _scatter(model: LatticeModel, amplitudes, diagonal=None) -> np.ndarray:
    """Fresh N x N matrix with amplitudes a on the bonds (head, tail) of each
    (axis, a) in `amplitudes` and conj(a) on (tail, head), in that order, then
    `diagonal` added on the diagonal; zero elsewhere."""
    n = model.n_sites
    flat = np.zeros(n * n, dtype=complex)
    for axis, amplitude in amplitudes:
        forward, backward = model._bond_positions[axis]
        # buffered, as np.add.at would be: the positions of one array are distinct
        flat[forward] += amplitude
        flat[backward] += amplitude.conj()
    if diagonal is not None:
        flat[:: n + 1] += diagonal
    return flat.reshape(n, n)


def build_hamiltonian(model: LatticeModel) -> CovariantOperator:
    """Assemble the Hermitian lattice Hamiltonian for one realization."""
    hops = enumerate(amplitude for _, _, amplitude in model.bonds)
    return CovariantOperator(_scatter(model, hops, model.potential), model)


def shift_disorder(model: LatticeModel, a) -> LatticeModel:
    """New model with the potential cyclically shifted: v'(x) = v(x - a)."""
    if model.config.boundary != "torus":
        raise UnsupportedOperationError("disorder shifts need the torus")
    source = _site_indices(model.config.sides, model.coords - np.asarray(a, dtype=int))
    return LatticeModel(
        config=model.config,
        flux=model.flux,
        potential=model.potential[source],
    )


def displacement_table(model: LatticeModel, axis: int) -> np.ndarray:
    """(N, N) table of the signed coordinate differences x_axis(m) - x_axis(n),
    read-only.  Torus: minimal image ((m_j - n_j + L_j/2) mod L_j) - L_j/2;
    open box: plain difference.

    It depends on the geometry alone, so one table per (LatticeConfig, axis)
    is shared by every realization and flux on that lattice.  The last few
    geometries are kept; `_displacements` computes any block of it uncached.
    """
    return _displacement_table(model.config, axis)


@lru_cache(maxsize=8)
def _displacement_table(config: LatticeConfig, axis: int) -> np.ndarray:
    table = _displacements(config, axis)
    table.flags.writeable = False
    return table


def _displacements(config: LatticeConfig, axis: int, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """The (rows, cols) block of the displacement table, in fresh memory; the
    table is its all-rows, all-columns call.  Exact integers, formed as int32."""
    x = _coords(config.sides)[:, axis].astype(np.int32)
    diff = x[rows, None] - x[None, cols]
    if config.boundary == "torus":
        L = config.sides[axis]
        diff += L // 2
        diff %= L
        diff -= L // 2
    return diff.astype(float)


def velocity_operator(model: LatticeModel, axis: int) -> CovariantOperator:
    """Bond current operator v = i[H, x] along `axis`.

    Entrywise i * delta * H_mn with delta the physical hop displacement
    (+-1) on every bond, wrap bonds included; supported only on hopping
    bonds, zero diagonal.
    """
    _, _, amplitude = model.bonds[axis]
    return CovariantOperator(_scatter(model, [(axis, -1j * amplitude)]), model)


def position_matrix(model: LatticeModel, axis: int) -> CovariantOperator:
    """Diagonal matrix of integer site coordinates (exact on the open box)."""
    return CovariantOperator(np.diag(model.coords[:, axis].astype(complex)), model)
