"""Disordered magnetic tight-binding lattices on finite boxes and tori.

Builds the Anderson-Hofstadter Hamiltonian in Landau gauge (Peierls phase
e^{i*2*pi*phi*x0} on forward hops along axis 1), the magnetic translations
that implement covariance together with a cyclic shift of the disorder, and
the bond-resolved velocity operators.

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
        grids = np.meshgrid(
            *[np.arange(s) for s in self.config.sides], indexing="ij"
        )
        return np.stack([g.ravel() for g in grids], axis=1)

    def site_index(self, coord) -> int:
        idx = 0
        for c, s in zip(coord, self.config.sides):
            idx = idx * s + int(c) % s
        return idx

    # -- bonds -------------------------------------------------------------

    @cached_property
    def bonds(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per axis: (head sites m, tail sites n, Peierls phase theta).

        Each entry describes the forward hop n -> m = n + e_axis (with wrap
        on the torus), carrying matrix element -e^{i theta} in
        H[m, n].
        """
        d = self.config.dimension
        sides = self.config.sides
        coords = self.coords
        n_idx = np.arange(self.n_sites)
        out = []
        for axis in range(d):
            if self.config.boundary == "torus":
                keep = np.ones(self.n_sites, dtype=bool)
            else:
                keep = coords[:, axis] < sides[axis] - 1
            tail = n_idx[keep]
            head_coords = coords[keep].copy()
            head_coords[:, axis] = (head_coords[:, axis] + 1) % sides[axis]
            head = np.array([self.site_index(c) for c in head_coords])
            if axis == 1 and self.flux.numerator != 0:
                theta = 2.0 * np.pi * self.flux.phi * coords[keep, 0]
            else:
                theta = np.zeros(tail.size)
            out.append((head, tail, theta))
        return out

    def forward_hop_matrix(self, axis: int) -> np.ndarray:
        """Matrix of forward hops along `axis` (one triangle of the bonds)."""
        head, tail, theta = self.bonds[axis]
        m = np.zeros((self.n_sites, self.n_sites), dtype=complex)
        # a complex product, not a negation: it keeps H's signed zeros
        np.add.at(m, (head, tail), -1.0 * np.exp(1j * theta))
        return m

    @cached_property
    def _forward_parts(self) -> list[np.ndarray]:
        # dense, d N x N: for the driven-H path, which reads them every step
        return [self.forward_hop_matrix(axis) for axis in range(self.config.dimension)]

    @cached_property
    def _static_cache(self) -> dict:
        return {}

    def _static_part(self, driven: tuple[int, ...]):
        """The time-independent pieces of H(t) when the axes `driven` carry
        the drive phase, cached per set of driven axes.

        Returns (static, [(axis, T, T*)]): static is the sum of every other
        axis's forward hops plus their conjugate transposes, and T, T* are
        the forward hops of each driven axis and their conjugate transpose.
        With every axis driven, static holds -0 in every entry: the additive
        identity of IEEE arithmetic, so that the signed zeros of the phased
        hops survive the sum.
        """
        split = self._static_cache.get(driven)
        if split is None:
            parts = self._forward_parts
            undriven = [p for axis, p in enumerate(parts) if axis not in driven]
            fill = complex(0.0, 0.0) if undriven else complex(-0.0, -0.0)
            static = np.full((self.n_sites, self.n_sites), fill)
            for part in undriven:
                static += part
                static += part.conj().T
            hops = [(axis, parts[axis], parts[axis].conj().T.copy()) for axis in driven]
            split = self._static_cache[driven] = (static, hops)
        return split


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


def build_hamiltonian(model: LatticeModel) -> CovariantOperator:
    """Assemble the Hermitian lattice Hamiltonian for one realization."""
    h = np.zeros((model.n_sites, model.n_sites), dtype=complex)
    for axis in range(model.config.dimension):
        part = model.forward_hop_matrix(axis)
        h += part
        h += part.conj().T
    h += np.diag(model.potential.astype(complex))
    return CovariantOperator(h, model)


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
    shifted = (coords + a) % np.array(sides)
    target = np.array([model.site_index(c) for c in shifted])
    u = np.zeros((n, n), dtype=complex)
    u[target, np.arange(n)] = np.exp(1j * chi[target])
    return CovariantOperator(u, model)


def shift_disorder(model: LatticeModel, a) -> LatticeModel:
    """New model with the potential cyclically shifted: v'(x) = v(x - a)."""
    if model.config.boundary != "torus":
        raise UnsupportedOperationError("disorder shifts need the torus")
    a = np.asarray(a, dtype=int)
    coords = model.coords
    sides = np.array(model.config.sides)
    source = (coords - a) % sides
    src_idx = np.array([model.site_index(c) for c in source])
    return LatticeModel(
        config=model.config,
        flux=model.flux,
        potential=model.potential[src_idx],
    )


def displacement(model: LatticeModel, m: int, n: int, axis: int) -> float:
    """Signed coordinate difference between sites m and n along an axis.

    Torus: minimal image ((m_j - n_j + L_j/2) mod L_j) - L_j/2; open box:
    plain difference.
    """
    diff = int(model.coords[m, axis]) - int(model.coords[n, axis])
    if model.config.boundary == "open":
        return float(diff)
    L = model.config.sides[axis]
    return float((diff + L // 2) % L - L // 2)


def displacement_table(model: LatticeModel, axis: int) -> np.ndarray:
    """(N, N) table of displacement(model, m, n, axis), read-only.

    It depends on the geometry alone, so one table per (LatticeConfig, axis)
    is shared by every realization and flux on that lattice.  The last few
    geometries are kept.
    """
    return _displacement_table(model.config, axis)


@lru_cache(maxsize=8)
def _displacement_table(config: LatticeConfig, axis: int) -> np.ndarray:
    x = LatticeModel(config).coords[:, axis].astype(float)
    diff = x[:, None] - x[None, :]
    if config.boundary == "torus":
        L = config.sides[axis]
        diff = (diff + L // 2) % L - L // 2
    diff.flags.writeable = False
    return diff


def velocity_operator(model: LatticeModel, axis: int) -> CovariantOperator:
    """Bond current operator v = i[H, x] along `axis`.

    Entrywise i * delta * H_mn with delta the physical hop displacement
    (+-1) on every bond, wrap bonds included; supported only on hopping
    bonds, zero diagonal.
    """
    part = model.forward_hop_matrix(axis)
    v = -1j * (part - part.conj().T)
    return CovariantOperator(v, model)


def position_matrix(model: LatticeModel, axis: int) -> CovariantOperator:
    """Diagonal matrix of integer site coordinates (exact on the open box)."""
    return CovariantOperator(np.diag(model.coords[:, axis].astype(complex)), model)
