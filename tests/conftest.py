import numpy as np
import pytest

from kubolab.model import (
    CovariantOperator,
    FluxSpec,
    LatticeConfig,
    LatticeModel,
    build_hamiltonian,
)
from kubolab.funcalc import SpectralData


def make_chain(n, boundary="open", potential=None):
    return LatticeModel(LatticeConfig(1, (n,), boundary), FluxSpec(), potential)


def make_torus(sides, p=0, q=1, potential=None):
    return LatticeModel(LatticeConfig(2, sides, "torus"), FluxSpec(p, q), potential)


def forward_hops(model, axis):
    """Axis `axis`'s forward hops as a dense matrix, scattered from model.bonds."""
    head, tail, amplitude = model.bonds[axis]
    m = np.zeros((model.n_sites, model.n_sites), dtype=complex)
    np.add.at(m, (head, tail), amplitude)
    return m


def random_operator(model, rng, scale=1.0, hermitian=False):
    n = model.n_sites
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if hermitian:
        m = (m + m.conj().T) / 2
    return CovariantOperator(scale * m / np.sqrt(n), model)


def random_projector(model, rng, rank):
    n = model.n_sites
    m = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    q, _ = np.linalg.qr(m)
    return CovariantOperator(q @ q.conj().T, model)


def spectral_of(model):
    return SpectralData.from_operator(build_hamiltonian(model))


def gap_fermi_level(model, filling):
    evals = np.linalg.eigvalsh(build_hamiltonian(model).matrix)
    k = round(filling * len(evals))
    return 0.5 * (evals[k - 1] + evals[k])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
