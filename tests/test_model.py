import tracemalloc

import numpy as np
import pytest

from kubolab.model import (
    ConfigurationError,
    CovariantOperator,
    DisorderSpec,
    FluxSpec,
    LatticeConfig,
    LatticeModel,
    ModelMismatchError,
    UnsupportedOperationError,
    build_hamiltonian,
    displacement,
    displacement_table,
    magnetic_translation,
    position_matrix,
    realization_seed,
    sample_disorder,
    shift_disorder,
    velocity_operator,
)

from conftest import make_chain, make_torus


# -- disorder ---------------------------------------------------------------


def test_zero_strength_gives_zero_potential():
    spec = DisorderSpec(0.0, 99)
    assert np.all(sample_disorder(spec, 7, 16) == 0.0)


def test_disorder_deterministic():
    spec = DisorderSpec(2.0, 123)
    a = sample_disorder(spec, 7, 64)
    b = sample_disorder(spec, 7, 64)
    assert np.array_equal(a, b)
    c = sample_disorder(spec, 8, 64)
    assert not np.array_equal(a, c)


def test_disorder_moments_match_uniform_law():
    spec = DisorderSpec(2.0, 2024)
    samples = np.concatenate([sample_disorder(spec, i, 16) for i in range(1000)])
    assert abs(samples.mean()) < 0.05
    var = samples.var()
    assert abs(var - 2.0**2 / 12.0) < 0.1 * (2.0**2 / 12.0)
    assert samples.min() >= -1.0 and samples.max() <= 1.0


def test_realization_seed_pure_and_distinct():
    assert realization_seed(5, 0) == realization_seed(5, 0)
    seeds = {realization_seed(5, i) for i in range(100)}
    assert len(seeds) == 100
    with pytest.raises(ValueError):
        realization_seed(5, -1)


# -- Hamiltonian ------------------------------------------------------------


def test_clean_chain_dispersion_l4():
    h = build_hamiltonian(make_chain(4, "torus")).matrix
    expected = np.sort([-2 * np.cos(2 * np.pi * k / 4) for k in range(4)])
    assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


@pytest.mark.parametrize("length", [3, 5, 8, 12])
def test_clean_chain_dispersion_general(length):
    h = build_hamiltonian(make_chain(length, "torus")).matrix
    expected = np.sort([-2 * np.cos(2 * np.pi * k / length) for k in range(length)])
    assert np.max(np.abs(np.linalg.eigvalsh(h) - expected)) < 1e-10


def test_open_2x2_grid_matches_hand_built_matrix():
    model = LatticeModel(LatticeConfig(2, (2, 2), "open"), FluxSpec())
    # sites (0,0),(0,1),(1,0),(1,1); nearest-neighbor hops of amplitude -1
    oracle = -np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=float
    )
    assert np.allclose(build_hamiltonian(model).matrix, oracle)
    assert np.allclose(np.linalg.eigvalsh(oracle), [-2, 0, 0, 2], atol=1e-12)


def test_clean_2d_flux_free_dispersion():
    model = make_torus((4, 6))
    evals = np.linalg.eigvalsh(build_hamiltonian(model).matrix)
    oracle = np.sort(
        [
            -2 * np.cos(2 * np.pi * k1 / 4) - 2 * np.cos(2 * np.pi * k2 / 6)
            for k1 in range(4)
            for k2 in range(6)
        ]
    )
    assert np.max(np.abs(evals - oracle)) < 1e-10


def test_hamiltonian_exactly_hermitian(rng):
    pot = sample_disorder(DisorderSpec(1.5, 3), 0, 36)
    h = build_hamiltonian(make_torus((6, 6), 1, 3, pot)).matrix
    assert np.linalg.norm(h - h.conj().T) == 0.0


def test_hamiltonian_retains_one_matrix():
    # the hop matrices are formed per axis and dropped; no dense cache stays on the model
    model = make_torus((12, 12), 1, 3, sample_disorder(DisorderSpec(0.5, 7), 0, 144))
    matrix_bytes = model.n_sites**2 * 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = build_hamiltonian(model)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.matrix.nbytes == matrix_bytes
    assert retained <= 1.1 * matrix_bytes


def test_flux_commensurability_rejected():
    with pytest.raises(ConfigurationError):
        LatticeModel(LatticeConfig(2, (8, 8), "torus"), FluxSpec(1, 3))


def test_flux_needs_two_dimensions():
    with pytest.raises(ConfigurationError):
        LatticeModel(LatticeConfig(1, (6,), "torus"), FluxSpec(1, 3))


def test_unknown_boundary_rejected():
    with pytest.raises(ConfigurationError):
        LatticeConfig(2, (4, 4), "mobius")


# -- magnetic translations --------------------------------------------------


def test_translation_zero_is_identity():
    model = make_torus((6, 6), 1, 3)
    u = magnetic_translation(model, (0, 0)).matrix
    assert np.allclose(u, np.eye(36))


@pytest.mark.parametrize("a", [(1, 0), (0, 1), (2, 5), (3, 0)])
def test_translation_unitary(a):
    model = make_torus((6, 6), 1, 3)
    u = magnetic_translation(model, a).matrix
    assert np.linalg.norm(u.conj().T @ u - np.eye(36)) < 1e-12


def test_translation_moves_site_indicators():
    model = make_torus((6, 6), 1, 3)
    a = (2, 1)
    u = magnetic_translation(model, a).matrix
    b = model.site_index((1, 4))
    chi = np.zeros((36, 36))
    chi[b, b] = 1.0
    moved = u @ chi @ u.conj().T
    target = model.site_index(((1 + 2) % 6, (4 + 1) % 6))
    oracle = np.zeros((36, 36))
    oracle[target, target] = 1.0
    assert np.allclose(moved, oracle, atol=1e-14)


def test_projective_relation(rng):
    model = make_torus((6, 6), 1, 3)
    for _ in range(5):
        a = tuple(rng.integers(0, 6, size=2))
        b = tuple(rng.integers(0, 6, size=2))
        ua = magnetic_translation(model, a).matrix
        ub = magnetic_translation(model, b).matrix
        uab = magnetic_translation(model, (a[0] + b[0], a[1] + b[1])).matrix
        prod = ua @ ub @ uab.conj().T
        phase = prod[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.linalg.norm(prod - phase * np.eye(36)) < 1e-12


def test_clean_hofstadter_translation_invariance():
    model = make_torus((6, 6), 1, 3)
    h = build_hamiltonian(model).matrix
    for a in [(3, 0), (1, 2), (0, 1), (2, 4)]:
        u = magnetic_translation(model, a).matrix
        assert np.linalg.norm(u @ h @ u.conj().T - h) < 1e-12


def test_translation_needs_torus():
    with pytest.raises(UnsupportedOperationError):
        magnetic_translation(make_chain(4, "open"), (1,))


# -- disorder shifts and covariance ------------------------------------------


def test_shift_zero_identity():
    pot = sample_disorder(DisorderSpec(1.0, 8), 0, 36)
    model = make_torus((6, 6), 1, 3, pot)
    assert np.array_equal(shift_disorder(model, (0, 0)).potential, pot)


def test_shift_full_period_identity():
    pot = sample_disorder(DisorderSpec(1.0, 8), 0, 36)
    model = make_torus((6, 6), 1, 3, pot)
    assert np.allclose(shift_disorder(model, (6, 0)).potential, pot)


def test_covariance_relation(rng):
    pot = sample_disorder(DisorderSpec(1.0, 8), 0, 36)
    model = make_torus((6, 6), 1, 3, pot)
    h = build_hamiltonian(model).matrix
    for _ in range(4):
        a = tuple(rng.integers(0, 6, size=2))
        u = magnetic_translation(model, a).matrix
        h_shift = build_hamiltonian(shift_disorder(model, a)).matrix
        assert np.linalg.norm(u @ h @ u.conj().T - h_shift) < 1e-12


def test_shift_needs_torus():
    with pytest.raises(UnsupportedOperationError):
        shift_disorder(make_chain(4, "open"), (1,))


# -- displacement ------------------------------------------------------------


def test_displacement_same_site_zero():
    model = make_chain(8, "torus")
    assert displacement(model, 3, 3, 0) == 0.0


def test_displacement_open_plain_difference():
    model = make_chain(8, "open")
    assert displacement(model, 7, 0, 0) == 7.0


def test_displacement_torus_minimal_image():
    model = make_chain(8, "torus")
    assert displacement(model, 7, 0, 0) == -1.0
    assert displacement(model, 0, 7, 0) == 1.0
    assert displacement(model, 5, 1, 0) == -4.0  # antipodal convention


def test_displacement_antisymmetric_on_odd_torus():
    model = make_chain(9, "torus")
    table = displacement_table(model, 0)
    assert np.array_equal(table, -table.T)


def _fresh_displacement_table(model, axis):
    # the uncached formula, built from this model's own coordinates
    x = model.coords[:, axis].astype(float)
    diff = x[:, None] - x[None, :]
    if model.config.boundary == "open":
        return diff
    L = model.config.sides[axis]
    return (diff + L // 2) % L - L // 2


@pytest.mark.parametrize(
    "config",
    [
        LatticeConfig(1, (9,), "open"),
        LatticeConfig(1, (9,), "torus"),
        LatticeConfig(2, (6, 4), "torus"),
        LatticeConfig(2, (1, 5), "torus"),
        LatticeConfig(2, (4, 5), "open"),
    ],
    ids=lambda c: f"{c.boundary}-{'x'.join(map(str, c.sides))}",
)
def test_displacement_table_cached_per_geometry(config):
    flux = FluxSpec(1, 2) if config.dimension == 2 and config.sides[0] % 2 == 0 else FluxSpec()
    clean = LatticeModel(config, flux)
    dirty = LatticeModel(config, flux, sample_disorder(DisorderSpec(1.0, 3), 0, config.n_sites))
    for axis in range(config.dimension):
        table = displacement_table(clean, axis)
        expected = _fresh_displacement_table(clean, axis)
        assert table.dtype == expected.dtype and table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()
        # one table per geometry: realizations and flux share it
        assert displacement_table(dirty, axis) is table
        assert displacement_table(LatticeModel(config), axis) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        assert table.tobytes() == expected.tobytes()


# -- velocity ----------------------------------------------------------------


def test_velocity_equals_commutator_open_chain():
    pot = sample_disorder(DisorderSpec(2.0, 4), 0, 8)
    model = make_chain(8, "open", pot)
    h = build_hamiltonian(model).matrix
    x = position_matrix(model, 0).matrix
    oracle = 1j * (h @ x - x @ h)
    assert np.max(np.abs(velocity_operator(model, 0).matrix - oracle)) < 1e-15


def test_velocity_equals_commutator_open_2d():
    pot = sample_disorder(DisorderSpec(1.0, 5), 0, 12)
    model = LatticeModel(LatticeConfig(2, (3, 4), "open"), FluxSpec(), pot)
    h = build_hamiltonian(model).matrix
    for axis in range(2):
        x = position_matrix(model, axis).matrix
        oracle = 1j * (h @ x - x @ h)
        assert np.max(np.abs(velocity_operator(model, axis).matrix - oracle)) < 1e-14


def test_velocity_hermitian_bond_supported():
    pot = sample_disorder(DisorderSpec(1.0, 6), 0, 36)
    model = make_torus((6, 6), 1, 3, pot)
    h = build_hamiltonian(model).matrix
    for axis in range(2):
        v = velocity_operator(model, axis).matrix
        assert np.linalg.norm(v - v.conj().T) < 1e-12
        assert np.all(np.diag(v) == 0.0)
        assert np.all((v != 0) <= (h - np.diag(np.diag(h)) != 0))


# -- covariant operator bookkeeping -------------------------------------------


def test_model_tag_mismatch_rejected():
    a = CovariantOperator(np.eye(4), make_chain(4, "open"))
    b = CovariantOperator(np.eye(4), make_chain(4, "torus"))
    with pytest.raises(ModelMismatchError):
        a.require_same_model(b)


def test_shape_mismatch_rejected():
    with pytest.raises(ModelMismatchError):
        CovariantOperator(np.eye(3), make_chain(4, "open"))
