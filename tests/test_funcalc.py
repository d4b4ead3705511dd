import numpy as np
import pytest

from kubolab.model import (
    CovariantOperator,
    DisorderSpec,
    build_hamiltonian,
    position_matrix,
    sample_disorder,
    velocity_operator,
)
from kubolab.funcalc import (
    CoverageError,
    DegenerateFermiLevelError,
    EquilibriumState,
    HSQuadrature,
    QuadratureAccuracyError,
    SmoothFunction,
    SpectralData,
    apply_spectral,
    combes_thomas_probe,
    fermi_dirac,
    fermi_projection,
    gaussian_function,
    hs_apply,
    hs_norm,
    localization_diagnostic,
    plateau_cutoff,
    position_commutator,
    spectral_position_commutator,
)
from kubolab.opspace import norm2

from conftest import gap_fermi_level, make_chain, make_torus, random_operator
from reference import hs_apply_derivative, verify_derivatives


@pytest.fixture
def spectral(rng):
    model = make_chain(16, "open")
    h = random_operator(model, rng, hermitian=True)
    return h, SpectralData.from_operator(h)


# -- spectral calculus ---------------------------------------------------------


def test_spectral_data_invariants(spectral):
    h, sp = spectral
    v, e = sp.eigenvectors, sp.eigenvalues
    scale = max(np.linalg.norm(h.matrix), 1e-300)
    assert np.linalg.norm(h.matrix @ v - v * e) <= 1e-10 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(len(e))) <= 1e-12
    assert np.all(np.diff(sp.eigenvalues) >= 0)


def test_from_operator_rejects_non_hermitian():
    # eigh reads one triangle, so a non-Hermitian matrix must not reach it
    model = make_chain(2, "open")
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralData.from_operator(CovariantOperator(np.array([[0, 1], [0, 0]]), model))
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralData.from_operator(CovariantOperator(np.array([[1, 1e-11j], [0, 1]]), model))
    # within the 1e-12 relative bound, and the zero operator, decompose
    sp = SpectralData.from_operator(CovariantOperator(np.array([[1, 1e-13j], [0, 1]]), model))
    assert np.allclose(sp.eigenvalues, 1.0)
    assert np.array_equal(
        SpectralData.from_operator(CovariantOperator(np.zeros((2, 2)), model)).eigenvalues,
        np.zeros(2),
    )


def test_apply_constant_one_gives_identity(spectral):
    _, sp = spectral
    assert np.allclose(apply_spectral(sp, lambda e: np.ones_like(e)).matrix, np.eye(16))


def test_apply_identity_function_returns_h(spectral):
    h, sp = spectral
    assert np.max(np.abs(apply_spectral(sp, lambda e: e).matrix - h.matrix)) < 1e-12


def test_step_function_on_diagonal_matrix():
    model = make_chain(2, "open")
    h = CovariantOperator(np.diag([-1.0, 1.0]), model)
    sp = SpectralData.from_operator(h)
    p = apply_spectral(sp, lambda e: (e <= 0).astype(float))
    assert np.allclose(p.matrix, np.diag([1.0, 0.0]))


def test_ring_homomorphism(spectral):
    _, sp = spectral
    f = lambda e: np.exp(-e)
    g = lambda e: e**2 + 0.5
    fg = apply_spectral(sp, lambda e: f(e) * g(e)).matrix
    assert np.max(np.abs(fg - apply_spectral(sp, f).matrix @ apply_spectral(sp, g).matrix)) < 1e-12


def test_functional_calculus_commutes_with_h(spectral):
    h, sp = spectral
    f_h = apply_spectral(sp, lambda e: np.tanh(e)).matrix
    assert np.linalg.norm(h.matrix @ f_h - f_h @ h.matrix) < 1e-12


# -- Fermi states ----------------------------------------------------------------


def test_projection_below_and_above_spectrum(spectral):
    _, sp = spectral
    lo = sp.eigenvalues[0] - 1.0
    hi = sp.eigenvalues[-1] + 1.0
    assert np.allclose(fermi_projection(sp, lo).matrix, 0.0)
    assert np.allclose(fermi_projection(sp, hi).matrix, np.eye(16))


def test_projection_clean_chain_rank_one():
    sp = SpectralData.from_operator(build_hamiltonian(make_chain(4, "torus")))
    p = fermi_projection(sp, -1.0)
    assert np.trace(p.matrix).real == pytest.approx(1.0)
    # the single state below -1 is the k=0 plane wave
    plane = np.full(4, 0.5)
    assert np.allclose(p.matrix, np.outer(plane, plane), atol=1e-12)


def test_projection_invariants(spectral):
    h, sp = spectral
    p = fermi_projection(sp, float(np.median(sp.eigenvalues)) + 1e-3)
    m = p.matrix
    assert np.linalg.norm(m - m.conj().T) < 1e-12
    assert np.linalg.norm(m @ m - m) < 1e-12
    assert np.linalg.norm(h.matrix @ m - m @ h.matrix) < 1e-12


def test_degenerate_fermi_level_reports_gap_edges():
    sp = SpectralData.from_operator(build_hamiltonian(make_chain(4, "torus")))
    with pytest.raises(DegenerateFermiLevelError) as err:
        fermi_projection(sp, 0.0)  # doubly degenerate level at 0
    assert "-2" in str(err.value) and "2" in str(err.value)


def test_fermi_dirac_half_filling_at_level():
    model = make_chain(2, "open")
    h = CovariantOperator(np.diag([0.3, 5.0]), model)
    sp = SpectralData.from_operator(h)
    f = fermi_dirac(sp, beta=2.0, e_f=0.3)
    assert f.matrix[0, 0].real == pytest.approx(0.5)


def test_fermi_dirac_saturates(spectral):
    _, sp = spectral
    f = fermi_dirac(sp, beta=200.0, e_f=sp.eigenvalues[-1] + 1.0).matrix
    assert np.linalg.norm(f - np.eye(16)) < 1e-8


def test_fermi_dirac_approaches_projection(spectral):
    _, sp = spectral
    e_f = float(np.median(sp.eigenvalues)) + 1e-3
    dist = np.min(np.abs(sp.eigenvalues - e_f))
    beta = 50.0
    gap = np.linalg.norm(
        fermi_dirac(sp, beta, e_f).matrix - fermi_projection(sp, e_f).matrix, 2
    )
    assert gap < np.exp(-beta * dist) + 1e-12


def test_fermi_dirac_requires_finite_beta(spectral):
    _, sp = spectral
    with pytest.raises(ValueError):
        fermi_dirac(sp, np.inf, 0.0)


@pytest.mark.parametrize("e_f", [np.nan, np.inf, -np.inf])
def test_fermi_functions_refuse_non_finite_e_f(spectral, e_f):
    # NaN would occupy no level and +-inf none or all: P = 0 or I, and
    # NaN entries from fermi_dirac
    _, sp = spectral
    with pytest.raises(ValueError, match="e_f"):
        fermi_projection(sp, e_f)
    with pytest.raises(ValueError, match="e_f"):
        fermi_dirac(sp, 4.0, e_f)


def test_equilibrium_state_builders(spectral):
    _, sp = spectral
    e_f = float(np.median(sp.eigenvalues)) + 1e-3
    p = EquilibriumState("projection", e_f).build(sp)
    assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) < 1e-12
    fd = EquilibriumState("fermi_dirac", e_f, 3.0).build(sp)
    evals = np.linalg.eigvalsh(fd.matrix)
    assert evals.min() > 0.0 and evals.max() < 1.0


@pytest.mark.parametrize("kind", ["projection", "fermi_dirac"])
def test_profile_is_the_built_occupation_bit_for_bit(kind):
    # the Duhamel zeta(r) and the gauge-derivative basis read profile(); build
    # forms f(H) from its own selection of the spectrum; both must be one
    # function.  With V = I the built state is diag(f(E)), exactly: for the
    # projection, 1 on the columns it keeps and 0 elsewhere.
    e_f = -0.50003
    near = e_f + np.array([-1e-6, -1e-8, -2e-9, 2e-9, 1e-8, 1e-6])
    energies = np.sort(np.concatenate([np.linspace(-4.0, 4.0, 401), near]))
    state = EquilibriumState(kind, e_f, 3.0)
    built = state.build(SpectralData(energies, np.eye(energies.size), make_chain(energies.size)))
    assert np.array_equal(built.matrix, np.diag(state.profile()(energies)))


@pytest.mark.parametrize(
    "kind, e_f, beta",
    [
        ("fermi_dirac", 0.0, None),
        ("fermi-dirac", 0.0, 3.0),
        ("fermi_dirac", 0.0, -4.0),
        ("projection", float("nan"), None),
    ],
    ids=["fermi_dirac_without_beta", "misspelt_kind", "negative_beta", "nan_e_f"],
)
def test_equilibrium_state_checked_at_construction(kind, e_f, beta):
    # build and profile would disagree on each of these: a T = 0 step or an
    # inverted occupation from profile, an error or P = 0 from build
    with pytest.raises(ValueError):
        EquilibriumState(kind, e_f, beta)


def test_fermi_projection_is_the_spectral_step():
    # W W* over the occupied columns against (V diag f) V*
    model = make_torus((8, 8), 1, 4, sample_disorder(DisorderSpec(0.5, 42), 0, 64))
    sp = SpectralData.from_operator(build_hamiltonian(model))
    e_f = gap_fermi_level(model, 0.25)
    p = fermi_projection(sp, e_f)
    ref = apply_spectral(sp, lambda e: (e <= e_f).astype(float)).matrix
    assert np.linalg.norm(p.matrix - p.matrix.conj().T) <= 1e-12 * np.linalg.norm(p.matrix)
    assert np.max(np.abs(p.matrix - ref)) <= 1e-14
    assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) < 1e-12
    with pytest.raises(DegenerateFermiLevelError):
        fermi_projection(sp, float(sp.eigenvalues[16]))


# -- smooth functions and norms -----------------------------------------------------


def test_gaussian_derivatives_verified():
    f = gaussian_function(center=0.3, width=1.4)
    worst = verify_derivatives(f, [-2.0, -0.4, 0.9, 2.2], orders=range(1, 5))
    assert worst < 1e-6


def test_hs_norm_zero_function():
    zero = SmoothFunction(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda r, x: np.zeros_like(np.asarray(x, dtype=float)),
        m_max=6,
    )
    assert hs_norm(zero, 3) == 0.0


def test_hs_norm_positive_and_monotone():
    f = gaussian_function()
    values = [hs_norm(f, m) for m in range(4)]
    assert values[0] > 0
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_hs_norm_against_root_split_oracle():
    # |f^(r)| has a kink at each root of He_r, so the oracle integrates between
    # them, in pieces of at most unit length, by 40-node Gauss-Legendre
    center, width = 0.3, 1.4
    f = gaussian_function(center=center, width=width)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    oracle = 0.0
    for r in range(6):
        roots = np.sort(np.polynomial.hermite_e.hermeroots([0.0] * r + [1.0]))
        cuts = center + width * np.concatenate([[-14.0], roots, [14.0]])
        for a, b in zip(cuts[:-1], cuts[1:]):
            edges = np.linspace(a, b, int(np.ceil(b - a)) + 1)
            u = (edges[:-1, None] + edges[1:, None]) / 2 + np.diff(edges)[:, None] / 2 * nodes
            piece = np.abs(f.deriv(r, u)) * (1 + u**2) ** ((r - 1) / 2) @ weights
            oracle += float(np.sum(piece * np.diff(edges) / 2))
        assert abs(hs_norm(f, r) - oracle) < 1e-10 * oracle, r


def test_hs_norm_of_a_non_integrable_function_raises_with_its_estimate():
    # the constant 1: its order-0 integrand <u>^{-1} is not integrable
    one = SmoothFunction(
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        lambda r, x: np.zeros_like(np.asarray(x, dtype=float)),
        m_max=6,
    )
    with pytest.raises(QuadratureAccuracyError) as info:
        hs_norm(one, 2)
    assert 0 < info.value.estimate < np.inf


# -- contour calculus ----------------------------------------------------------------


def test_plateau_cutoff_and_its_derivative():
    # chi is 1 on |t| <= 1 and 0 on |t| >= 2, flat there; between, chi' is the slope of chi
    t = np.array([-3.0, -2.0, -1.0, -0.3, 0.0, 0.7, 1.0, 2.0, 2.5])
    chi, chi_prime = plateau_cutoff(t)
    assert np.array_equal(chi, (np.abs(t) <= 1.0).astype(float))
    assert np.array_equal(chi_prime, np.zeros_like(t))
    inside = np.concatenate([-np.linspace(1.05, 1.95, 19), np.linspace(1.05, 1.95, 19)])
    _, slope = plateau_cutoff(inside)
    h = 1e-6
    central = (plateau_cutoff(inside + h)[0] - plateau_cutoff(inside - h)[0]) / (2 * h)
    assert np.allclose(slope, central, rtol=1e-6, atol=1e-9)
    assert np.all(slope[inside > 0] < 0) and np.all(slope[inside < 0] > 0)


def test_hs_apply_scalar_case():
    model = make_chain(2, "open")
    h = CovariantOperator(np.zeros((2, 2)), model)
    f = gaussian_function()
    quad = HSQuadrature.for_spectrum(0.0, 0.0, order_m=3, nx=256, margin=8.0)
    approx, diag = hs_apply(h, f, quad)
    assert abs(approx.matrix[0, 0] - 1.0) < 1e-5
    assert np.isfinite(diag["abs_convergence_surrogate"])


def test_hs_apply_converges_to_spectral(rng):
    model = make_chain(24, "open")
    h = random_operator(model, rng, hermitian=True)
    sp = SpectralData.from_operator(h)
    f = gaussian_function()
    exact = apply_spectral(sp, f).matrix
    quad = HSQuadrature.for_spectrum(
        sp.eigenvalues[0], sp.eigenvalues[-1], order_m=4, nx=48, margin=8.0
    )
    errors = []
    for _ in range(3):
        approx, _ = hs_apply(h, f, quad)
        errors.append(np.linalg.norm(approx.matrix - exact, 2))
        quad = quad.refine()
    assert errors[-1] < 1e-4
    assert all(a / b >= 2.0 for a, b in zip(errors, errors[1:]))


def test_hs_apply_first_derivative_formula(rng):
    model = make_chain(16, "open")
    h = random_operator(model, rng, hermitian=True)
    sp = SpectralData.from_operator(h)
    f = gaussian_function()
    exact = apply_spectral(sp, lambda e: f.deriv(1, e)).matrix
    quad = HSQuadrature.for_spectrum(
        sp.eigenvalues[0], sp.eigenvalues[-1], order_m=5, nx=192, margin=8.0
    )
    approx = hs_apply_derivative(h, f, quad)
    assert np.linalg.norm(approx.matrix - exact, 2) < 1e-3


def test_hs_apply_coverage_error(rng):
    model = make_chain(8, "open")
    h = random_operator(model, rng, hermitian=True)
    quad = HSQuadrature(order_m=3, x_lo=-0.01, x_hi=0.01, y_max=2.0, nx=8, ny=8)
    with pytest.raises(CoverageError):
        hs_apply(h, gaussian_function(), quad)


def test_hs_quadrature_order_floor():
    with pytest.raises(ValueError):
        HSQuadrature(order_m=1, x_lo=-1, x_hi=1, y_max=1, nx=4, ny=4)


# -- position commutators --------------------------------------------------------------


def test_position_commutator_identity_and_diagonal(rng):
    model = make_chain(10, "torus")
    eye = CovariantOperator(np.eye(10), model)
    assert np.all(position_commutator(eye, 0).matrix == 0.0)
    diag = CovariantOperator(np.diag(rng.normal(size=10)), model)
    assert np.all(position_commutator(diag, 0).matrix == 0.0)


def test_position_commutator_matches_matrix_commutator_open(rng):
    model = make_chain(10, "open")
    a = random_operator(model, rng)
    x = position_matrix(model, 0).matrix
    oracle = x @ a.matrix - a.matrix @ x
    assert np.max(np.abs(position_commutator(a, 0).matrix - oracle)) < 1e-14


def test_position_commutator_dagger_antisymmetry_odd_torus(rng):
    model = make_chain(9, "torus")
    a = random_operator(model, rng, hermitian=True)
    lhs = position_commutator(a, 0).matrix.conj().T
    rhs = -position_commutator(a, 0).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_factorization_identity_open(rng):
    pot = sample_disorder(DisorderSpec(1.0, 3), 0, 10)
    model = make_chain(10, "open", pot)
    sp = SpectralData.from_operator(build_hamiltonian(model))
    g = apply_spectral(sp, gaussian_function().value)
    h_fn = apply_spectral(sp, lambda e: np.tanh(e))
    prod = CovariantOperator(g.matrix @ h_fn.matrix, model)
    lhs = position_commutator(prod, 0).matrix
    rhs = position_commutator(g, 0).matrix @ h_fn.matrix + g.matrix @ position_commutator(h_fn, 0).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_spectral_commutator_matches_minimal_image_open():
    pot = sample_disorder(DisorderSpec(1.5, 9), 0, 12)
    model = make_chain(12, "open", pot)
    sp = SpectralData.from_operator(build_hamiltonian(model))
    state = EquilibriumState("projection", gap_fermi_level(model, 0.5))
    zeta = state.build(sp)
    mi = 1j * position_commutator(zeta, 0).matrix
    gauge = spectral_position_commutator(sp, state, velocity_operator(model, 0).matrix).matrix
    assert np.max(np.abs(mi - gauge)) < 1e-10
    assert np.linalg.norm(gauge - gauge.conj().T) < 1e-12


# -- localization and resolvent decay ----------------------------------------------------


def test_localization_identity_all_zero():
    model = make_torus((6, 6), 1, 3)
    eye = CovariantOperator(np.eye(36), model)
    assert all(norm2(position_commutator(eye, axis)) == 0.0 for axis in range(2))


def test_localization_gapped_projector_stable_rate():
    rates, comms = {}, {}
    for length in (18, 24):
        model = make_torus((length, length), 1, 3)
        sp = SpectralData.from_operator(build_hamiltonian(model))
        e_f = gap_fermi_level(model, 1.0 / 3.0)
        p = fermi_projection(sp, e_f)
        rates[length] = localization_diagnostic(p)
        comms[length] = norm2(position_commutator(p, 0))
    assert all(rate > 0 for rate in rates.values())
    c18 = comms[18]
    c24 = comms[24]
    assert abs(c18 - c24) < 0.05 * max(c18, c24)


def test_localization_plane_wave_grows():
    norms = []
    for length in (8, 16, 32):
        model = make_chain(length, "torus")
        k0 = np.exp(2j * np.pi * np.arange(length) * 1 / length) / np.sqrt(length)
        p = CovariantOperator(np.outer(k0, k0.conj()), model)
        norms.append(norm2(position_commutator(p, 0)))
    assert norms[0] < norms[1] < norms[2]


def test_combes_thomas_zero_hamiltonian_exact_locality():
    model = make_chain(8, "open")
    h = CovariantOperator(np.zeros((8, 8)), model)
    rep = combes_thomas_probe(h, 1j)
    assert rep.exact_locality and rep.rate == np.inf


def test_combes_thomas_chain_fit():
    model = make_chain(64, "open")
    h = build_hamiltonian(model)
    rep = combes_thomas_probe(h, 3j)
    assert rep.rate > 0
    assert rep.r_squared > 0.95


def test_combes_thomas_rate_monotone_in_imaginary_part():
    model = make_chain(64, "open")
    h = build_hamiltonian(model)
    assert combes_thomas_probe(h, 4j).rate > combes_thomas_probe(h, 2j).rate


def test_combes_thomas_needs_complex_energy():
    model = make_chain(8, "open")
    h = build_hamiltonian(model)
    with pytest.raises(ValueError):
        combes_thomas_probe(h, 0.5 + 0j)


def test_commutator_norm_ratio_diagnostic_is_finite(rng):
    # empirical ||[x, f(H)]|| / |||f|||_3 across a Gaussian family: reported,
    # not asserted against any constant
    model = make_chain(16, "open")
    h = random_operator(model, rng, hermitian=True)
    sp = SpectralData.from_operator(h)
    for width in (0.5, 1.0, 2.0):
        f = gaussian_function(width=width)
        comm = np.linalg.norm(position_commutator(apply_spectral(sp, f.value), 0).matrix, 2)
        ratio = comm / hs_norm(f, 3)
        assert np.isfinite(ratio) and ratio > 0


def test_hs_apply_error_falls_with_order_and_grid(rng):
    # simultaneous refinement in grid and extension order keeps improving
    model = make_chain(16, "open")
    h = random_operator(model, rng, hermitian=True)
    sp = SpectralData.from_operator(h)
    f = gaussian_function()
    exact = apply_spectral(sp, f).matrix
    errors = []
    for order, nx in ((3, 32), (4, 64), (5, 128)):
        quad = HSQuadrature.for_spectrum(
            sp.eigenvalues[0], sp.eigenvalues[-1], order_m=order, nx=nx, margin=8.0
        )
        approx, _ = hs_apply(h, f, quad)
        errors.append(np.linalg.norm(approx.matrix - exact, 2))
    assert errors[0] > errors[1] > errors[2]
