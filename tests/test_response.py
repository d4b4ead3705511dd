import tracemalloc

import numpy as np
import pytest

from kubolab.model import (
    CovariantOperator,
    DisorderSpec,
    build_hamiltonian,
    sample_disorder,
    velocity_operator,
)
from kubolab.funcalc import (
    EquilibriumState,
    SpectralData,
    divided_difference_kernel,
    fermi_projection,
    position_commutator,
    spectral_position_commutator,
)
from kubolab.dynamics import DriveProtocol, TimeGrid, evolve_density_ode
from kubolab import response
from kubolab.opspace import hs_inner
from kubolab.response import (
    ResponseBasis,
    chern_number_fhs,
    equilibrium_current,
    eta_sweep,
    hall_scaled,
    net_current,
    sigma_finite_difference,
    sigma_kubo_integral,
    sigma_resolvent,
    sigma_streda,
)

from conftest import (
    gap_fermi_level, make_chain, make_torus, random_operator, random_projector, spectral_of,
)
from reference import (
    LiouvillianRep,
    evolve_density_duhamel_minimal_image,
    sigma_liouvillian_pathway,
    triple_commutator_check,
    velocity_projection_identity_defect,
)


# -- Liouvillian superoperator ---------------------------------------------------


@pytest.fixture
def liou(rng):
    model = make_chain(10, "open")
    h = random_operator(model, rng, hermitian=True)
    return model, h, LiouvillianRep(SpectralData.from_operator(h))


def test_liouvillian_acts_as_commutator(liou, rng):
    model, h, rep = liou
    b = random_operator(model, rng)
    lhs = rep.apply(b).matrix
    rhs = h.matrix @ b.matrix - b.matrix @ h.matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_liouvillian_hermitian_superoperator(liou, rng):
    model, _, rep = liou
    a = random_operator(model, rng)
    b = random_operator(model, rng)
    assert hs_inner(a, rep.apply(b)) == pytest.approx(hs_inner(rep.apply(a), b), abs=1e-12)


def test_liouvillian_exponential_is_conjugation(liou, rng):
    model, h, rep = liou
    b = random_operator(model, rng)
    t = 0.7
    evals, evecs = np.linalg.eigh(h.matrix)
    u = (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T
    oracle = u @ b.matrix @ u.conj().T
    assert np.linalg.norm(rep.evolve(t, b).matrix - oracle) < 1e-10


def test_resolvent_two_level_oracle():
    model = make_chain(2, "open")
    h = CovariantOperator(np.diag([0.0, 1.0]), model)
    rep = LiouvillianRep(SpectralData.from_operator(h))
    b = CovariantOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), model)
    out = rep.resolvent(1.0, b).matrix
    assert out[0, 1] == pytest.approx((1 + 1j) / 2)
    assert out[1, 0] == pytest.approx((1 - 1j) / 2)


def test_resolvent_diagonal_divides_by_eta(liou, rng):
    model, _, rep = liou
    b = CovariantOperator(np.diag(rng.normal(size=10)), model)
    # diagonal entries sit in Ker L up to eigenbasis rotation
    bt = rep.to_eigenbasis(b.matrix)
    diag = CovariantOperator(rep.from_eigenbasis(np.diag(np.diag(bt))), model)
    out = rep.resolvent(0.5, diag).matrix
    assert np.linalg.norm(out - diag.matrix / 0.5) < 1e-10


def test_resolvent_round_trip(liou, rng):
    model, h, rep = liou
    b = random_operator(model, rng)
    r = rep.resolvent(0.3, b).matrix
    reconstructed = 1j * (h.matrix @ r - r @ h.matrix) + 0.3 * r
    assert np.max(np.abs(reconstructed - b.matrix)) < 1e-12


def test_resolvent_requires_positive_eta(liou, rng):
    model, _, rep = liou
    b = random_operator(model, rng)
    with pytest.raises(ValueError):
        rep.resolvent(0.0, b)


def test_kernel_projection_basics(liou, rng):
    model, _, rep = liou
    bt = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    diag_part = CovariantOperator(rep.from_eigenbasis(np.diag(np.diag(bt))), model)
    off_part = CovariantOperator(rep.from_eigenbasis(bt - np.diag(np.diag(bt))), model)
    assert np.linalg.norm(rep.kernel_projection(diag_part, 1e-9).matrix) < 1e-12
    proj = rep.kernel_projection(off_part, 1e-9).matrix
    assert np.max(np.abs(proj - off_part.matrix)) < 1e-12
    twice = rep.kernel_projection(CovariantOperator(proj, model), 1e-9).matrix
    assert np.max(np.abs(twice - proj)) < 1e-12


def test_projected_commutator_in_kernel_complement():
    model = make_torus((6, 6), 1, 3)
    h = build_hamiltonian(model)
    sp = SpectralData.from_operator(h)
    rep = LiouvillianRep(sp)
    e_f = gap_fermi_level(model, 1.0 / 3.0)
    p = fermi_projection(sp, e_f)
    m = CovariantOperator(1j * position_commutator(p, 0).matrix, model)
    c = CovariantOperator(p.matrix @ m.matrix - m.matrix @ p.matrix, model)
    projected = rep.kernel_projection(c)
    assert np.linalg.norm(projected.matrix - c.matrix) < 1e-10


# -- currents --------------------------------------------------------------------


def test_net_current_zero_field():
    model = make_torus((4, 4), 1, 4)
    state = EquilibriumState("projection", gap_fermi_level(model, 0.25))
    drive = DriveProtocol(1.0, (0.0, 0.0))
    grid = TimeGrid(np.log(1e-12), 0.02)
    j = net_current(evolve_density_ode(spectral_of(model), drive, state, 0.0, grid), drive, state)
    assert np.max(np.abs(j)) < 1e-12


def test_net_current_odd_in_field():
    model = make_torus((4, 4), 1, 4)
    state = EquilibriumState("projection", gap_fermi_level(model, 0.25))
    grid = TimeGrid(np.log(1e-10), 0.01, truncation_tol=1e-10)
    delta = 1e-2
    spectral = spectral_of(model)

    def current(drive):
        return net_current(evolve_density_ode(spectral, drive, state, 0.0, grid), drive, state)

    j_plus = current(DriveProtocol(1.0, (0.0, delta)))
    j_minus = current(DriveProtocol(1.0, (0.0, -delta)))
    even_part = np.max(np.abs(j_plus + j_minus))
    assert even_part < 10.0 * delta**2


@pytest.mark.slow
def test_net_current_matches_streda_linear_response():
    model = make_torus((9, 9), 1, 3)
    e_f = gap_fermi_level(model, 1.0 / 3.0)
    state = EquilibriumState("projection", e_f)
    eta, emag = 0.35, 1e-3
    grid = TimeGrid(np.log(1e-8) / eta, 0.02, truncation_tol=1e-8)
    spectral = spectral_of(model)
    drive = DriveProtocol(eta, (0.0, emag))
    rho = evolve_density_duhamel_minimal_image(model, drive, state, 0.0, grid)
    j = net_current(rho, drive, state)
    target = sigma_streda(fermi_projection(spectral, e_f))[0, 1].real * emag
    assert abs(j[0] - target) < 0.05 * abs(target)


def test_equilibrium_current_clean_1d():
    model = make_chain(12, "torus")
    j = equilibrium_current(spectral_of(model), EquilibriumState("fermi_dirac", 0.0, 2.0))
    assert np.max(np.abs(j)) < 1e-10


def test_equilibrium_current_clean_gapped_flux():
    model = make_torus((12, 12), 1, 3)
    e_f = gap_fermi_level(model, 1.0 / 3.0)
    j = equilibrium_current(spectral_of(model), EquilibriumState("projection", e_f))
    assert np.max(np.abs(j)) < 1e-8


def test_equilibrium_current_vanishes_identically_without_field():
    # time reversal: v purely imaginary antisymmetric, f(H) real symmetric
    pot = sample_disorder(DisorderSpec(2.0, 31), 0, 36)
    model = make_torus((6, 6), potential=pot)
    j = equilibrium_current(spectral_of(model), EquilibriumState("fermi_dirac", -0.5, 3.0))
    assert np.max(np.abs(j)) < 1e-14


# -- conductivity routes -----------------------------------------------------------


def _basis(spectral, state, kernel):
    """The minimal-image basis, or its gauge-derivative sibling."""
    basis = ResponseBasis.of(spectral, state)
    return basis.gauge_derivative() if kernel == "gauge_derivative" else basis


def _disordered_flux_quarter():
    pot = sample_disorder(DisorderSpec(0.5, 42), 0, 64)
    model = make_torus((8, 8), 1, 4, pot)
    e_f = gap_fermi_level(model, 0.25)
    return model, EquilibriumState("projection", e_f), e_f


def test_sigma_resolvent_zero_for_trivial_state():
    model, _, _ = _disordered_flux_quarter()
    evals = np.linalg.eigvalsh(build_hamiltonian(model).matrix)
    state = EquilibriumState("projection", evals[-1] + 1.0)  # zeta = I
    sigma = sigma_resolvent(ResponseBasis.of(spectral_of(model), state), 0.5)
    assert np.max(np.abs(sigma)) < 1e-12


def test_kubo_integral_matches_resolvent():
    model, state, _ = _disordered_flux_quarter()
    spectral = spectral_of(model)
    for kernel in ("minimal_image", "gauge_derivative"):
        basis = _basis(spectral, state, kernel)
        res = sigma_resolvent(basis, 0.5)
        kubo = sigma_kubo_integral(basis, 0.5)
        assert np.max(np.abs(kubo - res)) < 1e-6


def test_kubo_quadrature_refinement():
    model, state, _ = _disordered_flux_quarter()
    basis = ResponseBasis.of(spectral_of(model), state)
    res = sigma_resolvent(basis, 0.5)
    coarse = sigma_kubo_integral(basis, 0.5, panel_width=4.0, panel_order=4)
    fine = sigma_kubo_integral(basis, 0.5, panel_width=2.0, panel_order=4)
    assert np.max(np.abs(fine - res)) < np.max(np.abs(coarse - res))


def _kubo_per_node(basis, eta, s_min=None, panel_width=0.5, panel_order=10):
    """Reference quadrature: evolve i[x_k, zeta] to every node and take one
    trace per node and axis pair."""
    d, n = len(basis.m_tilde), len(basis.energies)
    gaps = basis.energies[:, None] - basis.energies[None, :]
    if s_min is None:
        s_min = float(np.log(1e-12) / eta)
    nodes, weights = np.polynomial.legendre.leggauss(panel_order)
    edges = np.linspace(s_min, 0.0, max(1, int(np.ceil(-s_min / panel_width))) + 1)
    sigma = np.zeros((d, d), dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for x, w in zip(nodes, weights):
            r = mid + half * x
            phase = np.exp(1j * r * gaps)
            weight = w * half * np.exp(eta * r)
            for k in range(d):
                evolved = phase * basis.m_tilde[k]
                for j in range(d):
                    sigma[j, k] += -2.0 * weight * np.sum(basis.d_tilde_t[j] * evolved) / n
    return sigma


@pytest.mark.parametrize("kernel", ["minimal_image", "gauge_derivative"])
@pytest.mark.parametrize(
    "quadrature, etas, disorder_w",
    [
        ({}, (1.0, 0.25), 1.0),
        ({"s_min": -20.0, "panel_width": 1.5, "panel_order": 6}, (1.0, 0.25), 1.0),
        ({"s_min": -0.3, "panel_width": 0.5}, (1.0, 0.25), 1.0),
        # 20 panels on N = 16 sites, a count that is no multiple of N
        ({"s_min": -10.0, "panel_width": 0.5, "panel_order": 3}, (1.0, 0.25), 1.0),
        # eta = 0.05 spans P = 1,106 panels on N = 16 sites, so P >> N
        ({}, (0.05,), 1.0),
        # the clean flux-1/4 torus: its degenerate levels give exact w = 0
        # pairs off the diagonal
        ({}, (1.0, 0.25), 0.0),
    ],
    ids=["default", "coarse", "one_panel", "partial_block", "small_eta", "clean_degenerate"],
)
def test_kubo_integral_matches_per_node_sum(kernel, quadrature, etas, disorder_w):
    pot = sample_disorder(DisorderSpec(1.0, 8), 0, 16) if disorder_w else None
    model = make_torus((4, 4), 1, 4, pot)
    state = EquilibriumState("projection", gap_fermi_level(model, 0.25))
    basis = _basis(spectral_of(model), state, kernel)
    for eta in etas:
        kubo = sigma_kubo_integral(basis, eta, **quadrature)
        ref = _kubo_per_node(basis, eta, **quadrature)
        assert np.max(np.abs(kubo - ref)) <= 1e-12


def test_kubo_integral_memory_is_independent_of_panel_count():
    # eta = 0.01 spans P = 5,527 panels on N = 64 sites; the panel factor is
    # a closed-form sum over them, made of N x N arrays only, so no N x P
    # temporary is made
    model, state, _ = _disordered_flux_quarter()
    basis = ResponseBasis.of(spectral_of(model), state)
    n = len(basis.energies)
    tracemalloc.start()
    try:
        sigma_kubo_integral(basis, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n * 16


def test_kubo_integral_exponentials_are_independent_of_panel_count(monkeypatch):
    # eta = 1 spans 56 panels and eta = 0.001 spans 55,263: the same number
    # of elements goes through np.exp for both
    model, state, _ = _disordered_flux_quarter()
    basis = ResponseBasis.of(spectral_of(model), state)
    sigma_kubo_integral(basis, 1.0)  # the quadrature rule is built on first use
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    elements = []
    for eta in (1.0, 0.001):
        counted.clear()
        sigma_kubo_integral(basis, eta)
        elements.append(sum(counted))
    assert elements[0] == elements[1] > 0


@pytest.mark.parametrize(
    "bad, name",
    [
        ({"s_min": 0.0}, "s_min"),
        ({"s_min": 5.0}, "s_min"),
        ({"panel_width": -1.0}, "panel_width"),
        ({"panel_width": 0.0}, "panel_width"),
        ({"panel_order": 0}, "panel_order"),
    ],
    ids=["s_min_zero", "s_min_positive", "width_negative", "width_zero", "order_zero"],
)
def test_kubo_integral_rejects_bad_quadrature(bad, name):
    model, state, _ = _disordered_flux_quarter()
    basis = ResponseBasis.of(spectral_of(model), state)
    with pytest.raises(ValueError, match=name):
        sigma_kubo_integral(basis, 0.5, **bad)


def _sigma_site_basis(spectral, state, eta, kernel):
    """Reference resolvent route in the site basis: -2 tr(D_j (iL + eta)^{-1} M_k) / N
    with M_k = i[x_k, zeta] built as a site-basis operator."""
    model = spectral.model
    liou = LiouvillianRep(spectral)
    d, n = model.config.dimension, model.n_sites
    if kernel == "minimal_image":
        zeta = state.build(spectral)
        m_ops = [CovariantOperator(1j * position_commutator(zeta, k).matrix, model) for k in range(d)]
    else:
        m_ops = [
            spectral_position_commutator(spectral, state, velocity_operator(model, k).matrix)
            for k in range(d)
        ]
    sigma = np.zeros((d, d), dtype=complex)
    for k in range(d):
        r = liou.resolvent(eta, m_ops[k]).matrix
        for j in range(d):
            sigma[j, k] = -2.0 * np.trace(velocity_operator(model, j).matrix / 2.0 @ r) / n
    return sigma


@pytest.mark.parametrize("kernel", ["minimal_image", "gauge_derivative"])
def test_resolvent_matches_site_basis_trace(kernel):
    pot = sample_disorder(DisorderSpec(1.0, 8), 0, 16)
    model = make_torus((4, 4), 1, 4, pot)
    state = EquilibriumState("projection", gap_fermi_level(model, 0.25))
    spectral = spectral_of(model)
    basis = _basis(spectral, state, kernel)
    for eta in (1.0, 0.25):
        ref = _sigma_site_basis(spectral, state, eta, kernel)
        assert np.max(np.abs(sigma_resolvent(basis, eta) - ref)) <= 1e-12


@pytest.mark.parametrize("kind, beta", [("projection", None), ("fermi_dirac", 4.0)])
def test_gauge_derivative_basis_is_the_divided_difference_of_v_tilde(kind, beta):
    # the sibling reads V~_k = 2 D~_k^T from its basis; V* v_k V built from
    # scratch gives the same divided difference, bit for bit
    pot = sample_disorder(DisorderSpec(1.0, 8), 0, 16)
    model = make_torus((4, 4), 1, 4, pot)
    state = EquilibriumState(kind, gap_fermi_level(model, 0.25), beta)
    spectral = spectral_of(model)
    basis = ResponseBasis.of(spectral, state)
    gauge = basis.gauge_derivative()
    assert gauge.energies is basis.energies and gauge.d_tilde_t is basis.d_tilde_t
    assert gauge.state is state
    e, v = spectral.eigenvalues, spectral.eigenvectors
    f, fp = state.profile()(e), state.profile_derivative()(e)
    for k, mt in enumerate(gauge.m_tilde):
        v_tilde = v.conj().T @ velocity_operator(model, k).matrix @ v
        assert np.array_equal(mt, divided_difference_kernel(e, f, fp, v_tilde))


def test_fd_matches_resolvent_small_1d():
    pot = sample_disorder(DisorderSpec(2.0, 17), 0, 8)
    model = make_chain(8, "torus", pot)
    e_f = gap_fermi_level(model, 0.5)
    state = EquilibriumState("projection", e_f)
    eta = 1.0
    grid = TimeGrid(np.log(1e-10), 0.005, truncation_tol=1e-10)
    spectral = spectral_of(model)
    fd = sigma_finite_difference(spectral, state, eta, grid)
    res = sigma_resolvent(ResponseBasis.of(spectral, state).gauge_derivative(), eta)
    assert np.max(np.abs(fd - res)) < 1e-3


def test_sigma_requires_positive_eta():
    model, state, _ = _disordered_flux_quarter()
    basis = ResponseBasis.of(spectral_of(model), state)
    with pytest.raises(ValueError):
        sigma_resolvent(basis, -0.1)
    with pytest.raises(ValueError):
        sigma_kubo_integral(basis, 0.0)


@pytest.mark.parametrize("route", ["resolvent", "kubo_integral", "eta_sweep"])
def test_non_finite_eta_rejected(route):
    model, state, _ = _disordered_flux_quarter()
    spectral = spectral_of(model)
    basis = ResponseBasis.of(spectral, state)
    call = {
        "resolvent": lambda eta: sigma_resolvent(basis, eta),
        "kubo_integral": lambda eta: sigma_kubo_integral(basis, eta),
        "eta_sweep": lambda eta: eta_sweep(spectral, state, [eta]),
    }[route]
    for eta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eta"):
            call(eta)


# -- Streda form and structure --------------------------------------------------------


def test_streda_antisymmetric_zero_diagonal():
    model, _, e_f = _disordered_flux_quarter()
    sigma = sigma_streda(fermi_projection(spectral_of(model), e_f))
    assert np.max(np.abs(sigma + sigma.T)) < 1e-10
    assert abs(sigma[0, 0]) < 1e-14 and abs(sigma[1, 1]) < 1e-14


def test_streda_structure_is_exact():
    model, _, e_f = _disordered_flux_quarter()
    chain = make_chain(12, "torus", sample_disorder(DisorderSpec(1.0, 4), 0, 12))
    for m, ef in ((model, e_f), (chain, gap_fermi_level(chain, 0.5))):
        sigma = sigma_streda(fermi_projection(spectral_of(m), ef))
        assert np.all(np.diag(sigma) == 0)
        assert np.array_equal(sigma, -sigma.T)


def test_streda_holds_one_product_at_a_time():
    # M_0, M_1, one P M_j and one entrywise product; the displacement tables are warm
    model = make_torus((12, 12), 1, 3, sample_disorder(DisorderSpec(0.5, 7), 0, 144))
    p = fermi_projection(spectral_of(model), gap_fermi_level(model, 1.0 / 3.0))
    sigma_streda(p)
    tracemalloc.start()
    try:
        sigma_streda(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * model.n_sites**2 * 16


def test_streda_time_reversal_odd_torus():
    pot = sample_disorder(DisorderSpec(2.0, 23), 0, 81)
    model = make_torus((9, 9), potential=pot)
    e_f = gap_fermi_level(model, 0.5)
    assert np.max(np.abs(sigma_streda(fermi_projection(spectral_of(model), e_f)))) < 1e-10


def test_streda_quantized_at_l6():
    model = make_torus((6, 6), 1, 3)
    e_f = gap_fermi_level(model, 1.0 / 3.0)
    p = fermi_projection(spectral_of(model), e_f)
    assert abs(abs(hall_scaled(sigma_streda(p))) - 1.0) < 0.06


def test_triple_commutator_trivial_projectors():
    model = make_chain(8, "open")
    zero = CovariantOperator(np.zeros((8, 8)), model)
    eye = CovariantOperator(np.eye(8), model)
    assert triple_commutator_check(zero) == 0.0
    assert triple_commutator_check(eye) == 0.0


def test_triple_commutator_exact_open_box(rng):
    model = make_chain(8, "open")
    p = random_projector(model, rng, rank=3)
    assert triple_commutator_check(p) < 1e-12


def test_triple_commutator_torus_decays_with_size():
    defects = {}
    for length in (6, 12):
        model = make_torus((length, length), 1, 3)
        sp = SpectralData.from_operator(build_hamiltonian(model))
        p = fermi_projection(sp, gap_fermi_level(model, 1.0 / 3.0))
        defects[length] = triple_commutator_check(p)
    assert defects[12] < defects[6]
    assert defects[12] < 0.1


def test_velocity_projection_identity_open(rng):
    pot = sample_disorder(DisorderSpec(1.0, 12), 0, 12)
    model = make_chain(12, "open", pot)
    e_f = gap_fermi_level(model, 0.5)
    spectral = spectral_of(model)
    assert velocity_projection_identity_defect(spectral, e_f, 0) < 1e-10
    plateau = lambda e: np.exp(-0.05 * np.asarray(e) ** 2)
    assert velocity_projection_identity_defect(spectral, e_f, 0, profile=plateau) < 1e-10


def test_sigma_liouvillian_pathway_matches_resolvent_open():
    pot = sample_disorder(DisorderSpec(1.0, 14), 0, 12)
    model = make_chain(12, "open", pot)
    e_f = gap_fermi_level(model, 0.5)
    state = EquilibriumState("projection", e_f)
    eta = 0.4
    spectral = spectral_of(model)
    lhs = sigma_liouvillian_pathway(spectral, e_f, eta)
    rhs = sigma_resolvent(ResponseBasis.of(spectral, state), eta)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


# -- Chern oracle ------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,q,n_occ,expected",
    [(1, 3, 1, 1), (1, 3, 2, 1), (1, 4, 1, 1), (2, 5, 1, 2)],
)
def test_chern_oracle_known_values(p, q, n_occ, expected):
    c = chern_number_fhs(p, q, n_occ)
    assert abs(abs(c) - expected) < 1e-10


@pytest.mark.parametrize("p,q,n_occ", [(1, 2, 1), (1, 4, 2), (1, 6, 3)])
def test_chern_oracle_refuses_unresolved_bands(p, q, n_occ):
    # flux 1/2: plaquette phases at pi; 1/4: Dirac points on the grid, a zero
    # direct gap; 1/6: the grid skips the touching point, but a phase reaches 2.88
    with pytest.raises(ValueError, match="no Chern integer"):
        chern_number_fhs(p, q, n_occ)


def test_chern_oracle_grid_independent():
    a = chern_number_fhs(1, 3, 1, nk1=12, nk2=12)
    b = chern_number_fhs(1, 3, 1, nk1=24, nk2=24)
    assert a == pytest.approx(b, abs=1e-10)


def _bloch_row_by_row(p, q, k1, k2):
    phi = p / q
    h = np.zeros((q, q), dtype=complex)
    for j in range(q):
        h[j, j] += -2.0 * np.cos(k2 - 2.0 * np.pi * phi * j)
        h[j, (j + 1) % q] += -np.exp(1j * k1)
        h[j, (j - 1) % q] += -np.exp(-1j * k1)
    return h


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (1, 3), (2, 5)])
def test_chern_oracle_builds_its_k_grid_in_one_call(monkeypatch, p, q):
    # q = 1 and 2 put several hops on one entry of the Bloch matrix
    k1s = np.linspace(0.0, 2.0 * np.pi / q, 5, endpoint=False)
    k2s = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
    stack = response.hofstadter_bloch(p, q, k1s[:, None], k2s[None, :])
    assert stack.shape == (5, 7, q, q)
    for i1, k1 in enumerate(k1s):
        for i2, k2 in enumerate(k2s):
            assert stack[i1, i2].tobytes() == _bloch_row_by_row(p, q, k1, k2).tobytes()
            assert response.hofstadter_bloch(p, q, k1, k2).tobytes() == stack[i1, i2].tobytes()
    calls = []
    bloch = response.hofstadter_bloch
    monkeypatch.setattr(response, "hofstadter_bloch", lambda *args: calls.append(args) or bloch(*args))
    chern_number_fhs(1, 3, 1, nk1=6, nk2=6)
    assert len(calls) == 1


# -- sweep and report ------------------------------------------------------------------


def test_eta_sweep_consistency_and_monotonicity():
    model = make_torus((6, 6), 1, 3)
    e_f = gap_fermi_level(model, 1.0 / 3.0)
    state = EquilibriumState("projection", e_f)
    spectral = spectral_of(model)
    etas = [1.0, 0.5, 0.25]
    streda, res, kubo, fd, fd_gap = eta_sweep(spectral, state, etas)
    assert fd is None and fd_gap is None
    assert np.array_equal(streda, sigma_streda(fermi_projection(spectral, e_f)))
    basis = ResponseBasis.of(spectral, state)
    assert len(res) == len(kubo) == len(etas)
    for eta, r, k in zip(etas, res, kubo):
        assert np.array_equal(r, sigma_resolvent(basis, eta))
        assert np.array_equal(k, sigma_kubo_integral(basis, eta))
    gaps = [float(np.max(np.abs(r - streda))) for r in res]
    assert gaps[0] > gaps[1] > gaps[2]
    assert np.max(np.abs(res.imag)) < 1e-8


def test_eta_sweep_finite_difference_arrays():
    model = make_torus((4, 4), 1, 4)
    state = EquilibriumState("projection", gap_fermi_level(model, 0.25))
    spectral = spectral_of(model)
    etas = [4.0, 2.0]

    def grid_for(eta):
        return TimeGrid(np.log(1e-12) / eta, 0.02)

    _, _, _, fd, fd_gap = eta_sweep(spectral, state, etas, grid_for)
    basis = ResponseBasis.of(spectral, state).gauge_derivative()
    assert len(fd) == len(fd_gap) == len(etas)
    for eta, f, gap in zip(etas, fd, fd_gap):
        assert np.array_equal(f, sigma_finite_difference(spectral, state, eta, grid_for(eta)))
        assert gap == float(np.max(np.abs(f - sigma_resolvent(basis, eta))))


def test_eta_sweep_requires_descending():
    model = make_torus((6, 6), 1, 3)
    state = EquilibriumState("projection", gap_fermi_level(model, 1.0 / 3.0))
    with pytest.raises(ValueError):
        eta_sweep(spectral_of(model), state, [0.5, 1.0])


def test_streda_volume_consistency():
    # doubling L on the gapped clean configuration moves sigma by < 0.01
    values = {}
    for length in (6, 12):
        model = make_torus((length, length), 1, 3)
        e_f = gap_fermi_level(model, 1.0 / 3.0)
        values[length] = sigma_streda(fermi_projection(spectral_of(model), e_f))[0, 1].real
    assert abs(values[12] - values[6]) < 0.01
