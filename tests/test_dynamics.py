import tracemalloc
from functools import partial

import numpy as np
import pytest

from kubolab import dynamics
from kubolab.acceptance import THRESHOLDS
from kubolab.model import (
    ConfigurationError,
    DisorderSpec,
    FluxSpec,
    LatticeConfig,
    LatticeModel,
    UnsupportedOperationError,
    build_hamiltonian,
    displacement_table,
    sample_disorder,
    shift_disorder,
)
from kubolab.funcalc import EquilibriumState, SpectralData, divided_difference_kernel
from kubolab.dynamics import (
    DriveProtocol,
    StepSizeError,
    TimeGrid,
    duhamel_residual,
    evolve_density_duhamel,
    evolve_density_ode,
    free_propagator,
    gauge_equivalence_check,
    gauge_operator,
    propagate,
    propagator_weight_check,
)
from kubolab.opspace import norm2, norms, trace_per_unit_volume
from kubolab.model import CovariantOperator

from conftest import forward_hops, gap_fermi_level, make_chain, make_torus, spectral_of
from reference import (
    evolve_density_duhamel_minimal_image,
    gauge_equivalence_two_marches,
    magnetic_translation,
    riemann_product,
    rk4_propagator,
)


S_MIN = float(np.log(1e-12))
# U(t, s) as a matrix, by the library's magnus2 march and by the two references
PROPAGATORS = {
    "riemann_product": riemann_product,
    "magnus2": lambda *args: propagate(*args).matrix,
    "ode_rk4": rk4_propagator,
}


# -- drive protocol ------------------------------------------------------------


def test_field_switching_profile():
    drive = DriveProtocol(2.0, (0.3,))
    assert np.allclose(drive.field_at(-1.0), 0.3 * np.exp(-2.0))
    assert np.allclose(drive.field_at(0.0), 0.3)
    assert np.allclose(drive.field_at(5.0), 0.3)  # constant for t >= 0


def test_f_integral_derivative_is_field():
    drive = DriveProtocol(0.7, (0.2, -0.1))
    for t in (-3.0, -0.5, 0.4, 2.0):
        h = 1e-6
        deriv = (drive.f_integral(t + h) - drive.f_integral(t - h)) / (2 * h)
        assert np.allclose(deriv, drive.field_at(t), atol=1e-8)


def test_f_integral_vanishes_at_minus_infinity():
    drive = DriveProtocol(1.0, (0.5,))
    assert np.linalg.norm(drive.f_integral(np.log(1e-12) / drive.eta)) < 1e-12


def test_positive_rate_required():
    # a NaN rate fails here, not later inside eigh; an infinite one would
    # make H(0) NaN (eta * t = inf * 0)
    for eta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            DriveProtocol(eta, (0.1,))


def test_finite_field_required():
    # a NaN component would count as a driven axis and make H(t) NaN
    for field in ((float("nan"), 0.0), (0.0, float("inf"))):
        with pytest.raises(ConfigurationError):
            DriveProtocol(1.0, field)


def test_grid_truncation_validated():
    drive = DriveProtocol(1.0, (0.1,))
    # a NaN s_min or step fails here, not later as a step count
    for s_min, step in ((-5.0, 0.01), (float("nan"), 0.01), (S_MIN, 0.0), (S_MIN, float("nan"))):
        with pytest.raises(ConfigurationError):
            TimeGrid(s_min, step).validate(drive)


def test_grid_tolerance_is_keyword_only():
    # a stale integrator name in third place fails, not sets the tolerance to a string
    with pytest.raises(TypeError):
        TimeGrid(S_MIN, 0.01, "magnus2")


# -- driven Hamiltonian and gauge -------------------------------------------------


def test_h_at_zero_field_is_undriven():
    model = make_torus((4, 4))
    # (-0.0, -0.0) is the field of the FD route's minus run at zero field
    for field in ((0.0, 0.0), (-0.0, -0.0)):
        drive = DriveProtocol(1.0, field)
        h = dynamics._h_at(model, drive, 0.0)
        assert h.tobytes() == build_hamiltonian(model).matrix.tobytes(), field


def test_h_at_early_time_limit():
    pot = sample_disorder(DisorderSpec(1.0, 2), 0, 16)
    model = make_torus((4, 4), potential=pot)
    drive = DriveProtocol(1.0, (0.1, 0.2))
    h0 = build_hamiltonian(model).matrix
    diff = np.linalg.norm(dynamics._h_at(model, drive, S_MIN) - h0)
    assert diff < 1e-10 * np.linalg.norm(h0)


def test_integer_flux_periodicity_1d_torus():
    model = make_chain(6, "torus")
    eta = 1.0
    drive = DriveProtocol(eta, (2.0 * np.pi * eta,))  # F(0) = 2 pi
    assert np.allclose(
        dynamics._h_at(model, drive, 0.0),
        build_hamiltonian(model).matrix,
        atol=1e-12,
    )


def test_driven_hamiltonian_covariant_on_torus():
    pot = sample_disorder(DisorderSpec(1.0, 13), 0, 36)
    model = make_torus((6, 6), 1, 3, pot)
    drive = DriveProtocol(1.0, (0.05, 0.1))
    a = (2, 1)
    u = magnetic_translation(model, a).matrix
    shifted = shift_disorder(model, a)
    for t in (-2.0, 0.0):
        lhs = u @ dynamics._h_at(model, drive, t) @ u.conj().T
        rhs = dynamics._h_at(shifted, drive, t)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def _h_phasing_every_hop(model, drive, t):
    """H(t) assembled the direct way: every axis's forward hops times their
    phase, plus the conjugate transpose of the sum, plus the potential."""
    scale = np.exp(drive.eta * min(t, 0.0)) / drive.eta + max(t, 0.0)
    d = model.config.dimension
    h = np.exp(1j * scale * drive.field[0]) * forward_hops(model, 0)
    for axis in range(1, d):
        h = h + np.exp(1j * scale * drive.field[axis]) * forward_hops(model, axis)
    h = h + h.conj().T
    h[np.diag_indices_from(h)] += model.potential
    return h


def _v_phasing_every_hop(model, drive, t, axis):
    """v_axis(t) the direct way: -i (P - P*) for P the phased forward hops."""
    scale = np.exp(drive.eta * min(t, 0.0)) / drive.eta + max(t, 0.0)
    part = np.exp(1j * scale * drive.field[axis]) * forward_hops(model, axis)
    return -1j * (part - part.conj().T)


def _bonds_and_diagonal(model):
    """Mask of the entries H can hold: the diagonal and both ends of every bond."""
    mask = np.eye(model.n_sites, dtype=bool)
    for head, tail, _ in model.bonds:
        mask[head, tail] = mask[tail, head] = True
    return mask


@pytest.mark.parametrize(
    "config,flux",
    [
        (LatticeConfig(1, (8,), "open"), FluxSpec()),
        (LatticeConfig(2, (6, 6), "torus"), FluxSpec()),
        (LatticeConfig(2, (6, 6), "torus"), FluxSpec(1, 3)),
        (LatticeConfig(2, (4, 5), "open"), FluxSpec()),
        (LatticeConfig(2, (4, 5), "open"), FluxSpec(1, 3)),
    ],
    ids=["chain-open", "torus-flux0", "torus-flux1/3", "box-flux0", "box-flux1/3"],
)
@pytest.mark.parametrize("disorder", [0.0, 1.0])
def test_h_at_is_bitwise_the_phase_every_hop_formula(config, flux, disorder):
    pot = sample_disorder(DisorderSpec(disorder, 5), 0, config.n_sites)
    model = LatticeModel(config, flux, pot)
    d = config.dimension
    support = _bonds_and_diagonal(model)
    for driven in [(0,)] if d == 1 else [(0,), (1,), (0, 1)]:
        field = tuple(0.7 if axis in driven else 0.0 for axis in range(d))
        # the negated field has -0.0 on the undriven axes, as the FD route's minus run
        for e in (field, tuple(-x for x in field)):
            drive = DriveProtocol(1.0, e)
            # t = 2.5 puts the phase F(t) = 2.45 in the second quadrant, where
            # the phased zeros carry a negative sign
            for t in (-3.0, 0.0, 2.5):
                ref = _h_phasing_every_hop(model, drive, t)
                h = dynamics._h_at(model, drive, t)
                # off the bonds H(t) holds +0, where the dense c * 0 products may give -0
                assert h[support].tobytes() == ref[support].tobytes(), (driven, e, t)
                assert h[~support].tobytes() == bytes(h[~support].nbytes), (driven, e, t)
                for axis in range(d):
                    v = dynamics._v_at(model, drive, t, axis)
                    assert np.array_equal(v, _v_phasing_every_hop(model, drive, t, axis)), (driven, e, t, axis)


def test_h_at_returns_a_fresh_array():
    pot = sample_disorder(DisorderSpec(1.0, 6), 0, 16)
    model = make_torus((4, 4), 1, 4, pot)
    for field in ((0.0, 0.0), (0.0, 0.1), (0.3, 0.1)):
        drive = DriveProtocol(1.0, field)
        expect = _h_phasing_every_hop(model, drive, -1.0)
        dynamics._h_at(model, drive, -1.0)[:] = 7.0
        dynamics._h_at(model, drive, [-1.0])[:] = 7.0
        assert np.array_equal(dynamics._h_at(model, drive, -1.0), expect)
        assert np.array_equal(dynamics._h_at(model, drive, [-1.0])[0], expect)


@pytest.mark.parametrize(
    "model,field",
    [
        (make_torus((6, 6), 1, 3, sample_disorder(DisorderSpec(1.0, 9), 0, 36)), (0.0, 0.1)),
        (make_torus((6, 6), 1, 3, sample_disorder(DisorderSpec(1.0, 9), 0, 36)), (0.05, -0.1)),
        (make_chain(8, "open"), (0.2,)),
    ],
    ids=["flux-torus-axis1", "flux-torus-both", "chain-open"],
)
def test_stacked_h_at_is_bitwise_per_time(model, field):
    # a march's stage times, computed as arrays for the stack and as Python
    # floats for the per-time calls; F(t) too, one row per time
    drive = DriveProtocol(2.0, field)
    s, n = float(np.log(1e-12) / drive.eta), 40
    h = (0.0 - s) / n
    ks = np.arange(n)
    stages = [
        (s + ks * h, lambda k: s + k * h),
        ((s + ks * h) + h / 2, lambda k: (s + k * h) + h / 2),
        ((s + ks * h) + h, lambda k: (s + k * h) + h),
        (s + (ks + 0.5) * h, lambda k: s + (k + 0.5) * h),
    ]
    for times, at in stages:
        stack = dynamics._h_at(model, drive, times)
        f = drive.f_integral(times)
        assert stack.shape == (n, model.n_sites, model.n_sites) and f.shape == (n, len(field))
        for k in range(n):
            assert stack[k].tobytes() == dynamics._h_at(model, drive, at(k)).tobytes(), k
            assert f[k].tobytes() == drive.f_integral(at(k)).tobytes(), k


def test_driven_path_retains_less_than_one_matrix():
    # H(t) and v(t) are scattered from the bond list; no dense hop or static part stays on the model
    model = make_torus((12, 12), 1, 3, sample_disorder(DisorderSpec(0.5, 7), 0, 144))
    drive = DriveProtocol(1.0, (0.1, 0.2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dynamics._h_at(model, drive, 0.0)
        dynamics._v_at(model, drive, 0.0, 0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < model.n_sites**2 * 16


def test_v_at_matches_undriven_limit():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.3, 0.0))
    from kubolab.model import velocity_operator

    assert np.allclose(
        dynamics._v_at(model, drive, S_MIN, 0),
        velocity_operator(model, 0).matrix,
        atol=1e-10,
    )


def test_gauge_operator_zero_field_identity():
    model = make_chain(4, "open")
    drive = DriveProtocol(1.0, (0.0,))
    assert np.allclose(gauge_operator(model, drive, -50.0).matrix, np.eye(4))


def test_gauge_operator_unit_modulus_and_values():
    model = make_chain(4, "open")
    eta = 1.0
    drive = DriveProtocol(eta, (np.pi * eta,))  # F(0) = pi
    g = gauge_operator(model, drive, 0.0).matrix
    assert np.allclose(np.abs(np.diag(g)), 1.0)
    assert np.allclose(np.diag(g), [1, -1, 1, -1], atol=1e-12)


# -- propagators -----------------------------------------------------------------


@pytest.mark.parametrize(
    "method,step", [("riemann_product", 0.01), ("magnus2", 0.01), ("ode_rk4", 0.001)]
)
def test_free_case_matches_exponential(method, step):
    pot = sample_disorder(DisorderSpec(1.0, 4), 0, 16)
    model = make_torus((4, 4), potential=pot)
    drive = DriveProtocol(1.0, (0.0, 0.0))
    spectral = SpectralData.from_operator(build_hamiltonian(model))
    u = PROPAGATORS[method](model, drive, 0.0, -2.0, TimeGrid(S_MIN, step))
    assert np.linalg.norm(u - free_propagator(spectral, 2.0)) < 1e-10


def _random_hermitian_stack(seed, count, n=36):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return a + a.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("theta", [1e-3, 0.02, 0.5])
def test_expm_taylor_matches_eigh_route(theta):
    # theta = ||x||_inf, the Taylor degree's input: 0.02 on the bench's magnus2
    # march, 0.5 the step-size guard's limit of h ||H||
    hs = _random_hermitian_stack(11, 3)
    h = theta / np.abs(hs).sum(axis=-1).max()
    taylor = dynamics._expm_taylor(hs.copy(), -1j * h)
    for u, hm in zip(taylor, hs):
        assert np.abs(u - dynamics._expm_hermitian(np.linalg.eigh(hm), -1j * h)).max() <= 1e-14


def test_expm_taylor_one_matrix_stack():
    model = make_torus((6, 6), 1, 3)
    u = dynamics._expm_taylor(build_hamiltonian(model).matrix[None], -0.01j)
    assert u.shape == (1, 36, 36)
    assert np.abs(u[0] - free_propagator(spectral_of(model), 0.01)).max() <= 1e-14


def test_expm_taylor_as_unitary_as_eigh_route():
    hs = _random_hermitian_stack(5, 8)
    hs *= 4.0 / np.abs(hs).sum(axis=-1).max(axis=-1)[:, None, None]  # ||H||_inf = 4
    eye = np.eye(36)

    def defect(u):
        return np.linalg.norm(u.conj().T @ u - eye)

    taylor = [defect(u) for u in dynamics._expm_taylor(hs.copy(), -0.005j)]
    eigh = [defect(dynamics._expm_hermitian(np.linalg.eigh(hm), -0.005j)) for hm in hs]
    assert max(taylor) <= max(eigh)


@pytest.mark.parametrize("method", ["riemann_product", "magnus2"])
def test_unitarity_exact_for_product_methods(method):
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    u = PROPAGATORS[method](model, drive, 0.0, -10.0, TimeGrid(S_MIN, 0.02))
    assert np.linalg.norm(u.conj().T @ u - np.eye(16)) < 1e-12


def test_group_inverse():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    prop = propagate(model, drive, 0.0, -3.0, TimeGrid(S_MIN, 0.01))
    assert isinstance(prop, CovariantOperator) and prop.model is model
    assert np.linalg.norm(prop.matrix @ prop.matrix.conj().T - np.eye(16)) < 1e-9


def test_cocycle_on_aligned_grid():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.01)
    for method, prop in PROPAGATORS.items():
        u_ts = prop(model, drive, 0.0, -2.0, grid)
        u_tr = prop(model, drive, 0.0, -1.0, grid)
        u_rs = prop(model, drive, -1.0, -2.0, grid)
        assert np.linalg.norm(u_tr @ u_rs - u_ts) < 1e-11, method


def test_riemann_product_first_order_convergence():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    ref = rk4_propagator(model, drive, 0.0, -2.0, TimeGrid(S_MIN, 0.0005))
    errs = [
        np.linalg.norm(riemann_product(model, drive, 0.0, -2.0, TimeGrid(S_MIN, h)) - ref)
        for h in (0.02, 0.01, 0.005)
    ]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.7 < r < 2.3 for r in ratios)


def test_magnus2_second_order_convergence():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    ref = rk4_propagator(model, drive, 0.0, -2.0, TimeGrid(S_MIN, 0.0005))
    errs = [
        np.linalg.norm(propagate(model, drive, 0.0, -2.0, TimeGrid(S_MIN, h)).matrix - ref)
        for h in (0.02, 0.01)
    ]
    assert 3.4 < errs[0] / errs[1] < 4.6


def _rk4_four_assemblies(h_at, apply, s, y, h, nsteps):
    """RK4 that assembles H at every one of the four stages."""
    for k in range(nsteps):
        r = s + k * h
        k1 = apply(h_at(r), y)
        k2 = apply(h_at(r + h / 2), y + (h / 2) * k1)
        k3 = apply(h_at(r + h / 2), y + (h / 2) * k2)
        k4 = apply(h_at(r + h), y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_rk4_march_assembles_three_matrices_per_step(monkeypatch):
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.01)
    times = []
    real = dynamics._h_at

    def counting(model, drive, t):
        times.extend(np.atleast_1d(t).tolist())  # one matrix per time
        return real(model, drive, t)

    monkeypatch.setattr(dynamics, "_h_at", counting)
    n = grid.n_steps(-1.0, 0.0)
    rk4_propagator(model, drive, 0.0, -1.0, grid)
    # the step-size guard, then r, r + h/2 (shared by k2 and k3) and r + h per step
    assert len(times) == 3 * n + 1
    h = (0.0 - -1.0) / n
    r = [-1.0 + k * h for k in range(n)]
    assert sorted(times[1:]) == sorted(r + [x + h / 2 for x in r] + [x + h for x in r])


def test_march_with_a_partial_last_block_ends_at_t(monkeypatch):
    model = make_torus((6, 6), 1, 3)
    drive = DriveProtocol(2.0, (0.0, 0.1))
    # 13 steps: six full blocks of two and one step
    n = 13
    assert min(dynamics._BLOCK_STEPS, dynamics._BLOCK_BYTES // (3 * 16 * 36**2)) == 2
    s, t = -1.0, 0.0
    h_at = partial(dynamics._h_at, model, drive)
    grid = TimeGrid(S_MIN, 0.01)
    for rhs in (dynamics._schrodinger, None):  # RK4, magnus2
        nodes = [(r, y) for r, y, _ in dynamics._march(h_at, grid, s, t, n, np.eye(36, dtype=complex), rhs)]
        assert [r for r, _ in nodes] == [s + k * ((t - s) / n) for k in range(n)] + [t], rhs
        # one step per block gives the same bits
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_BLOCK_BYTES", 1)
            _, y, _ = dynamics._final(dynamics._march(h_at, grid, s, t, n, np.eye(36, dtype=complex), rhs))
        assert y.tobytes() == nodes[-1][1].tobytes(), rhs


def test_march_hands_out_read_only_stacks():
    model = make_torus((4, 4), 1, 4)
    drive = DriveProtocol(1.0, (0.0, 0.1))
    march = dynamics._march(
        partial(dynamics._h_at, model, drive), TimeGrid(S_MIN, 0.01), -1.0, 0.0, 30, np.eye(16, dtype=complex)
    )
    held = [h_k for _, _, h_k in march if h_k is not None]
    assert len(held) == 30
    for h_k in held:
        with pytest.raises(ValueError, match="read-only"):
            h_k[...] = 0.0


def test_rk4_midpoint_reuse_keeps_bytes():
    pot = sample_disorder(DisorderSpec(1.0, 8), 0, 16)
    model = make_torus((4, 4), 1, 4, pot)
    drive = DriveProtocol(1.0, (0.1, 0.05))
    state = EquilibriumState("projection", gap_fermi_level(model, 0.25))
    grid = TimeGrid(S_MIN, 0.02)
    n = grid.n_steps(S_MIN, 0.0)

    def liouville(hr, m):
        hm = hr @ m
        return -1j * (hm - hm.conj().T)

    spectral = SpectralData.from_operator(build_hamiltonian(model))
    zeta = state.build(spectral).matrix
    ref = _rk4_four_assemblies(
        lambda r: _h_phasing_every_hop(model, drive, r), liouville, S_MIN, zeta, (0.0 - S_MIN) / n, n
    )
    rho = evolve_density_ode(spectral, drive, state, 0.0, grid).matrix
    assert rho.tobytes() == ((ref + ref.conj().T) / 2.0).tobytes()


@pytest.mark.parametrize(
    "route",
    [
        lambda m, d, st, g: propagate(m, d, S_MIN - 10.0, S_MIN, g),
        lambda m, d, st, g: evolve_density_ode(spectral_of(m), d, st, S_MIN - 10.0, g),
        lambda m, d, st, g: evolve_density_duhamel(m, d, st, S_MIN - 10.0, g),
        lambda m, d, st, g: duhamel_residual(m, d, S_MIN - 10.0, S_MIN, np.ones(36), g),
    ],
    ids=["propagate", "density_ode", "density_duhamel", "duhamel_residual"],
)
def test_backward_march_rejected(route):
    # a march from s back to t < s would run with a negative step past the guard
    model, state = _gapped_torus_state()
    drive = DriveProtocol(1.0, (0.0, 0.1))
    with pytest.raises(ValueError, match="s <= t"):
        route(model, drive, state, TimeGrid(S_MIN, 0.01))


def test_stability_guard():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    with pytest.raises(StepSizeError):
        propagate(model, drive, 0.0, -1.0, TimeGrid(S_MIN, 0.5))


# -- Duhamel identity ---------------------------------------------------------------


def test_duhamel_two_site_refinement():
    model = make_chain(2, "open")
    drive = DriveProtocol(1.0, (0.1,))
    psi = np.array([1.0, 0.0], complex)
    residuals = [
        duhamel_residual(model, drive, 0.0, S_MIN, psi, TimeGrid(S_MIN, h)).residual
        for h in (0.04, 0.02, 0.01)
    ]
    assert residuals[-1] < 1e-8
    assert residuals[0] > residuals[1] > residuals[2]


# -- density matrix evolutions ---------------------------------------------------------


def _gapped_torus_state():
    model = make_torus((6, 6), 1, 3)
    e_f = gap_fermi_level(model, 1.0 / 3.0)
    return model, EquilibriumState("projection", e_f)


def test_density_zero_field_stays_equilibrium():
    model, state = _gapped_torus_state()
    drive = DriveProtocol(1.0, (0.0, 0.0))
    grid = TimeGrid(S_MIN, 0.02)
    spectral = spectral_of(model)
    zeta = state.build(spectral).matrix
    ode = evolve_density_ode(spectral, drive, state, 0.0, grid).matrix
    duh = evolve_density_duhamel(model, drive, state, 0.0, grid).matrix
    assert np.linalg.norm(ode - zeta) < 1e-10
    assert np.linalg.norm(duh - zeta) < 1e-10


def _duhamel_stored_slices(model, drive, state, t, grid, kernel):
    """Reference for evolve_density_duhamel: keep every V(r_k) = U(r_k, s_min)
    and the integrand at every m-th step, m = _NODE_STRIDE, then apply the
    composite Boole rule over a step count rounded up to a multiple of 4m."""
    s = grid.s_min
    m = dynamics._NODE_STRIDE
    n = grid.n_steps(s, t, 4 * m)
    h = (t - s) / n

    def h_at(r):
        return dynamics._h_at(model, drive, r)

    def rhs(r, m):
        return -1j * (h_at(r) @ m)

    vs = [np.eye(model.n_sites, dtype=complex)]
    for k in range(n):
        v, r = vs[-1], s + k * h
        k1 = rhs(r, v)
        k2 = rhs(r + h / 2, v + (h / 2) * k1)
        k3 = rhs(r + h / 2, v + (h / 2) * k2)
        k4 = rhs(r + h, v + h * k3)
        vs.append(v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))

    def zeta_and_commutator(r):
        evals, evecs = np.linalg.eigh(h_at(r))
        f_vals = state.profile()(evals)
        zeta = (evecs * f_vals) @ evecs.conj().T
        comm = np.zeros_like(zeta)
        for axis, e in enumerate(drive.field):
            if e == 0.0:
                continue
            if kernel == "minimal_image":
                comm += e * (displacement_table(model, axis) * zeta)
            else:
                vt = evecs.conj().T @ dynamics._v_at(model, drive, r, axis) @ evecs
                dd = divided_difference_kernel(
                    evals, f_vals, state.profile_derivative()(evals), vt
                )
                comm += e * (evecs @ (-1j * dd) @ evecs.conj().T)
        return zeta, comm

    integrand = np.array([
        np.exp(drive.eta * min(s + k * h, 0.0))
        * (v.conj().T @ zeta_and_commutator(s + k * h)[1] @ v)
        for k, v in enumerate(vs)
        if k % m == 0
    ])
    w = np.full(n // m + 1, 14.0)
    w[1::2] = 32.0
    w[2::4] = 12.0
    w[0] = w[-1] = 7.0
    acc = (2.0 * m * h / 45.0) * np.tensordot(w, integrand, axes=(0, 0))
    rho = zeta_and_commutator(t)[0] - 1j * (vs[-1] @ acc @ vs[-1].conj().T)
    return (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("kernel", ["gauge_derivative", "minimal_image"])
def test_streaming_duhamel_matches_stored_slices(kernel):
    model, state = _gapped_torus_state()
    drive = DriveProtocol(4.0, (0.0, 0.1))
    grid = TimeGrid(np.log(1e-12) / 4.0, 0.02)
    # the library streams the divided difference; the minimal-image stream
    # is the test-side copy in reference.py
    evolve = {
        "gauge_derivative": evolve_density_duhamel,
        "minimal_image": evolve_density_duhamel_minimal_image,
    }[kernel]
    rho = evolve(model, drive, state, 0.0, grid).matrix
    ref = _duhamel_stored_slices(model, drive, state, 0.0, grid, kernel)
    assert np.linalg.norm(rho - ref) <= 1e-12


def test_duhamel_decomposes_each_node_once(monkeypatch):
    model, state = _gapped_torus_state()
    drive = DriveProtocol(4.0, (0.0, 0.1))
    grid = TimeGrid(np.log(1e-12) / 4.0, 0.02)
    rho = evolve_density_duhamel(model, drive, state, 0.0, grid).matrix

    # the same sum with H(r_k) decomposed afresh at every node
    march = dynamics._march

    def without_handover(*args, **kwargs):
        for r, y, _ in march(*args, **kwargs):
            yield r, y, None

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_march", without_handover)
        fresh = evolve_density_duhamel(model, drive, state, 0.0, grid).matrix
    assert rho.tobytes() == fresh.tobytes()

    calls, times = [], []
    eigh, h_at = np.linalg.eigh, dynamics._h_at

    def counting_eigh(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))  # matrices in the stack
        return eigh(a, *args, **kwargs)

    def counting_h_at(model, drive, t):
        times.extend(np.atleast_1d(t).tolist())  # one matrix per time
        return h_at(model, drive, t)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(dynamics, "_h_at", counting_h_at)
    evolve_density_duhamel(model, drive, state, 0.0, grid)
    n = grid.n_steps(grid.s_min, 0.0, 16)
    assert n == 352
    # the step-size guard, three per step, and H(t) at the last node: each
    # other node, at every fourth step, decomposes its step's k1 matrix
    assert len(times) == 3 * n + 2 == 1058
    assert sum(calls) == n // 4 + 1 == 89


@pytest.mark.parametrize("m", [4, 8, 16])
def test_boole_weights_integrate_quintics_exactly(m):
    # the composite Boole rule on [0, 1] with m intervals is exact up to
    # degree 5 and not at degree 6, which pins its order
    x = np.arange(m + 1) / m
    w = np.array([dynamics._boole_weight(k, m) for k in range(m + 1)]) * 2.0 / (45.0 * m)
    for p in range(6):
        assert abs(w @ x**p - 1.0 / (p + 1)) < 1e-14, p
    assert abs(w @ x**6 - 1.0 / 7) > 1e-8


def test_gauge_check_midpoint_reuse_keeps_value(rng):
    model = make_chain(8, "open")
    drive = DriveProtocol(1.0, (0.2,))
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(S_MIN, 0.01)
    n = grid.n_steps(S_MIN, 0.0)
    h = (0.0 - S_MIN) / n
    h0 = build_hamiltonian(model).matrix
    x = np.diag(model.coords[:, 0].astype(complex))

    def schrodinger(hr, y):
        return -1j * (hr @ y)

    psi_vec = _rk4_four_assemblies(
        lambda r: _h_phasing_every_hop(model, drive, r), schrodinger, S_MIN, psi0, h, n
    )
    psi_scal = _rk4_four_assemblies(
        lambda r: h0 + sum([drive.field_at(r)[0] * x]), schrodinger, S_MIN, psi0, h, n
    )
    g = gauge_operator(model, drive, 0.0).matrix
    ref = float(np.linalg.norm(g.conj().T @ psi_vec - psi_scal))
    assert gauge_equivalence_check(model, drive, psi0, 0.0, grid) == ref


@pytest.mark.parametrize(
    "model,field",
    [
        (make_chain(8, "open"), (0.2,)),
        (LatticeModel(LatticeConfig(2, (4, 5), "open"), FluxSpec(1, 3), sample_disorder(DisorderSpec(1.0, 4), 0, 20)), (0.1, -0.2)),
    ],
    ids=["chain", "flux-box"],
)
def test_gauge_check_one_march_keeps_two_marches_bytes(model, field, rng):
    drive = DriveProtocol(1.0, field)
    psi0 = rng.normal(size=model.n_sites) + 1j * rng.normal(size=model.n_sites)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(S_MIN, 0.01)
    disc = gauge_equivalence_check(model, drive, psi0, 0.0, grid)
    assert disc == gauge_equivalence_two_marches(model, drive, psi0, 0.0, grid)


def test_duhamel_memory_flat_in_step_count():
    model, state = _gapped_torus_state()
    drive = DriveProtocol(4.0, (0.0, 0.1))
    peaks = []
    for step in (0.04, 0.02):
        grid = TimeGrid(np.log(1e-12) / 4.0, step)
        tracemalloc.start()
        try:
            evolve_density_duhamel(model, drive, state, 0.0, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # storing every slice and integrand node would take 7.5 MB at step 0.04 and 14.6 MB at 0.02
    assert peaks[1] <= 1.1 * peaks[0]


def test_magnus2_unitarity_marches_memory_bounded():
    # the two magnus2 marches of dynamics-check's unitarity gate, on the bench's
    # 6x6 config (eta = 2, step 0.005, 2,764 steps): 498 KiB was their peak when
    # each block of steps took its exponentials from one stacked eigh
    model = make_torus((6, 6), 1, 3)
    drive = DriveProtocol(2.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN / 2.0, 0.005)
    tracemalloc.start()
    try:
        late = propagate(model, drive, 0.0, grid.s_min / 4.0, grid)
        late.matrix @ propagate(model, drive, grid.s_min / 4.0, grid.s_min, grid).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 498 * 1024


@pytest.mark.slow
def test_density_routes_agree():
    model, state = _gapped_torus_state()
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.01)
    duh = evolve_density_duhamel(model, drive, state, 0.0, grid)
    ode = evolve_density_ode(spectral_of(model), drive, state, 0.0, grid)
    assert norm2(CovariantOperator(duh.matrix - ode.matrix, model)) < 1e-8
    # each route symmetrizes, so rho = rho* holds exactly
    assert np.array_equal(duh.matrix, duh.matrix.conj().T)
    assert np.array_equal(ode.matrix, ode.matrix.conj().T)


def test_density_trace_and_norms_conserved():
    model, state = _gapped_torus_state()
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.01)
    spectral = spectral_of(model)
    zeta = state.build(spectral)
    rho = evolve_density_ode(spectral, drive, state, 0.0, grid)
    assert abs(trace_per_unit_volume(rho) - trace_per_unit_volume(zeta)) < 1e-10
    nz, nr = norms(zeta), norms(rho)
    assert abs(nz.norm1 - nr.norm1) < 1e-8
    assert abs(nz.norm2 - nr.norm2) < 1e-8
    assert abs(nz.norminf - nr.norminf) < 1e-8


def test_density_projection_preserved_and_nonnegative():
    model, state = _gapped_torus_state()
    drive = DriveProtocol(1.0, (0.0, 0.1))
    rho = evolve_density_ode(spectral_of(model), drive, state, 0.0, TimeGrid(S_MIN, 0.01))
    assert np.linalg.norm(rho.matrix @ rho.matrix - rho.matrix) < 1e-8
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


def test_density_conjugation_consistency():
    model, state = _gapped_torus_state()
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.01)
    spectral = spectral_of(model)
    rho_s = evolve_density_ode(spectral, drive, state, -1.0, grid)
    rho_t = evolve_density_ode(spectral, drive, state, 0.0, grid)
    u = rk4_propagator(model, drive, 0.0, -1.0, grid)
    conj = u @ rho_s.matrix @ u.conj().T
    conj = (conj + conj.conj().T) / 2
    assert norm2(CovariantOperator(conj - rho_t.matrix, model)) < 1e-8


def test_initial_condition_recovery():
    model, state = _gapped_torus_state()
    eta, emag = 1.0, 0.1
    drive = DriveProtocol(eta, (0.0, emag))
    spectral = SpectralData.from_operator(build_hamiltonian(model))
    zeta = state.build(spectral).matrix
    evals, evecs = np.linalg.eigh(dynamics._h_at(model, drive, S_MIN))
    zeta_smin = (evecs * state.profile()(evals)) @ evecs.conj().T
    from kubolab.funcalc import position_commutator

    comm_scale = sum(
        np.linalg.norm(position_commutator(state.build(spectral), k).matrix, 2)
        for k in range(2)
    )
    bound = 10.0 * np.exp(eta * S_MIN) * emag / eta * max(comm_scale, 1.0)
    assert np.linalg.norm(zeta_smin - zeta, 2) <= bound


def test_density_covariance_under_magnetic_translation():
    pot = sample_disorder(DisorderSpec(1.0, 5), 0, 36)
    model = make_torus((6, 6), 1, 3, pot)
    e_f = gap_fermi_level(model, 1.0 / 3.0)
    state = EquilibriumState("projection", e_f)
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.02)
    a = (1, 2)
    u = magnetic_translation(model, a).matrix
    rho = evolve_density_ode(spectral_of(model), drive, state, 0.0, grid).matrix
    shifted = spectral_of(shift_disorder(model, a))
    rho_shift = evolve_density_ode(shifted, drive, state, 0.0, grid).matrix
    assert np.linalg.norm(u @ rho @ u.conj().T - rho_shift) < 1e-10


def test_positive_time_branch_sane():
    # t > 0 uses the linearly growing branch of the drive; norms stay conserved
    model, state = _gapped_torus_state()
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.01)
    spectral = spectral_of(model)
    zeta = state.build(spectral)
    rho = evolve_density_ode(spectral, drive, state, 1.0, grid)
    assert abs(norm2(rho) - norm2(zeta)) < 1e-8


# -- gauge equivalence and weighted bound ----------------------------------------------


def test_gauge_equivalence_zero_field():
    model = make_chain(8, "open")
    drive = DriveProtocol(1.0, (0.0,))
    psi0 = np.zeros(8, complex)
    psi0[3] = 1.0
    disc = gauge_equivalence_check(model, drive, psi0, 0.0, TimeGrid(S_MIN, 0.01))
    assert disc < 1e-12


@pytest.mark.slow
def test_gauge_equivalence_open_chain(rng):
    model = make_chain(8, "open")
    drive = DriveProtocol(1.0, (0.2,))
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    disc = gauge_equivalence_check(model, drive, psi0, 0.0, TimeGrid(S_MIN, 0.002))
    assert disc < 1e-8
    coarse = gauge_equivalence_check(model, drive, psi0, 0.0, TimeGrid(S_MIN, 0.008))
    assert disc < coarse


def test_gauge_equivalence_rejects_torus():
    model = make_chain(8, "torus")
    drive = DriveProtocol(1.0, (0.2,))
    with pytest.raises(UnsupportedOperationError):
        gauge_equivalence_check(model, drive, np.ones(8), 0.0, TimeGrid(S_MIN, 0.01))


def test_weight_check_zero_field_saturates():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.0))
    u = propagate(model, drive, 0.0, -3.0, TimeGrid(S_MIN, 0.01))
    rep = propagator_weight_check(spectral_of(model), drive, 0.0, -3.0, u)
    assert rep.weighted_norm == pytest.approx(1.0, abs=1e-8)
    assert rep.bound == pytest.approx(1.0, abs=1e-12)


def test_weight_check_inequality_holds():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    u = propagate(model, drive, 0.0, -5.0, TimeGrid(S_MIN, 0.01))
    rep = propagator_weight_check(spectral_of(model), drive, 0.0, -5.0, u)
    assert rep.weighted_norm <= rep.bound * (1.0 + THRESHOLDS["weight_margin"])
    assert rep.gamma >= 1.0


def test_weight_bound_monotone_in_interval():
    model = make_torus((4, 4))
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(S_MIN, 0.01)
    b1 = propagator_weight_check(spectral_of(model), drive, 0.0, -2.0, propagate(model, drive, 0.0, -2.0, grid)).bound
    b2 = propagator_weight_check(spectral_of(model), drive, 0.0, -5.0, propagate(model, drive, 0.0, -5.0, grid)).bound
    assert b2 >= b1
