"""Acceptance gate: one test per criterion, each at its pinned tolerance.

Every tolerance comes from kubolab.acceptance.THRESHOLDS (the same table
the harness --check mode uses); each test prints a PASS line with the
measured value so the suite doubles as a report.
"""

import time

import numpy as np
import pytest

from kubolab.acceptance import THRESHOLDS as TOL
from kubolab.model import (
    CovariantOperator,
    DisorderSpec,
    FluxSpec,
    LatticeConfig,
    LatticeModel,
    build_hamiltonian,
    sample_disorder,
)
from kubolab.funcalc import (
    EquilibriumState,
    HSQuadrature,
    SpectralData,
    apply_spectral,
    fermi_projection,
    gaussian_function,
    hs_apply,
)
from kubolab.dynamics import (
    DriveProtocol,
    TimeGrid,
    duhamel_residual,
    evolve_density_duhamel,
    evolve_density_ode,
    gauge_equivalence_check,
    propagate,
    propagator_weight_check,
)
from kubolab.opspace import (
    dagger,
    hs_inner,
    norm2,
    norms,
    prod_diamond,
    prod_left,
    comm_odot,
    comm_diamond,
    trace_per_unit_volume,
)
from kubolab.response import (
    ResponseBasis,
    chern_number_fhs,
    equilibrium_current,
    eta_sweep,
    hall_scaled,
    sigma_finite_difference,
    sigma_kubo_integral,
    sigma_resolvent,
    sigma_streda,
)
from kubolab.harness import ensemble_average

from conftest import gap_fermi_level, make_chain, make_torus, random_operator, random_projector, spectral_of
from reference import riemann_product, rk4_propagator, triple_commutator_check


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def clean_flux_third(length):
    model = make_torus((length, length), 1, 3)
    return model, gap_fermi_level(model, 1.0 / 3.0)


# -- 1. Hall quantization ------------------------------------------------------


def test_criterion_1_hall_quantization():
    t0 = time.time()
    model, e_f = clean_flux_third(12)
    scaled = hall_scaled(sigma_streda(fermi_projection(spectral_of(model), e_f)))
    per_realization = time.time() - t0
    chern = chern_number_fhs(1, 3, 1)
    clean_gap = abs(abs(scaled) - abs(chern))
    assert abs(abs(chern) - 1.0) < 1e-10
    assert clean_gap < TOL["hall_quantization_clean"]
    assert per_realization < 60.0

    values = []
    for i in range(TOL["hall_n_realizations"]):
        pot = sample_disorder(DisorderSpec(TOL["hall_disorder_strength"], 20240811), i, 144)
        noisy = LatticeModel(model.config, model.flux, pot)
        values.append(hall_scaled(sigma_streda(fermi_projection(spectral_of(noisy), e_f))))
    mean, _ = ensemble_average(values)
    dis_gap = abs(abs(mean) - abs(chern))
    assert dis_gap < TOL["hall_quantization_disordered"]
    report(
        "1 hall-quantization",
        f"clean |2pi sigma|={abs(scaled):.4f} chern={chern:+.0f} gap={clean_gap:.4f}; "
        f"W={TOL['hall_disorder_strength']} mean gap={dis_gap:.4f}; "
        f"{per_realization:.1f}s/realization",
    )


# -- 2. three-method agreement ---------------------------------------------------


@pytest.mark.slow
def test_criterion_2_three_method_agreement():
    pot = sample_disorder(DisorderSpec(0.5, 42), 0, 64)
    model = LatticeModel(LatticeConfig(2, (8, 8), "torus"), FluxSpec(1, 4), pot)
    e_f = gap_fermi_level(model, 0.25)
    state = EquilibriumState("projection", e_f)
    eta = 0.5

    spectral = spectral_of(model)
    basis = ResponseBasis.of(spectral, state)
    res = sigma_resolvent(basis, eta)
    kubo = sigma_kubo_integral(basis, eta)
    kubo_gap = float(np.max(np.abs(kubo - res)))
    assert kubo_gap < TOL["kubo_vs_resolvent"]

    res_gauge = sigma_resolvent(basis.gauge_derivative(), eta)
    grid = TimeGrid(np.log(1e-10) / eta, 0.01, truncation_tol=1e-10)
    fd = sigma_finite_difference(spectral, state, eta, grid)
    fd_gap = float(np.max(np.abs(fd - res_gauge)))
    assert fd_gap < TOL["fd_vs_resolvent"]
    report(
        "2 three-method",
        f"|kubo-res|={kubo_gap:.2e} (<{TOL['kubo_vs_resolvent']:.0e}); "
        f"|fd-res|={fd_gap:.2e} (<{TOL['fd_vs_resolvent']:.0e})",
    )


# -- 3. eta -> 0 convergence -------------------------------------------------------


def test_criterion_3_eta_to_zero():
    model, e_f = clean_flux_third(12)
    streda, res, _, _, _ = eta_sweep(
        spectral_of(model), EquilibriumState("projection", e_f), list(TOL["eta_sweep_values"])
    )
    gaps = [float(np.max(np.abs(r - streda))) for r in res]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < TOL["eta_sweep_final_gap"]
    report(
        "3 eta-sweep",
        "gaps " + " > ".join(f"{g:.4f}" for g in gaps) + f" (final <{TOL['eta_sweep_final_gap']})",
    )


# -- 4. Liouville dynamics ----------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_liouville_dynamics():
    model, e_f = clean_flux_third(6)
    state = EquilibriumState("projection", e_f)
    drive = DriveProtocol(1.0, (0.0, 0.1))
    grid = TimeGrid(float(np.log(1e-12)), 0.005)
    spectral = SpectralData.from_operator(build_hamiltonian(model))
    duh = evolve_density_duhamel(model, drive, state, 0.0, grid)
    ode = evolve_density_ode(spectral, drive, state, 0.0, grid)
    agreement = norm2(CovariantOperator(duh.matrix - ode.matrix, model))
    assert agreement < TOL["density_route_agreement"]

    zeta = state.build(spectral)
    conservation = abs(norm2(ode) - norm2(zeta))
    assert conservation < TOL["density_norm_conservation"]

    defect = float(np.linalg.norm(ode.matrix @ ode.matrix - ode.matrix))
    assert defect < TOL["density_projection_defect"]

    min_eig = float(np.linalg.eigvalsh(ode.matrix)[0])
    assert min_eig >= TOL["density_min_eigenvalue"]
    report(
        "4 liouville",
        f"duh-ode={agreement:.2e}; |norm2 drift|={conservation:.2e}; "
        f"proj defect={defect:.2e}; min eig={min_eig:+.2e}",
    )


# -- 5. gauge equivalence -------------------------------------------------------------


def test_criterion_5_gauge_equivalence():
    model = make_chain(8, "open")
    drive = DriveProtocol(1.0, (0.2,))
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    disc = gauge_equivalence_check(
        model, drive, psi0, 0.0, TimeGrid(float(np.log(1e-12)), 0.002)
    )
    assert disc < TOL["gauge_equivalence"]
    report("5 gauge-equivalence", f"discrepancy={disc:.2e} (<{TOL['gauge_equivalence']:.0e})")


# -- 6. Duhamel identity ---------------------------------------------------------------


def test_criterion_6_duhamel_identity():
    model = make_chain(2, "open")
    drive = DriveProtocol(1.0, (0.1,))
    psi = np.array([1.0, 0.0], complex)
    s_min = float(np.log(1e-12))
    residuals = [
        duhamel_residual(model, drive, 0.0, s_min, psi, TimeGrid(s_min, h)).residual
        for h in (0.04, 0.02, 0.01, 0.005)
    ]
    assert residuals[-1] < TOL["duhamel_residual"]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    report(
        "6 duhamel",
        "residuals " + " > ".join(f"{r:.1e}" for r in residuals)
        + f" (final <{TOL['duhamel_residual']:.0e})",
    )


# -- 7. equilibrium current --------------------------------------------------------------


def test_criterion_7_equilibrium_current():
    model, e_f = clean_flux_third(12)
    j_clean = equilibrium_current(spectral_of(model), EquilibriumState("projection", e_f))
    clean_mag = float(np.max(np.abs(j_clean)))
    assert clean_mag < TOL["equilibrium_clean"]

    n = TOL["equilibrium_n_realizations"]
    state = EquilibriumState("fermi_dirac", -1.8, 4.0)
    samples = {0: [], 1: []}
    for i in range(n):
        pot = sample_disorder(DisorderSpec(1.0, 20240811), i, 64)
        noisy = LatticeModel(LatticeConfig(2, (8, 8), "torus"), FluxSpec(1, 4), pot)
        j = equilibrium_current(spectral_of(noisy), state)
        samples[0].append(j[0])
        samples[1].append(j[1])
    ratios = []
    for axis in (0, 1):
        mean, stderr = ensemble_average(samples[axis])
        assert abs(mean) <= TOL["equilibrium_sigma_factor"] * stderr
        ratios.append(abs(mean) / stderr)
    report(
        "7 equilibrium",
        f"clean |J|={clean_mag:.1e}; ensemble |mean|/stderr={ratios[0]:.2f},{ratios[1]:.2f}"
        f" (<= {TOL['equilibrium_sigma_factor']})",
    )


# -- 8. contour functional calculus --------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_helffer_sjostrand():
    rng = np.random.default_rng(11)
    model = make_chain(32, "open")
    h = random_operator(model, rng, hermitian=True)
    spectral = SpectralData.from_operator(h)
    f = gaussian_function()
    exact = apply_spectral(spectral, f).matrix
    quad = HSQuadrature.for_spectrum(
        spectral.eigenvalues[0], spectral.eigenvalues[-1], order_m=5, nx=48, margin=8.0
    )
    errors = []
    for _ in range(3):
        approx, _ = hs_apply(h, f, quad)
        errors.append(float(np.linalg.norm(approx.matrix - exact, 2)))
        quad = quad.refine()
    assert errors[-1] < TOL["hs_vs_spectral"]
    gains = [a / b for a, b in zip(errors, errors[1:])]
    assert all(g >= TOL["hs_refinement_gain"] for g in gains)
    report(
        "8 helffer-sjostrand",
        "errors " + " -> ".join(f"{e:.1e}" for e in errors)
        + f"; gains {', '.join(f'{g:.1f}x' for g in gains)}",
    )


# -- 9. structural identities ------------------------------------------------------------


def test_criterion_9_structural_identities():
    rng = np.random.default_rng(3)
    # triple commutator, open box, exact position
    box = make_chain(8, "open")
    p = random_projector(box, rng, rank=3)
    triple = triple_commutator_check(p)
    assert triple < TOL["triple_commutator_open"]

    # antisymmetry and zero diagonal of the commutator form
    pot = sample_disorder(DisorderSpec(0.5, 42), 0, 64)
    noisy = LatticeModel(LatticeConfig(2, (8, 8), "torus"), FluxSpec(1, 4), pot)
    sigma = sigma_streda(fermi_projection(spectral_of(noisy), gap_fermi_level(noisy, 0.25)))
    antisym = float(np.max(np.abs(sigma + sigma.T)))
    diag = float(max(abs(sigma[0, 0]), abs(sigma[1, 1])))
    assert antisym < TOL["sigma_antisymmetry"]
    assert diag < TOL["sigma_antisymmetry"]

    # time reversal on an odd torus (exactly antisymmetric minimal image)
    pot9 = sample_disorder(DisorderSpec(2.0, 23), 0, 81)
    real_model = LatticeModel(LatticeConfig(2, (9, 9), "torus"), FluxSpec(), pot9)
    p_real = fermi_projection(spectral_of(real_model), gap_fermi_level(real_model, 0.5))
    tr_sigma = float(np.max(np.abs(sigma_streda(p_real))))
    assert tr_sigma < TOL["time_reversal_sigma"]

    # operator-algebra identity battery
    alg_model = make_chain(12, "open")
    a = random_operator(alg_model, rng)
    b = random_operator(alg_model, rng)
    c = random_operator(alg_model, rng)
    defects = {
        "centrality": abs(
            trace_per_unit_volume(prod_diamond(a, b)) - trace_per_unit_volume(prod_diamond(b, a))
        ),
        "holder": max(
            0.0, norms(prod_diamond(a, b)).norm1 - norms(a).norm2 * norms(b).norm2
        ),
        "dagger_isometry": abs(norms(dagger(a)).norm1 - norms(a).norm1),
        "shuffle": abs(
            trace_per_unit_volume(prod_diamond(comm_odot(c, a), b))
            - trace_per_unit_volume(prod_left(c, comm_diamond(a, b)))
        ),
        "trace_inner": abs(
            trace_per_unit_volume(prod_diamond(a, b)) - hs_inner(dagger(a), b)
        ),
    }
    worst = max(defects.values())
    assert worst < TOL["algebra_identity"]
    report(
        "9 structural",
        f"triple(open)={triple:.1e}; antisym={antisym:.1e}; diag={diag:.1e}; "
        f"time-reversal={tr_sigma:.1e}; algebra worst={worst:.1e}",
    )


# -- 10. propagator theory ------------------------------------------------------------------


def test_criterion_10_propagator_theory():
    model = make_torus((4, 4), 1, 4)
    drive = DriveProtocol(1.0, (0.0, 0.1))
    s_min = float(np.log(1e-12))

    grid = TimeGrid(s_min, 0.01)
    u = propagate(model, drive, 0.0, s_min, grid).matrix
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(model.n_sites)))
    assert unitarity < TOL["propagator_unitarity"]

    u_ts = propagate(model, drive, 0.0, -2.0, grid).matrix
    u_tr = propagate(model, drive, 0.0, -1.0, grid).matrix
    u_rs = propagate(model, drive, -1.0, -2.0, grid).matrix
    cocycle = float(np.linalg.norm(u_tr @ u_rs - u_ts))
    assert cocycle < TOL["propagator_cocycle"]

    weight = propagator_weight_check(spectral_of(model), drive, 0.0, -5.0, propagate(model, drive, 0.0, -5.0, grid))
    assert weight.weighted_norm <= weight.bound * (1.0 + TOL["weight_margin"])

    ref = rk4_propagator(model, drive, 0.0, -2.0, TimeGrid(s_min, 0.0005))
    errs = [
        float(np.linalg.norm(riemann_product(model, drive, 0.0, -2.0, TimeGrid(s_min, h)) - ref))
        for h in (0.02, 0.01, 0.005)
    ]
    ratios = [x / y for x, y in zip(errs, errs[1:])]
    lo, hi = TOL["riemann_order_ratio"]
    assert all(lo < r < hi for r in ratios)
    report(
        "10 propagator",
        f"unitarity={unitarity:.1e}; cocycle={cocycle:.1e}; "
        f"weight {weight.weighted_norm:.6f}<={weight.bound:.6f}; "
        f"riemann ratios {', '.join(f'{r:.2f}' for r in ratios)}",
    )
