"""Single source of truth for the acceptance tolerances.

The test suite, the --check mode of the command line harness, and the
README all reference this table; nothing redefines a threshold locally.
"""

THRESHOLDS = {
    # 1. Hall quantization at flux 1/3 on the L=12 torus
    "hall_quantization_clean": 0.02,
    "hall_quantization_disordered": 0.05,
    "hall_disorder_strength": 0.5,
    "hall_n_realizations": 10,
    # 2. three-method agreement at L=8, eta=0.5
    "kubo_vs_resolvent": 1e-6,
    "fd_vs_resolvent": 1e-3,
    "fd_delta_e": 1e-3,
    # 3. eta -> 0 convergence on the gapped clean case
    "eta_sweep_values": (1.0, 0.5, 0.25, 0.125),
    "eta_sweep_final_gap": 0.05,
    # 4. Liouville dynamics at L=6, eta=1, |E|=0.1
    "density_route_agreement": 1e-6,
    "density_norm_conservation": 1e-8,
    "density_projection_defect": 1e-8,
    "density_min_eigenvalue": -1e-10,
    # 5. gauge equivalence on the open 1D chain, L=8
    "gauge_equivalence": 1e-8,
    # 6. Duhamel identity on the two-site model
    "duhamel_residual": 1e-8,
    # 7. equilibrium current
    "equilibrium_clean": 1e-8,
    "equilibrium_sigma_factor": 3.0,
    "equilibrium_n_realizations": 50,
    # 8. contour calculus vs spectral calculus
    "hs_vs_spectral": 1e-4,
    "hs_refinement_gain": 2.0,
    # 9. structural identities
    "triple_commutator_open": 1e-12,
    "sigma_antisymmetry": 1e-10,
    "time_reversal_sigma": 1e-10,
    "algebra_identity": 1e-12,
    # 10. propagator theory
    "propagator_unitarity": 1e-10,
    "propagator_cocycle": 1e-10,
    "riemann_order_ratio": (1.7, 2.3),
    "weight_margin": 1e-6,
}
