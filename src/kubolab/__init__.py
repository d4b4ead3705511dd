"""kubolab: linear response on disordered magnetic tight-binding lattices.

Finite Hermitian matrices on a torus or open box stand in for the ergodic
operator family: covariant Hamiltonians with rational flux and seeded
disorder, the normalized-trace operator algebra, exact and contour
functional calculus, adiabatically driven dynamics, and the conductivity
tensor by independent routes down to the quantized Hall limit.
"""

__version__ = "0.1.0"

from .model import (
    ConfigurationError,
    CovariantOperator,
    DisorderSpec,
    FluxSpec,
    LatticeConfig,
    LatticeModel,
    ModelMismatchError,
    UnsupportedOperationError,
    build_hamiltonian,
    sample_disorder,
    shift_disorder,
    velocity_operator,
)
from .funcalc import EquilibriumState, SpectralData, fermi_dirac, fermi_projection
from .dynamics import DriveProtocol, TimeGrid, propagate
from .response import sigma_resolvent, sigma_streda, hall_scaled
from .harness import ExperimentConfig, run_experiment, ensemble_average
