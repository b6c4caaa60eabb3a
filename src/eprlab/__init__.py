"""Numerical lab for two-party quantum correlations and their
separated-random-process representations.

The package computes exact quantum correlation functions (spin singlet,
rotated quadratures of Gaussian states, free evolution), constructs
hidden-variable models that reproduce them as correlations of separated
random processes, and verifies the agreement both in closed form and by
seeded Monte Carlo, including CHSH combinations and response-bound
analysis.
"""

from .correlators import (
    MOMENTUM,
    ChshSettings,
    QuadratureSetting,
    TimeSetting,
    chsh_value,
    free_evolution_correlation,
    quadrature_correlation,
    spin_correlation,
    spin_correlation_rows,
)
from .errors import (
    ConsistencyError,
    ScenarioError,
    ValidationError,
)
from .estimator import (
    ComparisonReport,
    CorrelationEstimate,
    compare,
    mc_estimate,
    mc_estimate_rows,
)
from .gaussian import (
    GaussianState,
    MomentMatrix,
    extract_moments,
    tmsv,
)
from .lhv import (
    UNBOUNDED,
    ComponentResponse,
    HiddenVariableModel,
    LinearResponse,
    ResponseMode,
    SampleSpace,
    SpaceKind,
    Spectrum,
    TabulatedResponse,
    exact_expectation,
    expectation_grid,
    free_evolution_model,
    quadrature_model,
    spectrum_compatibility,
    sup_bound,
    unbounded_spin_model,
)
from .operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    UnitVector3,
    expectation,
    pauli_observable,
    singlet_state,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "ChshSettings",
    "ComparisonReport",
    "ComponentResponse",
    "ConsistencyError",
    "CorrelationEstimate",
    "GaussianState",
    "HiddenVariableModel",
    "LinearResponse",
    "MOMENTUM",
    "MomentMatrix",
    "QuadratureSetting",
    "ResponseMode",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SampleSpace",
    "ScenarioError",
    "SpaceKind",
    "Spectrum",
    "TabulatedResponse",
    "TimeSetting",
    "UNBOUNDED",
    "UnitVector3",
    "ValidationError",
    "chsh_value",
    "compare",
    "exact_expectation",
    "expectation",
    "expectation_grid",
    "extract_moments",
    "free_evolution_correlation",
    "free_evolution_model",
    "mc_estimate",
    "mc_estimate_rows",
    "pauli_observable",
    "quadrature_correlation",
    "quadrature_model",
    "singlet_state",
    "spectrum_compatibility",
    "spin_correlation",
    "spin_correlation_rows",
    "sup_bound",
    "tensor",
    "tmsv",
    "unbounded_spin_model",
]
