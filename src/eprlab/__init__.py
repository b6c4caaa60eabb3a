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
    PI_3_2,
    ChshSettings,
    QuadratureSetting,
    TimeSetting,
    chsh_value,
    free_evolution_correlation,
    quadrature_correlation,
    quadrature_rotation,
    spin_correlation,
)
from .errors import (
    ConsistencyError,
    DegenerateMomentError,
    ScenarioError,
    ValidationError,
)
from .estimator import ComparisonReport, CorrelationEstimate, compare, mc_estimate
from .gaussian import (
    GaussianState,
    MomentMatrix,
    UncertaintyReport,
    extract_moments,
    tmsv,
    uncertainty_check,
)
from .lhv import (
    UNBOUNDED,
    ComponentResponse,
    Factorization,
    HiddenVariableModel,
    LinearResponse,
    ResponseMode,
    SampleSpace,
    SpaceKind,
    Spectrum,
    SpectrumReport,
    TabulatedResponse,
    exact_expectation,
    expectation_grid,
    free_evolution_model,
    matched_moments,
    quadrature_model,
    spectrum_compatibility,
    sup_bound,
    unbounded_spin_model,
)
from .operators import (
    IDENTITY_2,
    IDENTITY_4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ComplexOperator,
    StateVector,
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
    "ComplexOperator",
    "ComponentResponse",
    "ConsistencyError",
    "CorrelationEstimate",
    "DegenerateMomentError",
    "Factorization",
    "GaussianState",
    "HiddenVariableModel",
    "IDENTITY_2",
    "IDENTITY_4",
    "LinearResponse",
    "MOMENTUM",
    "MomentMatrix",
    "PI_3_2",
    "QuadratureSetting",
    "ResponseMode",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SampleSpace",
    "ScenarioError",
    "SpaceKind",
    "Spectrum",
    "SpectrumReport",
    "StateVector",
    "TabulatedResponse",
    "TimeSetting",
    "UNBOUNDED",
    "UncertaintyReport",
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
    "matched_moments",
    "mc_estimate",
    "pauli_observable",
    "quadrature_correlation",
    "quadrature_model",
    "quadrature_rotation",
    "singlet_state",
    "spectrum_compatibility",
    "spin_correlation",
    "sup_bound",
    "tensor",
    "tmsv",
    "unbounded_spin_model",
    "uncertainty_check",
]
