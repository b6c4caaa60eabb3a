import eprlab

#: The package's public names. Every name here is used by a program path
#: or justified in the README's "Library surface" section; a new name
#: needs such a justification before it is added to this list.
PUBLIC_NAMES = [
    "ChshSettings", "ComparisonReport", "ComponentResponse", "ConsistencyError",
    "CorrelationEstimate", "DegenerateMomentError", "Factorization", "GaussianState",
    "HiddenVariableModel", "LinearResponse", "MOMENTUM", "MomentMatrix", "QuadratureSetting",
    "ResponseMode", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SampleSpace", "ScenarioError",
    "SpaceKind", "Spectrum", "SpectrumReport", "TabulatedResponse", "TimeSetting",
    "UNBOUNDED", "UnitVector3", "ValidationError", "chsh_value", "compare",
    "exact_expectation", "expectation", "expectation_grid", "expectation_rows",
    "extract_moments", "free_evolution_correlation", "free_evolution_model",
    "matched_moments", "mc_estimate", "mc_estimate_rows", "pauli_observable",
    "quadrature_correlation", "quadrature_model", "singlet_state", "spectrum_compatibility",
    "spin_correlation", "spin_correlation_rows", "sup_bound", "tensor", "tmsv",
    "unbounded_spin_model",
]


def test_public_names_are_pinned():
    assert sorted(eprlab.__all__) == PUBLIC_NAMES


def test_every_public_name_is_bound():
    assert all(hasattr(eprlab, name) for name in eprlab.__all__)
