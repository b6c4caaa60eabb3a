import os
import re
import subprocess
import sys
from pathlib import Path

import eprlab
from eprlab import cli

ROOT = Path(__file__).parent.parent

#: The package's public names. Every name here is used by a program path
#: or justified in the README's "Library surface" section; a new name
#: needs such a justification before it is added to this list.
PUBLIC_NAMES = [
    "ChshSettings", "ComparisonReport", "ComponentResponse", "ConsistencyError",
    "CorrelationEstimate", "DegenerateMomentError", "Factorization", "GaussianState",
    "HiddenVariableModel", "LinearResponse", "MOMENTUM", "MomentMatrix", "QuadratureSetting",
    "ResponseMode", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SampleSpace", "ScenarioError",
    "SpaceKind", "Spectrum", "TabulatedResponse", "TimeSetting",
    "UNBOUNDED", "UnitVector3", "ValidationError", "chsh_value", "compare",
    "exact_expectation", "expectation", "expectation_grid", "extract_moments",
    "free_evolution_correlation", "free_evolution_model", "matched_moments", "mc_estimate",
    "mc_estimate_rows", "pauli_observable", "quadrature_correlation", "quadrature_model",
    "singlet_state", "spectrum_compatibility", "spin_correlation", "spin_correlation_rows",
    "sup_bound", "tensor", "tmsv", "unbounded_spin_model",
]


def test_public_names_are_pinned():
    assert sorted(eprlab.__all__) == PUBLIC_NAMES


def test_every_public_name_is_bound():
    assert all(hasattr(eprlab, name) for name in eprlab.__all__)


def readme_block(language: str) -> str:
    """The first fenced ``language`` block of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^```{language}\n(.*?)^```$", text, re.DOTALL | re.MULTILINE).group(1)


def test_readme_quick_start_runs():
    result = subprocess.run([sys.executable, "-c", readme_block("python")],
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_scenario_example_loads(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(readme_block("json"), encoding="utf-8")
    scenario = cli.load_scenario(path)
    assert (scenario.kind, scenario.name, len(scenario.setting_pairs)) == \
        ("EPR_QUADRATURE", "epr_quadrature", 5)
