import ast
import collections
import inspect
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import eprlab
from eprlab import cli, correlators, errors, estimator, gaussian, lhv, operators

ROOT = Path(__file__).parent.parent

#: The modules whose ``__all__`` lists declare the package's public names.
DECLARING_MODULES = (correlators, errors, estimator, gaussian, lhv, operators)

#: The package's public names. Every name here is used by a program path
#: or justified in the README's "Library surface" section; a new name
#: needs such a justification before it is added to this list.
PUBLIC_NAMES = [
    "ChshSettings", "ComparisonReport", "ComponentResponse", "ConsistencyError",
    "CorrelationEstimate", "GaussianState",
    "HiddenVariableModel", "LinearResponse", "MOMENTUM", "MomentMatrix", "QuadratureSetting",
    "ResponseMode", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SampleSpace", "ScenarioError",
    "SpaceKind", "Spectrum", "TabulatedResponse", "TimeSetting",
    "UNBOUNDED", "UnitVector3", "ValidationError", "chsh_value", "compare",
    "exact_expectation", "expectation", "expectation_grid", "extract_moments",
    "free_evolution_correlation", "free_evolution_model", "mc_estimate",
    "mc_estimate_rows", "pauli_observable", "quadrature_correlation", "quadrature_model",
    "singlet_state", "spectrum_compatibility", "spin_correlation", "spin_correlation_rows",
    "sup_bound", "tensor", "tmsv", "unbounded_spin_model",
]


def test_public_names_are_pinned():
    assert sorted(eprlab.__all__) == PUBLIC_NAMES


def test_every_public_name_is_bound():
    assert all(hasattr(eprlab, name) for name in eprlab.__all__)


@pytest.mark.parametrize("module", DECLARING_MODULES, ids=lambda m: m.__name__)
def test_a_module_declares_only_names_it_defines(module):
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
        assert getattr(eprlab, name) is value, name


def test_no_name_is_declared_by_two_modules():
    counts = collections.Counter(name for module in DECLARING_MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_the_package_joins_the_module_lists_and_names_no_public_name():
    assert eprlab.__all__ == [name for module in DECLARING_MODULES for name in module.__all__]
    assert "__getattr__" not in vars(eprlab)
    code = Path(eprlab.__file__).read_text(encoding="utf-8").split('"""')[2]
    assert set(re.findall(r"\w+", code)).isdisjoint(PUBLIC_NAMES)


@pytest.mark.parametrize("module", DECLARING_MODULES, ids=lambda m: m.__name__)
def test_code_lines_reads_each_module_list(module):
    public_names = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))["public_names"]
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert public_names(tree) == module.__all__


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
