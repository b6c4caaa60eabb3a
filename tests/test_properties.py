"""Property-based checks of the representation theorem and angle periodicity."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from eprlab import (
    MomentMatrix,
    QuadratureSetting,
    TimeSetting,
    exact_expectation,
    free_evolution_correlation,
    free_evolution_model,
    quadrature_correlation,
    quadrature_model,
)

# Fixed example sequence and no example database, so every run checks the same inputs.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Any finite moment small enough that products with the settings stay finite.
MOMENT = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
MOMENTS = st.builds(MomentMatrix, qq=MOMENT, pq=MOMENT, qp=MOMENT, pp=MOMENT)
ANGLE = st.floats(min_value=-1e3, max_value=1e3)
TIME = st.floats(min_value=-1e3, max_value=1e3)
# Angles on a 2**-40 grid inside [-16, 16]: tau's lowest set bit is 2**-47, so
# alpha + tau stays below 32 and is computed exactly.
GRID_ANGLE = st.floats(min_value=-16.0, max_value=16.0).map(
    lambda x: round(x * 2.0**40) / 2.0**40)

# The model and the correlator expand one bilinear form in different orders;
# they differ only by a few roundings of the largest term. The absolute floor
# covers subnormal moments.
REL_TOL = 1e-14
ABS_TOL = 1e-300


def _moment_scale(m: MomentMatrix) -> float:
    return abs(m.qq) + abs(m.pq) + abs(m.qp) + abs(m.pp)


@PROPERTY
@given(MOMENTS, ANGLE, ANGLE)
def test_quadrature_model_reproduces_correlator(m, alpha1, alpha2):
    a1, a2 = QuadratureSetting(alpha1), QuadratureSetting(alpha2)
    diff = exact_expectation(quadrature_model(m), a1, a2) - quadrature_correlation(m, a1, a2)
    assert abs(diff) <= REL_TOL * _moment_scale(m) + ABS_TOL


@PROPERTY
@given(MOMENTS, TIME, TIME)
def test_free_evolution_model_reproduces_correlator(m, t1, t2):
    s1, s2 = TimeSetting(t1), TimeSetting(t2)
    diff = exact_expectation(free_evolution_model(m), s1, s2) - \
        free_evolution_correlation(m, s1, s2)
    scale = _moment_scale(m) * (1.0 + abs(t1)) * (1.0 + abs(t2))
    assert abs(diff) <= REL_TOL * scale + ABS_TOL


@PROPERTY
@given(MOMENTS, GRID_ANGLE, ANGLE)
def test_quadrature_values_are_two_pi_periodic(m, alpha, other):
    base, shifted = QuadratureSetting(alpha), QuadratureSetting(alpha + math.tau)
    b = QuadratureSetting(other)
    model = quadrature_model(m)
    assert shifted.alpha == base.alpha
    assert quadrature_correlation(m, shifted, b) == quadrature_correlation(m, base, b)
    assert exact_expectation(model, shifted, b) == exact_expectation(model, base, b)
    assert exact_expectation(model, b, shifted) == exact_expectation(model, b, base)
