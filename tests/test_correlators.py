import itertools
import math

import numpy as np
import pytest

from eprlab import (
    MOMENTUM,
    ChshSettings,
    ConsistencyError,
    MomentMatrix,
    QuadratureSetting,
    TimeSetting,
    UnitVector3,
    ValidationError,
    chsh_value,
    extract_moments,
    free_evolution_correlation,
    quadrature_correlation,
    expectation,
    pauli_observable,
    singlet_state,
    spin_correlation,
    spin_correlation_rows,
    tensor,
    tmsv,
)
from eprlab import correlators
from conftest import random_unit_vectors

INV_SQRT2 = 1.0 / math.sqrt(2.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)
X_AXIS = UnitVector3(1.0, 0.0, 0.0)


def xz_direction(theta: float) -> UnitVector3:
    return UnitVector3(math.sin(theta), 0.0, math.cos(theta))


STANDARD_CHSH = ChshSettings(
    a=xz_direction(0.0),
    a_prime=xz_direction(math.pi / 2.0),
    b=xz_direction(math.pi / 4.0),
    b_prime=xz_direction(3.0 * math.pi / 4.0),
)


class TestSpinCorrelation:
    def test_aligned(self):
        assert abs(spin_correlation(Z_AXIS, Z_AXIS) + 1.0) < 1e-12

    def test_orthogonal(self):
        assert abs(spin_correlation(Z_AXIS, X_AXIS)) < 1e-12

    def test_tilted(self):
        b = UnitVector3(0.0, INV_SQRT2, INV_SQRT2)
        assert abs(spin_correlation(Z_AXIS, b) + INV_SQRT2) < 1e-10

    def test_matrix_path_matches_closed_form(self):
        rng = np.random.default_rng(21)
        vectors = random_unit_vectors(rng, 220)
        for a, b in zip(vectors[::2], vectors[1::2]):
            closed_form = -(a.x * b.x + a.y * b.y + a.z * b.z)
            assert abs(spin_correlation(a, b) - closed_form) < 1e-10


#: Axis directions with signed zero components, mixed into the random pairs.
SIGNED_AXES = [UnitVector3(*v) for v in [
    (1.0, 0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, 1.0), (-1.0, -0.0, 0.0),
    (-0.0, -1.0, -0.0), (0.0, 0.0, -1.0), (0.6, -0.0, 0.8), (-0.0, 0.6, -0.8),
]]


def cosines(directions):
    return [(d.x, d.y, d.z) for d in directions]


def bits(values):
    return [float(v).hex() for v in values]


class TestSpinCorrelationRows:
    def test_matches_per_pair_explicit_path_bit_for_bit(self):
        rng = np.random.default_rng(77)
        vectors = random_unit_vectors(rng, 1200) + SIGNED_AXES * 40
        order = rng.permutation(len(vectors))
        a = [vectors[i] for i in order]
        b = [vectors[i] for i in rng.permutation(len(vectors))]
        psi = singlet_state()
        explicit = [expectation(psi, tensor(pauli_observable(u), pauli_observable(v)))
                    for u, v in zip(a, b)]
        assert bits(spin_correlation_rows(cosines(a), cosines(b))) == bits(explicit)
        assert bits(spin_correlation(u, v) for u, v in zip(a, b)) == bits(explicit)

    def test_signed_zero_axes_pairwise(self):
        pairs = list(itertools.product(SIGNED_AXES, repeat=2))
        psi = singlet_state()
        explicit = [expectation(psi, tensor(pauli_observable(u), pauli_observable(v)))
                    for u, v in pairs]
        rows = spin_correlation_rows(cosines(u for u, _ in pairs), cosines(v for _, v in pairs))
        assert bits(rows) == bits(explicit)

    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_corrupted_row_raises(self, monkeypatch, row):
        exact = correlators._singlet_expectations

        def corrupted(a, b):
            values = exact(a, b)
            values[row] += 1e-9
            return values
        monkeypatch.setattr(correlators, "_singlet_expectations", corrupted)
        directions = cosines(SIGNED_AXES[:7])
        with pytest.raises(ConsistencyError, match=f"mismatch at row {row}:"):
            spin_correlation_rows(directions, directions[::-1])

    def test_complex_row_raises(self, monkeypatch):
        exact = correlators._singlet_expectations

        def complex_row(a, b):
            values = exact(a, b)
            values[1] += 1e-9j
            return values
        monkeypatch.setattr(correlators, "_singlet_expectations", complex_row)
        with pytest.raises(ConsistencyError, match="row 1 came out complex"):
            spin_correlation_rows(cosines(SIGNED_AXES[:3]), cosines(SIGNED_AXES[:3]))

    @pytest.mark.parametrize("a, b", [
        ([(0.0, 0.0, 1.0)], [(0.0, 1.0)]),
        ([(0.0, 0.0, 1.0)], [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]),
        ([(0.0, 0.0, 1.0)], [(0.0, 0.0, 2.0)]),
        ([(0.0, 0.0, math.nan)], [(0.0, 0.0, 1.0)]),
    ])
    def test_rejects_malformed_stacks(self, a, b):
        with pytest.raises(ValidationError):
            spin_correlation_rows(a, b)

    def test_one_pair_rejects_non_direction(self):
        with pytest.raises(ValidationError):
            spin_correlation(Z_AXIS, (0.0, 0.0, 1.0))


class TestQuadratureSetting:
    def test_reduces_modulo_two_pi(self):
        # Dyadic angles survive adding a period exactly: the addition is
        # exact in binary and the IEEE remainder reduction is exact.
        for k in range(-512, 513, 7):
            alpha = k / 256.0
            plus_period = alpha + math.tau
            assert QuadratureSetting(plus_period).alpha == QuadratureSetting(alpha).alpha

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            QuadratureSetting(math.nan)

    def test_momentum_constant(self):
        # q(3*pi/2) = p, so the correlator picks out the pq moment.
        m = MomentMatrix(qq=1.0, pq=2.0, qp=3.0, pp=4.0)
        assert abs(quadrature_correlation(m, MOMENTUM, QuadratureSetting(0.0)) - 2.0) < 1e-12


class TestQuadratureCorrelation:
    def test_pure_qq_moment(self):
        m = MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=0.0)
        assert quadrature_correlation(m, QuadratureSetting(0.0), QuadratureSetting(0.0)) == 1.0

    def test_tmsv_angles_sum_to_right_angle(self):
        m = extract_moments(tmsv(1.0))
        value = quadrature_correlation(
            m, QuadratureSetting(math.pi / 4.0), QuadratureSetting(math.pi / 4.0))
        assert abs(value) < 1e-12

    def test_tmsv_at_zero_angles(self):
        m = extract_moments(tmsv(1.0))
        value = quadrature_correlation(m, QuadratureSetting(0.0), QuadratureSetting(0.0))
        assert abs(value - math.sinh(2.0) / 2.0) < 1e-12

    def test_tmsv_reduces_to_cosine_of_angle_sum(self):
        m = extract_moments(tmsv(1.0))
        angles = np.linspace(-math.pi, math.pi, 72)
        for a1 in angles:
            for a2 in angles:
                value = quadrature_correlation(m, QuadratureSetting(a1), QuadratureSetting(a2))
                assert abs(value - m.qq * math.cos(a1 + a2)) < 1e-12

    def test_period_invariance_after_reduction(self):
        m = MomentMatrix(qq=1.25, pq=-0.5, qp=2.0, pp=0.75)
        for k in range(-256, 257, 13):
            alpha = k / 128.0
            direct = quadrature_correlation(m, QuadratureSetting(alpha), QuadratureSetting(0.5))
            shifted = quadrature_correlation(
                m, QuadratureSetting(alpha + math.tau), QuadratureSetting(0.5))
            assert shifted == direct

    def test_rejects_wrong_setting_type(self):
        m = MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=0.0)
        with pytest.raises(ValidationError):
            quadrature_correlation(m, TimeSetting(0.0), QuadratureSetting(0.0))


class TestFreeEvolutionCorrelation:
    def test_zero_times(self):
        m = MomentMatrix(qq=1.0, pq=2.0, qp=3.0, pp=4.0)
        assert free_evolution_correlation(m, TimeSetting(0.0), TimeSetting(0.0)) == 1.0

    def test_unit_times(self):
        m = MomentMatrix(qq=1.0, pq=2.0, qp=3.0, pp=4.0)
        assert free_evolution_correlation(m, TimeSetting(1.0), TimeSetting(1.0)) == 10.0

    def test_mixed_times(self):
        m = MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=-1.0)
        assert free_evolution_correlation(m, TimeSetting(2.0), TimeSetting(3.0)) == -5.0

    def test_rejects_wrong_setting_type(self):
        m = MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=0.0)
        with pytest.raises(ValidationError):
            free_evolution_correlation(m, QuadratureSetting(0.0), TimeSetting(0.0))


class TestChsh:
    def test_quantum_singlet_reaches_tsirelson(self):
        value = chsh_value(spin_correlation, STANDARD_CHSH)
        assert abs(abs(value) - 2.0 * math.sqrt(2.0)) < 1e-9
        assert value < 0.0

    def test_zero_correlation(self):
        assert chsh_value(lambda s1, s2: 0.0, STANDARD_CHSH) == 0.0

    def test_constant_unit_correlation_saturates_classical_bound(self):
        assert chsh_value(lambda s1, s2: 1.0, STANDARD_CHSH) == 2.0

    def test_rejects_mixed_setting_kinds(self):
        with pytest.raises(ValidationError):
            ChshSettings(a=Z_AXIS, a_prime=X_AXIS,
                         b=QuadratureSetting(0.0), b_prime=QuadratureSetting(1.0))

    def test_rejects_time_settings(self):
        with pytest.raises(ValidationError):
            ChshSettings(a=TimeSetting(0.0), a_prime=TimeSetting(1.0),
                         b=TimeSetting(0.0), b_prime=TimeSetting(1.0))

    def test_cosine_correlations_respect_tsirelson_ceiling(self):
        # Scan all four angles on a coarse grid. The two b axes enter S
        # through separate terms, so the 100^4 maximum factorizes into
        # two 100^3 reductions.
        theta = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
        a = theta[:, None, None]
        ap = theta[None, :, None]
        b = theta[None, None, :]
        term_b = -np.cos(a - b) - np.cos(ap - b)          # corr(a,b) + corr(a',b)
        term_bp = np.cos(a - b) - np.cos(ap - b)          # -corr(a,b') + corr(a',b')
        s_max = (term_b.max(axis=2) + term_bp.max(axis=2)).max()
        s_min = (term_b.min(axis=2) + term_bp.min(axis=2)).min()
        ceiling = 2.0 * math.sqrt(2.0) + 1e-9
        assert s_max <= ceiling
        assert -s_min <= ceiling
