import math

import numpy as np
import pytest

from eprlab import (
    GaussianState,
    MomentMatrix,
    ValidationError,
    extract_moments,
    tmsv,
)
from eprlab.gaussian import MAX_SQUEEZING
from conftest import two_mode_squeeze_cov, two_mode_squeeze_symplectic

#: Symplectic form in (q1, p1, q2, p2) ordering.
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

#: 13 squeezings spanning [-3, 3].
SQUEEZINGS = np.linspace(-3.0, 3.0, 13).tolist()


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        assert np.array_equal(tmsv(0.0).cov, 0.5 * np.eye(4))

    @pytest.mark.parametrize("r", sorted({*SQUEEZINGS, -0.2, 0.3, 2.7}))
    def test_matches_symplectic_oracle(self, r):
        # S Omega S^T = Omega, so tmsv(r) = S (I/2) S^T is as physical as
        # the vacuum I/2: it satisfies cov + (i/2) Omega >= 0.
        s_mat = two_mode_squeeze_symplectic(r)
        assert np.max(np.abs(s_mat @ OMEGA @ s_mat.T - OMEGA)) < 1e-12
        assert np.max(np.abs(tmsv(r).cov - two_mode_squeeze_cov(r))) < 1e-12

    def test_position_cross_moment_at_r1(self):
        assert abs(tmsv(1.0).cov[0, 2] - math.sinh(2.0) / 2.0) < 1e-15

    def test_no_position_momentum_cross_term(self):
        assert tmsv(1.0).cov[0, 3] == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            tmsv(math.inf)

    @pytest.mark.parametrize("r", [355.3, -356.0, 1000.0])
    def test_rejects_squeezing_that_overflows(self, r):
        with pytest.raises(ValidationError, match="355.238"):
            tmsv(r)

    @pytest.mark.parametrize("r", [MAX_SQUEEZING, -MAX_SQUEEZING])
    def test_largest_squeezing_is_finite(self, r):
        assert np.all(np.isfinite(tmsv(r).cov))


class TestExtractMoments:
    def test_vacuum_has_no_cross_correlation(self):
        m = extract_moments(tmsv(0.0))
        assert (m.qq, m.pq, m.qp, m.pp) == (0.0, 0.0, 0.0, 0.0)

    def test_vacuum_moments_are_positive_zeros(self):
        # tmsv(0) stores cov[p1, p2] = -0.0; a "-0" would reach the CSV.
        m = extract_moments(tmsv(0.0))
        assert [v.hex() for v in (m.qq, m.pq, m.qp, m.pp)] == ["0x0.0p+0"] * 4

    def test_tmsv_r1(self):
        m = extract_moments(tmsv(1.0))
        s = math.sinh(2.0) / 2.0
        assert abs(m.qq - s) < 1e-12
        assert m.pq == 0.0 and m.qp == 0.0
        assert abs(m.pp + s) < 1e-12

    def test_direct_read_off_of_cross_block(self):
        # rows (q1, p1), columns (q2, p2): [[qq, qp], [pq, pp]]
        cov = np.array([
            [9.0, 0.0, 2.0, 3.0],
            [0.0, 9.0, 5.0, 7.0],
            [2.0, 5.0, 9.0, 0.0],
            [3.0, 7.0, 0.0, 9.0],
        ])
        m = extract_moments(GaussianState(cov=cov))
        assert (m.qq, m.qp, m.pq, m.pp) == (2.0, 3.0, 5.0, 7.0)

    def test_antisymmetry_of_tmsv_moments(self):
        for r in np.linspace(-3.0, 3.0, 13):
            m = extract_moments(tmsv(float(r)))
            assert abs(m.qq + m.pp) < 1e-12
            assert m.pq == 0.0 and m.qp == 0.0

    def test_linear_in_covariance_for_zero_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c1 = rng.standard_normal((4, 4))
            c1 = c1 + c1.T
            c2 = rng.standard_normal((4, 4))
            c2 = c2 + c2.T
            lam, mu = rng.standard_normal(2)
            combined = extract_moments(GaussianState(cov=lam * c1 + mu * c2))
            m1 = extract_moments(GaussianState(cov=c1))
            m2 = extract_moments(GaussianState(cov=c2))
            for name in ("qq", "pq", "qp", "pp"):
                expected = lam * getattr(m1, name) + mu * getattr(m2, name)
                assert abs(getattr(combined, name) - expected) < 1e-12


def min_uncertainty_eigenvalue(cov: np.ndarray) -> float:
    """Smallest eigenvalue of cov + (i/2) Omega; physical means >= -1e-9."""
    return float(np.linalg.eigvalsh(cov.astype(complex) + 0.5j * OMEGA)[0])


class TestUncertaintyCheck:
    def test_vacuum_passes(self):
        assert min_uncertainty_eigenvalue(GaussianState(cov=0.5 * np.eye(4)).cov) > -1e-9

    def test_squeezed_state_passes(self):
        assert min_uncertainty_eigenvalue(tmsv(2.0).cov) >= -1e-9

    def test_zero_covariance_fails(self):
        # The check has teeth: a zero covariance violates cov + (i/2) Omega >= 0.
        min_eig = min_uncertainty_eigenvalue(GaussianState(cov=np.zeros((4, 4))).cov)
        assert min_eig < -1e-9
        assert abs(min_eig + 0.5) < 1e-12

    @pytest.mark.parametrize("r", SQUEEZINGS)
    def test_whole_squeezing_range_physical(self, r):
        assert min_uncertainty_eigenvalue(tmsv(r).cov) >= -1e-9


class TestGaussianStateValidation:
    def test_rejects_asymmetric_covariance(self):
        cov = 0.5 * np.eye(4)
        cov[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            GaussianState(cov=cov)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            GaussianState(cov=np.eye(2))

    def test_covariance_is_readonly(self):
        state = tmsv(0.5)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 1.0


class TestMomentMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            MomentMatrix(qq=math.inf, pq=0.0, qp=0.0, pp=0.0)
