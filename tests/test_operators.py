import math

import numpy as np
import pytest

from eprlab import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ConsistencyError,
    UnitVector3,
    ValidationError,
    expectation,
    pauli_observable,
    singlet_state,
    tensor,
)
from conftest import random_unit_vectors

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestUnitVector3:
    def test_accepts_unit_vectors(self):
        v = UnitVector3(0.0, 0.0, 1.0)
        assert v.z == 1.0
        assert v.x * v.x + v.y * v.y + v.z * v.z == 1.0

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            UnitVector3(1.0, 1.0, 0.0)

    def test_norm_tolerance_boundary(self):
        # |a|^2 - 1 = 1e-10 is inside the 1e-9 tolerance, 1e-8 is not.
        UnitVector3(1.0, 1e-5, 0.0)
        with pytest.raises(ValidationError):
            UnitVector3(1.0, 1e-4, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            UnitVector3(math.nan, 0.0, 0.0)


class TestPauliObservable:
    def test_z_direction_is_sigma_z(self):
        op = pauli_observable(UnitVector3(0.0, 0.0, 1.0))
        assert np.array_equal(op, np.array([[1, 0], [0, -1]], dtype=complex))

    def test_x_direction_is_sigma_x(self):
        op = pauli_observable(UnitVector3(1.0, 0.0, 0.0))
        assert np.array_equal(op, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_tilted_direction_has_unit_eigenvalues(self):
        op = pauli_observable(UnitVector3(INV_SQRT2, 0.0, INV_SQRT2))
        eigs = np.linalg.eigvalsh(op)
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)

    def test_squares_to_identity(self):
        rng = np.random.default_rng(11)
        for a in random_unit_vectors(rng, 50):
            op = pauli_observable(a)
            assert np.max(np.abs(op @ op - np.eye(2))) < 1e-12

    def test_rejects_non_direction(self):
        with pytest.raises(ValidationError):
            pauli_observable((0.0, 0.0, 1.0))


class TestSingletState:
    def test_amplitudes(self):
        psi = singlet_state()
        assert np.allclose(psi, [0.0, INV_SQRT2, -INV_SQRT2, 0.0], atol=1e-15)

    def test_normalized(self):
        assert abs(np.linalg.norm(singlet_state()) - 1.0) < 1e-12

    def test_no_overlap_with_00(self):
        assert singlet_state()[0] == 0.0


class TestTensor:
    def test_identity_identity(self):
        op = tensor(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        assert np.array_equal(op, np.eye(4, dtype=complex))

    def test_sigma_z_sigma_z(self):
        op = tensor(SIGMA_Z, SIGMA_Z)
        assert np.array_equal(op, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))

    def test_sigma_x_sigma_z_entry(self):
        op = tensor(SIGMA_X, SIGMA_Z)
        assert op[0, 2] == 1.0


class TestExpectation:
    def test_singlet_zz(self):
        value = expectation(singlet_state(), tensor(SIGMA_Z, SIGMA_Z))
        assert abs(value - (-1.0)) < 1e-12

    def test_singlet_identity(self):
        assert abs(expectation(singlet_state(), np.eye(4, dtype=complex)) - 1.0) < 1e-12

    def test_singlet_xz_vanishes(self):
        assert abs(expectation(singlet_state(), tensor(SIGMA_X, SIGMA_Z))) < 1e-12

    def test_complex_value_raises(self):
        # i (|01><10| + |10><01|) is anti-Hermitian; its singlet value is -i.
        op = np.zeros((4, 4), dtype=complex)
        op[1, 2] = op[2, 1] = 1j
        with pytest.raises(ConsistencyError, match="came out complex"):
            expectation(singlet_state(), op)

    def test_matches_minus_dot_product(self):
        # The singlet correlation along any two directions is -(a . b).
        rng = np.random.default_rng(7)
        psi = singlet_state()
        vectors = random_unit_vectors(rng, 220)
        for a, b in zip(vectors[::2], vectors[1::2]):
            op = tensor(pauli_observable(a), pauli_observable(b))
            closed_form = -(a.x * b.x + a.y * b.y + a.z * b.z)
            assert abs(expectation(psi, op) - closed_form) < 1e-12


class TestConstruction:
    def test_matrix_is_readonly(self):
        for constant in (SIGMA_X, SIGMA_Y, SIGMA_Z, singlet_state()):
            with pytest.raises(ValueError):
                constant[0] = 5.0
