"""Exact finite-dimensional complex linear algebra for spin measurements.

Everything here is small and dense: 2x2 matrices for a single spin-1/2,
4x4 matrices for a pair, and the singlet's amplitude vector, all plain
complex numpy arrays. The Pauli matrices and the singlet are read-only,
so no caller can change them in place.

``pauli_observable``, ``tensor`` and ``expectation`` evaluate one pair of
directions at a time; they are the reference that the stacked singlet
correlator reproduces bit for bit.

Basis ordering for the two-spin space is |00>, |01>, |10>, |11> with the
first factor belonging to particle 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError

UNIT_TOL = 1e-9
IMAG_TOL = 1e-12


def _readonly(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class UnitVector3:
    """A measurement direction: unit vector in R^3 (direction cosines)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        comps = (self.x, self.y, self.z)
        if not all(math.isfinite(c) for c in comps):
            raise ValidationError(f"direction components must be finite, got {comps}")
        norm_sq = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(norm_sq - 1.0) > UNIT_TOL:
            raise ValidationError(
                f"direction must be a unit vector: |a|^2 = {norm_sq!r} deviates from 1"
            )


SIGMA_X = _readonly([[0, 1], [1, 0]], complex)
SIGMA_Y = _readonly([[0, -1j], [1j, 0]], complex)
SIGMA_Z = _readonly([[1, 0], [0, -1]], complex)


def pauli_observable(a: UnitVector3) -> np.ndarray:
    """Spin component along ``a``: a.x*sigma_x + a.y*sigma_y + a.z*sigma_z.

    The result is a 2x2 Hermitian involution, so its eigenvalues are
    exactly +1 and -1 for any unit direction.
    """
    if not isinstance(a, UnitVector3):
        raise ValidationError(f"expected a UnitVector3 direction, got {type(a).__name__}")
    return a.x * SIGMA_X + a.y * SIGMA_Y + a.z * SIGMA_Z


def singlet_state() -> np.ndarray:
    """The two-spin singlet (|01> - |10>) / sqrt(2), as a read-only array."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return _readonly([0.0, inv_sqrt2, -inv_sqrt2, 0.0], complex)


def tensor(op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-spin operators (first factor = particle 1)."""
    return np.kron(op_a, op_b)


def expectation(state: np.ndarray, op: np.ndarray) -> float:
    """<psi|Op|psi> for a Hermitian operator, returned as a real number.

    The imaginary part must sit at rounding level; anything above
    ``IMAG_TOL`` indicates a broken operator and raises.
    """
    value = complex(np.vdot(state, op @ state))
    if abs(value.imag) > IMAG_TOL:
        raise ConsistencyError(
            f"expectation of a hermitian operator came out complex: imag = {value.imag:.3e}"
        )
    return float(value.real)
