"""Two-mode Gaussian states as covariance matrices.

Conventions
-----------
hbar = 1 with [q, p] = i, so each vacuum quadrature has variance 1/2.
Phase-space ordering is (q1, p1, q2, p2) throughout. Moments are raw,
not central: <q1 q2> = cov(q1, q2) + <q1><q2>, and the mean defaults to
zero, in which case the cross moments are just the covariance cross
block.

The idealized perfectly-correlated pair (delta-correlated positions,
anti-correlated momenta) is not representable here; the two-mode
squeezed vacuum family ``tmsv`` approaches it as the squeezing grows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
#: Largest |r| for which cosh(2r) and sinh(2r) are finite doubles.
MAX_SQUEEZING = 0.5 * math.acosh(sys.float_info.max)

#: Symplectic form in (q1, p1, q2, p2) ordering.
SYMPLECTIC_FORM = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
SYMPLECTIC_FORM.setflags(write=False)

_Q1, _P1, _Q2, _P2 = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class GaussianState:
    """4x4 real covariance matrix plus mean vector in (q1, p1, q2, p2) order.

    Construction validates shape, finiteness, and symmetry. Physicality
    (the uncertainty relation) is deliberately *not* enforced here so
    that ``uncertainty_check`` can be used to probe arbitrary matrices;
    states produced by this module always pass it.
    """

    cov: np.ndarray
    mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (4, 4):
            raise ValidationError(f"covariance must be 4x4, got shape {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariance entries must be finite")
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > SYMMETRY_TOL:
            raise ValidationError(f"covariance deviates from symmetric by {asym:.3e}")
        mean = np.zeros(4) if self.mean is None else np.array(self.mean, dtype=float)
        if mean.shape != (4,):
            raise ValidationError(f"mean must have 4 entries (q1, p1, q2, p2), got {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValidationError("mean entries must be finite")
        cov.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)


@dataclass(frozen=True)
class MomentMatrix:
    """The four cross moments that fix the two-party quadrature correlator.

    qq = <q1 q2>, pq = <p1 q2>, qp = <q1 p2>, pp = <p1 p2>.
    """

    qq: float
    pq: float
    qp: float
    pp: float

    def __post_init__(self) -> None:
        for name in ("qq", "pq", "qp", "pp"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"moment {name} must be finite")

    def as_matrix(self) -> np.ndarray:
        """Cross block with rows (q1, p1) and columns (q2, p2)."""
        return np.array([[self.qq, self.qp], [self.pq, self.pp]])


@dataclass(frozen=True)
class UncertaintyReport:
    physical: bool
    min_eigenvalue: float


def tmsv(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter ``r``.

    Zero mean; each quadrature variance is cosh(2r)/2, the position
    cross correlation is sinh(2r)/2 and the momentum one its negative.
    r = 0 gives the vacuum. Physical for every finite r; representable
    for |r| <= MAX_SQUEEZING (about 355.24).
    """
    if not math.isfinite(r):
        raise ValidationError(f"squeezing parameter must be finite, got {r!r}")
    try:
        c = math.cosh(2.0 * r) / 2.0
        s = math.sinh(2.0 * r) / 2.0
    except OverflowError:
        raise ValidationError(f"squeezing parameter {r!r} overflows cosh(2r); |r| must be at "
                              f"most {MAX_SQUEEZING:.6g}") from None
    cov = np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
    return GaussianState(cov=cov)


def extract_moments(state: GaussianState) -> MomentMatrix:
    """Raw second cross moments of a Gaussian state."""
    cov, mean = state.cov, state.mean
    return MomentMatrix(
        qq=float(cov[_Q1, _Q2] + mean[_Q1] * mean[_Q2]),
        pq=float(cov[_P1, _Q2] + mean[_P1] * mean[_Q2]),
        qp=float(cov[_Q1, _P2] + mean[_Q1] * mean[_P2]),
        pp=float(cov[_P1, _P2] + mean[_P1] * mean[_P2]),
    )


def uncertainty_check(state: GaussianState) -> UncertaintyReport:
    """Check cov + (i/2) Omega >= 0, the physicality condition.

    Returns the minimal eigenvalue of the Hermitian matrix as a
    diagnostic; the state passes when it is above -PHYSICALITY_TOL.
    """
    herm = state.cov.astype(complex) + 0.5j * SYMPLECTIC_FORM
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return UncertaintyReport(physical=min_eig >= -PHYSICALITY_TOL, min_eigenvalue=min_eig)
