"""Two-mode Gaussian states as covariance matrices.

Conventions
-----------
hbar = 1 with [q, p] = i, so each vacuum quadrature has variance 1/2.
Phase-space ordering is (q1, p1, q2, p2) throughout. States have zero
mean, so the raw cross moments <q1 q2>, ... are the entries of the
covariance cross block.

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
#: Largest |r| for which cosh(2r) and sinh(2r) are finite doubles.
MAX_SQUEEZING = 0.5 * math.acosh(sys.float_info.max)

_Q1, _P1, _Q2, _P2 = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class GaussianState:
    """4x4 real covariance matrix of a zero-mean state, in (q1, p1, q2, p2) order.

    Construction validates shape, finiteness, and symmetry. Physicality
    (the uncertainty relation) is not checked; states produced by
    ``tmsv`` satisfy it for every squeezing.
    """

    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (4, 4):
            raise ValidationError(f"covariance must be 4x4, got shape {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariance entries must be finite")
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > SYMMETRY_TOL:
            raise ValidationError(f"covariance deviates from symmetric by {asym:.3e}")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)


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
    """Raw second cross moments of a Gaussian state: its covariance cross block."""
    cov = state.cov
    # Adding 0.0 turns a -0.0 entry into +0.0 (tmsv(0) has cov[p1, p2] =
    # -0.0), so a zero moment never prints as "-0" downstream.
    return MomentMatrix(
        qq=float(cov[_Q1, _Q2] + 0.0),
        pq=float(cov[_P1, _Q2] + 0.0),
        qp=float(cov[_Q1, _P2] + 0.0),
        pp=float(cov[_P1, _P2] + 0.0),
    )
