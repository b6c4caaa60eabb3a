"""Exact two-party correlation functions and the four-term CHSH combination.

Three families of measurement settings are supported:

* spin directions (``UnitVector3``) measured on the two-spin singlet,
* rotated quadratures q(alpha) = q cos(alpha) - p sin(alpha), where
  alpha = 0 is position and alpha = 3*pi/2 is momentum,
* free-evolution times, q(t) = q + p t.

The quadrature and time correlators depend on the state only through
its four cross moments (``MomentMatrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .gaussian import MomentMatrix
from .operators import IMAG_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z, UNIT_TOL, UnitVector3, singlet_state

# The per-pair operator path that the stacked correlator reproduces, bound
# here too: the benchmark's traced run probes these names on this module.
from .operators import expectation, pauli_observable, tensor  # noqa: F401

SPIN_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureSetting:
    """Rotation angle selecting the quadrature q(alpha), in radians.

    The angle is canonically reduced to [-pi, pi] at construction
    (IEEE remainder, exact), so settings a full period apart compare
    and evaluate identically.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValidationError(f"quadrature angle must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", math.remainder(self.alpha, math.tau))


#: Momentum measurement expressed as a quadrature setting: q(3*pi/2) = p.
MOMENTUM = QuadratureSetting(1.5 * math.pi)


@dataclass(frozen=True)
class TimeSetting:
    """Free-evolution time (mass-normalized units, hbar = 1)."""

    t: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValidationError(f"time must be finite, got {self.t!r}")


_CHSH_KINDS = (UnitVector3, QuadratureSetting)


@dataclass(frozen=True)
class ChshSettings:
    """The four settings (a, a', b, b') of the CHSH combination.

    All four must be of one kind: spin directions or quadrature angles.
    """

    a: object
    a_prime: object
    b: object
    b_prime: object

    def __post_init__(self) -> None:
        kind = type(self.a)
        if kind not in _CHSH_KINDS:
            raise ValidationError(
                f"CHSH settings must be UnitVector3 or QuadratureSetting, got {kind.__name__}"
            )
        for name in ("a_prime", "b", "b_prime"):
            if type(getattr(self, name)) is not kind:
                raise ValidationError(
                    f"CHSH settings must all be of one kind; {name} is "
                    f"{type(getattr(self, name)).__name__}, expected {kind.__name__}"
                )


def _pauli_stack(d: np.ndarray) -> np.ndarray:
    """d_x sigma_x + d_y sigma_y + d_z sigma_z for each row of an (n, 3) stack."""
    x, y, z = (d[:, i, None, None] for i in range(3))
    return x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


def _singlet_expectations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex <psi| A_i (x) B_i |psi> per row, psi the singlet.

    The same elementwise products and sums as ``expectation(singlet_state(),
    tensor(pauli_observable(a), pauli_observable(b)))``, stacked over rows,
    so each real part equals the per-pair value bit for bit.
    """
    psi = singlet_state()
    pa, pb = _pauli_stack(a), _pauli_stack(b)
    kron = (pa[:, :, None, :, None] * pb[:, None, :, None, :]).reshape(len(a), 4, 4)
    return (psi.conj() * (kron @ psi)).sum(axis=-1)


def _direction_stack(d, label: str) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValidationError(f"{label} must be an (n, 3) stack of direction cosines, "
                              f"got shape {d.shape}")
    norm_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= UNIT_TOL))
    if bad.size:
        raise ValidationError(f"{label} row {bad[0]} is not a finite unit vector: "
                              f"{d[bad[0]].tolist()}")
    return d


def spin_correlation_rows(a, b) -> np.ndarray:
    """Singlet correlation at each row pair of two (n, 3) direction-cosine stacks.

    Computed two ways and cross-checked row by row: the explicit 4x4
    expectation value, and the closed form -(a . b). Returns the matrix
    values; raises ``ConsistencyError`` naming the first row that
    disagrees beyond ``SPIN_CONSISTENCY_TOL`` or whose expectation has an
    imaginary part above ``IMAG_TOL``.
    """
    a, b = _direction_stack(a, "a"), _direction_stack(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"direction stacks differ in shape: {a.shape} vs {b.shape}")
    values = _singlet_expectations(a, b)
    matrix = values.real
    closed_form = -(a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2])
    bad = np.flatnonzero(~(np.abs(matrix - closed_form) <= SPIN_CONSISTENCY_TOL))
    if bad.size:
        i = bad[0]
        raise ConsistencyError(f"spin correlator mismatch at row {i}: matrix "
                               f"{float(matrix[i])!r} vs closed form {float(closed_form[i])!r}")
    bad = np.flatnonzero(~(np.abs(values.imag) <= IMAG_TOL))
    if bad.size:
        i = bad[0]
        raise ConsistencyError(f"spin correlator at row {i} came out complex: "
                               f"imag = {float(values.imag[i]):.3e}")
    return matrix.copy()


def spin_correlation(a: UnitVector3, b: UnitVector3) -> float:
    """Singlet correlation of spin components along ``a`` and ``b``.

    The one-pair case of ``spin_correlation_rows``: the explicit 4x4
    expectation value, cross-checked against the closed form -(a . b).
    """
    for d in (a, b):
        if not isinstance(d, UnitVector3):
            raise ValidationError(f"expected a UnitVector3 direction, got {type(d).__name__}")
    return float(spin_correlation_rows([(a.x, a.y, a.z)], [(b.x, b.y, b.z)])[0])


# The two closed forms below are given as their four signed terms, and take
# floats or row-aligned float arrays alike. numpy does the same IEEE
# operations in the same order on each element, so a row of an array result
# equals the float result bit for bit. The value is ``_add`` of the terms;
# the sum of their absolute values is the scale of its rounding error.


def _quadrature_terms(m: MomentMatrix, c1, s1, c2, s2) -> tuple:
    """The terms of <q1(alpha1) q2(alpha2)>, from the cosines and sines of the two angles."""
    return (m.qq * c1 * c2, -(m.pq * s1 * c2), -(m.qp * c1 * s2), m.pp * s1 * s2)


def _free_evolution_terms(m: MomentMatrix, t1, t2) -> tuple:
    """The terms of <q1(t1) q2(t2)>, from the two times."""
    return (m.qq, m.pq * t1, m.qp * t2, m.pp * (t1 * t2))


def _add(terms):
    """The four terms added in order, starting from the first rather than from 0.0.

    So a -0.0 keeps its sign, and since IEEE defines x - y as x + (-y), a
    negated term adds to the bits that subtracting it gives.
    """
    a, b, c, d = terms
    return a + b + c + d


def quadrature_correlation(m: MomentMatrix, a1: QuadratureSetting, a2: QuadratureSetting) -> float:
    """<q1(alpha1) q2(alpha2)> expanded over the four cross moments."""
    if not isinstance(a1, QuadratureSetting) or not isinstance(a2, QuadratureSetting):
        raise ValidationError("quadrature_correlation expects QuadratureSetting arguments")
    return _add(_quadrature_terms(m, math.cos(a1.alpha), math.sin(a1.alpha),
                                  math.cos(a2.alpha), math.sin(a2.alpha)))


def free_evolution_correlation(m: MomentMatrix, t1: TimeSetting, t2: TimeSetting) -> float:
    """<q1(t1) q2(t2)> for freely evolving particles, q(t) = q + p t."""
    if not isinstance(t1, TimeSetting) or not isinstance(t2, TimeSetting):
        raise ValidationError("free_evolution_correlation expects TimeSetting arguments")
    return _add(_free_evolution_terms(m, t1.t, t2.t))


def chsh_value(corr, settings: ChshSettings) -> float:
    """S = corr(a,b) - corr(a,b') + corr(a',b) + corr(a',b').

    ``corr`` must accept the setting kind carried by ``settings``; the
    minus sign sits on the (a, b') term.
    """
    return (corr(settings.a, settings.b)
            - corr(settings.a, settings.b_prime)
            + corr(settings.a_prime, settings.b)
            + corr(settings.a_prime, settings.b_prime))
