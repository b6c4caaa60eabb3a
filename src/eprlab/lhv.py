"""Hidden-variable models built as separated random processes.

A model is a probability space plus one real response function per
party; the modeled correlation is the expectation of the product of the
two responses, each depending only on its own party's setting:

    E[xi1(s1, .) * xi2(s2, .)]

Every model is a weight vector w over a latent basis b_1..b_d, with
E[b_k b_l] = w_k delta_kl, plus one feature map per party: xi(s) =
sum_k phi_k(s) b_k. The correlation sum_k w_k phi1_k(s1) phi2_k(s2) is
therefore one contraction, computed in closed form; no sampling happens
here (see ``estimator`` for the Monte Carlo side). Two sample spaces
cover everything this package needs:

* ``FINITE``: atoms 1..K with nonnegative weights w summing to 1; b_k is
  the indicator of atom k. Used by the three-atom spin model, whose
  responses reproduce -(a . b) exactly at the price of a response bound
  of sqrt(3) instead of 1.
* ``GAUSSIAN_PAIR``: two independent standard normals (eta1, eta2), so
  w = (1, 1). Used by the quadrature and free-evolution models, whose
  features are matched to the four cross moments. Such responses are
  unbounded, which is exactly what lets them escape the CHSH bound
  argument.

The response bound of a model, the number that contrast turns on, is
``sup_bound``: the exact supremum of both responses, read off their
coefficients. ``spectrum_compatibility`` compares it, or the responses'
range, with an observable's spectrum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .correlators import QuadratureSetting, TimeSetting
from .errors import ValidationError
from .gaussian import MomentMatrix
from .operators import UnitVector3

__all__ = [
    "UNBOUNDED", "ComponentResponse", "HiddenVariableModel", "LinearResponse",
    "ResponseMode", "SampleSpace", "SpaceKind", "Spectrum", "TabulatedResponse",
    "exact_expectation", "expectation_grid", "free_evolution_model", "quadrature_model",
    "spectrum_compatibility", "sup_bound", "unbounded_spin_model",
]

#: Sup-bound value reported for responses with unbounded range.
UNBOUNDED = math.inf

WEIGHT_TOL = 1e-12
#: Slack of the SPIN_PM1 verdict: a response bound up to 1 + SPIN_PM1_TOL fits [-1, 1].
SPIN_PM1_TOL = 1e-12


def _real(value, what: str) -> float:
    """``value`` as a finite float, or a ValidationError naming ``what``.

    The one rule for a model's numbers: a real number, Python's or numpy's
    but not a bool, that is finite as a float.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise ValidationError(f"{what}: expected a finite real number, got {value!r}")


def _reals(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats, each by ``_real``."""
    try:
        items = iter(values)
    except TypeError:
        raise ValidationError(f"{what}: expected a sequence of real numbers, "
                              f"got {type(values).__name__}") from None
    return tuple(_real(v, what) for v in items)


class SpaceKind(Enum):
    FINITE = "FINITE"
    GAUSSIAN_PAIR = "GAUSSIAN_PAIR"


@dataclass(frozen=True)
class SampleSpace:
    """Probability space the hidden variable lives on."""

    kind: SpaceKind
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SpaceKind):
            raise ValidationError(f"sample space kind must be a SpaceKind, got {self.kind!r}")
        if self.kind is SpaceKind.FINITE:
            w = () if self.weights is None else _reals(self.weights, "atom weights")
            if not w:
                raise ValidationError("FINITE sample space needs at least one atom weight")
            if any(x < 0.0 for x in w):
                raise ValidationError(f"atom weights must be nonnegative, got {w}")
            total = math.fsum(w)
            if abs(total - 1.0) > WEIGHT_TOL:
                raise ValidationError(f"atom weights must sum to 1, got {total!r}")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValidationError("GAUSSIAN_PAIR sample space carries no weights")

    @classmethod
    def finite(cls, weights: Sequence[float]) -> "SampleSpace":
        return cls(SpaceKind.FINITE, tuple(weights))

    @classmethod
    def gaussian_pair(cls) -> "SampleSpace":
        return cls(SpaceKind.GAUSSIAN_PAIR)

    @property
    def basis_weights(self) -> tuple[float, ...]:
        """The diagonal Gram matrix w of the latent basis: atom weights, or (1, 1)."""
        return self.weights if self.kind is SpaceKind.FINITE else (1.0, 1.0)


class ResponseMode(Enum):
    #: xi(alpha) = f cos(alpha) - g sin(alpha), mimicking a rotated quadrature.
    TRIG = "TRIG"
    #: xi(t) = f + g t, mimicking free evolution.
    LINEAR_TIME = "LINEAR_TIME"


@dataclass(frozen=True)
class ComponentResponse:
    """Response on a three-atom FINITE space, linear in the measurement direction.

    The feature vector at direction ``a`` is ``scale * a``: atom ``k``
    responds with the k-th direction cosine, so the sup over unit
    directions is exactly ``abs(scale)``.
    """

    scale: float
    space_kind = SpaceKind.FINITE
    dim = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _real(self.scale, "response scale"))

    def features(self, setting: UnitVector3) -> tuple[float, float, float]:
        if not isinstance(setting, UnitVector3):
            raise ValidationError(
                f"direction-component response expects a UnitVector3 setting, "
                f"got {type(setting).__name__}"
            )
        s = self.scale
        return (s * setting.x, s * setting.y, s * setting.z)

    def sup(self) -> float:
        return abs(self.scale)


@dataclass(frozen=True)
class TabulatedResponse:
    """Response on a FINITE space tabulated over an explicit set of settings.

    ``values[i]`` is the feature vector at ``settings[i]``: one value per
    atom. A repeated setting keeps its first row. Evaluating at a setting
    not in the table is an error.
    """

    settings: tuple
    values: tuple[tuple[float, ...], ...]
    _rows: dict = field(init=False, repr=False, compare=False)
    space_kind = SpaceKind.FINITE

    def __post_init__(self) -> None:
        settings = tuple(self.settings)
        values = tuple(_reals(row, "tabulated response values") for row in self.values)
        if len(settings) != len(values) or not settings:
            raise ValidationError("tabulated response needs one value row per setting")
        n_atoms = len(values[0])
        if any(len(row) != n_atoms or not row for row in values):
            raise ValidationError("tabulated response rows must share one atom count")
        rows: dict = {}
        for setting, row in zip(settings, values):
            try:
                rows.setdefault(setting, row)
            except TypeError:
                raise ValidationError(
                    f"tabulated settings must be hashable, got {setting!r}") from None
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_rows", rows)

    @property
    def dim(self) -> int:
        return len(self.values[0])

    def features(self, setting) -> tuple[float, ...]:
        try:
            return self._rows[setting]
        except (KeyError, TypeError):
            raise ValidationError(
                f"setting {setting!r} is not tabulated in this response") from None

    def sup(self) -> float:
        return max(abs(v) for row in self.values for v in row)


@dataclass(frozen=True)
class LinearResponse:
    """Response on the GAUSSIAN_PAIR space, linear in (eta1, eta2).

    ``q_coeffs`` are the latent coefficients of the position-like part f
    and ``p_coeffs`` those of the momentum-like part g. The response is
    f cos(alpha) - g sin(alpha) in TRIG mode and f + g t in LINEAR_TIME
    mode, mirroring how the measured observable depends on the setting.
    """

    q_coeffs: tuple[float, float]
    p_coeffs: tuple[float, float]
    mode: ResponseMode
    space_kind = SpaceKind.GAUSSIAN_PAIR
    dim = 2

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ResponseMode):
            raise ValidationError(f"response mode must be a ResponseMode, got {self.mode!r}")
        q, p = _reals(self.q_coeffs, "q_coeffs"), _reals(self.p_coeffs, "p_coeffs")
        if len(q) != 2 or len(p) != 2:
            raise ValidationError("latent coefficient vectors must have length 2")
        object.__setattr__(self, "q_coeffs", q)
        object.__setattr__(self, "p_coeffs", p)

    def features(self, setting) -> tuple[float, float]:
        """Latent coefficient vector of the response at ``setting``."""
        q, p = self.q_coeffs, self.p_coeffs
        if self.mode is ResponseMode.TRIG:
            if not isinstance(setting, QuadratureSetting):
                raise ValidationError(
                    f"TRIG response expects a QuadratureSetting, got {type(setting).__name__}"
                )
            c, s = math.cos(setting.alpha), math.sin(setting.alpha)
            return (q[0] * c - p[0] * s, q[1] * c - p[1] * s)
        if not isinstance(setting, TimeSetting):
            raise ValidationError(
                f"LINEAR_TIME response expects a TimeSetting, got {type(setting).__name__}"
            )
        t = setting.t
        return (q[0] + p[0] * t, q[1] + p[1] * t)

    def sup(self) -> float:
        # A linear form in two standard normals that is nonzero at some
        # setting takes every real value there.
        return 0.0 if self.q_coeffs == self.p_coeffs == (0.0, 0.0) else UNBOUNDED


@dataclass(frozen=True)
class HiddenVariableModel:
    """Sample space plus the two per-party response functions.

    Each response (``ComponentResponse``, ``TabulatedResponse`` or
    ``LinearResponse``) names the space kind it lives on and its feature
    count ``dim``; both must match the space, and the two responses must
    share one response mode. The model's response bound is
    ``sup_bound(model)``, exact from the two responses.
    """

    space: SampleSpace
    response1: object
    response2: object

    def __post_init__(self) -> None:
        kind, dim = self.space.kind, len(self.space.basis_weights)
        for name, resp in (("response1", self.response1), ("response2", self.response2)):
            if getattr(resp, "space_kind", None) is not kind:
                raise ValidationError(
                    f"{name} must be a response on a {kind.value} space, "
                    f"got {type(resp).__name__}"
                )
            if resp.dim != dim:
                raise ValidationError(
                    f"{name} has {resp.dim} features but the space has {dim} basis elements"
                )
        if getattr(self.response1, "mode", None) is not getattr(self.response2, "mode", None):
            raise ValidationError("both responses must share one response mode")


def unbounded_spin_model() -> HiddenVariableModel:
    """Three-atom model reproducing the singlet correlation -(a . b).

    Atoms are the three coordinate axes with uniform weight. Party 1
    responds with sqrt(3) times its direction cosine along the atom's
    axis, party 2 with the negative of the same. The response magnitude
    reaches sqrt(3), so the model violates the unit bound that the CHSH
    derivation needs, which is precisely what lets it match the quantum
    correlation.
    """
    root3 = math.sqrt(3.0)
    third = 1.0 / 3.0
    return HiddenVariableModel(
        space=SampleSpace.finite((third, third, third)),
        response1=ComponentResponse(root3),
        response2=ComponentResponse(-root3),
    )


def _moment_model(m: MomentMatrix, mode: ResponseMode) -> HiddenVariableModel:
    """The Gaussian-pair model of ``m``: party 1 takes the rows of the
    cross-moment block as coefficients, party 2 the identity."""
    return HiddenVariableModel(
        space=SampleSpace.gaussian_pair(),
        response1=LinearResponse((m.qq, m.qp), (m.pq, m.pp), mode),
        response2=LinearResponse((1.0, 0.0), (0.0, 1.0), mode),
    )


def quadrature_model(m: MomentMatrix) -> HiddenVariableModel:
    """Gaussian-pair model whose rotated-quadrature correlation matches ``m``.

    Party 1 takes the rows of the cross-moment block as coefficients and
    party 2 the identity, which solves the four moment equations
    E f1 f2 = qq, E g1 f2 = pq, E f1 g2 = qp, E g1 g2 = pp
    for every moment matrix, qq = 0 included, and therefore reproduces
    the quadrature correlator exactly for every pair of angles.
    """
    return _moment_model(m, ResponseMode.TRIG)


def free_evolution_model(m: MomentMatrix) -> HiddenVariableModel:
    """Gaussian-pair model matching <q1(t1) q2(t2)> for free evolution.

    Uses the coefficient rows of ``quadrature_model``, so the exact
    expectation equals qq + pq t1 + qp t2 + pp t1 t2 for all times.
    """
    return _moment_model(m, ResponseMode.LINEAR_TIME)


def _contract(weights, phi1, phi2) -> np.ndarray:
    """sum_k w_k phi1_k phi2_k over the last (latent) axis of broadcast arrays.

    The terms (phi1_k w_k) phi2_k are added in index order, starting from
    the first term rather than from 0.0, so a pair gets the same bits
    alone or inside a grid, and a -0.0 keeps its sign.
    """
    terms = phi1 * weights * phi2
    total = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        total = total + terms[..., k]
    return total


def exact_expectation(model: HiddenVariableModel, s1, s2) -> float:
    """E[xi1(s1) xi2(s2)] in closed form: the contraction of the two parties' feature rows."""
    return float(_contract(np.array(model.space.basis_weights),
                           np.array(model.response1.features(s1)),
                           np.array(model.response2.features(s2))))


def _feature_stack(response, settings: Sequence) -> np.ndarray:
    """The settings' feature rows as a (len(settings), response.dim) array, empty lists too."""
    return np.array([response.features(s) for s in settings]).reshape(len(settings), response.dim)


def expectation_grid(model: HiddenVariableModel,
                     settings1: Sequence, settings2: Sequence) -> np.ndarray:
    """``exact_expectation`` over the Cartesian product of two setting lists.

    Same contraction as the scalar form, broadcast over both lists, so
    each entry equals the scalar value bit for bit; returns an array of
    shape (len(settings1), len(settings2)).
    """
    phi1 = _feature_stack(model.response1, settings1)
    phi2 = _feature_stack(model.response2, settings2)
    return _contract(np.array(model.space.basis_weights), phi1[:, None, :], phi2[None, :, :])


def sup_bound(model: HiddenVariableModel) -> float:
    """Supremum of |xi_n| over parties, settings, and sample points.

    The larger of the two responses' exact suprema: |scale| for
    direction-component responses, the tabulated maximum, and for
    gaussian linear responses UNBOUNDED unless identically zero.
    """
    return max(model.response1.sup(), model.response2.sup())


class Spectrum(Enum):
    """Target observable ranges for the reality condition."""

    SPIN_PM1 = "SPIN_PM1"
    QUADRATURE_REAL_LINE = "QUADRATURE_REAL_LINE"


def _spans_line_at_every_setting(resp: LinearResponse) -> bool:
    # The response at a fixed setting spans all of R over the latent pair
    # iff its coefficient vector there is nonzero. f cos - g sin vanishes at
    # some angle iff f and g are dependent; so does f + g t, except when
    # g = 0 and f != 0.
    q, p = resp.q_coeffs, resp.p_coeffs
    return (q[0] * p[1] - q[1] * p[0] != 0.0
            or resp.mode is ResponseMode.LINEAR_TIME and p == (0.0, 0.0) and q != (0.0, 0.0))


def spectrum_compatibility(model: HiddenVariableModel, spectrum: Spectrum) -> bool:
    """Whether the response ranges are compatible with the observable spectrum.

    SPIN_PM1 requires every response value to lie in [-1, 1], that is a
    ``sup_bound`` of at most 1 (up to ``SPIN_PM1_TOL``).
    QUADRATURE_REAL_LINE requires each response to reach the whole real
    line at every setting, which only gaussian linear responses with
    independent coefficient vectors provide.
    """
    if spectrum is Spectrum.SPIN_PM1:
        return sup_bound(model) <= 1.0 + SPIN_PM1_TOL
    if spectrum is not Spectrum.QUADRATURE_REAL_LINE:
        raise ValidationError(f"unknown spectrum: {spectrum!r}")
    return (model.space.kind is SpaceKind.GAUSSIAN_PAIR
            and _spans_line_at_every_setting(model.response1)
            and _spans_line_at_every_setting(model.response2))
