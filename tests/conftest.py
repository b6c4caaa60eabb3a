"""Shared helpers: deterministic direction samplers, an independent
covariance oracle for the two-mode squeezed vacuum, a second quadrature
construction, per-draw references for the Monte Carlo streams, and the
one switch of the estimator's tile routing."""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from eprlab import (
    HiddenVariableModel,
    LinearResponse,
    MomentMatrix,
    QuadratureSetting,
    ResponseMode,
    SampleSpace,
    SpaceKind,
    TabulatedResponse,
    UnitVector3,
    estimator,
)


def random_unit_vectors(rng: np.random.Generator, n: int) -> list[UnitVector3]:
    """Isotropic unit vectors (normalized Gaussian triples)."""
    out = []
    while len(out) < n:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue
        v = v / norm
        out.append(UnitVector3(float(v[0]), float(v[1]), float(v[2])))
    return out


def fibonacci_sphere(n: int) -> list[UnitVector3]:
    """Deterministic near-uniform grid of n unit vectors."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        radius = math.sqrt(max(1.0 - z * z, 0.0))
        theta = golden * i
        v = np.array([radius * math.cos(theta), radius * math.sin(theta), z])
        v = v / np.linalg.norm(v)
        points.append(UnitVector3(float(v[0]), float(v[1]), float(v[2])))
    return points


def two_mode_squeeze_symplectic(r: float) -> np.ndarray:
    """The 4x4 two-mode squeeze symplectic matrix in (q1, p1, q2, p2) order."""
    ch, sh = math.cosh(r), math.sinh(r)
    return np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ])


def two_mode_squeeze_cov(r: float) -> np.ndarray:
    """Vacuum covariance conjugated by the two-mode squeeze symplectic.

    Independent of the tmsv construction: builds the 4x4 symplectic
    matrix explicitly and computes S (I/2) S^T.
    """
    s_mat = two_mode_squeeze_symplectic(r)
    return s_mat @ (0.5 * np.eye(4)) @ s_mat.T


def pivot_model(m: MomentMatrix) -> HiddenVariableModel:
    """A second Gaussian-pair model matching ``m``'s four cross moments, pivoting on qq.

    Closed-form coefficients that divide by ``m.qq`` twice, independent of
    ``quadrature_model``'s construction; defined only for qq != 0.
    """
    trig = ResponseMode.TRIG
    return HiddenVariableModel(
        space=SampleSpace.gaussian_pair(),
        response1=LinearResponse((m.qq, 0.0), (m.pq, m.pp - m.pq * m.qp / m.qq), trig),
        response2=LinearResponse((1.0, 0.0), (m.qp / m.qq, 1.0), trig),
    )


def random_sign_model(rng: np.random.Generator, settings1, settings2,
                      n_atoms: int) -> HiddenVariableModel:
    """Random +-1-valued tabulated model; its sup bound is 1."""
    raw = rng.random(n_atoms) + 1e-3
    weights = tuple(float(w) for w in raw / raw.sum())
    values1 = tuple(
        tuple(float(v) for v in rng.choice([-1.0, 1.0], size=n_atoms))
        for _ in settings1
    )
    values2 = tuple(
        tuple(float(v) for v in rng.choice([-1.0, 1.0], size=n_atoms))
        for _ in settings2
    )
    return HiddenVariableModel(
        space=SampleSpace.finite(weights),
        response1=TabulatedResponse(settings=tuple(settings1), values=values1),
        response2=TabulatedResponse(settings=tuple(settings2), values=values2),
    )


CHSH_PARTY1_SETTINGS = (QuadratureSetting(0.0), QuadratureSetting(1.1))
CHSH_PARTY2_SETTINGS = (QuadratureSetting(0.4), QuadratureSetting(2.3))


#: Taylor coefficients (-1)**k / (2k + 1)! of sin t / t in t**2, k = 10 down to 0.
SIN_COEFFS = [(-1) ** k / math.factorial(2 * k + 1) for k in range(10, -1, -1)]


def polynomial_sine(j: int) -> tuple[float, float]:
    """The angle t_j of sine table entry ``j`` and its sine S_j = t_j Q(t_j**2), in Python floats.

    t_j = (j - 15/2) (pi 2**-4), one of 16 points spaced evenly in
    (-pi / 2, pi / 2); Q is the degree-10 polynomial in t**2 of
    ``SIN_COEFFS``, by Horner's rule from the highest coefficient.
    """
    t = (j - 7.5) * (math.pi * 2.0**-4)
    x = t * t
    q = x * SIN_COEFFS[0]
    for c in SIN_COEFFS[1:-1]:
        q = (q + c) * x
    return t, (q + SIN_COEFFS[-1]) * t


#: The 16 sines S_j; a draw's 16-bit quarter q takes S_(q >> 12), its top 4 bits.
SINE_TABLE = [polynomial_sine(j)[1] for j in range(16)]


#: Coefficients 1 / (2j + 3) of P(w) = sum_j w**j / (2j + 3), j = 16 down to 0.
ATANH_COEFFS = [1.0 / (2 * j + 3) for j in range(16, -1, -1)]


def exp_table() -> list[float]:
    """The 4096 exponentials E_k, in Python floats, one entry at a time.

    Entry k < 4094 is the conditional mean of Exp(1) on its k-th bin of
    probability 1/4096: with m = 4096 - k and z = 1 / (2m - 1), it is
    a_k + z - 2 (m - 1) z**3 P(z**2), where a_k = ln(4096 / m) is the sum,
    in order from i = 4096 down, of ln(i / (i - 1)) = 2 (z_i + z_i**3 P(z_i**2)),
    and P is evaluated by Horner's rule from the highest coefficient. The
    last two entries are (r1 -+ d) / 2, which give the table the mean 1 and
    the mean square 2 under ``math.fsum``.
    """
    def cube_p(m: int) -> tuple[float, float]:
        z = 1.0 / (2.0 * m - 1.0)
        w = z * z
        q = w * ATANH_COEFFS[0]
        for c in ATANH_COEFFS[1:-1]:
            q = (q + c) * w
        return z, (q + ATANH_COEFFS[-1]) * w * z

    head, a = [], 0.0
    for m in range(4096, 2, -1):
        z, q = cube_p(m)
        head.append(a + (z - 2.0 * (m - 1) * q))
        a += 2.0 * (z + q)
    r1 = 4096.0 - math.fsum(head)
    r2 = 8192.0 - math.fsum(e * e for e in head)
    d = math.sqrt(2.0 * r2 - r1 * r1)
    return head + [(r1 - d) / 2.0, (r1 + d) / 2.0]


#: The 4096 exponentials E_k; a draw's 16-bit quarter q takes E_(q & 0xFFF), its low 12 bits.
EXP_TABLE = exp_table()


def gaussian_row_reference(u, v, n: int, key: int, block_draws: int = 1 << 16) -> tuple[float, float]:
    """Mean and standard error of x = (u . eta)(v . eta) over ``n`` draws, one draw at a time.

    Built from the sampling contract, not from the estimator: x = s E (rho + S)
    with s = |u| |v| and rho = u.v / s (hypot-based and clipped; s = rho = 0 for
    a zero party). Draw i takes S = ``SINE_TABLE[q >> 12]`` and
    E = ``EXP_TABLE[q & 0xFFF]`` from its 16-bit quarter q, quarter i mod 4,
    counted from the low end, of word i // 4 of the Philox stream keyed by
    ``key``. Each block's y values and their squares are summed by numpy,
    and the block sums are added in block order, which is the reduction the
    estimator promises.
    """
    # np.hypot, not math.hypot: Python's own vector norm rounds differently
    # from the C library's hypot in about 0.6 % of cases.
    norm1, norm2 = float(np.hypot(*u)), float(np.hypot(*v))
    scale = norm1 * norm2
    if scale == 0.0:
        rho = 0.0
    else:
        rho = min(max(u[0] / norm1 * (v[0] / norm2) + u[1] / norm1 * (v[1] / norm2), -1.0), 1.0)
    quarters = draw_quarters(key, n).tolist()
    total = total_squares = 0.0
    for start in range(0, n, block_draws):
        y = np.array([EXP_TABLE[q & 0xFFF] * (SINE_TABLE[q >> 12] + rho)
                      for q in quarters[start:start + block_draws]])
        total += float(y.sum())
        total_squares += float((y * y).sum())
    mean = total / n
    stderr = math.sqrt(max(total_squares - n * mean * mean, 0.0) / (n - 1) / n)
    return scale * mean + 0.0, scale * stderr


#: Draws a Philox word holds, by sample space: two 32-bit halves under finite
#: stream contract v4, four 16-bit quarters under Gaussian stream contract v8.
DRAWS_PER_WORD = {SpaceKind.FINITE: 2, SpaceKind.GAUSSIAN_PAIR: 4}


def draw_halves(key: int, n: int) -> np.ndarray:
    """The 32-bit halves of draws 0 .. n - 1 of the finite row keyed by ``key``.

    Draws 2j and 2j + 1 are the low and high halves of Philox word j.
    """
    words = np.random.Philox(key=key).random_raw(-(-n // 2))
    return np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel()[:n]


def draw_quarters(key: int, n: int) -> np.ndarray:
    """The 16-bit quarters of draws 0 .. n - 1 of the Gaussian row keyed by ``key``.

    Draws 4j to 4j + 3 are the quarters of Philox word j, lowest first.
    """
    words = np.random.Philox(key=key).random_raw(-(-n // 4))
    return np.stack([(words >> shift) & 0xFFFF for shift in (0, 16, 32, 48)], axis=1).ravel()[:n]


def reference_atoms(weights, halves: np.ndarray) -> np.ndarray:
    """Atom indices by float searchsorted on the uniforms h * 2**-32."""
    cum = np.cumsum(np.array(weights))
    return np.minimum(np.searchsorted(cum, halves * 2.0**-32, side="right"), len(weights) - 1)


@contextlib.contextmanager
def one_row_tiles():
    """Every Monte Carlo row inside draws one-row tiles from numpy's C generator.

    Rows of up to ``estimator.BATCH_ROW_WORDS`` words are otherwise drawn in
    multi-row tiles from the vectorised generator. Both sources give the
    same words, so a row drawn either way must give the same bits. Also a
    fixture of the same name, for a whole test.
    """
    with mock.patch.object(estimator, "BATCH_ROW_WORDS", 0):
        yield


@pytest.fixture(name="one_row_tiles")
def one_row_tiles_fixture():
    with one_row_tiles():
        yield
