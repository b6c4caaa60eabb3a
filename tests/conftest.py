"""Shared helpers: deterministic direction samplers, an independent
covariance oracle for the two-mode squeezed vacuum, and per-draw
references for the Monte Carlo streams."""

from __future__ import annotations

import math

import numpy as np

from eprlab import (
    HiddenVariableModel,
    QuadratureSetting,
    SampleSpace,
    TabulatedResponse,
    UnitVector3,
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


def gaussian_row_reference(u, v, n: int, key: int, block_draws: int = 1 << 16) -> tuple[float, float]:
    """Mean and standard error of x = (u . eta)(v . eta) over ``n`` draws, one draw at a time.

    Built from the sampling contract, not from the estimator: x = s E (rho + S)
    with s = |u| |v| and rho = u.v / s (hypot-based and clipped; s = rho = 0 for
    a zero party). Draw i takes S = sin(pi (U - 1/2)) from word i of the
    Philox stream keyed by ``key``, U = ((word >> 12) + 0.5) 2**-52, and E
    from a Generator on the same key's substream from counter (0, b + 1, 0, 0)
    for block b = i // block_draws, one exponential per call, in order. Each
    block's y values and their squares are summed by numpy, and the block sums
    are added in block order, which is the reduction the estimator promises.
    """
    # np.hypot, not math.hypot: Python's own vector norm rounds differently
    # from the C library's hypot in about 0.6 % of cases.
    norm1, norm2 = float(np.hypot(*u)), float(np.hypot(*v))
    scale = norm1 * norm2
    if scale == 0.0:
        rho = 0.0
    else:
        rho = min(max(u[0] / norm1 * (v[0] / norm2) + u[1] / norm1 * (v[1] / norm2), -1.0), 1.0)
    words = np.random.Philox(key=key).random_raw(n).tolist()
    total = total_squares = 0.0
    for start in range(0, n, block_draws):
        exponentials = np.random.Generator(
            np.random.Philox(counter=[0, start // block_draws + 1, 0, 0], key=key))
        y = []
        for word in words[start:start + block_draws]:
            uniform = ((word >> 12) + 0.5) * 2.0**-52
            y.append(exponentials.standard_exponential() * (rho + math.sin(math.pi * (uniform - 0.5))))
        y = np.array(y)
        total += float(y.sum())
        total_squares += float((y * y).sum())
    mean = total / n
    stderr = math.sqrt(max(total_squares - n * mean * mean, 0.0) / (n - 1) / n)
    return scale * mean + 0.0, scale * stderr


def draw_halves(key: int, n: int) -> np.ndarray:
    """The 32-bit halves of draws 0 .. n - 1 of the finite row keyed by ``key``.

    Draws 2j and 2j + 1 are the low and high halves of Philox word j.
    """
    words = np.random.Philox(key=key).random_raw(-(-n // 2))
    return np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel()[:n]


def reference_atoms(weights, halves: np.ndarray) -> np.ndarray:
    """Atom indices by float searchsorted on the uniforms h * 2**-32."""
    cum = np.cumsum(np.array(weights))
    return np.minimum(np.searchsorted(cum, halves * 2.0**-32, side="right"), len(weights) - 1)
