"""Seeded Monte Carlo estimation of model correlations.

Randomness comes from a counter-based generator (Philox) keyed by the
seed: the value of draw ``i`` depends only on ``(seed, i)``, never on
how many draws preceded it in this process. Draws are evaluated in
fixed-size blocks whose partial sums are reduced in block order, so the
estimate is a pure function of (model, settings, n, seed), bit-identical
across runs, worker counts, and scheduling.

Standard normals are produced by the inverse normal CDF applied to
uniforms of the form ((word >> 12) + 0.5) * 2**-52, which are strictly
inside (0, 1) and symmetric about 1/2, keeping the transform finite.
``ndtri`` imports ``scipy.special`` on its first call, so a run that
samples only finite models never loads scipy.

A finite model draws atom ``k`` when the uniform (word >> 11) * 2**-53
lies in [cum[k-1], cum[k]), the last atom taking the rest. Scaling by
2**53 is exact, so that test is done on the raw word itself: the atom
index is the number of thresholds ceil(cum[k] * 2**53) << 11, over
k < K - 1, that the word reaches. Thresholds at or above 2**53 << 11
cannot be reached and are dropped. Small tables count the thresholds;
large ones binary-search them. Both give the atom that
``searchsorted(cum, u, side="right")``, clipped to K - 1, gives.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .lhv import HiddenVariableModel, SpaceKind

#: Draws per evaluation block. Fixed so that block boundaries (and hence
#: the reduction order of partial sums) never depend on the worker count.
BLOCK_DRAWS = 1 << 16

#: Finite models with at most this many atoms count the lookup thresholds
#: into a uint8 index; larger ones binary-search them. Counting makes one
#: pass over the words per threshold; on 2-vCPU x86-64 hosts it beat the
#: binary search up to 48 atoms in one measurement and 96 in another.
MAX_COUNTED_ATOMS = 32

_MAX_SEED = 1 << 64


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample mean of xi1*xi2 with its normal-approximation standard error."""

    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class ComparisonReport:
    """Monte Carlo estimate against an exact value, as a z-score.

    ``inconsistent`` flags the degenerate case stderr = 0 with
    mean != exact, where no finite z-score exists.
    """

    exact: float
    estimate: CorrelationEstimate
    z_score: float
    inconsistent: bool


def _raw_words(seed: int, word_offset: int, n_words: int) -> np.ndarray:
    # Philox advances its counter in blocks of four 64-bit words.
    if word_offset % 4:
        raise ValidationError(f"word offset must be 4-aligned, got {word_offset}")
    bg = np.random.Philox(key=seed)
    if word_offset:
        bg.advance(word_offset // 4)
    return bg.random_raw(n_words)


def ndtri(u, out=None):
    """Inverse standard normal CDF, ``scipy.special.ndtri``, imported on first use."""
    from scipy.special import ndtri as inverse_cdf
    return inverse_cdf(u, out=out)


def _atom_lookup(weights):
    """Map raw Philox words to atom indices by their thresholds (see the module docstring)."""
    # Partial sums in index order, as np.cumsum forms them; c < 1 is c * 2**53 < 2**53.
    thresholds = [np.uint64(math.ceil(c * 2.0**53) << 11)
                  for c in accumulate(weights[:-1]) if c < 1.0]
    if len(weights) > MAX_COUNTED_ATOMS:
        table = np.array(thresholds, dtype=np.uint64)
        return lambda raw: np.searchsorted(table, raw, side="right")

    def count(raw: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(raw), dtype=np.uint8)
        for t in thresholds:
            idx += (raw >= t).view(np.uint8)
        return idx

    return count


def _block_values(model, s1, s2, seed):
    # Both responses are read from their feature vectors; only the draw of
    # the latent basis (one atom, or a normal pair) depends on the space.
    phi1 = np.array(model.response1.features(s1))
    phi2 = np.array(model.response2.features(s2))
    if model.space.kind is SpaceKind.FINITE:
        atom = _atom_lookup(model.space.weights)
        products = phi1 * phi2

        def values(start: int, count: int) -> np.ndarray:
            return products.take(atom(_raw_words(seed, start, count)))

        return values

    def values(start: int, count: int) -> np.ndarray:
        raw = _raw_words(seed, 2 * start, 2 * count)
        raw >>= np.uint64(12)
        u = raw.astype(np.float64)
        u += 0.5
        u *= 2.0**-52
        eta = ndtri(u, out=u).reshape(count, 2)
        xi1 = eta[:, 0] * phi1[0]
        term = eta[:, 1] * phi1[1]
        xi1 += term
        xi2 = eta[:, 0] * phi2[0]
        np.multiply(eta[:, 1], phi2[1], out=term)
        xi2 += term
        xi1 *= xi2
        return xi1

    return values


def mc_estimate(model: HiddenVariableModel, s1, s2, n: int, seed: int, *,
                workers: int = 1) -> CorrelationEstimate:
    """Estimate E[xi1(s1) xi2(s2)] from ``n`` independent draws.

    ``workers`` only parallelizes block evaluation; it never changes the
    result. The standard error uses the unbiased (n - 1) variance.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"sample count must be an integer >= 2, got {n!r}")
    if not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    values = _block_values(model, s1, s2, seed)

    def block_stats(index: int) -> tuple[float, float]:
        start = index * BLOCK_DRAWS
        count = min(BLOCK_DRAWS, n - start)
        x = values(start, count)
        return float(np.sum(x)), float(np.sum(x * x))

    n_blocks = (n + BLOCK_DRAWS - 1) // BLOCK_DRAWS
    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(block_stats, range(n_blocks)))
    else:
        stats = [block_stats(i) for i in range(n_blocks)]

    # fsum is exactly rounded, so the reduction is independent of grouping.
    total = math.fsum(s for s, _ in stats)
    total_sq = math.fsum(q for _, q in stats)
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return CorrelationEstimate(mean=mean, stderr=math.sqrt(var / n), n=n, seed=seed)


def compare(exact: float, est: CorrelationEstimate) -> ComparisonReport:
    """z-score of an estimate against an exact value."""
    if est.stderr == 0.0:
        if est.mean == exact:
            return ComparisonReport(exact, est, 0.0, inconsistent=False)
        return ComparisonReport(exact, est, math.copysign(math.inf, est.mean - exact),
                                inconsistent=True)
    return ComparisonReport(exact, est, (est.mean - exact) / est.stderr, inconsistent=False)
