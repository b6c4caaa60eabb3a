"""Seeded Monte Carlo estimation of model correlations.

Randomness comes from a counter-based generator (Philox) keyed by a
128-bit stream key: the value of draw ``i`` depends only on (key, i) for
a finite model, and on (key, block, i) for a Gaussian one, never on how
many draws preceded it in this process. The CLI keys row ``r`` of a run
at seed ``s`` as ``s + (r << 64)``, the pair (seed, row), so no two rows
of any two seeds share a stream, and row 0 draws from the stream of the
seed alone.

Uniforms have the form ((word >> 12) + 0.5) * 2**-52, strictly inside
(0, 1) and symmetric about 1/2. They are built without an
integer-to-float conversion: OR-ing the exponent bits of 1.0 onto
m = word >> 12 (m < 2**52) gives the double 1 + m * 2**-52 exactly, and
subtracting 1 - 2**-53 from it leaves m * 2**-52 + 2**-53
= (2 m + 1) * 2**-53. That subtraction is exact too: the difference fits
in 53 bits (Sterbenz's lemma also applies, as 1 + m * 2**-52 lies within
a factor 2 of 1 - 2**-53).

Gaussian rows (stream contract v3). A row samples x = xi1 * xi2 with
xi1 = u . eta, xi2 = v . eta and eta ~ N(0, I), u and v the parties'
feature rows. The estimator needs only x, and x has an exact law: with
s = |u| |v| and rho = u . v / s, x = s E (rho + S), where E ~ Exp(1) and
S = cos 2 theta, theta uniform, are independent. Proof sketch: x is the
quadratic form eta^T A eta with A = (u v^T + v u^T) / 2, whose nonzero
eigenvalues are s (1 + rho) / 2 and -s (1 - rho) / 2, so by rotation
invariance x = s ((1 + rho) / 2 Z1**2 - (1 - rho) / 2 Z2**2) with Z1, Z2
independent standard normals. In polar form Z1 = R cos theta,
Z2 = R sin theta, R**2 / 2 ~ Exp(1) is independent of theta, and the
bracket is R**2 / 2 (cos 2 theta + rho). This holds for any feature
dimension and gives E[x] = u . v and E[x * x] = |u|**2 |v|**2
+ 2 (u . v)**2, as Isserlis does. Draw i of a row takes
S = sin(pi (U - 1/2)), which has the law of cos 2 theta, from the uniform
U of word i of the row's stream (U - 1/2 is exact), and E from numpy's
ziggurat ``Generator.standard_exponential`` on the row key's Philox
substream from counter (0, b + 1, 0, 0) for block b = i // BLOCK_DRAWS.
The ziggurat takes a variable number of words a value, so a block's
exponentials are read in order from the start of its substream; the bits
do not depend on the worker count, but the block boundaries are part of
the output. The tile sums y = E (rho + S), which is of order 1,
and its square; the row's mean and standard error of y are multiplied by
s at the end (s = rho = 0 for a row with a zero party, whose estimate is
then +0.0 with stderr 0). ``_gaussian_law`` gives s by ``hypot`` and rho
from the unit vectors, clipped to [-1, 1].

Only numpy is needed, and only functions whose float64 bits do not depend
on numpy's SIMD dispatch: ``np.sin`` and the ziggurat give the same bits
with numpy's AVX-512 loops switched off, ``np.log`` and ``np.log1p`` do
not, so a Box-Muller or inverse-transform exponential would break the
pinned outputs on hosts without AVX-512. The Gaussian bits are tied to
numpy's C ziggurat, whose stream NEP 19 does not promise to keep across
numpy versions (contract v2 was tied to scipy's ``ndtri`` build in the
same way); the pinned tests detect such a change. ``ndtri``, the name of
the former inverse normal CDF, is kept for the tile transform
(E, U -> y), which Gaussian tiles call through the module: it is the
transform layer's probe point for the benchmark's traced runs.

Finite rows (stream contract v4) take two draws from each Philox word:
draws 2j and 2j + 1 of a row are the low and high 32 bits of its word j,
so a row of n draws consumes ceil(n / 2) words, and an odd n leaves the
high half of its last word unused. A draw picks one of a few atoms, and
both halves of a word are a pure function of (key, j), as the whole word
is. A half h draws atom ``k`` when h * 2**-32 lies in [cum[k-1], cum[k]),
the last atom taking the rest. Scaling by 2**32 is exact and h is an
integer, so the atom index is the number of thresholds
T_k = ceil(cum[k] * 2**32), over k < K - 1, that h reaches. Thresholds
at or above 2**32 cannot be reached and are dropped. That is the atom
that ``searchsorted(cum, h * 2**-32, side="right")``, clipped to K - 1,
gives. So atom k has probability (T_k - T_{k-1}) / 2**32 (T_{-1} = 0,
and 2**32 for the last atom and for a dropped threshold), and each
P(atom > k) = 1 - T_k / 2**32 is within 2**-32 of 1 - cum[k]. By
summation by parts, E[x] = x_0 + sum_k (x_{k+1} - x_k) P(atom > k), so
the law's mean is off by at most 2**-32 * sum_k |x_{k+1} - x_k| over the
row's per-atom products x_k. For the singlet model |x_k| <= 3, so that is
at most 12 * 2**-32, about 2.8e-9, where a row of unit variance has a
standard error of 2**-18, about 3.8e-6, even at ``MAX_DRAWS``. A row whose
products are all equal has no bias, and the bound shrinks with the
products' spread as the standard error does. Contract v3 took one draw a
word, from its top 53 bits.

A finite model's draws are summed up by their atom counts: one kernel
counts the halves at or above each threshold and takes differences, one
pass over the halves per threshold. It counts a uint32 view of the
row's complete words, both halves of each, and an odd tile's last draw
as ``word & 0xFFFFFFFF``, so the counts do not depend on byte order.
Counting beats a binary search of the thresholds up to about 128 atoms:
on one-row tiles of 65 536 words (2-vCPU x86-64 host, timeit minimum,
contract v3) it took 1.1 against 3.6 ms at 33 atoms and 3.4 against
4.6 ms at 80, broke even at 112 to 128, and took 9.0 against 5.2 ms at
256. Larger tables pay that; the CLI's singlet model has 3 atoms.

Every draw goes through one kernel, ``_tile_stats``. A tile is a
C-contiguous (rows, words) stack of Philox words, one word a Gaussian
draw and half a word a finite one; the
kernel turns it into each row's sufficient statistics: the atom counts
of a finite model, or the sums of y and of y * y. A Gaussian tile draws
each row's exponentials whole, from the row's block substream, into a y
array that each worker allocates once per call, as long as the call's
largest tile, turns them into y in place, and then sums y along its
rows, squares it and sums again: row sums of a C-contiguous stack equal
the per-row sums bit for bit. Each worker has one Philox generator,
re-keyed through its state setter in turn for a one-row tile's words and
for each row's exponentials; batched finite tiles need none.
``mc_estimate_rows`` cuts its rows into tiles of at most ``BLOCK_DRAWS``
draws. A chunk of at least ``BATCH_MIN_ROWS`` rows of at most
``BATCH_ROW_WORDS`` words each (ceil(n / 2) for a finite row, n for a
Gaussian one) gives multi-row tiles, whose words come
from a numpy Philox4x64-10 vectorised over keys and counters
(``_philox_words``, bit-identical to numpy's generator). Every other row
gives a one-row tile per block of ``BLOCK_DRAWS`` draws from numpy's C
generator (``_raw_words``); block b of a finite row is its words
b * BLOCK_DRAWS / 2 onward. All tiles of a call are shared among
``workers`` threads (the calling thread is one of them), and each row's
statistics are then added up tile by tile in block order. So a row's
estimate is a pure function of (model, settings, n, key), bit-identical
across runs, worker counts and scheduling; counts add exactly, so a
finite row's estimate does not even depend on how it is cut into tiles.

A finite row's mean is the model's contraction (``lhv._contract``) with
the empirical weights c / n in place of w, and its squared standard
error the same contraction of the deviations d = phi1 * phi2 - mean,
over n - 1. Both are K-term sums with the nonnegative weights c / n,
and the deviations are taken before they are squared, so nothing
cancels. A Gaussian row's variance comes from sum(y * y) - n mean**2,
which cannot cancel badly either: E[y * y] = 1 + 2 rho**2 is at least
3 rho**2, three times the squared mean, so the subtraction loses less
than one bit; and y is of order 1, so its sums neither overflow nor
underflow. Small features would still underflow: a finite row's squared
deviations, and a Gaussian row's s. So a row whose two parties' largest
features multiply to less than 1 is first scaled up by a power of two
that brings that product into [1, 4), and its mean and standard error
are scaled back at the end. The scale is set by the pair, never raising
one party's largest feature past 1, so a row of one tiny and one huge
party is left as it is and nothing overflows that did not before.
Power-of-two scaling is exact in range, so rows that do not underflow
get the same bits as without it, and scaling a party's features by
2**-k scales the row's mean and standard error by 2**-k exactly, as long
as they stay normal doubles.

``_mc_rows`` does this on the rows' feature stacks and returns the means
and standard errors as arrays; ``mc_estimate_rows`` builds the stacks
from settings and wraps each row in a ``CorrelationEstimate``. Likewise
``_z_scores`` compares arrays of estimates with exact values, and
``compare`` is its one-row case.

Overflow in a row's arithmetic is not warned about: it shows as an
infinite or NaN result, which the caller reports with the row.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lhv import HiddenVariableModel, SpaceKind, _contract, _feature_stack

#: Draws per evaluation block. Fixed so that block boundaries (and hence
#: the reduction order of partial sums) never depend on the worker count.
BLOCK_DRAWS = 1 << 16

#: Rows of more Philox words than this take numpy's C generator: a finite
#: row of n draws has ceil(n / 2) words, a Gaussian one n. The cutoff is in
#: words because the vectorised generator's cost is. Per row of a 256-row
#: batch on a 2-vCPU x86-64 host, batched against C generator (spin model
#: at one word a draw, medians of 7): 5 vs 60 us at 2 words,
#: 13 vs 64 us at 64, 32 vs 66 us at 256, 60 vs 72 us at 512, 133 vs 79 us
#: at 1024; Gaussian rows (one worker, medians of 7): 14 vs 54 us at 2,
#: 20 vs 64 at 64, 41 vs 66 at 256, 73 vs 81 at 512, 122 vs 77 at 1024.
#: The vectorised generator costs about 0.1 us per word against a few ns,
#: so the cutoff sits at half the crossover, where a batched row still
#: costs half as much.
BATCH_ROW_WORDS = 256

#: Chunks of fewer rows take the C generator too. The vectorised generator
#: costs about 420 us per call whatever the row count, against 40-80 us
#: per row for a C generator. Per row at up to 256 words, same host:
#: batches of 8 rows lost (60-170 vs 40-80 us), 16 rows broke about even
#: (53-79 us), 32 rows won (31-50 vs 52-81 us). Re-keying one C generator
#: through its state setter gives the same words for 3.2 us per row against
#: 1.25 us for the vectorised one, and it imports ``numpy.random``
#: (+6 MiB, +12 ms), which the vectorised generator never loads: a spin
#: grid of 5184 rows at n = 2 peaked at 38.3 against 32.9 MiB that way.
BATCH_MIN_ROWS = 32

#: Most worker threads a call may ask for. A call starts at most
#: min(workers, tiles) - 1 threads, one per tile at most, and a count
#: above this is refused before any thread starts.
MAX_WORKERS = 1024

#: Most draws a call may ask for, ``n`` times its row count; the CLI caps
#: ``samples`` times a scenario's rows by it too. A call lists one tile per
#: block of every row before it draws, and keeps each tile's statistics
#: (a row's atom counts, or its two sums) in the tile's slot until all are
#: drawn: 0.27 KiB a tile (tracemalloc peak over 65 536 one-row tiles,
#: finite or Gaussian), so a call at this cap, 2**20 tiles of BLOCK_DRAWS
#: draws, holds about 0.27 GiB of them.
#: Drawing that many takes about half an hour at the 36M Gaussian draws/s
#: of two workers on a 2-vCPU x86-64 host.
MAX_DRAWS = 1 << 36


# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11),
# as numpy's Philox uses them.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF
#: Sign and exponent bits of 1.0: OR-ed onto a word below 2**52 they make
#: the double 1 + word * 2**-52.
_ONE_BITS = np.uint64(0x3FF0000000000000)

#: Wraps the functions that do a row's arithmetic. On extreme inputs that
#: arithmetic overflows to inf or NaN, which the caller reports with the
#: row; numpy's warnings would name only estimator internals.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample mean of xi1*xi2 with its normal-approximation standard error.

    ``key`` is the 128-bit stream key the ``n`` draws came from; a CLI row
    r of seed s has key s + (r << 64).
    """

    mean: float
    stderr: float
    n: int
    key: int


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


def _rekey(bg: np.random.Philox, key: int, counter: tuple[int, int, int, int]) -> None:
    """Sets the bit generator ``bg`` to the Philox stream keyed by ``key`` at ``counter``.

    Goes through the state setter (about 5 us, against 15-25 us for a new
    ``np.random.Philox(key=key)``, whose seed sequence reads OS entropy that
    the key then overrides). numpy increments the counter before it
    generates, so the next words come from counter + 1.
    """
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": np.array(counter, dtype=np.uint64),
                          "key": np.array(divmod(key, 1 << 64)[::-1], dtype=np.uint64)},
                "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}


def _raw_words(bg: np.random.Philox, key: int, word_offset: int, n_words: int) -> np.ndarray:
    """Words ``word_offset`` .. ``word_offset + n_words - 1`` of the Philox stream keyed by ``key``.

    Re-keys the bit generator ``bg`` (``_rekey``) and draws from it.
    """
    # Philox advances its counter in blocks of four 64-bit words: block b
    # follows counter b.
    if word_offset % 4:
        raise ValidationError(f"word offset must be 4-aligned, got {word_offset}")
    _rekey(bg, key, (word_offset // 4, 0, 0, 0))
    return bg.random_raw(n_words)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _LOW32), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> 32
    lh = x_lo * m_hi
    hl = x_hi * m_lo
    mid = (x_lo * m_lo) >> 32
    mid += lh & _LOW32
    mid += hl & _LOW32
    hi = x_hi * m_hi
    hi += lh >> 32
    hi += hl >> 32
    hi += mid >> 32
    return hi, x * np.uint64(m)


def _philox_words(k0: np.ndarray, k1: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` words of ``np.random.Philox(key=k0 + 2**64 * k1)`` per key.

    ``k0`` and ``k1`` are uint64 arrays of shape (rows, 1); returns a
    C-contiguous (rows, n_words) uint64 array. numpy increments the counter
    before it generates, so words 4b..4b+3 come from counter b + 1.
    """
    n_blocks = -(-n_words // 4)
    zero = np.zeros((1, 1), dtype=np.uint64)
    c0, c1, c2, c3 = np.arange(1, n_blocks + 1, dtype=np.uint64)[None, :], zero, zero, zero
    for r in range(10):
        if r:
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    return np.ascontiguousarray(words.reshape(len(words), 4 * n_blocks)[:, :n_words])


def ndtri(u: np.ndarray, rho: np.ndarray, e: np.ndarray) -> np.ndarray:
    """y = e * (rho + sin(pi * (u - 1/2))) for a tile's uniforms ``u`` and exponentials ``e``.

    ``u`` and ``e`` are (rows, m) arrays and ``rho`` the rows' (rows, 1)
    column. The transform layer's probe point: the benchmark's traced run
    wraps this name, which Gaussian draws call through the module and
    finite ones never call. It is no longer an inverse normal CDF.
    Overwrites ``u`` and writes y into ``e``, which it returns.
    """
    u -= 0.5
    u *= np.pi
    np.sin(u, out=u)
    u += rho
    e *= u
    return e


def _atom_counts(weights, words: np.ndarray, draws: int) -> np.ndarray:
    """Each row's count of every atom over ``draws`` draws of a (rows, words) stack of Philox words.

    A row's draws 2j and 2j + 1 are the low and high halves of its word j,
    so ``words`` holds ceil(draws / 2) words a row. Returns a
    (rows, len(weights)) int64 array; the atom of a half is found by its
    thresholds (see the module docstring). The one finite kernel: it
    passes over the halves once per threshold, so above about 128 atoms it
    is slower than a binary search would be.
    """
    # Partial sums in index order, as np.cumsum forms them; c * 2**32 is exact.
    thresholds = [np.uint32(t) for t in (math.ceil(c * 2.0**32) for c in accumulate(weights[:-1]))
                  if t < 1 << 32]
    rows, atoms = words.shape[0], len(weights)
    # Both halves of every complete word, in an order set by the byte order,
    # which a count does not see; an odd count's last draw is a low half.
    halves = words[:, :draws // 2].view(np.uint32)
    odd = words[:, draws // 2:] & _LOW32 if draws % 2 else None
    # Counting a one-row stack whole takes half the time of counting along its axis.
    axis = 1 if rows > 1 else None
    # reached[:, j] counts the draws that reach j thresholds or more; atom k
    # is reached by k but not k + 1, and no draw reaches past the last one.
    reached = np.zeros((rows, atoms + 1), dtype=np.int64)
    reached[:, 0] = draws
    for j, t in enumerate(thresholds, 1):
        reached[:, j] = np.count_nonzero(halves >= t, axis=axis)
        if odd is not None:
            reached[:, j] += np.count_nonzero(odd >= t, axis=axis)
    return reached[:, :-1] - reached[:, 1:]


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """((raw >> 12) + 0.5) * 2**-52 in the memory of ``raw``, by the exponent splice."""
    raw >>= np.uint64(12)
    raw |= _ONE_BITS
    u = raw.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


@_quiet
def _tile_stats(model: HiddenVariableModel, words: np.ndarray, count: int, keys: Sequence[int],
                counter, rho: np.ndarray, gen: np.random.Generator, y: np.ndarray) -> np.ndarray:
    """Each row's sufficient statistics over the ``count`` draws per row of one tile.

    ``words`` is the tile's C-contiguous (rows, words) stack of Philox
    words: a Gaussian draw takes one word, and a finite tile's draws 2j and
    2j + 1 share its word j. A finite tile returns the rows' atom counts,
    (rows, K) int64, and ignores the other arguments. A Gaussian tile takes
    the rows' stream ``keys``, the ``counter`` (0, b + 1, 0, 0) of the block
    b that it lies in, and the rows' law parameters ``rho``, a (rows, 1)
    column. Each row's exponentials come from ``gen``, re-keyed to the
    row's key at ``counter``, all ``count`` of them in one call. It writes y
    into ``y``, which holds the whole tile, overwrites the words, and
    returns the rows' sums of y and of y * y, (rows, 2) float64.
    """
    if model.space.kind is SpaceKind.FINITE:
        return _atom_counts(model.space.weights, words, count)
    y = y[:len(keys) * count].reshape(len(keys), count)
    for key, values in zip(keys, y):
        _rekey(gen.bit_generator, key, counter)
        gen.standard_exponential(out=values)
    ndtri(_uniforms(words), rho, y)
    # Row sums of a C-contiguous stack equal the per-row sums bit for bit.
    sums = y.sum(axis=1)
    y *= y
    return np.stack((sums, y.sum(axis=1)), axis=1)


def _decimal(value) -> str:
    """``repr(value)``, after its type's name unless it is an int.

    Past Python's str(int) digit limit, a power-of-two bound or the type.
    """
    try:
        return repr(value) if type(value) is int else f"{type(value).__name__} {value!r}"
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to print"
        bound = f"2**{abs(value).bit_length() - 1}"
        return f"at least {bound}" if value > 0 else f"at most -{bound}"


def _integer(value, low: int, high: float, message: str) -> int:
    """``value`` as a Python int in [low, high), or a ValidationError ``message, got ...``.

    The one rule for sample counts, stream keys and worker counts: an
    integer, Python's or numpy's but not a bool, converted before any
    arithmetic. Anything else is named with its type.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = operator.index(value)
        if low <= value < high:
            return value
    raise ValidationError(f"{message}, got {_decimal(value)}")


def _check_draws(n, keys: Sequence, workers) -> tuple[int, list[int], int]:
    """``n``, the keys and ``workers`` as Python ints, once each has passed its check."""
    workers = _integer(workers, 1, MAX_WORKERS + 1,
                       f"workers must be an integer in [1, {MAX_WORKERS}]")
    n = _integer(n, 2, math.inf, "sample count must be an integer >= 2")
    if n * len(keys) > MAX_DRAWS:
        raise ValidationError(f"{len(keys)} rows of {_decimal(n)} draws ask for "
                              f"{_decimal(n * len(keys))} draws, more than MAX_DRAWS = {MAX_DRAWS}")
    keys = [_integer(key, 0, 1 << 128, "stream key must be a 128-bit unsigned integer")
            for key in keys]
    return n, keys, workers


def mc_estimate(model: HiddenVariableModel, s1, s2, n: int, key: int, *,
                workers: int = 1) -> CorrelationEstimate:
    """Estimate E[xi1(s1) xi2(s2)] from ``n`` independent draws.

    ``key`` is the stream key, an integer in [0, 2**128). ``workers``
    only parallelizes tile evaluation; it never changes the result. The
    standard error uses the unbiased (n - 1) variance.
    """
    return mc_estimate_rows(model, [s1], [s2], n, [key], workers=workers)[0]


def mc_estimate_rows(model: HiddenVariableModel, settings1: Sequence, settings2: Sequence,
                     n: int, keys: Sequence[int], *,
                     workers: int = 1) -> list[CorrelationEstimate]:
    """``mc_estimate`` at each aligned (settings1[i], settings2[i], keys[i]).

    Every row draws ``n`` samples from its own stream, keyed by
    ``keys[i]``, and its estimate equals ``mc_estimate(model,
    settings1[i], settings2[i], n, keys[i])`` bit for bit. The rows are
    cut into tiles (see the module docstring) that share one pool of
    ``workers`` threads, at most ``MAX_WORKERS``; ``n`` times the row
    count may be at most ``MAX_DRAWS``.
    """
    if not len(settings1) == len(settings2) == len(keys):
        raise ValidationError(f"row lists differ in length: {len(settings1)}, "
                              f"{len(settings2)} settings and {len(keys)} keys")
    n, keys, workers = _check_draws(n, keys, workers)
    mean, stderr = _mc_rows(model, _feature_stack(model.response1, settings1),
                            _feature_stack(model.response2, settings2), n, keys, workers)
    return [CorrelationEstimate(mean=m, stderr=s, n=n, key=key)
            for m, s, key in zip(mean.tolist(), stderr.tolist(), keys)]


@_quiet
def _mc_rows(model: HiddenVariableModel, phi1: np.ndarray, phi2: np.ndarray, n: int,
             keys: Sequence[int], workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row's ``n`` draws, as two arrays.

    ``phi1`` and ``phi2`` are the rows' (rows, d) feature stacks, row i
    drawing from the stream keyed by ``keys[i]``. Checks ``n``, the keys,
    ``workers`` and the total draws before it lists any tile.
    """
    n, keys, workers = _check_draws(n, keys, workers)
    if not keys:
        return np.empty(0), np.empty(0)
    finite = model.space.kind is SpaceKind.FINITE
    # A finite draw takes half a Philox word (draws 2j and 2j + 1 share word j),
    # a Gaussian one a whole word.
    per_word = 2 if finite else 1
    # A finite row's squared deviations, and a Gaussian row's scale s, underflow
    # for small features. A row whose parties' largest features multiply to less
    # than 1 is scaled up by the power of two 2**shift that brings that product
    # into [1, 4), exactly, with no party's largest feature raised past 1: tops
    # m 2**e (m in [0.5, 1)) multiply to m1 m2 2**(e1 + e2), and party 1 takes
    # at most 1 - e1 of the 2 - e1 - e2 bits, leaving party 2 at most 1 - e2.
    # Other rows, non-finite ones included, keep shift 0, so nothing new
    # overflows. The means and standard errors are scaled back at the end.
    top1, top2 = np.abs(phi1).max(axis=1), np.abs(phi2).max(axis=1)
    e1, e2 = np.frexp(top1)[1], np.frexp(top2)[1]
    shift = np.where(top1 * top2 < 1.0, np.maximum(0, 2 - e1 - e2), 0)
    shift1 = np.minimum(shift, np.maximum(0, 1 - e1))
    phi1, phi2 = np.ldexp(phi1, shift1[:, None]), np.ldexp(phi2, (shift - shift1)[:, None])
    if not finite:
        scale, rho = _gaussian_law(phi1, phi2)
    # A tile is (first row, end row, first draw, draws per row), in row and block order.
    batched = -(-n // per_word) <= BATCH_ROW_WORDS and len(keys) >= BATCH_MIN_ROWS
    if batched:
        # As few tiles of at most BLOCK_DRAWS draws as can be, of nearly equal size.
        per_tile = -(-len(keys) // -(-len(keys) // max(1, BLOCK_DRAWS // n)))
        tiles = [(first, first + per_tile, 0, n) for first in range(0, len(keys), per_tile)]
        # Key k is the Philox key words (k0, k1) = (k mod 2**64, k >> 64).
        k1, k0 = np.array([divmod(key, 1 << 64) for key in keys], dtype=np.uint64).T[:, :, None]
    else:
        tiles = [(row, row + 1, start, min(BLOCK_DRAWS, n - start))
                 for row in range(len(keys)) for start in range(0, n, BLOCK_DRAWS)]

    def tile_stats(first: int, end: int, start: int, count: int, gen, y) -> np.ndarray:
        n_words = -(-count // per_word)
        if batched:
            words = _philox_words(k0[first:end], k1[first:end], n_words)
        else:
            words = _raw_words(gen.bit_generator, keys[first], start // per_word, n_words)[None, :]
        # Block b's exponentials come from the row key's Philox substream from
        # counter (0, b + 1, 0, 0); a tile lies in one block of each of its rows.
        return _tile_stats(model, words, count, keys[first:end],
                           (0, start // BLOCK_DRAWS + 1, 0, 0),
                           None if finite else rho[first:end, None], gen, y)

    # Each worker takes the next tile number under a lock and stores the
    # tile's statistics in its slot. Its generator, for one-row tiles' words
    # and Gaussian tiles' exponentials, and the Gaussian tiles' y array are
    # made once, here; batched finite tiles need no generator, so a batched
    # spin grid never imports numpy.random.
    stats = [None] * len(tiles)
    tasks = iter(range(len(tiles)))
    taking = threading.Lock()

    def drain() -> None:
        gen = None if batched and finite else np.random.Generator(np.random.Philox())
        y = None if finite else np.empty(max((end - first) * count
                                             for first, end, _, count in tiles))
        while True:
            with taking:
                index = next(tasks, None)
            if index is None:
                return
            stats[index] = tile_stats(*tiles[index], gen, y)

    # The calling thread is one of the workers; the others are plain threads
    # (an executor would import concurrent.futures and logging, about 7 ms of
    # a cold run). Every helper is joined before anything is raised: the
    # calling thread's exception wins, else the first helper's is raised.
    failures: list[BaseException | None] = [None] * (min(workers, len(tiles)) - 1)

    def helper(slot: int) -> None:
        try:
            drain()
        except BaseException as exc:  # re-raised by the calling thread below
            failures[slot] = exc

    threads = []
    try:
        for slot in range(len(failures)):
            thread = threading.Thread(target=helper, args=(slot,))
            thread.start()
            threads.append(thread)
        drain()
    finally:
        for thread in threads:
            thread.join()
    for exc in failures:
        if exc is not None:
            raise exc
    # Each row's statistics, of the tiles' own width and dtype, added up in
    # block order from 0, which also turns a Gaussian sum of -0.0 into 0.0.
    totals = np.zeros((len(keys), stats[0].shape[1]), dtype=stats[0].dtype)
    for (first, end, *_), tile in zip(tiles, stats):
        totals[first:end] += tile
    if finite:
        mean, stderr = _finite_mean_stderr(totals, phi1, phi2, n)
    else:
        mean, stderr = _mean_stderr(totals[:, 0], totals[:, 1], n)
        # x = s y; adding 0.0 turns the -0.0 of a zero row (s = 0) into 0.0.
        mean, stderr = scale * mean + 0.0, scale * stderr
    return np.ldexp(mean, -shift), np.ldexp(stderr, -shift)


def _gaussian_law(phi1: np.ndarray, phi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's scale s = |u| |v| and correlation rho = u.v / s, for x = (u . eta)(v . eta).

    rho is clipped to [-1, 1]; a row with a zero party has s = rho = 0.
    """
    norm1, norm2 = np.hypot.reduce(phi1, axis=1), np.hypot.reduce(phi2, axis=1)
    scale = norm1 * norm2
    zero = scale == 0.0
    # Products of unit vectors stay in range; u.v itself can overflow where s does not.
    unit1 = phi1 / np.where(zero, 1.0, norm1)[:, None]
    unit2 = phi2 / np.where(zero, 1.0, norm2)[:, None]
    rho = np.clip(np.where(zero, 0.0, (unit1 * unit2).sum(axis=1)), -1.0, 1.0)
    return scale, rho


def _finite_mean_stderr(counts: np.ndarray, phi1: np.ndarray, phi2: np.ndarray,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors from each row's atom counts over ``n`` draws."""
    weights = counts / n
    # The contraction keeps a -0.0 from its first term; adding 0.0 makes it
    # 0.0, as the Gaussian rows' sums from 0 are.
    mean = _contract(weights, phi1, phi2) + 0.0
    deviation = phi1 * phi2 - mean[:, None]
    return mean, np.sqrt(_contract(weights, deviation, deviation) / (n - 1))


def _mean_stderr(total: np.ndarray, total_squares: np.ndarray,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors from each row's sums of x and x * x over ``n`` draws."""
    mean = total / n
    # np.maximum(-0.0, 0.0) is +0.0 where max(-0.0, 0.0) is -0.0, but the
    # difference is never -0.0: that needs a first operand of -0.0, and a
    # sum of squares added up from 0.0 is never -0.0.
    var = np.maximum(total_squares - n * mean * mean, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


@_quiet
def _z_scores(exact: np.ndarray, mean: np.ndarray,
              stderr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z-scores of estimates against exact values, row by row, and where they are inconsistent.

    A zero stderr has no finite z-score: z is 0 where the mean equals the
    exact value, and +-inf with the sign of mean - exact elsewhere, the
    rows flagged inconsistent.
    """
    diff = mean - exact
    zero = stderr == 0.0
    inconsistent = zero & (mean != exact)
    z = diff / stderr
    z[zero] = 0.0
    z[inconsistent] = np.copysign(np.inf, diff[inconsistent])
    return z, inconsistent


def compare(exact: float, est: CorrelationEstimate) -> ComparisonReport:
    """z-score of an estimate against an exact value: the one-row case of ``_z_scores``."""
    z, inconsistent = _z_scores(np.array([exact], dtype=float), np.array([est.mean]),
                                np.array([est.stderr]))
    return ComparisonReport(exact, est, float(z[0]), inconsistent=bool(inconsistent[0]))
