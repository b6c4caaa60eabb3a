"""Seeded Monte Carlo estimation of model correlations.

Randomness comes from a counter-based generator (Philox4x64-10, Salmon
et al., SC'11) keyed by a 128-bit stream key: the value of draw ``i``
depends only on (key, i), in either sample space, never on how many
draws preceded it in this process. The CLI keys row ``r`` of a run at
seed ``s`` as ``s + (r << 64)``, the pair (seed, row), so no two rows of
any two seeds share a stream, and row 0 draws from the stream of the
seed alone.

Both sample spaces take two draws from each Philox word (finite stream
contract v4, Gaussian stream contracts v5 to v7): draws 2j and 2j + 1 of
a row are the low and high 32 bits h of its word j, so a row of n draws
consumes ceil(n / 2) words, and an odd n leaves the high half of its
last word unused. Both halves of a word are a pure function of (key, j),
as the whole word is.

Gaussian rows. A row samples x = xi1 * xi2 with xi1 = u . eta,
xi2 = v . eta and eta ~ N(0, I), u and v the parties' feature rows. The
estimator needs only x, and x has an exact law: with s = |u| |v| and
rho = u . v / s, x = s E (rho + S), where E ~ Exp(1) and S = cos 2 theta,
theta uniform, are independent. Proof sketch: x is the quadratic form
eta^T A eta with A = (u v^T + v u^T) / 2, whose nonzero eigenvalues are
s (1 + rho) / 2 and -s (1 - rho) / 2, so by rotation invariance
x = s ((1 + rho) / 2 Z1**2 - (1 - rho) / 2 Z2**2) with Z1, Z2 independent
standard normals. In polar form Z1 = R cos theta, Z2 = R sin theta,
R**2 / 2 ~ Exp(1) is independent of theta, and the bracket is
R**2 / 2 (cos 2 theta + rho). This holds for any feature dimension and
gives E[x] = u . v and E[x * x] = |u|**2 |v|**2 + 2 (u . v)**2, as
Isserlis does.

A draw's S, which has the law of cos 2 theta and so of sin t for t
uniform in (-pi / 2, pi / 2), is entry j = h >> 20 of a table of 4096
sines (Gaussian stream contract v6): the top 12 bits of the draw's half h
pick the angle t_j = (j - (2**11 - 1/2)) * (pi * 2**-12), one of 4096
points spaced evenly in (-pi / 2, pi / 2). The difference is exact and
the product rounds once. The table holds S_j = t_j Q(t_j**2), Q the
degree-10 polynomial in t**2 with the Taylor coefficients
(-1)**k / (2k + 1)!, k <= 10, evaluated by Horner's rule from the
highest coefficient, one IEEE multiply and one add a step, and then
multiplied by t; it is built once, at import (``_sine_table``, about
36 us). The truncation error is at most (pi / 2)**23 / 23!, about
1.3e-18, and every S_j lies within 2 ulp of ``math.sin(t_j)``.

Nothing the estimator uses is lost to the coarser angle. A row's mean
depends on S only through E[S], its standard error through E[S**2], and
that error's spread through E[S**4]. The midpoint rule on N points of a
period integrates trigonometric polynomials of degree below N exactly
(Trefethen and Weideman, SIAM Rev. 56, 385 (2014)), and for even k,
sin**k t is a polynomial of degree k / 2 in cos 2t, whose period pi the
4096 angles cover. So the table's moments are those of cos 2 theta,
E[S**k] = C(k, k / 2) / 2**k, for every even k below 8192; with the
rounded entries, ``math.fsum`` still gives them exactly for k = 2, 4, 6
and 8. The map h -> 2**32 - 1 - h takes j to 4095 - j, which negates
t_j exactly, and every step of t Q(t**2) commutes with negation,
rounding included, so the table is antisymmetric bit for bit and the
sampled sines have mean exactly 0, as cos 2 theta has: the discrete
angle biases no Gaussian row's mean, where a finite row's atoms need the
bias bound below.

A draw's E is entry k = h & 0xFFF of a table of 4096 exponentials
(Gaussian stream contract v7): the low 12 bits of the same half. The two
bit fields are disjoint, so over the 2**32 halves j and k are exactly
independent and each uniform on 4096 values. Entry k < 4094 is the mean
of Exp(1) on its k-th bin of probability 1/4096: with m = 4096 - k the
bin is [a_k, a_k + ln(m / (m - 1))), a_k = ln(4096 / m), and its mean is
a_k + 1 - (m - 1) ln(m / (m - 1)). With z = 1 / (2m - 1),
ln(m / (m - 1)) = 2 atanh z = 2 (z + z**3 P(z**2)), where
P(w) = sum_{j < 17} w**j / (2j + 3), and 2 (m - 1) z = 1 - z, so the
mean is a_k + z - 2 (m - 1) z**3 P(z**2), in which nothing cancels. a_k
is the sequential cumulative sum of the terms ln(i / (i - 1)), from
i = 4096 down to m + 1, each by the same series; z is at most 1/5, so
the series' truncation is below 1e-25. The last two bins together are
[ln 2048, inf); their entries are (r1 - d) / 2 and (r1 + d) / 2, with
r1 = 4096 - fsum(head), r2 = 8192 - fsum(head**2) over the first 4094
entries and d = sqrt(2 r2 - r1**2), the two numbers of sum r1 and sum of
squares r2. So ``math.fsum`` gives the table the mean 1 and the mean
square 2 exactly; the exact sums of the rounded entries are within
1e-17 relative of them. The table is built once, at import
(``_exp_table``, about 0.25 ms), from IEEE + - * /, a sequential
``np.cumsum``, ``math.fsum`` and ``sqrt``, with no libm function and no
``np.log``. It ascends from 1.22e-4 to 9.63, and entries 0 to 4093 lie
within 5e-13 of the ``math.log`` form of the same means, whose own
cancellation is larger.

Nothing the estimator uses is lost to the table either. With E and S
independent, E[y] = E[E] (rho + E[S]) = rho and
E[y**2] = E[E**2] E[(rho + S)**2] = 2 (rho**2 + 1/2) = 1 + 2 rho**2, the
law's values, so x = s y keeps E[x] = u . v and
E[x * x] = |u|**2 |v|**2 + 2 (u . v)**2: a row's mean and standard error
read E only through E[E] = 1 and E[E**2] = 2. The spread of the standard
error reads E[E**4], which is 23.964 for the table against the 24 of
Exp(1) (E[E**3] is 5.9991 against 6). Each exponential entry meets every
sine entry equally often, and the sines sum to 0 exactly, so the table
still biases no Gaussian row's mean. A draw is a pure function of
(key, i), as a finite draw is, and ``BLOCK_DRAWS`` fixes only the order
in which a row's sums are added. Since y takes at most 2**24 values, two
draws are equal with probability about 2**-24, and a row of n = 2 draws
then has stderr 0, with z 0 or +-inf; no bundled scenario and no
Gaussian grid that CI runs at n = 2 has such a row. E comes from no
numpy ``Generator`` method, whose streams NEP 19 does not promise to keep
across numpy versions. The tile sums y = E (rho + S), which
is of order 1, and its square; the row's mean and standard error of y
are multiplied by s at the end (s = rho = 0 for a row with a zero party,
whose estimate is then +0.0 with stderr 0). The Gaussian sampler gives s
by ``hypot`` and rho from the unit vectors, clipped to [-1, 1].

Only numpy is needed, and only operations whose float64 bits do not
depend on numpy's SIMD dispatch or on the C library: a Gaussian draw's
bits come from integer shifts and masks, table gathers and IEEE + and *,
and the tables' bits from the operations above, which every loop rounds
correctly. ``np.log`` and ``np.log1p`` do not: their bits differ with
numpy's AVX-512 loops switched off, so an inverse-transform exponential,
per draw or in the table, would break the pinned outputs on hosts
without AVX-512, and ``np.sin`` ties them to the sine that numpy or the
C library supplies. ``ndtri`` is the tile transform (h, rho -> y); its
docstring says why it keeps the name of an inverse normal CDF.

Finite rows. A draw picks one of a few atoms. A half h draws atom ``k``
when h * 2**-32 lies in [cum[k-1], cum[k]), the last atom taking the
rest. Scaling by 2**32 is exact and h is an integer, so the atom index is
the number of thresholds T_k = ceil(cum[k] * 2**32), over k < K - 1, that
h reaches. Thresholds at or above 2**32 cannot be reached and are
dropped. That is the atom that ``searchsorted(cum, h * 2**-32,
side="right")``, clipped to K - 1, gives. So atom k has probability
(T_k - T_{k-1}) / 2**32 (T_{-1} = 0, and 2**32 for the last atom and for
a dropped threshold), and each P(atom > k) = 1 - T_k / 2**32 is within
2**-32 of 1 - cum[k]. By summation by parts,
E[x] = x_0 + sum_k (x_{k+1} - x_k) P(atom > k), so the law's mean is off
by at most 2**-32 * sum_k |x_{k+1} - x_k| over the row's per-atom
products x_k. For the singlet model |x_k| <= 3, so that is at most
12 * 2**-32, about 2.8e-9, where a row of unit variance has a standard
error of 2**-18, about 3.8e-6, even at ``MAX_DRAWS``. A row whose
products are all equal has no bias, and the bound shrinks with the
products' spread as the standard error does.

A finite model's draws are summed up by their atom counts: one kernel,
``_atom_counts``, counts the halves at or above each threshold and takes
differences, one pass over the halves per threshold, with the thresholds
built once a call (``_thresholds``). It counts a little-endian uint32
view of the row's words, cut to its first n halves (``_halves``, which
Gaussian tiles read too), so draw 2j is the low half of word j and the
draws do not depend on the host's byte order. Counting beats a binary
search of the thresholds up to about 128 atoms: on one-row tiles of
65 536 words (2-vCPU x86-64 host, timeit minimum, contract v3) it took
1.1 against 3.6 ms at 33 atoms and 3.4 against 4.6 ms at 80, broke even
at 112 to 128, and took 9.0 against 5.2 ms at 256. Larger tables pay
that; the CLI's singlet model has 3 atoms.

One table, ``_SAMPLERS``, is the one place the Monte Carlo path tells
the sample spaces apart. Its entry for the model's ``SpaceKind`` builds
the call's ``_Sampler`` once, from the model, the rows' rescaled feature
stacks and n. A sampler holds three things: the tile statistic, which
turns a tile into each of its rows' sufficient statistics; the floats a
tile draw takes of its worker's scratch array; and the estimate, the
rows' means and standard errors from their statistics added over all
their tiles. The finite sampler holds the thresholds: its statistic is
the rows' atom counts, it takes no scratch, and its estimate is the
contraction below. The Gaussian sampler holds each row's s and rho: its
statistic writes y into the first half of the tile's share of the
scratch, 2 floats a draw, with the second half as ``ndtri``'s scratch,
and sums y along its rows, squares it and sums again (row sums of a
C-contiguous stack equal the per-row sums bit for bit); its estimate is
the mean and standard error of y, times s. Every tile, a C-contiguous
(rows, words) stack of Philox words, half a word a draw, passes through
one function, ``_tile_stats``, which applies the sampler's statistic.
The rest of the path is shared, so a new way of sampling is one more
entry of the table, and it inherits the tiling, the word sources, the
workers and the determinism below.

A row's word count alone picks where its words come from; both sources
give the same words, so the choice costs time, never bits.
``mc_estimate_rows`` cuts its rows into tiles of at most ``BLOCK_DRAWS``
draws. Rows of at most ``BATCH_ROW_WORDS`` words, 512 draws, give
multi-row tiles, however few the rows, whose words come from a numpy
Philox4x64-10 vectorised over keys and counters (``_philox_words``,
bit-identical to numpy's generator). Every longer row gives a one-row
tile per block of ``BLOCK_DRAWS`` draws from numpy's C generator
(``_raw_words``); block b of a row is its words b * BLOCK_DRAWS / 2
onward. Each worker that draws one-row tiles has one Philox bit
generator, re-keyed through its state setter for each tile's words.
Only a row of more than 512 draws imports ``numpy.random``, which adds
about 6.5 MiB to a cold run's peak RSS. The vectorised generator's fixed
cost of a few hundred microseconds a call is what the rule pays for
that: a call of one to four rows of 100 draws took 0.35-0.39 ms against
0.07-0.18 ms from the C generator, and from 16 Gaussian or 32 finite
rows on the vectorised generator was as fast or faster (2-vCPU x86-64
host, timeit minimum). All tiles of a call are shared among ``workers``
threads (the calling thread is one of them), and each row's statistics
are then added up tile by tile in block order. So a row's estimate is a
pure function of (model, settings, n, key), bit-identical across runs,
worker counts and scheduling; counts add exactly, so a finite row's
estimate does not even depend on how it is cut into tiles.

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

``_mc_rows`` is the shared path, and it names no sample space. On the
rows' feature stacks it does this rescaling, builds the sampler, cuts
the tiles, draws them on the workers from either word source, adds up
each row's statistics in block order, and returns the sampler's means
and standard errors, scaled back, as arrays. ``mc_estimate_rows``
builds the stacks from settings and wraps each row in a
``CorrelationEstimate``. Likewise ``_z_scores`` compares arrays of
estimates with exact values, and ``compare`` is its one-row case.

Overflow in a row's arithmetic is not warned about: it shows as an
infinite or NaN result, which the caller reports with the row.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .lhv import HiddenVariableModel, SpaceKind, _contract, _feature_stack

#: Draws per evaluation block. Fixed so that block boundaries (and hence
#: the reduction order of partial sums) never depend on the worker count.
BLOCK_DRAWS = 1 << 16

#: Rows of more Philox words than this take numpy's C generator: a row of n
#: draws has ceil(n / 2) words, so rows of up to 512 draws batch, finite or
#: Gaussian. The cutoff is in words because the vectorised generator's cost
#: is; the rest of a draw costs the same either way. Per row of a 256-row
#: ``_mc_rows`` call at one worker, batched against C generator (finite
#: contract v4, Gaussian v7; 2-vCPU x86-64 host, one BLAS thread, medians
#: of 7 in each of three runs): spin rows 2.0-3.5 vs 13-22 us at 2 words,
#: 4.0-6.4 vs 14-23 at 64, 13-19 vs 15-26 at 256, 24-36 vs 16-28 at 512,
#: 47-73 vs 19-33 at 1024; Gaussian rows 2.1-3.9 vs 24-40 at 2, 4.5-7.1 vs
#: 24-42 at 64, 13-19 vs 26-47 at 256, 25-37 vs 32-51 at 512, 48-72 vs
#: 35-61 at 1024. The vectorised generator costs about 0.1 us per word
#: against a few ns, so a spin row crosses over between 256 and 512 words
#: and a Gaussian one between 512 and 1024. At the cutoff a batched spin
#: row costs 0.7-0.9 of its one-row tiles, a batched Gaussian row 0.4-0.5.
BATCH_ROW_WORDS = 256

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
#: Drawing that many takes four to seven minutes at the 175M-315M Gaussian
#: draws/s (medians 177M, 276M and 310M in three sets of five runs) of two
#: workers on a 2-vCPU x86-64 host (contract v7, in-process, 36 rows of
#: 10**6 draws).
MAX_DRAWS = 1 << 36


# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11),
# as numpy's Philox uses them.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF
#: Entry j of the sine table is the sine of the angle t_j = (j - _CENTRE) * _ANGLE_STEP.
_CENTRE = np.float64(2**11 - 0.5)
_ANGLE_STEP = np.float64(math.pi * 2.0**-12)
#: A Gaussian draw's 32-bit half h takes table entry h >> _SINE_SHIFT, its top 12 bits.
_SINE_SHIFT = 20
#: Taylor coefficients (-1)**k / (2k + 1)! of sin t / t in t**2, k = 10 down to 1;
#: the constant term, k = 0, is 1.
_SIN_COEFFS = tuple(np.float64((-1) ** k / math.factorial(2 * k + 1)) for k in range(10, 0, -1))


def _sine_table() -> np.ndarray:
    """The 4096 sines S_j = t_j Q(t_j**2), read-only, in the order the module docstring fixes."""
    # In place: each 32 KiB temporary the import makes can raise a run's peak RSS.
    t = np.arange(1 << (32 - _SINE_SHIFT), dtype=np.float64)
    t -= _CENTRE
    t *= _ANGLE_STEP
    x = t * t
    sines = x * _SIN_COEFFS[0]
    for c in _SIN_COEFFS[1:]:
        sines += c
        sines *= x
    sines += 1.0
    sines *= t
    sines.flags.writeable = False
    return sines


_SINES = _sine_table()

#: A Gaussian draw's 32-bit half h takes exponential table entry h & _EXP_MASK, its low 12 bits.
_EXP_MASK = 0xFFF
#: Coefficients 1 / (2j + 3) of P(w) = sum_j w**j / (2j + 3), j = 16 down to 0: ln(m / (m - 1))
#: is 2 (z + z**3 P(z**2)) with z = 1 / (2m - 1).
_ATANH_COEFFS = tuple(1.0 / (2 * j + 3) for j in range(16, -1, -1))


def _exp_table() -> np.ndarray:
    """The 4096 exponentials E_k, read-only and ascending, built as the module docstring fixes."""
    # z = 1 / (2m - 1) for m = 4096 - k, k < 4094, and q = z**3 P(z**2); in
    # place where it can be, as for the sine table.
    m = np.arange(1 << 12, 2, -1, dtype=np.float64)
    z = 2.0 * m
    z -= 1.0
    np.divide(1.0, z, out=z)
    w = z * z
    q = w * _ATANH_COEFFS[0]
    for c in _ATANH_COEFFS[1:-1]:
        q += c
        q *= w
    q += _ATANH_COEFFS[-1]
    q *= w
    q *= z
    # a_k = ln(4096 / m), the sum of ln(i / (i - 1)) = 2 (z_i + q_i) over i = 4096 down to m + 1.
    exps = np.empty(1 << 12)
    head = exps[:-2]
    head[0] = 0.0
    np.add(z[:-1], q[:-1], out=head[1:])
    head[1:] *= 2.0
    np.cumsum(head, out=head)
    # The bin's conditional mean a_k + 1 - (m - 1) ln(m / (m - 1)) = a_k + z - 2 (m - 1) q.
    m -= 1.0
    m *= 2.0
    m *= q
    z -= m
    head += z
    # The last two bins share two entries that make the mean 1 and the mean
    # square 2. A memoryview yields one float at a time, where a list of
    # 4094 would raise a cold run's peak RSS.
    r1 = 4096.0 - math.fsum(memoryview(head))
    w = head * head
    r2 = 8192.0 - math.fsum(memoryview(w))
    d = math.sqrt(2.0 * r2 - r1 * r1)
    exps[-2:] = (r1 - d) / 2.0, (r1 + d) / 2.0
    exps.flags.writeable = False
    return exps


_EXPS = _exp_table()

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


def _raw_words(bg: np.random.Philox, key: int, word_offset: int, n_words: int) -> np.ndarray:
    """Words ``word_offset`` .. ``word_offset + n_words - 1`` of the Philox stream keyed by ``key``.

    Re-keys the bit generator ``bg`` through its state setter (about 5 us,
    against 15-25 us for a new ``np.random.Philox(key=key)``, whose seed
    sequence reads OS entropy that the key then overrides) and draws from
    it. ``random_raw`` releases the GIL while it fills its array, so the
    calling worker's tiles and the other workers' run at once. Measured
    and not taken (2-vCPU x86-64 host): two threads or two forked
    processes drawing words apart from the workers, which gave 1.8x and
    1.9x over one thread at 49M words each, but 0.98x and 0.91x at 6.5M
    words each (about 20 ms), medians of 7; and the bit-identical
    ``Generator.integers`` sources, which in-process ``mc_spin`` rows
    (16 rows of 4M draws, 2 workers, medians of 5) took no faster: 0.091 s
    for uint64 words with ``endpoint=True`` and 0.129 s for uint32
    halves, against 0.089 s here.
    """
    # Philox advances its counter in blocks of four 64-bit words, and numpy
    # increments the counter before it generates: block b follows counter b.
    if word_offset % 4:
        raise ValidationError(f"word offset must be 4-aligned, got {word_offset}")
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": np.array((word_offset // 4, 0, 0, 0), dtype=np.uint64),
                          "key": np.array(divmod(key, 1 << 64)[::-1], dtype=np.uint64)},
                "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
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


def ndtri(halves: np.ndarray, rho: np.ndarray, s: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """y = E (rho + S), E and S the tables' entries for each draw, for a tile's 32-bit ``halves``.

    ``halves``, ``s`` and ``scratch`` are (rows, m) arrays and ``rho`` the
    rows' (rows, 1) column. Writes y into ``s``, which it returns, and the
    draws' exponentials into ``scratch``. Six numpy passes: the shift of
    the halves to sine indices, a gather from the sine table, the add of
    rho, the mask of the halves to exponential indices, a gather from the
    exponential table, and the multiply; both 32 KiB tables stay in L1.
    The transform layer's probe point: the benchmark's traced run wraps
    this name, which Gaussian draws call through the module and finite
    ones never call. It is no longer an inverse normal CDF, but renaming
    it is a change to the benchmark as well.
    """
    index = scratch.view(np.int64)
    np.right_shift(halves, _SINE_SHIFT, out=index)
    # Every index is below 4096, so "wrap" never wraps; numpy buffers ``out``
    # under the default "raise".
    np.take(_SINES, index, out=s, mode="wrap")
    s += rho
    np.bitwise_and(halves, _EXP_MASK, out=index)
    # The gather reads each index before it writes that element, so it may
    # overwrite its own index view; a third array would cost 0.5 MiB a worker.
    np.take(_EXPS, index, out=scratch, mode="wrap")
    s *= scratch
    return s


def _thresholds(weights) -> list[np.uint32]:
    """The thresholds T_k = ceil(cum[k] * 2**32) below 2**32 of ``weights``' atoms.

    Built once a call (module docstring); dropped thresholds are the last
    ones, as the partial sums ascend.
    """
    # Partial sums in index order, as np.cumsum forms them; c * 2**32 is exact.
    return [np.uint32(t) for t in (math.ceil(c * 2.0**32) for c in accumulate(weights[:-1]))
            if t < 1 << 32]


def _atom_counts(thresholds, atoms: int, words: np.ndarray, draws: int) -> np.ndarray:
    """Each row's count of every atom over ``draws`` draws of a (rows, words) stack of Philox words.

    A row's draws 2j and 2j + 1 are the low and high halves of its word j,
    so ``words`` holds ceil(draws / 2) words a row, and an odd ``draws``
    leaves the high half of the last word uncounted. ``thresholds`` are
    ``_thresholds`` of the ``atoms`` weights. Returns a (rows, atoms) int64
    array. The one finite kernel: it passes over the halves once per
    threshold, so above about 128 atoms it is slower than a binary search
    would be.
    """
    halves = _halves(words, draws)
    # Counting a one-row stack whole takes half the time of counting along its axis.
    axis = 1 if len(words) > 1 else None
    # reached[:, j] counts the draws that reach j thresholds or more; atom k
    # is reached by k but not k + 1, and no draw reaches past the last one.
    reached = np.zeros((len(words), atoms + 1), dtype=np.int64)
    reached[:, 0] = draws
    for j, t in enumerate(thresholds, 1):
        reached[:, j] = np.count_nonzero(halves >= t, axis=axis)
    return reached[:, :-1] - reached[:, 1:]


def _halves(words: np.ndarray, draws: int) -> np.ndarray:
    """The first ``draws`` 32-bit halves of each row of a (rows, words) stack of Philox words.

    The words are read as little-endian pairs of halves, low half first, on
    any byte order: half 2j is the low half of word j, so the first
    ``draws`` halves are the draws, an odd count's last one a low half.
    """
    return words.astype("<u8", copy=False).view("<u4")[:, :draws]


class _Sampler(NamedTuple):
    """How one call samples its rows: a ``_SAMPLERS`` entry builds it once a call.

    ``tile(words, count, rows, y)`` gives the statistics of the rows
    ``rows``, a slice, over the ``count`` draws a row of one tile;
    ``scratch`` is the floats of the worker's array ``y`` that a tile draw
    takes; ``estimate(totals)`` gives the rows' means and standard errors
    from their statistics, added over all their tiles.
    """

    tile: Callable[[np.ndarray, int, slice, np.ndarray], np.ndarray]
    scratch: int
    estimate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _finite_sampler(model: HiddenVariableModel, phi1: np.ndarray, phi2: np.ndarray,
                    n: int) -> _Sampler:
    """Atom counts, and the contraction with the empirical weights (module docstring)."""
    thresholds, atoms = _thresholds(model.space.weights), len(model.space.weights)

    def estimate(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        empirical = counts / n
        # The contraction keeps a -0.0 from its first term; adding 0.0 makes it
        # 0.0, as the Gaussian rows' sums from 0 are.
        mean = _contract(empirical, phi1, phi2) + 0.0
        deviation = phi1 * phi2 - mean[:, None]
        return mean, np.sqrt(_contract(empirical, deviation, deviation) / (n - 1))

    return _Sampler(lambda words, count, rows, y: _atom_counts(thresholds, atoms, words, count),
                    0, estimate)


def _gaussian_sampler(model: HiddenVariableModel, phi1: np.ndarray, phi2: np.ndarray,
                      n: int) -> _Sampler:
    """Sums of y = E (rho + S) and of y * y, and their mean and standard error times s.

    Each row's law: s = |u| |v| and rho = u.v / s, clipped to [-1, 1]; a
    row with a zero party has s = rho = 0.
    """
    norm1, norm2 = np.hypot.reduce(phi1, axis=1), np.hypot.reduce(phi2, axis=1)
    scale = norm1 * norm2
    zero = scale == 0.0
    # Products of unit vectors stay in range; u.v itself can overflow where s does not.
    unit1 = phi1 / np.where(zero, 1.0, norm1)[:, None]
    unit2 = phi2 / np.where(zero, 1.0, norm2)[:, None]
    rho = np.clip(np.where(zero, 0.0, (unit1 * unit2).sum(axis=1)), -1.0, 1.0)[:, None]

    def tile(words: np.ndarray, count: int, rows: slice, y: np.ndarray) -> np.ndarray:
        # The first half of y's first 2 * rows * count floats takes the tile's
        # y values, the second is ndtri's scratch.
        s, scratch = y[:2 * len(words) * count].reshape(2, -1, count)
        ndtri(_halves(words, count), rho[rows], s, scratch)
        # Row sums of a C-contiguous stack equal the per-row sums bit for bit.
        sums = s.sum(axis=1)
        s *= s
        return np.stack((sums, s.sum(axis=1)), axis=1)

    def estimate(totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = totals[:, 0] / n
        # np.maximum(-0.0, 0.0) is +0.0 where max(-0.0, 0.0) is -0.0, but the
        # difference is never -0.0: that needs a first operand of -0.0, and a
        # sum of squares added up from 0.0 is never -0.0.
        var = np.maximum(totals[:, 1] - n * mean * mean, 0.0) / (n - 1)
        # x = s y; adding 0.0 turns the -0.0 of a zero row (s = 0) into 0.0.
        return scale * mean + 0.0, scale * np.sqrt(var / n)

    return _Sampler(tile, 2, estimate)


#: The one place the Monte Carlo path tells sample spaces apart: each
#: ``SpaceKind``'s sampler, built from (model, phi1, phi2, n).
_SAMPLERS = {SpaceKind.FINITE: _finite_sampler, SpaceKind.GAUSSIAN_PAIR: _gaussian_sampler}


@_quiet
def _tile_stats(sampler: _Sampler, words: np.ndarray, count: int, rows: slice,
                y: np.ndarray) -> np.ndarray:
    """The statistics of the rows ``rows`` over the ``count`` draws per row of one tile.

    ``words`` is the tile's C-contiguous (rows, words) stack of Philox
    words, whose word j holds draws 2j and 2j + 1 of its row, and ``y`` the
    worker's array of ``sampler.scratch`` floats a draw of its largest
    tile. Every tile of every call passes through here.
    """
    return sampler.tile(words, count, rows, y)


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


def _check_draws(n, rows: int, workers) -> tuple[int, int]:
    """``n`` and ``workers`` as Python ints, once each has passed its check
    and ``rows`` rows of ``n`` draws are at most ``MAX_DRAWS``."""
    workers = _integer(workers, 1, MAX_WORKERS + 1,
                       f"workers must be an integer in [1, {MAX_WORKERS}]")
    n = _integer(n, 2, math.inf, "sample count must be an integer >= 2")
    if n * rows > MAX_DRAWS:
        raise ValidationError(f"{rows} rows of {_decimal(n)} samples ask for "
                              f"{_decimal(n * rows)} draws, more than MAX_DRAWS = {MAX_DRAWS}")
    return n, workers


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
    n, workers = _check_draws(n, len(keys), workers)
    keys = [_integer(key, 0, 1 << 128, "stream key must be a 128-bit unsigned integer")
            for key in keys]
    mean, stderr = _mc_rows(model, _feature_stack(model.response1, settings1),
                            _feature_stack(model.response2, settings2), n, keys, workers)
    return [CorrelationEstimate(mean=m, stderr=s, n=n, key=key)
            for m, s, key in zip(mean.tolist(), stderr.tolist(), keys)]


@_quiet
def _mc_rows(model: HiddenVariableModel, phi1: np.ndarray, phi2: np.ndarray, n: int,
             keys: Sequence[int], workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row's ``n`` draws, as two arrays.

    ``phi1`` and ``phi2`` are the rows' (rows, d) feature stacks, row i
    drawing from the stream keyed by ``keys[i]``. ``n``, the keys and
    ``workers`` are Python ints that its callers have checked: ``n`` and
    ``workers`` by ``_check_draws``, the keys as 128-bit unsigned integers.
    """
    if not keys:
        return np.empty(0), np.empty(0)
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
    sampler = _SAMPLERS[model.space.kind](model, phi1, phi2, n)
    # A tile is (first row, end row, first draw, draws per row), in row and block order.
    batched = -(-n // 2) <= BATCH_ROW_WORDS
    if batched:
        # As few tiles of at most BLOCK_DRAWS draws as can be, of nearly equal size.
        per_tile = -(-len(keys) // -(-len(keys) // max(1, BLOCK_DRAWS // n)))
        tiles = [(first, first + per_tile, 0, n) for first in range(0, len(keys), per_tile)]
        # Key k is the Philox key words (k0, k1) = (k mod 2**64, k >> 64).
        k1, k0 = np.array([divmod(key, 1 << 64) for key in keys], dtype=np.uint64).T[:, :, None]
    else:
        tiles = [(row, row + 1, start, min(BLOCK_DRAWS, n - start))
                 for row in range(len(keys)) for start in range(0, n, BLOCK_DRAWS)]

    def tile_stats(first: int, end: int, start: int, count: int, bg, y) -> np.ndarray:
        # Draws 2j and 2j + 1 of a row share its word j.
        n_words = -(-count // 2)
        words = (_philox_words(k0[first:end], k1[first:end], n_words) if batched
                 else _raw_words(bg, keys[first], start // 2, n_words)[None, :])
        return _tile_stats(sampler, words, count, slice(first, end), y)

    # Each worker takes the next tile number under a lock and stores the
    # tile's statistics in its slot. Its bit generator, for one-row tiles'
    # words, and its y array, the sampler's scratch, are made once, here;
    # batched tiles need no generator, so a batched call never imports
    # numpy.random.
    stats = [None] * len(tiles)
    tasks = iter(range(len(tiles)))
    taking = threading.Lock()

    def drain() -> None:
        bg = None if batched else np.random.Philox()
        y = np.empty(sampler.scratch * max((end - first) * count for first, end, _, count in tiles))
        while True:
            with taking:
                index = next(tasks, None)
            if index is None:
                return
            stats[index] = tile_stats(*tiles[index], bg, y)

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
    mean, stderr = sampler.estimate(totals)
    return np.ldexp(mean, -shift), np.ldexp(stderr, -shift)


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
