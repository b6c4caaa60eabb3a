import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

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
    TimeSetting,
    UnitVector3,
    ValidationError,
    compare,
    exact_expectation,
    extract_moments,
    free_evolution_model,
    mc_estimate,
    mc_estimate_rows,
    quadrature_model,
    tmsv,
    unbounded_spin_model,
)
from conftest import (
    EXP_TABLE,
    SINE_TABLE,
    draw_halves,
    gaussian_row_reference,
    one_row_tiles,
    polynomial_sine,
    reference_atoms,
)
from eprlab import estimator
from eprlab.estimator import (
    BATCH_ROW_WORDS,
    BLOCK_DRAWS,
    MAX_WORKERS,
    _atom_counts,
    _philox_words,
    _thresholds,
    _tile_stats,
    ndtri,
)

Z_AXIS = UnitVector3(0.0, 0.0, 1.0)

SEEDS = list(range(100, 120))

#: 10**5000 lies in [2**HUGE_BITS, 2**(HUGE_BITS + 1)).
HUGE_BITS = (10**5000).bit_length() - 1


def constant_model(value: float = 1.0) -> HiddenVariableModel:
    settings = (QuadratureSetting(0.0),)
    return HiddenVariableModel(
        space=SampleSpace.finite((1.0,)),
        response1=TabulatedResponse(settings, ((value,),)),
        response2=TabulatedResponse(settings, ((1.0,),)),
    )


def pair_model(u, v) -> HiddenVariableModel:
    """A Gaussian-pair model whose features at ``QuadratureSetting(0.0)`` are ``u`` and ``v``."""
    return HiddenVariableModel(space=SampleSpace.gaussian_pair(),
                               response1=LinearResponse(u, (0.0, 0.0), ResponseMode.TRIG),
                               response2=LinearResponse(v, (0.0, 0.0), ResponseMode.TRIG))


def builtin_cases():
    spin = unbounded_spin_model()
    m = extract_moments(tmsv(1.0))
    quad = quadrature_model(m)
    free = free_evolution_model(MomentMatrix(qq=1.0, pq=2.0, qp=3.0, pp=4.0))
    return [
        (spin, Z_AXIS, UnitVector3(math.sin(0.8), 0.0, math.cos(0.8))),
        (quad, QuadratureSetting(0.3), QuadratureSetting(0.5)),
        (free, TimeSetting(0.7), TimeSetting(-1.2)),
    ]


class TestMcEstimate:
    def test_constant_model_has_zero_stderr(self):
        s = QuadratureSetting(0.0)
        est = mc_estimate(constant_model(), s, s, 1000, 5)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_spin_model_large_sample(self):
        est = mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 10**6, 2024)
        assert abs(est.mean - (-1.0)) <= 5.0 * est.stderr
        assert est.stderr < 0.01

    def test_quadrature_model_large_sample(self):
        m = extract_moments(tmsv(1.0))
        model = quadrature_model(m)
        s = QuadratureSetting(0.0)
        est = mc_estimate(model, s, s, 10**6, 2024)
        assert abs(est.mean - m.qq) <= 5.0 * est.stderr

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValidationError):
            mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 1, 0)

    def test_accepts_128_bit_keys(self):
        # Key (1 << 64) + 5 is row 1 of seed 5: its own stream, not seed 5's.
        model = unbounded_spin_model()
        for key in ((1 << 64) + 5, (1 << 128) - 1):
            est = mc_estimate(model, Z_AXIS, Z_AXIS, 1001, key)
            atoms = reference_atoms(model.space.weights, draw_halves(key, 1001))
            want = -3.0 * np.count_nonzero(atoms == 2) / 1001
            assert est.mean == pytest.approx(want, abs=1e-15)
        assert mc_estimate(model, Z_AXIS, Z_AXIS, 1000, (1 << 64) + 5) != \
            mc_estimate(model, Z_AXIS, Z_AXIS, 1000, 5)

    def test_accepts_numpy_integers(self):
        model = unbounded_spin_model()
        want = mc_estimate(model, Z_AXIS, Z_AXIS, 10, 7)
        for n, key, workers in ((np.int64(10), np.uint64(7), np.int64(2)),
                                (np.uint8(10), np.int32(7), np.uint16(1))):
            got = mc_estimate(model, Z_AXIS, Z_AXIS, n, key, workers=workers)
            assert got == want and type(got.n) is int and type(got.key) is int
        keys = np.arange(40, dtype=np.uint64) + np.uint64((1 << 64) - 40)
        rows = mc_estimate_rows(model, [Z_AXIS] * 40, [Z_AXIS] * 40, np.int16(3), keys,
                                workers=np.int8(2))
        assert rows == [mc_estimate(model, Z_AXIS, Z_AXIS, 3, int(key)) for key in keys]

    # bool is an int and np.bool_ converts to one, but neither is a count or a key.
    @pytest.mark.parametrize("n, key, workers, message", [
        (True, 7, 1, "sample count must be an integer >= 2, got bool True"),
        (np.True_, 7, 1, "sample count must be an integer >= 2, got bool np.True_"),
        (10.0, 7, 1, "sample count must be an integer >= 2, got float 10.0"),
        (10, True, 1, "stream key must be a 128-bit unsigned integer, got bool True"),
        (10, np.False_, 1, "stream key must be a 128-bit unsigned integer, got bool np.False_"),
        (10, np.float64(7.0), 1,
         "stream key must be a 128-bit unsigned integer, got float64 np.float64(7.0)"),
        (10, 7, np.True_, f"workers must be an integer in [1, {MAX_WORKERS}], got bool np.True_"),
        (10, 7, 2.0, f"workers must be an integer in [1, {MAX_WORKERS}], got float 2.0"),
        (np.int64(1), 7, 1, "sample count must be an integer >= 2, got 1"),
        (10, np.int64(-1), 1, "stream key must be a 128-bit unsigned integer, got -1"),
        (10, 7, np.uint64(MAX_WORKERS + 1),
         f"workers must be an integer in [1, {MAX_WORKERS}], got {MAX_WORKERS + 1}"),
    ], ids=["bool_n", "numpy_bool_n", "float_n", "bool_key", "numpy_bool_key", "numpy_float_key",
            "numpy_bool_workers", "float_workers", "numpy_n_below_two", "numpy_negative_key",
            "numpy_workers_above_cap"])
    def test_one_rule_for_counts_keys_and_workers(self, n, key, workers, message):
        with pytest.raises(ValidationError) as excinfo:
            mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, n, key, workers=workers)
        assert str(excinfo.value) == message

    def test_stderr_does_not_cancel_at_large_products(self):
        # Products 1e8 and 1e8 + 1 at even odds: a variance from
        # sum(x * x) - n * mean**2 cancelled to a stderr of 0.0 and z = -inf.
        s = QuadratureSetting(0.0)
        model = HiddenVariableModel(
            space=SampleSpace.finite((0.5, 0.5)),
            response1=TabulatedResponse((s,), ((1e8, 1e8 + 1.0),)),
            response2=TabulatedResponse((s,), ((1.0, 1.0),)),
        )
        n = 10**5
        est = mc_estimate(model, s, s, n, 7)
        assert est.stderr == pytest.approx(math.sqrt(0.25 / n), rel=0.05)
        assert math.isfinite(compare(exact_expectation(model, s, s), est).z_score)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 100, -1)
        with pytest.raises(ValidationError):
            mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 100, 1 << 128)


class TestDeterminism:
    @pytest.mark.parametrize("model,s1,s2", builtin_cases())
    def test_bit_identical_across_runs(self, model, s1, s2):
        a = mc_estimate(model, s1, s2, 200_000, 99)
        b = mc_estimate(model, s1, s2, 200_000, 99)
        assert a == b

    @pytest.mark.parametrize("model,s1,s2", builtin_cases())
    def test_bit_identical_across_worker_counts(self, model, s1, s2):
        single = mc_estimate(model, s1, s2, 300_000, 99, workers=1)
        for workers in (2, 3, 7):
            assert mc_estimate(model, s1, s2, 300_000, 99, workers=workers) == single

    @pytest.mark.parametrize("model,s1,s2", builtin_cases()[:2])
    def test_one_row_tiles_on_more_workers_than_cores(self, monkeypatch, model, s1, s2):
        # 96 batched rows at one row per tile, shared by 8 threads that switch
        # every microsecond; a lost or misplaced slot changes some row. The
        # reference rows are drawn in one-row tiles from numpy's generator.
        keys = list(range(1000, 1096))
        with one_row_tiles():
            want = [mc_estimate(model, s1, s2, 7, key) for key in keys]
        monkeypatch.setattr(estimator, "BLOCK_DRAWS", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = mc_estimate_rows(model, [s1] * 96, [s2] * 96, 7, keys, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_different_seeds_differ(self):
        a = mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 10_000, 1)
        b = mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 10_000, 2)
        assert a.mean != b.mean

    # Odd and even n, one draw short of a block, and odd n across a block boundary.
    @pytest.mark.parametrize("n", [2, 3, 1000, 1001, BLOCK_DRAWS - 1, BLOCK_DRAWS + 3])
    def test_matches_direct_stream_reconstruction(self, n):
        # Rebuild the same Philox word stream by hand and recompute the
        # statistics with plain numpy, one draw at a time.
        model = unbounded_spin_model()
        d = UnitVector3(0.48, 0.6, 0.64)
        for key in (31, (7 << 64) + 31):
            est = mc_estimate(model, Z_AXIS, d, n, key)
            x = reference_products(model, Z_AXIS, d)[
                reference_atoms(model.space.weights, draw_halves(key, n))]
            assert est.mean == pytest.approx(np.mean(x), abs=1e-15)
            assert est.stderr == pytest.approx(np.std(x, ddof=1) / math.sqrt(n), abs=1e-15)

    # Multi-row tiles of 2 and 3 draws a row: one word, whole or half used.
    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_rows_match_the_per_draw_reference(self, n):
        model = unbounded_spin_model()
        settings = [UnitVector3(math.sin(t), 0.0, math.cos(t)) for t in np.linspace(0, 3, 40)]
        keys = [(i << 64) + 17 for i in range(40)]
        rows = mc_estimate_rows(model, [Z_AXIS] * 40, settings, n, keys, workers=2)
        for est, s2, key in zip(rows, settings, keys):
            x = reference_products(model, Z_AXIS, s2)[
                reference_atoms(model.space.weights, draw_halves(key, n))]
            assert est.mean == pytest.approx(np.mean(x), abs=1e-15)
            assert est.stderr == pytest.approx(np.std(x, ddof=1) / math.sqrt(n), abs=1e-15)

    @pytest.mark.parametrize("features,n,key", [
        (((1.0, 0.0), (1.0, 0.0)), 500, 77),  # rho = 1
        (((0.8, -0.3), (0.4, 0.6)), 1000, 5),
        (((2.5, 1.0), (-1.0, 2.5)), 700, (3 << 64) + 5),  # u perpendicular to v
        (((0.3, 0.7), (-0.6, -1.4)), BLOCK_DRAWS + 9, 1 << 127),  # rho = -1, two blocks
        (((0.0, 0.0), (0.4, 0.6)), 300, 8),  # a zero party
    ], ids=["rho_one", "general", "perpendicular", "rho_minus_one_two_blocks", "zero_party"])
    def test_gaussian_rows_match_the_per_draw_reference(self, features, n, key):
        model = pair_model(*features)
        s = QuadratureSetting(0.0)
        est = mc_estimate(model, s, s, n, key)
        assert (est.mean, est.stderr) == gaussian_row_reference(*features, n, key)


#: The halves at both ends and on both sides of the centre 2**31 - 1/2, the
#: first and last half of every sine table entry, every exponential table
#: entry under the first and the last sine, then a stream.
TABLE_HALVES = np.concatenate([
    np.array([0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint32),
    np.arange(4096, dtype=np.uint32) << np.uint32(20),
    (np.arange(4096, dtype=np.uint32) << np.uint32(20)) | np.uint32(2**20 - 1),
    np.arange(4096, dtype=np.uint32),
    np.arange(4096, dtype=np.uint32) | np.uint32(2**32 - 2**12),
    draw_halves(13, 1 << 16).astype(np.uint32),
])


def table_draws(halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ndtri`` on one row of halves at rho = 0: each half's y = E S, and its E."""
    s, scratch = np.empty((2, 1, len(halves)))
    return ndtri(halves[None, :], np.zeros((1, 1)), s, scratch)[0], scratch[0]


class TestSineTable:
    """S_j = t_j Q(t_j**2), the 4096 sines a Gaussian draw takes by the top 12 bits of its half."""

    def test_antisymmetric_bit_for_bit(self):
        # j -> 4095 - j negates t_j exactly, and t Q(t**2) is odd.
        table = estimator._SINES
        assert table.shape == (4096,) and not table.flags.writeable
        assert np.array_equal(table.view(np.uint64), (-table[::-1]).view(np.uint64))

    def test_entries_equal_the_python_float_reference_and_the_sine(self):
        for j, sine in enumerate(estimator._SINES.tolist()):
            t, want = polynomial_sine(j)
            assert sine.hex() == want.hex() == SINE_TABLE[j].hex(), j
            assert abs(sine - math.sin(t)) <= 4 * 2.0**-53, j
        # No angle is 0 or +-pi/2: every entry lies strictly inside (-1, 1).
        assert 0.0 not in SINE_TABLE and -1.0 < min(SINE_TABLE) < max(SINE_TABLE) < 1.0

    # The midpoint rule on 4096 points of a period is exact for cos 2mt,
    # m < 4096, so the table has the arcsine law's moments E[S**k] = C(k, k/2) / 2**k.
    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_even_moments_are_exact(self, k):
        assert math.fsum(s**k for s in SINE_TABLE) / 4096 == math.comb(k, k // 2) / 2**k

    def test_each_half_draws_the_entry_of_its_top_12_bits(self):
        # At rho = 0, y = E S exactly as the per-draw reference forms it.
        y, _ = table_draws(TABLE_HALVES)
        for half, value in zip(TABLE_HALVES.tolist(), y.tolist()):
            assert value.hex() == (EXP_TABLE[half & 0xFFF] * SINE_TABLE[half >> 20]).hex(), half
        assert set((TABLE_HALVES >> 20).tolist()) == set(range(4096))

    def test_mirrored_halves_draw_negated_sines(self):
        # h -> 2**32 - 1 - h maps the sine entry j to 4095 - j, which negates
        # it, and the exponential entry k to 4095 - k.
        mirrored = np.uint32(2**32 - 1) - TABLE_HALVES
        y, e = table_draws(mirrored)
        for half, value, exp in zip(TABLE_HALVES.tolist(), y.tolist(), e.tolist()):
            assert exp.hex() == EXP_TABLE[4095 - (half & 0xFFF)].hex(), half
            assert value.hex() == (exp * -SINE_TABLE[half >> 20]).hex(), half

    def test_odd_batched_tile_reads_only_its_halves(self):
        # An odd row's halves are a strided view of the words; the scratch
        # row's exponentials and the draws are those of the halves alone.
        words = np.random.Philox(key=3).random_raw(5 * 256).reshape(5, 256)
        halves = estimator._halves(words, 511)
        s, scratch = np.empty((2, 5, 511))
        rho = np.linspace(-1.0, 1.0, 5)[:, None]
        got = ndtri(halves, rho, s, scratch)
        want = np.array([[EXP_TABLE[h & 0xFFF] * (SINE_TABLE[h >> 20] + r) for h in row]
                         for row, r in zip(halves.tolist(), rho[:, 0].tolist())])
        assert got is s and np.array_equal(got, want)
        assert np.array_equal(scratch, np.array(EXP_TABLE)[halves & 0xFFF])

    def test_batched_and_one_row_rows_at_odd_n_match_the_per_draw_reference(self):
        # 40 rows of 511 draws, 256 words each, are drawn as one batched tile,
        # whose last word's high half goes unused; a lone row of 1001 draws
        # is a one-row tile.
        model = quadrature_model(extract_moments(tmsv(0.8)))
        settings1 = [QuadratureSetting(0.1 * i) for i in range(40)]
        settings2 = [QuadratureSetting(-0.07 * i) for i in range(40)]
        keys = [(i << 64) + 5 for i in range(40)]
        rows = mc_estimate_rows(model, settings1, settings2, 511, keys, workers=2)
        for est, s1, s2, key in zip(rows, settings1, settings2, keys):
            features = model.response1.features(s1), model.response2.features(s2)
            assert (est.mean, est.stderr) == gaussian_row_reference(*features, 511, key)
        features = model.response1.features(settings1[3]), model.response2.features(settings2[3])
        est = mc_estimate(model, settings1[3], settings2[3], 1001, 9)
        assert (est.mean, est.stderr) == gaussian_row_reference(*features, 1001, 9)


def exp_bin_mean(k: int) -> float:
    """The mean of Exp(1) on its k-th bin of probability 1/4096, by ``math.log``.

    With m = 4096 - k the bin is [ln(4096 / m), ln(4096 / (m - 1))), and its
    mean is ln(4096 / m) + 1 - (m - 1) ln(m / (m - 1)), which cancels to
    about 1e-10 for the last bins.
    """
    m = 4096 - k
    return math.log(4096 / m) + 1 - (m - 1) * math.log(m / (m - 1))


class TestExpTable:
    """E_k, the 4096 exponentials a Gaussian draw takes by the low 12 bits of its half."""

    def test_equals_the_python_float_reference_bit_for_bit(self):
        table = estimator._EXPS
        assert table.shape == (4096,) and table.dtype == np.float64 and not table.flags.writeable
        assert table.tobytes() == np.array(EXP_TABLE).tobytes()

    def test_ascending_and_positive(self):
        assert 0.0 < EXP_TABLE[0] and all(a < b for a, b in zip(EXP_TABLE, EXP_TABLE[1:]))

    # The estimator reads E through E[E] = 1 (the mean) and E[E**2] = 2 (the
    # standard error); the last two entries are chosen to make both exact.
    def test_mean_and_mean_square_are_exact(self):
        assert math.fsum(EXP_TABLE) / 4096 == 1.0
        assert math.fsum(e * e for e in EXP_TABLE) / 4096 == 2.0

    def test_head_entries_are_the_bins_conditional_means(self):
        for k, e in enumerate(EXP_TABLE[:4094]):
            assert abs(e - exp_bin_mean(k)) <= 1e-9, k
        # The last two entries straddle the last two bins' joint mean ln(2048) + 1.
        assert EXP_TABLE[4093] < EXP_TABLE[4094] < math.log(2048) + 1 < EXP_TABLE[4095]

    def test_each_half_draws_the_sine_of_its_top_and_the_exponential_of_its_low_12_bits(self):
        # The exponential gather writes over its own index view.
        rho = 0.375
        s, scratch = np.empty((2, 1, len(TABLE_HALVES)))
        y = ndtri(TABLE_HALVES[None, :], np.full((1, 1), rho), s, scratch)[0]
        for half, value, exp in zip(TABLE_HALVES.tolist(), y.tolist(), scratch[0].tolist()):
            want = EXP_TABLE[half & 0xFFF]
            assert exp.hex() == want.hex(), half
            assert value.hex() == (want * (SINE_TABLE[half >> 20] + rho)).hex(), half
        assert set(scratch[0].tolist()) == set(EXP_TABLE)


#: A 150 000-draw Gaussian row (three blocks, the last one partial), as
#: float.hex of its mean and stderr. Taken from ``gaussian_row_reference``
#: again when Gaussian draws first took their exponential from the
#: 4096-entry table (Gaussian stream contract v7); any worker count must
#: reproduce it.
GAUSSIAN_ROW_HEX = ("0x1.4434bfd6d373fp+0", "0x1.755b606e5c2a6p-8")


class _HelperError(Exception):
    pass


class _CallerError(Exception):
    pass


# Rows this short would be batched; one-row tiles leave tiles queued when a
# helper raises.
@pytest.mark.usefixtures("one_row_tiles")
class TestWorkerErrors:
    """A tile that raises: every helper thread is joined before the error propagates."""

    @staticmethod
    def run(monkeypatch, tile_stats, started: list) -> None:
        """``mc_estimate_rows`` at 3 workers with ``tile_stats`` for ``_tile_stats``.

        Appends each thread the call starts to ``started``, and checks that
        all of them have ended when the call returns or raises.
        """
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(estimator, "BLOCK_DRAWS", 8)
        monkeypatch.setattr(estimator, "_tile_stats", tile_stats)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        baseline = threading.active_count()
        try:
            # Three rows of ten 8-draw blocks: 30 one-row tiles.
            mc_estimate_rows(unbounded_spin_model(), [Z_AXIS] * 3, [Z_AXIS] * 3, 80, [0, 1, 2],
                             workers=3)
        finally:
            assert len(started) == 2
            assert not any(thread.is_alive() for thread in started)
            assert threading.active_count() == baseline

    def test_helper_exception_propagates_after_every_helper_joined(self, monkeypatch):
        caller = threading.current_thread()
        raised = threading.Event()
        taking = threading.Lock()

        def tile_stats(*args):
            if threading.current_thread() is caller:
                # A helper takes a tile and raises before the caller draws.
                assert raised.wait(10)
            else:
                with taking:
                    first = not raised.is_set()
                    raised.set()
                if first:
                    raise _HelperError
                # The other helper is still at work when the first has raised.
                time.sleep(0.02)
            return _tile_stats(*args)

        with pytest.raises(_HelperError):
            self.run(monkeypatch, tile_stats, [])

    def test_calling_thread_exception_wins(self, monkeypatch):
        caller = threading.current_thread()
        raised = threading.Event()

        def tile_stats(*args):
            if threading.current_thread() is caller:
                assert raised.wait(10)
                raise _CallerError
            raised.set()
            raise _HelperError

        with pytest.raises(_CallerError):
            self.run(monkeypatch, tile_stats, [])

    def test_first_helper_exception_is_raised(self, monkeypatch):
        caller = threading.current_thread()
        helpers_raised = threading.Semaphore(0)
        waited = []

        def tile_stats(*args):
            if threading.current_thread() is caller:
                # Both helpers raise before the caller draws its first tile.
                while len(waited) < 2:
                    assert helpers_raised.acquire(timeout=10)
                    waited.append(True)
                return _tile_stats(*args)
            helpers_raised.release()
            raise _HelperError(threading.current_thread())

        started = []
        with pytest.raises(_HelperError) as raised:
            self.run(monkeypatch, tile_stats, started)
        assert raised.value.args[0] is started[0]


class TestGaussianRowPinned:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_mean_and_stderr_bits(self, workers):
        model = quadrature_model(extract_moments(tmsv(1.0)))
        est = mc_estimate(model, QuadratureSetting(0.3), QuadratureSetting(0.5), 150_000, 99,
                          workers=workers)
        assert (est.mean.hex(), est.stderr.hex()) == GAUSSIAN_ROW_HEX

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_rows_share_one_pool_without_changing_any_row(self, workers):
        model = quadrature_model(extract_moments(tmsv(1.0)))
        settings1 = [QuadratureSetting(a) for a in (0.3, -1.0, 2.5)]
        settings2 = [QuadratureSetting(a) for a in (0.5, 0.25, -0.7)]
        keys = [99, 5, (1 << 64) - 1]
        rows = mc_estimate_rows(model, settings1, settings2, 150_000, keys, workers=workers)
        assert rows == [mc_estimate(model, s1, s2, 150_000, key)
                        for s1, s2, key in zip(settings1, settings2, keys)]
        assert (rows[0].mean.hex(), rows[0].stderr.hex()) == GAUSSIAN_ROW_HEX


#: Gaussian rows that end in a partial block, of 16 383, 16 384, 16 385,
#: BLOCK_DRAWS - 1, 1 and 16 387 draws, as float.hex of (mean, stderr); taken
#: from ``gaussian_row_reference``, which draws one value at a time, under
#: Gaussian stream contract v7.
PARTIAL_BLOCK_ROW_HEX = {
    16383: ("0x1.42ce6744b6eabp+0", "0x1.17a344ff73280p-6"),
    16384: ("0x1.42cb342bae514p+0", "0x1.179f3164c5b9cp-6"),
    16385: ("0x1.42c2645eda1a0p+0", "0x1.179d0ba98867fp-6"),
    BLOCK_DRAWS - 1: ("0x1.43abfbaa64779p+0", "0x1.180ec3a172e46p-7"),
    BLOCK_DRAWS + 1: ("0x1.43a875a66278bp+0", "0x1.180d49397909fp-7"),
    2 * BLOCK_DRAWS + 16387: ("0x1.43cde3f5ec531p+0", "0x1.77f62d4bda56fp-8"),
}


class TestGaussianTiles:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", sorted(PARTIAL_BLOCK_ROW_HEX))
    def test_partial_block_mean_and_stderr_bits(self, n, workers):
        model = quadrature_model(extract_moments(tmsv(1.0)))
        est = mc_estimate(model, QuadratureSetting(0.3), QuadratureSetting(0.5), n, 99,
                          workers=workers)
        assert (est.mean.hex(), est.stderr.hex()) == PARTIAL_BLOCK_ROW_HEX[n]

    @pytest.mark.parametrize("n", [100, 300, 1000])
    def test_row_groups_of_any_size_give_the_same_rows(self, n):
        # 40 rows of 100 or 300 draws form one batched tile; rows of 1000
        # draws are one-row tiles. Either way each row equals its lone
        # estimate drawn in one-row tiles from numpy's generator.
        model = quadrature_model(extract_moments(tmsv(0.8)))
        settings1 = [QuadratureSetting(0.1 * i) for i in range(40)]
        settings2 = [QuadratureSetting(-0.07 * i) for i in range(40)]
        keys = [(i << 64) + 5 for i in range(40)]
        got = mc_estimate_rows(model, settings1, settings2, n, keys, workers=2)
        with one_row_tiles():
            assert got == [mc_estimate(model, s1, s2, n, key)
                           for s1, s2, key in zip(settings1, settings2, keys)]

    @pytest.mark.usefixtures("one_row_tiles")
    @pytest.mark.parametrize("n", [4, 12, 300])
    def test_one_row_tiles_ending_inside_a_philox_output_give_the_reference_row(self, n):
        # A one-row tile of n draws, n / 2 words that need not fill Philox's
        # last 4-word output, is drawn whole and gives the row the per-draw
        # reference gives. Rows this short would be batched, so they are sent
        # to numpy's generator.
        features = ((0.8, -0.3), (0.4, 0.6))
        model = pair_model(*features)
        s = QuadratureSetting(0.0)
        for key in (5, (3 << 64) + 5):
            est = mc_estimate(model, s, s, n, key, workers=2)
            assert (est.mean, est.stderr) == gaussian_row_reference(*features, n, key)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_peak_memory_per_worker(self, workers):
        model = quadrature_model(extract_moments(tmsv(1.0)))
        s1, s2 = QuadratureSetting(0.3), QuadratureSetting(0.5)
        mc_estimate(model, s1, s2, 1000, 1)  # loads numpy.random outside the trace
        tracemalloc.start()
        try:
            mc_estimate(model, s1, s2, 1_000_000, 7, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20 * workers


#: Gaussian feature pairs (u, v) of the law test, by the case they cover.
LAW_CASES = {
    "rho_one": ((0.6, 0.8), (0.6, 0.8)),
    "rho_minus_one": ((0.6, 0.8), (-1.2, -1.6)),
    "perpendicular": ((1.0, 2.0), (-2.0, 1.0)),
    "general": ((0.8, -0.3), (0.4, 0.6)),
    "scale_2_-600": ((0.8 * 2.0**-600, -0.3 * 2.0**-600), (0.4, 0.6)),
    "scale_2_500": ((0.8 * 2.0**250, -0.3 * 2.0**250), (0.4 * 2.0**250, 0.6 * 2.0**250)),
}


class TestGaussianLaw:
    """x = (u . eta)(v . eta) has mean u.v and E[x * x] = |u|**2 |v|**2 + 2 (u.v)**2 (Isserlis)."""

    KEYS = [3, 1 << 64, (5 << 64) + 17, (1 << 128) - 1, 424242, 9, 77, 1 << 100]
    N = 4096

    @pytest.mark.parametrize("u,v", LAW_CASES.values(), ids=LAW_CASES.keys())
    def test_mean_and_stderr_against_the_analytic_law(self, u, v):
        n = self.N
        dot = math.fsum(a * b for a, b in zip(u, v))
        scale = math.hypot(*u) * math.hypot(*v)
        rho = dot / scale
        # Var x = E[x * x] - (u.v)**2 = s**2 (1 + rho**2), with s = |u| |v| and
        # rho = u.v / s, written so that s**2 neither underflows nor overflows.
        # y = x / s has the fourth central moment 9 rho**4 + 42 rho**2 + 9, so
        # the sample variance of y has variance (8 rho**4 + 40 rho**2 + 8) / n.
        stderr = scale * math.sqrt((1 + rho**2) / n)
        stderr_sd = scale * math.sqrt((8 * rho**4 + 40 * rho**2 + 8) / n) / (
            2 * math.sqrt(1 + rho**2)) / math.sqrt(n)
        model, s = pair_model(u, v), QuadratureSetting(0.0)
        rows = mc_estimate_rows(model, [s] * len(self.KEYS), [s] * len(self.KEYS), n, self.KEYS)
        z_mean = [(r.mean - dot) / stderr for r in rows]
        z_stderr = [(r.stderr - stderr) / stderr_sd for r in rows]
        assert max(map(abs, z_mean)) < 4.0, z_mean
        assert max(map(abs, z_stderr)) < 4.0, z_stderr
        # Over all keys together the means are one estimate of n * len(KEYS) draws.
        assert abs(sum(z_mean)) / math.sqrt(len(rows)) < 4.0
        assert abs(sum(z_stderr)) / math.sqrt(len(rows)) < 4.0

    def test_zero_party_gives_positive_zero(self):
        s = QuadratureSetting(0.0)
        for u, v in (((0.0, 0.0), (0.4, 0.6)), ((0.4, 0.6), (0.0, -0.0)), ((0.0, 0.0), (0.0, 0.0))):
            rows = mc_estimate_rows(pair_model(u, v), [s] * 4, [s] * 4, 100, self.KEYS[:4])
            assert {(r.mean.hex(), r.stderr.hex()) for r in rows} == {("0x0.0p+0", "0x0.0p+0")}

    def test_bits_do_not_depend_on_simd_dispatch(self):
        # A Gaussian draw's bits come from integer shifts and masks, table
        # gathers and IEEE + and *, and the tables from IEEE + - * /, a
        # sequential cumsum, fsum and sqrt, which no SIMD loop may change;
        # np.log's float64 bits, for one, differ with numpy's AVX-512 loops
        # switched off.
        code = (
            "from eprlab import *\n"
            "from eprlab import estimator\n"
            "model = quadrature_model(extract_moments(tmsv(1.0)))\n"
            "est = mc_estimate(model, QuadratureSetting(0.3), QuadratureSetting(0.5), 150_000, 99)\n"
            "print(est.mean.hex(), est.stderr.hex())\n"
            "print(estimator._SINES.tobytes().hex(), estimator._EXPS.tobytes().hex())\n"
        )
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env)
        if result.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in result.stderr:
            pytest.skip("numpy refuses to disable these CPU features here")
        assert result.returncode == 0, result.stderr
        row, tables = result.stdout.splitlines()
        assert tuple(row.split()) == GAUSSIAN_ROW_HEX
        assert tables.split() == [estimator._SINES.tobytes().hex(), estimator._EXPS.tobytes().hex()]


def tiny_spin_model(scale: float, scale2: float | None = None) -> HiddenVariableModel:
    """A three-atom table model; party 2's values are scaled by ``scale2`` if given."""
    settings = (QuadratureSetting(0.0), QuadratureSetting(1.0))

    def response(factor):
        return TabulatedResponse(settings, tuple(tuple(v * factor for v in row) for row in
                                                 ((1.0, -0.5, 0.25), (0.75, 0.5, -1.0))))

    return HiddenVariableModel(space=SampleSpace.finite((0.2, 0.3, 0.5)),
                               response1=response(scale),
                               response2=response(scale if scale2 is None else scale2))


def linear_model(scale1: float, scale2: float) -> HiddenVariableModel:
    def response(factor):
        return LinearResponse((0.8 * factor, -0.3 * factor), (0.4 * factor, 0.6 * factor),
                              ResponseMode.TRIG)

    return HiddenVariableModel(space=SampleSpace.gaussian_pair(), response1=response(scale1),
                               response2=response(scale2))


class TestTinyFeatures:
    """Rows whose features are far below 1: x * x would underflow below about 1e-154."""

    PAIRS = [(0.0, 0.0), (0.3, 1.1)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gaussian_rows_scale_exactly(self, workers):
        def rows(squeezing):
            model = quadrature_model(extract_moments(tmsv(squeezing)))
            return mc_estimate_rows(model, [QuadratureSetting(a) for a, _ in self.PAIRS],
                                    [QuadratureSetting(b) for _, b in self.PAIRS], 1000,
                                    [5, 6], workers=workers)

        for small, large in zip(rows(2.0**-600), rows(2.0**-100)):
            assert small.mean == math.ldexp(large.mean, -500)
            assert small.stderr == math.ldexp(large.stderr, -500) > 0.0

    def test_finite_rows_scale_exactly(self):
        s = [QuadratureSetting(0.0), QuadratureSetting(1.0)]
        small = mc_estimate_rows(tiny_spin_model(2.0**-300), s, s[::-1], 1000, [5, 6])
        large = mc_estimate_rows(tiny_spin_model(2.0**-50), s, s[::-1], 1000, [5, 6])
        for a, b in zip(small, large):
            assert a.mean == math.ldexp(b.mean, -500)
            assert a.stderr == math.ldexp(b.stderr, -500) > 0.0

    #: float.hex of (mean, stderr) of the rows below for parties of values
    #: about 1e-200 and 1e200, taken before any rescaling: their products are
    #: about 1, so no row is scaled and nothing overflows. The linear rows
    #: were taken again from ``gaussian_row_reference`` under Gaussian stream
    #: contract v7, which they equal bit for bit; the table rows under finite
    #: contract v4, after they matched two passes over their draws from
    #: ``draw_halves`` to 2e-16 relative.
    UNEQUAL_PARTIES_HEX = {
        "table": [("-0x1.374bc6a7ef9dcp-5", "0x1.a7bd21d96fdcdp-7"),
                  ("-0x1.4bc6a7ef9db23p-4", "0x1.8484966870cb6p-7")],
        "linear": [("0x1.3a28d9b0a95d4p-2", "0x1.6efb145801997p-6"),
                   ("0x1.3df7b67d04b55p-2", "0x1.4c575130e4c6bp-6")],
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,model", [("table", tiny_spin_model(1e-200, 1e200)),
                                            ("linear", linear_model(1e-200, 1e200))])
    def test_unequal_parties_keep_their_bits(self, name, model, workers):
        s = [QuadratureSetting(0.0), QuadratureSetting(1.0)]
        rows = mc_estimate_rows(model, s, s[::-1], 1000, [5, 6], workers=workers)
        assert [(r.mean.hex(), r.stderr.hex()) for r in rows] == self.UNEQUAL_PARTIES_HEX[name]

    def test_estimates_below_the_normal_range_are_rounded_once(self):
        # A row of features 2**-530 has a mean and stderr below 2**-1060, subnormal.
        s = QuadratureSetting(0.0)
        est = mc_estimate(tiny_spin_model(2.0**-530), s, s, 1000, 5)
        ref = mc_estimate(tiny_spin_model(1.0), s, s, 1000, 5)
        assert est.mean == math.ldexp(ref.mean, -1060) != 0.0
        assert est.stderr == math.ldexp(ref.stderr, -1060) != 0.0


def reference_products(model, s1, s2) -> np.ndarray:
    """The model's per-atom products phi1_k * phi2_k at (s1, s2)."""
    return np.array(model.response1.features(s1)) * np.array(model.response2.features(s2))


def thresholds(weights) -> list[int]:
    """Every reachable threshold T_k = ceil(cum_k * 2**32), by exact rationals."""
    found = (math.ceil(Fraction(float(c)) * 2**32) for c in np.cumsum(np.array(weights))[:-1])
    return [t for t in found if t < 2**32]


def boundary_halves(weights) -> np.ndarray:
    """T_k - 1, T_k and T_k + 1 at every reachable threshold and the extremes, then a stream."""
    halves = {0, 1, 2**32 - 1}
    for t in thresholds(weights):
        halves.update(h for h in (t - 1, t, t + 1) if 0 <= h < 2**32)
    stream = draw_halves(11, 4097)
    return np.concatenate([np.array(sorted(halves), dtype=np.uint64), stream])


def pack(halves: np.ndarray) -> np.ndarray:
    """(rows, draws) halves as the (rows, ceil(draws / 2)) words they come from.

    An odd row's unused high half is 2**32 - 1, which reaches every threshold.
    """
    if halves.shape[1] % 2:
        halves = np.concatenate([halves, np.full((len(halves), 1), 2**32 - 1, np.uint64)], 1)
    return np.ascontiguousarray(halves[:, 0::2] | (halves[:, 1::2] << 32))


def random_weights(n: int, seed: int) -> tuple[float, ...]:
    raw = np.random.default_rng(seed).random(n)
    raw[::5] = 0.0
    return tuple(float(w) for w in raw / raw.sum())


ATOM_WEIGHTS = {
    "one_atom": (1.0,),
    "two_atoms": (0.25, 0.75),
    "thirds": (1.0 / 3.0,) * 3,
    "leading_zero": (0.0, 0.5, 0.5),
    "trailing_zero": (0.5, 0.5, 0.0),
    "zeros_between": (0.0, 0.3, 0.0, 0.0, 0.7, 0.0),
    "cumsum_below_one": (0.1,) * 10,
    # Partial sums in (1 - 2**-32, 1): their thresholds round up to 2**32 and are dropped.
    "cumsum_just_below_one": (0.5, 0.5 - 2.0**-53, 0.0),
    "last_atom_below_2_32": (0.5, 0.5 - 2.0**-40, 2.0**-40),
    "cumsum_just_above_one": (0.5, 0.5 + 2.0**-52, 0.0),
    # An atom of weight below 2**-32 between two others still takes one half.
    "middle_atom_below_2_32": (0.5, 2.0**-40, 0.5 - 2.0**-40),
    # 32 and 33 atoms straddle the former cutoff between counting and a binary search.
    "counted_cutoff": random_weights(32, 1),
    "searched_cutoff": random_weights(33, 2),
    "forty_atoms": random_weights(40, 3),
    "two_hundred_atoms": random_weights(200, 4),
}


def reference_counts(weights, halves: np.ndarray) -> np.ndarray:
    """Each row's atom counts, by bincount of the float-searchsorted atoms of its halves."""
    return np.array([np.bincount(reference_atoms(weights, row), minlength=len(weights))
                     for row in halves])


def atom_counts(weights, words: np.ndarray, draws: int) -> np.ndarray:
    """``_atom_counts`` over the estimator's own thresholds of ``weights``."""
    return _atom_counts(_thresholds(weights), len(weights), words, draws)


def boundary_rows(weights, rows: int | None = None, draws: int | None = None) -> np.ndarray:
    """``boundary_halves`` cut into ``rows`` rows or rows of ``draws`` draws, first rows first."""
    halves = boundary_halves(weights)
    if rows is None:
        return halves[:len(halves) // draws * draws].reshape(-1, draws)
    return halves[:len(halves) // rows * rows].reshape(rows, -1)


class TestAtomLookup:
    @pytest.mark.parametrize("weights", ATOM_WEIGHTS.values(), ids=ATOM_WEIGHTS.keys())
    def test_matches_float_searchsorted(self, weights):
        halves = boundary_halves(weights)[None, :]
        # One of the two counts is odd, its last draw a low half.
        for draws in (halves.shape[1], halves.shape[1] - 1):
            counts = atom_counts(weights, pack(halves[:, :draws]), draws)
            assert counts.dtype == np.int64 and counts.shape == (1, len(weights))
            assert np.array_equal(counts, reference_counts(weights, halves[:, :draws]))

    def test_boundary_halves_draw_the_atoms_on_either_side(self):
        # T_0 = 2**31 and T_1 = 2**31 + 1: the atom of weight 2**-40 takes one half.
        weights = ATOM_WEIGHTS["middle_atom_below_2_32"]
        assert thresholds(weights) == [2**31, 2**31 + 1]
        halves = np.array([[2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1]], dtype=np.uint64).T
        assert atom_counts(weights, pack(halves), 1).argmax(axis=1).tolist() == [0, 1, 2, 2]
        # A partial sum that rounds up to 2**32 leaves its next atom undrawn.
        weights = ATOM_WEIGHTS["last_atom_below_2_32"]
        assert thresholds(weights) == [2**31]
        assert atom_counts(weights, pack(halves), 1).argmax(axis=1).tolist() == [0, 1, 1, 1]

    @pytest.mark.parametrize("rows,draws", [
        pytest.param(2, None, id="2"), pytest.param(3, None, id="3"),
        pytest.param(64, None, id="64"), pytest.param(None, 2, id="2_draws"),
        pytest.param(None, 3, id="3_draws"), pytest.param(None, 40, id="40_draws"),
        pytest.param(None, 41, id="41_draws")])
    @pytest.mark.parametrize("weights", ATOM_WEIGHTS.values(), ids=ATOM_WEIGHTS.keys())
    def test_multi_row_counts_match_float_searchsorted(self, weights, rows, draws):
        # The boundary halves lead, so the first rows hold them all.
        halves = boundary_rows(weights, rows, draws)
        counts = atom_counts(weights, pack(halves), halves.shape[1])
        assert np.array_equal(counts, reference_counts(weights, halves))

    def test_block_sums_match_stream_reconstruction_off_axis(self):
        # Three distinct nonzero per-atom products, so both atom boundaries show.
        model = unbounded_spin_model()
        d = UnitVector3(0.48, 0.6, 0.64)
        seed = 31
        per_atom = reference_products(model, d, d)
        assert len(set(per_atom.tolist())) == 3 and np.all(per_atom != 0.0)
        # The finite sampler of the row; its tiles read neither features nor n.
        phi = np.array([model.response1.features(d)])
        sampler = estimator._SAMPLERS[SpaceKind.FINITE](model, phi, phi, BLOCK_DRAWS)
        # Block b's draws are halves of words b * BLOCK_DRAWS / 2 on; a row's
        # last block may have an odd count.
        for start, count in ((0, BLOCK_DRAWS), (BLOCK_DRAWS, BLOCK_DRAWS),
                             (40 * BLOCK_DRAWS, BLOCK_DRAWS - 3)):
            words = np.random.Philox(key=seed).random_raw((start + count + 1) // 2)[start // 2:]
            atoms = reference_atoms(model.space.weights, draw_halves(seed, start + count)[start:])
            counts = _tile_stats(sampler, words[None, :], count, slice(0, 1), None)
            assert np.array_equal(counts, [np.bincount(atoms, minlength=3)])
            # The counts are the block's x = per_atom[atoms], grouped by value.
            assert counts[0] @ per_atom == pytest.approx(np.sum(per_atom[atoms]), rel=1e-12)

    # Rows of 15, 16 and 17 draws straddle the former cutoff below which
    # multi-row tiles were binary-searched, in odd and even counts.
    @pytest.mark.parametrize("words_per_row", [15, 16, 17])
    @pytest.mark.parametrize("weights", [ATOM_WEIGHTS["thirds"], ATOM_WEIGHTS["counted_cutoff"],
                                         ATOM_WEIGHTS["cumsum_just_below_one"]],
                             ids=["thirds", "counted_cutoff", "cumsum_just_below_one"])
    def test_searched_and_counted_rows_agree_at_the_row_cutoff(self, weights, words_per_row):
        halves = boundary_rows(weights, draws=words_per_row)
        counts = atom_counts(weights, pack(halves), words_per_row)
        assert np.array_equal(counts, reference_counts(weights, halves))


PHILOX_KEYS = [0, 1, 1 << 63, (1 << 64) - 1,
               *(int(k) for k in np.random.default_rng(6).integers(0, 1 << 64, 12,
                                                                 dtype=np.uint64))]


class TestPhiloxWords:
    @pytest.mark.parametrize("k1", [0, 1, (1 << 64) - 1])
    def test_matches_numpy_philox_at_every_row_length(self, k1):
        # Every word count a batched row can have, 4-aligned or not.
        k0 = np.array(PHILOX_KEYS, dtype=np.uint64)[:, None]
        k1s = np.full_like(k0, k1)
        ref = np.array([np.random.Philox(key=k + (k1 << 64)).random_raw(BATCH_ROW_WORDS)
                        for k in PHILOX_KEYS])
        for n_words in range(1, BATCH_ROW_WORDS + 1):
            words = _philox_words(k0, k1s, n_words)
            assert words.flags.c_contiguous
            assert np.array_equal(words, ref[:, :n_words]), n_words

    def test_one_key(self):
        k = np.array([[(1 << 64) - 1]], dtype=np.uint64)
        assert np.array_equal(_philox_words(k, np.zeros_like(k), 9)[0],
                              np.random.Philox(key=(1 << 64) - 1).random_raw(9))


class TestBatchCutoff:
    """``BATCH_ROW_WORDS`` counts Philox words a row, ceil(n / 2) in both sample spaces."""

    @pytest.mark.parametrize("name,n,batched", [
        (name, 2 * BATCH_ROW_WORDS + offset, offset <= 0)
        for name in ("spin", "gauss") for offset in (-1, 0, 1)])
    def test_batched_and_one_row_tiles_give_the_same_bits(self, monkeypatch, name, n, batched):
        rows = range(32)
        if name == "spin":
            model, s1 = unbounded_spin_model(), Z_AXIS
            settings = [UnitVector3(math.sin(t), 0.0, math.cos(t)) for t in rows]
        else:
            model, s1 = quadrature_model(extract_moments(tmsv(0.8))), QuadratureSetting(0.0)
            settings = [QuadratureSetting(0.1 * i) for i in rows]
        keys = [(i << 64) + 3 for i in rows]
        # The reference rows are drawn in one-row tiles from numpy's generator.
        with one_row_tiles():
            want = [mc_estimate(model, s1, s2, n, key) for s2, key in zip(settings, keys)]
        calls = []
        philox_words = estimator._philox_words
        monkeypatch.setattr(estimator, "_philox_words",
                            lambda *args: calls.append(args) or philox_words(*args))
        assert mc_estimate_rows(model, [s1] * len(rows), settings, n, keys, workers=2) == want
        assert bool(calls) == batched
        if batched:
            assert {args[2] for args in calls} == {-(-n // 2)}


class TestMcEstimateRows:
    def test_rejects_unaligned_rows(self):
        with pytest.raises(ValidationError, match="differ in length"):
            mc_estimate_rows(unbounded_spin_model(), [Z_AXIS, Z_AXIS], [Z_AXIS], 10, [1, 2])
        with pytest.raises(ValidationError, match="differ in length"):
            mc_estimate_rows(unbounded_spin_model(), [Z_AXIS], [Z_AXIS], 10, [1, 2])

    @pytest.mark.parametrize("rows", [1, 40])
    @pytest.mark.parametrize("n,keys", [(1, None), (10, -1), (10, 1 << 128), (10, 1.0)])
    def test_rejects_bad_sample_counts_and_keys(self, rows, n, keys):
        keys = [7] * (rows - 1) + [keys if keys is not None else 7]
        with pytest.raises(ValidationError):
            mc_estimate_rows(unbounded_spin_model(), [Z_AXIS] * rows, [Z_AXIS] * rows, n, keys)

    def test_no_rows(self):
        assert mc_estimate_rows(unbounded_spin_model(), [], [], 10, []) == []

    # One row of one block would start no thread at any worker count, so
    # these calls show that the count is checked up front, not by a pool.
    @pytest.mark.parametrize("workers", [0, -3, 2.5, True])
    def test_rejects_bad_worker_counts(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            mc_estimate_rows(unbounded_spin_model(), [Z_AXIS], [Z_AXIS], 10, [7],
                             workers=workers)
        with pytest.raises(ValidationError, match="workers"):
            mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 10, 7, workers=workers)

    @pytest.mark.parametrize("workers", [MAX_WORKERS + 1, 10**9, 2**63])
    def test_rejects_worker_counts_above_the_cap_before_any_thread(self, monkeypatch, workers):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        # Three rows of 16 blocks each: 48 tiles, so threads would start.
        with pytest.raises(ValidationError, match="workers"):
            mc_estimate_rows(unbounded_spin_model(), [Z_AXIS] * 3, [Z_AXIS] * 3,
                             16 * BLOCK_DRAWS, [1, 2, 3], workers=workers)

    @pytest.mark.parametrize("rows", [3, 40])
    def test_rejects_more_draws_than_the_cap_before_drawing(self, monkeypatch, rows):
        def no_words(*args):
            raise AssertionError("words were drawn")

        monkeypatch.setattr(estimator, "MAX_DRAWS", 10 * rows)
        model, keys = unbounded_spin_model(), list(range(rows))
        assert len(mc_estimate_rows(model, [Z_AXIS] * rows, [Z_AXIS] * rows, 10, keys)) == rows
        monkeypatch.setattr(estimator, "_raw_words", no_words)
        monkeypatch.setattr(estimator, "_philox_words", no_words)
        with pytest.raises(ValidationError, match=f"{rows} rows of 11 samples ask for {11 * rows} "
                                                  f"draws, more than MAX_DRAWS = {10 * rows}"):
            mc_estimate_rows(model, [Z_AXIS] * rows, [Z_AXIS] * rows, 11, keys)

    @pytest.mark.usefixtures("one_row_tiles")
    def test_accepts_the_cap(self):
        # Three one-block rows, drawn as one-row tiles, start two helper
        # threads whatever the cap.
        rows = mc_estimate_rows(unbounded_spin_model(), [Z_AXIS] * 3, [Z_AXIS] * 3, 10,
                                [1, 2, 3], workers=MAX_WORKERS)
        assert rows == [mc_estimate(unbounded_spin_model(), Z_AXIS, Z_AXIS, 10, key)
                        for key in (1, 2, 3)]

    # Integers past Python's 4300-digit limit on str(int), where repr raises
    # ValueError, print as power-of-two bounds; other values as their type.
    @pytest.mark.parametrize("n, keys, workers, message", [
        (9 * 10**4299, list(range(11)), 1,
         f"11 rows of {9 * 10**4299} samples ask for at least 2**{(99 * 10**4299).bit_length() - 1} "
         f"draws, more than MAX_DRAWS = {estimator.MAX_DRAWS}"),
        (10**5000, [1], 1, f"1 rows of at least 2**{HUGE_BITS} samples ask for at least "
                           f"2**{HUGE_BITS} draws, more than MAX_DRAWS = {estimator.MAX_DRAWS}"),
        (-10**5000, [1], 1, f"sample count must be an integer >= 2, got at most -2**{HUGE_BITS}"),
        (10, [10**5000], 1,
         f"stream key must be a 128-bit unsigned integer, got at least 2**{HUGE_BITS}"),
        (10, [-10**5000], 1,
         f"stream key must be a 128-bit unsigned integer, got at most -2**{HUGE_BITS}"),
        (10, [[10**5000]], 1, "stream key must be a 128-bit unsigned integer, "
                              "got a list too long to print"),
        (10, [1], 10**5000,
         f"workers must be an integer in [1, {MAX_WORKERS}], got at least 2**{HUGE_BITS}"),
    ], ids=["draws", "samples", "negative_samples", "key", "negative_key", "listed_key",
            "workers"])
    def test_rejects_integers_past_the_digit_limit(self, n, keys, workers, message):
        rows = len(keys)
        with pytest.raises(ValidationError) as excinfo:
            mc_estimate_rows(unbounded_spin_model(), [Z_AXIS] * rows, [Z_AXIS] * rows, n, keys,
                             workers=workers)
        assert str(excinfo.value) == message


class TestCalibration:
    @pytest.mark.parametrize("model,s1,s2", builtin_cases())
    def test_three_sigma_consistency(self, model, s1, s2):
        exact = exact_expectation(model, s1, s2)
        misses = 0
        for seed in SEEDS:
            est = mc_estimate(model, s1, s2, 100_000, seed)
            if abs(est.mean - exact) > 3.0 * est.stderr:
                misses += 1
        assert misses <= 1

    def test_stderr_scales_as_inverse_sqrt_n(self):
        model = unbounded_spin_model()
        b = UnitVector3(math.sin(0.8), 0.0, math.cos(0.8))
        small = np.mean([mc_estimate(model, Z_AXIS, b, 1_000, s).stderr for s in SEEDS])
        large = np.mean([mc_estimate(model, Z_AXIS, b, 100_000, s).stderr for s in SEEDS])
        ratio = small / large
        assert 10.0 * 0.8 <= ratio <= 10.0 * 1.2


class TestCompare:
    def test_exact_match_with_zero_stderr(self):
        s = QuadratureSetting(0.0)
        est = mc_estimate(constant_model(), s, s, 100, 3)
        report = compare(1.0, est)
        assert report.z_score == 0.0
        assert not report.inconsistent

    def test_mismatch_with_zero_stderr_is_flagged(self):
        s = QuadratureSetting(0.0)
        est = mc_estimate(constant_model(), s, s, 100, 3)
        report = compare(0.5, est)
        assert report.inconsistent
        assert math.isinf(report.z_score)

    def test_plain_z_scores(self):
        from eprlab import CorrelationEstimate

        est = CorrelationEstimate(mean=0.02, stderr=0.01, n=100, key=0)
        assert abs(compare(0.0, est).z_score - 2.0) < 1e-12
        est = CorrelationEstimate(mean=-1.003, stderr=0.001, n=100, key=0)
        assert abs(compare(-1.0, est).z_score - (-3.0)) < 1e-9


def reference_row(sums, squares, n, exact):
    """One row's mean, stderr and z, reduced the per-row way on Python floats."""
    def in_order(values):
        total = 0.0
        for v in values:
            total += v
        return total

    mean = in_order(sums) / n
    var = max(in_order(squares) - n * mean * mean, 0.0) / (n - 1)
    stderr = math.sqrt(var / n)
    if stderr == 0.0:
        z = 0.0 if mean == exact else math.copysign(math.inf, mean - exact)
    else:
        z = (mean - exact) / stderr
    return mean, stderr, z


#: (block sums of x, block sums of x * x, exact value) of Gaussian rows of
#: three blocks of four draws each.
REDUCTION_ROWS = [
    ([6.0, 6.0, 6.0], [9.0, 9.0, 9.0], 1.5),  # x = 1.5 throughout: stderr 0, z 0
    ([6.0, 6.0, 6.0], [9.0, 9.0, 9.0], 1.0),  # stderr 0 and mean above exact: z +inf
    ([6.0, 6.0, 6.0], [9.0, 9.0, 9.0], 2.0),  # stderr 0 and mean below exact: z -inf
    ([3.0, 3.0, 3.0], [1.0, 1.0, 1.0], 0.75),  # squares below n mean**2: variance clamps to 0
    ([-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], -0.0),  # products of -0.0
    ([-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], 0.0),
    ([1e308, 1e308, 0.0], [math.inf, math.inf, 0.0], 0.0),  # finite blocks, total overflows
    ([math.inf, 1.0, 2.0], [math.inf, 1.0, 2.0], 0.0),
    ([math.inf, -math.inf, 0.0], [math.inf, math.inf, 0.0], 0.0),  # inf - inf
    ([math.nan, 1.0, 2.0], [math.nan, 1.0, 2.0], 0.0),
    ([4e-160, 4e-160, 4e-160], [1e-300, 0.0, 0.0], -1e300),  # z overflows at finite stderr
    ([0.5, -1.25, 3.0], [2.0, 1.5, 4.75], 0.1),
    ([0.5, -1.25, 3.0], [2.0, 1.5, 4.75], 0.125),
]


# One-row tiles, one per block of a row, as rows too long to batch are cut.
@pytest.mark.usefixtures("one_row_tiles")
def test_array_reduction_and_z_scores_equal_the_per_row_reference(monkeypatch):
    # Each tile's sums are replaced by the rows' crafted block sums, in tile order.
    blocks = iter([np.array([[x, xx]]) for sums, squares, _ in REDUCTION_ROWS
                   for x, xx in zip(sums, squares)])
    monkeypatch.setattr(estimator, "BLOCK_DRAWS", 4)
    monkeypatch.setattr(estimator, "_tile_stats", lambda *args: next(blocks))
    # Block b of four draws would start at word 2 b, inside a Philox output
    # of four words; the stub's words are never read.
    monkeypatch.setattr(estimator, "_raw_words", lambda bg, key, offset, n_words:
                        np.zeros(n_words, dtype=np.uint64))
    rows, n = len(REDUCTION_ROWS), 12
    s = QuadratureSetting(0.0)
    # Features (1, 0) at both parties: s = 1, so the sums of y are those of x.
    estimates = mc_estimate_rows(pair_model((1.0, 0.0), (1.0, 0.0)), [s] * rows, [s] * rows, n,
                                 list(range(rows)))
    assert next(blocks, None) is None
    exact = np.array([row[2] for row in REDUCTION_ROWS])
    z, inconsistent = estimator._z_scores(exact, np.array([e.mean for e in estimates]),
                                          np.array([e.stderr for e in estimates]))
    for i, (sums, squares, value) in enumerate(REDUCTION_ROWS):
        want = [v.hex() for v in reference_row(sums, squares, n, value)]
        est = estimates[i]
        assert [est.mean.hex(), est.stderr.hex(), float(z[i]).hex()] == want, i
        report = compare(value, est)
        assert report.z_score.hex() == want[2], i
        assert report.inconsistent == inconsistent[i] == (est.stderr == 0.0 and est.mean != value)


def test_every_sample_space_has_a_sampler():
    # A space added without a sampler fails here, not with a KeyError midway through a run.
    assert set(estimator._SAMPLERS) == set(SpaceKind)
