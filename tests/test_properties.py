"""Property-based checks of the representation theorem, angle periodicity,
the row-batched Monte Carlo estimator, the CLI's CHSH values and its
handling of malformed scenarios."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from eprlab import (
    ChshSettings,
    HiddenVariableModel,
    MomentMatrix,
    QuadratureSetting,
    SampleSpace,
    TabulatedResponse,
    TimeSetting,
    UnitVector3,
    chsh_value,
    cli,
    estimator,
    exact_expectation,
    extract_moments,
    free_evolution_correlation,
    free_evolution_model,
    mc_estimate,
    mc_estimate_rows,
    quadrature_correlation,
    quadrature_model,
    spin_correlation,
    tmsv,
    unbounded_spin_model,
)
from conftest import DRAWS_PER_WORD, draw_halves, one_row_tiles, reference_atoms
from eprlab.estimator import BATCH_ROW_WORDS, BLOCK_DRAWS

# Fixed example sequence and no example database, so every run checks the same inputs.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Any finite moment small enough that products with the settings stay finite.
MOMENT = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
MOMENTS = st.builds(MomentMatrix, qq=MOMENT, pq=MOMENT, qp=MOMENT, pp=MOMENT)
ANGLE = st.floats(min_value=-1e3, max_value=1e3)
TIME = st.floats(min_value=-1e3, max_value=1e3)
# Angles on a 2**-40 grid inside [-16, 16]: tau's lowest set bit is 2**-47, so
# alpha + tau stays below 32 and is computed exactly.
GRID_ANGLE = st.floats(min_value=-16.0, max_value=16.0).map(
    lambda x: round(x * 2.0**40) / 2.0**40)

# The model and the correlator expand one bilinear form in different orders;
# they differ only by a few roundings of the largest term. The absolute floor
# covers subnormal moments.
REL_TOL = 1e-14
ABS_TOL = 1e-300


def _moment_scale(m: MomentMatrix) -> float:
    return abs(m.qq) + abs(m.pq) + abs(m.qp) + abs(m.pp)


@PROPERTY
@given(MOMENTS, ANGLE, ANGLE)
def test_quadrature_model_reproduces_correlator(m, alpha1, alpha2):
    a1, a2 = QuadratureSetting(alpha1), QuadratureSetting(alpha2)
    diff = exact_expectation(quadrature_model(m), a1, a2) - quadrature_correlation(m, a1, a2)
    assert abs(diff) <= REL_TOL * _moment_scale(m) + ABS_TOL


@PROPERTY
@given(MOMENTS, TIME, TIME)
def test_free_evolution_model_reproduces_correlator(m, t1, t2):
    s1, s2 = TimeSetting(t1), TimeSetting(t2)
    diff = exact_expectation(free_evolution_model(m), s1, s2) - \
        free_evolution_correlation(m, s1, s2)
    scale = _moment_scale(m) * (1.0 + abs(t1)) * (1.0 + abs(t2))
    assert abs(diff) <= REL_TOL * scale + ABS_TOL


@PROPERTY
@given(MOMENTS, GRID_ANGLE, ANGLE)
def test_quadrature_values_are_two_pi_periodic(m, alpha, other):
    base, shifted = QuadratureSetting(alpha), QuadratureSetting(alpha + math.tau)
    b = QuadratureSetting(other)
    model = quadrature_model(m)
    assert shifted.alpha == base.alpha
    assert quadrature_correlation(m, shifted, b) == quadrature_correlation(m, base, b)
    assert exact_expectation(model, shifted, b) == exact_expectation(model, base, b)
    assert exact_expectation(model, b, shifted) == exact_expectation(model, b, base)


#: Doubles with the edge cases of the closed forms: signed zeros, subnormals,
#: and +-1e300, whose products overflow to +-inf and then to NaN.
EDGE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]),
                 st.floats(allow_nan=False, allow_infinity=False))
EDGE_MOMENTS = st.builds(MomentMatrix, qq=EDGE, pq=EDGE, qp=EDGE, pp=EDGE)
EDGE_ROWS = st.lists(st.tuples(EDGE, EDGE, EDGE, EDGE), min_size=1, max_size=6)


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@PROPERTY
@given(m=EDGE_MOMENTS, rows=EDGE_ROWS)
@example(m=MomentMatrix(qq=1e300, pq=-1e300, qp=0.0, pp=-0.0),
         rows=[(1e300, 0.0, -0.0, 5e-324), (-0.0, 1e300, 1e300, -1e300)])
def test_quantum_rows_equal_the_one_pair_correlators(m, rows):
    """The kinds' quantum rows, from the shared signed terms, equal
    ``quadrature_correlation`` and ``free_evolution_correlation`` bit for bit."""
    angles = [(QuadratureSetting(a1), QuadratureSetting(a2)) for a1, _, a2, _ in rows]
    times = [(TimeSetting(t1), TimeSetting(t2)) for _, t1, _, t2 in rows]
    quadrature, free = cli._KINDS["EPR_QUADRATURE"], cli._KINDS["FREE_EVOLUTION"]
    with np.errstate(all="ignore"):
        quantum, _ = quadrature.quantum_rows(
            m, np.array([quadrature.columns(a1) for a1, _ in angles]),
            np.array([quadrature.columns(a2) for _, a2 in angles]))
        one_pair = [quadrature_correlation(m, a1, a2) for a1, a2 in angles]
        time_quantum, _ = free.quantum_rows(m, np.array([free.columns(t1) for t1, _ in times]),
                                            np.array([free.columns(t2) for _, t2 in times]))
        time_one_pair = [free_evolution_correlation(m, t1, t2) for t1, t2 in times]
    assert _bits(quantum) == _bits(one_pair)
    assert _bits(time_quantum) == _bits(time_one_pair)


@PROPERTY
@given(m=EDGE_MOMENTS, rows=EDGE_ROWS)
@example(m=MomentMatrix(qq=1e300, pq=-1e300, qp=0.0, pp=-0.0),
         rows=[(1e300, 0.0, -0.0, 5e-324), (-0.0, 1e300, 1e300, -1e300)])
@example(m=MomentMatrix(qq=-0.0, pq=0.0, qp=-0.0, pp=5e-324),
         rows=[(-0.0, -0.0, 0.0, -5e-324), (1e-310, -1e-310, 1e-310, 1e-310)])
# (pq * sin1) * cos2 = inf * 0.0: a NaN term that is subtracted.
@example(m=MomentMatrix(qq=1.0, pq=1e300, qp=0.0, pp=0.0), rows=[(1.0, 1e300, 0.0, 0.0)])
def test_closed_form_rows_equal_the_terms_written_out(m, rows):
    """Quantum values and magnitudes from the shared signed terms equal the
    closed forms written out term by term, bit for bit, at any columns.

    One exception is allowed: where a negated term is NaN, x - y keeps the
    NaN's sign and x + (-y) flips it. The NaN is compared as NaN; the CSV
    prints either as nan, and no NaN reaches an output (``cli._check_finite``).
    """
    cos1, sin1, cos2, sin2 = (np.array(column) for column in zip(*rows))
    t1, t2 = sin1, sin2
    with np.errstate(all="ignore"):
        quantum, magnitude = cli._KINDS["EPR_QUADRATURE"].quantum_rows(
            m, np.stack([cos1, sin1], axis=1), np.stack([cos2, sin2], axis=1))
        want = m.qq * cos1 * cos2 - m.pq * sin1 * cos2 - m.qp * cos1 * sin2 + m.pp * sin1 * sin2
        want_magnitude = (abs(m.qq * cos1 * cos2) + abs(m.pq * sin1 * cos2)
                          + abs(m.qp * cos1 * sin2) + abs(m.pp * sin1 * sin2))
        time_quantum, time_magnitude = cli._KINDS["FREE_EVOLUTION"].quantum_rows(
            m, t1[:, None], t2[:, None])
        time_want = m.qq + m.pq * t1 + m.qp * t2 + m.pp * (t1 * t2)
        time_want_magnitude = abs(m.qq) + abs(m.pq * t1) + abs(m.qp * t2) + abs(m.pp * (t1 * t2))
    nan_as_nan = lambda v: np.where(np.isnan(v), np.nan, v)
    assert _bits(nan_as_nan(quantum)) == _bits(nan_as_nan(want))
    assert _bits(magnitude) == _bits(want_magnitude)
    assert _bits(time_quantum) == _bits(time_want)
    assert _bits(time_magnitude) == _bits(time_want_magnitude)


def _tabulated_model(n_atoms: int) -> tuple[HiddenVariableModel, list]:
    rng = np.random.default_rng(8)
    raw = rng.random(n_atoms)
    raw[::7] = 0.0
    settings_ = [QuadratureSetting(0.1 * i) for i in range(6)]
    values = rng.normal(size=(len(settings_), n_atoms)).tolist()
    # Setting 0 against setting 1: every per-atom product is -0.0.
    values[0] = [-1.0] * n_atoms
    values[1] = [0.0] * n_atoms
    model = HiddenVariableModel(
        space=SampleSpace.finite(tuple(float(w) for w in raw / raw.sum())),
        response1=TabulatedResponse(tuple(settings_), tuple(map(tuple, values))),
        response2=TabulatedResponse(tuple(settings_), tuple(map(tuple, values))),
    )
    return model, settings_


def _directions() -> list:
    # Directions 0 and 1 give per-atom products (-0.0, -0.0, -0.0).
    out = [UnitVector3(-1.0, 0.0, -0.0), UnitVector3(0.0, -1.0, 0.0)]
    return out + [UnitVector3(math.sin(t), 0.0, math.cos(t)) for t in (0.3, 1.9, 4.0, -2.2)]


#: name -> (model, setting pool); pool[0] against pool[1] is the signed-zero row.
ROW_MODELS = {
    "spin": (unbounded_spin_model(), _directions()),
    "quadrature": (quadrature_model(extract_moments(tmsv(0.7))),
                   [QuadratureSetting(a) for a in (0.0, -0.0, 0.4, 1.7, -2.9, 3.1)]),
    "free_evolution": (free_evolution_model(MomentMatrix(qq=0.3, pq=0.7, qp=-0.23, pp=1.1)),
                       [TimeSetting(t) for t in (0.0, -0.0, 0.5, -1.5, 20.0, -300.0)]),
    "tabulated": _tabulated_model(40),
}
ROW_SAMPLES = sorted({2, 3, BATCH_ROW_WORDS // 2, BATCH_ROW_WORDS // 2 + 1,
                      BATCH_ROW_WORDS, BATCH_ROW_WORDS + 1, 2 * BATCH_ROW_WORDS,
                      2 * BATCH_ROW_WORDS + 1, 4 * BATCH_ROW_WORDS, 4 * BATCH_ROW_WORDS + 1,
                      BLOCK_DRAWS + 1})
ROW_COUNTS = (1, 31, 32, 41)
KEY = st.integers(min_value=0, max_value=(1 << 128) - 1)


def _recorder(fn, calls: list):
    """``fn``, appending each call's arguments to ``calls``.

    list.append is atomic, so calls from several worker threads are all
    kept, as a Mock's call count need not.
    """
    def record(*args):
        calls.append(args)
        return fn(*args)
    return record


def _fingerprint(est) -> tuple:
    # float.hex tells -0.0 from 0.0, which == does not.
    return est.mean.hex(), est.stderr.hex(), est.n, est.key


#: Every phase but shrinking. Shrinking and the explain phase that runs after
#: it took about 35 s for each failing case of the property below, 30 s of
#: that explaining, where a kernel broken for multi-row tiles fails 27 of
#: the 36 cases. The first failing example is reported as found.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@pytest.mark.parametrize("n", ROW_SAMPLES)
@pytest.mark.parametrize("name", sorted(ROW_MODELS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
@given(data=st.data())
def test_row_estimates_equal_per_row_estimates(name, n, data):
    model, pool = ROW_MODELS[name]
    rows = data.draw(st.sampled_from(ROW_COUNTS), label="rows")
    if n > BLOCK_DRAWS:
        # Multi-block rows; n = 2 * BATCH_ROW_WORDS + 1 (finite) and
        # 4 * BATCH_ROW_WORDS + 1 (Gaussian) already route many long rows.
        rows = min(rows, 2)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                         st.integers(0, len(pool) - 1)),
                               min_size=rows, max_size=rows), label="pairs")
    if data.draw(st.booleans(), label="signed_zero_row"):
        pairs[0] = (0, 1)
    keys = data.draw(st.lists(KEY, min_size=rows, max_size=rows), label="keys")
    # A finite draw takes half a Philox word, a Gaussian one a quarter.
    row_words = -(-n // DRAWS_PER_WORD[model.space.kind])
    batched = row_words <= BATCH_ROW_WORDS
    # Smaller tiles split a batched chunk; rows drawn in blocks keep the real
    # block size, whose boundaries the per-row reference shares (a Gaussian
    # row's sums are added block by block, so other boundaries would add
    # them in another order).
    tile_draws = data.draw(st.sampled_from([BLOCK_DRAWS, 1, 3 * n, 11 * n]),
                           label="tile_draws") if batched else BLOCK_DRAWS
    workers = data.draw(st.sampled_from([1, 2]), label="workers")
    settings1 = [pool[i] for i, _ in pairs]
    settings2 = [pool[j] for _, j in pairs]

    tile_calls, block_calls = [], []
    tiles = mock.patch.object(estimator, "_philox_words",
                              _recorder(estimator._philox_words, tile_calls))
    blocks = mock.patch.object(estimator, "_raw_words",
                               _recorder(estimator._raw_words, block_calls))
    with mock.patch.object(estimator, "BLOCK_DRAWS", tile_draws), tiles, blocks:
        got = mc_estimate_rows(model, settings1, settings2, n, keys, workers=workers)
    # The reference draws each row alone, in one-row tiles from numpy's generator.
    with one_row_tiles():
        want = [mc_estimate(model, s1, s2, n, k) for s1, s2, k in zip(settings1, settings2, keys)]
    assert [_fingerprint(e) for e in got] == [_fingerprint(e) for e in want]

    if not batched:
        assert tile_calls == []
        # A tile draws its words in one call, one tile per block of each row.
        assert len(block_calls) == rows * -(-n // BLOCK_DRAWS)
        # The words drawn: ceil(n / 2) or ceil(n / 4) a row.
        assert sum(args[3] for args in block_calls) == rows * row_words
    else:
        assert block_calls == []
        sizes = [len(args[0]) for args in tile_calls]
        assert all(args[2] == row_words for args in tile_calls)
        assert sum(sizes) == rows and len(sizes) == -(-rows // max(1, tile_draws // n))
        # A tile holds at most BLOCK_DRAWS draws, unless one row alone has more.
        assert all(size * n <= tile_draws or size == 1 for size in sizes)
    if pairs[0] == (0, 1) and name in ("spin", "tabulated"):
        assert got[0].mean.hex() == "0x0.0p+0"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(atoms=st.integers(1, 40),
       n=st.one_of(st.integers(2, 3000), st.just(BLOCK_DRAWS + 5)),
       offset=st.sampled_from([0.0, -3e5, 1e8]), key=KEY, data=st.data())
def test_finite_mean_and_stderr_equal_a_two_pass_reference(atoms, n, offset, key, data):
    """Counts-based mean and stderr against two passes over the drawn x.

    The offset puts the products far from 0 with a spread of at most 20,
    where a variance from sums of x and x * x cancels.
    """
    raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=atoms, max_size=atoms)
                             .filter(lambda w: sum(w) > 0.0), label="raw_weights"))
    weights = tuple(float(w) for w in raw / raw.sum())
    values = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=atoms, max_size=atoms),
                       label="values")
    s = QuadratureSetting(0.0)
    model = HiddenVariableModel(
        space=SampleSpace.finite(weights),
        response1=TabulatedResponse((s,), (tuple(offset + v for v in values),)),
        response2=TabulatedResponse((s,), ((1.0,) * atoms,)),
    )
    est = mc_estimate(model, s, s, n, key)

    x = np.array(model.response1.values[0])[reference_atoms(weights, draw_halves(key, n))]
    mean = np.sum(x) / n
    stderr = math.sqrt(np.sum((x - mean) ** 2) / (n - 1) / n)
    # The absolute floors are the two-pass reference's own rounding of the
    # mean, for rows that drew one atom and have a stderr of 0.
    scale = float(np.max(np.abs(x)))
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=1e-14 * scale)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-14 * scale / math.sqrt(n))


# Weights of every size down to below 2**-32, and zeros.
RAW_WEIGHT = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 2.0**-30), st.just(0.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=st.lists(RAW_WEIGHT, min_size=1, max_size=40).filter(lambda w: sum(w) > 0.0))
def test_each_atom_takes_its_share_of_the_halves(raw):
    """Atom k takes the halves in [T_{k-1}, T_k), (T_k - T_{k-1}) / 2**32 of
    them, within 2**-31 of w_k. Checked at the thresholds, with T_k =
    ceil(cum_k * 2**32) by exact rationals and 2**32 where that is larger."""
    weights = tuple(float(w) for w in np.array(raw) / sum(raw))
    full = 2**32
    bounds = [min(math.ceil(Fraction(float(c)) * full), full)
              for c in np.cumsum(np.array(weights))[:-1]]
    # Each half h draws the atom #{k : T_k <= h}; the probes are the halves on
    # both sides of every threshold, and the extremes.
    probes = sorted({0, full - 1} | {h for t in bounds for h in (t - 1, t) if 0 <= h < full})
    words = np.array(probes, dtype=np.uint64)[:, None]
    drawn = estimator._atom_counts(estimator._thresholds(weights), len(weights), words,
                                   1).argmax(axis=1)
    assert drawn.tolist() == [sum(t <= h for t in bounds) for h in probes]
    edges = [0, *bounds, full]
    for k, w in enumerate(weights):
        assert abs(Fraction(edges[k + 1] - edges[k], full) - Fraction(w)) <= Fraction(1, 2**31)


SCENARIOS = Path(__file__).parent.parent / "scenarios"
#: JSON texts that replace one number of a bundled scenario: non-finite and
#: out-of-range numbers, a negative one, one past 64 bits, an integer of
#: 4300 digits (the most Python's decoder takes) and values of other types.
MALFORMED = ["Infinity", "-Infinity", "1e400", "1.7e308", "-1.7e308", "-1", str(2**64),
             "1" + "0" * 4299, '"x"', "null", "[]"]


def _number_paths(node, path=()) -> list[tuple]:
    """The key paths of every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) else []
    return [found for key, child in items for found in _number_paths(child, path + (key,))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_malformed_scenarios_exit_with_one_error_line(data):
    """One number of a bundled scenario replaced, at 100 samples: a settings
    number, ``samples``, ``seed``, the squeezing, a moment, a ``chsh``
    angle or a scan ``count``. The run ends with exit code 0, 1 or 2 and
    at most one ``error:`` line, with no exception and no warning."""
    name = data.draw(st.sampled_from(sorted(p.stem for p in SCENARIOS.glob("*.json"))),
                     label="scenario")
    document = json.loads((SCENARIOS / f"{name}.json").read_text())
    document["samples"] = 100
    path = data.draw(st.sampled_from(_number_paths(document)), label="path")
    text = data.draw(st.sampled_from(MALFORMED), label="value")
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "<malformed>"
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(document).replace('"<malformed>"', text))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = cli.main(["run", str(scenario), "--out-dir", str(Path(tmp) / "out")])
    assert status in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()


#: CHSH angles: signed zeros, multiples of pi/2 and any value of magnitude up to 1e6.
CHSH_ANGLE = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.integers(-8, 8).map(lambda k: k * (math.pi / 2)),
                       st.floats(min_value=-1e6, max_value=1e6))


@PROPERTY
@given(kind=st.sampled_from(["SPIN_CHSH", "EPR_QUADRATURE"]),
       angles=st.tuples(CHSH_ANGLE, CHSH_ANGLE, CHSH_ANGLE, CHSH_ANGLE),
       squeezing=st.floats(min_value=-3.0, max_value=3.0))
@example(kind="SPIN_CHSH", angles=(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4),
         squeezing=0.0)
@example(kind="SPIN_CHSH", angles=(-0.0, 1e6, -1e6, 0.0), squeezing=0.0)
@example(kind="EPR_QUADRATURE", angles=(-0.0, math.pi / 2, -math.pi / 4, -3 * math.pi / 4),
         squeezing=1.0)
@example(kind="EPR_QUADRATURE", angles=(1e6, -0.0, 3 * (math.pi / 2), -1e6), squeezing=-3.0)
def test_cli_chsh_values_equal_the_one_pair_sums(kind, angles, squeezing):
    """A run's ``chsh_quantum`` and ``chsh_lhv_exact``, four rows of its chunk
    evaluator, equal ``chsh_value`` over the one-pair correlator and over
    ``exact_expectation`` bit for bit."""
    document = {"kind": kind, "name": "chsh", "settings": {"pairs": [[angles[0], angles[2]]]},
                "samples": 2, "seed": 1, "chsh": dict(zip(("a", "a_prime", "b", "b_prime"),
                                                          angles))}
    if kind == "SPIN_CHSH":
        model = unbounded_spin_model()
        chsh = ChshSettings(*(UnitVector3(math.sin(x), 0.0, math.cos(x)) for x in angles))
        quantum = chsh_value(spin_correlation, chsh)
    else:
        document["state"] = {"squeezing": squeezing}
        m = extract_moments(tmsv(squeezing))
        model = quadrature_model(m)
        chsh = ChshSettings(*(QuadratureSetting(x) for x in angles))
        quantum = chsh_value(lambda s1, s2: quadrature_correlation(m, s1, s2), chsh)
    exact = chsh_value(lambda s1, s2: exact_expectation(model, s1, s2), chsh)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(document))
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["run", str(scenario), "--out-dir", tmp, "--workers", "1"])
        summary = json.loads((Path(tmp) / "chsh.summary.json").read_text())
    assert status == 0
    assert summary["chsh_quantum"].hex() == quantum.hex()
    assert summary["chsh_lhv_exact"].hex() == exact.hex()


#: Numbers a scenario document may hold: mostly modest doubles, and any
#: double (json.dumps writes the non-finite ones as NaN and Infinity, which
#: the decoder takes), integers past 64 bits and values at the edges of the
#: checks.
MODEST = st.floats(min_value=-10.0, max_value=10.0)
JSON_NUMBER = st.one_of(
    MODEST, MODEST, MODEST, st.floats(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, 2, -1, -0.0, 1e-320, 1.7e308, -1.7e308, 2**64 - 1, 2**64]),
)
JSON_LEAF = st.one_of(st.none(), st.booleans(), JSON_NUMBER, st.text(max_size=8))
#: Any small JSON value.
JSON_ANY = st.recursive(JSON_LEAF, lambda children: st.one_of(
    st.lists(children, max_size=3), st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)


def _one_in(n: int):
    """True one time in ``n``. (Hypothesis draws the ends of an integer range
    far more often than their share, so a list is sampled instead.)"""
    return st.sampled_from([False] * (n - 1) + [True])


def _mostly(strategy, other=JSON_ANY):
    """A value of ``strategy``, and one time in ten one of ``other`` in its place."""
    return _one_in(10).flatmap(lambda rare: other if rare else strategy)


def _count(low: int, high: int, bad: list):
    """An integer in [low, high], now and then one of ``bad``, and rarely any JSON value."""
    return _mostly(_mostly(st.integers(min_value=low, max_value=high), st.sampled_from(bad)))


NUMBER = _mostly(JSON_NUMBER)
AXIS = _mostly(st.one_of(
    st.fixed_dictionaries({"value": NUMBER}),
    st.fixed_dictionaries({"start": NUMBER, "stop": NUMBER,
                           "count": _count(2, 8, [0, 1, -1, 2.0])})))
SETTINGS = _mostly(st.one_of(
    st.fixed_dictionaries({"pairs": _mostly(_mostly(st.lists(
        _mostly(st.lists(NUMBER, min_size=2, max_size=2)), min_size=1, max_size=8),
        st.just([])))}),
    st.fixed_dictionaries({"setting1": AXIS, "setting2": AXIS})))
STATE = _mostly(st.one_of(
    st.fixed_dictionaries({"squeezing": NUMBER}),
    st.fixed_dictionaries({"moments": _mostly(st.fixed_dictionaries(
        {k: NUMBER for k in ("qq", "pq", "qp", "pp")}))})))
CHSH = _mostly(st.fixed_dictionaries({k: NUMBER for k in ("a", "a_prime", "b", "b_prime")}))
# Text with lone surrogates too, which the decoder takes from \ud800 escapes.
NAME = _mostly(st.one_of(
    st.sampled_from(["run", ".", "..", "a/b", ".hidden", "x" * 300, "\ud800", "\udc80"]),
    st.text(st.characters(exclude_categories=()), min_size=1, max_size=12)))


@st.composite
def _scenario_trees(draw) -> dict:
    """Scenario documents: mostly every key the kind needs, each value of its
    shape or now and then any JSON value; one time in ten a key left out, one
    in twenty a key the format does not know."""
    kind = draw(_mostly(st.sampled_from(cli.KINDS)))
    tree = {"kind": kind, "settings": draw(SETTINGS),
            "samples": draw(_count(2, 100, [0, 1, -1, 10.0])),
            "seed": draw(_count(0, 2**64 - 1, [-1, 2**64]))}
    if kind != "SPIN_CHSH" or draw(_one_in(10)):
        tree["state"] = draw(STATE)
    if draw(st.booleans()):
        tree["name"] = draw(NAME)
    if draw(st.booleans()):
        tree["chsh"] = draw(CHSH)
    if draw(_one_in(10)):
        del tree[draw(st.sampled_from(sorted(tree)))]
    if draw(_one_in(20)):
        tree[draw(st.text(max_size=6))] = draw(JSON_ANY)
    return tree


def _scenario_bytes():
    """Scenario files: random trees as JSON text, and raw byte strings."""
    return st.one_of(
        _scenario_trees().map(lambda tree: json.dumps(tree).encode()),
        _scenario_trees().map(lambda tree: json.dumps(tree, ensure_ascii=False)
                              .encode("utf-8", "surrogatepass")),
        st.binary(max_size=64),
    )


def _files_under(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")}


def _run_in(tmp: Path, content: bytes) -> tuple[int, str, list, set]:
    """``cli.main`` on ``content`` from inside ``tmp/cwd``, at one worker: the exit
    code, stderr, the warnings raised and the files made outside ``tmp/out``."""
    scenario, cwd = tmp / "scenario.json", tmp / "cwd"
    scenario.write_bytes(content)
    cwd.mkdir()
    before = _files_under(tmp)
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = cli.main(["run", str(scenario), "--out-dir", str(tmp / "out"),
                               "--workers", "1"])
    finally:
        os.chdir(previous)
    made = {p for p in _files_under(tmp) - before if p.parts[0] != "out"}
    return status, err.getvalue(), caught, made


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(content=_scenario_bytes())
@example(content=json.dumps({"kind": "SPIN_CHSH", "name": "\ud800", "samples": 10, "seed": 0,
                             "settings": {"pairs": [[0.0, 0.0]]}}).encode())
def test_random_scenario_files_exit_with_one_error_line(content):
    """Random JSON trees over the scenario keys (scan axes of at most 8
    values, at most 100 samples) and raw bytes, run through ``cli.main``:
    exit code 0, 1 or 2, stderr empty or one ``error:`` line with no
    traceback and no warning, nothing written outside ``--out-dir``, and
    every ``summary.json`` standard JSON but for ``max_abs_z`` (see
    ``test_zero_stderr_grid_summary_is_standard_json``)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        status, err, caught, made = _run_in(tmp, content)
        summaries = [p.read_text() for p in (tmp / "out").glob("*.summary.json")]
    assert status in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    lines = err.splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines
    assert "Traceback" not in err and "Warning" not in err
    assert not made, made
    for text in summaries:
        summary = json.loads(text, parse_constant=lambda constant: constant)
        assert all(isinstance(v, (bool, str, type(None))) or math.isfinite(v)
                   for k, v in summary.items() if k != "max_abs_z"), summary


@pytest.mark.xfail(strict=True, reason="a row at 2 samples with stderr 0 and a mean off the "
                                       "exact value has z = +-inf, written as \"max_abs_z\": "
                                       "Infinity; a standard-JSON sentinel needs the "
                                       "benchmark's perfbench/checks.py to read it too")
def test_zero_stderr_grid_summary_is_standard_json():
    document = {"kind": "SPIN_CHSH", "name": "grid",
                "settings": {"setting1": {"start": 0.0, "stop": 3.0, "count": 9},
                             "setting2": {"start": -1.0, "stop": 2.0, "count": 9}},
                "samples": 2, "seed": 11}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        status, err, _, _ = _run_in(tmp, json.dumps(document).encode())
        text = (tmp / "out" / "grid.summary.json").read_text()
    assert (status, err) == (0, "")

    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")
    json.loads(text, parse_constant=reject)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_a_failing_property_is_reported_not_an_internal_error(tmp_path):
    # Hypothesis's failure report imports libcst, which warns a deprecation;
    # under the project's warning filters that ended the run with exit code
    # 3 and an INTERNALERROR, losing the falsifying example.
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "-c", str(config), "--rootdir", str(tmp_path), "test_failing.py"],
                            cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout


#: A pytest plugin that breaks the Monte Carlo kernel in the process that
#: loads it: a tile of two or more rows adds one to every statistic.
BREAK_TILES = '''
from eprlab import estimator

_tile_stats = estimator._tile_stats
estimator._tile_stats = lambda sampler, words, *args: (
    _tile_stats(sampler, words, *args) + (len(words) > 1))
'''
#: Seconds within which the row property's two n = 2 cases report a broken
#: kernel. Without shrinking the child took 2-3 s, with it 75 s (2-vCPU
#: x86-64 host).
ROW_FAILURE_REPORT_S = 60


def test_a_broken_kernel_fails_the_row_property_within_a_bound(tmp_path):
    (tmp_path / "break_tiles.py").write_text(BREAK_TILES)
    root = Path(__file__).resolve().parent.parent
    path = [str(tmp_path), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    cases = [f"tests/test_properties.py::test_row_estimates_equal_per_row_estimates[{name}-2]"
             for name in ("spin", "quadrature")]
    # A child that runs past the bound is killed, and TimeoutExpired fails this test.
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "-p", "break_tiles", *cases],
                            cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                            capture_output=True, text=True, timeout=ROW_FAILURE_REPORT_S)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.count(
        "Falsifying example: test_row_estimates_equal_per_row_estimates(") == 2, result.stdout
