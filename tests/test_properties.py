"""Property-based checks of the representation theorem, angle periodicity,
the row-batched Monte Carlo estimator and the CLI's handling of malformed
scenarios."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprlab import (
    HiddenVariableModel,
    MomentMatrix,
    QuadratureSetting,
    SampleSpace,
    TabulatedResponse,
    TimeSetting,
    UnitVector3,
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
    tmsv,
    unbounded_spin_model,
)
from eprlab.estimator import (BATCH_MIN_ROWS, BATCH_ROW_WORDS, BLOCK_DRAWS, MAX_COUNTED_ATOMS,
                              SUBCHUNK_DRAWS)

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
    "tabulated": _tabulated_model(MAX_COUNTED_ATOMS + 8),
}
ROW_SAMPLES = sorted({2, 3, BATCH_ROW_WORDS // 2, BATCH_ROW_WORDS // 2 + 1,
                      BATCH_ROW_WORDS, BATCH_ROW_WORDS + 1, BLOCK_DRAWS + 1})
ROW_COUNTS = (1, BATCH_MIN_ROWS - 1, BATCH_MIN_ROWS, BATCH_MIN_ROWS + 9)
KEY = st.integers(min_value=0, max_value=(1 << 128) - 1)


def _fingerprint(est) -> tuple:
    # float.hex tells -0.0 from 0.0, which == does not.
    return est.mean.hex(), est.stderr.hex(), est.n, est.key


@pytest.mark.parametrize("n", ROW_SAMPLES)
@pytest.mark.parametrize("name", sorted(ROW_MODELS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_row_estimates_equal_per_row_estimates(name, n, data):
    model, pool = ROW_MODELS[name]
    rows = data.draw(st.sampled_from(ROW_COUNTS), label="rows")
    if n > BLOCK_DRAWS:
        # Multi-block rows; n = BATCH_ROW_WORDS + 1 already routes many long rows.
        rows = min(rows, 2)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                         st.integers(0, len(pool) - 1)),
                               min_size=rows, max_size=rows), label="pairs")
    if data.draw(st.booleans(), label="signed_zero_row"):
        pairs[0] = (0, 1)
    keys = data.draw(st.lists(KEY, min_size=rows, max_size=rows), label="keys")
    finite = model.space.kind is estimator.SpaceKind.FINITE
    # A draw takes one Philox word whatever the model.
    batched = rows >= BATCH_MIN_ROWS and n <= BATCH_ROW_WORDS
    # Smaller tiles split a batched chunk; rows drawn in blocks keep the real
    # block size, whose boundaries the per-row reference shares (a Gaussian
    # block's exponentials come from a substream of their own).
    tile_draws = data.draw(st.sampled_from([BLOCK_DRAWS, 1, 3 * n, 11 * n]),
                           label="tile_draws") if batched else BLOCK_DRAWS
    workers = data.draw(st.sampled_from([1, 2]), label="workers")
    settings1 = [pool[i] for i, _ in pairs]
    settings2 = [pool[j] for _, j in pairs]

    tiles = mock.patch.object(estimator, "_philox_words", wraps=estimator._philox_words)
    blocks = mock.patch.object(estimator, "_raw_words", wraps=estimator._raw_words)
    with mock.patch.object(estimator, "BLOCK_DRAWS", tile_draws), tiles as tile_spy, \
            blocks as block_spy:
        got = mc_estimate_rows(model, settings1, settings2, n, keys, workers=workers)
    want = [mc_estimate(model, s1, s2, n, k) for s1, s2, k in zip(settings1, settings2, keys)]
    assert [_fingerprint(e) for e in got] == [_fingerprint(e) for e in want]

    if not batched:
        assert tile_spy.call_count == 0
        # A finite tile draws its words in one call, a Gaussian one per sub-chunk.
        per_call = BLOCK_DRAWS if finite else SUBCHUNK_DRAWS
        assert block_spy.call_count == rows * sum(-(-min(BLOCK_DRAWS, n - start) // per_call)
                                                  for start in range(0, n, BLOCK_DRAWS))
    else:
        assert block_spy.call_count == 0
        sizes = [len(call.args[0]) for call in tile_spy.call_args_list]
        assert sum(sizes) == rows and len(sizes) == -(-rows // max(1, tile_draws // n))
        # A tile holds at most BLOCK_DRAWS draws, unless one row alone has more.
        assert all(size * n <= tile_draws or size == 1 for size in sizes)
    if pairs[0] == (0, 1) and name in ("spin", "tabulated"):
        assert got[0].mean.hex() == "0x0.0p+0"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(atoms=st.integers(1, MAX_COUNTED_ATOMS + 8),
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

    # The drawn atoms by float searchsorted on the 53-bit uniforms.
    u = (np.random.Philox(key=key).random_raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    drawn = np.minimum(np.searchsorted(np.cumsum(weights), u, side="right"), atoms - 1)
    x = np.array(model.response1.values[0])[drawn]
    mean = np.sum(x) / n
    stderr = math.sqrt(np.sum((x - mean) ** 2) / (n - 1) / n)
    # The absolute floors are the two-pass reference's own rounding of the
    # mean, for rows that drew one atom and have a stderr of 0.
    scale = float(np.max(np.abs(x)))
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=1e-14 * scale)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-14 * scale / math.sqrt(n))


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
