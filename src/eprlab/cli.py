"""Scenario-driven command line front end.

A scenario is a JSON file with a top-level ``kind`` discriminator::

    {
      "kind": "SPIN_CHSH" | "EPR_QUADRATURE" | "FREE_EVOLUTION",
      "name": "output base name, one path component (default: file stem)",
      "state": {"squeezing": 1.0} or
               {"moments": {"qq": ..., "pq": ..., "qp": ..., "pp": ...}},
      "settings": {"pairs": [[s1, s2], ...]} or
                  {"setting1": {"start": ..., "stop": ..., "count": ...},
                   "setting2": {"value": ...}},
      "samples": 100000,
      "seed": 7,
      "chsh": {"a": ..., "a_prime": ..., "b": ..., "b_prime": ...}
    }

Each kind is one row of ``_KINDS``, the one place that names it: its
model, how a number becomes a setting, its quantum closed form, and
whether it takes a ``state`` and a ``chsh`` block (``_Kind``). ``KINDS``,
the messages that refuse a ``state`` or a ``chsh`` block and
``_evaluate`` all read the table. All angles are radians. SPIN_CHSH
settings are angles of directions in the x-z plane, and it always
measures the two-spin singlet, so it takes no ``state``; EPR_QUADRATURE
settings are quadrature angles; FREE_EVOLUTION settings are times, and it
takes no ``chsh`` block. Scan axes are expanded to a Cartesian product
with ``setting1`` as the outer loop.

For every setting pair the tool evaluates the exact quantum correlation,
the model's exact expectation, and a seeded Monte Carlo estimate, then
writes ``<name>.csv`` and ``<name>.summary.json``. A loaded scenario
holds its setting pairs as one read-only (rows, 2) float array, and
nothing else per row; the result table's first two columns are a copy of
it. The rows are evaluated by columns, in chunks of ``EVAL_CHUNK_ROWS``
rows, the last one holding the rest (``_chunk_bounds``). A chunk reads
its settings as views of the table. Each distinct setting value is made
once per run, together with both parties' feature rows and the numbers
the quantum correlator reads from it; a chunk's feature and correlator
stacks are row gathers from that table. One pair of feature stacks
feeds both the exact contraction and the chunk's Monte Carlo
(``estimator._mc_rows``), whose means and standard errors come back as
arrays; row r draws from the stream of the 128-bit key seed + (r << 64),
the pair (seed, r). The ``chsh`` block is four more rows of the same
evaluation, (a, b), (a, b'), (a', b) and (a', b'), without Monte Carlo;
their quantum and exact values are added as ``chsh_value`` adds them, and
they do not enter the consistency check. z-scores and the consistency
check are array operations on each chunk, written into the table as it
goes, with ``max_abs_z`` kept as a running maximum; the finite check is
one on the whole result, before the CHSH block. Each output line is one
``%`` format of a row tuple; the stdout table is written one chunk of
lines per ``write``. Both outputs are written to temporary files in the
output directory and renamed into place, so a failed write leaves
earlier outputs intact. Exit codes: 0 on
success, 1 on input errors (including command lines that argparse
rejects, results that overflow double precision, and outputs that cannot
be written), 2 when the model and the
quantum value disagree beyond tolerance on any row or a correlator's
internal cross-check fails.

``python -m eprlab`` and the ``eprlab`` script enter through
``eprlab.__main__.main``, which calls ``main`` here and then freezes the
garbage collector, so that interpreter shutdown does not walk every
object of the run; ``main`` itself does not freeze.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .correlators import (
    QuadratureSetting,
    TimeSetting,
    _add,
    _free_evolution_terms,
    _quadrature_terms,
    spin_correlation_rows,
)
from .errors import ConsistencyError, ScenarioError, ValidationError
from .estimator import MAX_WORKERS, _check_draws, _decimal, _mc_rows, _quiet, _z_scores
from .gaussian import MomentMatrix, extract_moments, tmsv
from .lhv import (
    _contract,
    free_evolution_model,
    quadrature_model,
    sup_bound,
    unbounded_spin_model,
)
from .operators import UnitVector3

# The one-pair correlators, CHSH sum, exact expectation, estimator and
# comparison, whose row forms a run uses, bound here too: the benchmark's
# traced run probes these names on this module.
from .correlators import chsh_value, free_evolution_correlation  # noqa: F401
from .correlators import quadrature_correlation, spin_correlation  # noqa: F401
from .estimator import compare, mc_estimate  # noqa: F401
from .lhv import exact_expectation  # noqa: F401

CSV_COLUMNS = ("setting1", "setting2", "quantum", "lhv_exact", "lhv_mc", "stderr", "z")
#: A CSV line and a table line, each one ``%`` format of a row tuple. "%.17g"
#: prints a float as format(v, ".17g") does, and the table specs as the
#: f-string specs {v:>12.6g}, {v:>10.3g} and {v:>7.2f}.
_CSV_LINE = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\r\n"
_TABLE_LINE = "%12.6g %12.6g %12.6g %12.6g %12.6g %10.3g %7.2f\n"
#: A row is consistent when |lhv_exact - quantum| <= CONSISTENCY_TOL * max(1, S),
#: S the sum of the absolute values of the quantum closed form's terms.
CONSISTENCY_TOL = 1e-10
#: Rows whose settings, quantum values and exact values are built at once,
#: at most, which bounds the memory a large scan holds beyond its result
#: rows. On a 72x72 spin scan at n = 2 (2-vCPU x86-64 host), a cold run
#: peaked at 31.2 MiB at 256 rows a chunk, 31.9 MiB at 1024 and 35.2 MiB
#: with all rows in one chunk (medians of 7), and a warm ``_evaluate``
#: took 19.3, 10.6 and 8.3 ms (timeit minimum). A scan of more rows is
#: cut into chunks of this many (``_chunk_bounds``).
EVAL_CHUNK_ROWS = 256
#: Rows a scenario may ask for at most, checked before any row is built.
#: Every row's settings and results are held in memory until the outputs
#: are written, about 0.08 KiB a row: the settings array (16 bytes) and the
#: result table (56 bytes). Peak RSS of cold spin scans at n = 2, 2-vCPU
#: x86-64 host: 31.4 MiB at 72x72, 36.6 MiB at 256x256, 51.9 MiB at
#: 512x512. So MAX_ROWS rows take about 0.08 GiB.
MAX_ROWS = 1 << 20

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2

_MAX_SEED = 1 << 64
_TOP_KEYS = {"kind", "name", "state", "settings", "samples", "seed", "chsh"}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded scenario; ``setting_pairs`` is a read-only, C-contiguous (rows, 2) array."""

    kind: str
    name: str
    moments: MomentMatrix | None
    setting_pairs: np.ndarray
    samples: int
    seed: int
    chsh: tuple[float, float, float, float] | None


def _require_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{label} is an integer beyond double precision's range") from None


def _axis(axis, label: str) -> tuple[float, float, int]:
    """A setting axis as (start, stop, count); a single value has count 1."""
    if not isinstance(axis, dict):
        raise ScenarioError(f"{label} must be an object with 'value' or 'start'/'stop'/'count'")
    if set(axis) == {"value"}:
        value = _require_number(axis["value"], f"{label}.value")
        return value, value, 1
    if set(axis) == {"start", "stop", "count"}:
        start = _require_number(axis["start"], f"{label}.start")
        stop = _require_number(axis["stop"], f"{label}.stop")
        count = axis["count"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 2:
            raise ScenarioError(f"{label}.count must be an integer >= 2, got {count!r}")
        if start == stop:
            raise ScenarioError(f"{label}: scan range needs start != stop")
        if not math.isfinite(stop - start):
            raise ScenarioError(f"{label}: scan range needs a finite stop - start, "
                                f"got start = {start!r}, stop = {stop!r}")
        return start, stop, count
    raise ScenarioError(f"{label} keys must be exactly {{'value'}} or {{'start','stop','count'}}")


def _axis_values(start: float, stop: float, count: int) -> list[float]:
    return [start] if count == 1 else [float(v) for v in np.linspace(start, stop, count)]


def _check_row_count(rows: int) -> None:
    if rows > MAX_ROWS:
        raise ScenarioError(f"'settings' asks for {_decimal(rows)} rows, "
                            f"more than MAX_ROWS = {MAX_ROWS}")


def _parse_settings(data) -> np.ndarray:
    """The setting pairs as a read-only (rows, 2) array, row r = (setting1, setting2)."""
    if not isinstance(data, dict):
        raise ScenarioError("'settings' must be an object")
    if set(data) == {"pairs"}:
        pairs = data["pairs"]
        if not isinstance(pairs, list) or not pairs:
            raise ScenarioError("'settings.pairs' must be a non-empty list of [s1, s2] pairs")
        _check_row_count(len(pairs))
        out = np.empty((len(pairs), 2))
        for i, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioError(f"settings.pairs[{i}] must be a [s1, s2] pair")
            out[i] = (_require_number(pair[0], f"settings.pairs[{i}][0]"),
                      _require_number(pair[1], f"settings.pairs[{i}][1]"))
    elif set(data) == {"setting1", "setting2"}:
        axis1 = _axis(data["setting1"], "settings.setting1")
        axis2 = _axis(data["setting2"], "settings.setting2")
        _check_row_count(axis1[2] * axis2[2])
        # setting1 is the outer loop of the Cartesian product.
        out = np.empty((axis1[2] * axis2[2], 2))
        out[:, 0] = np.repeat(_axis_values(*axis1), axis2[2])
        out[:, 1] = np.tile(_axis_values(*axis2), axis1[2])
    else:
        raise ScenarioError(
            "'settings' must contain either 'pairs' or both 'setting1' and 'setting2'"
        )
    out.flags.writeable = False
    return out


def _parse_state(scenario: dict, kind: str) -> MomentMatrix | None:
    if _KINDS[kind].fixed_state is not None:
        # A "state": null is a state given, and refused.
        if "state" in scenario:
            raise ScenarioError(f"{kind} uses {_KINDS[kind].fixed_state}; omit 'state'")
        return None
    data = scenario.get("state")
    if not isinstance(data, dict):
        raise ScenarioError(f"{kind} needs a 'state' object with 'squeezing' or 'moments'")
    if set(data) == {"squeezing"}:
        r = _require_number(data["squeezing"], "state.squeezing")
        return extract_moments(tmsv(r))
    if set(data) == {"moments"}:
        block = data["moments"]
        if not isinstance(block, dict) or set(block) != {"qq", "pq", "qp", "pp"}:
            raise ScenarioError("state.moments must carry exactly the keys qq, pq, qp, pp")
        return MomentMatrix(**{k: _require_number(v, f"state.moments.{k}")
                               for k, v in block.items()})
    raise ScenarioError("'state' keys must be exactly {'squeezing'} or {'moments'}")


def _parse_chsh(scenario: dict, kind: str) -> tuple[float, float, float, float] | None:
    if "chsh" not in scenario:
        return None
    data = scenario["chsh"]
    if not _KINDS[kind].chsh:
        takers = " and ".join(name for name, row in _KINDS.items() if row.chsh)
        raise ScenarioError(f"the 'chsh' block applies to {takers} only")
    if not isinstance(data, dict) or set(data) != {"a", "a_prime", "b", "b_prime"}:
        raise ScenarioError("'chsh' must carry exactly the keys a, a_prime, b, b_prime")
    return tuple(_require_number(data[k], f"chsh.{k}")
                 for k in ("a", "a_prime", "b", "b_prime"))


def _override(data: dict, key: str, value) -> tuple:
    """``value`` labelled as its flag, or when it is None the file's value labelled as its key."""
    return (data.get(key), f"'{key}'") if value is None else (value, f"--{key}")


def load_scenario(path: Path, seed: int | None = None, samples: int | None = None) -> Scenario:
    """The scenario in the file at ``path``.

    ``seed`` and ``samples``, when given, take the place of the file's
    values, or supply them where the file has none, and are checked as
    those are; an error names the flag instead of the key. A key given as
    JSON null is a value, refused as a wrong one is: only an omitted key
    takes its default.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ScenarioError(f"scenario file {path} nests its JSON too deeply") from exc
    except ValueError as exc:
        # JSONDecodeError, and integers past Python's digit limit for int().
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"'kind' must be one of {KINDS}, got {kind!r}")
    name = data.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"'name' must be a non-empty string, got {name!r}")
    # The name becomes the output file stem inside --out-dir.
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioError(f"'name' must be one path component without '/', '\\' or NUL, "
                            f"got {name!r}")
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        raise ScenarioError(f"'name' cannot be encoded as a file name, got {name!r}") from None
    samples, label = _override(data, "samples", samples)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ScenarioError(f"{label} must be an integer >= 2, got {samples!r}")
    seed, label = _override(data, "seed", seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ScenarioError(f"{label} must be a 64-bit unsigned integer, got {seed!r}")
    return Scenario(
        kind=kind,
        name=name,
        moments=_parse_state(data, kind),
        setting_pairs=_parse_settings(data.get("settings")),
        samples=samples,
        seed=seed,
        chsh=_parse_chsh(data, kind),
    )


def _spin_direction(theta: float) -> UnitVector3:
    """Direction in the x-z plane at angle theta from the z axis."""
    if not math.isfinite(theta):
        raise ValidationError(f"spin direction angle must be finite, got {theta!r}")
    return UnitVector3(math.sin(theta), 0.0, math.cos(theta))


class _Kind(NamedTuple):
    """One scenario kind, a row of ``_KINDS``: what ``load_scenario`` and ``_evaluate`` read.

    ``model(m)`` builds the kind's ``HiddenVariableModel`` from the state's
    moments ``m`` (None for a kind without a state). It calls its builder
    by this module's name at call time, so that a module attribute replaced
    after import (as the benchmark's traced run replaces them) is the one
    called. ``make_setting(x)`` makes one setting from a number, and
    ``columns(setting)`` are the numbers the row functions read from it: its
    direction cosines (spin), the cosine and sine of its angle (quadrature)
    or its time. ``quantum_rows(m, c1, c2)`` gives, at each row of two
    row-aligned stacks of such columns, the quantum correlation and its
    magnitude: the sum of the absolute values of its closed form's terms,
    the scale of its rounding error (1.0 for spins, whose terms add up to at
    most 1 in absolute value). The CHSH block is four more rows of the same
    functions. ``fixed_state`` names the state that a kind always measures,
    which makes it refuse a ``state``; it is None for a kind that needs one.
    ``chsh`` says whether the kind takes a ``chsh`` block.
    """

    model: Callable
    make_setting: Callable
    columns: Callable
    quantum_rows: Callable
    fixed_state: str | None = None
    chsh: bool = True


def _value_and_magnitude(terms: tuple) -> tuple:
    """A closed form's value and magnitude from its signed terms."""
    return _add(terms), _add([abs(term) for term in terms])


#: Every scenario kind, in the order that messages list them. Adding a kind
#: is one row here, plus its closed form and its model.
_KINDS = {
    "SPIN_CHSH": _Kind(
        lambda m: unbounded_spin_model(), _spin_direction, lambda d: (d.x, d.y, d.z),
        lambda m, c1, c2: (spin_correlation_rows(c1, c2), 1.0),
        fixed_state="the two-spin singlet"),
    "EPR_QUADRATURE": _Kind(
        lambda m: quadrature_model(m), QuadratureSetting,
        lambda a: (math.cos(a.alpha), math.sin(a.alpha)),
        lambda m, c1, c2: _value_and_magnitude(_quadrature_terms(m, *c1.T, *c2.T))),
    "FREE_EVOLUTION": _Kind(
        lambda m: free_evolution_model(m), TimeSetting, lambda t: (t.t,),
        lambda m, c1, c2: _value_and_magnitude(_free_evolution_terms(m, *c1.T, *c2.T)),
        chsh=False),
}
KINDS = tuple(_KINDS)


@_quiet
def _evaluate(scenario: Scenario, workers: int) -> tuple[np.ndarray, dict]:
    """All result rows, as a (rows, len(CSV_COLUMNS)) array in CSV column order, and the summary.

    Overflow is not warned about: it shows as an infinite or NaN value,
    which is reported with its row (``_check_finite``) or, in a CHSH sum,
    with the ``chsh`` block, as a ``ScenarioError``.
    """
    kind, m = _KINDS[scenario.kind], scenario.moments
    model = kind.model(m)
    weights = np.array(model.space.basis_weights)
    # Grids repeat their axis values; each distinct value is made once per
    # run, as (columns, party-1 feature row, party-2 feature row). Keyed by
    # its bits, so that 0.0 and -0.0 stay distinct.
    made: dict[int, tuple] = {}

    def make(bits: int, x: float) -> tuple:
        entry = made.get(bits)
        if entry is None:
            setting = kind.make_setting(x)
            entry = made[bits] = (kind.columns(setting), model.response1.features(setting),
                                  model.response2.features(setting))
        return entry

    def gather(values: np.ndarray, party: int) -> tuple[np.ndarray, np.ndarray]:
        """The feature stack of ``party`` (1 or 2) and the column stack at one chunk's values."""
        # The chunk's distinct values by their bits, so 0.0 and -0.0 too, in
        # order of first appearance, so that the first invalid one is reported.
        # np.unique would find them by sorting, and loading its sort kernels
        # alone raises a run's peak RSS by about 0.5 MiB.
        slots: dict[int, int] = {}
        rows = [slots.setdefault(bits, len(slots)) for bits in values.view(np.uint64).tolist()]
        distinct = np.array(list(slots), dtype=np.uint64).view(np.float64).tolist()
        entries = [make(bits, x) for bits, x in zip(slots, distinct)]
        return (np.array([entry[party] for entry in entries])[rows],
                np.array([entry[0] for entry in entries])[rows])

    def evaluate(values1: np.ndarray, values2: np.ndarray) -> tuple:
        """Feature stacks, exact values, quantum values and magnitudes at two columns' pairs."""
        phi1, c1 = gather(values1, 1)
        phi2, c2 = gather(values2, 2)
        return phi1, phi2, _contract(weights, phi1, phi2), *kind.quantum_rows(m, c1, c2)

    table = np.empty((len(scenario.setting_pairs), len(CSV_COLUMNS)))
    table[:, :2] = scenario.setting_pairs
    consistency_pass = True
    # |z| >= 0, so the running maximum from 0.0 is the maximum over all rows.
    max_abs_z = 0.0
    for start, end in _chunk_bounds(len(table)):
        chunk = table[start:end]
        phi1, phi2, exact, quantum, magnitude = evaluate(chunk[:, 0], chunk[:, 1])
        keys = [scenario.seed + (row << 64) for row in range(start, end)]
        mean, stderr = _mc_rows(model, phi1, phi2, scenario.samples, keys, workers)
        for column, values in enumerate((quantum, exact, mean, stderr), 2):
            chunk[:, column] = values
        z, _ = _z_scores(chunk[:, 3], chunk[:, 4], chunk[:, 5])
        chunk[:, 6] = z
        max_abs_z = max(max_abs_z, float(np.abs(z).max()))
        # fmax ignores a NaN magnitude, as Python's max(1.0, S) does.
        tolerance = CONSISTENCY_TOL * np.fmax(1.0, magnitude)
        consistency_pass = consistency_pass and bool(np.all(np.abs(exact - quantum) <= tolerance))
    _check_finite(table)

    chsh_quantum = chsh_lhv = None
    if scenario.chsh is not None:
        # The rows (a, b), (a, b'), (a', b) and (a', b'), added in chsh_value's
        # order. They are not consistency-checked.
        a, a_prime, b, b_prime = scenario.chsh
        rows = evaluate(np.array([a, a, a_prime, a_prime]), np.array([b, b_prime, b, b_prime]))
        chsh_lhv, chsh_quantum = (float(v[0] - v[1] + v[2] + v[3]) for v in rows[2:4])
        # Finite rows can still add up past double precision.
        for label, value in (("chsh_quantum", chsh_quantum), ("chsh_lhv_exact", chsh_lhv)):
            if not math.isfinite(value):
                raise ScenarioError(
                    f"chsh (a = {a!r}, a_prime = {a_prime!r}, b = {b!r}, b_prime = {b_prime!r}): "
                    f"{label} is {value!r}; the scenario's values overflow double precision")

    bound = sup_bound(model)
    summary = {
        "chsh_quantum": chsh_quantum,
        "chsh_lhv_exact": chsh_lhv,
        "sup_bound": bound if math.isfinite(bound) else "unbounded",
        "max_abs_z": max_abs_z,
        "consistency_pass": consistency_pass,
    }
    return table, summary


def _check_finite(table: np.ndarray) -> None:
    """Reject results that overflowed; a z of +-inf from a zero stderr is legal."""
    checked = table[:, 2:6]  # quantum, lhv_exact, lhv_mc, stderr
    bad = np.argwhere(~np.isfinite(checked))
    if len(bad):
        # argwhere is in row-major order: the first bad row, then its first bad column.
        index, column = bad[0].tolist()
        setting1, setting2 = table[index, :2].tolist()
        raise ScenarioError(
            f"row {index} (setting1 = {setting1!r}, setting2 = {setting2!r}): "
            f"{CSV_COLUMNS[2 + column]} is {float(checked[index, column])!r}; "
            "the scenario's values overflow double precision"
        )


def _chunk_bounds(rows: int) -> list[tuple[int, int]]:
    """(start, end) of consecutive chunks of EVAL_CHUNK_ROWS rows, the last one holding the rest."""
    return [(start, min(start + EVAL_CHUNK_ROWS, rows))
            for start in range(0, rows, EVAL_CHUNK_ROWS)]


def _chunks(table: np.ndarray) -> Iterator[list[tuple]]:
    """The rows of ``table`` as plain tuples of floats, one list per chunk of ``_chunk_bounds``."""
    for start, end in _chunk_bounds(len(table)):
        yield list(zip(*table[start:end].T.tolist()))


def _write_csv(fh, chunks: Iterable[list[tuple]]) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\r\n")
    fh.writelines("".join([_CSV_LINE % row for row in chunk]) for chunk in chunks)


def _write_summary(fh, summary: dict) -> None:
    fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _write_outputs(outputs: list[tuple[Path, Callable]]) -> None:
    """Write each (path, writer) to a temporary file beside it, then rename them all.

    A failure before the renames leaves earlier outputs untouched and
    removes the temporary files.
    """
    temps = []
    try:
        for path, write in outputs:
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            temps.append(temp)
            with temp.open("w", newline="") as fh:
                write(fh)
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _print_table(chunks: Iterable[list[tuple]], summary: dict) -> None:
    header = f"{'setting1':>12} {'setting2':>12} {'quantum':>12} {'lhv_exact':>12} " \
             f"{'lhv_mc':>12} {'stderr':>10} {'z':>7}"
    print(header)
    # One write per chunk: on an unbuffered stdout (PYTHONUNBUFFERED=1) each
    # write is a system call. A 72x72 grid's table took 22 ms written by
    # line and 12 ms by chunk (2-vCPU x86-64 host).
    sys.stdout.writelines("".join([_TABLE_LINE % row for row in chunk]) for chunk in chunks)
    if summary["chsh_quantum"] is not None:
        print(f"CHSH: quantum = {summary['chsh_quantum']:.9g}, "
              f"model exact = {summary['chsh_lhv_exact']:.9g}")
    print(f"sup bound = {summary['sup_bound']}, max |z| = {summary['max_abs_z']:.3g}, "
          f"consistency_pass = {summary['consistency_pass']}")


def _drop_stdout() -> None:
    """After a failed write, point stdout at os.devnull so the exit flush cannot fail again.

    A closed pipe (EPIPE) or a full device keeps the unwritten text in
    stdout's buffer, which the interpreter would try to flush once more at
    exit and report with a traceback; this is the recipe of the "Note on
    SIGPIPE" in the documentation of Python's ``signal`` module.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: nothing is flushed to a descriptor at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def run_scenario(path: Path, out_dir: Path | None = None, seed: int | None = None,
                 samples: int | None = None, workers: int = 1) -> int:
    """Execute a scenario file and write its CSV and summary outputs.

    ``seed`` and ``samples`` override the file values when given (``load_scenario``).
    """
    scenario = load_scenario(Path(path), seed=seed, samples=samples)
    # The run's keys, seed + (row << 64), are valid by construction: the seed
    # is below 2**64 and there are at most MAX_ROWS rows.
    _, workers = _check_draws(scenario.samples, len(scenario.setting_pairs), workers)

    table, summary = _evaluate(scenario, workers)

    out = Path(out_dir) if out_dir is not None else Path(".")
    csv_path = out / f"{scenario.name}.csv"
    summary_path = out / f"{scenario.name}.summary.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_outputs([(csv_path, lambda fh: _write_csv(fh, _chunks(table))),
                        (summary_path, lambda fh: _write_summary(fh, summary))])
    except OSError as exc:
        raise ScenarioError(f"cannot write the outputs in {out}: {exc}") from exc

    try:
        _print_table(_chunks(table), summary)
        print(f"wrote {csv_path} and {summary_path}")
        sys.stdout.flush()
    except OSError as exc:
        _drop_stdout()
        raise ScenarioError(f"cannot write the table to standard output: {exc}") from exc
    if not summary["consistency_pass"]:
        print("error: model expectation deviates from the quantum value beyond "
              f"{CONSISTENCY_TOL} * max(1, sum of |closed-form terms|) on some row",
              file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error code, not argparse's 2.

    ``add_subparsers`` makes the ``run`` parser of the same class.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="eprlab",
        description="Quantum two-party correlations vs separated-random-process models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a scenario JSON file")
    run_parser.add_argument("scenario", type=Path, help="path to the scenario JSON file")
    run_parser.add_argument("--out-dir", type=Path, default=None,
                            help="directory for result files (default: current directory)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the scenario seed")
    run_parser.add_argument("--samples", type=int, default=None,
                            help="override the scenario sample count")
    run_parser.add_argument("--workers", type=int, default=min(_usable_cpus(), MAX_WORKERS),
                            help="worker threads for Monte Carlo tiles (never changes results; "
                                 f"default: the usable CPU count, at most {MAX_WORKERS}; "
                                 "%(default)s here)")
    args = parser.parse_args(argv)
    try:
        return run_scenario(args.scenario, out_dir=args.out_dir, seed=args.seed,
                            samples=args.samples, workers=args.workers)
    except (ScenarioError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
