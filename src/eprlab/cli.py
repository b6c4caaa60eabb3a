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

All angles are radians. SPIN_CHSH settings are angles of directions in
the x-z plane and need no ``state``; EPR_QUADRATURE settings are
quadrature angles; FREE_EVOLUTION settings are times. Scan axes are
expanded to a Cartesian product with ``setting1`` as the outer loop.

For every setting pair the tool evaluates the exact quantum correlation,
the model's exact expectation, and a seeded Monte Carlo estimate, then
writes ``<name>.csv`` and ``<name>.summary.json``. The rows are evaluated
by columns, in chunks of ``EVAL_CHUNK_ROWS`` rows. Each distinct setting
value is made once per run, together with both parties' feature rows and
the numbers the quantum correlator reads from it; a chunk's feature and
correlator stacks are row gathers from that table. One pair of feature
stacks feeds both the exact contraction and the chunk's Monte Carlo
(``estimator._mc_rows``), whose means and standard errors come back as
arrays; row r draws from the stream of the 128-bit key seed + (r << 64),
the pair (seed, r). z-scores, the consistency check and the finite check
are array operations on the whole result, and each output line is one
``%`` format of a row tuple; the stdout table is written one chunk of
lines per ``write``. Both outputs are written to temporary files
in the output directory and renamed into place, so a failed write leaves
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
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .correlators import (
    ChshSettings,
    QuadratureSetting,
    TimeSetting,
    _free_evolution_value,
    _quadrature_value,
    chsh_value,
    free_evolution_correlation,
    quadrature_correlation,
    spin_correlation,
    spin_correlation_rows,
)
from .errors import ConsistencyError, ScenarioError, ValidationError
from .estimator import MAX_DRAWS, MAX_WORKERS, _mc_rows, _quiet, _z_scores
from .gaussian import MomentMatrix, extract_moments, tmsv
from .lhv import (
    HiddenVariableModel,
    _contract,
    exact_expectation,
    free_evolution_model,
    quadrature_model,
    sup_bound,
    unbounded_spin_model,
)
from .operators import UnitVector3

# The one-row estimator and comparison, whose array forms the rows use, bound
# here too: the benchmark's traced run probes these names on this module.
from .estimator import compare, mc_estimate  # noqa: F401

KINDS = ("SPIN_CHSH", "EPR_QUADRATURE", "FREE_EVOLUTION")
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
#: which bounds the memory a large scan holds beyond its result rows. On a
#: 72x72 spin scan, peak RSS rose 0.3 MiB over per-row evaluation at 256,
#: 0.55 MiB at 512 and 2.9 MiB with all rows at once; the quantum and
#: exact columns took 35-38 ms at any size from 128 to 512.
EVAL_CHUNK_ROWS = 256
#: Rows a scenario may ask for at most, checked before any row is built.
#: Every row's settings and results are held in memory until the outputs
#: are written, about 0.17 KiB a row (peak RSS of a spin scan at n = 2:
#: 32.4 MiB at 72x72, 43.3 MiB at 256x256, 75.1 MiB at 512x512), so
#: MAX_ROWS rows take about 0.17 GiB.
MAX_ROWS = 1 << 20

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2

_MAX_SEED = 1 << 64
_TOP_KEYS = {"kind", "name", "state", "settings", "samples", "seed", "chsh"}


@dataclass(frozen=True)
class Scenario:
    kind: str
    name: str
    moments: MomentMatrix | None
    setting_pairs: tuple[tuple[float, float], ...]
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


def _decimal(n: int) -> str:
    """``n`` in decimal, or a power-of-two bound past Python's limit on the digits of str(int)."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2**{n.bit_length() - 1}"


def _check_row_count(rows: int) -> None:
    if rows > MAX_ROWS:
        raise ScenarioError(f"'settings' asks for {_decimal(rows)} rows, "
                            f"more than MAX_ROWS = {MAX_ROWS}")


def _parse_settings(data, kind: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(data, dict):
        raise ScenarioError("'settings' must be an object")
    if set(data) == {"pairs"}:
        pairs = data["pairs"]
        if not isinstance(pairs, list) or not pairs:
            raise ScenarioError("'settings.pairs' must be a non-empty list of [s1, s2] pairs")
        _check_row_count(len(pairs))
        out = []
        for i, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioError(f"settings.pairs[{i}] must be a [s1, s2] pair")
            out.append((_require_number(pair[0], f"settings.pairs[{i}][0]"),
                        _require_number(pair[1], f"settings.pairs[{i}][1]")))
        return tuple(out)
    if set(data) == {"setting1", "setting2"}:
        axis1 = _axis(data["setting1"], "settings.setting1")
        axis2 = _axis(data["setting2"], "settings.setting2")
        _check_row_count(axis1[2] * axis2[2])
        values1, values2 = _axis_values(*axis1), _axis_values(*axis2)
        return tuple((v1, v2) for v1 in values1 for v2 in values2)
    raise ScenarioError(
        "'settings' must contain either 'pairs' or both 'setting1' and 'setting2'"
    )


def _parse_state(data, kind: str) -> MomentMatrix | None:
    if kind == "SPIN_CHSH":
        if data is not None:
            raise ScenarioError("SPIN_CHSH uses the two-spin singlet; omit 'state'")
        return None
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


def _parse_chsh(data, kind: str) -> tuple[float, float, float, float] | None:
    if data is None:
        return None
    if kind == "FREE_EVOLUTION":
        raise ScenarioError("the 'chsh' block applies to SPIN_CHSH and EPR_QUADRATURE only")
    if not isinstance(data, dict) or set(data) != {"a", "a_prime", "b", "b_prime"}:
        raise ScenarioError("'chsh' must carry exactly the keys a, a_prime, b, b_prime")
    return tuple(_require_number(data[k], f"chsh.{k}")
                 for k in ("a", "a_prime", "b", "b_prime"))


def load_scenario(path: Path) -> Scenario:
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
    samples = data.get("samples")
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ScenarioError(f"'samples' must be an integer >= 2, got {samples!r}")
    seed = data.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ScenarioError(f"'seed' must be a 64-bit unsigned integer, got {seed!r}")
    return Scenario(
        kind=kind,
        name=name,
        moments=_parse_state(data.get("state"), kind),
        setting_pairs=_parse_settings(data.get("settings"), kind),
        samples=samples,
        seed=seed,
        chsh=_parse_chsh(data.get("chsh"), kind),
    )


def _spin_direction(theta: float) -> UnitVector3:
    """Direction in the x-z plane at angle theta from the z axis."""
    if not math.isfinite(theta):
        raise ValidationError(f"spin direction angle must be finite, got {theta!r}")
    return UnitVector3(math.sin(theta), 0.0, math.cos(theta))


@dataclass(frozen=True)
class _Engine:
    """How one scenario kind evaluates its settings.

    ``columns(setting)`` are the numbers the row functions read from one
    setting: its direction cosines (spin), the cosine and sine of its angle
    (quadrature) or its time. ``quantum_rows(c1, c2)`` is the quantum
    correlation at each row of two row-aligned stacks of such columns, and
    ``magnitude(c1, c2)`` the sum of the absolute values of the terms of its
    closed form, the scale of its rounding error. ``quantum`` is the quantum
    correlation of one setting pair, which the CHSH block uses.
    """

    model: HiddenVariableModel
    make_setting: Callable
    columns: Callable
    quantum: Callable
    quantum_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    magnitude: Callable


def _build_engine(scenario: Scenario) -> _Engine:
    if scenario.kind == "SPIN_CHSH":
        return _Engine(unbounded_spin_model(), _spin_direction, lambda d: (d.x, d.y, d.z),
                       spin_correlation, spin_correlation_rows, lambda c1, c2: 1.0)
    m = scenario.moments
    if scenario.kind == "EPR_QUADRATURE":
        def quantum_rows(c1, c2):
            return _quadrature_value(m, c1[:, 0], c1[:, 1], c2[:, 0], c2[:, 1])

        def magnitude(c1, c2):
            (cos1, sin1), (cos2, sin2) = c1.T, c2.T
            return (abs(m.qq * cos1 * cos2) + abs(m.pq * sin1 * cos2)
                    + abs(m.qp * cos1 * sin2) + abs(m.pp * sin1 * sin2))
        return _Engine(quadrature_model(m), QuadratureSetting,
                       lambda a: (math.cos(a.alpha), math.sin(a.alpha)),
                       lambda a1, a2: quadrature_correlation(m, a1, a2), quantum_rows, magnitude)

    def quantum_rows(c1, c2):
        return _free_evolution_value(m, c1[:, 0], c2[:, 0])

    def magnitude(c1, c2):
        t1, t2 = c1[:, 0], c2[:, 0]
        return abs(m.qq) + abs(m.pq * t1) + abs(m.qp * t2) + abs(m.pp * (t1 * t2))
    return _Engine(free_evolution_model(m), TimeSetting, lambda t: (t.t,),
                   lambda t1, t2: free_evolution_correlation(m, t1, t2), quantum_rows, magnitude)


@_quiet
def _evaluate(scenario: Scenario, workers: int) -> tuple[np.ndarray, dict]:
    """All result rows, as a (rows, len(CSV_COLUMNS)) array in CSV column order, and the summary.

    Overflow is not warned about: it shows as an infinite or NaN value,
    which ``_check_finite`` reports with its row.
    """
    engine = _build_engine(scenario)
    model = engine.model
    weights = np.array(model.space.basis_weights)
    # Grids repeat their axis values; each distinct value is made once per
    # run, as (setting, party-1 feature row, party-2 feature row, columns).
    # Keyed by float.hex, so that 0.0 and -0.0 stay distinct.
    made: dict[str, tuple] = {}

    def make(x: float) -> tuple:
        key = x.hex()
        entry = made.get(key)
        if entry is None:
            setting = engine.make_setting(x)
            entry = made[key] = (setting, model.response1.features(setting),
                                 model.response2.features(setting), engine.columns(setting))
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
        entries = [make(x) for x in distinct]
        return (np.array([entry[party] for entry in entries])[rows],
                np.array([entry[3] for entry in entries])[rows])

    values1, values2 = np.array(scenario.setting_pairs, dtype=float).T.copy()
    table = np.empty((len(values1), len(CSV_COLUMNS)))
    table[:, 0], table[:, 1] = values1, values2
    consistency_pass = True
    for start in range(0, len(table), EVAL_CHUNK_ROWS):
        end = min(start + EVAL_CHUNK_ROWS, len(table))
        phi1, columns1 = gather(values1[start:end], 1)
        phi2, columns2 = gather(values2[start:end], 2)
        quantum = engine.quantum_rows(columns1, columns2)
        exact = _contract(weights, phi1, phi2)
        keys = [scenario.seed + (row << 64) for row in range(start, end)]
        mean, stderr = _mc_rows(model, phi1, phi2, scenario.samples, keys, workers)
        for column, values in enumerate((quantum, exact, mean, stderr), 2):
            table[start:end, column] = values
        # fmax ignores a NaN magnitude, as Python's max(1.0, S) does.
        tolerance = CONSISTENCY_TOL * np.fmax(1.0, engine.magnitude(columns1, columns2))
        consistency_pass = consistency_pass and bool(np.all(np.abs(exact - quantum) <= tolerance))
    z, _ = _z_scores(table[:, 3], table[:, 4], table[:, 5])
    table[:, 6] = z

    chsh_quantum = chsh_lhv = None
    if scenario.chsh is not None:
        settings = ChshSettings(*(make(theta)[0] for theta in scenario.chsh))
        chsh_quantum = chsh_value(engine.quantum, settings)
        chsh_lhv = chsh_value(lambda u, v: exact_expectation(model, u, v), settings)

    bound = sup_bound(model)
    summary = {
        "chsh_quantum": chsh_quantum,
        "chsh_lhv_exact": chsh_lhv,
        "sup_bound": bound if math.isfinite(bound) else "unbounded",
        "max_abs_z": float(np.abs(z).max()),
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


def _chunks(table: np.ndarray) -> Iterator[list[tuple]]:
    """The rows of ``table`` as plain tuples of floats, one list per ``EVAL_CHUNK_ROWS`` rows."""
    for start in range(0, len(table), EVAL_CHUNK_ROWS):
        yield list(zip(*table[start:start + EVAL_CHUNK_ROWS].T.tolist()))


def _rows(table: np.ndarray) -> Iterator[tuple]:
    """The rows of ``table`` as plain tuples of floats, converted a chunk at a time."""
    for chunk in _chunks(table):
        yield from chunk


def _write_csv(fh, rows: Iterable[tuple]) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\r\n")
    fh.writelines(_CSV_LINE % row for row in rows)


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


def _drop_stdout(exc: OSError) -> None:
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

    ``seed`` and ``samples`` override the file values when given.
    """
    scenario = load_scenario(Path(path))
    if seed is not None:
        if not 0 <= seed < _MAX_SEED:
            raise ScenarioError(f"--seed must be a 64-bit unsigned integer, got {seed}")
        scenario = dataclasses.replace(scenario, seed=seed)
    if samples is not None:
        if samples < 2:
            raise ScenarioError(f"--samples must be >= 2, got {samples}")
        scenario = dataclasses.replace(scenario, samples=samples)

    draws = scenario.samples * len(scenario.setting_pairs)
    if draws > MAX_DRAWS:
        raise ScenarioError(f"{len(scenario.setting_pairs)} rows of {scenario.samples} samples "
                            f"ask for {_decimal(draws)} draws, more than MAX_DRAWS = {MAX_DRAWS}")

    table, summary = _evaluate(scenario, workers)
    _check_finite(table)

    out = Path(out_dir) if out_dir is not None else Path(".")
    csv_path = out / f"{scenario.name}.csv"
    summary_path = out / f"{scenario.name}.summary.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_outputs([(csv_path, lambda fh: _write_csv(fh, _rows(table))),
                        (summary_path, lambda fh: _write_summary(fh, summary))])
    except OSError as exc:
        raise ScenarioError(f"cannot write the outputs in {out}: {exc}") from exc

    try:
        _print_table(_chunks(table), summary)
        print(f"wrote {csv_path} and {summary_path}")
        sys.stdout.flush()
    except OSError as exc:
        _drop_stdout(exc)
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
