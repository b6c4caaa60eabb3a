"""Output checks for one ``eprlab run`` process.

The reference values are the benchmark's own closed forms, not the
package's: ``-cos(t1 - t2)`` for spin directions in the x-z plane, and
the four-moment expansion for quadratures of a two-mode squeezed vacuum.

Each failed check is a string. Checks fall into two groups:

* value checks: exit code, CSV shape, every number the run reports, and
  byte-identical CSVs across repeats. A failure means the program's
  results are wrong, and the benchmark reports ``correct: false``.
* format checks: the summary must be standard JSON (no ``NaN`` or
  ``Infinity``). A failure marks the run as failed but leaves the
  numbers it reported valid.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Workload, setting_pairs

CSV_HEADER = ["setting1", "setting2", "quantum", "lhv_exact", "lhv_mc", "stderr", "z"]
VALUE_TOL = 1e-10
GRID_TOL = 1e-12
#: Relative tolerance of the sample stderr against the analytic one. The
#: sampling error of a stderr at n >= 1e6 is below 0.3 %.
STDERR_RTOL = 0.05
STDERR_ATOL = 1e-9
#: |z| above this has probability ~2e-9 per row under a correct estimator.
MAX_ABS_Z = 6.0

FORMAT_PREFIX = "format: "


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _moments(squeezing: float) -> tuple[float, float, float, float]:
    """(qq, pq, qp, pp) of the two-mode squeezed vacuum."""
    s = math.sinh(2.0 * squeezing) / 2.0
    return s, 0.0, 0.0, -s


def _quantum(data: dict, x1: float, x2: float) -> float:
    if data["kind"] == "SPIN_CHSH":
        return -math.cos(x1 - x2)
    qq, pq, qp, pp = _moments(data["state"]["squeezing"])
    c1, s1, c2, s2 = math.cos(x1), math.sin(x1), math.cos(x2), math.sin(x2)
    return qq * c1 * c2 - pq * s1 * c2 - qp * c1 * s2 + pp * s1 * s2


def _variance(data: dict, x1: float, x2: float) -> float:
    """Variance of one draw of xi1 * xi2 under the model the CLI builds."""
    if data["kind"] == "SPIN_CHSH":
        # Three equally weighted atoms with products -3 a_k b_k; a_y = b_y = 0.
        products = (-3 * math.sin(x1) * math.sin(x2), 0.0, -3 * math.cos(x1) * math.cos(x2))
        mean = sum(products) / 3
        return sum(p * p for p in products) / 3 - mean * mean
    # Gaussian pair with GENERAL coefficients: u = rows of the moment block
    # rotated by x1, v = (cos x2, -sin x2). Var = |u|^2 |v|^2 + (u . v)^2.
    qq, pq, qp, pp = _moments(data["state"]["squeezing"])
    c1, s1, c2, s2 = math.cos(x1), math.sin(x1), math.cos(x2), math.sin(x2)
    u = (qq * c1 - pq * s1, qp * c1 - pp * s1)
    v = (c2, -s2)
    dot = u[0] * v[0] + u[1] * v[1]
    return (u[0] ** 2 + u[1] ** 2) * (v[0] ** 2 + v[1] ** 2) + dot * dot


def _close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol


def check_csv(workload: Workload, data: dict, text: str) -> list[str]:
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != CSV_HEADER:
        return [f"csv header is {rows[0] if rows else None!r}"]
    expected = setting_pairs(data)
    if len(rows) - 1 != len(expected):
        return [f"csv has {len(rows) - 1} rows, expected {len(expected)}"]
    failures = []
    for i, (fields, (e1, e2)) in enumerate(zip(rows[1:], expected)):
        try:
            x1, x2, quantum, exact, mc, stderr, z = (float(f) for f in fields)
        except ValueError:
            failures.append(f"row {i}: unparsable fields {fields!r}")
            continue
        if not (_close(x1, e1, GRID_TOL) and _close(x2, e2, GRID_TOL)):
            failures.append(f"row {i}: settings ({x1}, {x2}), expected ({e1}, {e2})")
        if not _close(quantum, _quantum(data, x1, x2)):
            failures.append(f"row {i}: quantum {quantum!r}, closed form {_quantum(data, x1, x2)!r}")
        if not _close(exact, quantum):
            failures.append(f"row {i}: lhv_exact {exact!r} vs quantum {quantum!r}")
        if workload.statistical:
            analytic = math.sqrt(_variance(data, x1, x2) / data["samples"])
            if not abs(stderr - analytic) <= STDERR_RTOL * analytic + STDERR_ATOL:
                failures.append(f"row {i}: stderr {stderr!r}, analytic {analytic!r}")
            if not abs(z) <= MAX_ABS_Z:
                failures.append(f"row {i}: |z| = {abs(z)!r} > {MAX_ABS_Z}")
        if len(failures) > 20:
            failures.append("more row failures omitted")
            break
    return failures


def check_summary(workload: Workload, data: dict, text: str, csv_text: str) -> list[str]:
    failures = []
    try:
        summary = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        failures.append(f"{FORMAT_PREFIX}summary.json is not standard JSON: {exc}")
        summary = json.loads(text)
    if summary.get("consistency_pass") is not True:
        failures.append(f"summary consistency_pass is {summary.get('consistency_pass')!r}")
    bound = summary.get("sup_bound")
    if data["kind"] == "SPIN_CHSH":
        bound_ok = isinstance(bound, float) and _close(bound, math.sqrt(3.0))
    else:
        bound_ok = bound == "unbounded"
    if not bound_ok:
        failures.append(f"summary sup_bound {bound!r}")
    z_column = [abs(float(r[6])) for r in list(csv.reader(csv_text.splitlines()))[1:]]
    if z_column and summary.get("max_abs_z") != max(z_column):
        failures.append(f"summary max_abs_z {summary.get('max_abs_z')!r}, csv max {max(z_column)!r}")
    if "chsh" in data:
        c = data["chsh"]
        expected = (_quantum(data, c["a"], c["b"]) - _quantum(data, c["a"], c["b_prime"])
                    + _quantum(data, c["a_prime"], c["b"])
                    + _quantum(data, c["a_prime"], c["b_prime"]))
        for key in ("chsh_quantum", "chsh_lhv_exact"):
            value = summary.get(key)
            if not isinstance(value, float) or not _close(value, expected):
                failures.append(f"summary {key} {value!r}, closed form {expected!r}")
    return failures


def check_run(workload: Workload, data: dict, out_dir: Path, returncode: int
              ) -> tuple[list[str], str | None]:
    """Failures of one run, and the sha256 of its CSV (None if missing)."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    csv_path = out_dir / f"{data['name']}.csv"
    summary_path = out_dir / f"{data['name']}.summary.json"
    try:
        csv_bytes = csv_path.read_bytes()
        summary_text = summary_path.read_text()
    except OSError as exc:
        return [f"missing output: {exc}"], None
    csv_text = csv_bytes.decode()
    failures = check_csv(workload, data, csv_text)
    if not failures:
        failures = check_summary(workload, data, summary_text, csv_text)
    return failures, hashlib.sha256(csv_bytes).hexdigest()


def is_value_failure(failure: str) -> bool:
    return not failure.startswith(FORMAT_PREFIX)


class Tally:
    """Failures over the runs of one invocation.

    The first run's CSV hash is the reference: a later run whose CSV
    differs in any byte fails a value check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first_sha: str | None = None

    def add(self, failures: list[str], sha: str | None) -> None:
        self.attempted += 1
        if sha is not None:
            if self._first_sha is None:
                self._first_sha = sha
            elif sha != self._first_sha:
                failures = failures + ["csv bytes differ from the first run of this invocation"]
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def note(self, failure: str) -> None:
        """A value failure outside any CLI run, such as a set-up process that failed."""
        self.failures.append(failure)

    @property
    def correct(self) -> bool:
        return not any(is_value_failure(f) for f in self.failures)
