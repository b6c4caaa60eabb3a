"""End-to-end and per-layer benchmark of ``eprlab run``.

    python3 perfbench/run.py --workload mc_gauss --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is taken from
``src/`` (nothing is installed). The workload seed generates one scenario
file, which is all the CLI receives. For ``--seconds`` the benchmark
starts cold ``python -m eprlab run`` processes (one worker), checks every
output (``checks.py``) and reports medians:

``--trace 0``: the end-to-end metrics ``wall_s``, ``setup_s``,
``draws_per_s``, ``rows_per_s`` and ``peak_rss_mb``.

``--trace 1``: untraced and traced runs in turn. The traced run wraps
the calls into each eprlab module from outside (``tracing.py``); the
per-layer metrics come from the traced run of median wall time. It adds
import times from ``python -X importtime``, the workers-2 speedup of one
row, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
the runs that failed any output check; ``correct`` is false when a check
on the values themselves failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, Workload, scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: Set-up processes per invocation; setup_s is their median.
SETUP_REPS = 7
#: CLI runs per invocation at least, whatever ``--seconds`` says.
MIN_RUNS = 3
#: Draws for the workers probe at least, so that there are 16 blocks to share.
WORKERS_PROBE_DRAWS = 1 << 20
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Process:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    log: Path


def spawn(argv: list[str], log: Path) -> Process:
    """Run one child to its end; wall time from spawn to exit, peak RSS from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    with log.open("wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, usage.ru_maxrss / 1024.0, proc.returncode, log)


class Session:
    """One invocation: the generated scenario, its scratch directory and the tally."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.data = scenario(workload, seed)
        self.work = work
        self.scenario_path = work / f"{workload.name}.json"
        self.scenario_path.write_text(json.dumps(self.data, indent=2))
        self.tally = checks.Tally()
        self._runs = 0

    def child(self, *args: str) -> Process:
        self._runs += 1
        proc = spawn([sys.executable, *args], self.work / f"child{self._runs}.log")
        if proc.returncode != 0:
            self.tally.note(f"{args[:2]} exited {proc.returncode}: {proc.log.read_text()[-300:]}")
        return proc

    def cli_run(self, spans: Path | None = None) -> Process:
        self._runs += 1
        out = self.work / f"out{self._runs}"
        if spans is None:
            argv = ["-m", "eprlab", "run", str(self.scenario_path), "--out-dir", str(out)]
        else:
            argv = [str(CHILD), "traced", str(spans), str(self.scenario_path), str(out)]
        proc = spawn([sys.executable, *argv], self.work / f"run{self._runs}.log")
        failures, sha = checks.check_run(self.workload, self.data, out, proc.returncode)
        self.tally.add(failures, sha)
        shutil.rmtree(out, ignore_errors=True)
        return proc

    def setup(self) -> Process:
        return self.child(str(CHILD), "setup", str(self.scenario_path))


def end_to_end(session: Session, deadline: float, setup_reps: int) -> dict:
    walls, rss, setups = [], [], []
    while True:
        if len(setups) < setup_reps:
            setups.append(session.setup().wall_s)
        run = session.cli_run()
        walls.append(run.wall_s)
        rss.append(run.peak_rss_mb)
        pending_setups = (setup_reps - len(setups)) * statistics.median(setups)
        if (len(walls) >= MIN_RUNS
                and time.perf_counter() + statistics.median(walls) + pending_setups > deadline):
            break
    while len(setups) < setup_reps:
        setups.append(session.setup().wall_s)
    w = session.workload
    wall = statistics.median(walls)
    print(f"{len(walls)} runs, wall_s each: {' '.join(f'{x:.3f}' for x in walls)}")
    print(f"{len(setups)} set-ups, setup_s each: {' '.join(f'{x:.3f}' for x in setups)}")
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "draws_per_s": (w.rows * w.samples / wall, "1/s"),
        "rows_per_s": (w.rows / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }


def _importtime(session: Session) -> tuple[float, float]:
    """Cumulative import seconds of eprlab.cli and of scipy.special within it."""
    proc = session.child("-X", "importtime", "-c", "import eprlab.cli")
    eprlab = scipy_special = 0
    for line in proc.log.read_text().splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        package = name.strip()
        if package == "scipy.special" and not scipy_special:
            scipy_special = int(cumulative)
        # A top-level entry has one space before its name; nested ones have more.
        if name[1] != " " and package.split(".")[0] == "eprlab":
            eprlab += int(cumulative)
    return eprlab * 1e-6, scipy_special * 1e-6


def _workers_speedup(session: Session) -> float | None:
    if (os.cpu_count() or 1) < 2:
        return None
    n = max(session.workload.samples, WORKERS_PROBE_DRAWS)
    proc = session.child(str(CHILD), "workers", str(session.scenario_path), str(n), "3")
    if proc.returncode != 0:
        return None
    result = json.loads(proc.log.read_text().splitlines()[-1])
    if result.get("absent"):
        return None
    if not result["identical"]:
        session.tally.note("mc_estimate differs between workers 1 and 2")
    return result["w1_s"] / result["w2_s"]


def per_layer(session: Session, deadline: float) -> dict:
    imports = [_importtime(session) for _ in range(IMPORTTIME_REPS)]
    speedup = _workers_speedup(session)
    untraced, traced = [], []
    while True:
        pair_start = time.perf_counter()
        untraced.append(session.cli_run().wall_s)
        spans = session.work / f"spans{len(traced)}.json"
        run = session.cli_run(spans)
        layers = {}
        if spans.exists():
            dump = json.loads(spans.read_text())
            layers = tracing.layer_metrics(tracing.SpanIndex(dump["spans"], dump["absent"]))
            spans.unlink()
        traced.append((run.wall_s, layers))
        if time.perf_counter() + (time.perf_counter() - pair_start) > deadline:
            break
    walls = sorted(traced, key=lambda t: t[0])
    metrics = dict(walls[(len(walls) - 1) // 2][1])
    metrics["import.eprlab_s"] = (statistics.median(i[0] for i in imports), "s")
    metrics["import.scipy_special_s"] = (statistics.median(i[1] for i in imports), "s")
    if speedup is not None:
        metrics["estimator.workers2_speedup"] = (speedup, "ratio")
    untraced_wall = statistics.median(untraced)
    traced_wall = statistics.median(w for w, _ in traced)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    print(f"{len(traced)} traced/untraced pairs, wall_s traced {traced_wall:.3f}, "
          f"untraced {untraced_wall:.3f}")
    return metrics


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
              setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload and return the result object printed as the last line."""
    start = time.perf_counter()
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        session = Session(workload, seed, work)
        # Compiles the package's bytecode once, as an install would; not timed.
        session.child("-c", "import eprlab.cli")
        deadline = start + seconds
        if trace:
            metrics = per_layer(session, deadline)
        else:
            metrics = end_to_end(session, deadline, setup_reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = session.tally
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(f"{'failed_frac':<36} {tally.failed / max(tally.attempted, 1):>16.6g} "
          f"({tally.failed} of {tally.attempted} runs)")
    for failure in sorted(set(tally.failures))[:10]:
        print(f"failed check: {failure}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps its running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "eprlab" / "cli.py").is_file():
        print(f"error: no eprlab sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
