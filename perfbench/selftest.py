"""Self-tests of the benchmark: ``python3 -m pytest perfbench/selftest.py``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types

import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, scenario, setting_pairs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _csv(workload, data, perturb=None):
    """A CSV the checks accept: closed forms, MC at the exact value, analytic stderr."""
    lines = [",".join(checks.CSV_HEADER)]
    for i, (x1, x2) in enumerate(setting_pairs(data)):
        q = checks._quantum(data, x1, x2)
        stderr = math.sqrt(checks._variance(data, x1, x2) / data["samples"])
        quantum = q + 1e-8 if i == perturb else q
        lines.append(",".join(format(v, ".17g") for v in (x1, x2, quantum, q, q, stderr, 0.0)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_closed_forms_and_rejects_perturbed_quantum(name):
    workload = WORKLOADS[name].tiny()
    data = scenario(workload, 5)
    assert checks.check_csv(workload, data, _csv(workload, data)) == []
    failures = checks.check_csv(workload, data, _csv(workload, data, perturb=3))
    assert any("row 3: quantum" in f for f in failures)
    assert all(checks.is_value_failure(f) for f in failures)


def test_checker_rejects_wrong_row_count_and_header():
    workload = WORKLOADS["mc_spin"].tiny()
    data = scenario(workload, 5)
    text = _csv(workload, data)
    assert checks.check_csv(workload, data, text.rsplit("\n", 2)[0] + "\n")
    assert checks.check_csv(workload, data, text.replace("lhv_mc", "mc", 1))


def test_summary_with_infinity_is_a_format_failure():
    workload = WORKLOADS["dense_grid"].tiny()
    data = scenario(workload, 5)
    csv_text = _csv(workload, data).replace(",0\n", ",inf\n", 1)
    summary = json.dumps({"consistency_pass": True, "sup_bound": math.sqrt(3.0),
                          "max_abs_z": math.inf, "chsh_quantum": None, "chsh_lhv_exact": None})
    assert "Infinity" in summary
    failures = checks.check_summary(workload, data, summary, csv_text)
    assert len(failures) == 1 and not checks.is_value_failure(failures[0])
    tally = checks.Tally()
    tally.add(failures, "a")
    assert (tally.correct, tally.attempted, tally.failed) == (True, 1, 1)


def test_repeats_that_differ_in_bytes_fail():
    tally = checks.Tally()
    tally.add([], "a")
    tally.add([], "a")
    tally.add([], "b")
    assert (tally.correct, tally.attempted, tally.failed) == (False, 3, 1)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("root", 0, 100, -1, 0, 0),
        ("a", 10, 30, 0, 0, 0),
        ("b", 20, 50, 0, 0, 0),   # overlaps a: the children cover 10..50 once
        ("a", 12, 15, 1, 0, 0),   # nested in a, not a child of root
        ("c", 90, 120, 0, 0, 0),  # runs past its parent: only 90..100 counts
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 20 - 3, 30, 3, 30]
    index = tracing.SpanIndex(spans, absent=[])
    assert index.seconds("a") == pytest.approx(20e-9)  # the nested "a" is inside the outer one
    assert index.self_seconds("root") == pytest.approx(50e-9)
    assert index.calls("a", "b") == 3


def test_missing_probe_target_is_absent_not_a_crash():
    tracer = tracing.Tracer()
    cli = types.SimpleNamespace(mc_estimate=lambda *a: types.SimpleNamespace(n=7))
    absent = tracer.install({"eprlab.cli": cli})
    assert "estimator.mc_estimate" not in absent and "lhv.exact_expectation" in absent
    cli.mc_estimate()
    metrics = tracing.layer_metrics(tracing.SpanIndex(tracer.spans, absent))
    assert metrics["estimator.draws"] == (7, "count")
    assert "lhv.exact_expectation.s" not in metrics and "estimator.ndtri.s" not in metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_end_to_end(name):
    result = run.benchmark(WORKLOADS[name].tiny(), seed=3, seconds=0, trace=False, setup_reps=1)
    assert result["correct"] and result["attempted"] >= run.MIN_RUNS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if name != "dense_grid":
        assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(name):
    result = run.benchmark(WORKLOADS[name].tiny(), seed=3, seconds=0, trace=True)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    spin = WORKLOADS[name].kind == "SPIN_CHSH"
    assert (metrics["estimator.ndtri.calls"] == 0) == spin
    assert (metrics["operators.calls"] == 0) == (not spin)
    assert (metrics["gaussian.state.s"] == 0) == spin


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_gauss",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_the_workloads_run_py_runs():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
