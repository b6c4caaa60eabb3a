import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from eprlab import (
    ConsistencyError,
    MomentMatrix,
    QuadratureSetting,
    cli,
    correlators,
    exact_expectation,
    free_evolution_model,
    mc_estimate,
    quadrature_correlation,
    quadrature_model,
    spin_correlation,
    unbounded_spin_model,
)
from eprlab.estimator import BLOCK_DRAWS, MAX_WORKERS

SCENARIOS = Path(__file__).parent.parent / "scenarios"

#: sha256 of the bundled outputs. A change that alters the Monte Carlo
#: stream or the output format on purpose updates these and says so. Taken
#: with rows keyed by (seed, row) and finite rows reduced from atom counts.
BUNDLED_SHA256 = {
    "spin_chsh.csv": "cb2278e6237f92792b5c9bdda98810063af4cc147a4d9b7577b679f158775cff",
    "spin_chsh.summary.json": "6761085e2b5220e4c86b51c3a64e0182fafe14810d7839e27c9df1bba0ab2ba1",
    "epr_quadrature.csv": "73011857a8430bf5b1c6b19e042fb96510b0be69763a97bfb9271946a940c0a2",
    "epr_quadrature.summary.json":
        "10e2434013be06b93b8766065d931e109b9498510a2c234dc6cf25aff9aefeed",
    "free_evolution.csv": "a315eed4f06a3ebcb68e102a1e0a1dc516e796e2fbc4a8f899a36615d6706aff",
    "free_evolution.summary.json":
        "3b0f34988b6908e7bdd63b2df0a5e52d5d304b7e4145c422c925b434be5bec67",
}

#: sha256 of the bundled scenarios' stdout tables without their last line,
#: which names the output directory. Taken with the bundled hashes above.
BUNDLED_STDOUT_SHA256 = {
    "spin_chsh": "ff34c995e4b14fbe7c89ba0cdbf1c5f98375ab78080be1e90460c5d3f5238ae9",
    "epr_quadrature": "ba0ea268a18a9984b92d2e85478dc1956042f85ad61445c7811de19a067dde8a",
    "free_evolution": "04820f18aeff5ccd9c681a1e95a5c95bd38297cfd61803296e0ec3387d91899c",
}

#: sha256 of the CSV of SQUEEZING_0_SCAN, taken while GaussianState still
#: carried a mean. tmsv(0) stores cov[p1, p2] = -0.0; no field may print "-0".
SQUEEZING_0_CSV_SHA256 = "130cb08abaa50f860b36375c3a5c8d4f49a6bc99a34d05dd64f215cd4e50d054"
SQUEEZING_0_SCAN = {
    "kind": "EPR_QUADRATURE", "name": "squeezing_0", "state": {"squeezing": 0.0},
    "settings": {"setting1": {"start": -3.0, "stop": 3.0, "count": 13},
                 "setting2": {"start": -3.0, "stop": 3.0, "count": 13}},
    "samples": 50, "seed": 3,
}


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def table_sha256(capsys):
    """sha256 of the captured stdout without its last line, "wrote <csv> and <summary>"."""
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[-1].startswith("wrote ")
    return hashlib.sha256("".join(lines[:-1]).encode()).hexdigest()


class TestBundledScenarios:
    def test_spin_chsh(self, tmp_path):
        assert run_cli(["run", SCENARIOS / "spin_chsh.json", "--out-dir", tmp_path]) == 0
        summary = json.loads((tmp_path / "spin_chsh.summary.json").read_text())
        assert abs(abs(summary["chsh_quantum"]) - 2.0 * math.sqrt(2.0)) < 1e-9
        assert abs(summary["chsh_quantum"] - summary["chsh_lhv_exact"]) < 1e-10
        assert abs(summary["sup_bound"] - math.sqrt(3.0)) < 1e-12
        assert summary["consistency_pass"] is True
        assert summary["max_abs_z"] <= 5.0

    def test_epr_quadrature(self, tmp_path):
        assert run_cli(["run", SCENARIOS / "epr_quadrature.json", "--out-dir", tmp_path]) == 0
        summary = json.loads((tmp_path / "epr_quadrature.summary.json").read_text())
        assert summary["sup_bound"] == "unbounded"
        assert summary["consistency_pass"] is True
        assert summary["max_abs_z"] <= 5.0
        rows = (tmp_path / "epr_quadrature.csv").read_text().strip().splitlines()
        assert rows[0] == "setting1,setting2,quantum,lhv_exact,lhv_mc,stderr,z"
        assert len(rows) == 6
        # quantum column follows qq * cos(alpha1) with alpha2 = 0
        qq = math.sinh(2.0) / 2.0
        for line in rows[1:]:
            fields = line.split(",")
            alpha1 = float(fields[0])
            assert abs(float(fields[2]) - qq * math.cos(alpha1)) < 1e-12

    def test_free_evolution(self, tmp_path):
        assert run_cli(["run", SCENARIOS / "free_evolution.json", "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "free_evolution.csv").read_text().strip().splitlines()
        values = {tuple(float(f) for f in line.split(",")[:2]): float(line.split(",")[2])
                  for line in rows[1:]}
        assert values[(0.0, 0.0)] == 1.0
        assert values[(1.0, 1.0)] == 10.0
        assert values[(2.0, 3.0)] == 38.0

    def test_outputs_match_pinned_hashes(self, tmp_path):
        for name in ("spin_chsh", "epr_quadrature", "free_evolution"):
            assert run_cli(["run", SCENARIOS / f"{name}.json", "--out-dir", tmp_path]) == 0
        for filename, expected in BUNDLED_SHA256.items():
            digest = hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
            assert digest == expected, filename

    @pytest.mark.parametrize("name", sorted(BUNDLED_STDOUT_SHA256))
    def test_stdout_table_matches_pinned_hash(self, tmp_path, capsys, name):
        assert run_cli(["run", SCENARIOS / f"{name}.json", "--out-dir", tmp_path]) == 0
        assert table_sha256(capsys) == BUNDLED_STDOUT_SHA256[name]

    def test_squeezing_zero_scan_matches_pinned_hash(self, tmp_path):
        assert run_cli(["run", write_scenario(tmp_path, SQUEEZING_0_SCAN),
                        "--out-dir", tmp_path]) == 0
        digest = hashlib.sha256((tmp_path / "squeezing_0.csv").read_bytes()).hexdigest()
        assert digest == SQUEEZING_0_CSV_SHA256


class TestStreamKeys:
    def test_rows_of_adjacent_seeds_draw_from_different_streams(self, tmp_path):
        # Keyed by seed + row index, row 1 at seed 7 was row 0 at seed 8.
        pairs = {"pairs": [[0.3, 1.1], [0.3, 1.1]]}
        for seed in (7, 8):
            path = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "name": f"seed{seed}",
                                             "settings": pairs, "samples": 1000, "seed": seed})
            assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        seed7, seed8 = read_columns(tmp_path / "seed7.csv"), read_columns(tmp_path / "seed8.csv")
        assert seed7[1][4:6] != seed8[0][4:6]
        # Row r draws from the stream keyed by seed + (r << 64); row 0 keeps the seed's own.
        model = unbounded_spin_model()
        a, b = cli._spin_direction(0.3), cli._spin_direction(1.1)
        for row, key in ((0, 7), (1, 7 + (1 << 64))):
            est = mc_estimate(model, a, b, 1000, key)
            assert seed7[row][4:6] == [est.mean, est.stderr]


class TestDeterminism:
    @pytest.mark.parametrize("name", ["spin_chsh", "epr_quadrature", "free_evolution"])
    def test_byte_identical_reruns(self, tmp_path, name):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", SCENARIOS / f"{name}.json", "--out-dir", out1]) == 0
        assert run_cli(["run", SCENARIOS / f"{name}.json", "--out-dir", out2]) == 0
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
        assert (out1 / f"{name}.summary.json").read_bytes() == \
            (out2 / f"{name}.summary.json").read_bytes()

    def test_byte_identical_across_workers(self, tmp_path):
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        scenario = SCENARIOS / "epr_quadrature.json"
        assert run_cli(["run", scenario, "--out-dir", out1, "--workers", 1]) == 0
        assert run_cli(["run", scenario, "--out-dir", out4, "--workers", 4]) == 0
        assert (out1 / "epr_quadrature.csv").read_bytes() == \
            (out4 / "epr_quadrature.csv").read_bytes()


    @pytest.mark.parametrize("cpus", [None, 3])
    def test_default_workers_write_the_same_bytes_as_one_worker(self, tmp_path, monkeypatch,
                                                                cpus):
        # Three rows of three blocks each, so that several workers share them.
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE",
                                         "state": {"squeezing": 0.6},
                                         "settings": {"pairs": [[0.1, 0.2], [1.0, -0.5],
                                                                [2.0, 3.0]]},
                                         "samples": 2 * BLOCK_DRAWS + 7, "seed": 21})
        if cpus is not None:
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert run_cli(["run", path, "--out-dir", tmp_path / "w1", "--workers", 1]) == 0
        assert run_cli(["run", path, "--out-dir", tmp_path / "default"]) == 0
        for name in ("scenario.csv", "scenario.summary.json"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "default" / name).read_bytes()

    def test_default_workers_is_the_usable_cpu_count(self, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: seen.update(kwargs) or 0)
        assert run_cli(["run", SCENARIOS / "spin_chsh.json"]) == 0
        assert seen["workers"] == cli._usable_cpus() >= 1
        if hasattr(os, "sched_getaffinity"):
            assert cli._usable_cpus() == len(os.sched_getaffinity(0))


class TestScansAndOverrides:
    def test_two_by_two_scan(self, tmp_path):
        path = write_scenario(tmp_path, {
            "kind": "EPR_QUADRATURE",
            "state": {"squeezing": 0.5},
            "settings": {
                "setting1": {"start": 0.0, "stop": 1.0, "count": 2},
                "setting2": {"start": 0.0, "stop": 2.0, "count": 2},
            },
            "samples": 1000,
            "seed": 3,
        })
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "scenario.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        # outer loop is setting1
        firsts = [float(r.split(",")[0]) for r in rows]
        assert firsts == [0.0, 0.0, 1.0, 1.0]

    def test_spin_scan_aligned_and_antialigned(self, tmp_path):
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "settings": {
                "setting1": {"value": 0.0},
                "setting2": {"start": 0.0, "stop": math.pi, "count": 2},
            },
            "samples": 1000,
            "seed": 5,
        })
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "scenario.csv").read_text().strip().splitlines()[1:]
        quantum = [float(r.split(",")[2]) for r in rows]
        assert abs(quantum[0] + 1.0) < 1e-12
        assert abs(quantum[1] - 1.0) < 1e-12

    def test_vacuum_has_zero_correlations(self, tmp_path):
        path = write_scenario(tmp_path, {
            "kind": "EPR_QUADRATURE",
            "state": {"squeezing": 0.0},
            "settings": {"pairs": [[0.0, 0.0], [0.3, 1.2]]},
            "samples": 1000,
            "seed": 9,
        })
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        for line in (tmp_path / "scenario.csv").read_text().strip().splitlines()[1:]:
            fields = [float(f) for f in line.split(",")]
            assert fields[2] == 0.0 and fields[3] == 0.0

    def test_seed_and_samples_overrides(self, tmp_path):
        scenario = SCENARIOS / "free_evolution.json"
        base, reseeded, resampled = tmp_path / "base", tmp_path / "s", tmp_path / "n"
        assert run_cli(["run", scenario, "--out-dir", base]) == 0
        assert run_cli(["run", scenario, "--out-dir", reseeded, "--seed", 12345]) == 0
        assert run_cli(["run", scenario, "--out-dir", resampled, "--samples", 5000]) == 0
        read = lambda d: (d / "free_evolution.csv").read_text()
        assert read(base) != read(reseeded)
        assert read(base) != read(resampled)


class TestInputErrors:
    def test_missing_file(self, tmp_path):
        assert run_cli(["run", tmp_path / "absent.json"]) == 1

    @pytest.mark.parametrize("workers", [0, MAX_WORKERS + 1, 10**9, 2**63])
    def test_worker_counts_outside_the_cap_exit_one_before_any_thread(
            self, tmp_path, monkeypatch, capsys, workers):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        # Three rows of three blocks each: nine tiles, so threads would start.
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE",
                                         "state": {"squeezing": 0.6},
                                         "settings": {"pairs": [[0.1, 0.2], [1.0, -0.5],
                                                                [2.0, 3.0]]},
                                         "samples": 2 * BLOCK_DRAWS + 7, "seed": 21})
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out-dir", out, "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: workers must be an integer in [1, ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["run", path]) == 1

    def test_unknown_kind(self, tmp_path):
        path = write_scenario(tmp_path, {"kind": "NOPE", "settings": {"pairs": [[0, 0]]},
                                         "samples": 10, "seed": 0})
        assert run_cli(["run", path]) == 1

    def test_scan_count_below_two(self, tmp_path):
        path = write_scenario(tmp_path, {
            "kind": "FREE_EVOLUTION",
            "state": {"moments": {"qq": 1.0, "pq": 0.0, "qp": 0.0, "pp": 0.0}},
            "settings": {"setting1": {"start": 0.0, "stop": 1.0, "count": 1},
                         "setting2": {"value": 0.0}},
            "samples": 10,
            "seed": 0,
        })
        assert run_cli(["run", path]) == 1

    def test_scan_degenerate_range(self, tmp_path):
        path = write_scenario(tmp_path, {
            "kind": "FREE_EVOLUTION",
            "state": {"moments": {"qq": 1.0, "pq": 0.0, "qp": 0.0, "pp": 0.0}},
            "settings": {"setting1": {"start": 1.0, "stop": 1.0, "count": 3},
                         "setting2": {"value": 0.0}},
            "samples": 10,
            "seed": 0,
        })
        assert run_cli(["run", path]) == 1

    def test_spin_scenario_rejects_state(self, tmp_path):
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "state": {"squeezing": 1.0},
            "settings": {"pairs": [[0.0, 0.0]]},
            "samples": 10,
            "seed": 0,
        })
        assert run_cli(["run", path]) == 1

    def test_free_evolution_rejects_chsh_block(self, tmp_path):
        path = write_scenario(tmp_path, {
            "kind": "FREE_EVOLUTION",
            "state": {"moments": {"qq": 1.0, "pq": 0.0, "qp": 0.0, "pp": 0.0}},
            "settings": {"pairs": [[0.0, 0.0]]},
            "samples": 10,
            "seed": 0,
            "chsh": {"a": 0.0, "a_prime": 1.0, "b": 0.5, "b_prime": 1.5},
        })
        assert run_cli(["run", path]) == 1

    def test_unknown_top_level_key(self, tmp_path):
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH",
                                         "settings": {"pairs": [[0.0, 0.0]]},
                                         "samples": 10, "seed": 0, "extra": 1})
        assert run_cli(["run", path]) == 1

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", "back\\slash", "nul\0byte",
                                      ".", ".."])
    def test_name_must_be_one_path_component(self, tmp_path, name):
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "name": name,
                                         "settings": {"pairs": [[0.0, 0.0]]},
                                         "samples": 10, "seed": 0})
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_the_first_invalid_setting_in_row_order_is_reported(self, tmp_path, capsys):
        # Settings are made column by column within a chunk, setting1 first,
        # each column in row order: -inf is met before inf, whose bits sort first.
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.5}, "samples": 10, '
                        '"seed": 0, "settings": {"pairs": [[0.5, Infinity], [-Infinity, 0.0], '
                        '[Infinity, 0.0]]}}')
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: quadrature angle must be finite, got -inf\n"

    def test_missing_samples(self, tmp_path):
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH",
                                         "settings": {"pairs": [[0.0, 0.0]]},
                                         "seed": 0})
        assert run_cli(["run", path]) == 1

    def test_overflowing_squeezing_exits_one(self, tmp_path):
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE",
                                         "state": {"squeezing": 1000},
                                         "settings": {"pairs": [[0.0, 0.0]]},
                                         "samples": 10, "seed": 0})
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(path), "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_overflowing_results_exit_one(self, tmp_path):
        # r = 355 is a valid state, but its moments (~1e308) overflow the
        # Monte Carlo products to inf and nan.
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE",
                                         "state": {"squeezing": 355},
                                         "settings": {"pairs": [[0.0, 0.0], [0.3, 1.2]]},
                                         "samples": 10, "seed": 0})
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(path), "--out-dir", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "error: row 0 " in result.stderr
        assert "lhv_mc is inf" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("settings,samples,workers", [
        ({"pairs": [[0.0, 0.0], [0.3, 1.2]]}, 10, 1),
        ({"setting1": {"start": 0.0, "stop": 1.0, "count": 40}, "setting2": {"value": 0.3}},
         10, 1),
        ({"pairs": [[0.0, 0.0]]}, BLOCK_DRAWS + 1, 2),
    ], ids=["per_row", "batched", "two_blocks_two_workers"])
    def test_overflow_prints_only_the_error_line(self, tmp_path, settings, samples, workers):
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE",
                                         "state": {"squeezing": 355},
                                         "settings": settings,
                                         "samples": samples, "seed": 0})
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(path), "--out-dir", str(tmp_path / "out"),
             "--workers", str(workers)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: row 0 ")

    def test_overflowing_sum_of_finite_blocks_exits_one(self, tmp_path):
        # Each block's sum of x is finite (about 1e308); their total is not.
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE",
                                         "state": {"squeezing": 349.74},
                                         "settings": {"pairs": [[0.0, 0.0]]},
                                         "samples": 2 * BLOCK_DRAWS, "seed": 0})
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(path), "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: row 0 ") and "lhv_mc is inf" in lines[0]

    def test_out_dir_that_is_a_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert run_cli(["run", SCENARIOS / "free_evolution.json", "--out-dir", blocker]) == 1
        assert "error: cannot write the outputs" in capsys.readouterr().err


class TestDrawLimit:
    def test_scenario_over_the_limit_exits_one_before_any_row(self, tmp_path, monkeypatch,
                                                               capsys):
        def no_rows(scenario):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(cli, "MAX_DRAWS", 30)
        pairs = {"pairs": [[0.0, 0.5], [1.0, 2.0], [0.3, -0.1]]}
        at_cap = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": pairs,
                                           "samples": 10, "seed": 0})
        assert run_cli(["run", at_cap, "--out-dir", tmp_path / "ok"]) == 0
        monkeypatch.setattr(cli, "_build_engine", no_rows)
        over = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": pairs,
                                         "samples": 11, "seed": 0}, name="over.json")
        for args in ([over], [at_cap, "--samples", 11]):
            out = tmp_path / "out"
            assert run_cli(["run", *args, "--out-dir", out]) == 1
            err = capsys.readouterr().err
            assert err == "error: 3 rows of 11 samples ask for 33 draws, more than " \
                          "MAX_DRAWS = 30\n"
            assert not out.exists()


class TestRowLimit:
    @pytest.mark.parametrize("count1,count2", [(10**15, 2), (2, 10**15), (1 << 11, 1 << 10)],
                             ids=["axis1", "axis2", "product"])
    def test_scan_over_the_limit_exits_one_before_building_rows(self, tmp_path, capsys,
                                                                 count1, count2):
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "settings": {"setting1": {"start": 0.0, "stop": 1.0, "count": count1},
                         "setting2": {"start": 0.0, "stop": 1.0, "count": count2}},
            "samples": 10,
            "seed": 0,
        })
        assert count1 * count2 > cli.MAX_ROWS
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{count1 * count2} rows" in err
        assert not (tmp_path / "out").exists()

    def test_value_axis_counts_one_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ROWS", 3)
        axis = {"start": 0.0, "stop": 1.0, "count": 3}
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH", "settings": {"setting1": axis, "setting2": {"value": 0.5}},
            "samples": 10, "seed": 0})
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH", "settings": {"setting1": axis, "setting2": axis},
            "samples": 10, "seed": 0})
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 1

    def test_pairs_over_the_limit_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_ROWS", 3)
        for pairs, code in ((3, 0), (4, 1)):
            path = write_scenario(tmp_path, {
                "kind": "SPIN_CHSH", "settings": {"pairs": [[0.1 * i, 0.2] for i in range(pairs)]},
                "samples": 10, "seed": 0})
            assert run_cli(["run", path, "--out-dir", tmp_path]) == code
        assert "error: 'settings' asks for 4 rows, more than MAX_ROWS = 3" in \
            capsys.readouterr().err


class TestAtomicOutputs:
    def test_failed_write_keeps_earlier_outputs(self, tmp_path, monkeypatch):
        scenario = SCENARIOS / "free_evolution.json"
        assert run_cli(["run", scenario, "--out-dir", tmp_path]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_writer(fh, rows):
            fh.write("setting1,setting2\n0,")
            raise OSError("no space left on device")
        monkeypatch.setattr(cli, "_write_csv", failing_writer)
        assert run_cli(["run", scenario, "--out-dir", tmp_path, "--seed", 99]) == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_summary_write_keeps_earlier_csv(self, tmp_path, monkeypatch):
        scenario = SCENARIOS / "free_evolution.json"
        assert run_cli(["run", scenario, "--out-dir", tmp_path]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_writer(fh, summary):
            raise OSError("no space left on device")
        monkeypatch.setattr(cli, "_write_summary", failing_writer)
        assert run_cli(["run", scenario, "--out-dir", tmp_path, "--seed", 99]) == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


#: sha256 of the stdout tables of the chunk-boundary scans, by row count,
#: without their last line. Taken with rows keyed by (seed, row).
CHUNK_SCAN_STDOUT_SHA256 = {
    255: "fc834444ed65d896b9045269ac6ce58c3a0e762fd2d0d1835a80e5cb91495f8a",
    256: "8ff9f4184b4f9d6205075658b0d2527b832f240326e1c67c4922ead73e1de6af",
    257: "82e1f9191060fc4d2a006f0b197f98684daef7babcc0b32a0bf5bc6134156053",
}


def read_columns(path):
    """The CSV's rows as lists of floats, parsed back exactly."""
    lines = path.read_text().strip().splitlines()[1:]
    return [[float(f) for f in line.split(",")] for line in lines]


def bits(values):
    return [float(v).hex() for v in values]


#: Doubles at the edges of what the output formats meet: signed zeros and
#: infinities, NaN, the smallest subnormal and the largest double, and values
#: where %g switches between fixed and exponent notation.
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.max,
               -sys.float_info.max, sys.float_info.min, 1.0, -1.5, 0.1, 1 / 3, 2.5e-5, 1e-4,
               999999.5, 1e6, 123456.789, 1e16, 1e17, -1e21, 0.005, 0.015, 0.125, 9.995]
EDGE_ROWS = [tuple(EDGE_VALUES[(i + k) % len(EDGE_VALUES)] for k in range(len(cli.CSV_COLUMNS)))
             for i in range(len(EDGE_VALUES))] + \
            [(v,) * len(cli.CSV_COLUMNS) for v in EDGE_VALUES]


class TestOutputLines:
    def test_csv_equals_the_csv_module_with_format(self):
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(cli.CSV_COLUMNS)
        for row in EDGE_ROWS:
            writer.writerow(format(v, ".17g") for v in row)
        got = io.StringIO(newline="")
        cli._write_csv(got, iter(EDGE_ROWS))
        assert got.getvalue() == want.getvalue()

    def test_table_line_equals_the_f_string_line(self):
        for r in EDGE_ROWS:
            assert cli._TABLE_LINE % r == \
                f"{r[0]:>12.6g} {r[1]:>12.6g} {r[2]:>12.6g} {r[3]:>12.6g} " \
                f"{r[4]:>12.6g} {r[5]:>10.3g} {r[6]:>7.2f}\n"

    def test_rows_are_tuples_of_the_table_rows_across_chunks(self):
        table = np.arange(7.0 * (cli.EVAL_CHUNK_ROWS + 3)).reshape(-1, 7)
        table[1, 2] = -0.0
        rows = list(cli._rows(table))
        assert all(type(row) is tuple for row in rows)
        assert [bits(row) for row in rows] == [bits(row) for row in table.tolist()]


class TestFiniteCheck:
    @pytest.mark.parametrize("bad,named", [
        ({(2, 5): math.nan, (3, 2): math.inf}, "row 2 (setting1 = 2.0, setting2 = -0.0): "
                                               "stderr is nan"),
        ({(1, 4): -math.inf, (1, 3): math.inf}, "row 1 (setting1 = 1.0, setting2 = -0.0): "
                                                "lhv_exact is inf"),
    ])
    def test_names_the_first_bad_row_and_column(self, bad, named):
        table = np.zeros((5, len(cli.CSV_COLUMNS)))
        table[:, 0] = np.arange(5)
        table[:, 1] = -0.0
        table[:, 6] = math.inf  # an infinite z is legal
        cli._check_finite(table)
        for index, value in bad.items():
            table[index] = value
        with pytest.raises(cli.ScenarioError) as raised:
            cli._check_finite(table)
        assert str(raised.value) == f"{named}; the scenario's values overflow double precision"


class TestTinySqueezing:
    def test_rows_scale_exactly_and_keep_finite_z(self, tmp_path):
        # At squeezing 2**-600, x * x underflows unless the rows are rescaled;
        # the stderr then read 0 and z +-inf. Both rows scale exactly from 2**-100.
        def run(name, squeezing):
            path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE", "name": name,
                                             "state": {"squeezing": squeezing},
                                             "settings": {"pairs": [[0.0, 0.0], [0.3, 1.1]]},
                                             "samples": 1000, "seed": 5}, f"{name}.json")
            assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
            return read_columns(tmp_path / f"{name}.csv")

        small, large = run("small", 2.0**-600), run("large", 2.0**-100)
        for s, l in zip(small, large):
            assert bits(s[4:6]) == bits(math.ldexp(v, -500) for v in l[4:6])
            assert s[5] > 0.0 and math.isfinite(s[6])

    def test_unequal_parties_are_not_scaled_into_overflow(self, tmp_path):
        # Party features of about 0.25 and 1e153 multiply to more than 1, so
        # the rows are not scaled; doubling the small party would make x * x
        # overflow. Values from before any rescaling.
        path = write_scenario(tmp_path, {"kind": "FREE_EVOLUTION", "name": "unequal",
                                         "state": {"moments": {"qq": 0.25, "pq": 0.05,
                                                               "qp": 0.05, "pp": 0.25}},
                                         "settings": {"pairs": [[0.0, 1e153], [1e153, 0.0]]},
                                         "samples": 1000, "seed": 5})
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        rows = read_columns(tmp_path / "unequal.csv")
        assert [row[4:6] for row in rows] == [[5.9229566010658152e+151, 8.2424491088687506e+150],
                                              [5.5691547779052113e+151, 7.732715833647812e+150]]


class TestGridEvaluation:
    def test_spin_pairs_match_scalar_calls_bit_for_bit(self, tmp_path):
        pairs = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.3, -0.0],
                 [-0.0, 1.2], [0.3, 1.2], [0.3, 1.2], [math.pi / 2, -math.pi / 2],
                 [-0.0, math.pi], [0.0, 0.0]]
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": {"pairs": pairs},
                                         "samples": 10, "seed": 4})
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        rows = read_columns(tmp_path / "scenario.csv")
        assert bits(r[0] for r in rows) == bits(x1 for x1, _ in pairs)
        assert bits(r[1] for r in rows) == bits(x2 for _, x2 in pairs)
        model = unbounded_spin_model()
        directions = [(cli._spin_direction(x1), cli._spin_direction(x2)) for x1, x2 in pairs]
        assert bits(r[2] for r in rows) == bits(spin_correlation(a, b) for a, b in directions)
        assert bits(r[3] for r in rows) == \
            bits(exact_expectation(model, a, b) for a, b in directions)

    def test_each_distinct_setting_is_built_once(self, tmp_path, monkeypatch):
        built = []

        def direction(theta):
            built.append(theta.hex())
            return cli.UnitVector3(math.sin(theta), 0.0, math.cos(theta))

        monkeypatch.setattr(cli, "_spin_direction", direction)
        pairs = [[0.0, 0.5], [-0.0, 0.5], [0.5, 0.0], [0.0, -0.0], [0.5, 0.5]]
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": {"pairs": pairs},
                                         "samples": 10, "seed": 4,
                                         "chsh": {"a": 0.0, "a_prime": 0.5, "b": 0.5,
                                                  "b_prime": 1.0}})
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        # 0.0 and -0.0 are distinct settings; the CHSH block adds only 1.0.
        assert sorted(built) == sorted({x.hex() for x in (0.0, -0.0, 0.5, 1.0)})

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_quadrature_scan_across_chunk_boundaries(self, tmp_path, capsys, offset):
        count = cli.EVAL_CHUNK_ROWS + offset
        moments = {"qq": 0.8, "pq": -0.0, "qp": 0.25, "pp": -1.5}
        path = write_scenario(tmp_path, {
            "kind": "EPR_QUADRATURE",
            "state": {"moments": moments},
            "settings": {"setting1": {"start": -3.0, "stop": 3.0, "count": count},
                         "setting2": {"value": 0.7}},
            "samples": 2,
            "seed": 11,
        })
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        assert table_sha256(capsys) == CHUNK_SCAN_STDOUT_SHA256[count]
        rows = read_columns(tmp_path / "scenario.csv")
        assert len(rows) == count
        m = MomentMatrix(**moments)
        model = quadrature_model(m)
        settings = [(QuadratureSetting(r[0]), QuadratureSetting(r[1])) for r in rows]
        assert bits(r[2] for r in rows) == \
            bits(quadrature_correlation(m, a, b) for a, b in settings)
        assert bits(r[3] for r in rows) == \
            bits(exact_expectation(model, a, b) for a, b in settings)
        # Row streams stay keyed by (seed, row index) on both sides of a chunk boundary.
        for index in (0, count - 2, count - 1):
            a, b = settings[index]
            assert rows[index][4] == mc_estimate(model, a, b, 2, 11 + (index << 64)).mean


#: Moments whose free-evolution correlator rounds differently from the model
#: at large times, by up to 1.16e-10 at |t| = 1e3 and 1.2e-4 at |t| = 1e6.
FREE_MOMENTS = {"qq": 0.3, "pq": 0.7, "qp": -0.23, "pp": 1.1}


def free_evolution_scan(tmp_path, t):
    axis = {"start": -t, "stop": t, "count": 7}
    return write_scenario(tmp_path, {
        "kind": "FREE_EVOLUTION",
        "state": {"moments": FREE_MOMENTS},
        "settings": {"setting1": axis, "setting2": axis},
        "samples": 100,
        "seed": 5,
    })


class TestConsistencyGate:
    @pytest.mark.parametrize("t", [1e3, 1e6])
    def test_rounding_at_large_times_passes(self, tmp_path, t):
        path = free_evolution_scan(tmp_path, t)
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0

    @pytest.mark.parametrize("t", [1e3, 1e6])
    def test_perturbed_model_at_large_times_exits_two(self, tmp_path, monkeypatch, t):
        moments = MomentMatrix(**FREE_MOMENTS)
        perturbed = dataclasses.replace(moments, pp=moments.pp * (1.0 + 1e-8))
        monkeypatch.setattr(cli, "free_evolution_model", lambda m: free_evolution_model(perturbed))
        path = free_evolution_scan(tmp_path, t)
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 2

    def test_forced_failure_exits_two(self, tmp_path, monkeypatch):
        # impossible tolerance forces the row consistency check to fail
        monkeypatch.setattr(cli, "CONSISTENCY_TOL", -1.0)
        code = run_cli(["run", SCENARIOS / "free_evolution.json", "--out-dir", tmp_path])
        assert code == 2
        summary = json.loads((tmp_path / "free_evolution.summary.json").read_text())
        assert summary["consistency_pass"] is False

    def test_correlator_cross_check_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        def mismatch(a, b):
            raise ConsistencyError("spin correlator mismatch")
        monkeypatch.setattr(cli, "spin_correlation", mismatch)
        code = run_cli(["run", SCENARIOS / "spin_chsh.json", "--out-dir", tmp_path])
        assert code == 2
        assert "error: spin correlator mismatch" in capsys.readouterr().err

    def test_batched_cross_check_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        # Without a chsh block only the batched row correlator runs.
        monkeypatch.setattr(correlators, "SPIN_CONSISTENCY_TOL", -1.0)
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH",
                                         "settings": {"pairs": [[0.0, 0.5], [1.0, 2.0]]},
                                         "samples": 10, "seed": 0})
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out-dir", out]) == 2
        assert "error: spin correlator mismatch at row 0" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(SCENARIOS / "free_evolution.json"),
             "--out-dir", str(tmp_path), "--samples", "1000"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "free_evolution.csv").exists()

    def test_batched_spin_run_never_imports_numpy_random(self, tmp_path):
        # Batched rows draw their words from the vectorised Philox, not numpy.random.
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "settings": {"setting1": {"start": 0.0, "stop": 3.0, "count": 8},
                         "setting2": {"start": -1.0, "stop": 2.0, "count": 8}},
            "samples": 2, "seed": 5})
        code = (
            "import sys, eprlab.cli\n"
            f"code = eprlab.cli.main(['run', {str(path)!r}, '--out-dir', {str(tmp_path)!r}])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_spin_run_never_imports_scipy(self, tmp_path):
        # scipy.special is loaded only when a Gaussian model is sampled.
        code = (
            "import sys, eprlab, eprlab.cli\n"
            f"code = eprlab.cli.main(['run', {str(SCENARIOS / 'spin_chsh.json')!r},"
            f" '--out-dir', {str(tmp_path)!r}, '--samples', '1000'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("name", sorted(BUNDLED_STDOUT_SHA256))
    def test_program_entry_writes_what_an_in_process_run_writes(self, tmp_path, capsys, name):
        scenario = SCENARIOS / f"{name}.json"
        # Unbuffered, so that every write is its own system call on the pipe.
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(scenario),
             "--out-dir", str(tmp_path / "entry")],
            capture_output=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert run_cli(["run", scenario, "--out-dir", tmp_path / "in_process"]) == 0
        for filename in (f"{name}.csv", f"{name}.summary.json"):
            assert (tmp_path / "entry" / filename).read_bytes() == \
                (tmp_path / "in_process" / filename).read_bytes(), filename
        # The last line names the output directory.
        table = lambda out: out.splitlines(keepends=True)[:-1]
        assert table(result.stdout) == table(capsys.readouterr().out.encode())

    def test_program_entry_freezes_the_collector_after_the_run(self, tmp_path):
        code = (
            "import gc, sys\n"
            "from eprlab.__main__ import main\n"
            f"sys.argv = ['eprlab', 'run', {str(SCENARIOS / 'free_evolution.json')!r},"
            f" '--out-dir', {str(tmp_path)!r}, '--samples', '1000']\n"
            "frozen = gc.get_freeze_count()\n"
            "print(main(), frozen, gc.get_freeze_count() > 0)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 0 True"

    def test_cli_main_does_not_freeze_the_collector(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert run_cli(["run", SCENARIOS / "free_evolution.json", "--out-dir", tmp_path,
                        "--samples", 1000]) == 0
        assert gc.get_freeze_count() == frozen

    def test_stdout_table_is_written_one_chunk_per_write(self, tmp_path, monkeypatch):
        class CountingStdout(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        def is_table_line(line):
            fields = line.split()
            try:
                return len([float(field) for field in fields]) == len(cli.CSV_COLUMNS)
            except ValueError:
                return False

        # The benchmark's dense_grid shape: a 72x72 spin grid at 2 samples a row.
        rows = 72 * 72
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "settings": {"setting1": {"start": 0.1, "stop": 6.2, "count": 72},
                         "setting2": {"start": 0.3, "stop": 6.4, "count": 72}},
            "samples": 2, "seed": 5})
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        table_writes = [text for text in stdout.writes
                        if any(is_table_line(line) for line in text.splitlines())]
        assert sum(is_table_line(line) for line in stdout.getvalue().splitlines()) == rows
        assert len(table_writes) <= math.ceil(rows / cli.EVAL_CHUNK_ROWS)

    def test_cli_import_loads_no_executor_or_logging(self):
        code = (
            "import sys, eprlab.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
