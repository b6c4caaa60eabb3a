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
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eprlab import (
    MomentMatrix,
    QuadratureSetting,
    cli,
    correlators,
    estimator,
    exact_expectation,
    extract_moments,
    free_evolution_model,
    mc_estimate,
    quadrature_correlation,
    quadrature_model,
    spin_correlation,
    tmsv,
    unbounded_spin_model,
)
from conftest import gaussian_row_reference
from eprlab.estimator import BLOCK_DRAWS, MAX_WORKERS

SCENARIOS = Path(__file__).parent.parent / "scenarios"

#: sha256 of the bundled outputs. A change that alters the Monte Carlo
#: stream or the output format on purpose updates these and says so. Taken
#: with rows keyed by (seed, row) and finite rows reduced from atom counts;
#: the spin ones again when finite rows first took two draws a Philox word
#: (finite stream contract v4), after every row's lhv_mc and stderr equalled
#: two passes over its draws rebuilt from numpy's Philox; the Gaussian ones
#: again when Gaussian draws first took half a word and a polynomial sine
#: (Gaussian stream contract v5), again when they first took their sine
#: from the 4096-entry table (Gaussian stream contract v6), again when
#: they first took their exponential from one too (Gaussian stream contract
#: v7), and again when they first took a quarter of a word and one of 16
#: sines (Gaussian stream contract v8), each time after
#: test_gaussian_rows_equal_the_per_draw_reference passed on them.
BUNDLED_SHA256 = {
    "spin_chsh.csv": "dc585c84e3641c177e7f6aa3419c9ea8286c6b52992e7fa07c2e8a22de95a3bc",
    "spin_chsh.summary.json": "3d49dd93c33bb955f37ffe9969d3033051c1ec1298042e1bebd779c8c7a67eda",
    "epr_quadrature.csv": "9bf2e2c95018649e42ad957b2b8d02c80e3c02eac735a444727ccc4f791224e9",
    "epr_quadrature.summary.json":
        "8488cb5e02d4555ee839ffe333857ae6462f6aec1a4e2a2828b69d3cec7ef950",
    "free_evolution.csv": "8db36e93911b5879d36c0c3d69f4fec7155a2d848712c94d9d736c41556573de",
    "free_evolution.summary.json":
        "f515af1288f005d67e23988dfe6dc3a35b9a471ec51e27d208bef9821aa992b7",
}

#: sha256 of the bundled scenarios' stdout tables without their last line,
#: which names the output directory. Taken with the bundled hashes above.
BUNDLED_STDOUT_SHA256 = {
    "spin_chsh": "73465a6917f777db6335b41bcb182be4e9850468bd9f55935c9c652d5afb4340",
    "epr_quadrature": "e9bdde92301b1ee1cdc02e3a0012ad549170ad49ce8da7796e5f1c5599144576",
    "free_evolution": "ab7242999be7fb01381b64bebe4b5f79599f47646fd600462c8df8f58bea7329",
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

#: sha256 of the summary of QUADRATURE_CHSH, whose CHSH value is 5.12915518 on
#: both sides. Taken while the CHSH block still summed the one-pair correlator
#: and the one-pair exact expectation, not four rows of the chunk evaluator,
#: and again under Gaussian stream contracts v5, v6, v7 and v8, after each of
#: its rows equalled ``gaussian_row_reference`` bit for bit.
QUADRATURE_CHSH_SUMMARY_SHA256 = "b0f8f87082b4bc2d2644aa7ebe62a7ca9c8be7e485a0094dcfd26fca0c33c6c8"
QUADRATURE_CHSH = {
    "kind": "EPR_QUADRATURE", "name": "quadrature_chsh", "state": {"squeezing": 1.0},
    "settings": {"setting1": {"start": -0.0, "stop": 3.0, "count": 4},
                 "setting2": {"start": 0.0, "stop": 3.0, "count": 4}},
    "samples": 1000, "seed": 11,
    "chsh": {"a": -0.0, "a_prime": 1.5707963267948966, "b": -0.7853981633974483,
             "b_prime": -2.356194490192345},
}


#: Moments of a FREE_EVOLUTION state whose rows overflow at times of about 1e300.
FREE_MOMENTS = {"qq": 0.25, "pq": 0.05, "qp": 0.05, "pp": 0.25}


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def stdout_table(out: str) -> str:
    """A run's stdout without its last line, "wrote <csv> and <summary>"."""
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("wrote ")
    return "".join(lines[:-1])


def table_sha256(capsys):
    """sha256 of the captured stdout without its last line."""
    return hashlib.sha256(stdout_table(capsys.readouterr().out).encode()).hexdigest()


def strict_json(text: str):
    """``text`` parsed as standard JSON: an ``Infinity`` or ``NaN`` in it fails."""
    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")
    return json.loads(text, parse_constant=reject)


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

    def test_quadrature_chsh_summary_matches_pinned_hash(self, tmp_path):
        assert run_cli(["run", write_scenario(tmp_path, QUADRATURE_CHSH),
                        "--out-dir", tmp_path]) == 0
        summary = (tmp_path / "quadrature_chsh.summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == QUADRATURE_CHSH_SUMMARY_SHA256
        assert json.loads(summary)["chsh_quantum"] > 2.0


#: Gaussian scenarios whose rows are checked against the per-draw reference,
#: by file name or as a scenario document.
REFERENCE_SCENARIOS = {
    "epr_quadrature": SCENARIOS / "epr_quadrature.json",
    "free_evolution": SCENARIOS / "free_evolution.json",
    "squeezing_0": SQUEEZING_0_SCAN,
    "chunk_scan": {"kind": "EPR_QUADRATURE", "name": "chunk_scan",
                   "state": {"moments": {"qq": 0.8, "pq": -0.0, "qp": 0.25, "pp": -1.5}},
                   "settings": {"setting1": {"start": -3.0, "stop": 3.0, "count": 257},
                                "setting2": {"value": 0.7}},
                   "samples": 2, "seed": 11},
    "unequal": {"kind": "FREE_EVOLUTION", "name": "unequal",
                "state": {"moments": {"qq": 0.25, "pq": 0.05, "qp": 0.05, "pp": 0.25}},
                "settings": {"pairs": [[0.0, 1e153], [1e153, 0.0]]},
                "samples": 1000, "seed": 5},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SCENARIOS))
def test_gaussian_rows_equal_the_per_draw_reference(tmp_path, name):
    """Each row's lhv_mc and stderr, bit for bit, from ``gaussian_row_reference``.

    The pinned Gaussian hashes of this file were taken after this test passed.
    """
    path = REFERENCE_SCENARIOS[name]
    if isinstance(path, dict):
        path = write_scenario(tmp_path, path)
    scenario = cli.load_scenario(path)
    assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
    kind = cli._KINDS[scenario.kind]
    model = kind.model(scenario.moments)
    rows = read_columns(tmp_path / f"{scenario.name}.csv")
    for r, (row, (x1, x2)) in enumerate(zip(rows, scenario.setting_pairs)):
        u = model.response1.features(kind.make_setting(x1))
        v = model.response2.features(kind.make_setting(x2))
        want = gaussian_row_reference(u, v, scenario.samples, scenario.seed + (r << 64))
        assert bits(row[4:6]) == bits(want), r


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


#: The bundled scenarios, by file name.
BUNDLED = sorted(path.stem for path in SCENARIOS.glob("*.json"))

GRID_9X9 = {"setting1": {"start": 0.0, "stop": 3.0, "count": 9},
            "setting2": {"start": -1.0, "stop": 2.0, "count": 9}}
QUARTER_PAIRS = [[0.0, math.pi / 4], [math.pi / 2, 3 * math.pi / 4]]

#: Scenario shapes whose outputs must not depend on how a run is made, each
#: a scenario, named by its key, and the flags it runs with. With the bundled
#: scenarios they make ``INVARIANCE_CASES``.
INVARIANCE_SHAPES = {
    # A scenario without samples, run with --samples and --seed: an override
    # supplies a value the file lacks.
    "override_lacking_samples": (
        {"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.5},
         "settings": {"pairs": [[0.0, 0.0], [0.3, 1.1], [2.0, -1.0]]}, "seed": 9},
        ["--samples", 1000, "--seed", 3]),
    # A 9x9 quadrature grid at 100 samples, also run with numpy's AVX-512
    # loops switched off: batched tiles where the bundled scenarios draw
    # one-row ones.
    "simd_gauss_grid": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.5},
                         "settings": GRID_9X9, "samples": 100, "seed": 13}, []),
    # A 9x9 spin grid at 2 samples: short rows, drawn as batched tiles.
    "batched_grid": ({"kind": "SPIN_CHSH", "settings": GRID_9X9, "samples": 2, "seed": 11}, []),
    # A 9x9 quadrature grid at 100 samples: 25 Philox words a row, also drawn
    # as batched tiles.
    "batched_gauss_grid": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.5},
                            "settings": GRID_9X9, "samples": 100, "seed": 11}, []),
    # A 3x3 quadrature grid at 2 * 65 536 + 16 385 samples: each row ends in
    # a partial third block of 16 385 draws.
    "gauss_partial_block": (
        {"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.7},
         "settings": {"setting1": {"start": 0.0, "stop": 3.0, "count": 3},
                      "setting2": {"start": -1.0, "stop": 2.0, "count": 3}},
         "samples": 2 * BLOCK_DRAWS + 16385, "seed": 17}, []),
    # Squeezing 2**-600: without exact rescaling x * x underflows and the
    # stderr reads 0 with an infinite z.
    "gauss_tiny_squeezing": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 2.0**-600},
                              "settings": {"pairs": [[0.0, 0.0], [0.3, 1.1]]},
                              "samples": 1000, "seed": 5}, []),
    # Squeezing 355, just below the limit of about 355.238: moments of about
    # 1e308, whose Monte Carlo sums of x used to overflow.
    "gauss_limit_squeezing": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 355},
                               "settings": {"pairs": [[0.0, 0.0], [0.3, 1.2]]},
                               "samples": 2 * BLOCK_DRAWS, "seed": 0}, []),
    # A 72x72 quadrature grid at 2 samples: 5184 rows in batched tiles, each
    # row with its own word stream.
    "dense_gauss_grid": (
        {"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.6},
         "settings": {"setting1": {"start": 0.1, "stop": 6.2, "count": 72},
                      "setting2": {"start": 0.3, "stop": 6.4, "count": 72}},
         "samples": 2, "seed": 23}, []),
    # A 9x9 spin grid at 3 samples: batched tiles of two Philox words a row,
    # whose last word's high half goes unused.
    "batched_odd_grid": ({"kind": "SPIN_CHSH", "settings": GRID_9X9, "samples": 3, "seed": 11},
                         []),
    # Two spin pairs at 2 * 65 536 + 3 samples: one-row tiles, each row
    # ending in a partial tile of 3 draws, an odd count.
    "spin_odd_tail": ({"kind": "SPIN_CHSH", "settings": {"pairs": QUARTER_PAIRS},
                       "samples": 2 * BLOCK_DRAWS + 3, "seed": 7}, []),
    # The same two shapes for quadrature rows, whose draws take a quarter of
    # a Philox word each: a 9x9 grid at 3 samples in batched tiles of one
    # word a row, whose high quarter goes unused, and two pairs at
    # 2 * 65 536 + 3 samples ending in a one-row tile of 3 draws.
    "batched_gauss_odd_grid": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.5},
                                "settings": GRID_9X9, "samples": 3, "seed": 11}, []),
    "gauss_odd_tail": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.7},
                        "settings": {"pairs": QUARTER_PAIRS},
                        "samples": 2 * BLOCK_DRAWS + 3, "seed": 7}, []),
    # Four spin pairs at 3 samples and three quadrature pairs at 200 samples:
    # a few short rows, drawn as one batched tile each run.
    "few_spin_rows": ({"kind": "SPIN_CHSH",
                       "settings": {"pairs": [[0.0, 0.5], [0.5, 1.0], [1.0, 1.5], [1.5, 2.0]]},
                       "samples": 3, "seed": 13}, []),
    "few_gauss_rows": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.6},
                        "settings": {"pairs": [[0.0, 0.5], [0.5, 1.0], [1.0, 1.5]]},
                        "samples": 200, "seed": 13}, []),
    # A 257-row spin scan at 2 samples: a chunk of 256 rows and a one-row
    # chunk, both drawn as batched tiles.
    "chunk_tail_scan": ({"kind": "SPIN_CHSH",
                         "settings": {"setting1": {"start": 0.0, "stop": 3.0, "count": 257},
                                      "setting2": {"value": 0.5}},
                         "samples": 2, "seed": 5}, []),
    # 40 quadrature rows at 1023 samples: one batched tile of 256 words a
    # row, whose last high quarter goes unused.
    "gauss_odd_batch": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.8},
                         "settings": {"setting1": {"start": 0.0, "stop": 3.9, "count": 40},
                                      "setting2": {"value": -0.7}},
                         "samples": 1023, "seed": 5}, []),
    # Three rows of three blocks each, so that several workers share them.
    "three_block_rows": ({"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.6},
                          "settings": {"pairs": [[0.1, 0.2], [1.0, -0.5], [2.0, 3.0]]},
                          "samples": 2 * BLOCK_DRAWS + 7, "seed": 21}, []),
}
INVARIANCE_CASES = BUNDLED + sorted(INVARIANCE_SHAPES)


def invariance_case(tmp_path, name):
    """The scenario file and the flags of a bundled scenario or an inline shape."""
    if name not in INVARIANCE_SHAPES:
        return SCENARIOS / f"{name}.json", []
    scenario, flags = INVARIANCE_SHAPES[name]
    return write_scenario(tmp_path, {"name": name, **scenario}, f"{name}.json"), flags


class TestDeterminism:
    @pytest.mark.parametrize("name", ["spin_chsh", "epr_quadrature", "free_evolution"])
    def test_byte_identical_reruns(self, tmp_path, name):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", SCENARIOS / f"{name}.json", "--out-dir", out1]) == 0
        assert run_cli(["run", SCENARIOS / f"{name}.json", "--out-dir", out2]) == 0
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
        assert (out1 / f"{name}.summary.json").read_bytes() == \
            (out2 / f"{name}.summary.json").read_bytes()

    @pytest.mark.parametrize("name", INVARIANCE_CASES)
    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, capsys, name):
        path, flags = invariance_case(tmp_path, name)
        outputs = {}
        for workers in (1, 2, 3, 4, "default"):
            out = tmp_path / f"workers_{workers}"
            args = ["run", path, *flags, "--out-dir", out]
            assert run_cli(args if workers == "default" else [*args, "--workers", workers]) == 0
            files = sorted(out.iterdir())
            assert [file.name for file in files] == [f"{name}.csv", f"{name}.summary.json"]
            csv_bytes, summary = (file.read_bytes() for file in files)
            outputs[workers] = csv_bytes, summary, stdout_table(capsys.readouterr().out)
        for workers, output in outputs.items():
            assert output == outputs[1], workers
        csv_bytes, summary, _ = outputs[1]
        rows = read_columns(tmp_path / "workers_1" / f"{name}.csv")
        # A largest |z| of inf is written as "max_abs_z": Infinity (ROADMAP item 1).
        if math.isfinite(max(abs(row[6]) for row in rows)):
            strict_json(summary.decode())
        if name == "gauss_tiny_squeezing":
            # Exact rescaling keeps every stderr above 0 and every z finite.
            assert b"inf" not in csv_bytes.lower()

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

    def test_seed_and_samples_overrides(self, tmp_path, capsys):
        # An override writes what a copy of the file that holds its value writes.
        scenario = SCENARIOS / "free_evolution.json"
        assert run_cli(["run", scenario, "--out-dir", tmp_path / "base"]) == 0
        capsys.readouterr()
        read = lambda d, name="free_evolution.csv": (tmp_path / d / name).read_bytes()
        for key, value in (("seed", 12345), ("samples", 5000)):
            copy = write_scenario(tmp_path, {**json.loads(scenario.read_text()), key: value})
            assert run_cli(["run", copy, "--out-dir", tmp_path / key / "file"]) == 0
            from_file = table_sha256(capsys)
            assert run_cli(["run", scenario, "--out-dir", tmp_path / key / "flag",
                            f"--{key}", value]) == 0
            assert table_sha256(capsys) == from_file
            assert read("base") != read(f"{key}/flag")
            for name in ("free_evolution.csv", "free_evolution.summary.json"):
                assert read(f"{key}/flag", name) == read(f"{key}/file", name)

    @pytest.mark.parametrize("key,file_value,value", [
        ("seed", None, 3), ("seed", -1, 3), ("seed", 1 << 64, 3), ("seed", "7", 3),
        ("samples", None, 1000), ("samples", 1, 1000), ("samples", 2.5, 1000),
        ("samples", True, 1000),
    ])
    def test_an_override_replaces_a_missing_or_invalid_file_value(self, tmp_path, capsys, key,
                                                                  file_value, value):
        # file_value None: the file lacks the key.
        data = json.loads((SCENARIOS / "free_evolution.json").read_text())
        data.pop(key)
        path = write_scenario(tmp_path, data if file_value is None else {**data, key: file_value},
                              name="edited.json")
        complete = write_scenario(tmp_path, {**data, key: value})
        assert run_cli(["run", path, "--out-dir", tmp_path / "edited"]) == 1
        assert capsys.readouterr().err.startswith(f"error: '{key}' must be ")
        assert run_cli(["run", path, "--out-dir", tmp_path / "flag", f"--{key}", value]) == 0
        assert run_cli(["run", complete, "--out-dir", tmp_path / "file"]) == 0
        for name in ("free_evolution.csv", "free_evolution.summary.json"):
            assert (tmp_path / "flag" / name).read_bytes() == \
                (tmp_path / "file" / name).read_bytes()

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", -1, "--seed must be a 64-bit unsigned integer, got -1"),
        ("--seed", 1 << 64, "--seed must be a 64-bit unsigned integer, got 18446744073709551616"),
        ("--samples", 1, "--samples must be an integer >= 2, got 1"),
    ], ids=["seed_negative", "seed_past_64_bits", "samples_one"])
    def test_overrides_outside_their_range_exit_one(self, tmp_path, capsys, flag, value,
                                                    message):
        out = tmp_path / "out"
        assert run_cli(["run", SCENARIOS / "free_evolution.json", "--out-dir", out,
                        flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    # A known kind in lower case, a name no kind has, and no kind at all.
    @pytest.mark.parametrize("kind", [*(k.lower() for k in cli.KINDS), "NOPE", None])
    def test_unknown_kind_names_every_kind_in_order(self, tmp_path, capsys, kind):
        document = {"settings": {"pairs": [[0.0, 0.0]]}, "samples": 10, "seed": 0}
        if kind is not None:
            document["kind"] = kind
        path = write_scenario(tmp_path, document)
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: 'kind' must be one of ('SPIN_CHSH', 'EPR_QUADRATURE', 'FREE_EVOLUTION'), "
            f"got {kind!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", [k for k in cli.KINDS if k != "SPIN_CHSH"])
    def test_stateful_kind_without_a_state_exits_one(self, tmp_path, capsys, kind):
        path = write_scenario(tmp_path, {"kind": kind, "settings": {"pairs": [[0.0, 0.0]]},
                                         "samples": 10, "seed": 0})
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == \
            f"error: {kind} needs a 'state' object with 'squeezing' or 'moments'\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("settings, message", [
        ({"setting1": 0.5, "setting2": {"value": 0.0}},
         "settings.setting1 must be an object with 'value' or 'start'/'stop'/'count'"),
        ({"setting1": {"value": 0.0}, "setting2": {"value": 0.0, "count": 3}},
         "settings.setting2 keys must be exactly {'value'} or {'start','stop','count'}"),
        ({"pairs": []}, "'settings.pairs' must be a non-empty list of [s1, s2] pairs"),
        ({"pairs": {"0": [0.0, 0.0]}},
         "'settings.pairs' must be a non-empty list of [s1, s2] pairs"),
        ({"pairs": [[0.0, 0.0], [1.0]]}, "settings.pairs[1] must be a [s1, s2] pair"),
        ({"setting1": {"value": 0.0}},
         "'settings' must contain either 'pairs' or both 'setting1' and 'setting2'"),
    ], ids=["axis_not_an_object", "axis_keys", "pairs_empty", "pairs_not_a_list",
            "pair_not_two_settings", "neither_form"])
    def test_malformed_settings_are_refused_by_name(self, tmp_path, settings, message):
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": settings,
                                         "samples": 10, "seed": 0})
        with pytest.raises(cli.ScenarioError) as raised:
            cli.load_scenario(path)
        assert str(raised.value) == message

    def test_malformed_settings_exit_one_with_one_error_line(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": {"pairs": []},
                                         "samples": 10, "seed": 0})
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == \
            "error: 'settings.pairs' must be a non-empty list of [s1, s2] pairs\n"
        assert not (tmp_path / "out").exists()

    def test_spin_scenario_rejects_state(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "state": {"squeezing": 1.0},
            "settings": {"pairs": [[0.0, 0.0]]},
            "samples": 10,
            "seed": 0,
        })
        assert run_cli(["run", path]) == 1
        assert capsys.readouterr().err == \
            "error: SPIN_CHSH uses the two-spin singlet; omit 'state'\n"

    def test_free_evolution_rejects_chsh_block(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "kind": "FREE_EVOLUTION",
            "state": {"moments": {"qq": 1.0, "pq": 0.0, "qp": 0.0, "pp": 0.0}},
            "settings": {"pairs": [[0.0, 0.0]]},
            "samples": 10,
            "seed": 0,
            "chsh": {"a": 0.0, "a_prime": 1.0, "b": 0.5, "b_prime": 1.5},
        })
        assert run_cli(["run", path]) == 1
        assert capsys.readouterr().err == \
            "error: the 'chsh' block applies to SPIN_CHSH and EPR_QUADRATURE only\n"

    # A key given as JSON null is refused as a wrong value is; only an omitted
    # key takes its default. A SPIN_CHSH "state": null and a FREE_EVOLUTION or
    # SPIN_CHSH "chsh": null used to pass as omitted keys and exit 0.
    @pytest.mark.parametrize("kind,key,message", [
        ("SPIN_CHSH", "state", "SPIN_CHSH uses the two-spin singlet; omit 'state'"),
        ("FREE_EVOLUTION", "chsh", "the 'chsh' block applies to SPIN_CHSH and EPR_QUADRATURE only"),
        ("SPIN_CHSH", "chsh", "'chsh' must carry exactly the keys a, a_prime, b, b_prime"),
        ("EPR_QUADRATURE", "chsh", "'chsh' must carry exactly the keys a, a_prime, b, b_prime"),
        ("EPR_QUADRATURE", "state",
         "EPR_QUADRATURE needs a 'state' object with 'squeezing' or 'moments'"),
        ("SPIN_CHSH", "name", "'name' must be a non-empty string, got None"),
        ("SPIN_CHSH", "settings", "'settings' must be an object"),
        ("SPIN_CHSH", "samples", "'samples' must be an integer >= 2, got None"),
        ("SPIN_CHSH", "seed", "'seed' must be a 64-bit unsigned integer, got None"),
    ], ids=["spin_state", "free_evolution_chsh", "spin_chsh", "quadrature_chsh",
            "quadrature_state", "name", "settings", "samples", "seed"])
    def test_a_null_key_is_refused_as_a_wrong_value(self, tmp_path, capsys, kind, key, message):
        document = {"kind": kind, "settings": {"pairs": [[0.0, 0.0]]}, "samples": 10, "seed": 0}
        if kind != "SPIN_CHSH":
            document["state"] = {"squeezing": 0.5}
        path = write_scenario(tmp_path, {**document, key: None})
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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

    def test_name_the_file_system_cannot_encode_exits_one(self, tmp_path, capsys):
        # A lone high surrogate, which the JSON decoder takes from "\ud800",
        # used to end in a UnicodeEncodeError from the temporary file's unlink.
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "SPIN_CHSH", "name": "\\ud800", "samples": 10, "seed": 0, '
                        '"settings": {"pairs": [[0.0, 0.0]]}}')
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == \
            "error: 'name' cannot be encoded as a file name, got '\\ud800'\n"
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

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("where", ["pair", "scan_value", "chsh"])
    def test_non_finite_spin_angles_exit_one(self, tmp_path, capsys, where, text):
        # math.sin of a non-finite angle used to end in a "math domain error" traceback.
        settings = {"pair": '{"pairs": [[0.5, %s]]}' % text,
                    "scan_value": '{"setting1": {"value": %s}, "setting2": {"value": 0.5}}' % text,
                    "chsh": '{"pairs": [[0.5, 0.5]]}'}[where]
        # Only the chsh case has a chsh block: a "chsh": null is refused.
        chsh = (', "chsh": {"a": 0.0, "a_prime": %s, "b": 0.5, "b_prime": 1.0}' % text
                if where == "chsh" else "")
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "SPIN_CHSH", "samples": 10, "seed": 0, '
                        f'"settings": {settings}{chsh}}}')
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == ("error: spin direction angle must be finite, "
                                           f"got {float(text)!r}\n")

    @pytest.mark.parametrize("start,stop", [("-1.7e308", "1.7e308"), ("0.0", "1e400"),
                                            ("-Infinity", "0.0"), ("NaN", "1.0")],
                             ids=["span_overflows", "stop_overflows", "start_infinite", "nan"])
    def test_scan_whose_span_is_not_finite_exits_one(self, tmp_path, capsys, start, stop):
        # np.linspace used to warn, and the run then reported a direction of
        # NaN components that is not in the file.
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "SPIN_CHSH", "samples": 10, "seed": 0, "settings": '
                        f'{{"setting1": {{"start": {start}, "stop": {stop}, "count": 3}}, '
                        '"setting2": {"value": 0.5}}}')
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: settings.setting1: scan range needs a finite stop - start, "
            f"got start = {float(start)!r}, stop = {float(stop)!r}\n")

    def test_integer_settings_beyond_double_range_exit_one(self, tmp_path, capsys):
        # float() of a 4300-digit integer raises OverflowError, which used to
        # end in a traceback.
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "SPIN_CHSH", "samples": 10, "seed": 0, '
                        '"settings": {"pairs": [[0.5, 1' + "0" * 4299 + ']]}}')
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == ("error: settings.pairs[0][1] is an integer beyond "
                                           "double precision's range\n")

    @pytest.mark.parametrize("content", [
        b'{"kind": "SPIN_CHSH", "name": "\xff\xfe"}',
        b"[" * 100_000,
        b'{"kind": "SPIN_CHSH", "seed": ' + b"9" * 5001 + b"}",
    ], ids=["not_utf8", "nested_too_deeply", "5001_digits"])
    def test_undecodable_scenario_files_exit_one(self, tmp_path, capsys, content):
        # A UnicodeDecodeError, a RecursionError and a ValueError from Python's
        # limit on integer digits used to end in a traceback.
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

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

    @pytest.mark.parametrize("samples", [10, 2 * BLOCK_DRAWS])
    def test_valid_states_near_the_overflow_limit_give_finite_rows(self, tmp_path, samples):
        # r = 355 is a valid state (tmsv accepts r up to about 355.238) with
        # moments of about 1e308. x is drawn as s * y with y of order 1, so its
        # sums no longer overflow.
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE", "name": "limit",
                                         "state": {"squeezing": 355},
                                         "settings": {"pairs": [[0.0, 0.0], [0.3, 1.2]]},
                                         "samples": samples, "seed": 0})
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(path), "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        rows = read_columns(tmp_path / "limit.csv")
        assert len(rows) == 2 and all(math.isfinite(v) for row in rows for v in row)

    def test_two_block_row_near_the_overflow_limit_matches_the_law(self, tmp_path):
        # Each block's sum of x used to be about 1e308 and their total inf.
        r, n = 349.74, 2 * BLOCK_DRAWS
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE", "name": "blocks",
                                         "state": {"squeezing": r},
                                         "settings": {"pairs": [[0.0, 0.0]]},
                                         "samples": n, "seed": 0})
        assert run_cli(["run", path, "--out-dir", tmp_path, "--workers", 2]) == 0
        (row,) = read_columns(tmp_path / "blocks.csv")
        model, setting = quadrature_model(extract_moments(tmsv(r))), QuadratureSetting(0.0)
        u, v = model.response1.features(setting), model.response2.features(setting)
        # x = s y with s = |u| |v| and rho = u.v / s: Var x = s**2 (1 + rho**2), and
        # the sample variance of y has variance (8 rho**4 + 40 rho**2 + 8) / n.
        scale = math.hypot(*u) * math.hypot(*v)
        rho = (u[0] / math.hypot(*u)) * (v[0] / math.hypot(*v)) \
            + (u[1] / math.hypot(*u)) * (v[1] / math.hypot(*v))
        stderr = scale * math.sqrt((1 + rho**2) / n)
        stderr_sd = scale * math.sqrt((8 * rho**4 + 40 * rho**2 + 8) / n) / (
            2 * math.sqrt(1 + rho**2) * math.sqrt(n))
        assert abs(row[4] - row[3]) / stderr < 4.0
        assert abs(row[5] - stderr) / stderr_sd < 4.0

    def test_overflowing_results_exit_one(self, tmp_path):
        # FREE_EVOLUTION at t = 1e300: the quantum value and the model's exact
        # value really overflow.
        path = write_scenario(tmp_path, {"kind": "FREE_EVOLUTION",
                                         "state": {"moments": FREE_MOMENTS},
                                         "settings": {"pairs": [[0.0, 0.0], [1e300, 1e300]]},
                                         "samples": 10, "seed": 0})
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(path), "--out-dir", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: row 1 ")
        assert "quantum is inf" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("settings,samples,workers", [
        ({"pairs": [[1e300, 1e300], [0.3, 1.2]]}, 10, 1),
        ({"setting1": {"start": 1e300, "stop": 2e300, "count": 40},
          "setting2": {"value": 1e300}}, 10, 1),
        ({"pairs": [[1e300, 1e300]]}, BLOCK_DRAWS + 1, 2),
    ], ids=["per_row", "scan", "two_blocks_two_workers"])
    def test_overflow_prints_only_the_error_line(self, tmp_path, settings, samples, workers):
        # No numpy warning from the row arithmetic of the CLI or the estimator.
        path = write_scenario(tmp_path, {"kind": "FREE_EVOLUTION",
                                         "state": {"moments": FREE_MOMENTS},
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

    def test_overflowing_chsh_sum_exits_one(self, tmp_path, capsys):
        # Each row is about 8e307, finite; the CHSH sums of four rows are not,
        # and were written to summary.json as Infinity with exit 0.
        path = write_scenario(tmp_path, {"kind": "EPR_QUADRATURE",
                                         "state": {"squeezing": 355.2},
                                         "settings": {"pairs": [[0.0, 0.3]]},
                                         "samples": 10, "seed": 0,
                                         "chsh": {"a": 0.0, "a_prime": -math.pi / 2,
                                                  "b": math.pi / 4, "b_prime": 3 * math.pi / 4}})
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out-dir", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: chsh (a = 0.0, a_prime = {-math.pi / 2!r}, b = {math.pi / 4!r}, "
            f"b_prime = {3 * math.pi / 4!r}): chsh_quantum is inf; "
            "the scenario's values overflow double precision\n")
        assert not out.exists()

    def test_out_dir_that_is_a_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert run_cli(["run", SCENARIOS / "free_evolution.json", "--out-dir", blocker]) == 1
        assert "error: cannot write the outputs" in capsys.readouterr().err


class TestDrawLimit:
    def test_scenario_over_the_limit_exits_one_before_any_row(self, tmp_path, monkeypatch,
                                                               capsys):
        def no_rows(scenario, workers):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(estimator, "MAX_DRAWS", 30)
        pairs = {"pairs": [[0.0, 0.5], [1.0, 2.0], [0.3, -0.1]]}
        at_cap = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": pairs,
                                           "samples": 10, "seed": 0})
        assert run_cli(["run", at_cap, "--out-dir", tmp_path / "ok"]) == 0
        monkeypatch.setattr(cli, "_evaluate", no_rows)
        over = write_scenario(tmp_path, {"kind": "SPIN_CHSH", "settings": pairs,
                                         "samples": 11, "seed": 0}, name="over.json")
        for args in ([over], [at_cap, "--samples", 11]):
            out = tmp_path / "out"
            assert run_cli(["run", *args, "--out-dir", out]) == 1
            err = capsys.readouterr().err
            assert err == "error: 3 rows of 11 samples ask for 33 draws, more than " \
                          "MAX_DRAWS = 30\n"
            assert not out.exists()


    # Four rows: 28 draws fit under the patched limit, 32 do not.
    @pytest.mark.parametrize("samples", [7, 8], ids=["under", "over"])
    def test_worker_count_exits_one_before_any_row_and_before_the_limit(
            self, tmp_path, monkeypatch, capsys, samples):
        def no_rows(scenario, workers):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(estimator, "MAX_DRAWS", 30)
        monkeypatch.setattr(cli, "_evaluate", no_rows)
        path = write_scenario(tmp_path, {"kind": "SPIN_CHSH",
                                         "settings": {"pairs": [[0.0, 0.5], [1.0, 2.0]] * 2},
                                         "samples": samples, "seed": 0})
        out = tmp_path / "out"
        assert run_cli(["run", path, "--out-dir", out, "--workers", 0]) == 1
        assert capsys.readouterr().err == \
            f"error: workers must be an integer in [1, {MAX_WORKERS}], got 0\n"
        assert not out.exists()

    def test_limit_message_past_the_integer_digit_limit_exits_one(self, tmp_path, capsys):
        # 11 rows of a 4300-digit sample count ask for a 4301-digit number of
        # draws, past Python's limit on str(int): the message used to raise.
        samples = "9" + "0" * 4299
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "SPIN_CHSH", "seed": 0, "samples": ' + samples + ', '
                        '"settings": {"pairs": [' + ", ".join(["[0.0, 0.5]"] * 11) + "]}}")
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        draws = 11 * int(samples)
        assert capsys.readouterr().err == (
            f"error: 11 rows of {samples} samples ask for at least 2**{draws.bit_length() - 1} "
            f"draws, more than MAX_DRAWS = {estimator.MAX_DRAWS}\n")
        assert not (tmp_path / "out").exists()


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

    def test_limit_message_past_the_integer_digit_limit_exits_one(self, tmp_path, capsys):
        # Two 4300-digit counts multiply to 8599 digits, past Python's limit on
        # str(int): the message used to raise.
        count = "1" + "0" * 4299
        axis = '{"start": 0.0, "stop": 1.0, "count": %s}' % count
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "SPIN_CHSH", "samples": 10, "seed": 0, '
                        f'"settings": {{"setting1": {axis}, "setting2": {axis}}}}}')
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 1
        rows = int(count) ** 2
        assert capsys.readouterr().err == (
            f"error: 'settings' asks for at least 2**{rows.bit_length() - 1} rows, "
            f"more than MAX_ROWS = {cli.MAX_ROWS}\n")

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


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [["run", "x.json", "--samples", "abc"],
                                      ["run", "x.json", "--no-such-flag"], []],
                             ids=["bad_int", "unknown_flag", "no_subcommand"])
    def test_usage_errors_exit_one(self, capsys, argv):
        # argparse exits 2, the documented code for an inconsistency.
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: eprlab") and "error: " in err

    def test_usage_error_of_the_program_entry_exits_one(self):
        result = subprocess.run([sys.executable, "-m", "eprlab", "run", "x.json", "--samples",
                                 "abc"], capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == \
            "eprlab run: error: argument --samples: invalid int value: 'abc'"

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["main", "run"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eprlab")


class TestAtomicOutputs:
    def test_failed_write_keeps_earlier_outputs(self, tmp_path, monkeypatch):
        scenario = SCENARIOS / "free_evolution.json"
        assert run_cli(["run", scenario, "--out-dir", tmp_path]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_writer(fh, chunks):
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
#: without their last line. Taken with rows keyed by (seed, row), and again
#: under Gaussian stream contracts v6, v7 and v8 (the 257-row scan is in
#: REFERENCE_SCENARIOS; every row of the 255- and 256-row scans equalled
#: ``gaussian_row_reference`` bit for bit when they were taken).
CHUNK_SCAN_STDOUT_SHA256 = {
    255: "934ba9a32bb62f849c971f70d26a0c20cb529d4a5ef2455604f5c1bebe95fa53",
    256: "ea2f4c83c31ddca52c5dd5ffbb8fb53a39230554dac075ab52c92f8aae7e04e8",
    257: "1409493db0342630c1d72e7c93ef03ea95a1d8e0b73c8f1661be7b3b3918bd13",
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
        cli._write_csv(got, [EDGE_ROWS])
        assert got.getvalue() == want.getvalue()

    def test_table_line_equals_the_f_string_line(self):
        for r in EDGE_ROWS:
            assert cli._TABLE_LINE % r == \
                f"{r[0]:>12.6g} {r[1]:>12.6g} {r[2]:>12.6g} {r[3]:>12.6g} " \
                f"{r[4]:>12.6g} {r[5]:>10.3g} {r[6]:>7.2f}\n"

    def test_rows_are_tuples_of_the_table_rows_across_chunks(self):
        table = np.arange(7.0 * (cli.EVAL_CHUNK_ROWS + 3)).reshape(-1, 7)
        table[1, 2] = -0.0
        rows = [row for chunk in cli._chunks(table) for row in chunk]
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
        # the rows are not scaled; doubling the small party made x * x overflow
        # when x was drawn as a product of normals. Values from
        # gaussian_row_reference under Gaussian stream contract v8
        # (REFERENCE_SCENARIOS).
        path = write_scenario(tmp_path, {"kind": "FREE_EVOLUTION", "name": "unequal",
                                         "state": {"moments": {"qq": 0.25, "pq": 0.05,
                                                               "qp": 0.05, "pp": 0.25}},
                                         "settings": {"pairs": [[0.0, 1e153], [1e153, 0.0]]},
                                         "samples": 1000, "seed": 5})
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        rows = read_columns(tmp_path / "unequal.csv")
        assert [row[4:6] for row in rows] == [[5.4172406672971e+151, 8.751319927948891e+150],
                                              [4.346789782612675e+151, 7.631005966841304e+150]]


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

        spin = cli._KINDS["SPIN_CHSH"]
        monkeypatch.setitem(cli._KINDS, "SPIN_CHSH", spin._replace(make_setting=direction))
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


class TestScanMemory:
    """A scan's settings are one (rows, 2) array, and its z-scores are taken chunk by chunk."""

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 511, 512, 513, 65_537, cli.MAX_ROWS])
    def test_chunks_cover_the_rows(self, rows):
        bounds = cli._chunk_bounds(rows)
        assert len(bounds) == math.ceil(rows / cli.EVAL_CHUNK_ROWS)
        assert [start for start, _ in bounds] == [0] + [end for _, end in bounds[:-1]]
        assert bounds[-1][1] == rows
        assert max(end - start for start, end in bounds) <= cli.EVAL_CHUNK_ROWS

    @pytest.mark.parametrize("settings", [
        {"pairs": [[0.0, -0.5], [1.5, 2.0]]},
        {"setting1": {"start": 0.0, "stop": 1.0, "count": 3}, "setting2": {"value": -0.0}},
    ], ids=["pairs", "scan"])
    def test_setting_pairs_are_a_read_only_array(self, tmp_path, settings):
        scenario = cli.load_scenario(write_scenario(tmp_path, {
            "kind": "SPIN_CHSH", "settings": settings, "samples": 10, "seed": 0}))
        pairs = scenario.setting_pairs
        assert pairs.dtype == np.float64 and pairs.flags.c_contiguous
        assert pairs.shape == (len(pairs), 2)
        with pytest.raises(ValueError):
            pairs[0, 0] = 1.0

    def test_scan_is_setting1_major(self, tmp_path):
        scenario = cli.load_scenario(write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "settings": {"setting1": {"start": 0.0, "stop": 1.0, "count": 3},
                         "setting2": {"start": -1.0, "stop": 2.0, "count": 2}},
            "samples": 10, "seed": 0}))
        want = [(x1, x2) for x1 in (0.0, 0.5, 1.0) for x2 in (-1.0, 2.0)]
        assert [bits(row) for row in scenario.setting_pairs.tolist()] == \
            [bits(row) for row in want]

    def test_traced_peak_of_a_scan_stays_under_twice_its_table(self, tmp_path):
        # A 128x128 spin scan at n = 2: the result table takes 56 bytes a row,
        # the settings 16; the tuples of pairs and whole-table z-scores of
        # earlier versions took the peak to about 170 bytes a row.
        def scan(count):
            return write_scenario(tmp_path, {
                "kind": "SPIN_CHSH",
                "settings": {"setting1": {"start": 0.1, "stop": 6.2, "count": count},
                             "setting2": {"start": 0.3, "stop": 6.4, "count": count}},
                "samples": 2, "seed": 5}, name=f"scan{count}.json")
        small, large = scan(8), scan(128)
        cli._evaluate(cli.load_scenario(small), 1)  # caches and lazy imports outside the trace
        rows = 128 * 128
        tracemalloc.start()
        try:
            table, _ = cli._evaluate(cli.load_scenario(large), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (rows, len(cli.CSV_COLUMNS))
        assert peak < 2 * table.itemsize * len(cli.CSV_COLUMNS) * rows

    def test_max_abs_z_is_the_largest_z_of_all_chunks(self, tmp_path):
        # A 9x40 spin grid at 2 samples spans two chunks and holds rows of z = +-inf.
        path = write_scenario(tmp_path, {
            "kind": "SPIN_CHSH",
            "settings": {"setting1": {"start": 0.0, "stop": 3.0, "count": 9},
                         "setting2": {"start": -1.0, "stop": 2.0, "count": 40}},
            "samples": 2, "seed": 11})
        table, summary = cli._evaluate(cli.load_scenario(path), 1)
        assert len(cli._chunk_bounds(len(table))) == 2
        assert np.isinf(table[:, 6]).any()
        assert summary["max_abs_z"] == float(np.abs(table[:, 6]).max())


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

    @pytest.mark.parametrize("chsh", [None, {"a": 0.0, "a_prime": 1.5, "b": 0.7, "b_prime": 2.3}],
                             ids=["rows", "rows_and_chsh"])
    def test_correlator_cross_check_failure_exits_two(self, tmp_path, monkeypatch, capsys, chsh):
        # The rows and the CHSH block go through one row correlator.
        monkeypatch.setattr(correlators, "SPIN_CONSISTENCY_TOL", -1.0)
        document = {"kind": "SPIN_CHSH", "settings": {"pairs": [[0.0, 0.5], [1.0, 2.0]]},
                    "samples": 10, "seed": 0}
        if chsh is not None:
            document["chsh"] = chsh
        out = tmp_path / "out"
        assert run_cli(["run", write_scenario(tmp_path, document), "--out-dir", out]) == 2
        assert capsys.readouterr().err.startswith("error: spin correlator mismatch at row 0")
        assert not out.exists()


class TestStdoutFailures:
    """A closed or full stdout: exit 1 with one line on stderr, no traceback."""

    SCENARIO = ["run", str(SCENARIOS / "spin_chsh.json"), "--samples", "1000"]

    def test_closed_pipe_exits_one(self, tmp_path):
        with subprocess.Popen([sys.executable, "-m", "eprlab", *self.SCENARIO,
                               "--out-dir", str(tmp_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()  # before the run writes its first byte
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert err == "error: cannot write the table to standard output: " \
                      "[Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_one(self, tmp_path):
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "eprlab", *self.SCENARIO,
                                     "--out-dir", str(tmp_path)],
                                    stdout=full, stderr=subprocess.PIPE, text=True)
        assert result.returncode == 1
        assert result.stderr == "error: cannot write the table to standard output: " \
                                "[Errno 28] No space left on device\n"
        # The outputs are written before the table.
        assert (tmp_path / "spin_chsh.csv").exists()

    def test_drop_stdout_takes_no_arguments(self, capsys):
        # A captured stdout has no descriptor, so there is nothing to point at
        # os.devnull.
        cli._drop_stdout()
        print("still written")
        assert capsys.readouterr().out == "still written\n"


def test_parse_settings_takes_only_the_settings():
    assert cli._parse_settings({"pairs": [[0.0, -0.5]]}).tolist() == [[0.0, -0.5]]


def cli_run(tmp_path, scenario) -> str:
    """Python source that runs the CLI on ``scenario`` in ``tmp_path``; it asserts exit 0."""
    args = ["run", str(write_scenario(tmp_path, scenario)), "--out-dir", str(tmp_path)]
    return f"import eprlab.cli\nassert eprlab.cli.main({args!r}) == 0\n"


def numpy_random_after(code: str) -> bool:
    """Whether ``numpy.random`` is loaded after ``code`` runs in a fresh interpreter."""
    code += "import sys\nprint('numpy.random' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


#: An 8x8 scan and the kind fields of a spin and a quadrature scenario.
GRID_8X8 = {"setting1": {"start": 0.0, "stop": 3.0, "count": 8},
            "setting2": {"start": -1.0, "stop": 2.0, "count": 8}}
SPIN_SCENARIO = {"kind": "SPIN_CHSH", "seed": 5}
QUADRATURE_SCENARIO = {"kind": "EPR_QUADRATURE", "state": {"squeezing": 0.6}, "seed": 5}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "eprlab", "run", str(SCENARIOS / "free_evolution.json"),
             "--out-dir", str(tmp_path), "--samples", "1000"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "free_evolution.csv").exists()

    # Rows of at most 512 draws take their words from the vectorised Philox,
    # not numpy.random, however few the rows: an 8x8 grid at 2 samples, a few
    # pairs of short rows, and a one-row library call at 100 samples. A case
    # is a scenario for the CLI or the source of a library call.
    @pytest.mark.parametrize("run", [
        {**SPIN_SCENARIO, "settings": GRID_8X8, "samples": 2},
        {**SPIN_SCENARIO, "settings": {"pairs": [[0.0, 0.5], [0.5, 1.0], [1.0, 1.5], [1.5, 2.0]]},
         "samples": 200},
        "from eprlab import UnitVector3, mc_estimate, unbounded_spin_model\n"
        "z = UnitVector3(0.0, 0.0, 1.0)\n"
        "mc_estimate(unbounded_spin_model(), z, z, 100, 7)\n",
    ], ids=["grid", "few_rows", "library"])
    def test_batched_spin_run_never_imports_numpy_random(self, tmp_path, run):
        assert not numpy_random_after(run if isinstance(run, str) else cli_run(tmp_path, run))

    # A Gaussian draw's exponential is a table entry, not a ziggurat value, so
    # batched Gaussian rows need no generator either.
    @pytest.mark.parametrize("run", [
        {**QUADRATURE_SCENARIO, "settings": GRID_8X8, "samples": 2},
        {**QUADRATURE_SCENARIO, "settings": {"pairs": [[0.0, 0.5], [0.5, 1.0], [1.0, 1.5]]},
         "samples": 3},
        "from eprlab import QuadratureSetting, extract_moments, mc_estimate\n"
        "from eprlab import quadrature_model, tmsv\n"
        "s = QuadratureSetting(0.3)\n"
        "mc_estimate(quadrature_model(extract_moments(tmsv(0.6))), s, s, 100, 7)\n",
    ], ids=["grid", "few_rows", "library"])
    def test_batched_gaussian_run_never_imports_numpy_random(self, tmp_path, run):
        assert not numpy_random_after(run if isinstance(run, str) else cli_run(tmp_path, run))

    def test_scan_with_one_row_past_a_chunk_never_imports_numpy_random(self, tmp_path):
        # 257 rows at 2 samples: a chunk of 256 rows and a one-row chunk, both
        # drawn from the vectorised Philox.
        assert not numpy_random_after(cli_run(tmp_path, {
            **SPIN_SCENARIO,
            "settings": {"setting1": {"start": 0.0, "stop": 3.0, "count": 257},
                         "setting2": {"value": 0.5}},
            "samples": 2}))

    def test_spin_run_never_imports_scipy(self, tmp_path):
        # No run loads scipy.
        code = (
            "import sys, eprlab, eprlab.cli\n"
            f"code = eprlab.cli.main(['run', {str(SCENARIOS / 'spin_chsh.json')!r},"
            f" '--out-dir', {str(tmp_path)!r}, '--samples', '1000'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []"

    def test_gaussian_run_never_imports_scipy(self, tmp_path):
        # x is drawn from its product law with numpy alone.
        code = (
            "import sys, eprlab, eprlab.cli\n"
            f"code = eprlab.cli.main(['run', {str(SCENARIOS / 'epr_quadrature.json')!r},"
            f" '--out-dir', {str(tmp_path)!r}, '--samples', '1000'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []"

    # What needs a fresh interpreter: development mode, unbuffered so that
    # every write is its own system call on the pipe and with unclosed
    # resources as errors; and numpy's AVX-512 loops switched off, which no
    # output may depend on.
    @pytest.mark.parametrize("mode, name", [
        *(("dev", name) for name in [*BUNDLED, "override_lacking_samples"]),
        *(("no_avx512", name) for name in [*BUNDLED, "simd_gauss_grid", "three_block_rows"]),
    ])
    def test_program_entry_writes_what_an_in_process_run_writes(self, tmp_path, capsys, mode,
                                                                name):
        python_flags, env = {
            "dev": (["-X", "dev", "-W", "error::ResourceWarning"], {"PYTHONUNBUFFERED": "1"}),
            "no_avx512": ([], {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}),
        }[mode]
        path, flags = invariance_case(tmp_path, name)
        result = subprocess.run(
            [sys.executable, *python_flags, "-m", "eprlab", "run", str(path), *map(str, flags),
             "--out-dir", str(tmp_path / "entry")],
            capture_output=True, text=True, env={**os.environ, **env},
        )
        if result.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in result.stderr:
            pytest.skip("numpy refuses to disable these CPU features here")
        assert result.returncode == 0, result.stderr
        # A ResourceWarning at interpreter shutdown is printed, not raised.
        assert "ResourceWarning" not in result.stderr, result.stderr
        assert run_cli(["run", path, *flags, "--out-dir", tmp_path / "in_process"]) == 0
        for filename in (f"{name}.csv", f"{name}.summary.json"):
            assert (tmp_path / "entry" / filename).read_bytes() == \
                (tmp_path / "in_process" / filename).read_bytes(), filename
        assert stdout_table(result.stdout) == stdout_table(capsys.readouterr().out)

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


#: The builders that the benchmark's traced run wraps by replacing them on
#: ``eprlab.cli`` (perfbench/tracing.py), and the ones each kind's run calls.
PROBED_BUILDERS = ("unbounded_spin_model", "quadrature_model", "free_evolution_model",
                   "tmsv", "extract_moments", "sup_bound")
BUILDERS_OF_KIND = {
    "SPIN_CHSH": {"unbounded_spin_model", "sup_bound"},
    "EPR_QUADRATURE": {"tmsv", "extract_moments", "quadrature_model", "sup_bound"},
    "FREE_EVOLUTION": {"tmsv", "extract_moments", "free_evolution_model", "sup_bound"},
}


class TestProbedBuilders:
    def test_every_kind_names_its_builders(self):
        assert set(BUILDERS_OF_KIND) == set(cli.KINDS)

    @pytest.mark.parametrize("kind", cli.KINDS)
    def test_a_run_calls_each_builder_by_its_module_name(self, tmp_path, monkeypatch, kind):
        """A builder replaced on the module after import is the one a run calls.

        A kind's row that held a builder itself, not a call through the
        module's name, would bypass the replacement, and a traced benchmark
        run would read that builder's time as 0.
        """
        called = set()

        def recorder(name, fn):
            def record(*args):
                called.add(name)
                return fn(*args)
            return record

        for name in PROBED_BUILDERS:
            monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
        document = {"kind": kind, "settings": {"pairs": [[0.3, 1.1]]}, "samples": 10, "seed": 0}
        if "tmsv" in BUILDERS_OF_KIND[kind]:
            document["state"] = {"squeezing": 0.5}
        assert run_cli(["run", write_scenario(tmp_path, document), "--out-dir", tmp_path]) == 0
        assert called == BUILDERS_OF_KIND[kind]
