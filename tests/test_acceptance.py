"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from eprlab import (
    ChshSettings,
    Factorization,
    MomentMatrix,
    QuadratureSetting,
    Spectrum,
    TimeSetting,
    UnitVector3,
    chsh_value,
    exact_expectation,
    expectation_grid,
    extract_moments,
    free_evolution_correlation,
    free_evolution_model,
    mc_estimate,
    quadrature_correlation,
    quadrature_model,
    spectrum_compatibility,
    spin_correlation,
    sup_bound,
    tmsv,
    unbounded_spin_model,
)
from eprlab.cli import run_scenario
from conftest import (
    CHSH_PARTY1_SETTINGS,
    CHSH_PARTY2_SETTINGS,
    random_sign_model,
    random_unit_vectors,
    two_mode_squeeze_cov,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"
ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS "
          f"({time.perf_counter() - start:.2f}s)")


def xz_direction(theta: float) -> UnitVector3:
    return UnitVector3(math.sin(theta), 0.0, math.cos(theta))


STANDARD_SPIN_CHSH = ChshSettings(
    a=xz_direction(0.0),
    a_prime=xz_direction(math.pi / 2.0),
    b=xz_direction(math.pi / 4.0),
    b_prime=xz_direction(3.0 * math.pi / 4.0),
)


def test_criterion_1_singlet_correlator():
    with criterion(1, "singlet correlator equals -(a.b)"):
        rng = np.random.default_rng(101)
        vectors = random_unit_vectors(rng, 200)
        for a, b in zip(vectors[::2], vectors[1::2]):
            # spin_correlation itself cross-checks the 4x4 matrix path
            # against the closed form at 1e-10
            closed_form = -(a.x * b.x + a.y * b.y + a.z * b.z)
            assert abs(spin_correlation(a, b) - closed_form) <= 1e-10


def test_criterion_2_unbounded_model_reproduces_singlet():
    with criterion(2, "three-atom model: exact match, sup sqrt(3), MC calibration"):
        model = unbounded_spin_model()
        rng = np.random.default_rng(202)
        vectors = random_unit_vectors(rng, 200)
        for a, b in zip(vectors[::2], vectors[1::2]):
            closed_form = -(a.x * b.x + a.y * b.y + a.z * b.z)
            assert abs(exact_expectation(model, a, b) - closed_form) <= 1e-12
        assert abs(sup_bound(model) - ROOT3) <= 1e-12

        hits = 0
        for seed in range(300, 320):
            est = mc_estimate(model, Z_AXIS, Z_AXIS, 10**6, seed)
            if abs(est.mean - (-1.0)) <= 5.0 * est.stderr:
                hits += 1
        assert hits >= 19


def test_criterion_3_chsh_contrast():
    with criterion(3, "CHSH: quantum 2*sqrt(2), unbounded model matches, bounded stay <= 2"):
        s_quantum = chsh_value(spin_correlation, STANDARD_SPIN_CHSH)
        assert abs(abs(s_quantum) - 2.0 * ROOT2) <= 1e-9

        model = unbounded_spin_model()
        s_model = chsh_value(lambda u, v: exact_expectation(model, u, v),
                             STANDARD_SPIN_CHSH)
        assert abs(abs(s_model) - 2.0 * ROOT2) <= 1e-9
        assert abs(s_model - s_quantum) <= 1e-9
        assert not spectrum_compatibility(model, Spectrum.SPIN_PM1)

        rng = np.random.default_rng(303)
        settings = ChshSettings(CHSH_PARTY1_SETTINGS[0], CHSH_PARTY1_SETTINGS[1],
                                CHSH_PARTY2_SETTINGS[0], CHSH_PARTY2_SETTINGS[1])
        for _ in range(1000):
            bounded = random_sign_model(rng, CHSH_PARTY1_SETTINGS, CHSH_PARTY2_SETTINGS,
                                        n_atoms=int(rng.integers(2, 7)))
            s = chsh_value(lambda u, v: exact_expectation(bounded, u, v), settings)
            assert abs(s) <= 2.0 + 1e-12


def test_criterion_4_representation_theorem():
    with criterion(4, "moment-matched model equals quadrature correlator on 72x72 grid"):
        rng = np.random.default_rng(404)
        angles = np.linspace(-math.pi, math.pi, 72)
        settings = [QuadratureSetting(float(a)) for a in angles]
        reduced = np.array([s.alpha for s in settings])
        ca, sa = np.cos(reduced), np.sin(reduced)

        checked_pivot = 0
        for index in range(1000):
            vals = rng.uniform(-10.0, 10.0, size=4)
            if index % 20 == 0:
                vals[0] = 0.0  # exercise the qq = 0 case the pivot cannot handle
            m = MomentMatrix(*(float(v) for v in vals))

            lhv_grid = expectation_grid(quadrature_model(m), settings, settings)
            quantum_grid = (m.qq * np.outer(ca, ca) - m.pq * np.outer(sa, ca)
                            - m.qp * np.outer(ca, sa) + m.pp * np.outer(sa, sa))
            assert np.max(np.abs(lhv_grid - quantum_grid)) <= 1e-10

            if abs(m.qq) > 1e-9:
                pivot_grid = expectation_grid(
                    quadrature_model(m, Factorization.PIVOT_A), settings, settings)
                assert np.max(np.abs(pivot_grid - lhv_grid)) <= 1e-10
                checked_pivot += 1
        assert checked_pivot >= 900

        # spot-check that the batched grids agree with the scalar operations
        m = MomentMatrix(qq=2.5, pq=-1.5, qp=0.5, pp=3.0)
        model = quadrature_model(m)
        grid = expectation_grid(model, settings, settings)
        for i, j in ((0, 0), (10, 50), (33, 7), (71, 71)):
            scalar = exact_expectation(model, settings[i], settings[j])
            assert abs(grid[i, j] - scalar) <= 1e-13
            quantum = quadrature_correlation(m, settings[i], settings[j])
            assert abs(grid[i, j] - quantum) <= 1e-10


def test_criterion_5_tmsv_moments_and_cosine_law():
    with criterion(5, "two-mode squeezed vacuum against the symplectic oracle"):
        oracle_cov = two_mode_squeeze_cov(1.0)
        m = extract_moments(tmsv(1.0))
        s = math.sinh(2.0) / 2.0
        assert abs(m.qq - s) <= 1e-12
        assert abs(m.pq) <= 1e-12
        assert abs(m.qp) <= 1e-12
        assert abs(m.pp + s) <= 1e-12
        assert abs(m.qq - oracle_cov[0, 2]) <= 1e-12
        assert abs(m.pq - oracle_cov[1, 2]) <= 1e-12
        assert abs(m.qp - oracle_cov[0, 3]) <= 1e-12
        assert abs(m.pp - oracle_cov[1, 3]) <= 1e-12

        angles = np.linspace(-math.pi, math.pi, 72)
        for a1 in angles:
            for a2 in angles:
                value = quadrature_correlation(
                    m, QuadratureSetting(float(a1)), QuadratureSetting(float(a2)))
                assert abs(value - m.qq * math.cos(a1 + a2)) <= 1e-12


def test_criterion_6_free_evolution():
    with criterion(6, "free-evolution model equals bilinear time law on 21x21 grid"):
        rng = np.random.default_rng(606)
        times = [TimeSetting(float(t)) for t in np.linspace(-5.0, 5.0, 21)]
        for _ in range(100):
            vals = rng.uniform(-10.0, 10.0, size=4)
            m = MomentMatrix(*(float(v) for v in vals))
            model = free_evolution_model(m)
            for t1 in times:
                for t2 in times:
                    expected = m.qq + m.pq * t1.t + m.qp * t2.t + m.pp * (t1.t * t2.t)
                    assert abs(exact_expectation(model, t1, t2) - expected) <= 1e-12
                    assert abs(free_evolution_correlation(m, t1, t2) - expected) <= 1e-12


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical CSV across reruns and worker counts"):
        for name in ("spin_chsh", "epr_quadrature", "free_evolution"):
            outputs = []
            for label, workers in (("r1", 1), ("r2", 1), ("w4", 4)):
                out_dir = tmp_path / f"{name}_{label}"
                code = run_scenario(SCENARIOS / f"{name}.json", out_dir=out_dir,
                                    workers=workers)
                assert code == 0
                outputs.append((out_dir / f"{name}.csv").read_bytes())
            assert outputs[0] == outputs[1]
            assert outputs[0] == outputs[2]


def test_criterion_8_end_to_end_cli(tmp_path):
    with criterion(8, "bundled scenarios exit 0 with consistent, calibrated results"):
        for name in ("spin_chsh", "epr_quadrature"):
            out_dir = tmp_path / name
            assert run_scenario(SCENARIOS / f"{name}.json", out_dir=out_dir) == 0
            summary = json.loads((out_dir / f"{name}.summary.json").read_text())
            assert summary["consistency_pass"] is True
            assert summary["max_abs_z"] <= 5.0
