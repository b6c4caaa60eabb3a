import itertools
import math

import numpy as np
import pytest

from eprlab import (
    UNBOUNDED,
    ChshSettings,
    ComponentResponse,
    DegenerateMomentError,
    Factorization,
    HiddenVariableModel,
    LinearResponse,
    MomentMatrix,
    QuadratureSetting,
    ResponseMode,
    SampleSpace,
    Spectrum,
    TabulatedResponse,
    TimeSetting,
    UnitVector3,
    ValidationError,
    chsh_value,
    exact_expectation,
    expectation_grid,
    extract_moments,
    free_evolution_correlation,
    free_evolution_model,
    matched_moments,
    quadrature_correlation,
    quadrature_model,
    spectrum_compatibility,
    spin_correlation,
    sup_bound,
    tmsv,
    unbounded_spin_model,
)
from conftest import (
    CHSH_PARTY1_SETTINGS,
    CHSH_PARTY2_SETTINGS,
    fibonacci_sphere,
    random_sign_model,
    random_unit_vectors,
)
from eprlab.lhv import _contract, _feature_stack

Z_AXIS = UnitVector3(0.0, 0.0, 1.0)
X_AXIS = UnitVector3(1.0, 0.0, 0.0)
ROOT3 = math.sqrt(3.0)


def random_moments(rng: np.random.Generator) -> MomentMatrix:
    qq, pq, qp, pp = rng.uniform(-10.0, 10.0, size=4)
    return MomentMatrix(qq=float(qq), pq=float(pq), qp=float(qp), pp=float(pp))


def all_zero_finite_model() -> HiddenVariableModel:
    settings = (QuadratureSetting(0.0), QuadratureSetting(1.0))
    zeros = ((0.0, 0.0), (0.0, 0.0))
    return HiddenVariableModel(
        space=SampleSpace.finite((0.5, 0.5)),
        response1=TabulatedResponse(settings=settings, values=zeros),
        response2=TabulatedResponse(settings=settings, values=zeros),
    )


class TestUnboundedSpinModel:
    def test_reproduces_singlet_on_axes(self):
        model = unbounded_spin_model()
        assert abs(exact_expectation(model, Z_AXIS, Z_AXIS) + 1.0) < 1e-12
        assert abs(exact_expectation(model, Z_AXIS, X_AXIS)) < 1e-12

    def test_diagonal_direction_brute_force(self):
        model = unbounded_spin_model()
        d = UnitVector3(1.0 / ROOT3, 1.0 / ROOT3, 1.0 / ROOT3)
        # three-atom sum written out explicitly
        expected = sum(
            (1.0 / 3.0) * (ROOT3 * c) * (-ROOT3 * c)
            for c in (d.x, d.y, d.z)
        )
        assert abs(exact_expectation(model, d, d) - expected) < 1e-15
        assert abs(expected + 1.0) < 1e-12

    def test_response_value(self):
        model = unbounded_spin_model()
        assert abs(model.response1.features(X_AXIS)[0] - ROOT3) < 1e-15
        assert abs(model.response2.features(X_AXIS)[0] + ROOT3) < 1e-15

    def test_reproduces_singlet_randomized(self):
        model = unbounded_spin_model()
        rng = np.random.default_rng(17)
        vectors = random_unit_vectors(rng, 220)
        for a, b in zip(vectors[::2], vectors[1::2]):
            closed_form = -(a.x * b.x + a.y * b.y + a.z * b.z)
            assert abs(exact_expectation(model, a, b) - closed_form) < 1e-12

    def test_sup_bound_is_root_three(self):
        assert abs(sup_bound(unbounded_spin_model()) - ROOT3) < 1e-12

    def test_sup_bound_grid_cross_check(self):
        model = unbounded_spin_model()
        grid_sup = max(
            abs(value)
            for resp in (model.response1, model.response2)
            for a in fibonacci_sphere(360)
            for value in resp.features(a)
        )
        assert grid_sup <= ROOT3 + 1e-12
        assert grid_sup > ROOT3 - 0.05

    def test_matches_quantum_chsh_while_unbounded(self):
        model = unbounded_spin_model()

        def xz(theta):
            return UnitVector3(math.sin(theta), 0.0, math.cos(theta))

        settings = ChshSettings(xz(0.0), xz(math.pi / 2.0),
                                xz(math.pi / 4.0), xz(3.0 * math.pi / 4.0))
        s_model = chsh_value(lambda u, v: exact_expectation(model, u, v), settings)
        s_quantum = chsh_value(spin_correlation, settings)
        assert abs(s_model - s_quantum) < 1e-10
        assert abs(abs(s_model) - 2.0 * math.sqrt(2.0)) < 1e-9
        assert sup_bound(model) > 1.0


class TestQuadratureModel:
    def test_moment_equations_hold_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            m = random_moments(rng)
            matched = matched_moments(quadrature_model(m))
            assert matched.qq == m.qq
            assert matched.pq == m.pq
            assert matched.qp == m.qp
            assert matched.pp == m.pp

    def test_moment_equations_off_diagonal_example(self):
        m = MomentMatrix(qq=0.0, pq=1.0, qp=1.0, pp=0.0)
        matched = matched_moments(quadrature_model(m))
        assert (matched.qq, matched.pq, matched.qp, matched.pp) == (0.0, 1.0, 1.0, 0.0)

    def test_pure_qq_at_zero_angles(self):
        m = MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=1.0)
        model = quadrature_model(m)
        assert exact_expectation(model, QuadratureSetting(0.0), QuadratureSetting(0.0)) == 1.0

    def test_tmsv_cosine_closed_form(self):
        m = extract_moments(tmsv(1.0))
        for variant in (Factorization.GENERAL, Factorization.PIVOT_A):
            model = quadrature_model(m, variant)
            value = exact_expectation(model, QuadratureSetting(0.3), QuadratureSetting(0.5))
            assert abs(value - m.qq * math.cos(0.8)) < 1e-12

    def test_matches_quadrature_correlation_on_grid(self):
        rng = np.random.default_rng(29)
        angles = [QuadratureSetting(a) for a in np.linspace(-math.pi, math.pi, 12)]
        for _ in range(50):
            m = random_moments(rng)
            model = quadrature_model(m)
            for a1 in angles:
                for a2 in angles:
                    lhv = exact_expectation(model, a1, a2)
                    quantum = quadrature_correlation(m, a1, a2)
                    assert abs(lhv - quantum) < 1e-10

    def test_handles_vanishing_qq_moment(self):
        model = quadrature_model(MomentMatrix(qq=0.0, pq=1.5, qp=-2.0, pp=0.5))
        value = exact_expectation(model, QuadratureSetting(0.7), QuadratureSetting(-0.2))
        expected = quadrature_correlation(
            MomentMatrix(qq=0.0, pq=1.5, qp=-2.0, pp=0.5),
            QuadratureSetting(0.7), QuadratureSetting(-0.2))
        assert abs(value - expected) < 1e-12

    def test_variants_agree_when_not_degenerate(self):
        rng = np.random.default_rng(31)
        angles = [QuadratureSetting(a) for a in np.linspace(-math.pi, math.pi, 24)]
        for _ in range(50):
            m = random_moments(rng)
            if abs(m.qq) < 0.05:
                continue
            general = quadrature_model(m, Factorization.GENERAL)
            pivot = quadrature_model(m, Factorization.PIVOT_A)
            for a1 in angles[::3]:
                for a2 in angles[::3]:
                    diff = exact_expectation(general, a1, a2) - exact_expectation(pivot, a1, a2)
                    assert abs(diff) < 1e-10

    def test_pivot_variant_rejects_degenerate_qq(self):
        with pytest.raises(DegenerateMomentError):
            quadrature_model(MomentMatrix(qq=0.0, pq=1.0, qp=1.0, pp=0.0),
                             Factorization.PIVOT_A)
        with pytest.raises(DegenerateMomentError):
            quadrature_model(MomentMatrix(qq=1e-10, pq=1.0, qp=1.0, pp=0.0),
                             Factorization.PIVOT_A)

    def test_sup_bound_unbounded(self):
        model = quadrature_model(MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=-1.0))
        assert sup_bound(model) == UNBOUNDED


class TestFreeEvolutionModel:
    def test_zero_times(self):
        model = free_evolution_model(MomentMatrix(qq=1.0, pq=2.0, qp=3.0, pp=4.0))
        assert exact_expectation(model, TimeSetting(0.0), TimeSetting(0.0)) == 1.0

    def test_unit_times(self):
        model = free_evolution_model(MomentMatrix(qq=1.0, pq=2.0, qp=3.0, pp=4.0))
        assert exact_expectation(model, TimeSetting(1.0), TimeSetting(1.0)) == 10.0

    def test_mixed_times(self):
        model = free_evolution_model(MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=-1.0))
        assert exact_expectation(model, TimeSetting(2.0), TimeSetting(3.0)) == -5.0

    def test_matches_correlator_on_time_grid(self):
        rng = np.random.default_rng(37)
        times = [TimeSetting(t) for t in np.linspace(-5.0, 5.0, 21)]
        for _ in range(20):
            m = random_moments(rng)
            model = free_evolution_model(m)
            for t1 in times:
                for t2 in times:
                    lhv = exact_expectation(model, t1, t2)
                    quantum = free_evolution_correlation(m, t1, t2)
                    assert abs(lhv - quantum) < 1e-12


class TestBoundedModelsRespectChsh:
    def test_random_sign_models(self):
        rng = np.random.default_rng(41)
        settings = ChshSettings(CHSH_PARTY1_SETTINGS[0], CHSH_PARTY1_SETTINGS[1],
                                CHSH_PARTY2_SETTINGS[0], CHSH_PARTY2_SETTINGS[1])
        for _ in range(1000):
            model = random_sign_model(rng, CHSH_PARTY1_SETTINGS, CHSH_PARTY2_SETTINGS,
                                      n_atoms=int(rng.integers(2, 7)))
            s = chsh_value(lambda u, v: exact_expectation(model, u, v), settings)
            assert abs(s) <= 2.0 + 1e-12

    def test_deterministic_strategies_exhaustive(self):
        # Every bounded model is a convex mixture of the 16 deterministic
        # +-1 strategies (Fine 1982), so their maximum certifies |S| <= 2.
        settings = ChshSettings(CHSH_PARTY1_SETTINGS[0], CHSH_PARTY1_SETTINGS[1],
                                CHSH_PARTY2_SETTINGS[0], CHSH_PARTY2_SETTINGS[1])
        values = []
        for a, a_prime, b, b_prime in itertools.product((-1.0, 1.0), repeat=4):
            model = HiddenVariableModel(
                space=SampleSpace.finite((1.0,)),
                response1=TabulatedResponse(CHSH_PARTY1_SETTINGS, ((a,), (a_prime,))),
                response2=TabulatedResponse(CHSH_PARTY2_SETTINGS, ((b,), (b_prime,))),
            )
            values.append(chsh_value(lambda u, v: exact_expectation(model, u, v), settings))
        assert len(values) == 16
        assert max(abs(s) for s in values) == 2.0


class TestSupBound:
    def test_all_zero_responses(self):
        assert sup_bound(all_zero_finite_model()) == 0.0

    def test_zero_gaussian_responses(self):
        model = HiddenVariableModel(
            space=SampleSpace.gaussian_pair(),
            response1=LinearResponse((0.0, 0.0), (0.0, 0.0), ResponseMode.TRIG),
            response2=LinearResponse((0.0, 0.0), (0.0, 0.0), ResponseMode.TRIG),
        )
        assert sup_bound(model) == 0.0

    def test_tabulated_maximum(self):
        settings = (QuadratureSetting(0.0), QuadratureSetting(1.0))
        model = HiddenVariableModel(
            space=SampleSpace.finite((0.25, 0.75)),
            response1=TabulatedResponse(settings, ((0.5, -2.0), (1.0, 0.0))),
            response2=TabulatedResponse(settings, ((1.0, 1.0), (-1.0, 1.0))),
        )
        assert sup_bound(model) == 2.0

    def test_certificates_of_the_package_models(self):
        # sup_bound is the response bound each construction certifies.
        assert sup_bound(unbounded_spin_model()) == ROOT3
        for m in (MomentMatrix(qq=1.0, pq=0.5, qp=-0.25, pp=2.0), extract_moments(tmsv(0.7))):
            for variant in Factorization:
                assert sup_bound(quadrature_model(m, variant)) == UNBOUNDED
            assert sup_bound(free_evolution_model(m)) == UNBOUNDED
        rng = np.random.default_rng(47)
        for n_atoms in range(1, 7):
            model = random_sign_model(rng, CHSH_PARTY1_SETTINGS, CHSH_PARTY2_SETTINGS, n_atoms)
            assert sup_bound(model) == 1.0


#: Coefficients of the exhaustive spectrum test. The ratio of two nonzero
#: ones is one of SPAN_RATIOS, which therefore hold every t at which a pair
#: of coefficient vectors drawn from them can be linearly dependent.
SPAN_COEFFS = (0.0, -0.0, 1.0, -1.0, 2.0)
SPAN_RATIOS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5)


def vanishes_at_some_setting(resp: LinearResponse) -> bool:
    """Reference from the definition: is the response's coefficient vector zero at some setting?

    In TRIG mode it is q cos(alpha) - p sin(alpha): zero at some angle iff
    c q + d p = 0 for some (c, d) != 0, which can be scaled to (0, 1) or
    (1, t). In LINEAR_TIME mode it is q + p t: zero iff c q + d p = 0 at
    some (1, t). With coefficients from SPAN_COEFFS a root has t in SPAN_RATIOS.
    """
    q, p = resp.q_coeffs, resp.p_coeffs
    directions = [(1.0, t) for t in SPAN_RATIOS]
    if resp.mode is ResponseMode.TRIG:
        directions.append((0.0, 1.0))
    return any(c * q[0] + d * p[0] == 0.0 and c * q[1] + d * p[1] == 0.0
               for c, d in directions)


class TestSpectrumCompatibility:
    @pytest.mark.parametrize("mode", list(ResponseMode))
    def test_gaussian_verdicts_equal_the_definition(self, mode):
        # Every coefficient vector pair from SPAN_COEFFS, on either side of a
        # partner that spans R at every setting and of one that is zero.
        spanning = LinearResponse((1.0, 0.0), (0.0, 1.0), mode)
        zero = LinearResponse((0.0, 0.0), (0.0, 0.0), mode)
        checked = 0
        for q0, q1, p0, p1 in itertools.product(SPAN_COEFFS, repeat=4):
            resp = LinearResponse((q0, q1), (p0, p1), mode)
            spans = not vanishes_at_some_setting(resp)
            is_zero = all(v == 0.0 for v in (q0, q1, p0, p1))
            for partner in (spanning, zero):
                for pair in ((resp, partner), (partner, resp)):
                    model = HiddenVariableModel(SampleSpace.gaussian_pair(), *pair)
                    assert spectrum_compatibility(model, Spectrum.QUADRATURE_REAL_LINE) is (
                        spans and partner is spanning), pair
                    # A linear form in two standard normals is bounded only when it is zero.
                    assert spectrum_compatibility(model, Spectrum.SPIN_PM1) is (
                        is_zero and partner is zero), pair
                    checked += 1
        assert checked == 4 * 5**4

    def test_unbounded_spin_model_fails_pm1(self):
        model = unbounded_spin_model()
        assert not spectrum_compatibility(model, Spectrum.SPIN_PM1)
        assert abs(sup_bound(model) - ROOT3) < 1e-12

    def test_all_zero_passes_pm1(self):
        assert spectrum_compatibility(all_zero_finite_model(), Spectrum.SPIN_PM1)

    def test_bounded_sign_model_passes_pm1(self):
        rng = np.random.default_rng(43)
        model = random_sign_model(rng, CHSH_PARTY1_SETTINGS, CHSH_PARTY2_SETTINGS, n_atoms=3)
        assert spectrum_compatibility(model, Spectrum.SPIN_PM1)

    def test_quadrature_model_passes_real_line(self):
        model = quadrature_model(MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=-1.0))
        assert spectrum_compatibility(model, Spectrum.QUADRATURE_REAL_LINE)
        assert sup_bound(model) == UNBOUNDED

    def test_degenerate_moments_fail_real_line(self):
        # with only a qq moment, party 1's response vanishes identically
        # at the momentum setting while the observable still spans R
        model = quadrature_model(MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=0.0))
        assert not spectrum_compatibility(model, Spectrum.QUADRATURE_REAL_LINE)

    def test_finite_space_fails_real_line(self):
        assert not spectrum_compatibility(unbounded_spin_model(), Spectrum.QUADRATURE_REAL_LINE)

    @pytest.mark.parametrize("spectrum", ["SPIN_PM1", "QUADRATURE_REAL_LINE", None])
    def test_non_spectrum_value_is_refused(self, spectrum):
        # Such a value used to take the real-line branch: True for this model.
        model = quadrature_model(MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=-1.0))
        with pytest.raises(ValidationError, match="unknown spectrum"):
            spectrum_compatibility(model, spectrum)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            SampleSpace.finite((0.5, 0.4))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            SampleSpace.finite((1.5, -0.5))

    def test_setting_kind_mismatch(self):
        spin = unbounded_spin_model()
        with pytest.raises(ValidationError):
            exact_expectation(spin, QuadratureSetting(0.0), QuadratureSetting(0.0))
        quad = quadrature_model(MomentMatrix(qq=1.0, pq=0.0, qp=0.0, pp=0.0))
        with pytest.raises(ValidationError):
            exact_expectation(quad, TimeSetting(0.0), TimeSetting(0.0))

    def test_tabulated_setting_must_exist(self):
        model = all_zero_finite_model()
        with pytest.raises(ValidationError):
            exact_expectation(model, QuadratureSetting(0.5), QuadratureSetting(0.0))

    def test_mixed_response_modes_rejected(self):
        with pytest.raises(ValidationError):
            HiddenVariableModel(
                space=SampleSpace.gaussian_pair(),
                response1=LinearResponse((1.0, 0.0), (0.0, 1.0), ResponseMode.TRIG),
                response2=LinearResponse((1.0, 0.0), (0.0, 1.0), ResponseMode.LINEAR_TIME),
            )

    def test_finite_space_rejects_linear_response(self):
        with pytest.raises(ValidationError):
            HiddenVariableModel(
                space=SampleSpace.finite((1.0,)),
                response1=LinearResponse((1.0, 0.0), (0.0, 1.0), ResponseMode.TRIG),
                response2=LinearResponse((1.0, 0.0), (0.0, 1.0), ResponseMode.TRIG),
            )


class TestExpectationGrid:
    def test_matches_scalar_gaussian(self):
        m = MomentMatrix(qq=1.5, pq=-0.25, qp=2.0, pp=0.5)
        model = quadrature_model(m)
        s1 = [QuadratureSetting(a) for a in np.linspace(-3.0, 3.0, 9)]
        s2 = [QuadratureSetting(a) for a in np.linspace(-1.0, 2.0, 7)]
        grid = expectation_grid(model, s1, s2)
        assert grid.shape == (9, 7)
        for i, a1 in enumerate(s1):
            for j, a2 in enumerate(s2):
                assert grid[i, j] == exact_expectation(model, a1, a2)

    def test_matches_scalar_finite(self):
        model = unbounded_spin_model()
        rng = np.random.default_rng(47)
        s1 = random_unit_vectors(rng, 5)
        s2 = random_unit_vectors(rng, 6)
        grid = expectation_grid(model, s1, s2)
        for i, a in enumerate(s1):
            for j, b in enumerate(s2):
                assert grid[i, j] == exact_expectation(model, a, b)

    def test_matches_scalar_spin_plane_72x72(self):
        model = unbounded_spin_model()
        plane = [UnitVector3(math.sin(t), 0.0, math.cos(t))
                 for t in np.linspace(0.0, 2.0 * math.pi, 72)]
        grid = expectation_grid(model, plane, plane)
        assert grid.shape == (72, 72)
        for i, a in enumerate(plane):
            for j, b in enumerate(plane):
                assert grid[i, j] == exact_expectation(model, a, b)


    @pytest.mark.parametrize("rows, cols", [(0, 3), (4, 0), (0, 0)])
    def test_empty_setting_lists_give_empty_grids(self, rows, cols):
        quadratures = [QuadratureSetting(a) for a in (0.0, 0.5, 1.0, 1.5)]
        for model, settings in ((unbounded_spin_model(),
                                 random_unit_vectors(np.random.default_rng(5), 4)),
                                (quadrature_model(MomentMatrix(qq=1.5, pq=-0.25, qp=2.0, pp=0.5)),
                                 quadratures)):
            grid = expectation_grid(model, settings[:rows], settings[:cols])
            assert grid.shape == (rows, cols) and grid.dtype == np.float64


class TestExpectationRows:
    @pytest.mark.parametrize("build, make, values", [
        (lambda: unbounded_spin_model(),
         lambda t: UnitVector3(math.sin(t), 0.0, math.cos(t)), [0.0, -0.0, 0.4, -2.5, 3.0]),
        (lambda: quadrature_model(MomentMatrix(qq=1.5, pq=-0.0, qp=2.0, pp=-0.5)),
         QuadratureSetting, [0.0, -0.0, 1.5 * math.pi, -1.0, 2.75]),
        (lambda: free_evolution_model(MomentMatrix(qq=0.0, pq=0.7, qp=-0.23, pp=1.1)),
         TimeSetting, [0.0, -0.0, 1e3, -7.5, 1e-6]),
    ])
    def test_matches_scalar_bit_for_bit(self, build, make, values):
        # The contraction of row-aligned feature stacks, as the CLI evaluates
        # its rows, equals the one-pair exact expectation bit for bit.
        model = build()
        pairs = [(make(x1), make(x2)) for x1, x2 in itertools.product(values, repeat=2)]
        rows = _contract(np.array(model.space.basis_weights),
                         _feature_stack(model.response1, [a for a, _ in pairs]),
                         _feature_stack(model.response2, [b for _, b in pairs]))
        assert rows.shape == (len(pairs),)
        assert [float(v).hex() for v in rows] == \
            [exact_expectation(model, a, b).hex() for a, b in pairs]
