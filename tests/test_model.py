"""Cumulative-exposure model: distribution, cells, and analytic gradient."""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    SIM_PLAN,
    SIM_THETA,
    exposure_cell_probabilities,
    fd_cell_gradient,
    random_problem,
    reference_cell_probabilities,
    reference_gradient_matrix,
    reference_shift_terms,
)
from stepstress.datasets import BUNDLED_DATASETS, load_dataset
from stepstress.errors import NumericError
from stepstress.estimation import FitConfig, fit_proportions
from stepstress.model import (
    IntervalData,
    ModelParams,
    ParameterSpaceWarning,
    StressPlan,
    _segments,
    cdf,
    cell_probabilities,
    gradient_matrix,
    pdf,
    scale_at_level,
    score_rows,
    shift_terms,
)
from stepstress.montecarlo import load_scenario


class TestStressPlan:
    def test_valid_plan(self):
        assert SIM_PLAN.n_levels == 2
        assert SIM_PLAN.n_inspections == 13
        assert SIM_PLAN.n_cells == 14

    def test_stress_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            StressPlan([2.0, 1.0], [1.0, 2.0], [1.0, 2.0])

    def test_change_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            StressPlan([1.0, 2.0], [2.0, 1.0], [1.0, 2.0])

    def test_inspection_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            StressPlan([1.0, 2.0], [1.0, 2.0], [2.0, 1.0])

    def test_change_time_must_be_inspected(self):
        with pytest.raises(ValueError, match="not an inspection time"):
            StressPlan([1.0, 2.0], [1.5, 3.0], [1.0, 2.0, 3.0])

    def test_termination_must_close_inspections(self):
        with pytest.raises(ValueError, match="termination"):
            StressPlan([1.0, 2.0], [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_level_count_mismatch(self):
        with pytest.raises(ValueError, match="one entry per stress level"):
            StressPlan([1.0, 2.0, 3.0], [1.0, 2.0], [1.0, 2.0])


def _assert_segments_cached(plan):
    seg = _segments(plan, plan.inspection_times, "left")
    assert np.array_equal(plan.inspection_segments, seg)
    assert np.array_equal(plan.inspection_levels, plan.stress_levels[seg])


class TestPlanSegmentCache:
    def test_matches_segment_search(self):
        rng = np.random.default_rng(610)
        for _ in range(100):
            _, plan = random_problem(rng, k_max=5)
            _assert_segments_cached(plan)

    def test_survives_replace(self):
        rng = np.random.default_rng(611)
        for _ in range(30):
            _, plan = random_problem(rng, k_max=5)
            moved = dataclasses.replace(plan, stress_levels=plan.stress_levels + 1.5)
            _assert_segments_cached(moved)
            assert np.array_equal(moved.inspection_levels, plan.inspection_levels + 1.5)
            # the last change time doubles as the termination time
            stretched = dataclasses.replace(
                plan,
                change_times=plan.change_times * 2.0,
                inspection_times=plan.inspection_times * 2.0,
            )
            _assert_segments_cached(stretched)

    def test_survives_pickle(self):
        rng = np.random.default_rng(612)
        for _ in range(30):
            params, plan = random_problem(rng, k_max=5)
            copy = pickle.loads(pickle.dumps(plan))
            _assert_segments_cached(copy)
            assert np.array_equal(
                gradient_matrix(params, copy), gradient_matrix(params, plan)
            )

    def test_not_part_of_repr_or_init(self):
        assert "inspection_segments" not in repr(SIM_PLAN)
        with pytest.raises(TypeError):
            StressPlan([1.0], [2.0], [1.0, 2.0], inspection_segments=[0, 0])


class TestModelParams:
    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError, match="eta"):
            ModelParams(1.0, -1.0, 0.0)

    def test_positive_slope_warns(self):
        # the container accepts a1 >= 0 silently; the fit that returns such
        # an estimate is what warns
        params = ModelParams(1.0, 0.5, 1.0)
        plan = load_dataset("solar").plan
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParameterSpaceWarning)
            ModelParams(0.0, 0.0, 1.0)
            pi = cell_probabilities(params, plan)
        with pytest.warns(ParameterSpaceWarning, match="a1 >= 0"):
            result = fit_proportions(plan, pi, 100, FitConfig(beta=0.0))
        assert result.params.a1 == pytest.approx(0.5, abs=1e-6)

    def test_as_array_roundtrip(self):
        theta = SIM_THETA.as_array()
        assert theta == pytest.approx([5.3, -0.05, 1.5])


class TestIntervalData:
    def test_counts_must_sum_to_total(self):
        with pytest.raises(ValueError, match="sum"):
            IntervalData(counts=[1, 2, 3], total=7)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IntervalData(counts=[-1, 2, 6], total=7)

    def test_fractional_pseudo_counts_accepted(self):
        data = IntervalData(counts=[0.5, 1.25, 3.25], total=5)
        assert data.proportions == pytest.approx([0.1, 0.25, 0.65])

    def test_fractional_total_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="whole number of devices, got 35.7"):
            IntervalData(counts=[10.5, 20, 5.2], total=35.7)
        for total in (7, 7.0, np.int64(7)):
            data = IntervalData(counts=[1, 2, 4], total=total)
            assert data.total == 7 and type(data.total) is int

    def test_cell_count_checked_against_plan(self):
        data = IntervalData(counts=[1.0, 2.0], total=3)
        with pytest.raises(ValueError, match="cells"):
            data.validate_against(SIM_PLAN)


class TestScale:
    def test_zero_params(self):
        params = ModelParams(0.0, 0.0, 1.0)
        assert scale_at_level(params, 17.3) == 1.0

    def test_log_linear(self):
        assert scale_at_level(SIM_THETA, 30.0) == pytest.approx(np.exp(3.8), rel=1e-14)
        assert scale_at_level(SIM_THETA, 30.0) == pytest.approx(44.701, abs=5e-4)

    def test_solar_scale_at_use_stress(self):
        assert scale_at_level(ModelParams(1.804, -2.388, 1.535), 0.0) == pytest.approx(
            6.074, abs=1e-3
        )


class TestShiftTerms:
    def test_equal_scales_no_shift(self):
        plan = StressPlan([1.0, 2.0], [1.0, 2.0], [0.5, 1.0, 2.0])
        params = ModelParams(0.7, 0.0, 1.3)
        terms = shift_terms(params, plan)
        assert terms.h == pytest.approx([0.0, 0.0])

    def test_single_level_no_shift(self):
        plan = StressPlan([1.0], [2.0], [0.5, 1.0, 2.0])
        terms = shift_terms(ModelParams(0.7, -0.3, 1.3), plan)
        assert terms.h == pytest.approx([0.0])
        assert terms.h_star == pytest.approx([0.0])

    def test_two_level_shift(self):
        terms = shift_terms(SIM_THETA, SIM_PLAN)
        a1, a2 = np.exp(3.8), np.exp(3.3)
        assert terms.alphas == pytest.approx([a1, a2], rel=1e-14)
        assert terms.h[1] == pytest.approx(18 * (a2 / a1 - 1), rel=1e-12)
        assert terms.h[1] == pytest.approx(-7.083, abs=2e-3)

    def test_continuity_identity(self):
        # the shift is defined exactly so both branches agree at the change
        rng = np.random.default_rng(101)
        for _ in range(50):
            params, plan = random_problem(rng)
            terms = shift_terms(params, plan)
            for i in range(1, plan.n_levels):
                tau = plan.change_times[i - 1]
                old = ((tau + terms.h[i - 1]) / terms.alphas[i - 1]) ** params.eta
                new = ((tau + terms.h[i]) / terms.alphas[i]) ** params.eta
                assert new == pytest.approx(old, rel=1e-10)

    def test_h_star_is_slope_derivative_of_h(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            params, plan = random_problem(rng)
            delta = 1e-6
            hi = shift_terms(ModelParams(params.a0, params.a1 + delta, params.eta), plan)
            lo = shift_terms(ModelParams(params.a0, params.a1 - delta, params.eta), plan)
            fd = (hi.h - lo.h) / (2 * delta)
            terms = shift_terms(params, plan)
            assert terms.h_star == pytest.approx(fd, rel=1e-5, abs=1e-7)


def _bundled_problems():
    """Each bundled plan at its truth or rounded MLE, and at points around it."""
    rng = np.random.default_rng(613)
    anchors = {
        "solar": (1.804, -2.388, 1.535),
        "transistor": (16.436, -5.163, 0.870),
        "led": (9.529, -5.052, 1.820),
    }
    problems = []
    for name in BUNDLED_DATASETS:
        plan = load_dataset(name).plan
        problems.append((ModelParams(*anchors[name]), plan))
    spec = load_scenario("clean")
    problems.append((spec.theta_true, spec.plan))
    spread = []
    for params, plan in problems:
        for _ in range(25):
            theta = params.as_array()
            theta = theta + rng.normal(0.0, 0.1 * np.abs(theta))
            spread.append((ModelParams(*theta), plan))
    return problems + spread


def _random_problems_by_level_count():
    rng = np.random.default_rng(614)
    problems = [random_problem(rng, k_max=5) for _ in range(300)]
    assert {plan.n_levels for _, plan in problems} == {1, 2, 3, 4, 5}
    return problems


class TestFrozenReference:
    """The kernels reproduce the frozen shift-term reference bit for bit."""

    @staticmethod
    def _assert_bit_exact(params, plan):
        alphas, h, h_star = reference_shift_terms(params, plan)
        terms = shift_terms(params, plan)
        assert np.array_equal(terms.alphas, alphas)
        assert np.array_equal(terms.h, h)
        assert np.array_equal(terms.h_star, h_star)
        assert np.array_equal(
            cell_probabilities(params, plan), reference_cell_probabilities(params, plan)
        )
        assert np.array_equal(
            gradient_matrix(params, plan), reference_gradient_matrix(params, plan)
        )

    def test_random_plans_one_to_five_levels(self):
        for params, plan in _random_problems_by_level_count():
            self._assert_bit_exact(params, plan)

    def test_bundled_plans(self):
        for params, plan in _bundled_problems():
            self._assert_bit_exact(params, plan)

    def test_single_level_runs_no_recursion(self):
        plan = StressPlan([1.0], [4.0], [1.0, 2.5, 4.0])
        params = ModelParams(1.2, -0.4, 1.3)
        self._assert_bit_exact(params, plan)
        terms = shift_terms(params, plan)
        assert terms.h.tolist() == [0.0] and terms.h_star.tolist() == [0.0]

    def test_guards_still_raise(self):
        # both scales are positive, but 1/alpha_2 overflows in the recursion
        params = ModelParams(-708.0, -1.0, 1.0)
        plan = StressPlan([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
        with np.errstate(all="ignore"):
            alphas, h, _ = reference_shift_terms(params, plan)
        assert np.all(alphas > 0.0) and not np.all(np.isfinite(h))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning escapes either
            with pytest.raises(NumericError, match="shift"):
                shift_terms(params, plan)
            with pytest.raises(NumericError, match="scale"):
                shift_terms(ModelParams(800.0, -1.0, 1.0), plan)

    def test_reference_agrees_with_exposure_oracle(self):
        problems = _random_problems_by_level_count() + _bundled_problems()
        for params, plan in problems:
            assert np.allclose(
                reference_cell_probabilities(params, plan),
                exposure_cell_probabilities(params.as_array(), plan),
                rtol=0.0,
                atol=1e-13,
            )


class TestCdf:
    def test_zero_at_origin(self):
        assert cdf(SIM_THETA, SIM_PLAN, 0.0) == 0.0

    def test_value_at_change_time_from_both_branches(self):
        value = cdf(SIM_THETA, SIM_PLAN, 18.0)
        expected = 1 - np.exp(-((18 / np.exp(3.8)) ** 1.5))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.2255, abs=2e-4)
        terms = shift_terms(SIM_THETA, SIM_PLAN)
        other_branch = 1 - np.exp(-(((18 + terms.h[1]) / terms.alphas[1]) ** 1.5))
        assert value == pytest.approx(other_branch, rel=1e-10)

    def test_limit_is_one(self):
        assert cdf(SIM_THETA, SIM_PLAN, 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            cdf(SIM_THETA, SIM_PLAN, -0.1)

    def test_continuous_at_change_times(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            params, plan = random_problem(rng)
            terms = shift_terms(params, plan)
            for i in range(1, plan.n_levels):
                tau = plan.change_times[i - 1]
                left = 1 - np.exp(
                    -(((tau + terms.h[i - 1]) / terms.alphas[i - 1]) ** params.eta)
                )
                right = 1 - np.exp(-(((tau + terms.h[i]) / terms.alphas[i]) ** params.eta))
                assert abs(left - right) < 1e-10

    def test_non_decreasing(self):
        grid = np.linspace(0.0, 80.0, 10_000)
        values = cdf(SIM_THETA, SIM_PLAN, grid)
        assert np.all(np.diff(values) >= 0)

    def test_single_level_is_plain_weibull(self):
        plan = StressPlan([1.0], [4.0], [1.0, 2.0, 4.0])
        params = ModelParams(1.1, -0.4, 1.7)
        alpha = np.exp(1.1 - 0.4)
        for t in (0.3, 1.7, 3.9):
            assert cdf(params, plan, t) == pytest.approx(
                1 - np.exp(-((t / alpha) ** 1.7)), rel=1e-14, abs=1e-16
            )


class TestPdf:
    def test_positive_time_required(self):
        with pytest.raises(ValueError):
            pdf(SIM_THETA, SIM_PLAN, 0.0)

    def test_direct_value_in_first_segment(self):
        alpha = np.exp(3.8)
        expected = 1.5 / alpha * (10 / alpha) ** 0.5 * np.exp(-((10 / alpha) ** 1.5))
        assert pdf(SIM_THETA, SIM_PLAN, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_cdf_derivative(self):
        rng = np.random.default_rng(104)
        for _ in range(30):
            params, plan = random_problem(rng)
            t = rng.uniform(0.05, plan.change_times[-1] * 0.99)
            if np.any(np.abs(t - plan.change_times) < 1e-3):
                continue
            delta = 1e-6 * (1 + t)
            fd = (cdf(params, plan, t + delta) - cdf(params, plan, t - delta)) / (2 * delta)
            assert pdf(params, plan, t) == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_exponential_reduction_at_unit_shape(self):
        params = ModelParams(5.3, -0.05, 1.0)
        terms = shift_terms(params, SIM_PLAN)
        t = 30.0
        expected = 1 / terms.alphas[1] * np.exp(-(t + terms.h[1]) / terms.alphas[1])
        assert pdf(params, SIM_PLAN, t) == pytest.approx(expected, rel=1e-12)

    def test_right_limit_at_change_time(self):
        terms = shift_terms(SIM_THETA, SIM_PLAN)
        u = (18.0 + terms.h[1]) / terms.alphas[1]
        expected = 1.5 / terms.alphas[1] * u**0.5 * np.exp(-(u**1.5))
        assert pdf(SIM_THETA, SIM_PLAN, 18.0) == pytest.approx(expected, rel=1e-12)

    def test_quadrature_recovers_cdf(self):
        params, plan = SIM_THETA, SIM_PLAN
        total = 0.0
        pieces = np.concatenate([[0.0], plan.change_times])
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            value, _ = quad(lambda t: pdf(params, plan, t), lo, hi, limit=200)
            total += value
        assert total == pytest.approx(cdf(params, plan, plan.change_times[-1]), abs=1e-6)


class TestCellProbabilities:
    def test_sum_to_one(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            params, plan = random_problem(rng)
            pi = cell_probabilities(params, plan)
            assert pi.shape == (plan.n_cells,)
            assert np.all(pi >= 0)
            assert np.all(pi <= 1)
            assert abs(pi.sum() - 1.0) < 1e-12

    def test_first_cell_value(self):
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        assert pi[0] == pytest.approx(1 - np.exp(-((6 / np.exp(3.8)) ** 1.5)), rel=1e-12)
        assert pi[0] == pytest.approx(0.0480, abs=2e-4)

    def test_all_survive_when_scale_huge(self):
        params = ModelParams(10.0, -0.01, 4.0)
        pi = cell_probabilities(params, SIM_PLAN)
        assert pi[-1] == pytest.approx(1.0, abs=1e-4)

    def test_matches_cdf_differences(self):
        params, plan = SIM_THETA, SIM_PLAN
        values = cdf(params, plan, plan.inspection_times)
        pi = cell_probabilities(params, plan)
        assert pi[0] == pytest.approx(values[0], rel=1e-12)
        assert pi[1:-1] == pytest.approx(np.diff(values), rel=1e-9)
        assert pi[-1] == pytest.approx(1 - values[-1], rel=1e-12)


class TestGradientMatrix:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(106)
        for _ in range(50):
            params, plan = random_problem(rng)
            w = gradient_matrix(params, plan)
            fd = fd_cell_gradient(params, plan)
            assert np.allclose(w, fd, rtol=1e-5, atol=1e-9)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            params, plan = random_problem(rng)
            w = gradient_matrix(params, plan)
            assert np.max(np.abs(w.sum(axis=0))) < 1e-12

    def test_unit_shape_draw(self):
        params = ModelParams(5.3, -0.05, 1.0)
        w = gradient_matrix(params, SIM_PLAN)
        fd = fd_cell_gradient(params, SIM_PLAN)
        assert np.allclose(w, fd, rtol=1e-5, atol=1e-9)

    def test_shape(self):
        w = gradient_matrix(SIM_THETA, SIM_PLAN)
        assert w.shape == (14, 3)


def _second_derivative_problems():
    """Random 2- to 4-level problems, then the bundled ones of _bundled_problems."""
    rng = np.random.default_rng(615)
    problems = []
    while len(problems) < 60:
        params, plan = random_problem(rng, k_max=4)
        if plan.n_levels >= 2:
            problems.append((params, plan))
    return problems + _bundled_problems()


def _shifted(params: ModelParams, m: int, delta: float) -> ModelParams:
    theta = params.as_array()
    theta[m] += delta
    return ModelParams(*theta)


class TestSecondDerivatives:
    """h** and the curvature contraction of gradient_matrix against central differences."""

    def test_h_star2_is_slope_derivative_of_h_star(self):
        for params, plan in _second_derivative_problems():
            delta = 1e-6 * (1.0 + abs(params.a1))
            hi = shift_terms(_shifted(params, 1, delta), plan)
            lo = shift_terms(_shifted(params, 1, -delta), plan)
            fd = (hi.h_star - lo.h_star) / (2 * delta)
            terms = shift_terms(params, plan)
            assert terms.h_star2[0] == 0.0
            assert terms.h_star2 == pytest.approx(fd, rel=1e-6, abs=1e-9 * np.max(np.abs(fd)))

    def test_contraction_matches_differences_of_the_gradient(self):
        rng = np.random.default_rng(616)
        for params, plan in _second_derivative_problems():
            weights = rng.normal(size=plan.n_cells)
            _, contract = gradient_matrix(params, plan, curvature=True)
            fd = np.empty((3, 3))
            for m in range(3):
                delta = 1e-6 * (1.0 + abs(params.as_array()[m]))
                hi = gradient_matrix(_shifted(params, m, delta), plan)
                lo = gradient_matrix(_shifted(params, m, -delta), plan)
                fd[m] = weights @ (hi - lo) / (2 * delta)
            curvature = contract(weights)
            assert np.linalg.norm(curvature - fd) <= 1e-7 * np.linalg.norm(fd)
            assert np.linalg.norm(curvature - curvature.T) <= 1e-14 * np.linalg.norm(fd)

    def test_contraction_vanishes_for_constant_weights(self):
        # sum_c pi_c = 1, so sum_c d2 pi_c = 0
        for params, plan in _second_derivative_problems():
            _, contract = gradient_matrix(params, plan, curvature=True)
            for value in (1.0, -2.5):
                assert np.array_equal(contract(np.full(plan.n_cells, value)), np.zeros((3, 3)))

    def test_gradient_is_bit_identical_with_curvature(self):
        for params, plan in _second_derivative_problems():
            w, _ = gradient_matrix(params, plan, curvature=True)
            np.testing.assert_array_equal(w, gradient_matrix(params, plan))


class TestScoreRows:
    def test_damped_differences_are_the_gradient(self):
        # hazard * exp(-u^eta) * v per inspection time, differenced with zero
        # rows at both ends, is W bit for bit
        rng = np.random.default_rng(108)
        for _ in range(50):
            params, plan = random_problem(rng)
            v, hazard, u_eta = score_rows(params, plan)
            assert v.shape == (plan.n_inspections, 3)
            z = (hazard * np.exp(-u_eta))[:, None] * v
            padded = np.vstack([np.zeros(3), z, np.zeros(3)])
            np.testing.assert_array_equal(
                np.diff(padded, axis=0), gradient_matrix(params, plan)
            )

    def test_survival_and_hazard(self):
        v, hazard, u_eta = score_rows(SIM_THETA, SIM_PLAN)
        t = SIM_PLAN.inspection_times
        survival = np.exp(-u_eta)
        np.testing.assert_allclose(
            survival, 1.0 - cdf(SIM_THETA, SIM_PLAN, t), rtol=1e-12
        )
        # pdf takes the right limit at change times; compare elsewhere
        inside = ~np.isin(t, SIM_PLAN.change_times)
        np.testing.assert_allclose(
            hazard[inside],
            pdf(SIM_THETA, SIM_PLAN, t[inside]) / survival[inside],
            rtol=1e-12,
        )
