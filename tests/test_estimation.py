"""Tests for the MDPDE fitting layer.

Golden fits are frozen from the bundled solar-light data (values verified
against an independent derivative-free global optimizer before freezing);
everything else is checked against first principles: divergence identities,
finite differences, parameter equivariances, and Monte Carlo agreement of
the sandwich covariance.
"""

import functools
import os
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stepstress.estimation as estimation
import stepstress.montecarlo as montecarlo
from stepstress.datasets import load_dataset
from stepstress.errors import DataError, NumericError
from stepstress.estimation import (
    FitConfig,
    FitResult,
    PROBABILITY_FLOOR,
    dpd_loss,
    estimating_residual,
    fit,
    fit_path,
    fit_proportions,
    sandwich_covariance,
    sandwich_matrices,
)
from stepstress.montecarlo import _replicate, load_scenario, simulate_counts
from stepstress.model import (
    IntervalData,
    ModelParams,
    ParameterSpaceWarning,
    StressPlan,
    cell_probabilities,
)

from conftest import SIM_PLAN, SIM_THETA, random_problem

SOLAR_PLAN = StressPlan([0.0, 1.0], [5.0, 6.0], [1.5, 3.0, 5.0, 5.2, 5.4, 6.0])
SOLAR_DATA = IntervalData([3, 8, 5, 5, 5, 5, 0], 31)


def _random_prob(rng, n):
    v = rng.gamma(1.0, 1.0, size=n)
    return v / v.sum()


# ---------------------------------------------------------------------------
# divergence identities


class TestDpdLoss:
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    def test_zero_at_equality(self, beta):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = _random_prob(rng, 7)
            assert dpd_loss(p, p, beta) == pytest.approx(0.0, abs=1e-12)

    def test_small_beta_approaches_kl(self):
        rng = np.random.default_rng(6)
        p = _random_prob(rng, 6)
        q = _random_prob(rng, 6)
        kl = dpd_loss(p, q, 0.0)
        assert dpd_loss(p, q, 1e-4) == pytest.approx(kl, abs=1e-3)

    def test_beta_one_is_squared_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = _random_prob(rng, 5)
            q = _random_prob(rng, 5)
            assert dpd_loss(p, q, 1.0) == pytest.approx(
                float(np.sum((p - q) ** 2)), rel=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for beta in (0.0, 0.3, 0.7, 1.0):
            for _ in range(10):
                p = _random_prob(rng, 6)
                q = _random_prob(rng, 6)
                assert dpd_loss(p, q, beta) >= -1e-15

    def test_positive_when_different(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        for beta in (0.0, 0.5, 1.0):
            assert dpd_loss(p, q, beta) > 1e-3

    def test_zero_count_cells_are_ignored_in_kl(self):
        p = np.array([0.0, 0.6, 0.4])
        q = np.array([0.1, 0.5, 0.4])
        expected = 0.6 * np.log(0.6 / 0.5)
        assert dpd_loss(p, q, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_model_floor_keeps_kl_finite(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.5, 0.5, 0.0])  # zero model cell hit by the floor
        assert np.isfinite(dpd_loss(p, q, 0.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            dpd_loss([0.5, 0.5], [0.3, 0.3, 0.4], 0.5)

    def test_negative_beta_raises(self):
        with pytest.raises(ValueError):
            dpd_loss([0.5, 0.5], [0.5, 0.5], -0.1)

    @pytest.mark.parametrize("beta", [30.0, 100.0, 1000.0])
    @pytest.mark.parametrize(
        "p,q",
        [
            ([0.5, 0.5], [1e-13, 1 - 1e-13]),
            ([0.2, 0.3, 0.5, 0.0], [1e-14, 0.4, 0.6 - 1e-14, 0.0]),
        ],
    )
    def test_large_beta_is_finite_and_accurate(self, p, q, beta):
        # a floored cell's pi^b underflows to 0 where expm1(b log(p/pi))
        # overflows; their product was NaN from beta ~ 27
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            floored = [mpmath.mpf(max(x, PROBABILITY_FLOOR)) for x in q]
            expected = sum(
                qi ** (1 + b) - (1 + 1 / b) * pi * qi**b + pi ** (1 + b) / b
                for pi, qi in zip(map(mpmath.mpf, p), floored)
            )
        assert dpd_loss(p, q, beta) == pytest.approx(float(expected), rel=1e-13, abs=0.0)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=3, max_size=10),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    # cancellation counterexamples of the former 1/beta evaluation
    @example(raw=[1, 1, 1], beta=1.19e-7)
    @example(raw=[1, 1, 1], beta=1e-11)
    def test_self_divergence_property(self, raw, beta):
        p = np.asarray(raw) / np.sum(raw)
        assert abs(dpd_loss(p, p, beta)) < 1e-10


# ---------------------------------------------------------------------------
# estimating equations


class TestEstimatingResidual:
    @pytest.mark.parametrize("beta", [0.0, 0.35, 1.0])
    def test_matches_loss_gradient(self, beta):
        rng = np.random.default_rng(11)
        for _ in range(8):
            params, plan = random_problem(rng)
            p_hat = _random_prob(rng, plan.n_cells)
            data = IntervalData(p_hat * 100, 100)
            res = estimating_residual(params, plan, data, beta)
            grad = -(beta + 1.0) * res
            step = 1e-6
            base = params.as_array()
            fd = np.zeros(3)
            for i in range(3):
                up, dn = base.copy(), base.copy()
                up[i] += step
                dn[i] -= step
                with np.errstate(all="ignore"):
                    f_up = dpd_loss(
                        p_hat, cell_probabilities(ModelParams(*up), plan), beta
                    )
                    f_dn = dpd_loss(
                        p_hat, cell_probabilities(ModelParams(*dn), plan), beta
                    )
                fd[i] = (f_up - f_dn) / (2 * step)
            np.testing.assert_allclose(grad, fd, rtol=2e-5, atol=1e-8)

    def test_zero_at_the_estimate(self):
        result = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.0))
        res = estimating_residual(result.params, SOLAR_PLAN, SOLAR_DATA, 0.0)
        assert np.linalg.norm(res) < 1e-8

    def test_validates_data_shape(self):
        with pytest.raises(DataError):
            estimating_residual(SIM_THETA, SIM_PLAN, IntervalData([1, 1], 2), 0.0)


# ---------------------------------------------------------------------------
# recovery and golden fits


class TestFitRecovery:
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    def test_expected_counts_recover_truth(self, beta):
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        result = fit_proportions(SIM_PLAN, pi, 200, FitConfig(beta=beta))
        assert result.converged
        np.testing.assert_allclose(
            result.params.as_array(), SIM_THETA.as_array(), atol=1e-6
        )
        assert result.objective < 1e-12

    def test_recovery_on_random_problems(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 5:
            params, plan = random_problem(rng)
            pi = cell_probabilities(params, plan)
            # single-level plans identify only a0 + a1*x, not the pair
            if plan.n_levels < 2 or pi.min() < 1e-6:
                continue
            result = fit_proportions(plan, pi, 500, FitConfig(beta=0.3))
            np.testing.assert_allclose(
                result.params.as_array(), params.as_array(), atol=1e-5
            )
            done += 1


class TestSolarGoldens:
    def test_mle(self):
        result = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.0))
        assert result.converged
        assert not result.ill_conditioned
        np.testing.assert_allclose(
            result.params.as_array(), [1.8039, -2.3877, 1.5350], atol=1e-3
        )

    def test_beta_one(self):
        result = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=1.0))
        np.testing.assert_allclose(
            result.params.as_array(), [1.8361, -2.3699, 1.4008], atol=1e-3
        )

    def test_beta_path_is_smooth(self):
        # neighbouring betas give nearby estimates; catches multistart jumps
        prev = None
        for beta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            est = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=beta)).params.as_array()
            if prev is not None:
                assert np.linalg.norm(est - prev) < 0.1
            prev = est

    def test_matches_derivative_free_polish(self):
        # independent check: a simplex search started nearby cannot improve
        # the reported optimum by more than numerical noise
        from scipy.optimize import minimize

        result = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.0))
        p_hat = SOLAR_DATA.proportions

        def objective(u):
            try:
                pars = ModelParams(u[0], u[1], float(np.exp(u[2])))
                pi = cell_probabilities(pars, SOLAR_PLAN)
            except Exception:
                return 1e9
            return dpd_loss(p_hat, pi, 0.0)

        u0 = np.array(
            [
                result.params.a0 * 1.05,
                result.params.a1 * 0.95,
                np.log(result.params.eta) + 0.05,
            ]
        )
        nm = minimize(
            objective,
            u0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        assert result.objective <= nm.fun + 1e-9


class TestSmallBeta:
    # the divergence tends to KL continuously, so fits just above beta = 0
    # converge to the MLE; a loss whose 1/beta terms cancel left the solar
    # and transistor fits non-converged at beta = 1e-10 and 1e-7
    @pytest.mark.parametrize("name", ["solar", "transistor", "led"])
    def test_fits_converge_to_the_mle(self, name):
        bundle = load_dataset(name)
        mle = fit(bundle.plan, bundle.data, FitConfig(beta=0.0))
        for beta in (1e-12, 1e-10, 1e-7, 1e-5):
            result = fit(bundle.plan, bundle.data, FitConfig(beta=beta))
            assert result.converged, (beta, result.grad_norm)
            np.testing.assert_allclose(
                result.params.as_array(), mle.params.as_array(), rtol=1e-5
            )


class TestEquivariance:
    @pytest.mark.parametrize("beta", [0.0, 0.4])
    def test_time_scaling_shifts_a0(self, beta):
        c = 10.0
        scaled_plan = StressPlan(
            SOLAR_PLAN.stress_levels,
            SOLAR_PLAN.change_times * c,
            SOLAR_PLAN.inspection_times * c,
        )
        base = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=beta)).params
        scaled = fit(scaled_plan, SOLAR_DATA, FitConfig(beta=beta)).params
        assert scaled.a0 == pytest.approx(base.a0 + np.log(c), abs=1e-6)
        assert scaled.a1 == pytest.approx(base.a1, abs=1e-6)
        assert scaled.eta == pytest.approx(base.eta, rel=1e-6)

    def test_stress_affine_map(self):
        a_scale, b_shift = 2.0, -0.3
        mapped_plan = StressPlan(
            a_scale * SOLAR_PLAN.stress_levels + b_shift,
            SOLAR_PLAN.change_times,
            SOLAR_PLAN.inspection_times,
        )
        base = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.0)).params
        mapped = fit(mapped_plan, SOLAR_DATA, FitConfig(beta=0.0)).params
        assert mapped.a1 == pytest.approx(base.a1 / a_scale, abs=1e-6)
        assert mapped.a0 == pytest.approx(
            base.a0 - base.a1 * b_shift / a_scale, abs=1e-6
        )
        assert mapped.eta == pytest.approx(base.eta, rel=1e-7)


# ---------------------------------------------------------------------------
# sandwich covariance


class TestSandwich:
    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            params, plan = random_problem(rng)
            for beta in (0.0, 0.5, 1.0):
                j, k = sandwich_matrices(params, plan, beta)
                np.testing.assert_allclose(j, j.T, atol=1e-12)
                np.testing.assert_allclose(k, k.T, atol=1e-12)
                assert np.linalg.eigvalsh(j).min() > -1e-9

    def test_mle_collapse(self):
        # at beta = 0 the K matrix equals J because the gradient rows of the
        # cell probabilities sum to zero
        j, k = sandwich_matrices(SIM_THETA, SIM_PLAN, 0.0)
        np.testing.assert_allclose(j, k, rtol=1e-10, atol=1e-12)

    def test_covariance_is_inverse_information_at_mle(self):
        result = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.0))
        j, _ = sandwich_matrices(result.params, SOLAR_PLAN, 0.0)
        np.testing.assert_allclose(
            result.covariance @ j, np.eye(3), atol=1e-8
        )

    def test_monte_carlo_agreement(self):
        # empirical covariance of sqrt(N)(theta_hat - theta0) should match
        # the sandwich at the truth; run at beta = 0.4 so J != K
        beta, n_dev, reps = 0.4, 200, 400
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        j, k = sandwich_matrices(SIM_THETA, SIM_PLAN, beta)
        j_inv = np.linalg.inv(j)
        sigma = j_inv @ k @ j_inv
        rng = np.random.default_rng(20260818)
        cfg = FitConfig(beta=beta, multistart=2)
        draws = []
        for _ in range(reps):
            counts = rng.multinomial(n_dev, pi)
            if np.count_nonzero(counts) < 2:
                continue
            res = fit_proportions(SIM_PLAN, counts / n_dev, n_dev, cfg)
            if res.converged:
                draws.append(res.params.as_array())
        draws = np.asarray(draws)
        assert len(draws) > 0.95 * reps
        emp = np.cov(draws.T, ddof=1) * n_dev
        np.testing.assert_allclose(np.diag(emp), np.diag(sigma), rtol=0.25)

    def test_standard_errors_match_covariance(self):
        result = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.0))
        np.testing.assert_allclose(
            result.standard_errors,
            np.sqrt(np.diag(result.covariance) / 31),
            rtol=1e-12,
        )


class TestWeakIdentification:
    def test_solar_is_well_identified(self):
        assert fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.0)).weakly_identified is False

    def test_flat_information_is_flagged(self):
        # ten stress levels with failures concentrated late: the classic
        # near-flat-likelihood geometry with uninformative intervals
        temps = np.array([120, 140, 160, 180, 190, 200, 210, 220, 230, 240.0])
        plan = StressPlan(
            (temps - 25.0) / 95.0,
            168.0 * np.arange(1, 11),
            168.0 * np.arange(1, 11),
        )
        data = IntervalData([0, 0, 0, 2, 5, 5, 3, 3, 0, 9, 0], 27)
        result = fit(plan, data, FitConfig(beta=0.0))
        assert result.weakly_identified is True


# ---------------------------------------------------------------------------
# configuration, validation, determinism


class TestFitValidation:
    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            FitConfig(beta=-0.2)
        with pytest.raises(ValueError):
            FitConfig(multistart=0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_raises(self, beta):
        with pytest.raises(ValueError, match="finite"):
            FitConfig(beta=beta)

    def test_multistart_must_be_whole(self):
        assert FitConfig(multistart=3.0).multistart == 3
        assert type(FitConfig(multistart=np.int64(2)).multistart) is int
        with pytest.raises(ValueError, match="multistart must be a whole number, got 2.5"):
            FitConfig(multistart=2.5)

    def test_config_holds_only_beta_and_multistart(self):
        assert [f.name for f in fields(FitConfig)] == ["beta", "multistart"]

    def test_cell_count_mismatch_raises(self):
        with pytest.raises(DataError):
            fit(SOLAR_PLAN, IntervalData([1, 2, 3], 6))

    def test_single_cell_data_raises(self):
        with pytest.raises(DataError):
            fit(SOLAR_PLAN, IntervalData([0, 0, 31, 0, 0, 0, 0], 31))

    def test_bad_proportions_raise(self):
        with pytest.raises(ValueError):
            fit_proportions(SOLAR_PLAN, np.full(7, 0.2), 10)
        with pytest.raises(ValueError):
            fit_proportions(SOLAR_PLAN, np.array([0.5, 0.5]), 10)

    def test_fractional_device_count_is_refused_not_truncated(self):
        p_hat = SOLAR_DATA.proportions
        with pytest.raises(ValueError, match="whole number, got 31.5"):
            fit_proportions(SOLAR_PLAN, p_hat, 31.5)
        for n in (31, 31.0, np.int64(31)):
            result = fit_proportions(SOLAR_PLAN, p_hat, n)
            assert result.n_devices == 31 and type(result.n_devices) is int

    def test_result_is_deterministic(self):
        a = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.6))
        b = fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.6))
        assert a.params == b.params
        np.testing.assert_array_equal(a.covariance, b.covariance)
        assert a.objective == b.objective

    def test_fractional_pseudo_counts_accepted(self):
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        data = IntervalData(pi * 200, 200)
        result = fit(SIM_PLAN, data, FitConfig(beta=0.2))
        np.testing.assert_allclose(
            result.params.as_array(), SIM_THETA.as_array(), atol=1e-6
        )


def _replication(spec, rep: int) -> IntervalData:
    """The counts that montecarlo._replicate draws for one replication."""
    rng = np.random.default_rng([spec.seed, rep])
    return simulate_counts(spec.generating_probabilities(), spec.n_devices, rng)


def _single_start_fit(spec, data: IntervalData, beta: float, start=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = FitConfig(beta=beta, multistart=1)
        starts = None if start is None else (start,)
        return fit_proportions(
            spec.plan, data.proportions, spec.n_devices, config, starts=starts
        )


@functools.cache
def _dataset_fits():
    """(plan, data, fit) on each bundled dataset at beta = 0, 0.5 and 1."""
    cases = []
    for name in ("solar", "transistor", "led"):
        bundle = load_dataset(name)
        for beta in (0.0, 0.5, 1.0):
            result = fit(bundle.plan, bundle.data, FitConfig(beta=beta))
            cases.append((bundle.plan, bundle.data, result))
    return tuple(cases)


class TestFitWork:
    """The optimizer's coordinates, memo, stop rule and warm starts."""

    def test_near_optimum_single_start_fit_converges(self):
        # stopped at an estimating-equation norm of 2.9e-7 when L-BFGS-B
        # worked in (a0, a1, log eta), where a0 and a1 are nearly collinear
        spec = replace(load_scenario("clean"), seed=4242)
        result = _single_start_fit(spec, _replication(spec, 3541), 0.4)
        assert result.converged, result.grad_norm

    def test_single_start_fits_take_few_model_evaluations(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(None)
            return cell_probabilities(*args)

        monkeypatch.setattr(estimation, "cell_probabilities", counted)
        spec = load_scenario("clean")
        fits = 0
        for rep in range(10):
            data = _replication(spec, rep)
            for beta in spec.beta_grid:
                assert _single_start_fit(spec, data, beta).converged
                fits += 1
        # about 49 per fit in (a0, a1, log eta) without the memo
        assert len(calls) / fits <= 32

    def test_warm_started_replications_take_few_model_evaluations(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(None)
            return cell_probabilities(*args)

        monkeypatch.setattr(estimation, "cell_probabilities", counted)
        spec = load_scenario("clean")
        pi_gen = spec.generating_probabilities()
        records = [_replicate(spec, pi_gen, rep) for rep in range(10)]
        assert all(record["ok"].all() for record in records)
        # about 26 per fit when every beta starts from the data-driven pilot,
        # and 16.9 with L-BFGS-B in fixed coordinates and a hybr polish
        assert len(calls) / (10 * len(spec.beta_grid)) <= 11

    def test_warm_started_fits_solve_the_estimating_equations(self, monkeypatch):
        results = []

        def recording(*args, **kwargs):
            results.append(fit_proportions(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(montecarlo, "fit_proportions", recording)
        spec = load_scenario("clean")
        pi_gen = spec.generating_probabilities()
        for rep in range(10):
            _replicate(spec, pi_gen, rep)
        assert len(results) == 10 * len(spec.beta_grid)
        assert max(result.grad_norm for result in results) <= 1e-12

    def test_a_start_at_the_estimate_costs_at_most_three_evaluations(self, monkeypatch):
        # the start, a Newton step that cannot lower the residual, and at most
        # one more; L-BFGS-B in fixed coordinates plus hybr took 5
        calls = []

        def counted(*args):
            calls.append(None)
            return cell_probabilities(*args)

        spec = load_scenario("clean")
        for rep in range(3):
            data = _replication(spec, rep)
            for beta in spec.beta_grid:
                estimate = _single_start_fit(spec, data, beta)
                with monkeypatch.context() as patch:
                    patch.setattr(estimation, "cell_probabilities", counted)
                    calls.clear()
                    again = _single_start_fit(spec, data, beta, start=estimate.params)
                assert len(calls) <= 3 and again.converged
                np.testing.assert_allclose(
                    again.params.as_array(), estimate.params.as_array(), rtol=1e-12
                )

    def test_warm_started_estimates_match_cold_fits(self):
        spec = load_scenario("clean")
        pi_gen = spec.generating_probabilities()
        for rep in range(10):
            record = _replicate(spec, pi_gen, rep)
            data = _replication(spec, rep)
            for b, beta in enumerate(spec.beta_grid):
                cold = _single_start_fit(spec, data, beta)
                assert record[b]["ok"] == cold.converged
                if cold.converged:
                    np.testing.assert_allclose(
                        record[b]["theta"], cold.params.as_array(), rtol=1e-9
                    )

    def test_infeasible_start_raises(self):
        spec = load_scenario("clean")
        data = _replication(spec, 0)
        start = ModelParams(800.0, -1.0, 1.0)  # exp(a0) overflows
        with pytest.raises(NumericError):
            cell_probabilities(start, spec.plan)
        with pytest.raises(NumericError, match="infeasible"):
            _single_start_fit(spec, data, 0.4, start=start)

    def test_pilot_and_generator_are_made_only_when_used(self, monkeypatch):
        seeds, pilots = [], []
        default_rng, pilot_start = np.random.default_rng, estimation._pilot_start

        def recording_rng(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        def recording_pilot(*args):
            pilots.append(None)
            return pilot_start(*args)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        monkeypatch.setattr(estimation, "_pilot_start", recording_pilot)
        spec = load_scenario("clean")
        data = _replication(spec, 0)
        cases = (
            # (starts, multistart): rng seeds drawn, pilots computed
            ((None, 5), [1729], 1),
            ((None, 1), [], 1),
            (((spec.theta_true,), 1), [], 0),
            (((spec.theta_true,), 5), [], 0),
        )
        for (starts, multistart), want_seeds, want_pilots in cases:
            seeds.clear()
            pilots.clear()
            result = fit_proportions(
                spec.plan, data.proportions, spec.n_devices,
                FitConfig(beta=0.4, multistart=multistart), starts=starts,
            )
            assert result.converged
            assert (seeds, len(pilots)) == (want_seeds, want_pilots)

    def test_model_is_evaluated_once_per_point(self, monkeypatch):
        points = []

        def recording(params, plan):
            points.append((params.a0, params.a1, params.eta))
            return cell_probabilities(params, plan)

        monkeypatch.setattr(estimation, "cell_probabilities", recording)
        spec = load_scenario("clean")
        assert _single_start_fit(spec, _replication(spec, 0), 0.4).converged
        assert points and len(set(points)) == len(points)
        points.clear()
        assert fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.3)).converged
        assert len(points) > 5 and len(set(points)) == len(points)

    def test_covariance_is_the_sandwich_at_the_estimate(self):
        for plan, _, result in _dataset_fits():
            covariance, ill_conditioned = sandwich_covariance(
                result.params, plan, result.beta
            )
            assert result.ill_conditioned == ill_conditioned
            np.testing.assert_array_equal(result.covariance, covariance)

    def test_grad_norm_is_the_norm_of_the_estimating_residual(self):
        # the memo's residual is the one of the reported estimate
        cases = list(_dataset_fits())
        spec = load_scenario("clean")
        for rep in range(3):
            data = _replication(spec, rep)
            for beta in spec.beta_grid:
                cases.append((spec.plan, data, _single_start_fit(spec, data, beta)))
        for plan, data, result in cases:
            residual = estimating_residual(result.params, plan, data, result.beta)
            assert result.grad_norm == np.linalg.norm(residual)


def _usable(result) -> bool:
    return isinstance(result, FitResult) and result.converged and not result.ill_conditioned


@functools.cache
def _bundled_beta0(name):
    bundle = load_dataset(name)
    return bundle.plan, fit(bundle.plan, bundle.data).params


class TestFitPath:
    """fit_path against fitting every beta from the configured cold starts."""

    def test_fallback_recovers_a_fit_both_starts_miss(self):
        # a hard draw near the solar fit, census problem 30: 10 devices, all
        # failed by the fourth inspection. At beta = 0.7 neither the
        # beta = 0.3 estimate nor the pilot converges; the configured starts do
        plan = load_dataset("solar").plan
        data = IntervalData([1, 2, 5, 2, 0, 0, 0], 10)
        configs = [FitConfig(beta=0.3), FitConfig(beta=0.7)]
        calls = []

        def recording(plan, data, config, *, starts=None):
            calls.append((config.beta, starts is not None, fit(plan, data, config, starts=starts)))
            return calls[-1][2]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = fit_path(plan, data, configs, recording)
            warm_only = fit(plan, data, configs[1], starts=(path[0].params,))
            cold = fit(plan, data, configs[1])
        assert [call[:2] for call in calls] == [(0.3, False), (0.7, True), (0.7, False)]
        assert not warm_only.converged and not calls[1][2].converged
        assert _usable(path[1]) and path[1].params == cold.params

    def test_one_start_replication_computes_the_pilot_once(self, monkeypatch):
        # its first fit makes the pilot as its start; a one-start path never
        # takes the pilot as a warm start, so it does not compute it again
        pilots = []
        pilot_start = estimation._pilot_start

        def recording(*args):
            pilots.append(None)
            return pilot_start(*args)

        monkeypatch.setattr(estimation, "_pilot_start", recording)
        spec = load_scenario("clean")
        record = _replicate(spec, spec.generating_probabilities(), 0)
        assert record["ok"].all()
        assert len(pilots) == 1

    def test_one_start_path_warms_alone_then_falls_back(self):
        # the same draw at multistart = 1: beta = 0.3 runs from the beta = 0.2
        # estimate alone, which does not converge, then from the pilot
        plan = load_dataset("solar").plan
        data = IntervalData([1, 2, 5, 2, 0, 0, 0], 10)
        configs = [FitConfig(beta=0.2, multistart=1), FitConfig(beta=0.3, multistart=1)]
        calls = []

        def recording(plan, data, config, *, starts=None):
            calls.append((config.beta, starts))
            return fit(plan, data, config, starts=starts)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = fit_path(plan, data, configs, recording)
        assert _usable(path[0])
        assert calls == [(0.2, None), (0.3, (path[0].params,)), (0.3, None)]

    @settings(
        derandomize=True,
        max_examples=9,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(("solar", "transistor", "led")),
        scale=st.tuples(*[st.floats(0.7, 1.3)] * 3),
        n_devices=st.sampled_from([10, 30, 100, 300]),
        seed=st.integers(0, 2**32 - 1),
        multistart=st.sampled_from([5, 1]),
    )
    def test_loses_no_cold_fit(self, name, scale, n_devices, seed, multistart):
        # theta within 30 % of the dataset's beta = 0 fit, multinomial counts.
        # A warm single start can end in another local optimum than the lone
        # pilot, so at one start only the loss of a usable cold fit is checked
        plan, centre = _bundled_beta0(name)
        theta = ModelParams(*(centre.as_array() * scale))
        rng = np.random.default_rng(seed)
        data = IntervalData(rng.multinomial(n_devices, cell_probabilities(theta, plan)), n_devices)
        configs = [
            FitConfig(beta=beta, multistart=multistart) for beta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = fit_path(plan, data, configs)
            for config, result in zip(configs, path):
                try:
                    cold = fit(plan, data, config)
                except (DataError, NumericError):
                    continue
                if _usable(cold):
                    assert _usable(result)
                    if multistart > 1:
                        assert result.objective <= cold.objective + 1e-10 * abs(cold.objective)


# ---------------------------------------------------------------------------
# scipy's OpenBLAS runs the solver loop on one thread


def _scipy_blas_threads():
    functions = estimation._scipy_openblas_threads()
    if functions is None:
        pytest.skip("scipy is not built against its bundled OpenBLAS")
    return functions


@pytest.fixture
def caller_threads():
    """Give scipy's OpenBLAS two threads for the test, then restore its count."""
    get, set_ = _scipy_blas_threads()
    before = get()
    set_(2)
    yield get
    set_(before)


class TestScipyBlasScope:
    def test_library_found_when_scipy_uses_its_openblas(self):
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"scipy is built against {blas['name']}")
        assert estimation._scipy_openblas_threads() is not None

    def test_one_thread_inside_the_solver_and_restored_after(
        self, monkeypatch, caller_threads
    ):
        seen = []
        minimize = estimation.optimize.minimize

        def recording(*args, **kwargs):
            seen.append(caller_threads())
            return minimize(*args, **kwargs)

        monkeypatch.setattr(estimation.optimize, "minimize", recording)
        fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.3))
        assert seen and set(seen) == {1}
        assert caller_threads() == 2

    def test_restored_after_a_failed_fit(self, monkeypatch, caller_threads):
        seen, feasible = [], set()
        minimize = estimation.optimize.minimize

        def failing(*args, **kwargs):
            seen.append(caller_threads())
            if len(seen) in feasible:
                return minimize(*args, **kwargs)
            raise ValueError("no solution")

        monkeypatch.setattr(estimation.optimize, "minimize", failing)
        with pytest.raises(NumericError, match="infeasible"):
            fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.3))
        # all five starts ran on one thread
        assert seen == [1] * 5
        assert caller_threads() == 2
        # one feasible start (the third) is enough
        seen.clear()
        feasible.add(3)
        assert fit(SOLAR_PLAN, SOLAR_DATA, FitConfig(beta=0.3)).converged
        assert seen == [1] * 5

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_fits_keep_one_core_busy(self):
        _scipy_blas_threads()
        fit(SOLAR_PLAN, SOLAR_DATA)  # warm-up: library lookup and imports
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(20):
            fit(SOLAR_PLAN, SOLAR_DATA)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        assert cpu <= 1.4 * wall
