"""Tests for data-driven selection of the tuning parameter."""

import dataclasses
import warnings

import numpy as np
import pytest

import stepstress.tuning as tuning
from stepstress.datasets import load_dataset
from stepstress.errors import ConvergenceError, NumericError
from stepstress.estimation import FitConfig, FitResult, fit
from stepstress.model import IntervalData, ModelParams, cdf, cell_probabilities
from stepstress.tuning import (
    DEFAULT_BETA_GRID,
    TuningConfig,
    TuningResult,
    estimated_mse,
    select_beta,
)

from conftest import SIM_PLAN, SIM_THETA


def _synthetic_fit(params, covariance, n_devices, converged=True):
    return FitResult(
        params=params,
        beta=0.0,
        covariance=np.asarray(covariance, dtype=float),
        objective=0.0,
        converged=converged,
        grad_norm=0.0,
        n_devices=n_devices,
    )


def _mc_beta_opts(pi, seed, reps=100):
    """Selected beta over multinomial replications at N = 200."""
    cfg = TuningConfig(fit_config=FitConfig(multistart=1))
    opts = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        counts = rng.multinomial(200, pi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = select_beta(SIM_PLAN, IntervalData(counts, 200), cfg)
        opts.append(result.beta_opt)
    return np.array(opts)


@pytest.fixture(scope="module")
def solar_selection():
    bundle = load_dataset("solar")
    return select_beta(bundle.plan, bundle.data), bundle


@pytest.fixture(scope="module")
def clean_opts():
    pi = cell_probabilities(SIM_THETA, SIM_PLAN)
    return _mc_beta_opts(pi, seed=8215)


@pytest.fixture(scope="module")
def contaminated_opts():
    pi = cell_probabilities(SIM_THETA, SIM_PLAN)
    tilde = ModelParams(6.5, -0.05, 1.5)
    g = cdf(tilde, SIM_PLAN, np.array([10.0, 14.0]))
    pi_c = pi.copy()
    pi_c[2] = g[1] - g[0]
    pi_c /= pi_c.sum()
    return _mc_beta_opts(pi_c, seed=8216)


class TestEstimatedMse:
    def test_zero_at_pilot_with_zero_variance(self):
        theta = ModelParams(1.0, -2.0, 1.5)
        f = _synthetic_fit(theta, np.zeros((3, 3)), 100)
        assert estimated_mse(f, theta) == 0.0

    def test_pure_bias_is_squared_norm(self):
        f = _synthetic_fit(ModelParams(2.0, -2.0, 1.5), np.zeros((3, 3)), 100)
        assert estimated_mse(f, ModelParams(1.0, -2.0, 1.5)) == pytest.approx(1.0)

    def test_pure_variance_is_trace_over_n(self):
        theta = ModelParams(1.0, -2.0, 1.5)
        f = _synthetic_fit(theta, np.diag([4.0, 9.0, 25.0]), 100)
        assert estimated_mse(f, theta) == pytest.approx(38.0 / 100.0, rel=1e-12)
        assert estimated_mse(f, theta, n_devices=19) == pytest.approx(2.0)

    def test_solar_self_pilot_equals_trace_term(self):
        bundle = load_dataset("solar")
        result = fit(bundle.plan, bundle.data, FitConfig(beta=0.0))
        expected = np.trace(result.covariance) / result.n_devices
        assert estimated_mse(result, result.params) == pytest.approx(
            expected, rel=1e-14
        )

    def test_requires_converged_fit(self):
        f = _synthetic_fit(
            ModelParams(1.0, -2.0, 1.5), np.eye(3), 100, converged=False
        )
        with pytest.raises(ValueError, match="converged"):
            estimated_mse(f, ModelParams(1.0, -2.0, 1.5))

    def test_rejects_bad_device_count(self):
        f = _synthetic_fit(ModelParams(1.0, -2.0, 1.5), np.eye(3), 100)
        with pytest.raises(ValueError, match="positive"):
            estimated_mse(f, f.params, n_devices=0)


class TestSelectBeta:
    def test_exact_model_data_reduces_to_trace_ranking(self):
        # every candidate recovers theta0 from expected counts, so the
        # bias term vanishes and the winner is the smallest variance trace
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        result = select_beta(SIM_PLAN, IntervalData(pi * 200, 200))
        assert result.beta_opt == 0.0
        assert result.rounds == 1
        assert result.mse_curve.shape == (len(DEFAULT_BETA_GRID), 2)
        # the efficiency ordering at the model: variance grows with beta
        assert np.all(np.diff(result.mse_curve[:, 1]) > 0.0)
        np.testing.assert_allclose(
            result.theta_opt.as_array(), SIM_THETA.as_array(), atol=1e-5
        )

    def test_solar_selection_golden(self, solar_selection):
        result, _ = solar_selection
        assert result.beta_opt == 0.0
        assert result.rounds == 3
        np.testing.assert_allclose(
            result.theta_opt.as_array(), [1.8039, -2.3877, 1.5350], atol=1e-3
        )
        assert isinstance(result, TuningResult)
        assert result.fit_opt.beta == result.beta_opt

    def test_idempotent_at_returned_optimum(self, solar_selection):
        result, bundle = solar_selection
        rerun = select_beta(
            bundle.plan, bundle.data, TuningConfig(pilot=result.theta_opt)
        )
        assert rerun.beta_opt == result.beta_opt
        assert rerun.rounds == 1

    def test_deterministic(self, solar_selection):
        result, bundle = solar_selection
        again = select_beta(bundle.plan, bundle.data)
        assert again.beta_opt == result.beta_opt
        assert again.rounds == result.rounds
        np.testing.assert_array_equal(again.mse_curve, result.mse_curve)

    @pytest.mark.parametrize("name,expected_beta", [("transistor", 1.0), ("led", 0.1)])
    def test_terminates_on_bundled_datasets(self, name, expected_beta):
        bundle = load_dataset(name)
        result = select_beta(bundle.plan, bundle.data)
        assert result.rounds <= TuningConfig().max_rounds
        assert result.beta_opt == expected_beta

    def test_curve_dominates_variance_term(self, solar_selection):
        # each final-round MSE is the variance term plus a squared bias
        result, bundle = solar_selection
        for beta, value in result.mse_curve:
            refit = fit(bundle.plan, bundle.data, FitConfig(beta=beta))
            variance_term = np.trace(refit.covariance) / refit.n_devices
            assert value >= variance_term - 1e-12

    def test_all_candidates_failing_raises(self):
        # data incompatible with the plan: every grid fit errors out
        bad = IntervalData(np.ones(5), 5)
        with pytest.warns(RuntimeWarning, match="excluded"):
            with pytest.raises(ConvergenceError, match="no candidate"):
                select_beta(SIM_PLAN, bad)

    def test_ill_conditioned_candidates_raise(self):
        # the solar design with every first-level survivor failing in the
        # first interval after the stress change: a1 is not identified, and
        # every grid fit converges ill-conditioned
        plan = load_dataset("solar").plan
        data = IntervalData(np.array([14.0, 11, 8, 6, 0, 0, 0]), 39)
        with pytest.warns(RuntimeWarning, match="ill-conditioned; excluded"):
            with pytest.raises(NumericError, match="ill-conditioned"):
                select_beta(plan, data)

    def test_ill_conditioned_candidate_left_out(self, monkeypatch):
        def flag_beta_zero(plan, data, config, *, starts=None):
            result = fit(plan, data, config, starts=starts)
            return dataclasses.replace(result, ill_conditioned=config.beta == 0.0)

        monkeypatch.setattr(tuning, "fit", flag_beta_zero)
        bundle = load_dataset("solar")
        with pytest.warns(RuntimeWarning, match="beta=0 is ill-conditioned"):
            result = select_beta(bundle.plan, bundle.data)
        assert 0.0 not in result.mse_curve[:, 0]
        assert len(result.mse_curve) == len(DEFAULT_BETA_GRID) - 1
        assert result.beta_opt > 0.0

    # LED's fits are weakly identified (standard errors 4-13 times their
    # estimates), and their covariance follows an estimate's last digits
    # 1e8-fold: at beta = 1, estimates 1.4e-14 apart give traces 2e-6 apart
    @pytest.mark.parametrize(
        "name,mse_rtol", [("solar", 1e-10), ("transistor", 1e-10), ("led", 1e-5)]
    )
    def test_beta_path_matches_cold_fits(self, name, mse_rtol, monkeypatch):
        # the same selection and estimates as fitting every grid beta from
        # the five cold starts, while each beta after the first is fitted
        # from two starts
        bundle = load_dataset(name)
        fit_path, path_fits, cold_fits = tuning.fit_path, [], []

        def recorded_path(plan, data, configs, fit):
            path_fits.extend(fit_path(plan, data, configs, fit))
            return path_fits

        def cold_path(plan, data, configs, fit):
            cold_fits.extend(fit(plan, data, config) for config in configs)
            return cold_fits

        monkeypatch.setattr(tuning, "fit_path", recorded_path)
        path = select_beta(bundle.plan, bundle.data)
        monkeypatch.setattr(tuning, "fit_path", cold_path)
        cold = select_beta(bundle.plan, bundle.data)
        # no fallback on the bundled data
        assert [len(f.start_objectives) for f in path_fits] == [5] + [2] * 10
        assert (path.beta_opt, path.rounds) == (cold.beta_opt, cold.rounds)
        np.testing.assert_array_equal(path.mse_curve[:, 0], cold.mse_curve[:, 0])
        np.testing.assert_allclose(path.mse_curve, cold.mse_curve, rtol=mse_rtol, atol=0)
        assert len(path_fits) == len(cold_fits)
        for warm, cold_fit in zip(path_fits, cold_fits):
            np.testing.assert_allclose(
                warm.params.as_array(), cold_fit.params.as_array(), rtol=1e-10, atol=0
            )
            assert warm.objective == pytest.approx(cold_fit.objective, rel=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TuningConfig(beta_grid=(0.4, 0.2))
        with pytest.raises(ValueError, match="increasing"):
            TuningConfig(beta_grid=(0.4, 0.4))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            TuningConfig(beta_grid=(0.0, 1.2))
        with pytest.raises(ValueError, match="non-empty"):
            TuningConfig(beta_grid=())
        with pytest.raises(ValueError, match="epsilon"):
            TuningConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="max_rounds"):
            TuningConfig(max_rounds=0)

    def test_max_rounds_must_be_whole(self):
        assert TuningConfig(max_rounds=3.0).max_rounds == 3
        with pytest.raises(ValueError, match="max_rounds must be a whole number, got 2.5"):
            TuningConfig(max_rounds=2.5)

    @pytest.mark.parametrize("grid", [(np.nan, 0.5), (0.0, np.nan, 1.0)])
    def test_nan_in_grid_raises(self, grid):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            TuningConfig(beta_grid=grid)

    def test_single_point_grid(self):
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        result = select_beta(
            SIM_PLAN, IntervalData(pi * 200, 200), TuningConfig(beta_grid=(0.4,))
        )
        assert result.beta_opt == 0.4
        assert result.rounds == 1


class TestSelectionFrequencies:
    """Replicated studies on the two-level simulation design, N = 200.

    The selected beta concentrates at small values on clean data. Under
    cell contamination the selected-beta distribution shifts upward, but
    only mildly: the (a0, a1) ridge of this design absorbs most of the
    single-cell perturbation at every beta, so the bias term that would
    reward large beta stays small. The frequencies below are frozen from
    the seeds in the fixtures.
    """

    def test_clean_data_prefers_small_beta(self, clean_opts):
        small = int(np.sum(clean_opts <= 0.2))
        at_one = int(np.sum(clean_opts == 1.0))
        assert small > at_one
        assert small == 77
        assert at_one == 0

    def test_contamination_shifts_selection_upward(
        self, clean_opts, contaminated_opts
    ):
        clean_positive = np.mean(clean_opts > 0.0)
        cont_positive = np.mean(contaminated_opts > 0.0)
        assert cont_positive > clean_positive
        assert int(np.sum(contaminated_opts >= 0.4)) == 13
