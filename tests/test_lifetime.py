"""Tests for lifetime characteristics and their confidence intervals."""

import numpy as np
import pytest
from scipy.integrate import quad

from stepstress.datasets import load_dataset
from stepstress.errors import ExtrapolationWarning, NumericError, WeakIdentificationWarning
from stepstress.estimation import FitConfig, FitResult, fit
from stepstress.lifetime import (
    CharacteristicEstimate,
    characteristic,
    characteristic_ci,
    mean_lifetime,
    param_ci,
    quantile,
    reliability,
)
from stepstress.model import IntervalData, ModelParams

EULER_GAMMA = 0.5772156649015329
HOURS_PER_YEAR = 8760.0

SOLAR_MLE = ModelParams(1.804, -2.388, 1.535)


@pytest.fixture(scope="module")
def solar_fit():
    b = load_dataset("solar")
    return fit(b.plan, b.data, FitConfig(beta=0.0)), b.plan


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


class TestPointValues:
    def test_reliability_approaches_one_at_zero_time(self):
        assert reliability(SOLAR_MLE, 0.0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_reliability_at_scale(self):
        p = ModelParams(1.2, -0.7, 1.0)
        scale = np.exp(p.a0 + p.a1 * 0.4)
        assert reliability(p, 0.4, scale) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_unit_weibull_quantile(self):
        p = ModelParams(0.8, -1.1, 1.7)
        scale = np.exp(p.a0 + p.a1 * 0.25)
        assert quantile(p, 0.25, np.exp(-1.0)) == pytest.approx(scale, rel=1e-12)

    def test_exponential_mean_is_scale(self):
        p = ModelParams(1.5, -0.9, 1.0)
        scale = np.exp(p.a0 + p.a1 * 0.6)
        assert mean_lifetime(p, 0.6) == pytest.approx(scale, rel=1e-12)

    def test_reliability_decreasing_in_time(self):
        ts = np.linspace(0.1, 12.0, 40)
        vals = [reliability(SOLAR_MLE, 0.0, t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_quantile_decreasing_in_reliability_level(self):
        qs = np.linspace(0.05, 0.95, 19)
        vals = [quantile(SOLAR_MLE, 0.0, q) for q in qs]
        assert np.all(np.diff(vals) < 0)

    def test_mean_is_integral_of_reliability(self):
        p = ModelParams(1.7, -1.2, 1.9)
        integral, _ = quad(lambda t: reliability(p, 0.4, t), 0, np.inf)
        assert integral == pytest.approx(mean_lifetime(p, 0.4), rel=1e-5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            reliability(SOLAR_MLE, 0.0, 0.0)
        with pytest.raises(ValueError):
            quantile(SOLAR_MLE, 0.0, 1.0)
        with pytest.raises(ValueError):
            quantile(SOLAR_MLE, 0.0, 0.0)


class TestReferenceValues:
    """Published summaries recomputed from the printed estimates."""

    def test_solar_mle_row(self):
        assert mean_lifetime(SOLAR_MLE, 0.0) == pytest.approx(5.468, abs=1e-3)
        assert reliability(SOLAR_MLE, 0.0, 4.0) == pytest.approx(0.591, abs=1e-3)
        assert quantile(SOLAR_MLE, 0.0, 0.95) == pytest.approx(0.877, abs=1e-3)

    def test_solar_beta_one_row(self):
        p = ModelParams(1.836, -2.370, 1.401)
        assert mean_lifetime(p, 0.0) == pytest.approx(5.717, abs=3e-3)
        assert reliability(p, 0.0, 4.0) == pytest.approx(0.587, abs=1e-3)
        assert quantile(p, 0.0, 0.95) == pytest.approx(0.752, abs=1e-3)

    def test_transistor_mle_row(self):
        # mean and quantile in years, reliability at an 80-year mission,
        # all at the use temperature (x0 = 0 on the anchored scale)
        p = ModelParams(16.434, -5.162, 0.871)
        assert mean_lifetime(p, 0.0) / HOURS_PER_YEAR == pytest.approx(
            1678.749, rel=1e-3
        )
        assert reliability(p, 0.0, 80.0 * HOURS_PER_YEAR) == pytest.approx(
            0.928, abs=1e-3
        )
        assert quantile(p, 0.0, 0.95) / HOURS_PER_YEAR == pytest.approx(
            51.657, rel=3e-3
        )


class TestGradients:
    @pytest.mark.parametrize("kind", ["reliability", "quantile", "mean"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = ModelParams(
                rng.uniform(0.5, 6.0), rng.uniform(-3.0, -0.1), rng.uniform(0.6, 2.5)
            )
            x0 = rng.uniform(-0.5, 1.5)
            if kind == "reliability":
                extra = rng.uniform(0.2, 2.0) * np.exp(p.a0 + p.a1 * x0)
            elif kind == "quantile":
                extra = rng.uniform(0.05, 0.95)
            else:
                extra = None
            grad = characteristic(p, x0, kind, extra)[1]
            base = p.as_array()
            fd = np.zeros(3)
            h = 1e-6
            for i in range(3):
                up, dn = base.copy(), base.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    characteristic(ModelParams(*up), x0, kind, extra)[0]
                    - characteristic(ModelParams(*dn), x0, kind, extra)[0]
                ) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)

    def test_mean_log_derivative_in_a0(self):
        _, g = characteristic(SOLAR_MLE, 0.3, "mean")
        assert g[0] / mean_lifetime(SOLAR_MLE, 0.3) == 1.0

    def test_mean_shape_derivative_at_exponential(self):
        # at eta = 1 the shape sensitivity reduces to -E*(1 - Euler gamma)
        p = ModelParams(1.0, -0.5, 1.0)
        _, g = characteristic(p, 0.3, "mean")
        e = mean_lifetime(p, 0.3)
        assert g[2] == pytest.approx(-e * (1.0 - EULER_GAMMA), rel=1e-12)

    def test_rejects_bad_kind_and_extra(self):
        with pytest.raises(ValueError, match="kind"):
            characteristic(SOLAR_MLE, 0.0, "median")
        with pytest.raises(ValueError, match="extra"):
            characteristic(SOLAR_MLE, 0.0, "reliability")
        with pytest.raises(ValueError, match="no extra"):
            characteristic(SOLAR_MLE, 0.0, "mean", 4.0)

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_stress(self, x0):
        for kind, extra in (("reliability", 4.0), ("quantile", 0.9), ("mean", None)):
            with pytest.raises(ValueError, match="x0 must be finite"):
                characteristic(SOLAR_MLE, x0, kind, extra)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_rejects_non_finite_mission_time(self, t):
        with pytest.raises(ValueError, match="positive and finite"):
            reliability(SOLAR_MLE, 0.0, t)

    def test_overflowing_values_refused(self):
        # at eta = 0.005, gamma(1 + 1/eta) = 200! and the quantile's power
        # (-log q)^200 both exceed the largest double
        p = ModelParams(0.0, -1.0, 0.005)
        with pytest.raises(NumericError, match="mean at stress 0 overflows"):
            mean_lifetime(p, 0.0)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="quantile at stress 0 overflows"):
                quantile(p, 0.0, 1e-300)


class TestCharacteristicCI:
    def test_solar_mean(self, solar_fit):
        result, plan = solar_fit
        est = characteristic_ci(result, plan, 0.0, "mean")
        assert isinstance(est, CharacteristicEstimate)
        assert est.value == pytest.approx(5.4681, abs=2e-3)
        assert est.std_error == pytest.approx(1.0647, abs=2e-3)
        np.testing.assert_allclose(est.ci_direct, (3.3813, 7.5550), atol=5e-3)
        np.testing.assert_allclose(est.ci_transformed, (3.7333, 8.0091), atol=5e-3)

    def test_solar_reliability(self, solar_fit):
        result, plan = solar_fit
        est = characteristic_ci(result, plan, 0.0, "reliability", 4.0)
        assert est.value == pytest.approx(0.5905, abs=1e-3)
        np.testing.assert_allclose(est.ci_direct, (0.4371, 0.7439), atol=3e-3)
        np.testing.assert_allclose(est.ci_transformed, (0.4333, 0.7312), atol=3e-3)

    def test_solar_quantile(self, solar_fit):
        result, plan = solar_fit
        est = characteristic_ci(result, plan, 0.0, "quantile", 0.95)
        assert est.value == pytest.approx(0.8772, abs=2e-3)
        np.testing.assert_allclose(est.ci_direct, (0.1208, 1.6335), atol=5e-3)
        np.testing.assert_allclose(est.ci_transformed, (0.3704, 2.0775), atol=5e-3)

    def test_transformed_contains_value_and_respects_range(self, solar_fit):
        result, plan = solar_fit
        for conf in (0.5, 0.95, 0.999999):
            r = characteristic_ci(result, plan, 0.0, "reliability", 4.0, conf)
            assert 0.0 < r.ci_transformed[0] <= r.value <= r.ci_transformed[1] < 1.0
            for kind, extra in (("quantile", 0.95), ("mean", None)):
                est = characteristic_ci(result, plan, 0.0, kind, extra, conf)
                lo, hi = est.ci_transformed
                assert 0.0 < lo <= est.value <= hi

    def test_zero_variance_collapses_both_intervals(self):
        f = _synthetic_fit(SOLAR_MLE, np.zeros((3, 3)), 100)
        est = characteristic_ci(f, None, 0.0, "reliability", 4.0)
        v = est.value
        assert est.ci_direct == (v, v)
        assert est.ci_transformed == (v, v)
        assert est.std_error == 0.0

    def test_interval_families_agree_for_large_samples(self):
        sigma = np.diag([0.9, 2.0, 1.1])
        ratios = []
        for n in (1_000, 100_000):
            f = _synthetic_fit(SOLAR_MLE, sigma, n)
            est = characteristic_ci(f, None, 0.0, "mean")
            w_direct = est.ci_direct[1] - est.ci_direct[0]
            w_transf = est.ci_transformed[1] - est.ci_transformed[0]
            ratios.append(w_transf / w_direct)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[1] == pytest.approx(1.0, abs=1e-3)

    def test_non_psd_covariance_rejected(self):
        f = _synthetic_fit(SOLAR_MLE, -np.eye(3), 100)
        with pytest.raises(NumericError, match="positive semi-definite"):
            characteristic_ci(f, None, 0.0, "mean")

    def test_non_converged_fit_rejected(self):
        f = _synthetic_fit(SOLAR_MLE, np.eye(3), 100, converged=False)
        with pytest.raises(ValueError, match="converge"):
            characteristic_ci(f, None, 0.0, "mean")
        with pytest.raises(ValueError, match="converge"):
            param_ci(f)

    def test_bad_confidence_rejected(self, solar_fit):
        result, plan = solar_fit
        with pytest.raises(ValueError, match="confidence"):
            characteristic_ci(result, plan, 0.0, "mean", confidence=1.0)
        with pytest.raises(ValueError, match="confidence"):
            param_ci(result, confidence=0.0)


    @pytest.mark.parametrize("kind, extra", [("mean", None), ("quantile", 0.95)])
    def test_unbounded_interval_refused(self, kind, extra):
        # a converged, well-conditioned fit with se(a0) of about 1045: the
        # log-scale interval's upper end overflows to inf, which is refused
        # rather than reported
        b = load_dataset("transistor")
        data = IntervalData([0, 0, 1, 5, 4, 5, 4, 7, 3, 1, 0], 30)
        result = fit(b.plan, data, FitConfig(beta=0.0))
        assert result.converged and not result.ill_conditioned
        assert result.standard_errors[0] > 1e3
        with pytest.raises(NumericError, match="overflows"):
            characteristic_ci(result, None, 0.0, kind, extra)


class TestExtrapolationWarning:
    def test_use_stress_below_tested_range_warns(self):
        b = load_dataset("transistor")
        result = fit(b.plan, b.data, FitConfig(beta=0.0))
        with pytest.warns(ExtrapolationWarning, match="outside the tested range"):
            characteristic_ci(result, b.plan, b.x0, "mean")

    def test_tested_stress_does_not_warn(self, solar_fit):
        result, plan = solar_fit
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", ExtrapolationWarning)
            characteristic_ci(result, plan, 0.0, "mean")
            characteristic_ci(result, plan, 1.0, "mean")

    def test_plan_none_skips_the_check(self):
        f = _synthetic_fit(SOLAR_MLE, np.eye(3), 50)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", ExtrapolationWarning)
            characteristic_ci(f, None, -3.0, "mean")


class TestWeakIdentificationWarning:
    def test_intervals_of_a_weakly_identified_fit_warn(self):
        b = load_dataset("led")
        result = fit(b.plan, b.data, FitConfig(beta=0.5))
        assert result.weakly_identified
        with pytest.warns(WeakIdentificationWarning, match="weakly identified"):
            param_ci(result)
        with pytest.warns(WeakIdentificationWarning, match="weakly identified"):
            characteristic_ci(result, None, b.x0, "mean")

    def test_identified_fit_does_not_warn(self, solar_fit):
        result, plan = solar_fit
        assert not result.weakly_identified
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error", WeakIdentificationWarning)
            param_ci(result)
            characteristic_ci(result, plan, 0.0, "reliability", 4.0)


class TestParamCI:
    def test_solar_values(self, solar_fit):
        result, _ = solar_fit
        ci = param_ci(result)
        np.testing.assert_allclose(
            ci,
            [[1.4497, 2.1581], [-3.3983, -1.3771], [0.7743, 2.2957]],
            atol=2e-3,
        )

    def test_formula_identity(self, solar_fit):
        result, _ = solar_fit
        ci = param_ci(result, confidence=0.9)
        z = 1.6448536269514722
        center = result.params.as_array()
        half = z * result.standard_errors
        np.testing.assert_allclose(ci[:, 0], center - half, rtol=1e-12)
        np.testing.assert_allclose(ci[:, 1], center + half, rtol=1e-12)

    def test_degenerate_covariance(self):
        f = _synthetic_fit(SOLAR_MLE, np.zeros((3, 3)), 100)
        ci = param_ci(f)
        np.testing.assert_allclose(ci[:, 0], ci[:, 1])
        np.testing.assert_allclose(ci[:, 0], SOLAR_MLE.as_array())
