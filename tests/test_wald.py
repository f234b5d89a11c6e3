"""Tests for Wald-type hypothesis tests and power approximations."""

from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import chi2, kstest, ncx2, norm

from stepstress.datasets import load_dataset
from stepstress.errors import NumericError
from stepstress.estimation import FitConfig, fit, fit_proportions, sandwich_covariance
from stepstress.influence import influence_report
from stepstress.lifetime import characteristic_ci, param_ci
from stepstress.model import IntervalData, ModelParams, cell_probabilities
from stepstress.wald import (
    Constraint,
    TestResult,
    asymptotic_power,
    contiguous_power,
    linear_constraint,
    wald_statistic,
)

from conftest import SIM_PLAN, SIM_THETA

# null: the stress slope equals its simulation-design value
NULL_SLOPE = linear_constraint([0.0, 1.0, 0.0], -0.05)
UNIT_SHAPE = linear_constraint([0.0, 0.0, 1.0], 1.0)
ZERO_SLOPE = linear_constraint([0.0, 1.0, 0.0], 0.0)


@pytest.fixture(scope="module")
def solar():
    b = load_dataset("solar")
    return fit(b.plan, b.data, FitConfig(beta=0.0))


def _mc_trials(theta, reps, seed, n_devices=200):
    """Simulate fits at theta and test NULL_SLOPE on each."""
    pi = cell_probabilities(theta, SIM_PLAN)
    rng = np.random.default_rng(seed)
    cfg = FitConfig(beta=0.0, multistart=1)
    results = []
    for _ in range(reps):
        counts = rng.multinomial(n_devices, pi)
        if np.count_nonzero(counts) < 2:
            continue
        res = fit_proportions(SIM_PLAN, counts / n_devices, n_devices, cfg)
        results.append(wald_statistic(res, NULL_SLOPE))
    return results


@pytest.fixture(scope="module")
def null_trials():
    return _mc_trials(SIM_THETA, 2000, seed=77)


class TestWaldStatistic:
    def test_zero_at_a_null_point(self, solar):
        result = solar
        # constrain the slope to exactly its estimate: m(theta_hat) = 0
        pinned = linear_constraint([0.0, 1.0, 0.0], result.params.a1)
        out = wald_statistic(result, pinned)
        assert out.statistic == pytest.approx(0.0, abs=1e-18)
        assert out.p_value == pytest.approx(1.0)

    def test_solar_unit_shape_not_rejected(self, solar):
        result = solar
        out = wald_statistic(result, UNIT_SHAPE)
        assert out.statistic == pytest.approx(1.9000, abs=2e-3)
        assert out.p_value == pytest.approx(0.1681, abs=2e-3)
        assert out.df == 1
        assert not out.reject_at(0.05)
        assert out.reject_at(0.20)

    def test_solar_zero_slope_rejected(self, solar):
        result = solar
        out = wald_statistic(result, ZERO_SLOPE)
        assert out.statistic == pytest.approx(21.445, abs=5e-3)
        assert out.p_value < 1e-4
        assert out.reject_at(0.05)
        assert out.reject_at(0.01)

    def test_far_tail_p_value_does_not_underflow(self, solar):
        # a0 = 0 lies about 9.9 standard errors off: 1 - cdf rounds to 0
        out = wald_statistic(solar, linear_constraint([1.0, 0.0, 0.0], 0.0))
        assert out.p_value > 0.0
        assert out.p_value == pytest.approx(chi2.sf(out.statistic, 1), rel=1e-12)

    def test_invariant_under_constraint_rescaling(self, solar):
        result = solar
        base = wald_statistic(result, UNIT_SHAPE)
        scaled = wald_statistic(result, linear_constraint([0.0, 0.0, -7.0], -7.0))
        assert abs(base.statistic - scaled.statistic) < 1e-10

    def test_two_component_constraint(self, solar):
        result = solar
        joint = linear_constraint([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 1.0])
        out = wald_statistic(result, joint)
        assert out.df == 2
        assert out.statistic > 0.0
        assert 0.0 <= out.p_value <= 1.0
        # pinning both components at the estimate collapses the statistic
        pinned = linear_constraint(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [result.params.a1, result.params.eta],
        )
        assert wald_statistic(result, pinned).statistic == pytest.approx(
            0.0, abs=1e-18
        )

    def test_rank_deficient_jacobian_rejected(self):
        with pytest.raises(NumericError, match="rank"):
            linear_constraint([0.0, 0.0, 0.0], 1.0)
        with pytest.raises(NumericError, match="rank"):
            linear_constraint([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], [0.0, 0.0])

    def test_non_converged_fit_rejected(self, solar):
        result = solar
        from dataclasses import replace

        with pytest.raises(ValueError, match="converge"):
            wald_statistic(replace(result, converged=False), UNIT_SHAPE)

    def test_ill_conditioned_fit_refused(self):
        # every survivor of the first level fails in the first interval
        # after the stress change, so a1 can fall further at no cost: J is
        # pseudo-inverted, a1 gets zero variance, and any interval or test
        # built on that covariance would be falsely sharp
        plan = load_dataset("solar").plan
        data = IntervalData([14, 11, 8, 6, 0, 0, 0], 39)
        result = fit(plan, data, FitConfig(beta=0.0))
        assert result.converged and result.ill_conditioned
        assert result.standard_errors[1] < 1e-12
        with pytest.raises(NumericError, match="ill-conditioned"):
            wald_statistic(result, ZERO_SLOPE)
        with pytest.raises(NumericError, match="ill-conditioned"):
            param_ci(result)
        with pytest.raises(NumericError, match="ill-conditioned"):
            characteristic_ci(result, plan, 0.0, "mean")

    def test_power_refused_at_unidentified_point(self):
        # the ill-conditioned solar fit of the test above: its pseudo-inverse
        # covariance once gave asymptotic power 1.0 and contiguous power NaN
        plan = load_dataset("solar").plan
        data = IntervalData([14, 11, 8, 6, 0, 0, 0], 39)
        theta = fit(plan, data, FitConfig(beta=0.0)).params
        on_null = linear_constraint([0.0, 1.0, 0.0], theta.a1)
        off_null = linear_constraint([0.0, 1.0, 0.0], theta.a1 + 0.5)
        with pytest.raises(NumericError, match="ill-conditioned"):
            asymptotic_power(theta, plan, off_null, 0.0, 39)
        with pytest.raises(NumericError, match="ill-conditioned"):
            contiguous_power(theta, plan, on_null, 0.0, d=[0.0, 1.0, 0.0])
        # the influence forms keep reporting the flag instead
        assert influence_report(theta, plan, 0.0, 2, on_null, 39).ill_conditioned

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            linear_constraint([1.0, 2.0])
        with pytest.raises(ValueError):
            linear_constraint(np.ones((3, 3)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                linear_constraint([bad, 1.0, 0.0])
            with pytest.raises(ValueError, match="d must be finite"):
                linear_constraint([0.0, 1.0, 0.0], bad)
        joint = linear_constraint([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 1.0])
        assert [f.name for f in fields(Constraint)] == ["coefficients", "d"]
        assert joint.r == 2
        np.testing.assert_array_equal(joint.value(SIM_THETA), [-0.05, 0.5])

    def test_overflow_is_refused_not_reported(self, solar):
        # C Sigma C' overflows at 1e155, where the pseudo-inverse of inf once
        # gave statistic 0 and p = 1; at d = 1e300 the statistic itself is inf
        for constraint in (
            linear_constraint([0.0, 0.0, 1e155], 1e155),
            linear_constraint([0.0, 0.0, 1e200], 1.0),
        ):
            with pytest.raises(NumericError, match="C Sigma C' overflows"):
                wald_statistic(solar, constraint)
        with pytest.raises(NumericError, match="statistic overflows"):
            wald_statistic(solar, linear_constraint([0.0, 0.0, 1.0], 1e300))
        # the same null at a unit scale is an ordinary finite test
        out = wald_statistic(solar, UNIT_SHAPE)
        assert np.isfinite(out.statistic) and out.statistic > 0.0

    def test_reject_at_validates_alpha(self):
        out = TestResult(statistic=1.0, df=1, p_value=0.3)
        with pytest.raises(ValueError):
            out.reject_at(0.0)
        with pytest.raises(ValueError):
            out.reject_at(1.0)


class TestNullDistribution:
    def test_statistics_are_valid(self, null_trials):
        stats = np.array([t.statistic for t in null_trials])
        pvals = np.array([t.p_value for t in null_trials])
        assert len(null_trials) == 2000
        assert np.all(stats >= 0.0)
        assert np.all((pvals >= 0.0) & (pvals <= 1.0))

    def test_level_matches_nominal(self, null_trials):
        level = np.mean([t.reject_at(0.05) for t in null_trials])
        assert level == pytest.approx(0.05, abs=0.02)

    def test_upper_quantile_matches_chi2(self, null_trials):
        stats = np.array([t.statistic for t in null_trials])
        assert np.quantile(stats, 0.90) == pytest.approx(2.706, abs=0.4)

    def test_p_values_uniform(self, null_trials):
        pvals = np.array([t.p_value for t in null_trials[:500]])
        assert kstest(pvals, "uniform").statistic < 0.08


class TestPowerApproximations:
    def test_monte_carlo_power_far_alternative(self):
        # golden rejection rate at a1* = -0.09 (seed 99): 0.530; the
        # fixed-alternative normal approximation is good in this regime
        trials = _mc_trials(ModelParams(5.3, -0.09, 1.5), 500, seed=99)
        mc = np.mean([t.reject_at(0.05) for t in trials])
        assert mc == pytest.approx(0.530, abs=1e-12)
        assert mc > 0.3
        approx = asymptotic_power(
            ModelParams(5.3, -0.09, 1.5), SIM_PLAN, NULL_SLOPE, 0.0, 200, 0.05
        )
        assert approx == pytest.approx(0.4708, abs=2e-3)
        assert abs(approx - mc) < 0.08

    def test_monte_carlo_power_near_alternative(self):
        # close to the null the contiguous approximation takes over: the
        # fixed-alternative formula collapses to ~0 while the local one
        # tracks the simulated rate
        theta = ModelParams(5.3, -0.06, 1.5)
        trials = _mc_trials(theta, 500, seed=101)
        mc = np.mean([t.reject_at(0.05) for t in trials])
        assert mc == pytest.approx(0.058, abs=1e-12)
        d = np.sqrt(200.0) * (theta.as_array() - SIM_THETA.as_array())
        local = contiguous_power(SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 0.05, d=d)
        assert local == pytest.approx(0.0648, abs=2e-3)
        assert abs(local - mc) < 0.03
        fixed = asymptotic_power(theta, SIM_PLAN, NULL_SLOPE, 0.0, 200, 0.05)
        assert fixed < 0.01

    def test_power_approaches_one(self):
        theta = ModelParams(5.3, -0.06, 1.5)
        power = asymptotic_power(theta, SIM_PLAN, NULL_SLOPE, 0.0, 10**8, 0.05)
        assert power > 1.0 - 1e-6

    def test_power_monotone_in_distance(self):
        # monotone over alternatives the design can actually distinguish;
        # far steeper slopes push every failure into the first cells, the
        # information about a1 collapses, and the approximation with it,
        # so global monotonicity in |m| is not an identity
        slopes = (-0.055, -0.06, -0.065, -0.07, -0.08, -0.09)
        powers = [
            asymptotic_power(
                ModelParams(5.3, s, 1.5), SIM_PLAN, NULL_SLOPE, 0.0, 200, 0.05
            )
            for s in slopes
        ]
        assert np.all(np.diff(powers) >= -1e-12)
        assert powers[-1] > 0.4

    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("slope", [-0.06, -0.09])
    def test_closed_form_gradient_matches_differences(self, beta, slope):
        # the normal approximation's scale uses the gradient 2 C' A^-1 m of
        # l(theta) = m' A^-1 m at fixed A; compare with central differences
        theta = ModelParams(5.3, slope, 1.5)
        sigma, _ = sandwich_covariance(theta, SIM_PLAN, beta)
        c = NULL_SLOPE.coefficients
        inner = c @ sigma @ c.T

        def ell(u):
            m = NULL_SLOPE.value(ModelParams(*u))
            return float(m @ np.linalg.solve(inner, m))

        base = theta.as_array()
        numeric = np.zeros(3)
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-6 * (1.0 + abs(base[i]))
            numeric[i] = (ell(base + step) - ell(base - step)) / (2.0 * step[i])
        m = NULL_SLOPE.value(theta)
        closed = 2.0 * NULL_SLOPE.coefficients.T @ np.linalg.solve(inner, m)
        np.testing.assert_allclose(closed, numeric, rtol=1e-6, atol=0.0)
        # and asymptotic_power is the normal approximation with that gradient
        scale = np.sqrt(numeric @ sigma @ numeric)
        z_arg = np.sqrt(200.0) / scale * (chi2.ppf(0.95, 1) / 200.0 - ell(base))
        expected = norm.sf(z_arg)
        power = asymptotic_power(theta, SIM_PLAN, NULL_SLOPE, beta, 200, 0.05)
        assert power == pytest.approx(expected, rel=1e-6)

    def test_rejects_null_theta(self):
        with pytest.raises(ValueError, match="null"):
            asymptotic_power(SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 200, 0.05)

    def test_validates_inputs(self):
        theta = ModelParams(5.3, -0.06, 1.5)
        with pytest.raises(ValueError):
            asymptotic_power(theta, SIM_PLAN, NULL_SLOPE, 0.0, 200, alpha=1.0)
        with pytest.raises(ValueError):
            asymptotic_power(theta, SIM_PLAN, NULL_SLOPE, 0.0, 0, 0.05)


class TestContiguousPower:
    def test_zero_shift_recovers_level(self):
        for alpha in (0.01, 0.05, 0.10):
            power = contiguous_power(
                SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, alpha, d=[0.0, 0.0, 0.0]
            )
            assert power == pytest.approx(alpha, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.05, 1e-12, 1e-17])
    def test_zero_shift_recovers_a_tiny_level(self, alpha):
        # 1 - chndtr(...) gave 9.99978e-13 at alpha = 1e-12 and 0 at 1e-17
        power = contiguous_power(SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, alpha, delta=[0.0])
        assert power == pytest.approx(alpha, rel=1e-10, abs=0.0)

    def test_small_power_matches_the_noncentral_upper_tail(self):
        sigma, _ = sandwich_covariance(SIM_THETA, SIM_PLAN, 0.0)
        c = NULL_SLOPE.coefficients
        inner = float((c @ sigma @ c.T)[0, 0])
        for alpha, ncp in ((1e-12, 0.5), (1e-12, 20.0), (1e-17, 3.0), (0.05, 1.0)):
            power = contiguous_power(
                SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, alpha, delta=[np.sqrt(ncp * inner)]
            )
            expected = ncx2.sf(chi2.isf(alpha, 1), 1, ncp)
            assert power == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_d_and_delta_forms_agree(self):
        d = np.array([0.3, -0.04, 0.5])
        p_d = contiguous_power(SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 0.05, d=d)
        p_delta = contiguous_power(
            SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 0.05,
            delta=NULL_SLOPE.coefficients @ d,
        )
        assert p_d == pytest.approx(p_delta, abs=1e-12)

    def test_known_noncentrality(self):
        # arrange the shift so the noncentrality is exactly 5; the power
        # 1 - F(3.8415; df=1, ncp=5) = 0.60878 is verified against an
        # independent noncentral chi-squared implementation
        sigma, _ = sandwich_covariance(SIM_THETA, SIM_PLAN, 0.0)
        c = NULL_SLOPE.coefficients
        inner = c @ sigma @ c.T
        delta = np.sqrt(5.0 * float(inner[0, 0]))
        power = contiguous_power(
            SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 0.05, delta=[delta]
        )
        assert power == pytest.approx(0.6087794846454571, abs=1e-9)

    def test_monotone_in_noncentrality(self):
        scales = np.linspace(0.0, 3.0, 13)
        powers = [
            contiguous_power(
                SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 0.05, d=[0.0, -s, 0.0]
            )
            for s in scales
        ]
        assert np.all(np.diff(powers) >= -1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="exactly one"):
            contiguous_power(SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 0.05)
        with pytest.raises(ValueError, match="exactly one"):
            contiguous_power(
                SIM_THETA, SIM_PLAN, NULL_SLOPE, 0.0, 0.05, d=[0, 0, 0], delta=[0.0]
            )
        off_null = ModelParams(5.3, -0.2, 1.5)
        with pytest.raises(ValueError, match="null"):
            contiguous_power(off_null, SIM_PLAN, NULL_SLOPE, 0.0, 0.05, d=[0, 0, 0])
