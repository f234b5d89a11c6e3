"""Tests for influence diagnostics and design-leverage probes."""

import warnings

import numpy as np
import pytest

from stepstress.estimation import FitConfig, fit, fit_proportions
from stepstress.datasets import load_dataset
from stepstress.errors import NumericError
from stepstress.influence import (
    IFReport,
    if_mdpde,
    if_wald,
    if_wald_first_order,
    influence_report,
    leverage_probe,
    wald_quadratic_form,
)
from stepstress.model import (
    ModelParams,
    StressPlan,
    cell_probabilities,
    gradient_matrix,
)
from stepstress.wald import linear_constraint

from conftest import SIM_PLAN, SIM_THETA

NULL_SLOPE = linear_constraint([0.0, 1.0, 0.0], -0.05)
ZERO_SLOPE = linear_constraint([0.0, 1.0, 0.0], 0.0)
BETA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

# saturated single-level, single-inspection design: two cells, rank-1
# information, where the influence on the identified cell probability
# reduces to the classical multinomial form by hand algebra
TOY_PLAN = StressPlan([0.7], [2.0], [2.0])
TOY_THETA = ModelParams(0.9, -0.4, 1.3)


class TestIfMdpde:
    @pytest.mark.parametrize("beta", [0.0, 0.35, 1.0])
    @pytest.mark.parametrize("cell", [1, 3, 14])
    def test_matches_refit_derivative(self, beta, cell):
        # contaminate the model cell vector by eps at one cell, refit, and
        # compare the difference quotient with the analytic vector
        analytic = if_mdpde(SIM_THETA, SIM_PLAN, beta, cell)
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        theta0 = SIM_THETA.as_array()
        errs = []
        for eps in (1e-3, 1e-4):
            bump = np.zeros(SIM_PLAN.n_cells)
            bump[cell - 1] = 1.0
            pi_eps = (1.0 - eps) * pi + eps * bump
            res = fit_proportions(
                SIM_PLAN, pi_eps, 200, FitConfig(beta=beta, multistart=2)
            )
            quotient = (res.params.as_array() - theta0) / eps
            errs.append(
                np.linalg.norm(quotient - analytic) / np.linalg.norm(analytic)
            )
        assert errs[1] < 0.02
        # halving eps by ten shrinks the error: a genuine first derivative
        assert errs[1] < errs[0]

    def test_fisher_consistency(self):
        # model-weighted average of the influence over cells is zero
        pi = cell_probabilities(SIM_THETA, SIM_PLAN)
        for beta in BETA_GRID:
            acc = np.zeros(3)
            for cell in range(1, SIM_PLAN.n_cells + 1):
                acc += pi[cell - 1] * if_mdpde(SIM_THETA, SIM_PLAN, beta, cell)
            np.testing.assert_allclose(acc, 0.0, atol=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 0.35, 1.0])
    def test_two_cell_saturated_model_matches_hand_algebra(self, beta):
        # with two cells the identified functional is the first cell
        # probability; its influence must be (indicator - pi_1) exactly,
        # independent of beta, through the minimum-norm parameter solution
        pi1 = cell_probabilities(TOY_THETA, TOY_PLAN)[0]
        w1 = gradient_matrix(TOY_THETA, TOY_PLAN)[0]
        with pytest.warns(RuntimeWarning, match="pseudo-inverse"):
            v1 = if_mdpde(TOY_THETA, TOY_PLAN, beta, 1)
        with pytest.warns(RuntimeWarning, match="pseudo-inverse"):
            v2 = if_mdpde(TOY_THETA, TOY_PLAN, beta, 2)
        assert w1 @ v1 == pytest.approx(1.0 - pi1, abs=1e-12)
        assert w1 @ v2 == pytest.approx(-pi1, abs=1e-12)

    def test_cell_three_goldens(self):
        np.testing.assert_allclose(
            if_mdpde(SIM_THETA, SIM_PLAN, 0.0, 3),
            [-25.04489608, 0.68192577, 3.11038496],
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            if_mdpde(SIM_THETA, SIM_PLAN, 0.4, 3),
            [-24.42163498, 0.66463122, 2.94279479],
            rtol=1e-6,
        )

    def test_finite_everywhere(self):
        bundle = load_dataset("solar")
        solar_fit = fit(bundle.plan, bundle.data, FitConfig(beta=0.0))
        for beta in BETA_GRID:
            for cell in range(1, SIM_PLAN.n_cells + 1):
                assert np.all(np.isfinite(if_mdpde(SIM_THETA, SIM_PLAN, beta, cell)))
            for cell in range(1, bundle.plan.n_cells + 1):
                vec = if_mdpde(solar_fit.params, bundle.plan, beta, cell)
                assert np.all(np.isfinite(vec))

    def test_cell_index_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            if_mdpde(SIM_THETA, SIM_PLAN, 0.0, 0)
        with pytest.raises(ValueError, match="1-based"):
            if_mdpde(SIM_THETA, SIM_PLAN, 0.0, SIM_PLAN.n_cells + 1)

    def test_fractional_cell_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="integer index, got 2.7"):
            influence_report(SIM_THETA, SIM_PLAN, 0.5, 2.7)
        with pytest.raises(ValueError, match="integer index"):
            if_mdpde(SIM_THETA, SIM_PLAN, 0.5, 3.5)
        # integral values keep working, whatever their type
        assert influence_report(SIM_THETA, SIM_PLAN, 0.5, 3.0).cell == 3
        assert influence_report(SIM_THETA, SIM_PLAN, 0.5, np.int64(3)).cell == 3


class TestWaldInfluence:
    def test_second_order_nonnegative(self):
        for beta in BETA_GRID:
            for cell in range(1, SIM_PLAN.n_cells + 1):
                value = if_wald(SIM_THETA, SIM_PLAN, beta, NULL_SLOPE, cell, 200)
                assert value >= 0.0
                assert np.isfinite(value)

    def test_goldens_cell_three(self):
        got = if_wald(SIM_THETA, SIM_PLAN, 0.0, NULL_SLOPE, 3, n_devices=200)
        assert got == pytest.approx(1193.2314950222653, rel=1e-9)
        got = if_wald(SIM_THETA, SIM_PLAN, 0.4, NULL_SLOPE, 3, n_devices=200)
        assert got == pytest.approx(1124.2851915376496, rel=1e-9)

    def test_first_order_vanishes_at_null(self):
        # the statistic's first-order influence carries a factor m(theta),
        # which is exactly zero at a null point
        for beta in (0.0, 0.4, 1.0):
            for cell in range(1, SIM_PLAN.n_cells + 1):
                assert (
                    if_wald_first_order(
                        SIM_THETA, SIM_PLAN, beta, NULL_SLOPE, cell, 200
                    )
                    == 0.0
                )

    def test_first_order_nonzero_off_null(self):
        value = if_wald_first_order(SIM_THETA, SIM_PLAN, 0.4, ZERO_SLOPE, 3, 200)
        assert value != 0.0

    def test_second_order_requires_null_point(self):
        with pytest.raises(ValueError, match="null"):
            if_wald(SIM_THETA, SIM_PLAN, 0.4, ZERO_SLOPE, 3)

    def test_doubling_if_quadruples_form(self):
        v = if_mdpde(SIM_THETA, SIM_PLAN, 0.4, 3)
        base = wald_quadratic_form(v, SIM_THETA, SIM_PLAN, 0.4, NULL_SLOPE, 200)
        doubled = wald_quadratic_form(
            2.0 * v, SIM_THETA, SIM_PLAN, 0.4, NULL_SLOPE, 200
        )
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_zero_vector_gives_zero(self):
        assert (
            wald_quadratic_form(
                np.zeros(3), SIM_THETA, SIM_PLAN, 0.4, NULL_SLOPE, 200
            )
            == 0.0
        )

    def test_overflowing_constraint_is_refused(self):
        # C Sigma C' overflows: the form once read 0 through a pseudo-inverse
        huge = linear_constraint([0.0, 0.0, 1e200], 1.0)
        v = if_mdpde(SIM_THETA, SIM_PLAN, 0.4, 3)
        with pytest.raises(NumericError, match="overflows"):
            wald_quadratic_form(v, SIM_THETA, SIM_PLAN, 0.4, huge, 200)
        with pytest.raises(NumericError, match="overflows"):
            influence_report(SIM_THETA, SIM_PLAN, 0.4, 3, huge, 200)

    def test_scales_linearly_with_devices(self):
        one = if_wald(SIM_THETA, SIM_PLAN, 0.4, NULL_SLOPE, 3, n_devices=1)
        many = if_wald(SIM_THETA, SIM_PLAN, 0.4, NULL_SLOPE, 3, n_devices=400)
        assert many == pytest.approx(400.0 * one, rel=1e-12)


class TestInfluenceReport:
    def test_bundles_vector_and_form(self):
        report = influence_report(
            SIM_THETA, SIM_PLAN, 0.4, 3, constraint=NULL_SLOPE, n_devices=200
        )
        assert isinstance(report, IFReport)
        assert report.cell == 3
        np.testing.assert_allclose(
            report.if_vector, if_mdpde(SIM_THETA, SIM_PLAN, 0.4, 3)
        )
        assert report.if_wald_second_order == pytest.approx(
            if_wald(SIM_THETA, SIM_PLAN, 0.4, NULL_SLOPE, 3, 200)
        )
        assert report.ill_conditioned is False

    def test_form_omitted_without_constraint(self):
        report = influence_report(SIM_THETA, SIM_PLAN, 0.4, 3)
        assert report.if_wald_second_order is None

    def test_flags_rank_deficient_design(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = influence_report(TOY_THETA, TOY_PLAN, 0.0, 1)
        assert report.ill_conditioned is True


class TestLeverageProbe:
    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    def test_matches_direct_factor_where_representable(self, beta):
        # away from underflow the probe must equal the survivor-cell
        # gradient norm times pi^(beta-1) computed from public functions,
        # in both modes
        levels, changes, times = (
            SIM_PLAN.stress_levels, SIM_PLAN.change_times, SIM_PLAN.inspection_times
        )
        sweeps = {
            "inspection_time": (
                [60.0, 80.0],
                lambda g: StressPlan(levels, [18.0, g], np.append(times[:-1], g)),
            ),
            "stress_level": (
                [45.0, 60.0],
                lambda g: StressPlan([30.0, g], changes, times),
            ),
        }
        for mode, (grid, plan_at) in sweeps.items():
            vals = leverage_probe(SIM_THETA, SIM_PLAN, beta, mode, grid)
            for g, got in zip(grid, vals):
                plan = plan_at(g)
                pi_last = cell_probabilities(SIM_THETA, plan)[-1]
                w_last = gradient_matrix(SIM_THETA, plan)[-1]
                direct = np.linalg.norm(w_last) * pi_last ** (beta - 1.0)
                assert got == pytest.approx(direct, rel=1e-12), mode

    def test_likelihood_case_diverges_with_inspection_time(self):
        vals = leverage_probe(
            SIM_THETA, SIM_PLAN, 0.0, "inspection_time", [50.0, 100.0, 500.0, 1000.0]
        )
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] == pytest.approx(111.9382266, rel=1e-7)
        assert vals[-1] == pytest.approx(13288.89068927, rel=1e-7)

    def test_positive_beta_peaks_then_decays(self):
        vals = leverage_probe(
            SIM_THETA,
            SIM_PLAN,
            0.4,
            "inspection_time",
            [50.0, 58.0, 100.0, 500.0, 1000.0],
        )
        assert int(np.argmax(vals)) == 1
        assert vals[1] == pytest.approx(52.223163541713525, rel=1e-9)
        assert np.all(np.diff(vals[1:]) < 0.0)
        assert vals[-1] < 1e-30

    def test_square_error_case_term_vanishes(self):
        vals = leverage_probe(
            SIM_THETA, SIM_PLAN, 1.0, "inspection_time", [50.0, 100.0, 500.0, 1000.0]
        )
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-80

    def test_stress_sweep_contrast(self):
        grid = [45.0, 60.0, 100.0, 200.0]
        unbounded = leverage_probe(SIM_THETA, SIM_PLAN, 0.0, "stress_level", grid)
        assert np.all(np.diff(unbounded) > 0.0)
        assert unbounded[-1] > 1e6
        damped = leverage_probe(SIM_THETA, SIM_PLAN, 1.0, "stress_level", grid)
        assert np.all(np.diff(damped) < 0.0)
        assert damped[-1] < 1e-40

    def test_single_inspection_template(self):
        vals = leverage_probe(TOY_THETA, TOY_PLAN, 0.0, "inspection_time", [3.0, 5.0])
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="mode"):
            leverage_probe(SIM_THETA, SIM_PLAN, 0.4, "termination", [60.0])
        with pytest.raises(ValueError, match="increasing"):
            leverage_probe(SIM_THETA, SIM_PLAN, 0.4, "inspection_time", [60.0, 60.0])
        with pytest.raises(ValueError, match="increasing"):
            leverage_probe(SIM_THETA, SIM_PLAN, 0.4, "inspection_time", [])
        with pytest.raises(ValueError, match="inspection time"):
            leverage_probe(SIM_THETA, SIM_PLAN, 0.4, "inspection_time", [40.0, 60.0])
        with pytest.raises(ValueError, match="stress level"):
            leverage_probe(SIM_THETA, SIM_PLAN, 0.4, "stress_level", [25.0, 45.0])
