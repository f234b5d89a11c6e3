"""The public-API contract: every inference entry point converges or says why not.

Problems are drawn near the bundled datasets' fits: a bundled plan, a theta
perturbed from that plan's fit, N devices and a beta, with multinomial
counts. On each, every call of the paper's inference API must return
finite numbers or raise a StepStressError subclass. The calls that need a
converged fit must refuse a non-converged one with the ValueError that
FitResult.require_usable documents.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stepstress.datasets import BUNDLED_DATASETS, load_dataset
from stepstress.errors import StepStressError
from stepstress.estimation import FitConfig, fit
from stepstress.influence import influence_report
from stepstress.lifetime import characteristic_ci, param_ci
from stepstress.model import IntervalData, ModelParams, cell_probabilities
from stepstress.wald import (
    asymptotic_power,
    contiguous_power,
    linear_constraint,
    wald_statistic,
)


@functools.cache
def _bundle_and_fit(name):
    bundle = load_dataset(name)
    return bundle, fit(bundle.plan, bundle.data).params


def _finite_or_refused(call, flatten):
    """Run ``call``; its flattened result must be finite unless it raised."""
    try:
        result = call()
    except StepStressError:
        return
    values = np.asarray(flatten(result), dtype=float)
    assert np.all(np.isfinite(values)), values


def _estimate_numbers(est):
    lo, hi = est.ci_direct
    assert lo <= est.value <= hi
    return [est.value, est.std_error, *est.ci_direct, *est.ci_transformed]


def _probability(p):
    assert 0.0 <= p <= 1.0
    return [p]


@settings(
    derandomize=True,
    max_examples=90,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(BUNDLED_DATASETS),
    offset=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
    n_devices=st.sampled_from([10, 30, 100, 300]),
    beta=st.sampled_from([0.0, 1e-6, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_public_api_converges_or_refuses(name, offset, n_devices, beta, seed):
    bundle, center = _bundle_and_fit(name)
    plan, x0 = bundle.plan, bundle.x0
    theta = ModelParams(
        center.a0 + offset[0],
        center.a1 * (1.0 + offset[1]),
        center.eta * np.exp(offset[2]),
    )
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_devices, cell_probabilities(theta, plan))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # extrapolation, a1 >= 0, pseudo-inverses
        try:
            result = fit(plan, IntervalData(counts, n_devices), FitConfig(beta=beta))
        except StepStressError:
            return
        params = result.params
        assert np.all(np.isfinite([*params.as_array(), result.grad_norm]))
        assert np.all(np.isfinite(result.covariance))

        null = linear_constraint([0.0, 1.0, 0.0], theta.a1)
        t_last = plan.inspection_times[-1]
        gated = [  # (call, flatten) of each entry point that needs a usable fit
            (lambda: param_ci(result), np.ravel),
            (lambda: characteristic_ci(result, plan, x0, "mean"), _estimate_numbers),
            (
                lambda: characteristic_ci(result, plan, x0, "quantile", 0.95),
                _estimate_numbers,
            ),
            (
                lambda: characteristic_ci(result, plan, x0, "reliability", t_last),
                _estimate_numbers,
            ),
            (
                lambda: wald_statistic(result, null),
                lambda test: [test.statistic, *_probability(test.p_value)],
            ),
        ]
        for call, flatten in gated:
            if result.converged:
                _finite_or_refused(call, flatten)
            else:
                with pytest.raises(ValueError, match="non-converged fit"):
                    call()

        cell = 1 + seed % plan.n_cells
        _finite_or_refused(
            lambda: influence_report(params, plan, beta, cell, null, n_devices),
            lambda r: [*r.if_vector, r.if_wald_second_order],
        )
        off_null = linear_constraint([0.0, 1.0, 0.0], params.a1 - 0.1)
        _finite_or_refused(
            lambda: asymptotic_power(params, plan, off_null, beta, n_devices),
            _probability,
        )
        on_null = linear_constraint([0.0, 1.0, 0.0], params.a1)
        _finite_or_refused(
            lambda: contiguous_power(params, plan, on_null, beta, d=[0.0, 1.0, 0.0]),
            _probability,
        )
