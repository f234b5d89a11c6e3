"""Shared fixtures and random-problem generators for the test suite."""

import numpy as np
import pytest

from stepstress.model import (
    IntervalData,
    ModelParams,
    StressPlan,
    cell_probabilities,
)

# Two-level simulation design used throughout the simulation studies:
# normal-use-adjacent stresses 30 and 40, stress change at 18, termination
# at 52, inspections every 4 time units (plus the change time).
SIM_PLAN = StressPlan(
    stress_levels=[30.0, 40.0],
    change_times=[18.0, 52.0],
    inspection_times=[6, 10, 14, 18, 20, 24, 28, 32, 36, 40, 44, 48, 52],
)
SIM_THETA = ModelParams(5.3, -0.05, 1.5)


@pytest.fixture
def sim_plan():
    return SIM_PLAN


@pytest.fixture
def sim_theta():
    return SIM_THETA


def random_problem(rng, k_max=3):
    """Random (params, plan) pair with 1..k_max stress levels.

    Times and scales are matched so cell probabilities are non-degenerate
    for most draws; extreme-but-valid corners still occur.
    """
    k = int(rng.integers(1, k_max + 1))
    n_times = int(rng.integers(k + 2, k + 8))
    times = np.cumsum(rng.uniform(0.3, 1.5, n_times))
    if k > 1:
        cut_positions = np.sort(
            rng.choice(np.arange(n_times - 1), size=k - 1, replace=False)
        )
        tau = np.append(times[cut_positions], times[-1])
    else:
        tau = times[-1:]
    x = np.cumsum(rng.uniform(0.2, 1.0, k))
    plan = StressPlan(stress_levels=x, change_times=tau, inspection_times=times)
    a1 = rng.uniform(-1.2, -0.05)
    a0 = float(np.log(rng.uniform(0.3, 1.5) * times[-1]))
    eta = rng.uniform(0.6, 2.5)
    return ModelParams(a0, a1, eta), plan


def expected_count_data(params, plan, total):
    """Noise-free data: cell counts exactly proportional to the model."""
    pi = cell_probabilities(params, plan)
    return IntervalData(counts=pi * total, total=total)


def fd_cell_gradient(params, plan, step=1e-6):
    """Central finite differences of cell_probabilities in (a0, a1, eta)."""
    theta = params.as_array()
    out = np.empty((plan.n_cells, 3))
    for m in range(3):
        delta = step * (1.0 + abs(theta[m]))
        hi = theta.copy()
        lo = theta.copy()
        hi[m] += delta
        lo[m] -= delta
        pi_hi = cell_probabilities(ModelParams(*hi), plan)
        pi_lo = cell_probabilities(ModelParams(*lo), plan)
        out[:, m] = (pi_hi - pi_lo) / (2 * delta)
    return out


def exposure_cell_probabilities(theta, plan):
    """Cell probabilities re-derived from the cumulative-exposure principle.

    An oracle written apart from model.cell_probabilities: by time t a
    device has accumulated the exposure sum_i (time spent at level i) /
    alpha(x_i), with alpha(x) = exp(a0 + a1 x), and its lifetime cdf is
    1 - exp(-exposure^eta). No shift terms, no analytic gradient.
    """
    a0, a1, eta = theta
    alpha = np.exp(a0 + a1 * plan.stress_levels)
    level_start = np.concatenate([[0.0], plan.change_times[:-1]])
    time_at_level = np.clip(
        np.minimum(plan.inspection_times[:, None], plan.change_times)
        - level_start,
        0.0,
        None,
    )
    exposure = (time_at_level / alpha).sum(axis=1)
    failed = -np.expm1(-(exposure**eta))
    return np.diff(np.concatenate([[0.0], failed, [1.0]]))


# Frozen reference for the shift-term kernels, written as a loop over numpy
# scalars with a segment search on every call. model.py must reproduce it
# bit for bit; do not edit it to follow the package.


def reference_shift_terms(params, plan):
    """Scales alpha_i and the shifts h, h* from a loop over numpy scalars."""
    x = plan.stress_levels
    tau = plan.change_times
    with np.errstate(over="ignore", under="ignore"):
        alphas = np.exp(params.a0 + params.a1 * x)
    k = len(x)
    h = np.zeros(k)
    h_star = np.zeros(k)
    inv_gap = 0.0
    slope_gap = 0.0
    for i in range(1, k):
        inv_gap += (1.0 / alphas[i - 1] - 1.0 / alphas[i]) * tau[i - 1]
        slope_gap += (x[i] / alphas[i] - x[i - 1] / alphas[i - 1]) * tau[i - 1]
        h[i] = alphas[i] * inv_gap
        h_star[i] = h[i] * x[i] + alphas[i] * slope_gap
    return alphas, h, h_star


def _reference_inspection_terms(params, plan):
    alphas, h, h_star = reference_shift_terms(params, plan)
    t = plan.inspection_times
    seg = np.minimum(
        np.searchsorted(plan.change_times, t, side="left"), plan.n_levels - 1
    )
    shifted = t + h[seg]
    return seg, alphas[seg], h_star[seg], shifted, shifted / alphas[seg]


def reference_cell_probabilities(params, plan):
    """Cell probabilities from the frozen shift-term reference."""
    _, _, _, _, u = _reference_inspection_terms(params, plan)
    with np.errstate(over="ignore", under="ignore"):
        s = np.exp(-(u**params.eta))
    pi = np.empty(plan.n_cells)
    pi[0] = 1.0 - s[0]
    pi[1:-1] = s[:-1] - s[1:]
    pi[-1] = s[-1]
    return np.clip(pi, 0.0, 1.0)


def reference_gradient_matrix(params, plan):
    """The W matrix from the frozen shift-term reference."""
    seg, alpha_seg, hstar_seg, shifted, u = _reference_inspection_terms(
        params, plan
    )
    eta = params.eta
    with np.errstate(over="ignore", under="ignore"):
        dens = eta / alpha_seg * u ** (eta - 1.0) * np.exp(-(u**eta))
        log_u = np.log(u)
    z = np.empty((plan.n_inspections, 3))
    z[:, 0] = -shifted
    z[:, 1] = -shifted * plan.stress_levels[seg] + hstar_seg
    z[:, 2] = log_u * shifted / eta
    z *= dens[:, None]
    w = np.empty((plan.n_cells, 3))
    w[0] = z[0]
    w[1:-1] = z[1:] - z[:-1]
    w[-1] = -z[-1]
    return w
