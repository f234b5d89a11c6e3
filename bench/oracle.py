"""Independent reference computations for the benchmark's output checks.

Nothing here calls ``stepstress``. The cell probabilities come from the
cumulative-exposure principle written out directly: by time t a device has
accumulated the exposure sum_i (time spent at level i) / alpha(x_i), with
alpha(x) = exp(a0 + a1 x), and its lifetime cdf is 1 - exp(-exposure^eta).
There are no shift terms and no analytic gradient; the gradient W of the
cell probabilities is taken by central differences.

A plan is any object with ``stress_levels``, ``change_times`` and
``inspection_times`` arrays.
"""

from __future__ import annotations

import numpy as np

# relative central-difference step: its truncation error (~h^2) and its
# rounding error (~eps/h) are both near 1e-12 for these smooth functions
_STEP = 1e-6


def cell_probabilities(theta, plan) -> np.ndarray:
    """Probability of each inspection cell, the survivor cell last."""
    a0, a1, eta = (float(v) for v in theta)
    levels = np.asarray(plan.stress_levels, dtype=float)
    changes = np.asarray(plan.change_times, dtype=float)
    times = np.asarray(plan.inspection_times, dtype=float)
    alpha = np.exp(a0 + a1 * levels)
    level_start = np.concatenate([[0.0], changes[:-1]])
    time_at_level = np.clip(
        np.minimum(times[:, None], changes[None, :]) - level_start[None, :],
        0.0,
        None,
    )
    exposure = (time_at_level / alpha).sum(axis=1)
    failed = -np.expm1(-(exposure**eta))
    return np.diff(np.concatenate([[0.0], failed, [1.0]]))


def _central_gradient(func, theta) -> np.ndarray:
    """d func / d theta by central differences; func may be vector-valued."""
    theta = np.asarray(theta, dtype=float)
    columns = []
    for i in range(theta.size):
        step = _STEP * (1.0 + abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        columns.append((np.asarray(func(up)) - np.asarray(func(down))) / (2.0 * step))
    return np.stack(columns, axis=-1)


def gradient_matrix(theta, plan) -> np.ndarray:
    """W[j, i] = d pi_j / d theta_i, shape (cells, 3)."""
    return _central_gradient(lambda th: cell_probabilities(th, plan), theta)


def dpd_objective(theta, plan, proportions, beta: float) -> float:
    """The DPD objective in theta; at beta = 0 the negative mean log-likelihood.

    Terms that do not depend on theta are dropped, so only its gradient is
    meaningful.
    """
    p = np.asarray(proportions, dtype=float)
    pi = cell_probabilities(theta, plan)
    if beta == 0.0:
        mask = p > 0
        return float(-np.sum(p[mask] * np.log(pi[mask])))
    return float(np.sum(pi ** (1.0 + beta)) - (1.0 + 1.0 / beta) * np.sum(p * pi**beta))


def objective_gradient(theta, plan, proportions, beta: float) -> np.ndarray:
    """Gradient of :func:`dpd_objective`; zero at the estimate."""
    return _central_gradient(
        lambda th: dpd_objective(th, plan, proportions, beta), theta
    )


def sandwich(theta, plan, beta: float) -> np.ndarray:
    """Per-device asymptotic covariance J^-1 K J^-1 of the estimator at theta.

    J = W' D_pi^(beta-1) W and K = W' D_pi^(2 beta-1) W - xi xi' with
    xi = W' pi^beta, all built from this module's pi and W.
    """
    pi = cell_probabilities(theta, plan)
    w = gradient_matrix(theta, plan)
    j = (w.T * pi ** (beta - 1.0)) @ w
    xi = w.T @ pi**beta
    k = (w.T * pi ** (2.0 * beta - 1.0)) @ w - np.outer(xi, xi)
    j_inv = np.linalg.inv(j)
    return j_inv @ k @ j_inv


def asymptotic_rmse(theta, plan, beta: float, n_devices: int) -> float:
    """sqrt(E||theta_hat - theta||^2) to first order: sqrt(tr(Sigma) / N)."""
    return float(np.sqrt(np.trace(sandwich(theta, plan, beta)) / n_devices))
