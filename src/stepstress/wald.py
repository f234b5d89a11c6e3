"""Wald-type tests on the fitted parameters, with power approximations.

A composite null hypothesis is expressed as ``m(theta) = 0`` for a smooth
constraint function m with values in R^r (r = 1 or 2). The test statistic

    W_N = N * m(th)' [M(th)' Sigma(th) M(th)]^{-1} m(th),

with M = dm'/dtheta and Sigma the sandwich covariance of the estimator,
is asymptotically chi-squared with r degrees of freedom under the null.
Beyond the test itself, two power approximations are provided: a
fixed-alternative normal approximation, and the noncentral chi-squared
limit under local (contiguous) alternatives theta_0 + d/sqrt(N).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import chdtr, chdtri, chndtr, ndtr

from .errors import NumericError
from .estimation import FitResult, invert_information, sandwich_matrices
from .model import ModelParams, StressPlan

# rank test threshold: smallest singular value relative to the largest
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Constraint:
    """A null hypothesis m(theta) = 0 with its analytic Jacobian.

    ``jacobian`` returns the 3 x r matrix M(theta) = dm'(theta)/dtheta,
    one column per constraint component.
    """

    m: Callable[[ModelParams], np.ndarray]
    jacobian: Callable[[ModelParams], np.ndarray]
    r: int

    def __post_init__(self):
        if self.r not in (1, 2):
            raise ValueError("constraints must have 1 or 2 components")

    def value(self, params: ModelParams) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self.m(params), dtype=float))
        if out.shape != (self.r,):
            raise ValueError(
                f"constraint returned shape {out.shape}, expected ({self.r},)"
            )
        return out

    def jac(self, params: ModelParams) -> np.ndarray:
        out = np.asarray(self.jacobian(params), dtype=float)
        if out.shape != (3, self.r):
            raise ValueError(
                f"constraint Jacobian has shape {out.shape}, expected (3, {self.r})"
            )
        return out


@dataclass(frozen=True)
class TestResult:
    """Outcome of a Wald-type test."""

    statistic: float
    df: int
    p_value: float

    def reject_at(self, alpha: float) -> bool:
        """True when the statistic exceeds the upper-alpha chi2 point."""
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly in (0, 1)")
        return bool(self.statistic > chdtri(self.df, alpha))


def linear_constraint(coefficients, d=0.0) -> Constraint:
    """Constraint C theta = d, i.e. m(theta) = C theta - d.

    ``coefficients`` is a 3-vector (one linear constraint) or an (r, 3)
    array with r in {1, 2}; ``d`` broadcasts to r values.
    """
    c = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if c.shape[1] != 3 or c.shape[0] not in (1, 2):
        raise ValueError("coefficients must be a 3-vector or an (r, 3) array, r <= 2")
    rhs = np.broadcast_to(np.asarray(d, dtype=float), (c.shape[0],)).copy()
    return Constraint(
        m=lambda params: c @ params.as_array() - rhs,
        jacobian=lambda params: c.T,
        r=c.shape[0],
    )


def _sigma_at(params: ModelParams, plan: StressPlan, beta: float) -> np.ndarray:
    j, k = sandwich_matrices(params, plan, beta)
    j_inv, _ = invert_information(j)
    sigma = j_inv @ k @ j_inv
    return 0.5 * (sigma + sigma.T)


def _inner_matrix(constraint, params, sigma):
    big_m = constraint.jac(params)
    singular_values = np.linalg.svd(big_m, compute_uv=False)
    smin, smax = singular_values.min(), singular_values.max()
    if smax == 0.0 or smin < _RANK_RTOL * smax:
        raise NumericError(
            "constraint Jacobian is rank deficient at the evaluation point"
        )
    return big_m, big_m.T @ sigma @ big_m


def _solve_inner(inner: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        cond = np.linalg.cond(inner)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn(
            "constrained covariance is numerically singular; using a "
            "pseudo-inverse, the statistic may be unstable",
            RuntimeWarning,
            stacklevel=3,
        )
        return np.linalg.pinv(inner) @ rhs
    return np.linalg.solve(inner, rhs)


def wald_statistic(fit: FitResult, constraint: Constraint) -> TestResult:
    """Test m(theta) = 0 against the fitted parameters.

    Sigma is the fit's own covariance, so the test and the intervals agree.
    """
    if not fit.converged:
        raise ValueError("cannot test hypotheses on a non-converged fit")
    params = fit.params
    m_val = constraint.value(params)
    _, inner = _inner_matrix(constraint, params, fit.covariance)
    statistic = float(fit.n_devices * m_val @ _solve_inner(inner, m_val))
    statistic = max(statistic, 0.0)
    p_value = 1.0 - chdtr(constraint.r, statistic)
    return TestResult(
        statistic=statistic,
        df=constraint.r,
        p_value=float(min(max(p_value, 0.0), 1.0)),
    )


def _ell(constraint, params, inner):
    m_val = constraint.value(params)
    return float(m_val @ _solve_inner(inner, m_val))


def asymptotic_power(
    theta_star: ModelParams,
    plan: StressPlan,
    constraint: Constraint,
    beta: float,
    n_devices: int,
    alpha: float = 0.05,
) -> float:
    """Normal approximation to the rejection probability at a fixed theta*.

    Valid for alternatives off the null: m(theta*) must be nonzero.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    m_star = constraint.value(theta_star)
    if np.linalg.norm(m_star) < 1e-12:
        raise ValueError(
            "theta_star satisfies the null; the fixed-alternative "
            "approximation is undefined there"
        )
    sigma = _sigma_at(theta_star, plan, beta)
    _, inner = _inner_matrix(constraint, theta_star, sigma)

    ell_star = _ell(constraint, theta_star, inner)
    base = theta_star.as_array()
    grad = np.zeros(3)
    for i in range(3):
        step = 1e-6 * (1.0 + abs(base[i]))
        up, dn = base.copy(), base.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (
            _ell(constraint, ModelParams(*up), inner)
            - _ell(constraint, ModelParams(*dn), inner)
        ) / (2.0 * step)
    scale = float(np.sqrt(max(grad @ sigma @ grad, 0.0)))
    threshold = chdtri(constraint.r, alpha) / n_devices
    if scale == 0.0:
        return 1.0 if ell_star > threshold else 0.0
    z_arg = np.sqrt(n_devices) / scale * (threshold - ell_star)
    return float(1.0 - ndtr(z_arg))


def contiguous_power(
    theta0: ModelParams,
    plan: StressPlan,
    constraint: Constraint,
    beta: float,
    alpha: float = 0.05,
    *,
    d=None,
    delta=None,
) -> float:
    """Rejection probability under local alternatives theta0 + d/sqrt(N).

    Exactly one of ``d`` (a shift direction in parameter space, 3-vector)
    or ``delta`` (a shift of the constraint value, r-vector) must be given;
    they agree when delta = M(theta0)' d.
    """
    if (d is None) == (delta is None):
        raise ValueError("give exactly one of d or delta")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    if np.linalg.norm(constraint.value(theta0)) > 1e-8:
        raise ValueError("theta0 must satisfy the null hypothesis")
    sigma = _sigma_at(theta0, plan, beta)
    big_m, inner = _inner_matrix(constraint, theta0, sigma)
    if d is not None:
        shift = big_m.T @ np.asarray(d, dtype=float).reshape(3)
    else:
        shift = np.asarray(delta, dtype=float).reshape(constraint.r)
    ncp = float(shift @ _solve_inner(inner, shift))
    critical = chdtri(constraint.r, alpha)
    return float(1.0 - chndtr(critical, constraint.r, max(ncp, 0.0)))
