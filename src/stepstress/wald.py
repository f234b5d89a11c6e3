"""Wald-type tests on the fitted parameters, with power approximations.

A composite null hypothesis is a set of linear constraints C theta = d,
with C an r x 3 matrix of full row rank (r = 1 or 2). The test statistic

    W_N = N * (C th - d)' [C Sigma(th) C']^{-1} (C th - d),

with Sigma the sandwich covariance of the estimator, is asymptotically
chi-squared with r degrees of freedom under the null. Beyond the test
itself, two power approximations are provided: a fixed-alternative normal
approximation, and the noncentral chi-squared limit under local
(contiguous) alternatives theta_0 + d/sqrt(N).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, chdtri, chndtr, gammaln, ndtr, xlogy

from .errors import NumericError
from .estimation import FitResult, sandwich_covariance
from .estimation import sandwich_matrices  # noqa: F401 -- wrapped by bench/tracing.py
from .model import ModelParams, StressPlan

# rank test threshold: smallest singular value relative to the largest
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Constraint:
    """A null hypothesis C theta = d; build it with :func:`linear_constraint`.

    ``coefficients`` is the r x 3 matrix C, of full row rank r in {1, 2};
    ``d`` holds the r right-hand sides.
    """

    coefficients: np.ndarray
    d: np.ndarray

    @property
    def r(self) -> int:
        return self.coefficients.shape[0]

    def value(self, params: ModelParams) -> np.ndarray:
        """The constraint residual C theta - d."""
        return self.coefficients @ params.as_array() - self.d

    def solve(self, sigma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """(C Sigma C')^-1 rhs, pseudo-inverting a numerically singular C Sigma C'.

        An overflowing C Sigma C' raises NumericError. The singular-case
        RuntimeWarning names the caller of the test or power function.
        """
        c = self.coefficients
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            inner = c @ sigma @ c.T
        if not np.isfinite(inner).all():
            raise NumericError("C Sigma C' overflows; rescale the constraint")
        cond = np.linalg.cond(inner)  # inf where singular
        if not np.isfinite(cond) or cond > 1e12:
            warnings.warn(
                "constrained covariance is numerically singular; using a "
                "pseudo-inverse, the statistic may be unstable",
                RuntimeWarning,
                stacklevel=3,
            )
            return np.linalg.pinv(inner) @ rhs
        return np.linalg.solve(inner, rhs)


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
    """Constraint C theta = d.

    ``coefficients`` is a 3-vector (one linear constraint) or an (r, 3)
    array with r in {1, 2}; ``d`` broadcasts to r values. A non-finite C or
    d raises ValueError. A C without full row rank raises NumericError: the
    test would be undefined.
    """
    c = np.array(coefficients, dtype=float, ndmin=2)
    if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] not in (1, 2):
        raise ValueError("coefficients must be a 3-vector or an (r, 3) array, r <= 2")
    if not np.isfinite(c).all():
        raise ValueError("constraint coefficients must be finite")
    singular_values = np.linalg.svd(c, compute_uv=False)
    smin, smax = singular_values.min(), singular_values.max()
    if smax == 0.0 or smin < _RANK_RTOL * smax:
        raise NumericError("constraint coefficients are rank deficient")
    rhs = np.broadcast_to(np.asarray(d, dtype=float), (c.shape[0],)).copy()
    if not np.isfinite(rhs).all():
        raise ValueError("constraint right-hand side d must be finite")
    return Constraint(coefficients=c, d=rhs)


def _identified_sigma(params: ModelParams, plan: StressPlan, beta: float) -> np.ndarray:
    """Sandwich covariance at params; NumericError where J is ill-conditioned."""
    sigma, ill_conditioned = sandwich_covariance(params, plan, beta)
    if ill_conditioned:
        raise NumericError(
            "cannot approximate power at an ill-conditioned point: the "
            "parameters are not identified by this plan"
        )
    return sigma


def wald_statistic(fit: FitResult, constraint: Constraint) -> TestResult:
    """Test C theta = d against the fitted parameters.

    Sigma is the fit's own covariance, so the test and the intervals agree.
    An ill-conditioned fit is refused: its pseudo-inverted covariance gives
    the unidentified direction zero variance, which would make the
    statistic arbitrarily large. A statistic that overflows is refused too.
    """
    fit.require_usable("test hypotheses on")
    m = constraint.value(fit.params)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        statistic = float(fit.n_devices * m @ constraint.solve(fit.covariance, m))
    if not np.isfinite(statistic):
        raise NumericError("the Wald statistic overflows; rescale the constraint")
    statistic = max(statistic, 0.0)
    p_value = float(chdtrc(constraint.r, statistic))
    return TestResult(statistic=statistic, df=constraint.r, p_value=p_value)


def asymptotic_power(
    theta_star: ModelParams,
    plan: StressPlan,
    constraint: Constraint,
    beta: float,
    n_devices: int,
    alpha: float = 0.05,
) -> float:
    """Normal approximation to the rejection probability at a fixed theta*.

    Valid for alternatives off the null: C theta* - d must be nonzero. The
    statistic over N, l(theta) = m' A^{-1} m with m = C theta - d and
    A = C Sigma(theta*) C' held fixed, is approximately normal with
    gradient 2 C' A^{-1} m. An ill-conditioned J at theta* raises
    NumericError, as it does in contiguous_power.
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
    sigma = _identified_sigma(theta_star, plan, beta)
    weighted = constraint.solve(sigma, m_star)
    ell_star = float(m_star @ weighted)
    grad = 2.0 * constraint.coefficients.T @ weighted
    scale = float(np.sqrt(max(grad @ sigma @ grad, 0.0)))
    threshold = chdtri(constraint.r, alpha) / n_devices
    if scale == 0.0:
        return 1.0 if ell_star > threshold else 0.0
    z_arg = np.sqrt(n_devices) / scale * (threshold - ell_star)
    return float(ndtr(-z_arg))


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
    they agree when delta = C d.
    """
    if (d is None) == (delta is None):
        raise ValueError("give exactly one of d or delta")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    if np.linalg.norm(constraint.value(theta0)) > 1e-8:
        raise ValueError("theta0 must satisfy the null hypothesis")
    sigma = _identified_sigma(theta0, plan, beta)
    if d is not None:
        shift = constraint.coefficients @ np.asarray(d, dtype=float).reshape(3)
    else:
        shift = np.asarray(delta, dtype=float).reshape(constraint.r)
    ncp = max(float(shift @ constraint.solve(sigma, shift)), 0.0)
    critical = chdtri(constraint.r, alpha)
    power = 1.0 - chndtr(critical, constraint.r, ncp)
    if power < 0.5:  # that cancels: sum a Poisson(ncp/2) mixture of chi-square tails
        j = np.arange(int(ncp / 2 + 10.0 * np.sqrt(ncp / 2)) + 50)
        weights = np.exp(xlogy(j, ncp / 2) - ncp / 2 - gammaln(j + 1.0))
        power = weights @ chdtrc(constraint.r + 2.0 * j, critical)
    return float(power)
