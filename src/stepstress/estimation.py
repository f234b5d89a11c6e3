"""Minimum density power divergence estimation for interval count data.

The estimator minimizes the density power divergence between the observed
cell proportions and the model cell probabilities; the tuning parameter
beta >= 0 trades efficiency against robustness and beta = 0 recovers the
maximum likelihood estimator (the divergence limit is Kullback-Leibler).
Asymptotic covariances come from the sandwich form J^-1 K J^-1 built out of
the analytic cell-probability gradient; all covariances in this package are
per observation, so Var(theta_hat) is approximately covariance / N.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import optimize

from .errors import DataError, NumericError
from .model import (
    IntervalData,
    ModelParams,
    ParameterSpaceWarning,
    StressPlan,
    _integral,
    cell_probabilities,
    gradient_matrix,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "dpd_loss",
    "estimating_residual",
    "fit",
    "fit_path",
    "fit_proportions",
    "invert_information",
    "sandwich_covariance",
    "sandwich_matrices",
    "CONDITION_LIMIT",
    "PROBABILITY_FLOOR",
]

# Model cell probabilities are clamped to at least this before being raised
# to the exponent beta - 1 (negative for beta < 1) or logged.
PROBABILITY_FLOOR = 1e-12

_INFEASIBLE = 1e12

# Solver settings: iteration cap of L-BFGS-B and of the Newton polish per
# start, estimating-equation norm below which a fit counts as converged,
# and relative step length at which the polish stops.
_MAX_ITERS = 500
_GRAD_TOL = 1e-8
_PARAM_TOL = 1e-10
# L-BFGS-B stops at these relative-decrease and projected-gradient tolerances.
# It only has to reach the basin of the Newton polish, which then solves the
# estimating equations to rounding level with their exact Jacobian; the polished
# point still has to meet _GRAD_TOL for the fit to count as converged.
_LBFGS_FTOL = 1e-10
_LBFGS_GTOL = 1e-7

# Above this condition number the J matrix is pseudo-inverted and the fit
# flagged ill-conditioned.
CONDITION_LIMIT = 1e12

# Betas this small are evaluated in the KL limit: the O(beta) gap to it is
# far below double precision, while beta * log(p/pi) could already be a
# subnormal number that has lost its significant digits.
_KL_LIMIT_BETA = 1e-200


@dataclass(frozen=True)
class FitConfig:
    """Settings for one MDPDE fit.

    Attributes:
        beta: tuning parameter; 0 gives the MLE.
        multistart: number of starting points (first is the data-driven
            pilot, the rest are deterministic perturbations of it).
    """

    beta: float = 0.0
    multistart: int = 5

    def __post_init__(self):
        if not 0.0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and >= 0")
        multistart = _integral(self.multistart, "multistart must be a whole number")
        if multistart <= 0:
            raise ValueError("multistart must be positive")
        object.__setattr__(self, "multistart", multistart)


@dataclass(frozen=True)
class FitResult:
    """Fitted MDPDE with its asymptotic covariance.

    covariance is the per-observation sandwich J^-1 K J^-1 evaluated at the
    estimate; divide by n_devices for the variance of theta_hat.
    ill_conditioned is set when the J matrix had to be pseudo-inverted
    (condition number beyond CONDITION_LIMIT). The pseudo-inverse gives the
    unidentified direction zero variance, so intervals and tests from such
    a fit would be falsely sharp; see require_usable. start_objectives has
    the final objective of each start tried, inf where it did not converge.
    """

    params: ModelParams
    beta: float
    covariance: np.ndarray
    objective: float
    converged: bool
    grad_norm: float
    n_devices: int
    ill_conditioned: bool = False
    start_objectives: tuple = ()

    def require_usable(self, action: str) -> None:
        """Refuse to back intervals or tests with a fit that cannot carry them.

        ``action`` completes the message, as in "build intervals from". A
        non-converged fit raises ValueError; an ill-conditioned one raises
        NumericError, because its covariance is falsely sharp.
        """
        if not self.converged:
            raise ValueError(f"cannot {action} a non-converged fit")
        if self.ill_conditioned:
            raise NumericError(
                f"cannot {action} an ill-conditioned fit: the "
                "parameters are not identified by these data"
            )

    @property
    def standard_errors(self) -> np.ndarray:
        """Standard errors of (a0, a1, eta): sqrt(diag(covariance)/n)."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None) / self.n_devices)

    @property
    def weakly_identified(self) -> bool:
        """True when some standard error exceeds the estimate it belongs to.

        A relative standard error above 1 means the corresponding confidence
        interval is wider than the parameter is large — the information
        matrix is nearly flat in some direction and interval estimates are
        uninformative, even when the matrix is still formally invertible.
        """
        if self.ill_conditioned:
            return True
        scale = np.maximum(np.abs(self.params.as_array()), 1e-8)
        return bool(np.any(self.standard_errors > scale))


def dpd_loss(p_hat, pi, beta: float) -> float:
    """Density power divergence between cell proportions and model cells.

    For beta > 0 this is sum(pi^(1+b) - (1 + 1/b) p pi^b + (1/b) p^(1+b));
    at beta = 0 it is the Kullback-Leibler divergence sum(p log(p/pi)) with
    0 log 0 = 0. The sum is evaluated in the algebraically equal form
    sum((pi - p) pi^b) + sum_{p>0} p pi^b expm1(b log(p/pi)) / b, whose
    1/beta terms do not cancel, so it stays accurate for every small beta
    and tends continuously to its beta = 0 value sum(pi - p) +
    sum(p log(p/pi)), the KL divergence for probability vectors. Model
    probabilities are floored at PROBABILITY_FLOOR.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    p = np.asarray(p_hat, dtype=float)
    q = np.asarray(pi, dtype=float)
    if p.shape != q.shape:
        raise ValueError("probability vectors must have the same length")
    q = np.maximum(q, PROBABILITY_FLOOR)
    mask = p > 0
    log_ratio = np.log(p[mask] / q[mask])
    if beta < _KL_LIMIT_BETA:
        return float(np.sum(q - p) + np.sum(p[mask] * log_ratio))
    q_beta = q**beta
    if beta < 25.0:  # where a floored pi^b is still a normal number
        terms = p[mask] * q_beta[mask] * (np.expm1(beta * log_ratio) / beta)
    else:  # the same terms, without the pi^b that underflows where expm1 overflows
        big = np.maximum(p[mask], q[mask]) ** beta * np.sign(log_ratio)
        terms = p[mask] * big * -np.expm1(-beta * np.abs(log_ratio)) / beta
    return float(np.sum((q - p) * q_beta) + np.sum(terms))


def estimating_residual(
    params: ModelParams, plan: StressPlan, data: IntervalData, beta: float
) -> np.ndarray:
    """Value of the MDPDE estimating equations W' D_pi^(beta-1) (p_hat - pi).

    Zero at the estimate; proportional to the DPD gradient in theta with
    factor -(beta + 1).
    """
    data.validate_against(plan)
    return _residual(*_cells(params, plan), data.proportions, beta)


def _cells(params: ModelParams, plan: StressPlan, curvature: bool = False) -> tuple:
    """Floored cell probabilities pi and gradient_matrix(params, plan, curvature)."""
    pi = np.maximum(cell_probabilities(params, plan), PROBABILITY_FLOOR)
    return pi, gradient_matrix(params, plan, curvature)


def _residual(pi, w, p_hat, beta: float) -> np.ndarray:
    """The estimating-equation residual W' D_pi^(beta-1) (p_hat - pi)."""
    return w.T @ (pi ** (beta - 1.0) * (p_hat - pi))


def sandwich_matrices(
    params: ModelParams, plan: StressPlan, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The J and K matrices of the per-observation sandwich covariance.

    J = W' D_pi^(beta-1) W and K = W' (D_pi^(2 beta - 1) - pi^b pi^b') W;
    at beta = 0 both reduce to the Fisher information of the multinomial
    model, so the sandwich collapses to the inverse information.
    """
    return _j_and_k(*_cells(params, plan), beta)


def _j_and_k(pi, w, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """J and K of sandwich_matrices from the floored pi and W."""
    j = (w.T * pi ** (beta - 1.0)) @ w
    s = w.T @ (pi**beta)
    k = (w.T * pi ** (2.0 * beta - 1.0)) @ w - np.outer(s, s)
    return 0.5 * (j + j.T), 0.5 * (k + k.T)


def sandwich_covariance(
    params: ModelParams, plan: StressPlan, beta: float
) -> tuple[np.ndarray, bool]:
    """The symmetrized per-observation covariance J^-1 K J^-1 at params.

    Returns (covariance, ill_conditioned), the flag as invert_information
    sets it. Power approximations and influence forms call it; a fit builds
    the same matrices from the pi and W it holds at its estimate.
    """
    return _covariance(*sandwich_matrices(params, plan, beta))


def _covariance(j: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, bool]:
    """(J^-1 K J^-1 symmetrized, ill_conditioned) of sandwich_covariance."""
    j_inv, ill_conditioned = invert_information(j)
    covariance = j_inv @ k @ j_inv
    return 0.5 * (covariance + covariance.T), ill_conditioned


def invert_information(j: np.ndarray) -> tuple[np.ndarray, bool]:
    """Inverse of the J matrix, or its pseudo-inverse when J is ill-conditioned.

    Returns (j_inv, ill_conditioned). Up to a condition number of
    CONDITION_LIMIT this is the plain inverse; beyond it, the Moore-Penrose
    pseudo-inverse of the symmetrized J, which treats eigenvalues below
    1 / CONDITION_LIMIT of the largest as exact zeros. Every covariance,
    Wald test and influence function in the package inverts J here.
    """
    j = np.asarray(j, dtype=float)
    if not np.all(np.isfinite(j)):
        raise NumericError("information matrix has non-finite entries")
    if np.linalg.cond(j) <= CONDITION_LIMIT:
        return np.linalg.inv(j), False
    sym = 0.5 * (j + j.T)
    return np.linalg.pinv(sym, rcond=1.0 / CONDITION_LIMIT, hermitian=True), True


@functools.cache
def _scipy_openblas_threads():
    """(get_num_threads, set_num_threads) of the OpenBLAS in scipy's wheel, or None.

    scipy's L-BFGS-B runs its tiny dense algebra on that library, which
    otherwise wakes a spinning worker thread on every call and keeps a
    second core busy for no speed-up. Wheels put the library in
    ``scipy.libs/`` (Linux, Windows) or ``scipy/.dylibs/`` (macOS); it is
    looked up on the first fit, not at import. Builds against any other
    BLAS have no such library.
    """
    package = Path(scipy.__file__).resolve().parent
    for folder in (package.parent / "scipy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = lib.scipy_openblas_get_num_threads
                set_ = lib.scipy_openblas_set_num_threads
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _ScipyBlasThreads:
    """Thread count of scipy's OpenBLAS, shared by every fit in the process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    @contextmanager
    def single(self):
        """Run the block with one OpenBLAS thread, then restore the caller's count.

        Nested and concurrent blocks share one saved count, restored when
        the last of them exits. Without scipy's OpenBLAS this does nothing.
        Results do not depend on the thread count, only the CPU time spent
        reaching them.
        """
        functions = _scipy_openblas_threads()
        if functions is None:
            yield
            return
        get, set_ = functions
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                set_(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    set_(self._saved)


_SCIPY_BLAS = _ScipyBlasThreads()


def _pilot_start(plan: StressPlan, p_hat: np.ndarray) -> np.ndarray:
    """Data-driven start: least squares on the unit-shape cumulative hazard.

    With eta = 1 and shifts ignored, -log(1 - G(t_j)) is roughly
    t_j * exp(-(a0 + a1 x_i)), so regressing log cumulative hazard minus
    log time on (1, stress) recovers starting values for -(a0, a1); eta
    starts at 1.
    """
    g_hat = np.cumsum(p_hat[:-1])
    t = plan.inspection_times
    x = plan.inspection_levels
    mask = (g_hat > 1e-9) & (g_hat < 1 - 1e-9)
    y = np.log(-np.log1p(-g_hat[mask])) - np.log(t[mask])
    if mask.sum() >= 2 and len(np.unique(x[mask])) >= 2:
        design = np.column_stack([np.ones(mask.sum()), x[mask]])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return np.array([-coef[0], -coef[1], 0.0])
    if mask.sum() >= 1:
        return np.array([-float(np.mean(y)), 0.0, 0.0])
    return np.array([np.log(t[-1]), 0.0, 0.0])


def _starting_points(plan: StressPlan, p_hat, count: int):
    """The data-driven pilot and count - 1 random perturbations of it (no generator for 1)."""
    centre = _pilot_start(plan, p_hat)
    starts = [centre]
    if count > 1:
        rng = np.random.default_rng(1729)
        a1_scale = 0.3 * (abs(centre[1]) + 0.05)
        while len(starts) < count:
            step = [rng.normal(0.0, 0.5), rng.normal(0.0, a1_scale), rng.normal(0.0, 0.4)]
            starts.append(centre + np.array(step))
    return starts


def fit(
    plan: StressPlan, data: IntervalData, config: FitConfig | None = None, *, starts=None
) -> FitResult:
    """Fit the MDPDE for the configured beta on count data; starts as in fit_proportions."""
    config = config or FitConfig()
    data.validate_against(plan)
    if np.count_nonzero(data.counts) < 2:
        raise DataError("degenerate data: all observed mass in a single cell")
    return fit_proportions(plan, data.proportions, data.total, config, starts=starts)


def fit_path(plan: StressPlan, data: IntervalData, configs, fit=fit) -> list:
    """Fit the data at each config in turn, walking along their betas.

    Once the path holds a converged, well-conditioned estimate, a config
    starts from the first ``multistart`` of (the latest such estimate, the
    data-driven pilot), so each later beta costs min(multistart, 2) starts;
    the pilot is computed once, and only if a config takes it. A config
    gets its configured starts instead unless that fit is converged and
    well-conditioned, with no start converging 1e-10 relative higher.
    Returns, per config, its FitResult or the exception its fit raised.
    Callers pass their own ``fit``, so that a stub or wrapper there sees every fit.
    """

    def attempt(config, **starts):
        try:
            return fit(plan, data, config, **starts)
        except Exception as exc:  # noqa: BLE001 - the caller decides what a failure means
            return exc

    def usable(result) -> bool:
        return isinstance(result, FitResult) and result.converged and not result.ill_conditioned

    results, estimate, pilot = [], None, None
    for config in configs:
        if estimate is not None and config.multistart > 1:  # once, from data a fit accepted
            pilot = pilot or ModelParams(*_pilot_start(plan, data.proportions)[:2], 1.0)
        warm = () if estimate is None else (estimate, pilot)[: config.multistart]
        result = attempt(config, starts=warm) if warm else None
        if not (usable(result) and max(v for v in result.start_objectives if v < np.inf)
                <= result.objective + 1e-10 * abs(result.objective)):
            result = attempt(config)
        if usable(result):
            estimate = result.params
        results.append(result)
    return results


def fit_proportions(
    plan: StressPlan,
    p_hat,
    n_devices: int,
    config: FitConfig | None = None,
    *,
    starts: tuple[ModelParams, ...] | None = None,
) -> FitResult:
    """Fit the MDPDE directly on a cell-proportion vector.

    The workhorse behind fit; also the entry point for idealized inputs
    such as exact model probabilities or contaminated mixtures, where the
    proportions do not come from integer counts. An estimate with a1 >= 0
    is returned with a ParameterSpaceWarning.

    The optimizer runs from the data-driven pilot and multistart - 1
    perturbations of it, or from exactly the given ``starts``, such as the
    estimate at a neighbouring beta, and keeps the lowest objective.
    NumericError is raised when no start reaches a feasible point.
    """
    config = config or FitConfig()
    p_hat = np.asarray(p_hat, dtype=float)
    if p_hat.shape != (plan.n_cells,):
        raise ValueError(f"p_hat must have length {plan.n_cells}")
    if np.any(p_hat < 0) or abs(p_hat.sum() - 1.0) > 1e-9:
        raise ValueError("p_hat must be a probability vector")
    n_devices = _integral(n_devices, "n_devices must be a whole number")
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    beta = config.beta
    # Each start's L-BFGS-B works in v = L'(u - start), with L L' the DPD Hessian in u
    # at the start, which is the identity in v there. Where that Hessian is not
    # positive definite, v = (a0 + c a1, d a1, log eta), c the mean and d the range
    # of the stress levels: this takes out the near-collinearity of a0 and a1 far
    # from stress 0. Polish and result stay in u.
    c = float(np.mean(plan.stress_levels))
    d = float(np.ptp(plan.stress_levels)) or 1.0
    v_of_centred = np.array([[1.0, c, 0.0], [0.0, d, 0.0], [0.0, 0.0, 1.0]])
    u_of_centred = np.array([[1.0, -c / d, 0.0], [0.0, 1.0 / d, 0.0], [0.0, 0.0, 1.0]])
    memo = {}

    def evaluate(u: np.ndarray) -> tuple | None:
        # (params, pi, W, residual, W's curvature contraction) at u = (a0, a1, log eta),
        # kept for every (a0, a1, eta) the solvers or the covariance ask for again;
        # None where the model or the residual in u, r * [1, 1, eta], is not finite.
        key = (float(u[0]), float(u[1]), float(np.exp(u[2])))
        if key not in memo:
            try:  # ModelParams refuses an eta that overflowed or vanished
                params = ModelParams(*key)
                pi, (w, contract) = _cells(params, plan, curvature=True)
            except (ValueError, NumericError):
                memo[key] = None
            else:
                residual = _residual(pi, w, p_hat, beta)
                finite = np.all(np.isfinite(residual * [1.0, 1.0, params.eta]))
                memo[key] = (params, pi, w, residual, contract) if finite else None
        return memo[key]

    def value_and_grad(u: np.ndarray) -> tuple[float, np.ndarray]:
        cells = evaluate(u)
        if cells is not None:
            params, pi, _, residual, _ = cells
            value = dpd_loss(p_hat, pi, beta)
            if np.isfinite(value):  # eta: the chain rule for the log-eta coordinate
                return value, (-(beta + 1.0) * residual) * [1.0, 1.0, params.eta]
        return _INFEASIBLE, np.zeros(3)

    def value_and_grad_v(v: np.ndarray, origin, u_of_v) -> tuple[float, np.ndarray]:
        value, grad = value_and_grad(origin + u_of_v @ v)
        return value, u_of_v.T @ grad  # the gradient maps by the transpose

    def derivatives(u: np.ndarray) -> tuple | None:
        # (r, dr/dw, DPD Hessian in u) at u, or None. With q = pi^(beta-1) (p_hat - pi),
        # J = dr/dtheta = sum_c q_c d2 pi_c + W' diag(dq/dpi) W; the Hessian in u is
        # -(beta + 1) (S J S + diag(0, 0, eta r_eta)), S = diag(1, 1, eta), and the polish
        # works in w = (eta a0, eta a1, eta), where weakly identified valleys are straighter
        cells = evaluate(u)
        if cells is None:
            return None
        params, pi, w, r, contract = cells
        a0, a1, eta = params.a0, params.a1, params.eta
        dq = pi ** (beta - 2.0) * ((beta - 1.0) * (p_hat - pi) - pi)
        jac = contract(pi ** (beta - 1.0) * (p_hat - pi)) + (w.T * dq) @ w
        s = np.array([1.0, 1.0, eta])
        hessian = -(beta + 1.0) * (jac * np.outer(s, s) + np.diag([0.0, 0.0, eta * r[2]]))
        jac_w = jac @ np.array([[1 / eta, 0.0, -a0 / eta], [0.0, 1 / eta, -a1 / eta], [0, 0, 1]])
        return (r, jac_w, hessian) if np.all(np.isfinite(jac)) else None

    def frame(start: np.ndarray) -> tuple:
        # (origin, u_of_v, v at the start) of the start's coordinates, above
        terms = derivatives(start)
        if terms is not None:
            try:
                return start, np.linalg.inv(np.linalg.cholesky(terms[2]).T), np.zeros(3)
            except np.linalg.LinAlgError:
                pass
        return np.zeros(3), u_of_centred, v_of_centred @ start

    def polish(u: np.ndarray, value: float) -> tuple[float, np.ndarray]:
        # Newton on the estimating equations in w with their exact Jacobian J, damped
        # as in Levenberg-Marquardt, (J'J + mu diag(J'J)) step = -J'r, once a plain
        # Newton step (mu = 0) fails. A step is kept only if it is shorter than 1 and
        # lowers |r|; mu then follows Nielsen's rule and returns to 0 below 1e-15. The
        # polish ends after a refused or undamped step below _PARAM_TOL, and its point
        # replaces u unless the objective rose by more than 1e-12 (1 + |value|).
        polished, x, terms = u, np.exp(u[2]) * np.array([u[0], u[1], 1.0]), derivatives(u)
        mu, growth = 0.0, 2.0
        for _ in range(_MAX_ITERS):
            if terms is None:
                break
            r, jac, _ = terms
            jtj = jac.T @ jac
            try:
                step = np.linalg.solve(jac, -r) if mu == 0.0 else np.linalg.solve(
                    jtj + mu * np.diag(np.diag(jtj)), -jac.T @ r)
            except np.linalg.LinAlgError:
                step = np.full(3, np.inf)
            size, trial_x = np.linalg.norm(step), x + step
            trial = np.array([trial_x[0] / trial_x[2], trial_x[1] / trial_x[2], np.log(trial_x[2])])
            cells = evaluate(trial) if size < 1.0 else None
            norm, trial_norm = np.linalg.norm(r), np.linalg.norm(cells[3]) if cells else np.inf
            done = size <= _PARAM_TOL * (1.0 + np.linalg.norm(trial_x)) and (
                mu == 0.0 or trial_norm >= norm)
            if trial_norm < norm:
                gain = (norm**2 - trial_norm**2) / (norm**2 - np.linalg.norm(r + jac @ step) ** 2)
                mu, growth = mu * max(1 / 3, 1 - (2 * gain - 1) ** 3), 2.0
                mu = mu if mu > 1e-15 else 0.0
                polished, x, terms = trial, trial_x, None if done else derivatives(trial)
            else:
                mu, growth = mu * growth if mu else 1e-3, 2 * growth
            if done:
                break
        polished_value = value_and_grad(polished)[0] if polished is not u else np.inf
        return (polished_value, polished) if polished_value <= value + 1e-12 * (
            1 + abs(value)) else (value, u)

    def attempt(start):
        origin, u_of_v, v_start = frame(start)
        try:
            opt = optimize.minimize(
                value_and_grad_v,
                v_start,
                args=(origin, u_of_v),
                jac=True,
                method="L-BFGS-B",
                options=dict(maxiter=_MAX_ITERS, ftol=_LBFGS_FTOL, gtol=_LBFGS_GTOL, maxls=60),
            )
        except ValueError:
            return None
        return polish(origin + u_of_v @ opt.x, float(opt.fun))

    points = _starting_points(plan, p_hat, config.multistart) if starts is None else [
        np.array([s.a0, s.a1, np.log(s.eta)]) for s in starts
    ]
    with _SCIPY_BLAS.single(), np.errstate(all="ignore"):
        outcomes = [attempt(point) or (_INFEASIBLE, None) for point in points]
    best_value, best_u = min(outcomes, key=lambda outcome: outcome[0])
    if best_value >= _INFEASIBLE:
        raise NumericError("all optimizer starts were infeasible")

    params, pi, w, residual, _ = evaluate(best_u)  # feasible: it scored below _INFEASIBLE
    if params.a1 >= 0:
        warnings.warn(
            "a1 >= 0: lifetimes do not shorten with stress",
            ParameterSpaceWarning,
            stacklevel=2,
        )
    grad_norm = float(np.linalg.norm(residual))
    covariance, ill_conditioned = _covariance(*_j_and_k(pi, w, beta))
    return FitResult(
        params=params,
        beta=beta,
        covariance=covariance,
        objective=float(best_value),
        converged=grad_norm <= _GRAD_TOL,
        grad_norm=grad_norm,
        n_devices=n_devices,
        ill_conditioned=ill_conditioned,
        start_objectives=tuple(
            value if value < _INFEASIBLE and np.linalg.norm(evaluate(u)[3]) <= _GRAD_TOL
            else np.inf
            for value, u in outcomes
        ),
    )
