"""Data-driven selection of the robustness tuning parameter.

The estimator family trades efficiency (beta = 0) against robustness
(larger beta). Following the iterated pilot-replacement scheme, each
candidate beta on a grid is scored by an estimated mean squared error

    MSE(beta) = ||theta_hat(beta) - theta_P||^2 + Tr(Sigma_beta) / N,

the squared bias against a pilot estimate theta_P plus the trace of the
asymptotic covariance. The minimizing estimate becomes the next pilot,
and the iteration stops once the winning estimate moves less than a
convergence threshold. Large selected values of beta are themselves
diagnostic: they suggest the data carry contamination.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, NumericError
from .estimation import FitConfig, FitResult, fit, fit_path
from .model import IntervalData, ModelParams, StressPlan, _integral

DEFAULT_BETA_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))


@dataclass(frozen=True)
class TuningConfig:
    """Grid, convergence rate, and optional pilot for beta selection."""

    beta_grid: tuple = DEFAULT_BETA_GRID
    epsilon: float = 1e-4
    max_rounds: int = 20
    pilot: ModelParams | None = None
    fit_config: FitConfig | None = None

    def __post_init__(self):
        grid = np.asarray(self.beta_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("beta_grid must be a non-empty vector")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("beta_grid must be strictly increasing")
        if not np.all((grid >= 0.0) & (grid <= 1.0)):
            raise ValueError("beta_grid values must lie in [0, 1]")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        max_rounds = _integral(self.max_rounds, "max_rounds must be a whole number")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        object.__setattr__(self, "max_rounds", max_rounds)
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in grid))


@dataclass(frozen=True)
class TuningResult:
    """Selected beta, the matching fit, and the final-round MSE curve."""

    beta_opt: float
    theta_opt: ModelParams
    rounds: int
    mse_curve: np.ndarray = field(repr=False)
    fit_opt: FitResult = field(repr=False)


def estimated_mse(
    fit_result: FitResult, pilot: ModelParams, n_devices: int | None = None
) -> float:
    """Squared distance to the pilot plus the covariance trace over N."""
    if not fit_result.converged:
        raise ValueError("estimated_mse requires a converged fit")
    n = fit_result.n_devices if n_devices is None else int(n_devices)
    if n <= 0:
        raise ValueError("n_devices must be positive")
    diff = fit_result.params.as_array() - pilot.as_array()
    return float(diff @ diff + np.trace(fit_result.covariance) / n)


def _pilot_coords(params: ModelParams) -> np.ndarray:
    # convergence is measured where the optimizer works: (a0, a1, log eta)
    return np.array([params.a0, params.a1, np.log(params.eta)])


def _grid_fits(
    plan: StressPlan, data: IntervalData, config: TuningConfig
) -> tuple[list[float], list[FitResult]]:
    template = config.fit_config if config.fit_config is not None else FitConfig()
    configs = [replace(template, beta=beta) for beta in config.beta_grid]
    betas, fits = [], []
    n_ill_conditioned = 0
    for beta, result in zip(config.beta_grid, fit_path(plan, data, configs, fit)):
        if isinstance(result, Exception):  # any failure just drops the point
            reason = f"failed ({result})"
        elif not result.converged:
            reason = "did not converge"
        elif result.ill_conditioned:
            # the pseudo-inverse shrinks the covariance trace such a fit is
            # scored by, so it would win the selection on a false variance
            reason = "is ill-conditioned"
            n_ill_conditioned += 1
        else:
            betas.append(beta)
            fits.append(result)
            continue
        warnings.warn(
            f"fit at beta={beta:g} {reason}; excluded from selection",
            RuntimeWarning,
            stacklevel=3,
        )
    if not fits:
        if n_ill_conditioned:
            raise NumericError(
                "every converged candidate fit is ill-conditioned; "
                "no beta can be selected"
            )
        raise ConvergenceError("no candidate beta produced a converged fit")
    return betas, fits


def select_beta(
    plan: StressPlan, data: IntervalData, config: TuningConfig | None = None
) -> TuningResult:
    """Iterated pilot-replacement selection of the tuning parameter.

    The candidate estimates depend only on the data, so they are fitted
    once, as one beta path (estimation.fit_path: min(multistart, 2) starts
    per beta after the first, the configured ones only as fallback); each
    round scores them against the current pilot, takes the minimizer (ties
    broken toward smaller beta, preferring efficiency), and either stops —
    the winner moved less than ``epsilon`` from the pilot — or promotes the
    winner to pilot and rescores.

    Candidates whose fit fails, does not converge or is ill-conditioned
    are left out, each with a RuntimeWarning. Raises NumericError when
    every converged candidate is ill-conditioned, and ConvergenceError
    when no candidate converged.
    """
    config = config if config is not None else TuningConfig()
    betas, fits = _grid_fits(plan, data, config)

    if config.pilot is not None:
        pilot = config.pilot
    else:
        # componentwise average over the candidate estimates: a neutral
        # starting point that no single beta dominates
        pilot = ModelParams(
            *np.mean([f.params.as_array() for f in fits], axis=0)
        )

    rounds = 0
    while True:
        rounds += 1
        curve = np.array([estimated_mse(f, pilot) for f in fits])
        winner = int(np.argmin(curve))  # argmin takes the first, smallest beta
        chosen = fits[winner]
        moved = np.linalg.norm(
            _pilot_coords(chosen.params) - _pilot_coords(pilot)
        )
        if moved <= config.epsilon:
            break
        if rounds >= config.max_rounds:
            warnings.warn(
                f"tuning did not stabilize within {config.max_rounds} rounds; "
                "returning the current selection",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        pilot = chosen.params

    return TuningResult(
        beta_opt=betas[winner],
        theta_opt=chosen.params,
        rounds=rounds,
        mse_curve=np.column_stack([betas, curve]),
        fit_opt=chosen,
    )
