"""Influence diagnostics: how one contaminated cell moves the estimate.

The influence function (IF) of the minimum density power divergence
estimator at a point mass on interval cell n is

    IF(n) = J_beta^{-1} W' D_pi^{beta-1} (e_n - pi),

the first derivative of the estimator functional along the contamination
path (1 - eps) pi + eps e_n. Because a Wald-type statistic vanishes to
first order at the null, its leading influence term is the second-order
quadratic form in IF(n). A separate probe sweeps the test plan's last
inspection time or highest stress level to exhibit the boundedness
contrast: the factor driving the IF stays bounded for beta > 0 but
diverges as the design gets more extreme when beta = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import (
    estimating_residual,
    invert_information,
    sandwich_covariance,
    sandwich_matrices,
)
from .model import IntervalData, ModelParams, StressPlan, score_rows
from .model import cell_probabilities, gradient_matrix  # noqa: F401 -- wrapped by bench/tracing.py
from .wald import Constraint


@dataclass(frozen=True)
class IFReport:
    """Influence summary for a single contaminated cell (1-based index)."""

    cell: int
    if_vector: np.ndarray
    if_wald_second_order: float | None
    ill_conditioned: bool


def _influence(
    params: ModelParams, plan: StressPlan, beta: float, cell: int
) -> tuple[np.ndarray, bool]:
    """IF at a checked 1-based cell, and whether J was pseudo-inverted.

    The score is the estimating equations evaluated at the point mass e_n.
    """
    point_mass = np.zeros(plan.n_cells)
    point_mass[cell - 1] = 1.0
    score = estimating_residual(params, plan, IntervalData(point_mass, 1), beta)
    j, _ = sandwich_matrices(params, plan, beta)
    j_inv, ill_conditioned = invert_information(j)
    return j_inv @ score, ill_conditioned


def if_mdpde(
    params: ModelParams, plan: StressPlan, beta: float, cell: int
) -> np.ndarray:
    """IF of the parameter estimate at a point mass on the given cell."""
    vector, ill_conditioned = _influence(params, plan, beta, plan.check_cell(cell))
    if ill_conditioned:
        warnings.warn(
            "information matrix is ill-conditioned; influence computed "
            "with a pseudo-inverse",
            RuntimeWarning,
            stacklevel=2,
        )
    return vector


def wald_quadratic_form(
    if_vector,
    params: ModelParams,
    plan: StressPlan,
    beta: float,
    constraint: Constraint,
    n_devices: int = 1,
) -> float:
    """Evaluate 2N (Cv)' (C Sigma C')^{-1} (Cv) at v = if_vector.

    This is the second-order influence of the Wald-type statistic seen as
    a function of the estimator's influence vector; it is a positive
    semi-definite quadratic form. Like the IF itself, it is evaluated with
    a pseudo-inverse where J is ill-conditioned; influence_report flags that.
    """
    v = np.asarray(if_vector, dtype=float).reshape(3)
    sigma = sandwich_covariance(params, plan, beta)[0]
    proj = constraint.coefficients @ v
    return max(2.0 * n_devices * float(proj @ constraint.solve(sigma, proj)), 0.0)


def if_wald(
    params_null: ModelParams,
    plan: StressPlan,
    beta: float,
    constraint: Constraint,
    cell: int,
    n_devices: int = 1,
) -> float:
    """Second-order IF of the Wald statistic at a null parameter point."""
    if np.linalg.norm(constraint.value(params_null)) > 1e-8:
        raise ValueError("params_null must satisfy the null hypothesis")
    vector = if_mdpde(params_null, plan, beta, cell)
    return wald_quadratic_form(vector, params_null, plan, beta, constraint, n_devices)


def if_wald_first_order(
    params: ModelParams,
    plan: StressPlan,
    beta: float,
    constraint: Constraint,
    cell: int,
    n_devices: int = 1,
) -> float:
    """First-order IF of the Wald statistic, 2N m' (C Sigma C')^{-1} C IF.

    Identically zero when ``params`` satisfies the null, which is why the
    second-order form in :func:`if_wald` carries the robustness analysis.
    """
    vector = if_mdpde(params, plan, beta, cell)
    m_val = constraint.value(params)
    sigma = sandwich_covariance(params, plan, beta)[0]
    proj = constraint.coefficients @ vector
    return 2.0 * n_devices * float(m_val @ constraint.solve(sigma, proj))


def influence_report(
    params: ModelParams,
    plan: StressPlan,
    beta: float,
    cell: int,
    constraint: Constraint | None = None,
    n_devices: int = 1,
) -> IFReport:
    """Bundle the parameter IF (and optionally the Wald form) for a cell."""
    cell = plan.check_cell(cell)
    vector, ill = _influence(params, plan, beta, cell)
    second = None
    if constraint is not None:
        second = wald_quadratic_form(vector, params, plan, beta, constraint, n_devices)
    return IFReport(
        cell=cell,
        if_vector=vector,
        if_wald_second_order=second,
        ill_conditioned=ill,
    )


LEVERAGE_MODES = ("inspection_time", "stress_level")


def leverage_probe(
    params: ModelParams,
    plan_template: StressPlan,
    beta: float,
    mode: str,
    grid,
) -> np.ndarray:
    """Norm of the survivor-cell IF factor as the plan grows more extreme.

    For each grid value the template plan is rebuilt with either its final
    inspection time (and the tied final stress-change time) or its highest
    stress level replaced, and the factor ||w_{L+1}|| * pi_{L+1}^(beta-1)
    is evaluated — the term whose boundedness separates beta > 0 from the
    likelihood case beta = 0. With the survivor probability exp(-u^eta) and
    its score row -hazard * exp(-u^eta) * v (:func:`~stepstress.model.score_rows`),
    the factor equals hazard * ||v|| * exp(-beta * u^eta); evaluating that
    form directly keeps the beta = 0 case exact even where the survivor
    probability itself underflows.
    """
    if mode not in LEVERAGE_MODES:
        raise ValueError(f"mode must be one of {LEVERAGE_MODES}, got {mode!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a non-empty increasing vector")

    times = plan_template.inspection_times
    changes = plan_template.change_times
    levels = plan_template.stress_levels
    if mode == "inspection_time":
        floor = times[-2] if len(times) > 1 else 0.0
        if grid[0] <= floor:
            raise ValueError(
                f"grid values must exceed the previous inspection time {floor:g}"
            )
    else:
        if len(levels) > 1 and grid[0] <= levels[-2]:
            raise ValueError(
                f"grid values must exceed the previous stress level {levels[-2]:g}"
            )

    norms = np.empty(grid.size)
    for idx, value in enumerate(grid):
        if mode == "inspection_time":
            new_times = np.append(times[:-1], value)
            new_changes = np.append(changes[:-1], value)
            plan = StressPlan(levels, new_changes, new_times)
        else:
            plan = StressPlan(np.append(levels[:-1], value), changes, times)
        v, hazard, u_eta = score_rows(params, plan)
        factor = hazard[-1] * np.linalg.norm(v[-1])
        if beta > 0.0:
            with np.errstate(over="ignore", under="ignore"):
                factor *= np.exp(-beta * u_eta[-1])
        norms[idx] = factor
    return norms
