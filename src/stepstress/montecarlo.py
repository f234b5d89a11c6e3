"""Replicated simulation studies: data generation, contamination, metrics.

A scenario draws multinomial interval counts from a (possibly
cell-contaminated) step-stress model, fits the estimator family across a
beta grid on every replication, and aggregates per-beta metrics:

* RMSE of the parameter estimates (per component and overall Euclidean);
* MSE of the reliability at a reference time and of the mean lifetime,
  both under a normal-use stress level;
* empirical coverage of the direct and transformed confidence intervals
  for those two characteristics;
* empirical rejection rate of the Wald test of the stress slope, reported
  as level when the generating slope satisfies the null and as power
  otherwise (the other column is NaN).

Each replication derives its random stream from (seed, replication
index), so serial and parallel runs produce byte-identical tables.
Replications whose fit fails are excluded and counted; a per-beta failure
rate above 5% flags the row as unreliable.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from configparser import ConfigParser, Error as ConfigError
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .datasets import parse_numbers, read_bundled_or_file
from .errors import DataError, StepStressError
from .estimation import FitConfig, fit_path, fit_proportions
from .lifetime import characteristic_ci, mean_lifetime, reliability
from .model import IntervalData, ModelParams, StressPlan, _integral, cell_probabilities
from .wald import linear_constraint, wald_statistic

FAILURE_RATE_LIMIT = 0.05

#: names accepted by load_scenario in place of a file path
BUNDLED_SCENARIOS = (
    "clean",
    "contaminated_a0",
    "contaminated_a1",
    "contaminated_eta",
    "power_a1",
)

#: CSV column order; every metric column is followed by its Monte Carlo
#: standard error column ("*_se") where one is defined.
METRIC_COLUMNS = (
    "beta",
    "n_used",
    "n_failed",
    "failure_rate",
    "unreliable",
    "rmse_a0",
    "rmse_a1",
    "rmse_eta",
    "rmse_overall",
    "rmse_overall_se",
    "mse_reliability",
    "mse_reliability_se",
    "mse_mean",
    "mse_mean_se",
    "coverage_reliability_direct",
    "coverage_reliability_direct_se",
    "coverage_reliability_transformed",
    "coverage_reliability_transformed_se",
    "coverage_mean_direct",
    "coverage_mean_direct_se",
    "coverage_mean_transformed",
    "coverage_mean_transformed_se",
    "level",
    "level_se",
    "power",
    "power_se",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario: design, truth, contamination, run size."""

    plan: StressPlan
    theta_true: ModelParams
    replications: int
    seed: int
    n_devices: int = 200
    beta_grid: tuple = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    theta_tilde: ModelParams | None = None
    contaminated_cell: int | None = None
    null_slope: float = -0.05
    x0: float = 20.0
    t_eval: float = 40.0

    def __post_init__(self):
        for name in ("replications", "n_devices", "seed"):
            value = _integral(getattr(self, name), f"{name} must be a whole number")
            object.__setattr__(self, name, value)
        for name in ("replications", "n_devices"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if (self.theta_tilde is None) != (self.contaminated_cell is None):
            raise ValueError(
                "theta_tilde and contaminated_cell must be given together"
            )
        if self.contaminated_cell is not None:
            self.plan.check_cell(self.contaminated_cell)
        for name in ("x0", "null_slope"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.t_eval < np.inf:
            raise ValueError(
                f"evaluation time t must be positive and finite, got {self.t_eval}"
            )
        grid = tuple(float(b) for b in np.atleast_1d(self.beta_grid))
        if not grid or not all(0.0 <= b < np.inf for b in grid):
            raise ValueError(
                "beta_grid must be non-empty; each beta must be finite and >= 0"
            )
        object.__setattr__(self, "beta_grid", grid)

    @property
    def is_null_scenario(self) -> bool:
        """Whether the generating slope satisfies the tested null."""
        return self.theta_true.a1 == self.null_slope

    def generating_probabilities(self) -> np.ndarray:
        """Cell probabilities the replications draw from."""
        pi = cell_probabilities(self.theta_true, self.plan)
        if self.theta_tilde is None:
            return pi
        return contaminate(
            pi, self.theta_tilde, self.plan, self.contaminated_cell
        )


@dataclass(frozen=True)
class MetricsTable:
    """Per-beta metric rows in the fixed METRIC_COLUMNS order."""

    columns: ClassVar[tuple] = METRIC_COLUMNS
    rows: np.ndarray = field(repr=False)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def row(self, beta: float) -> dict:
        idx = np.nonzero(np.isclose(self.column("beta"), beta))[0]
        if idx.size == 0:
            raise KeyError(f"no row for beta={beta}")
        return dict(zip(self.columns, self.rows[idx[0]]))

    def to_csv(self) -> str:
        return format_csv(self.columns, self.rows)


def format_csv(columns, rows) -> str:
    """The column line, then each row as ``repr(float)`` values: full precision."""
    lines = [",".join(columns)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def contaminate(
    pi: np.ndarray, params_tilde: ModelParams, plan: StressPlan, cell: int
) -> np.ndarray:
    """Replace one cell's mass with its value under a perturbed parameter.

    The contaminated cell probability is the failure mass the perturbed
    model puts on the same inspection interval; the full vector is then
    renormalized to sum to one.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (plan.n_cells,):
        raise DataError(
            f"pi has {pi.shape} cells, plan implies ({plan.n_cells},)"
        )
    cell = plan.check_cell(cell)
    if not 2 <= cell <= plan.n_cells - 1:
        warnings.warn(
            "contaminating a boundary cell (first or survivor); the usual "
            "studies perturb interior inspection intervals",
            UserWarning,
            stacklevel=2,
        )
    out = pi.copy()
    out[cell - 1] = cell_probabilities(params_tilde, plan)[cell - 1]
    total = out.sum()
    if np.any(out < 0.0) or not total > 0.0:
        raise DataError("pi must be non-negative with positive total mass")
    return out / total


def simulate_counts(pi: np.ndarray, n_devices: int, rng) -> IntervalData:
    """One multinomial draw of the interval counts."""
    pi = np.asarray(pi, dtype=float)
    return IntervalData(rng.multinomial(n_devices, pi), n_devices)


#: one replication's outcome at one beta; ``ok`` stays False when the fit
#: fails. Each ``*_ci`` field holds the direct, then the transformed interval.
_RECORD = np.dtype([
    ("ok", bool),
    ("theta", float, 3),
    ("reliability", float),
    ("reliability_ci", float, (2, 2)),
    ("mean", float),
    ("mean_ci", float, (2, 2)),
    ("reject", bool),
])


def _replicate(spec: ScenarioSpec, pi_gen: np.ndarray, rep: int) -> np.ndarray:
    """Fit every beta on one replication; one _RECORD per beta.

    The grid is one estimation.fit_path at multistart = 1, so each beta
    after the first starts from this replication's latest usable estimate
    alone, with the data-driven pilot as fallback. A beta is left out when
    a StepStressError or a non-converged fit stops it.
    """
    rng = np.random.default_rng([spec.seed, rep])
    data = simulate_counts(pi_gen, spec.n_devices, rng)
    constraint = linear_constraint([0.0, 1.0, 0.0], spec.null_slope)
    configs = [FitConfig(beta=beta, multistart=1) for beta in spec.beta_grid]
    out = np.zeros(len(spec.beta_grid), dtype=_RECORD)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = fit_path(spec.plan, data, configs, lambda plan, counts, config, **starts: (
            fit_proportions(plan, counts.proportions, counts.total, config, **starts)))
        for b, result in enumerate(path):
            try:
                if isinstance(result, Exception):
                    raise result
                if not result.converged:
                    continue
                rel = characteristic_ci(result, spec.plan, spec.x0, "reliability", spec.t_eval)
                mean = characteristic_ci(result, spec.plan, spec.x0, "mean")
                test = wald_statistic(result, constraint)
            except StepStressError:
                continue
            out[b] = (True, result.params.as_array(),
                      rel.value, (rel.ci_direct, rel.ci_transformed),
                      mean.value, (mean.ci_direct, mean.ci_transformed),
                      test.reject_at(0.05))
    return out


def _mean_se(values: np.ndarray) -> tuple:
    """Sample mean and its standard error (NaN from fewer than two values)."""
    n = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else np.nan
    return float(values.mean()), se


def _proportion_se(p: float, n: int) -> float:
    return float(np.sqrt(p * (1.0 - p) / n)) if n > 0 else np.nan


def run_scenario(spec: ScenarioSpec, n_jobs: int = 1) -> MetricsTable:
    """Run all replications and aggregate the per-beta metric rows.

    Replications are independent; with ``n_jobs > 1`` they run in worker
    processes. Aggregation always proceeds in replication order, so the
    resulting table is identical for any job count.
    """
    n_jobs = _integral(n_jobs, "n_jobs must be a whole number")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    pi_gen = spec.generating_probabilities()
    reps = range(spec.replications)
    workers = min(n_jobs, spec.replications)  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(
                    _replicate,
                    [spec] * spec.replications,
                    [pi_gen] * spec.replications,
                    reps,
                    chunksize=max(1, spec.replications // (4 * workers)),
                )
            )
    else:
        records = [_replicate(spec, pi_gen, rep) for rep in reps]
    stacked = np.stack(records)  # (R, n_beta) of _RECORD

    theta_true = spec.theta_true.as_array()
    truths = (
        ("reliability", reliability(spec.theta_true, spec.x0, spec.t_eval)),
        ("mean", mean_lifetime(spec.theta_true, spec.x0)),
    )

    rows = np.empty((len(spec.beta_grid), len(METRIC_COLUMNS)))
    for b, beta in enumerate(spec.beta_grid):
        used = stacked[stacked[:, b]["ok"], b]
        n_used = len(used)
        n_failed = spec.replications - n_used
        rate = n_failed / spec.replications
        if n_used == 0:
            rows[b] = np.nan
            rows[b, :5] = (beta, 0, n_failed, rate, 1.0)
            continue

        sq_comp = (used["theta"] - theta_true) ** 2
        msd, msd_se = _mean_se(sq_comp.sum(axis=1))
        rmse_all = float(np.sqrt(msd))
        row = [beta, n_used, n_failed, rate, float(rate > FAILURE_RATE_LIMIT)]
        row.extend(np.sqrt(sq_comp.mean(axis=0)))
        # delta method: se(sqrt(m)) = se(m) / (2 sqrt(m))
        row.append(rmse_all)
        row.append(msd_se / (2.0 * rmse_all) if rmse_all > 0.0 else np.nan)
        for name, true in truths:
            row.extend(_mean_se((used[name] - true) ** 2))
        for name, true in truths:
            for lo, hi in used[f"{name}_ci"].transpose(1, 2, 0):  # direct, transformed
                covered = float(((lo <= true) & (true <= hi)).mean())
                row.extend([covered, _proportion_se(covered, n_used)])
        reject = float(used["reject"].mean())
        test = [reject, _proportion_se(reject, n_used)]
        # level when the generating slope satisfies the null, power otherwise
        row.extend(test + [np.nan] * 2 if spec.is_null_scenario else [np.nan] * 2 + test)
        rows[b] = row
    return MetricsTable(rows=rows)


#: (section, key, ScenarioSpec field, type) of the scenario keys a file may omit
_OPTIONAL_KEYS = (
    ("run", "devices", "n_devices", int),
    ("run", "null_slope", "null_slope", float),
    ("evaluate", "x0", "x0", float),
    ("evaluate", "t", "t_eval", float),
)


def load_scenario(name_or_path) -> ScenarioSpec:
    """Read a ScenarioSpec from a bundled scenario name or an INI file.

    Sections: [design] stress_levels/change_times/inspection_times;
    [truth] a0/a1/eta; optional [contamination] a0/a1/eta/cell;
    [run] replications/seed/beta_grid and optional devices/null_slope;
    optional [evaluate] x0/t. A key the file omits keeps its ScenarioSpec
    default.
    """
    text, origin = read_bundled_or_file(
        name_or_path, "scenario", BUNDLED_SCENARIOS, "data/scenarios/{}.ini"
    )
    parser = ConfigParser()
    try:
        parser.read_string(text, source=origin)
        design = parser["design"]
        plan = StressPlan(
            parse_numbers(design["stress_levels"]),
            parse_numbers(design["change_times"]),
            parse_numbers(design["inspection_times"]),
        )
        truth = parser["truth"]
        theta = ModelParams(
            float(truth["a0"]), float(truth["a1"]), float(truth["eta"])
        )
        run = parser["run"]
        kwargs = {
            "plan": plan,
            "theta_true": theta,
            "replications": int(run["replications"]),
            "seed": int(run["seed"]),
            "beta_grid": parse_numbers(run["beta_grid"]),
        }
        for section, key, attr, cast in _OPTIONAL_KEYS:
            if parser.has_option(section, key):
                kwargs[attr] = cast(parser[section][key])
        if parser.has_section("contamination"):
            cont = parser["contamination"]
            kwargs["theta_tilde"] = ModelParams(
                float(cont.get("a0", truth["a0"])),
                float(cont.get("a1", truth["a1"])),
                float(cont.get("eta", truth["eta"])),
            )
            kwargs["contaminated_cell"] = int(cont["cell"])
        return ScenarioSpec(**kwargs)
    except (ConfigError, KeyError, ValueError) as exc:
        raise DataError(f"invalid scenario file {origin}: {exc}") from exc
