"""Output checks for the benchmark workloads.

Every check takes the text a CLI command printed, parses it, and compares
it with the independent computations in ``oracle`` or with properties the
method must have. A check returns a list of problems; an empty list means
the output passed. Inputs (plan, counts, true parameters) are passed in by
the caller; no check calls the code under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

import oracle

# finite-difference gradients of the oracle objective are accurate to ~1e-9;
# a converged fit leaves an estimating-equation residual below 1e-8
STATIONARY_TOL = 1e-6
# a closed form recomputed from printed full-precision numbers
CLOSED_FORM_RTOL = 1e-9


class Table:
    """A CLI table in csv form: metadata, column names and numeric rows."""

    def __init__(self, text: str):
        self.meta = {}
        lines = text.splitlines()
        body = []
        for line in lines:
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                self.meta[key] = value
            elif line.strip():
                body.append(line)
        if not body:
            raise ValueError("table has no header line")
        self.columns = tuple(body[0].split(","))
        self.rows = np.array(
            [[float(v) for v in line.split(",")] for line in body[1:]], dtype=float
        ).reshape(-1, len(self.columns))

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _inside(lo: float, value: float, hi: float) -> bool:
    return lo <= value <= hi


def _probability_interval(label, lo, hi) -> list[str]:
    """A logit-scale reliability interval lies in the unit interval.

    The bounds are checked as closed: at the extrapolated use stresses of
    the transistor and LED data the logit half-width exceeds 37, and the
    upper endpoint r / (r + (1 - r) / spread) rounds to exactly 1.0 in
    double precision.
    """
    if not (0.0 <= lo < hi <= 1.0):
        return [f"{label}: transformed reliability interval [{lo}, {hi}] leaves [0, 1]"]
    return []


def _stationarity(label, theta, beta, inputs) -> list[str]:
    grad = oracle.objective_gradient(theta, inputs.plan, inputs.proportions, beta)
    norm = float(np.linalg.norm(grad))
    if not norm <= STATIONARY_TOL:
        return [f"{label}: oracle objective gradient norm {norm:.3g} at beta={beta:g}"]
    return []


def _characteristics(theta, x0, t, qrel) -> dict:
    """Independent closed forms of the three lifetime characteristics."""
    a0, a1, eta = theta
    scale = math.exp(a0 + a1 * x0)
    return {
        "mean": scale * math.gamma(1.0 + 1.0 / eta),
        "reliability": math.exp(-((t / scale) ** eta)),
        "quantile": scale * (-math.log(qrel)) ** (1.0 / eta),
    }


def check_fit(text: str, inputs, *, tuned_beta: float | None = None) -> list[str]:
    """``fit`` rows: stationary, intervals contain estimates, closed forms."""
    table = Table(text)
    problems = []
    x0, t, qrel = float(table.meta["x0"]), float(table.meta["t"]), float(table.meta["qrel"])
    for row in table.rows:
        values = dict(zip(table.columns, row))
        beta = values["beta"]
        label = f"{inputs.name} fit beta={beta:g}"
        theta = np.array([values["a0"], values["a1"], values["eta"]])
        problems += _stationarity(label, theta, beta, inputs)
        for name in ("a0", "a1", "eta"):
            if not _inside(values[f"{name}_lo"], values[name], values[f"{name}_hi"]):
                problems.append(f"{label}: {name} interval misses its estimate")
        closed = _characteristics(theta, x0, t, qrel)
        for kind, exact in closed.items():
            value = values[kind]
            if not _close(value, exact, CLOSED_FORM_RTOL):
                problems.append(f"{label}: {kind} {value!r} != closed form {exact!r}")
            for style in ("direct", "transformed"):
                lo, hi = values[f"{kind}_{style}_lo"], values[f"{kind}_{style}_hi"]
                if not _inside(lo, value, hi):
                    problems.append(f"{label}: {kind} {style} interval misses its estimate")
        problems += _probability_interval(
            label, values["reliability_transformed_lo"], values["reliability_transformed_hi"]
        )
    if tuned_beta is not None and not np.all(table.column("beta") == tuned_beta):
        problems.append(f"{inputs.name}: tuned fit at beta {table.column('beta')} != tune's {tuned_beta}")
    return problems


def check_ci(text: str, inputs) -> list[str]:
    """``ci`` rows: stationary, intervals contain estimates, closed forms."""
    table = Table(text)
    beta = float(table.meta["beta_grid"])
    label = f"{inputs.name} ci beta={beta:g}"
    est = table.column("estimate")
    theta = est[:3]
    problems = _stationarity(label, theta, beta, inputs)
    x0 = float(table.meta["x0"])
    closed = _characteristics(theta, x0, inputs.t, 0.95)
    exact = [closed["mean"], closed["reliability"], closed["quantile"]]
    for i, row in enumerate(table.rows):
        value, _, dlo, dhi, tlo, thi = row
        if not _inside(dlo, value, dhi):
            problems.append(f"{label}: row {i} direct interval misses its estimate")
        if i >= 3:
            if not _inside(tlo, value, thi):
                problems.append(f"{label}: row {i} transformed interval misses its estimate")
            if not _close(value, exact[i - 3], CLOSED_FORM_RTOL):
                problems.append(f"{label}: row {i} {value!r} != closed form {exact[i - 3]!r}")
    problems += _probability_interval(label, table.rows[4, 4], table.rows[4, 5])
    return problems


def check_test(text: str, ci_text: str, inputs) -> list[str]:
    """Wald test of eta = 1 against (eta_hat - 1)^2 / se^2 printed by ``ci``."""
    table = Table(text)
    ci = Table(ci_text)
    statistic, df, p_value, reject_5pct = table.rows[0, :4]
    eta_hat, se = ci.rows[2, 0], ci.rows[2, 1]
    expected = (eta_hat - 1.0) ** 2 / se**2
    label = f"{inputs.name} test beta={table.meta['beta_grid']}"
    problems = []
    if ci.meta["beta_grid"] != table.meta["beta_grid"]:
        problems.append(f"{label}: ci ran at beta {ci.meta['beta_grid']}")
    if df != 1.0:
        problems.append(f"{label}: df {df} != 1")
    if not _close(statistic, expected, rtol=1e-8):
        problems.append(f"{label}: statistic {statistic!r} != (eta-1)^2/se^2 = {expected!r}")
    sf = float(stats.chi2.sf(statistic, 1))
    if not _close(p_value, sf, rtol=1e-8, atol=1e-14):
        problems.append(f"{label}: p-value {p_value!r} != chi2.sf {sf!r}")
    if float(statistic > stats.chi2.ppf(0.95, 1)) != reject_5pct:
        problems.append(f"{label}: reject_5pct {reject_5pct} disagrees with the statistic")
    return problems


def check_tune(text: str, inputs) -> tuple[list[str], float]:
    """The chosen beta is the (first) minimum of the printed MSE curve."""
    table = Table(text)
    chosen = float(table.meta["beta_opt"])
    curve = table.column("mse_estimate")
    betas = table.column("beta")
    argmin = float(betas[int(np.argmin(curve))])
    problems = []
    if chosen != argmin:
        problems.append(f"{inputs.name} tune: beta_opt {chosen!r} is not the curve minimum {argmin!r}")
    if not np.all(np.isfinite(curve)) or np.any(curve <= 0.0):
        problems.append(f"{inputs.name} tune: MSE curve has non-positive or non-finite values")
    return problems, chosen


def check_influence(text: str, ci_text: str, inputs) -> list[str]:
    """Influence rows are mean-zero under the oracle's pi at the fitted theta."""
    table = Table(text)
    ci = Table(ci_text)
    label = f"{inputs.name} influence beta={table.meta['beta_grid']}"
    problems = []
    if ci.meta["beta_grid"] != table.meta["beta_grid"]:
        problems.append(f"{label}: ci ran at beta {ci.meta['beta_grid']}")
    theta = ci.rows[:3, 0]
    pi = oracle.cell_probabilities(theta, inputs.plan)
    cells = table.column("cell").astype(int)
    if list(cells) != list(range(1, len(pi) + 1)):
        problems.append(f"{label}: cells {list(cells)} do not cover the plan")
        return problems
    ifs = table.rows[:, 1:4]
    mean = pi @ ifs
    scale = float(pi @ np.linalg.norm(ifs, axis=1))
    if not np.linalg.norm(mean) <= 1e-8 * scale:
        problems.append(f"{label}: sum_n pi_n IF(n) = {mean} (scale {scale:.3g})")
    return problems


# Coverage and level are checked on every beta row at once: 2 x 6 rows of a
# table share their replications. Each rate must sit inside a two-sided
# exact binomial band around its nominal value whose family-wise false-alarm
# rate is that of a single 3-sigma band (0.27 %), Bonferroni-split over the
# rows. A plain 3-se band per row flagged 1 of 80 correct 60-replication
# tables of the clean scenario.
FAMILY_FALSE_ALARM = 0.0027
# Excluded fits per beta row that a correct table may hold. On correct code
# one single-start fit in about 29,000 is excluded (see the FOUND entry on
# montecarlo._replicate in CHANGES.md), so two in one row of 60 signal a
# fault in the fitting, not chance.
MAX_EXCLUDED = 1


def binomial_band_miss(rate: float, n: int, nominal: float, tests: int) -> bool:
    """Whether an observed rate over n trials is implausible under the nominal one."""
    hits = round(rate * n)
    alpha = FAMILY_FALSE_ALARM / tests / 2.0
    return bool(
        stats.binom.cdf(hits, n, nominal) < alpha
        or stats.binom.sf(hits - 1, n, nominal) < alpha
    )


def check_simulation(text: str, scenario) -> list[str]:
    """Monte Carlo rows: coverage, level and RMSE against the oracle.

    ``scenario`` carries the plan, the true parameters and the device count
    the table was generated with. Rows are judged on the replications they
    used. At most MAX_EXCLUDED fits of a row may be excluded, and no row may
    be flagged unreliable.
    """
    table = Table(text)
    problems = []
    tests = 2 * len(table.rows)
    for row in table.rows:
        values = dict(zip(table.columns, row))
        beta, n_used = values["beta"], int(values["n_used"])
        label = f"simulate beta={beta:g}"
        if values["n_failed"] > MAX_EXCLUDED or values["unreliable"] != 0.0:
            problems.append(f"{label}: {int(values['n_failed'])} fits excluded, unreliable={values['unreliable']:g}")
        if n_used < 1:
            problems.append(f"{label}: no replication used")
            continue
        for column, nominal in (("coverage_reliability_transformed", 0.95), ("level", 0.05)):
            if binomial_band_miss(values[column], n_used, nominal, tests):
                problems.append(f"{label}: {column} {values[column]:.4f} over {n_used} replications is implausible at {nominal}")
        expected = oracle.asymptotic_rmse(scenario.theta, scenario.plan, beta, scenario.n_devices)
        ratio = values["rmse_overall"] / expected
        if not 0.7 <= ratio <= 1.4:
            problems.append(f"{label}: RMSE / asymptotic RMSE = {ratio:.3f} outside [0.7, 1.4]")
    return problems
