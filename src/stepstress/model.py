"""Cumulative-exposure Weibull model for multiple step-stress life tests.

Devices move through k increasing stress levels at fixed change times; the
lifetime scale at stress x is alpha(x) = exp(a0 + a1*x) and the shape eta is
common to all levels. Cumulative exposure links the segments: on segment i
the cdf is that of a Weibull with scale alpha_i evaluated at t + h_{i-1},
where the shift h_{i-1} carries over the exposure accumulated at earlier
levels and makes the cdf continuous at every change time.

One-shot devices are only inspected, never observed failing, so inference
sees interval counts: n_j devices found newly failed at inspection time t_j,
plus survivors at termination. This module evaluates the distribution, the
resulting cell probabilities, and their analytic parameter gradient (the
W matrix), which every estimation and diagnostic routine builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError

__all__ = [
    "StressPlan",
    "ModelParams",
    "IntervalData",
    "ShiftTerms",
    "ParameterSpaceWarning",
    "scale_at_level",
    "shift_terms",
    "cdf",
    "pdf",
    "cell_probabilities",
    "score_rows",
    "gradient_matrix",
]


class ParameterSpaceWarning(UserWarning):
    """Parameters are usable but outside the intended parameter space."""


def _vector(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _integral(value, what: str) -> int:
    """value as an int; ValueError("<what>, got <value>") unless it is whole.

    Integral floats such as 3.0 and numpy integers pass; a fractional or
    non-finite value is refused rather than truncated.
    """
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"{what}, got {value}")
    return int(value)


def _all_finite(a: np.ndarray) -> bool:
    # count_nonzero is several times cheaper than .all() on arrays this short
    return np.count_nonzero(np.isfinite(a)) == a.size


@dataclass(frozen=True)
class StressPlan:
    """Design of a step-stress experiment.

    Attributes:
        stress_levels: the k stress values x_1..x_k, strictly increasing.
        change_times: times tau_1..tau_k at which stress steps up; tau_k is
            the termination time of the experiment.
        inspection_times: the L inspection times t_1..t_L. Every change time
            must be an inspection time and t_L must equal tau_k.
        inspection_segments: derived, the 0-based stress segment of each
            inspection time (tau_{i-1} < t_j <= tau_i), as the cdf sees it.
        inspection_levels: derived, the stress level in force on each
            inspection time's segment.
    """

    stress_levels: np.ndarray
    change_times: np.ndarray
    inspection_times: np.ndarray
    inspection_segments: np.ndarray = field(init=False, repr=False, compare=False)
    inspection_levels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _vector(self.stress_levels, "stress_levels")
        tau = _vector(self.change_times, "change_times")
        t = _vector(self.inspection_times, "inspection_times")
        if len(x) == 0:
            raise ValueError("need at least one stress level")
        if len(tau) != len(x):
            raise ValueError("change_times must have one entry per stress level")
        if np.any(np.diff(x) <= 0):
            raise ValueError("stress_levels must be strictly increasing")
        if tau[0] <= 0 or np.any(np.diff(tau) <= 0):
            raise ValueError("change_times must be positive and strictly increasing")
        if t[0] <= 0 or np.any(np.diff(t) <= 0):
            raise ValueError("inspection_times must be positive and strictly increasing")
        for ct in tau:
            if not np.any(np.abs(t - ct) <= 1e-12 * max(ct, 1.0)):
                raise ValueError(f"change time {ct} is not an inspection time")
        if abs(t[-1] - tau[-1]) > 1e-12 * max(tau[-1], 1.0):
            raise ValueError("the last inspection time must equal the termination time")
        object.__setattr__(self, "stress_levels", x)
        object.__setattr__(self, "change_times", tau)
        object.__setattr__(self, "inspection_times", t)
        seg = _segments(self, t, "left")
        object.__setattr__(self, "inspection_segments", seg)
        object.__setattr__(self, "inspection_levels", x[seg])

    @property
    def n_levels(self) -> int:
        return len(self.stress_levels)

    @property
    def n_inspections(self) -> int:
        return len(self.inspection_times)

    @property
    def n_cells(self) -> int:
        """Number of observation cells: one per inspection interval plus survivors."""
        return len(self.inspection_times) + 1

    def check_cell(self, cell: int) -> int:
        """The 1-based cell index as an int; ValueError when out of range.

        Integral floats such as 3.0 are accepted; a fractional index is refused.
        """
        cell = _integral(cell, "cell must be an integer index")
        if not 1 <= cell <= self.n_cells:
            raise ValueError(
                f"cell must be a 1-based index in [1, {self.n_cells}], got {cell}"
            )
        return cell


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: log-scale intercept a0, slope a1, Weibull shape eta.

    The physically meaningful space has a1 < 0 (higher stress shortens
    life); a1 >= 0 is accepted so that fits on pathological data still
    report what they found, and the fit warns about it.
    """

    a0: float
    a1: float
    eta: float

    def __post_init__(self):
        for name in ("a0", "a1", "eta"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, float(v))
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.eta])


@dataclass(frozen=True)
class IntervalData:
    """Interval counts from one experiment.

    counts[j] is the number of devices first found failed at inspection
    time t_{j+1}; the last entry counts survivors at termination. Counts are
    usually integers but fractional pseudo-counts (expected counts from a
    known model, used by diagnostics) are accepted.
    """

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = _vector(self.counts, "counts")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = _integral(self.total, "total must be a whole number of devices")
        if total <= 0:
            raise ValueError("total must be positive")
        if abs(counts.sum() - total) > 1e-9 * max(total, 1):
            raise ValueError(f"counts sum to {counts.sum()}, expected total {total}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    def validate_against(self, plan: StressPlan) -> None:
        if len(self.counts) != plan.n_cells:
            raise DataError(
                f"counts has {len(self.counts)} cells, plan implies {plan.n_cells}"
            )

    @property
    def proportions(self) -> np.ndarray:
        """Observed cell proportions (the empirical distribution over cells)."""
        return self.counts / self.total


@dataclass(frozen=True)
class ShiftTerms:
    """Per-level scales and cumulative-exposure shifts.

    alphas[i] is the Weibull scale at level i+1. h[i] is the time shift
    applied on segment i+1 (h[0] = 0), chosen so the cdf is continuous at
    each change time. h_star[i] and h_star2[i] are the first and second
    derivatives of h[i] with respect to a1, needed by the analytic gradient
    and its curvature.
    """

    alphas: np.ndarray
    h: np.ndarray
    h_star: np.ndarray
    h_star2: np.ndarray


def scale_at_level(params: ModelParams, x: float) -> float:
    """Weibull scale exp(a0 + a1*x) at stress x."""
    scale = float(np.exp(params.a0 + params.a1 * x))
    if not np.isfinite(scale) or scale <= 0.0:
        raise NumericError(f"non-finite or vanished scale at stress {x}")
    return scale


def shift_terms(params: ModelParams, plan: StressPlan) -> ShiftTerms:
    """Scales and cumulative-exposure shifts for every stress segment."""
    exponents = params.a0 + params.a1 * plan.stress_levels
    if all(-708.0 < e < 709.0 for e in exponents.tolist()):
        alphas = np.exp(exponents)  # cannot overflow or underflow here
    else:
        with np.errstate(over="ignore", under="ignore"):
            alphas = np.exp(exponents)
    # h_i = alpha_{i+1} * sum_{m<=i} (1/alpha_m - 1/alpha_{m+1}) tau_m and its
    # first two a1-derivatives, accumulated once over segments. Python floats
    # round exactly as float64 does and cost far less per operation on k values.
    a = alphas.tolist()
    if not all(math.isfinite(v) and v > 0.0 for v in a):
        raise NumericError("non-finite or vanished scale among stress levels")
    x = plan.stress_levels.tolist()
    tau = plan.change_times.tolist()
    h, h_star, h_star2 = [0.0], [0.0], [0.0]
    inv_gap = slope_gap = curv = 0.0
    for i in range(1, len(a)):
        inv_gap += (1.0 / a[i - 1] - 1.0 / a[i]) * tau[i - 1]
        slope_gap += (x[i] / a[i] - x[i - 1] / a[i - 1]) * tau[i - 1]
        curv += (x[i - 1] ** 2 / a[i - 1] - x[i] ** 2 / a[i]) * tau[i - 1]
        h_i = a[i] * inv_gap
        h_star_i = h_i * x[i] + a[i] * slope_gap
        h.append(h_i)
        h_star.append(h_star_i)
        h_star2.append(x[i] * h_star_i + a[i] * (x[i] * slope_gap + curv))
    if not all(map(math.isfinite, h + h_star)):
        raise NumericError("non-finite cumulative-exposure shift")
    return ShiftTerms(alphas, np.array(h), np.array(h_star), np.array(h_star2))


def _segments(plan: StressPlan, t: np.ndarray, side: str) -> np.ndarray:
    """0-based segment: tau_{i-1} < t <= tau_i for side "left" (the cdf's),
    tau_{i-1} <= t < tau_i for side "right" (the pdf's)."""
    idx = np.searchsorted(plan.change_times, t, side=side)
    return np.minimum(idx, plan.n_levels - 1)


def _shifted_scaled(
    terms: ShiftTerms, seg: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shifted times t + h, segment scales alpha, and (t + h)/alpha."""
    shifted = t + terms.h[seg]
    # shifted = 0 is allowed only at t = 0; the full test runs only when
    # some shifted time is non-positive at all
    nonpositive = shifted <= 0.0
    if np.count_nonzero(nonpositive) and np.count_nonzero(
        (nonpositive & (t > 0.0)) | (shifted < 0.0)
    ):
        raise NumericError("non-positive shifted time; parameters out of domain")
    alpha = terms.alphas[seg]
    return shifted, alpha, shifted / alpha


def cdf(params: ModelParams, plan: StressPlan, t) -> float | np.ndarray:
    """Failure-time cdf at time t (scalar or array), continuous in t."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("cdf requires t >= 0")
    seg = _segments(plan, t_arr, "left")
    terms = shift_terms(params, plan)
    _, _, u = _shifted_scaled(terms, seg, t_arr)
    with np.errstate(over="ignore", under="ignore"):
        values = -np.expm1(-(u**params.eta))
    if not np.all(np.isfinite(values)):
        raise NumericError("cdf evaluation overflowed")
    values = np.clip(values, 0.0, 1.0)
    return float(values) if np.isscalar(t) or t_arr.ndim == 0 else values


def pdf(params: ModelParams, plan: StressPlan, t) -> float | np.ndarray:
    """Failure-time density at t > 0.

    The density jumps at stress-change times; there the new-stress branch
    (right limit) is returned.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("pdf requires t > 0")
    seg = _segments(plan, t_arr, "right")
    terms = shift_terms(params, plan)
    _, alpha, u = _shifted_scaled(terms, seg, t_arr)
    eta = params.eta
    with np.errstate(over="ignore", under="ignore"):
        values = eta / alpha * u ** (eta - 1.0) * np.exp(-(u**eta))
    if not np.all(np.isfinite(values)):
        raise NumericError("pdf evaluation overflowed")
    return float(values) if np.isscalar(t) or t_arr.ndim == 0 else values


def cell_probabilities(params: ModelParams, plan: StressPlan) -> np.ndarray:
    """Probability of first observing a failure in each inspection cell.

    Returns a vector of length L+1: entries 1..L are the probabilities of
    failing within (t_{j-1}, t_j], the last entry is the survival
    probability at termination. Entries are clamped to [0, 1] and sum to 1.
    """
    terms = shift_terms(params, plan)
    _, _, u = _shifted_scaled(terms, plan.inspection_segments, plan.inspection_times)
    with np.errstate(over="ignore", under="ignore"):
        s = np.exp(-(u**params.eta))  # survival at each inspection time
    if not _all_finite(s):
        raise NumericError("survival evaluation overflowed")
    pi = np.empty(plan.n_cells)
    pi[0] = 1.0 - s[0]
    pi[1:-1] = s[:-1] - s[1:]
    pi[-1] = s[-1]
    return np.minimum(np.maximum(pi, 0.0), 1.0)


def score_rows(params: ModelParams, plan: StressPlan) -> tuple[np.ndarray, ...]:
    """Undamped score rows v, hazards and u^eta at every inspection time.

    With u_j = (t_j + h_j)/alpha_j the survival at t_j is exp(-u_j^eta), and
    its gradient in (a0, a1, eta) is -hazard_j * exp(-u_j^eta) * v_j, where
    hazard_j = eta/alpha_j * u_j^(eta-1) and v_j = [-(t_j + h_j),
    -(t_j + h_j) x_j + h*_j, log(u_j) (t_j + h_j)/eta]. Unchecked for overflow.
    """
    return _scores(params, plan)[:3]


def _scores(params: ModelParams, plan: StressPlan) -> tuple:
    """score_rows, then the shift terms, shifted times and log u behind them."""
    terms = shift_terms(params, plan)
    seg = plan.inspection_segments
    shifted, alpha_seg, u = _shifted_scaled(terms, seg, plan.inspection_times)
    with np.errstate(over="ignore", under="ignore"):
        hazard = params.eta / alpha_seg * u ** (params.eta - 1.0)
        u_eta = u**params.eta
        log_u = np.log(u)
    v = np.empty((plan.n_inspections, 3))
    v[:, 0] = -shifted
    v[:, 1] = v[:, 0] * plan.inspection_levels + terms.h_star[seg]
    v[:, 2] = log_u * shifted / params.eta
    return v, hazard, u_eta, terms, shifted, log_u


def gradient_matrix(params: ModelParams, plan: StressPlan, curvature: bool = False):
    """Gradient of cell probabilities: W[j] = d pi_{j+1} / d (a0, a1, eta).

    Rows are differences w_j = z_j - z_{j-1} of the per-inspection score
    vectors z_j = dG(t_j)/d theta = hazard_j * exp(-u_j^eta) * v_j (see
    :func:`score_rows`), with zero sentinels at both ends, so the matrix has
    shape (L+1) x 3 and its rows sum to the zero vector.

    With ``curvature`` it returns (W, contract): contract(w) is the 3 x 3 matrix
    sum_c w_c d^2 pi_c / d theta d theta', built from this call's terms when called.
    """
    v, hazard, u_eta, terms, shifted, log_u = _scores(params, plan)
    dens = hazard * np.exp(-u_eta)
    if not (_all_finite(dens) and _all_finite(v)):
        raise NumericError("gradient evaluation overflowed")
    z = v * dens[:, None]
    w = np.empty((plan.n_cells, 3))
    w[0] = z[0]
    w[1:-1] = z[1:] - z[:-1]
    w[-1] = -z[-1]
    if not curvature:
        return w
    eta, seg = params.eta, plan.inspection_segments

    def contract(weights) -> np.ndarray:
        # G_j = 1 - exp(-e^A_j), A_j = eta log u_j: with g_j = e^(A_j - e^A_j), d2 G_j =
        # g_j [d2 A_j + (1 - e^A_j) dA_j dA_j'], and sum_c w_c d2 pi_c = sum_j (w_j - w_j+1) d2 G_j
        d = (weights[:-1] - weights[1:]) * (u_eta * np.exp(-u_eta))
        slope = v[:, 1] / shifted  # h*_j/s_j - x_j
        grad_a = np.empty((len(d), 3))
        grad_a[:, 0], grad_a[:, 1], grad_a[:, 2] = -eta, eta * slope, log_u
        out = (grad_a.T * (d * (1.0 - u_eta))) @ grad_a
        ratio = terms.h_star[seg] / shifted
        out[1, 1] += eta * (d @ (terms.h_star2[seg] / shifted - ratio * ratio))
        corner, cross = d.sum(), d @ slope
        return out + np.array([[0.0, 0.0, -corner], [0.0, 0.0, cross], [-corner, cross, 0.0]])

    return w, contract
