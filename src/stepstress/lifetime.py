"""Lifetime characteristics at an operating stress, with delta-method CIs.

Under the fitted model, a device held at stress ``x0`` has Weibull lifetime
with scale ``alpha_0 = exp(a0 + a1 x0)`` and shape ``eta``. This module
evaluates three summaries of that distribution:

* ``reliability(t)`` — survival probability at mission time t;
* ``quantile(q)`` — time by which reliability has dropped to q;
* ``mean_lifetime()`` — expected lifetime ``alpha_0 * Gamma(1 + 1/eta)``.

``characteristic`` returns each one's value together with its closed-form
gradient in (a0, a1, eta), so the sandwich covariance of the fit
propagates by the delta method. Two interval styles are produced: the
direct ``value ± z * se`` interval, and a transformed interval that
respects the characteristic's range — logit scale for reliability, log
scale for quantile and mean — so endpoints never need truncation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, ndtri, psi

from .errors import ExtrapolationWarning, NumericError, WeakIdentificationWarning
from .estimation import FitResult
from .model import ModelParams, StressPlan, scale_at_level

CHARACTERISTIC_KINDS = ("reliability", "quantile", "mean")

# reliability values this close to 0 or 1 carry no logit-scale information;
# the transform clips there instead of overflowing
_LOGIT_CLIP = 1e-12


@dataclass(frozen=True)
class CharacteristicEstimate:
    """A lifetime characteristic with its uncertainty at stress x0.

    ``extra`` is the mission time for reliability, the reliability level
    for quantiles, and None for the mean.
    """

    kind: str
    value: float
    std_error: float
    ci_direct: tuple[float, float]
    ci_transformed: tuple[float, float]
    x0: float
    extra: float | None
    confidence: float


def reliability(params: ModelParams, x0: float, t: float) -> float:
    """Probability that a device at stress x0 survives past time t."""
    return characteristic(params, x0, "reliability", t)[0]


def quantile(params: ModelParams, x0: float, level: float) -> float:
    """Time at which reliability at stress x0 equals ``level``.

    ``level`` is a reliability (survival) level: quantile(params, x0, 0.95)
    is the time by which 5% of devices fail.
    """
    return characteristic(params, x0, "quantile", level)[0]


def mean_lifetime(params: ModelParams, x0: float) -> float:
    """Expected lifetime at stress x0."""
    return characteristic(params, x0, "mean")[0]


def characteristic(
    params: ModelParams, x0: float, kind: str, extra: float | None = None
) -> tuple[float, np.ndarray]:
    """Value of the requested characteristic and its gradient in (a0, a1, eta).

    A non-finite x0 or extra raises ValueError; a value or gradient that
    overflows raises NumericError.
    """
    if not math.isfinite(x0):
        raise ValueError(f"operating stress x0 must be finite, got {x0:g}")
    eta = params.eta
    if kind == "reliability":
        t = _require_extra(kind, extra)
        alpha0 = scale_at_level(params, x0)
        try:
            u = (t / alpha0) ** eta
        except OverflowError:
            raise NumericError(f"reliability at t={t:g} overflowed") from None
        value = float(np.exp(-u))
        grad = value * u * np.array([eta, eta * x0, -np.log(t / alpha0)])
    elif kind == "quantile":
        q = _require_extra(kind, extra)
        value = float(scale_at_level(params, x0) * (-np.log(q)) ** (1.0 / eta))
        grad = value * np.array([1.0, x0, -np.log(-np.log(q)) / eta**2])
    elif kind == "mean":
        if extra is not None:
            raise ValueError("mean lifetime takes no extra argument")
        value = scale_at_level(params, x0) * float(gamma(1.0 + 1.0 / eta))
        grad = value * np.array([1.0, x0, -psi(1.0 + 1.0 / eta) / eta**2])
    else:
        raise ValueError(f"kind must be one of {CHARACTERISTIC_KINDS}, got {kind!r}")
    if not all(map(math.isfinite, (value, *grad.tolist()))):
        raise NumericError(f"the {kind} at stress {x0:g} overflows a double")
    return value, grad


def _require_extra(kind: str, extra: float | None) -> float:
    if extra is None:
        raise ValueError(f"{kind} requires an extra argument")
    extra = float(extra)
    if kind == "reliability" and not 0.0 < extra < math.inf:
        raise ValueError("mission time t must be positive and finite")
    if kind == "quantile" and not 0.0 < extra < 1.0:
        raise ValueError("reliability level must lie strictly in (0, 1)")
    return extra


def _check_extrapolation(plan: StressPlan | None, x0: float) -> None:
    if plan is None:
        return
    levels = plan.stress_levels
    if x0 < levels.min() - 1e-12 or x0 > levels.max() + 1e-12:
        warnings.warn(
            f"operating stress {x0:g} lies outside the tested range "
            f"[{levels.min():g}, {levels.max():g}]; characteristics "
            "extrapolate the stress-response relationship",
            ExtrapolationWarning,
            stacklevel=3,
        )


def _check_identified(fit: FitResult) -> None:
    if fit.weakly_identified:
        warnings.warn(
            "weakly identified fit: a standard error exceeds its estimate, "
            "so intervals carry little information",
            WeakIdentificationWarning,
            stacklevel=3,
        )


def characteristic_ci(
    fit: FitResult,
    plan: StressPlan | None,
    x0: float,
    kind: str,
    extra: float | None = None,
    confidence: float = 0.95,
) -> CharacteristicEstimate:
    """Point estimate with direct and range-respecting CIs.

    ``plan`` is only consulted to warn when x0 lies outside the tested
    stress range; pass None to skip that check. A weakly identified fit
    gives a WeakIdentificationWarning. An interval with an endpoint that
    overflows raises NumericError.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly in (0, 1)")
    fit.require_usable("build intervals from")
    value, grad = characteristic(fit.params, x0, kind, extra)
    _check_extrapolation(plan, x0)
    _check_identified(fit)

    var = float(grad @ fit.covariance @ grad)
    if var < -1e-10 * max(1.0, float(np.abs(grad).max()) ** 2):
        raise NumericError("covariance is not positive semi-definite")
    se = np.sqrt(max(var, 0.0) / fit.n_devices)
    z = ndtri(0.5 + confidence / 2.0)

    ci_direct = (value - z * se, value + z * se)
    with np.errstate(over="ignore"):  # an overflow is refused below
        if kind == "reliability":
            r = min(max(value, _LOGIT_CLIP), 1.0 - _LOGIT_CLIP)
            spread = np.exp(z * se / (r * (1.0 - r)))
            ci_transformed = (r / (r + (1.0 - r) * spread), r / (r + (1.0 - r) / spread))
        else:
            ratio = z * se / value if value > 0 else 0.0
            ci_transformed = (value * np.exp(-ratio), value * np.exp(ratio))
    if not all(map(math.isfinite, (value, se, *ci_direct, *ci_transformed))):
        raise NumericError(
            f"the {kind} interval overflows: the fit leaves it unbounded"
        )

    return CharacteristicEstimate(
        kind=kind,
        value=value,
        std_error=float(se),
        ci_direct=(float(ci_direct[0]), float(ci_direct[1])),
        ci_transformed=(float(ci_transformed[0]), float(ci_transformed[1])),
        x0=float(x0),
        extra=None if extra is None else float(extra),
        confidence=float(confidence),
    )


def param_ci(fit: FitResult, confidence: float = 0.95) -> np.ndarray:
    """Direct CIs for (a0, a1, eta) as a (3, 2) array of (lo, hi) rows.

    A weakly identified fit gives a WeakIdentificationWarning.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly in (0, 1)")
    fit.require_usable("build intervals from")
    _check_identified(fit)
    z = ndtri(0.5 + confidence / 2.0)
    center = fit.params.as_array()
    half = z * fit.standard_errors
    return np.column_stack([center - half, center + half])
