"""Bundled one-shot device test datasets and ingestion helpers.

Three step-stress accelerated life tests ship with the package, each as a
plain-text file under ``stepstress/data/``:

``solar``
    35 solar light prototypes under a two-step thermal test (293K then
    353K), times in hundreds of hours, six inspection times.
``transistor``
    31 medium-power silicon bipolar transistors across ten temperature
    steps of 168 h each; right-censored units were removed at the source,
    leaving 27 interval failures. Shipped pre-binned.
``led``
    27 LED units across four temperature steps, inspected at the times of
    stress change, terminated at 720 h.

File format
-----------
Header lines start with ``#`` and hold ``key: value`` pairs; the body is
one number per line. Numeric header lists (``stress_levels``,
``change_times``, ``inspection_times``) are separated by whitespace or
commas. Two kinds of body are supported: ``kind: times`` (one
failure time per line) and ``kind: counts`` (one count per interval cell,
the final line being the survivor cell). Required keys: ``name``, ``kind``,
``n_total``, ``time_unit``, ``stress_unit``, ``stress_levels``,
``change_times``, ``inspection_times``, ``use_stress``, ``normalization``,
``analysis``. Optional repeated keys: ``note`` (free text) and ``correct``
(``printed -> value | reason`` — replaces a recorded body token while
keeping the original visible in the file).

``normalization`` selects how physical stress maps to the unitless scale
used for fitting:

* ``minmax`` — lowest tested level to 0, highest to 1;
* ``use-anchored`` — use-condition stress to 0, lowest tested level to 1
  (tested levels then sit at or above 1).

``analysis`` selects the analysis-ready ``data``: ``as-recorded`` keeps the
``recorded`` table, survivors included; ``drop-censored`` zeroes its survivor
cell and reduces the device total accordingly, mirroring how the source
studies treated these tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CensoringWarning, DataError
from .model import IntervalData, StressPlan

BUNDLED_DATASETS = ("solar", "transistor", "led")

_REQUIRED_KEYS = (
    "name",
    "kind",
    "n_total",
    "time_unit",
    "stress_unit",
    "stress_levels",
    "change_times",
    "inspection_times",
    "use_stress",
    "normalization",
    "analysis",
)


@dataclass(frozen=True)
class NormalizationMap:
    """Affine map of physical stress to the unitless fitting scale.

    Maps ``x`` to ``(x - x_min) / (x_max - x_min)``; the two reference
    stresses need not be tested levels, which is how the use-anchored
    convention is expressed (x_min = use stress, x_max = lowest tested
    level).
    """

    x_min: float
    x_max: float

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    def __call__(self, x):
        out = (np.asarray(x, dtype=float) - self.x_min) / (self.x_max - self.x_min)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DatasetBundle:
    """An analysis-ready dataset: normalized plan, counts, and provenance.

    ``recorded`` is the file's table with survivors included; ``data`` is
    that table after the dataset's ``analysis`` directive, so
    ``recorded.total == data.total + n_removed``.
    """

    name: str
    description: str
    time_unit: str
    stress_unit: str
    plan: StressPlan
    recorded: IntervalData
    data: IntervalData
    stress_map: NormalizationMap
    x0: float
    x0_physical: float
    n_removed: int
    notes: tuple[str, ...] = ()


def _bin_times(failure_times, n_total: int, inspection_times) -> IntervalData:
    """Failure counts per inspection interval (t_{j-1}, t_j], survivors last.

    Times past the final inspection count as survivors, with a warning: the
    test would have ended before observing them.
    """
    times = np.asarray(failure_times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DataError("failure_times must be a non-empty vector")
    if np.any(times <= 0):
        raise DataError("failure times must be positive")
    if len(times) > n_total:
        raise DataError(
            f"{len(times)} failure times recorded for only {n_total} devices"
        )
    t = inspection_times
    beyond = times > t[-1]
    if np.any(beyond):
        warnings.warn(
            f"{int(beyond.sum())} failure time(s) exceed the final "
            f"inspection at {t[-1]:g}; counted as survivors",
            CensoringWarning,
            stacklevel=2,
        )
    idx = np.searchsorted(t, times[~beyond], side="left")
    counts = np.bincount(idx, minlength=len(t))
    return IntervalData(np.append(counts, n_total - int(counts.sum())), n_total)


def parse_numbers(raw: str) -> tuple[float, ...]:
    """The numbers of a list separated by commas or whitespace."""
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def read_bundled_or_file(name_or_path, kind: str, bundled, resource: str):
    """(text, origin) of the bundled ``kind`` by name, read from the package
    path ``resource`` ("data/{}.txt"), else of the file at that path."""
    name = str(name_or_path)
    if name in bundled:
        source = resources.files("stepstress").joinpath(resource.format(name))
        return source.read_text(encoding="utf-8"), f"bundled {kind} {name!r}"
    path = Path(name)
    if not path.is_file():
        raise DataError(
            f"no bundled {kind} or file named {name!r}; bundled names "
            f"are {', '.join(bundled)}"
        )
    return path.read_text(encoding="utf-8"), str(path)


def load_dataset(name_or_path: str | Path) -> DatasetBundle:
    """Load a bundled dataset by name, or any dataset file by path."""
    text, origin = read_bundled_or_file(
        name_or_path, "dataset", BUNDLED_DATASETS, "data/{}.txt"
    )
    try:
        return _build_bundle(*_parse_dataset_text(text))
    except ValueError as exc:  # DataError included: the one place the file is named
        raise DataError(f"{origin}: {exc}") from exc


def _parse_dataset_text(text: str):
    header: dict[str, str] = {}
    notes: list[str] = []
    corrections: dict[str, tuple[float, str]] = {}
    tokens: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if ":" not in body:
                continue  # banner/comment line
            key, _, value = body.partition(":")
            key, value = key.strip().lower(), value.strip()
            if key == "note":
                notes.append(value)
            elif key == "correct":
                printed, arrow, rest = value.partition("->")
                used, _, reason = rest.partition("|")
                if not arrow or not used.strip():
                    raise DataError(
                        f"line {lineno}: correction must read "
                        "'printed -> value | reason'"
                    )
                corrections[printed.strip()] = (
                    float(used),
                    reason.strip(),
                )
            else:
                header[key] = value
        else:
            tokens.extend(stripped.split())
    missing = [k for k in _REQUIRED_KEYS if k not in header]
    if missing:
        raise DataError(f"missing header keys: {', '.join(missing)}")
    return header, notes, corrections, tokens


def _vector_field(header, key):
    try:
        return np.array(parse_numbers(header[key]))
    except ValueError as exc:
        raise DataError(f"bad numeric list for {key!r}") from exc


def _build_bundle(header, notes, corrections, tokens):
    kind = header["kind"]
    if kind not in ("times", "counts"):
        raise DataError(f"kind must be 'times' or 'counts', got {kind!r}")
    analysis = header["analysis"]
    if analysis not in ("as-recorded", "drop-censored"):
        raise DataError("analysis must be 'as-recorded' or 'drop-censored'")
    n_total = int(header["n_total"])
    levels = _vector_field(header, "stress_levels")
    change_times = _vector_field(header, "change_times")
    inspection_times = _vector_field(header, "inspection_times")
    use_stress = float(header["use_stress"])
    # the physical plan is checked before its normalization can fail
    StressPlan(levels, change_times, inspection_times)

    convention = header["normalization"]
    if convention == "minmax":
        x_min, x_max = float(levels.min()), float(levels.max())
        needs = "at least two distinct stress levels"
    elif convention == "use-anchored":
        x_min, x_max = use_stress, float(levels.min())
        needs = "a use_stress below the lowest stress level"
    else:
        raise DataError(
            "normalization must be 'minmax' or 'use-anchored', "
            f"got {convention!r}"
        )
    if not x_max > x_min:
        raise DataError(f"{convention} normalization needs {needs}")
    mapping = NormalizationMap(x_min, x_max)
    plan = StressPlan(mapping(levels), change_times, inspection_times)

    used_values = []
    for token in tokens:
        if token in corrections:
            value, reason = corrections[token]
            notes = list(notes) + [f"recorded value {token} read as {value:g}: {reason}"]
            used_values.append(value)
        else:
            used_values.append(float(token))

    if kind == "times":
        recorded = _bin_times(used_values, n_total, plan.inspection_times)
    else:
        counts = np.array([float(v) for v in used_values])
        if len(counts) != plan.n_cells:
            raise DataError(
                f"{len(counts)} counts for a plan with "
                f"{plan.n_cells} cells (survivor cell included)"
            )
        if abs(counts.sum() - n_total) > 1e-9:
            raise DataError(
                f"counts sum to {counts.sum():g}, header says "
                f"n_total {n_total}"
            )
        recorded = IntervalData(counts, n_total)

    data, n_removed = recorded, 0
    if analysis == "drop-censored":
        n_removed = int(round(recorded.counts[-1]))
        counts = recorded.counts.copy()
        counts[-1] = 0
        data = IntervalData(counts, n_total - n_removed)

    return DatasetBundle(
        name=header["name"],
        description=header.get("description", ""),
        time_unit=header["time_unit"],
        stress_unit=header["stress_unit"],
        plan=plan,
        recorded=recorded,
        data=data,
        stress_map=mapping,
        x0=mapping(use_stress),
        x0_physical=use_stress,
        n_removed=n_removed,
        notes=tuple(notes),
    )
