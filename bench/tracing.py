"""Outside-in tracing: spans around calls into each ``stepstress`` module.

The tracer replaces a public function at the name where its caller looks
it up (``stepstress.montecarlo.fit_proportions``, ``stepstress.cli.
select_beta``, ...) with a wrapper that records a span: an id, the id of
the enclosing span, a name, a start, an end and a few attributes read from
the arguments or the result. Nothing under ``src/`` changes, and removing
the wrappers restores the original functions.

Spans are kept in memory and written out when the run ends. A span is a
tuple ``(id, parent, name, start, end, attrs)``; times come from
``time.perf_counter``. Only the calling process is traced: the traced
workloads run no process pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

ID, PARENT, NAME, START, END, ATTRS = range(6)


def _fit_attrs(args, kwargs, result):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    if config is None:
        config = importlib.import_module("stepstress.estimation").FitConfig()
    return {"multistart": config.multistart, "converged": bool(result.converged)}


def _minimize_attrs(args, kwargs, result):
    return {"nit": int(result.nit)}


def _select_attrs(args, kwargs, result):
    return {"rounds": int(result.rounds)}


# (module, attribute, span name, attribute reader). Every function the CLI
# calls into another module is wrapped, also where no metric reads its own
# span (param_ci, load_scenario), so that cli.self_ms holds only the time
# spent in cli itself.
TRACE_POINTS = (
    ("stepstress.cli", "load_dataset", "datasets.load_dataset", None),
    ("stepstress.cli", "fit", "estimation.fit", None),
    ("stepstress.cli", "select_beta", "tuning.select_beta", _select_attrs),
    ("stepstress.cli", "characteristic_ci", "lifetime.characteristic_ci", None),
    ("stepstress.cli", "param_ci", "lifetime.param_ci", None),
    ("stepstress.cli", "wald_statistic", "wald.wald_statistic", None),
    ("stepstress.cli", "influence_report", "influence.influence_report", None),
    ("stepstress.cli", "load_scenario", "montecarlo.load_scenario", None),
    ("stepstress.cli", "run_scenario", "montecarlo.run_scenario", None),
    ("stepstress.tuning", "fit", "estimation.fit", None),
    ("stepstress.estimation", "fit_proportions", "estimation.fit_proportions", _fit_attrs),
    ("stepstress.estimation", "sandwich_matrices", "estimation.sandwich_matrices", None),
    ("stepstress.estimation", "cell_probabilities", "model.cell_probabilities", None),
    ("stepstress.estimation", "gradient_matrix", "model.gradient_matrix", None),
    ("stepstress.model", "shift_terms", "model.shift_terms", None),
    ("stepstress.montecarlo", "_replicate", "montecarlo.replicate", None),
    ("stepstress.montecarlo", "fit_proportions", "estimation.fit_proportions", _fit_attrs),
    ("stepstress.montecarlo", "characteristic_ci", "lifetime.characteristic_ci", None),
    ("stepstress.montecarlo", "wald_statistic", "wald.wald_statistic", None),
    ("stepstress.montecarlo", "cell_probabilities", "model.cell_probabilities", None),
    ("stepstress.wald", "sandwich_matrices", "estimation.sandwich_matrices", None),
    ("stepstress.influence", "sandwich_matrices", "estimation.sandwich_matrices", None),
    ("stepstress.influence", "cell_probabilities", "model.cell_probabilities", None),
    ("stepstress.influence", "gradient_matrix", "model.gradient_matrix", None),
)

# scipy solvers, looked up by estimation as ``optimize.minimize`` / ``.root``;
# their spans count as estimation time, since they run its objective code
SOLVER_POINTS = (
    ("minimize", "estimation.scipy_minimize", _minimize_attrs),
    ("root", "estimation.scipy_root", None),
)


FIT_SPANS = ("estimation.fit", "estimation.fit_proportions")


class _ModuleProxy:
    """Stands in for a module: chosen attributes replaced, the rest forwarded."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._ids = itertools.count()
        self._restore = []

    def wrap(self, func, name, attrs=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if attrs is not None:
                    info = attrs(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, info))

        return traced

    def install(self):
        for module_name, attr, name, attrs in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, attrs))
        estimation = importlib.import_module("stepstress.estimation")
        solvers = estimation.optimize
        overrides = {
            attr: self.wrap(getattr(solvers, attr), name, attrs)
            for attr, name, attrs in SOLVER_POINTS
        }
        self._restore.append((estimation, "optimize", solvers))
        estimation.optimize = _ModuleProxy(solvers, overrides)

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write(self, path: Path):
        """Write every span, one JSON line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTree:
    """Indexes spans by id and parent for the per-layer aggregates."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {span[ID]: span for span in spans}
        self.children = defaultdict(list)
        for span in spans:
            if span[PARENT] is not None:
                self.children[span[PARENT]].append(span)

    def named(self, name):
        return [span for span in self.spans if span[NAME] == name]

    def layer_self(self, span) -> float:
        """Time in this span and its same-layer descendants, outside other layers."""
        covered = 0.0
        for child in self.children[span[ID]]:
            duration = child[END] - child[START]
            if _layer(child[NAME]) == _layer(span[NAME]):
                covered += duration - self.layer_self(child)
            else:
                covered += duration
        return span[END] - span[START] - covered

    def outermost(self, layer):
        """Spans of a layer whose parent is in another layer."""
        out = []
        for span in self.spans:
            if _layer(span[NAME]) != layer:
                continue
            parent = self.by_id.get(span[PARENT])
            if parent is None or _layer(parent[NAME]) != layer:
                out.append(span)
        return out

    def ancestor(self, span, name):
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] == name:
                return parent
            parent = self.by_id.get(parent[PARENT])
        return None

    def counts_under(self, name):
        """For each span called ``name``: counts of descendant span names."""
        counts = {span[ID]: Counter() for span in self.named(name)}
        for span in self.spans:
            owner = self.ancestor(span, name)
            if owner is not None:
                counts[owner[ID]][span[NAME]] += 1
        return counts


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def per_layer(spans, operations: int) -> dict:
    """The per-layer metrics of one traced run; counts are per operation."""
    tree = SpanTree(spans)
    durations = defaultdict(list)
    for span in spans:
        durations[span[NAME]].append(span[END] - span[START])

    def calls(name):
        return len(durations[name]) / operations

    fits = tree.named("estimation.fit_proportions")
    # self time per fit: a sandwich reached from wald or influence is not a fit
    fit_roots = [s for s in tree.outermost("estimation") if s[NAME] in FIT_SPANS]
    under_fit = tree.counts_under("estimation.fit_proportions")
    n_fits = max(len(fits), 1)
    minimize_per_fit = {sid: c["estimation.scipy_minimize"] for sid, c in under_fit.items()}
    nit = sum(s[ATTRS]["nit"] for s in tree.named("estimation.scipy_minimize") if s[ATTRS])
    selects = tree.named("tuning.select_beta")
    rounds = [s[ATTRS]["rounds"] for s in selects if s[ATTRS]]
    under_select = tree.counts_under("tuning.select_beta")
    under_wald = tree.counts_under("wald.wald_statistic")

    return {
        "model.shift_terms.calls": calls("model.shift_terms"),
        "model.cell_probabilities.calls": calls("model.cell_probabilities"),
        "model.cell_probabilities.us": _median(durations["model.cell_probabilities"], 1e6),
        "model.gradient_matrix.calls": calls("model.gradient_matrix"),
        "model.gradient_matrix.us": _median(durations["model.gradient_matrix"], 1e6),
        "estimation.fit.ms": _median(durations["estimation.fit"], 1e3),
        "estimation.fit_proportions.ms": _median(durations["estimation.fit_proportions"], 1e3),
        "estimation.self_ms": _median([tree.layer_self(s) for s in fit_roots], 1e3),
        "estimation.model_evals_per_fit": sum(
            c["model.cell_probabilities"] for c in under_fit.values()
        ) / n_fits,
        "estimation.minimize_calls_per_fit": sum(minimize_per_fit.values()) / n_fits,
        "estimation.lbfgs_iters_per_fit": nit / n_fits,
        "estimation.root_calls_per_fit": sum(c["estimation.scipy_root"] for c in under_fit.values()) / n_fits,
        "estimation.rescue_fits": sum(
            1 for s in fits
            if s[ATTRS] is not None and minimize_per_fit[s[ID]] > s[ATTRS]["multistart"]
        ) / operations,
        "estimation.nonconverged_fits": sum(
            1 for s in fits if s[ATTRS] is not None and not s[ATTRS]["converged"]
        ) / operations,
        "estimation.sandwich_matrices.calls": calls("estimation.sandwich_matrices"),
        "tuning.select_beta.ms": _median(durations["tuning.select_beta"], 1e3),
        "tuning.fits_per_select": (
            sum(c["estimation.fit"] for c in under_select.values()) / len(selects)
            if selects else 0.0
        ),
        "tuning.rounds": statistics.mean(rounds) if rounds else 0.0,
        "lifetime.characteristic_ci.calls": calls("lifetime.characteristic_ci"),
        "lifetime.characteristic_ci.us": _median(durations["lifetime.characteristic_ci"], 1e6),
        "wald.wald_statistic.calls": calls("wald.wald_statistic"),
        "wald.wald_statistic.us": _median(durations["wald.wald_statistic"], 1e6),
        "wald.sandwich_recomputes": sum(
            c["estimation.sandwich_matrices"] for c in under_wald.values()
        ) / operations,
        "influence.influence_report.ms": _median(durations["influence.influence_report"], 1e3),
        "datasets.load_dataset.ms": _median(durations["datasets.load_dataset"], 1e3),
        "cli.self_ms": _median([tree.layer_self(s) for s in tree.named("cli.main")], 1e3),
        "montecarlo.run_scenario.s": _median(durations["montecarlo.run_scenario"]),
        "montecarlo.replicate.ms": _median(durations["montecarlo.replicate"], 1e3),
        "montecarlo.self_ms": _median(
            [tree.layer_self(s) for s in tree.named("montecarlo.run_scenario")], 1e3
        ),
    }
