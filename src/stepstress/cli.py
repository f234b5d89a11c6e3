"""Command-line front end: fitting, intervals, tests, tuning, influence,
simulation, and dataset listing.

Every emitted table starts with a metadata header (dataset or scenario
identity and hash, seed where randomness is involved, package version,
beta grid) so a result can be traced back to exactly what produced it.
Pretty tables round to 3 decimals; ``csv`` and ``json`` carry full
precision. The numbers are identical across formats — only the
formatting differs.

Exit codes: 0 success, 2 bad arguments or flag values, 3 data problems,
4 convergence failures, 5 numerical failures (including an ill-conditioned
fit, whose intervals and tests are refused), 1 any other library error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .datasets import BUNDLED_DATASETS, load_dataset, parse_numbers
from .errors import ConvergenceError, DataError, NumericError, StepStressError
from .estimation import FitConfig, fit, fit_path
from .influence import influence_report
from .lifetime import characteristic_ci, param_ci
from .montecarlo import BUNDLED_SCENARIOS, format_csv, load_scenario, run_scenario
from .tuning import TuningConfig, select_beta
from .wald import linear_constraint, wald_statistic

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4
EXIT_NUMERIC = 5


class UsageError(ValueError):
    """A flag value that parses as text but is semantically unusable."""


@dataclass
class Report:
    """A numeric table plus metadata, renderable as pretty/csv/json.

    ``row_labels`` only affects the pretty rendering (e.g. the "Optimal"
    row marker); csv and json always carry the numeric columns.
    """

    meta: dict
    columns: tuple
    rows: list
    row_labels: list | None = None

    def header(self) -> str:
        return "".join(f"# {key}: {value}\n" for key, value in self.meta.items())

    def to_csv(self) -> str:
        return self.header() + format_csv(self.columns, self.rows)

    def to_json(self) -> str:
        """Strict JSON: a missing or non-finite cell is null, never a bare NaN."""
        rows = [[float(v) if np.isfinite(v) else None for v in row] for row in self.rows]
        payload = {"meta": self.meta, "columns": list(self.columns), "rows": rows}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"

    def to_pretty(self) -> str:
        def cell(v):
            v = float(v)
            if np.isnan(v):
                return "-"
            if abs(v) < 1e12 and v == int(v):  # abs first: int(inf) overflows
                return f"{int(v)}"
            return f"{v:.3f}"

        header = list(self.columns)
        body = [[cell(v) for v in row] for row in self.rows]
        if self.row_labels is not None:
            header = ["row"] + header
            body = [[label] + row for label, row in zip(self.row_labels, body)]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in body)
        return self.header() + "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return getattr(self, f"to_{fmt}")()


def _dataset_hash(bundle) -> str:
    """Content hash of the analysis-ready design and counts."""
    digest = hashlib.sha256()
    for arr in (
        bundle.plan.stress_levels,
        bundle.plan.change_times,
        bundle.plan.inspection_times,
        bundle.data.counts,
    ):
        digest.update(np.asarray(arr, dtype=float).tobytes())
    digest.update(str(bundle.data.total).encode())
    return digest.hexdigest()[:16]


def _grid(betas) -> str:
    return ",".join(f"{b:g}" for b in betas)


def _meta(bundle, beta_grid: str, **settings) -> dict:
    """Report header of a dataset command: what was fitted, with what."""
    return {
        "dataset": bundle.name,
        "dataset_hash": _dataset_hash(bundle),
        "version": __version__,
        "beta_grid": beta_grid,
        **settings,
        "seed": "none",
    }


def _parse_float_list(raw: str, flag: str) -> tuple:
    try:
        return parse_numbers(raw)
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers: {exc}") from exc


def _parse_constraint(raw: str):
    values = _parse_float_list(raw, "--constraint")
    if len(values) != 4:
        raise UsageError(
            "--constraint expects 'c0,c1,c2,d' meaning c0*a0 + c1*a1 "
            f"+ c2*eta = d; got {len(values)} numbers"
        )
    return linear_constraint(values[:3], values[3])


def _load(args):
    bundle = load_dataset(args.data)
    x0 = bundle.x0 if args.x0 is None else bundle.stress_map(float(args.x0))
    return bundle, x0


def _fits(bundle, betas):
    """Converged fits at betas along one beta path; raises at the first failure."""
    configs = [FitConfig(beta=beta) for beta in betas]
    for beta, result in zip(betas, fit_path(bundle.plan, bundle.data, configs, fit)):
        if isinstance(result, Exception):
            raise result
        if not result.converged:
            raise ConvergenceError(f"fit at beta={beta:g} did not converge")
        yield result


def _characteristics(result, bundle, x0, args):
    """(label, estimate) for the mean, the reliability at --t and the
    quantile at --qrel; the reliability's estimate is None without --t."""
    for kind, extra, label in (
        ("mean", None, "mean"),
        ("reliability", args.t, "reliability(t={:g})"),
        ("quantile", args.qrel, "quantile(level={:g})"),
    ):
        if kind == "reliability" and extra is None:
            yield label, None
            continue
        yield label.format(extra), characteristic_ci(
            result, bundle.plan, x0, kind, extra, confidence=args.confidence
        )


FIT_COLUMNS = (
    "beta",
    "a0", "a0_lo", "a0_hi",
    "a1", "a1_lo", "a1_hi",
    "eta", "eta_lo", "eta_hi",
    "mean", "mean_direct_lo", "mean_direct_hi",
    "mean_transformed_lo", "mean_transformed_hi",
    "reliability", "reliability_direct_lo", "reliability_direct_hi",
    "reliability_transformed_lo", "reliability_transformed_hi",
    "quantile", "quantile_direct_lo", "quantile_direct_hi",
    "quantile_transformed_lo", "quantile_transformed_hi",
)


def cmd_fit(args) -> str:
    bundle, x0 = _load(args)
    optimal = None
    if args.beta:
        betas = _parse_float_list(args.beta, "--beta")
        results = _fits(bundle, betas)
    else:
        tuned = select_beta(bundle.plan, bundle.data)
        betas, optimal = (tuned.beta_opt,), tuned.beta_opt
        results = (tuned.fit_opt,)  # converged: it won the selection

    rows, labels = [], []
    for beta, result in zip(betas, results):
        cis = param_ci(result, args.confidence)
        theta = result.params.as_array()
        row = [beta]
        for i in range(3):
            row.extend([theta[i], cis[i, 0], cis[i, 1]])
        for _, est in _characteristics(result, bundle, x0, args):
            row.extend(
                [np.nan] * 5 if est is None
                else [est.value, *est.ci_direct, *est.ci_transformed]
            )
        rows.append(row)
        labels.append("Optimal" if beta == optimal else f"beta={beta:g}")

    meta = _meta(
        bundle,
        "optimal" if optimal is not None else _grid(betas),
        x0=f"{x0!r}",
        t="none" if args.t is None else f"{args.t!r}",
        qrel=f"{args.qrel!r}",
        confidence=f"{args.confidence!r}",
        devices=bundle.data.total,
    )
    return Report(meta, FIT_COLUMNS, rows, labels).render(args.format)


CI_COLUMNS = (
    "estimate", "std_error",
    "direct_lo", "direct_hi",
    "transformed_lo", "transformed_hi",
)


def cmd_ci(args) -> str:
    bundle, x0 = _load(args)
    (result,) = _fits(bundle, (args.beta,))
    cis = param_ci(result, args.confidence)
    theta = result.params.as_array()
    ses = result.standard_errors

    rows, labels = [], []
    for i, name in enumerate(("a0", "a1", "eta")):
        rows.append([theta[i], ses[i], cis[i, 0], cis[i, 1], np.nan, np.nan])
        labels.append(name)
    for label, est in _characteristics(result, bundle, x0, args):
        if est is not None:
            rows.append([est.value, est.std_error, *est.ci_direct, *est.ci_transformed])
            labels.append(label)

    meta = _meta(
        bundle,
        _grid([args.beta]),
        x0=f"{x0!r}",
        confidence=f"{args.confidence!r}",
        devices=bundle.data.total,
    )
    return Report(meta, CI_COLUMNS, rows, labels).render(args.format)


def cmd_test(args) -> str:
    bundle = load_dataset(args.data)
    constraint = _parse_constraint(args.constraint)
    (result,) = _fits(bundle, (args.beta,))
    test = wald_statistic(result, constraint)
    rows = [[
        test.statistic,
        test.df,
        test.p_value,
        float(test.reject_at(0.05)),
        args.alpha,
        float(test.reject_at(args.alpha)),
    ]]
    report = Report(
        _meta(bundle, _grid([args.beta]), constraint=args.constraint),
        ("statistic", "df", "p_value", "reject_5pct", "alpha", "reject_alpha"),
        rows,
    )
    text = report.render(args.format)
    if args.format == "pretty":
        verdict = "rejected" if test.reject_at(args.alpha) else "not rejected"
        text += (
            f"null hypothesis {verdict} at level {args.alpha:g} "
            f"(p={test.p_value:.4f})\n"
        )
    return text


def cmd_tune(args) -> str:
    bundle = load_dataset(args.data)
    config = TuningConfig(
        epsilon=args.epsilon,
        max_rounds=args.max_rounds,
    )
    if args.grid:
        config = replace(config, beta_grid=_parse_float_list(args.grid, "--grid"))
    tuned = select_beta(bundle.plan, bundle.data, config)
    theta = tuned.theta_opt.as_array()
    meta = _meta(
        bundle,
        _grid(config.beta_grid),
        beta_opt=f"{float(tuned.beta_opt)!r}",
        rounds=tuned.rounds,
        a0=f"{float(theta[0])!r}",
        a1=f"{float(theta[1])!r}",
        eta=f"{float(theta[2])!r}",
    )
    rows = [list(pair) for pair in tuned.mse_curve]
    return Report(meta, ("beta", "mse_estimate"), rows).render(args.format)


def cmd_influence(args) -> str:
    bundle = load_dataset(args.data)
    (result,) = _fits(bundle, (args.beta,))
    constraint = _parse_constraint(args.constraint) if args.constraint else None
    n_cells = bundle.plan.n_cells
    cells = [args.cell] if args.cell is not None else range(1, n_cells + 1)

    rows = []
    for cell in cells:
        rep = influence_report(
            result.params,
            bundle.plan,
            args.beta,
            int(cell),
            constraint=constraint,
            n_devices=bundle.data.total,
        )
        wald_so = np.nan if rep.if_wald_second_order is None else rep.if_wald_second_order
        rows.append([rep.cell, *rep.if_vector, wald_so, float(rep.ill_conditioned)])

    meta = _meta(
        bundle,
        _grid([args.beta]),
        constraint=args.constraint or "none",
        devices=bundle.data.total,
    )
    return Report(
        meta,
        ("cell", "if_a0", "if_a1", "if_eta", "wald_second_order", "ill_conditioned"),
        rows,
    ).render(args.format)


def cmd_simulate(args) -> str:
    spec = load_scenario(args.scenario)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.replications is not None:
        spec = replace(spec, replications=args.replications)

    meta = {
        "scenario": args.scenario,
        "version": __version__,
        "beta_grid": _grid(spec.beta_grid),
        "replications": spec.replications,
        "devices": spec.n_devices,
        "seed": spec.seed,
    }
    if args.sweep:
        parameter, values = _parse_sweep(args.sweep)
        meta[f"sweep_{parameter}"] = _grid(values)
        blocks = []
        for value in values:
            table = run_scenario(_swept_spec(spec, parameter, value), n_jobs=args.jobs)
            blocks.append(np.column_stack([np.full(len(table.rows), value), table.rows]))
        columns = (f"sweep_{parameter}", *table.columns)
        report = Report(meta, columns, np.concatenate(blocks))
    else:
        table = run_scenario(spec, n_jobs=args.jobs)
        report = Report(meta, table.columns, table.rows)
    return report.to_csv()


def _parse_sweep(raw: str):
    name, _, raw_values = raw.partition("=")
    name = name.strip()
    values = ()
    if name in ("a0", "a1", "eta"):
        values = _parse_float_list(raw_values, "--sweep")
    if not values:
        raise UsageError(
            "--sweep expects 'a0=v1,v2,...', 'a1=...' or 'eta=...' giving "
            "the contaminating values to sweep over"
        )
    return name, values


def _swept_spec(spec, parameter: str, value: float):
    base = spec.theta_tilde if spec.theta_tilde is not None else spec.theta_true
    tilde = replace(base, **{parameter: float(value)})
    cell = spec.contaminated_cell if spec.contaminated_cell is not None else 3
    return replace(spec, theta_tilde=tilde, contaminated_cell=cell)


def cmd_datasets(args) -> str:
    bundles = [load_dataset(name) for name in BUNDLED_DATASETS]
    specs = [load_scenario(name) for name in BUNDLED_SCENARIOS]
    entries = [
        {
            "name": name,
            "devices": bundle.data.total,
            "cells": bundle.plan.n_cells,
            "stress_levels": len(bundle.plan.stress_levels),
            "time_unit": bundle.time_unit,
            "hash": _dataset_hash(bundle),
            "description": bundle.description,
        }
        for name, bundle in zip(BUNDLED_DATASETS, bundles)
    ]
    scenarios = [
        {
            "name": name,
            "replications": spec.replications,
            "devices": spec.n_devices,
            "seed": spec.seed,
            "beta_grid": _grid(spec.beta_grid),
            "contaminated_cell": spec.contaminated_cell,
        }
        for name, spec in zip(BUNDLED_SCENARIOS, specs)
    ]
    if args.format == "json":
        payload = {"version": __version__, "datasets": entries, "scenarios": scenarios}
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# version: {__version__}", "bundled datasets:"]
    for e in entries:
        lines.append(
            f"  {e['name']:<12} {e['devices']:>3} devices, "
            f"{e['cells']:>2} cells, {e['stress_levels']} stress levels, "
            f"times in {e['time_unit']} [{e['hash']}]"
        )
        lines.append(f"    {e['description']}")
    lines.append("bundled scenarios:")
    for s in scenarios:
        contaminated = (
            "clean" if s["contaminated_cell"] is None
            else f"cell {s['contaminated_cell']} contaminated"
        )
        lines.append(
            f"  {s['name']:<18} R={s['replications']}, N={s['devices']}, "
            f"seed={s['seed']}, beta={s['beta_grid']}, {contaminated}"
        )
    return "\n".join(lines) + "\n"


def _add_characteristic_flags(sub):
    sub.add_argument("--x0", type=float, default=None,
                     help="physical use stress (default: the dataset's convention)")
    sub.add_argument("--t", type=float, default=None,
                     help="mission time for the reliability column")
    sub.add_argument("--qrel", type=float, default=0.95,
                     help="reliability level for the quantile column (default 0.95)")
    sub.add_argument("--confidence", type=float, default=0.95)


def _add_common(sub):
    sub.add_argument(
        "--data",
        required=True,
        help="bundled dataset name (solar, transistor, led) or a dataset file",
    )
    sub.add_argument(
        "--format",
        choices=("pretty", "csv", "json"),
        default="pretty",
        help="output format (default: pretty; csv/json keep full precision)",
    )
    sub.add_argument("--output", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepstress",
        description=(
            "Robust inference for step-stress accelerated life tests on "
            "one-shot devices under Weibull lifetimes."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"stepstress {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="fit the estimator family across a beta grid")
    _add_common(p)
    p.add_argument(
        "--beta",
        default="",
        help="comma-separated beta values; empty selects beta by tuning "
        "and labels the row 'Optimal'",
    )
    _add_characteristic_flags(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("ci", help="parameter and characteristic intervals at one beta")
    _add_common(p)
    p.add_argument("--beta", type=float, default=0.0)
    _add_characteristic_flags(p)
    p.set_defaults(func=cmd_ci)

    p = subs.add_parser("test", help="Wald test of a linear parameter constraint")
    _add_common(p)
    p.add_argument(
        "--constraint",
        required=True,
        help="'c0,c1,c2,d' meaning c0*a0 + c1*a1 + c2*eta = d",
    )
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_test)

    p = subs.add_parser("tune", help="select beta by iterated mean-squared-error tuning")
    _add_common(p)
    p.add_argument("--grid", default="", help="comma-separated beta grid")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--max-rounds", type=int, default=20)
    p.set_defaults(func=cmd_tune)

    p = subs.add_parser("influence", help="per-cell influence of the fitted estimator")
    _add_common(p)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--cell", type=int, default=None,
                   help="1-based cell (default: every cell)")
    p.add_argument(
        "--constraint",
        default=None,
        help="optional 'c0,c1,c2,d' to add the second-order Wald influence column",
    )
    p.set_defaults(func=cmd_influence)

    p = subs.add_parser("simulate", help="run a simulation scenario; emits CSV")
    p.add_argument(
        "--scenario",
        required=True,
        help="bundled scenario name (see 'datasets') or an INI file",
    )
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--replications", type=int, default=None,
                   help="override the replication count")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--sweep",
        default=None,
        help="sweep the contaminating parameter, e.g. 'a0=5.7,6,6.5,7,8'; "
        "one table block per value with a leading sweep column",
    )
    p.add_argument("--output", help="write the CSV to this file instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("datasets", help="list bundled datasets and scenarios")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.add_argument("--output", help="write the listing to this file instead of stdout")
    p.set_defaults(func=cmd_datasets)

    return parser


#: exit code of each failure; the first matching row wins, so DataError (a
#: ValueError) comes before ValueError, which covers UsageError
EXIT_CODES = (
    (DataError, EXIT_DATA),
    (ConvergenceError, EXIT_CONVERGENCE),
    (NumericError, EXIT_NUMERIC),
    (StepStressError, EXIT_ERROR),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_DATA),
)


def main(argv=None) -> int:
    """Run one command; every command returns its text and only this writes it."""
    try:
        args = build_parser().parse_args(argv)
        text = args.func(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except (SystemExit, *(kind for kind, _ in EXIT_CODES)) as exc:
        if isinstance(exc, SystemExit):  # argparse has printed usage or help
            return int(exc.code or 0)
        print(f"stepstress: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
