"""Tests of the benchmark itself: tiny runs, and checks fed planted errors.

    python3 -m pytest bench -q

Each output check must pass on the program's real output and fail when one
number in it is moved by a plausible error. The end-to-end tests run the
benchmark command the way it is run for measurements, at a tiny length.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stepstress import cli  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _replace_cell(text, row, column, transform):
    """Apply ``transform`` to one numeric cell of a csv table (row 0 = first data row)."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(float(transform(float(cells[col]))))
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _replace_meta(text, key, value):
    return "\n".join(
        f"# {key}: {value}" if line.startswith(f"# {key}: ") else line
        for line in text.splitlines()
    ) + "\n"


@pytest.fixture(scope="module")
def analysis():
    """One analysis round at seed 7, run in-process."""
    workload = workloads.make("analysis", 7, cli.main)
    round_ = workload.run_round(cli.main)
    assert round_.failed == 0, round_.errors
    return workload, round_.outputs


def _dataset(analysis, name="solar"):
    workload, outputs = analysis
    i = [d.name for d in workload.inputs].index(name)
    fit, fit_tuned, ci, test, tune, influence = outputs[6 * i : 6 * i + 6]
    return workload.inputs[i], dict(
        fit=fit, fit_tuned=fit_tuned, ci=ci, test=test, tune=tune, influence=influence
    )


class TestOracle:
    def test_cells_match_the_model(self):
        from stepstress.datasets import load_dataset
        from stepstress.model import ModelParams, cell_probabilities

        rng = np.random.default_rng(3)
        for name in workloads.DATASETS:
            plan = load_dataset(name).plan
            for _ in range(20):
                theta = np.array([rng.uniform(0.5, 3.0), rng.uniform(-3.0, -0.1), rng.uniform(0.5, 3.0)])
                np.testing.assert_allclose(
                    oracle.cell_probabilities(theta, plan),
                    cell_probabilities(ModelParams(*theta), plan),
                    rtol=1e-10, atol=1e-14,
                )

    def test_central_differences_match_the_analytic_gradient(self):
        from stepstress.datasets import load_dataset
        from stepstress.model import ModelParams, gradient_matrix

        plan = load_dataset("solar").plan
        theta = np.array([1.8, -2.4, 1.5])
        np.testing.assert_allclose(
            oracle.gradient_matrix(theta, plan),
            gradient_matrix(ModelParams(*theta), plan),
            rtol=1e-6, atol=1e-9,
        )


class TestAnalysisChecks:
    def test_real_outputs_pass(self, analysis):
        workload, outputs = analysis
        assert workload.check(outputs) == []

    def test_a0_moved_by_one_standard_error_fails(self, analysis):
        inputs, out = _dataset(analysis)
        ci = checks.Table(out["ci"])
        se = ci.rows[0, 1]
        planted = _replace_cell(out["fit"], 0, "a0", lambda v: v + se)
        assert any("gradient norm" in p for p in checks.check_fit(planted, inputs))

    def test_interval_that_misses_its_estimate_fails(self, analysis):
        inputs, out = _dataset(analysis)
        planted = _replace_cell(out["ci"], 3, "direct_hi", lambda v: v / 2.0)
        assert any("misses its estimate" in p for p in checks.check_ci(planted, inputs))

    def test_reliability_interval_outside_unit_interval_fails(self, analysis):
        inputs, out = _dataset(analysis)
        planted = _replace_cell(out["fit"], 0, "reliability_transformed_hi", lambda v: 1.01)
        assert any("leaves [0, 1]" in p for p in checks.check_fit(planted, inputs))

    def test_wrong_mean_lifetime_fails(self, analysis):
        inputs, out = _dataset(analysis)
        planted = _replace_cell(out["fit"], 1, "mean", lambda v: v * (1 + 1e-6))
        assert any("closed form" in p for p in checks.check_fit(planted, inputs))

    def test_wald_statistic_off_by_one_percent_fails(self, analysis):
        inputs, out = _dataset(analysis)
        planted = _replace_cell(out["test"], 0, "statistic", lambda v: v * 1.01)
        assert any("statistic" in p for p in checks.check_test(planted, out["ci"], inputs))

    def test_p_value_from_the_wrong_distribution_fails(self, analysis):
        from scipy import stats

        inputs, out = _dataset(analysis)
        stat = checks.Table(out["test"]).rows[0, 0]
        planted = _replace_cell(out["test"], 0, "p_value", lambda v: float(stats.chi2.sf(stat, 2)))
        assert any("p-value" in p for p in checks.check_test(planted, out["ci"], inputs))

    def test_beta_opt_off_the_curve_minimum_fails(self, analysis):
        inputs, out = _dataset(analysis)
        table = checks.Table(out["tune"])
        worst = table.column("beta")[int(np.argmax(table.column("mse_estimate")))]
        planted = _replace_meta(out["tune"], "beta_opt", repr(float(worst)))
        problems, _ = checks.check_tune(planted, inputs)
        assert any("not the curve minimum" in p for p in problems)

    def test_tuned_fit_at_another_beta_fails(self, analysis):
        inputs, out = _dataset(analysis)
        _, beta_opt = checks.check_tune(out["tune"], inputs)
        problems = checks.check_fit(out["fit_tuned"], inputs, tuned_beta=beta_opt + 0.1)
        assert any("tuned fit" in p for p in problems)

    def test_influence_row_shifted_fails(self, analysis):
        inputs, out = _dataset(analysis)
        planted = _replace_cell(out["influence"], 2, "if_a0", lambda v: v + 0.1 * abs(v) + 1e-3)
        assert any("sum_n pi_n IF(n)" in p for p in checks.check_influence(planted, out["ci"], inputs))


def _simulate(scenario, replications, jobs=1, seed=5):
    code, out, err, _ = workloads.run_command(cli.main, [
        "simulate", "--scenario", scenario, "--seed", str(seed),
        "--replications", str(replications), "--jobs", str(jobs),
    ])
    assert code == 0, err
    return out


class TestSimulationChecks:
    @pytest.fixture(scope="class")
    def clean(self):
        return workloads.make("mc-serial", 5, cli.main).scenario

    def test_clean_table_passes(self, clean):
        assert checks.check_simulation(_simulate("clean", 30), clean) == []

    def test_contaminated_table_checked_as_clean_fails(self, clean):
        problems = checks.check_simulation(_simulate("contaminated_a0", 30), clean)
        assert any("beta=0:" in p for p in problems)

    def test_coverage_far_from_nominal_fails(self, clean):
        planted = _replace_cell(_simulate("clean", 30), 0, "coverage_reliability_transformed", lambda v: 0.7)
        assert any("coverage" in p for p in checks.check_simulation(planted, clean))

    def test_excluded_fits_fail(self, clean):
        text = _simulate("clean", 30)
        planted = _replace_cell(text, 1, "n_failed", lambda v: 2.0)
        assert any("excluded" in p for p in checks.check_simulation(planted, clean))
        planted = _replace_cell(text, 4, "unreliable", lambda v: 1.0)
        assert any("excluded" in p for p in checks.check_simulation(planted, clean))
        one = _replace_cell(text, 1, "n_failed", lambda v: 1.0)
        assert checks.check_simulation(one, clean) == []

    def test_rmse_scaled_fails(self, clean):
        planted = _replace_cell(_simulate("clean", 30), 3, "rmse_overall", lambda v: 2.0 * v)
        assert any("RMSE" in p for p in checks.check_simulation(planted, clean))

    def test_parallel_table_must_match_byte_for_byte(self, monkeypatch):
        monkeypatch.setattr(workloads, "REPLICATIONS", 4)
        workload = workloads.make("mc-serial", 5, cli.main)
        text = workload.run_round(cli.main).outputs[0]
        planted = text.replace("0.", "0.0", 1)
        assert any("differs" in p for p in workload.check([planted]))

    def test_binomial_band(self):
        assert not checks.binomial_band_miss(0.95, 60, 0.95, 12)
        assert not checks.binomial_band_miss(8 / 60, 60, 0.05, 12)
        assert checks.binomial_band_miss(20 / 60, 60, 0.05, 12)
        assert checks.binomial_band_miss(0.7, 60, 0.95, 12)


class TestTracing:
    def test_install_and_uninstall_restore_the_originals(self):
        import stepstress.estimation as estimation
        import stepstress.montecarlo as montecarlo

        before = (montecarlo.fit_proportions, estimation.optimize, cli.select_beta)
        tracer = tracing.Tracer()
        tracer.install()
        assert montecarlo.fit_proportions is not before[0]
        tracer.uninstall()
        assert (montecarlo.fit_proportions, estimation.optimize, cli.select_beta) == before

    def test_traced_fit_records_nested_spans(self):
        from stepstress.datasets import load_dataset

        bundle = load_dataset("solar")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli.fit(bundle.plan, bundle.data)
        finally:
            tracer.uninstall()
        metrics = tracing.per_layer(tracer.spans, 1)
        assert metrics["estimation.minimize_calls_per_fit"] == 5
        assert metrics["model.shift_terms.calls"] == 2 * metrics["model.cell_probabilities.calls"]
        assert metrics["estimation.model_evals_per_fit"] > 20

    def test_layer_self_time_excludes_other_layers_only(self):
        spans = [
            (1, 0, "estimation.fit", 0.0, 10.0, None),
            (2, 1, "estimation.fit_proportions", 1.0, 9.0, None),
            (3, 2, "model.cell_probabilities", 2.0, 5.0, None),
            (4, 2, "estimation.scipy_minimize", 5.0, 8.0, None),
            (5, 4, "model.gradient_matrix", 6.0, 7.0, None),
            (0, None, "cli.main", -1.0, 11.0, None),
        ]
        tree = tracing.SpanTree(spans)
        assert tree.layer_self(spans[0]) == pytest.approx(10.0 - 3.0 - 1.0)
        assert tree.layer_self(spans[5]) == pytest.approx(12.0 - 10.0)
        assert [s[tracing.ID] for s in tree.outermost("estimation")] == [1]

    def test_estimation_self_time_counts_fits_only(self):
        # two replications, each a 15 ms fit (20 ms less 5 ms in the model)
        # and a 0.5 ms sandwich under wald; span times are in seconds
        ms = 1e-3
        spans = []
        for r, t in enumerate((0.0, 100.0)):
            base = 10 * r
            spans += [
                (base + 1, None, "montecarlo.replicate", t * ms, (t + 50.0) * ms, None),
                (base + 2, base + 1, "estimation.fit_proportions", t * ms, (t + 20.0) * ms, None),
                (base + 3, base + 2, "model.cell_probabilities", (t + 1.0) * ms, (t + 6.0) * ms, None),
                (base + 4, base + 1, "wald.wald_statistic", (t + 30.0) * ms, (t + 40.0) * ms, None),
                (base + 5, base + 4, "estimation.sandwich_matrices", (t + 31.0) * ms, (t + 31.5) * ms, None),
            ]
        metrics = tracing.per_layer(spans, 2)
        assert metrics["estimation.self_ms"] == pytest.approx(15.0)


class TestCommand:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    @pytest.mark.parametrize("trace", (0, 1))
    def test_tiny_run_prints_every_metric(self, workload, trace):
        done = _run_bench(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in _spec()[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = _run_bench("analysis", 0, cwd=tmp_path)
        assert done.returncode != 0
        assert "correct" not in done.stdout

    def test_workloads_match_the_spec(self):
        assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)
