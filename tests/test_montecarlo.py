"""Tests for scenario simulation: contamination, metrics, scenario files."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from stepstress.errors import DataError
from stepstress.model import IntervalData, ModelParams, cdf, cell_probabilities
from stepstress.montecarlo import (
    BUNDLED_SCENARIOS,
    METRIC_COLUMNS,
    MetricsTable,
    ScenarioSpec,
    contaminate,
    load_scenario,
    run_scenario,
    simulate_counts,
)

from conftest import SIM_PLAN, SIM_THETA

CLEAN_PI = cell_probabilities(SIM_THETA, SIM_PLAN)


class TestContaminate:
    def test_shifted_scale_empties_the_cell(self):
        """Raising a0 stretches lifetimes, draining early-interval mass."""
        out = contaminate(CLEAN_PI, ModelParams(6.5, -0.05, 1.5), SIM_PLAN, 3)
        assert out[2] == pytest.approx(0.011798551748928212, rel=1e-12)
        assert out[2] < CLEAN_PI[2]
        out = contaminate(CLEAN_PI, ModelParams(8.0, -0.05, 1.5), SIM_PLAN, 3)
        assert out[2] == pytest.approx(0.0012831765867193216, rel=1e-12)

    def test_shorter_lifetimes_inflate_the_cell(self):
        out = contaminate(CLEAN_PI, ModelParams(4.0, -0.05, 1.5), SIM_PLAN, 3)
        assert out[2] == pytest.approx(0.1634762746663962, rel=1e-12)
        assert out[2] > CLEAN_PI[2]

    def test_identity_contamination_is_a_noop(self):
        out = contaminate(CLEAN_PI, SIM_THETA, SIM_PLAN, 3)
        # the cell keeps its value; renormalizing by a sum that is 1 only
        # up to rounding keeps the result from being bit-exact
        np.testing.assert_allclose(out, CLEAN_PI, atol=1e-15)

    def test_result_is_a_probability_vector(self):
        for cell in (2, 3, 7, 13):
            out = contaminate(
                CLEAN_PI, ModelParams(6.0, -0.02, 2.0), SIM_PLAN, cell
            )
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(out >= 0.0)

    def test_untouched_cells_keep_their_ratios(self):
        out = contaminate(CLEAN_PI, ModelParams(6.5, -0.05, 1.5), SIM_PLAN, 3)
        keep = np.arange(len(CLEAN_PI)) != 2
        ratios = out[keep] / CLEAN_PI[keep]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_boundary_cells_warn_but_work(self):
        tilde = ModelParams(6.5, -0.05, 1.5)
        with pytest.warns(UserWarning, match="boundary cell"):
            out = contaminate(CLEAN_PI, tilde, SIM_PLAN, 14)
        raw = 1.0 - float(cdf(tilde, SIM_PLAN, 52.0))
        total = CLEAN_PI.sum() - CLEAN_PI[13] + raw
        assert out[13] == pytest.approx(raw / total, rel=1e-13)

        with pytest.warns(UserWarning, match="boundary cell"):
            out = contaminate(CLEAN_PI, tilde, SIM_PLAN, 1)
        raw = float(cdf(tilde, SIM_PLAN, 6.0))
        total = CLEAN_PI.sum() - CLEAN_PI[0] + raw
        assert out[0] == pytest.approx(raw / total, rel=1e-13)

    @pytest.mark.parametrize("cell", [0, -1, 15])
    def test_cell_out_of_range(self, cell):
        with pytest.raises(ValueError, match="1-based index"):
            contaminate(CLEAN_PI, SIM_THETA, SIM_PLAN, cell)

    def test_wrong_vector_length(self):
        with pytest.raises(DataError, match="cells"):
            contaminate(CLEAN_PI[:-1], SIM_THETA, SIM_PLAN, 3)

    def test_negative_entry_rejected(self):
        pi = CLEAN_PI.copy()
        pi[0] = -0.01
        with pytest.raises(DataError, match="non-negative"):
            contaminate(pi, SIM_THETA, SIM_PLAN, 3)


class TestSimulateCounts:
    def test_counts_form_interval_data(self):
        data = simulate_counts(CLEAN_PI, 200, np.random.default_rng(0))
        assert isinstance(data, IntervalData)
        assert data.counts.sum() == 200
        assert data.total == 200
        np.testing.assert_array_equal(data.counts, np.round(data.counts))

    def test_deterministic_given_stream(self):
        a = simulate_counts(CLEAN_PI, 200, np.random.default_rng(123))
        b = simulate_counts(CLEAN_PI, 200, np.random.default_rng(123))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_fractional_device_count_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="whole number of devices, got 200.5"):
            simulate_counts(CLEAN_PI, 200.5, np.random.default_rng(0))
        data = simulate_counts(CLEAN_PI, 200.0, np.random.default_rng(0))
        assert data.total == 200 and type(data.total) is int

    def test_mean_counts_track_probabilities(self):
        rng = np.random.default_rng(99)
        total = np.zeros_like(CLEAN_PI)
        draws = 2000
        for _ in range(draws):
            total += simulate_counts(CLEAN_PI, 200, rng).counts
        np.testing.assert_allclose(total / (200 * draws), CLEAN_PI, atol=2.5e-3)


class TestScenarioSpec:
    def test_defaults(self):
        spec = ScenarioSpec(
            plan=SIM_PLAN, theta_true=SIM_THETA, replications=10, seed=1
        )
        assert spec.n_devices == 200
        assert spec.beta_grid == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert spec.null_slope == -0.05
        assert (spec.x0, spec.t_eval) == (20.0, 40.0)
        assert spec.is_null_scenario

    def test_non_null_scenario(self):
        spec = ScenarioSpec(
            plan=SIM_PLAN,
            theta_true=ModelParams(5.3, -0.09, 1.5),
            replications=10,
            seed=1,
        )
        assert not spec.is_null_scenario

    def test_generating_probabilities_clean(self):
        spec = ScenarioSpec(
            plan=SIM_PLAN, theta_true=SIM_THETA, replications=10, seed=1
        )
        np.testing.assert_array_equal(spec.generating_probabilities(), CLEAN_PI)

    def test_generating_probabilities_contaminated(self):
        tilde = ModelParams(8.0, -0.05, 1.5)
        spec = ScenarioSpec(
            plan=SIM_PLAN,
            theta_true=SIM_THETA,
            replications=10,
            seed=1,
            theta_tilde=tilde,
            contaminated_cell=3,
        )
        np.testing.assert_array_equal(
            spec.generating_probabilities(),
            contaminate(CLEAN_PI, tilde, SIM_PLAN, 3),
        )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"replications": 0}, "replications"),
            ({"n_devices": 0}, "n_devices"),
            ({"theta_tilde": SIM_THETA}, "together"),
            ({"contaminated_cell": 3}, "together"),
            ({"beta_grid": ()}, "beta_grid"),
            ({"beta_grid": (-0.1, 0.5)}, "beta_grid"),
            ({"beta_grid": (np.nan, 0.5)}, "finite"),
            ({"beta_grid": (0.0, np.inf)}, "finite"),
            ({"seed": -1}, "seed must be non-negative"),
            ({"theta_tilde": SIM_THETA, "contaminated_cell": 99}, r"in \[1, 14\], got 99"),
            ({"theta_tilde": SIM_THETA, "contaminated_cell": 0}, "1-based"),
            ({"x0": np.inf}, "x0 must be finite"),
            ({"x0": np.nan}, "x0 must be finite"),
            ({"null_slope": np.nan}, "null_slope must be finite"),
            ({"t_eval": 0.0}, "t must be positive and finite"),
            ({"t_eval": -1.0}, "t must be positive and finite"),
            ({"t_eval": np.nan}, "t must be positive and finite"),
            ({"t_eval": np.inf}, "t must be positive and finite"),
            ({"theta_tilde": SIM_THETA, "contaminated_cell": 2.7}, "integer index"),
            ({"n_devices": 200.5}, "n_devices must be a whole number, got 200.5"),
            ({"replications": 2.5}, "replications must be a whole number, got 2.5"),
            ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
        ],
    )
    def test_validation(self, kwargs, match):
        base = dict(plan=SIM_PLAN, theta_true=SIM_THETA, replications=5, seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(**base)

    def test_integral_counts_become_ints(self):
        spec = ScenarioSpec(
            plan=SIM_PLAN, theta_true=SIM_THETA, replications=3.0, seed=np.int64(1),
            n_devices=20.0,
        )
        assert [type(v) for v in (spec.replications, spec.seed, spec.n_devices)] == [int] * 3
        assert (spec.replications, spec.seed, spec.n_devices) == (3, 1, 20)


class TestLoadScenario:
    def test_bundled_names_load(self):
        for name in BUNDLED_SCENARIOS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = load_scenario(name)
            assert spec.replications == 500
            assert spec.n_devices == 200

    def test_clean_scenario_contents(self):
        spec = load_scenario("clean")
        assert spec.theta_tilde is None
        assert spec.seed == 20260818
        assert spec.beta_grid == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        np.testing.assert_array_equal(spec.plan.stress_levels, [30.0, 40.0])
        np.testing.assert_array_equal(
            spec.plan.inspection_times, SIM_PLAN.inspection_times
        )
        assert spec.theta_true.as_array() == pytest.approx([5.3, -0.05, 1.5])

    def test_contaminated_scenario_contents(self):
        spec = load_scenario("contaminated_a0")
        assert spec.contaminated_cell == 3
        # omitted contamination entries inherit the generating truth
        assert spec.theta_tilde.as_array() == pytest.approx([8.0, -0.05, 1.5])

    def test_power_scenario_is_non_null(self):
        spec = load_scenario("power_a1")
        assert not spec.is_null_scenario
        assert spec.theta_true.a1 == -0.09

    def test_file_path_round_trip(self, tmp_path):
        ini = tmp_path / "custom.ini"
        ini.write_text(
            "[design]\n"
            "stress_levels = 30 40\n"
            "change_times = 18 52\n"
            "inspection_times = 6 10 14 18 20 24 28 32 36 40 44 48 52\n"
            "[truth]\na0 = 5.3\na1 = -0.05\neta = 1.5\n"
            "[run]\nreplications = 7\nseed = 11\nbeta_grid = 0 0.5\n"
            "[evaluate]\nt = 30\n"
        )
        spec = load_scenario(ini)
        assert spec.replications == 7
        assert spec.beta_grid == (0.0, 0.5)
        # keys the file omits keep the ScenarioSpec defaults
        assert spec.n_devices == 200
        assert spec.null_slope == -0.05
        assert (spec.x0, spec.t_eval) == (20.0, 30.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no bundled scenario or file named"):
            load_scenario(tmp_path / "absent.ini")

    def test_malformed_ini(self, tmp_path):
        ini = tmp_path / "broken.ini"
        ini.write_text("not an ini at all\n")
        with pytest.raises(DataError, match="invalid scenario file") as info:
            load_scenario(ini)
        # the parser's own location line names the file too
        assert f"file: '{ini}', line: 1" in str(info.value)

    def test_missing_section(self, tmp_path):
        ini = tmp_path / "nodesign.ini"
        ini.write_text("[truth]\na0 = 1\na1 = -1\neta = 1\n"
                       "[run]\nreplications = 5\nseed = 1\nbeta_grid = 0\n")
        with pytest.raises(DataError, match="invalid scenario file"):
            load_scenario(ini)

    def test_bad_value(self, tmp_path):
        ini = tmp_path / "badval.ini"
        ini.write_text(
            "[design]\nstress_levels = 30 40\nchange_times = 18 52\n"
            "inspection_times = 6 10 14\n"
            "[truth]\na0 = 5.3\na1 = -0.05\neta = oops\n"
            "[run]\nreplications = 5\nseed = 1\nbeta_grid = 0\n"
        )
        with pytest.raises(DataError, match="invalid scenario file"):
            load_scenario(ini)


@pytest.fixture(scope="module")
def small_table():
    spec = ScenarioSpec(
        plan=SIM_PLAN,
        theta_true=SIM_THETA,
        replications=12,
        seed=42,
        beta_grid=(0.0, 1.0),
    )
    return spec, run_scenario(spec)


class TestRunScenario:
    def test_table_layout(self, small_table):
        spec, tab = small_table
        assert tab.columns == METRIC_COLUMNS
        assert [f.name for f in fields(MetricsTable)] == ["rows"]
        assert tab.rows.shape == (2, len(METRIC_COLUMNS))
        np.testing.assert_array_equal(tab.column("beta"), [0.0, 1.0])
        used = tab.column("n_used") + tab.column("n_failed")
        np.testing.assert_array_equal(used, [12.0, 12.0])

    def test_frozen_metrics(self, small_table):
        _, tab = small_table
        r0 = tab.row(0.0)
        assert r0["rmse_overall"] == pytest.approx(0.8256686094406882, rel=1e-12)
        assert r0["mse_reliability"] == pytest.approx(
            0.02789999847839557, rel=1e-12
        )
        assert r0["level"] == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_null_scenario_fills_level_not_power(self, small_table):
        _, tab = small_table
        assert np.all(np.isfinite(tab.column("level")))
        assert np.all(np.isnan(tab.column("power")))

    def test_bounded_columns(self, small_table):
        _, tab = small_table
        for name in (
            "coverage_reliability_direct",
            "coverage_reliability_transformed",
            "coverage_mean_direct",
            "coverage_mean_transformed",
            "failure_rate",
            "level",
        ):
            col = tab.column(name)
            assert np.all((0.0 <= col) & (col <= 1.0)), name

    def test_power_scenario_fills_power_not_level(self):
        spec = ScenarioSpec(
            plan=SIM_PLAN,
            theta_true=ModelParams(5.3, -0.09, 1.5),
            replications=6,
            seed=5,
            beta_grid=(0.0,),
        )
        tab = run_scenario(spec)
        assert np.all(np.isnan(tab.column("level")))
        assert np.all(np.isfinite(tab.column("power")))

    def test_serial_matches_parallel_byte_for_byte(self, small_table):
        spec, tab = small_table
        parallel = run_scenario(spec, n_jobs=4)
        assert parallel.to_csv() == tab.to_csv()

    def test_pool_never_outnumbers_replications(self, monkeypatch):
        # a fork pool starts all max_workers at the first submit; a fake pool
        # that maps in-process records the size asked for and starts nothing
        from stepstress import montecarlo

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, *iterables, chunksize=1):
                return map(func, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        spec = ScenarioSpec(
            plan=SIM_PLAN, theta_true=SIM_THETA, replications=2, seed=3,
            beta_grid=(0.0,),
        )
        pooled = run_scenario(spec, n_jobs=64)
        assert sizes == [2]
        assert pooled.to_csv() == run_scenario(spec).to_csv()

    @pytest.mark.parametrize("n_jobs", [0, -3, 2.5])
    def test_jobs_below_one_raise(self, small_table, n_jobs):
        spec, _ = small_table
        with pytest.raises(ValueError, match="n_jobs"):
            run_scenario(spec, n_jobs=n_jobs)

    def test_rerun_is_deterministic(self, small_table):
        spec, tab = small_table
        again = run_scenario(spec)
        assert again.to_csv() == tab.to_csv()

    def test_csv_round_trips(self, small_table, tmp_path):
        _, tab = small_table
        text = tab.to_csv()
        assert text.splitlines()[0] == ",".join(METRIC_COLUMNS)
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back, tab.rows)

    def test_row_lookup(self, small_table):
        _, tab = small_table
        assert tab.row(1.0)["beta"] == 1.0
        with pytest.raises(KeyError):
            tab.row(0.7)

    def test_all_replications_failing(self, monkeypatch):
        from stepstress import montecarlo
        from stepstress.errors import ConvergenceError

        def always_fails(*args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr(montecarlo, "fit_proportions", always_fails)
        spec = ScenarioSpec(
            plan=SIM_PLAN,
            theta_true=SIM_THETA,
            replications=4,
            seed=3,
            beta_grid=(0.0,),
        )
        tab = run_scenario(spec)
        row = tab.row(0.0)
        assert row["n_used"] == 0.0
        assert row["n_failed"] == 4.0
        assert row["unreliable"] == 1.0
        assert np.isnan(row["rmse_overall"])

    def test_replication_falls_back_to_the_pilot(self, monkeypatch):
        # every warm start fails to converge; each beta after the first is
        # then fitted from the data-driven pilot rather than left out
        from stepstress import montecarlo

        fit_proportions = montecarlo.fit_proportions
        warm_calls = []

        def warm_fails(plan, p_hat, n_devices, config, *, starts=None):
            result = fit_proportions(plan, p_hat, n_devices, config, starts=starts)
            if starts is None:
                return result
            warm_calls.append(len(starts))
            return replace(result, converged=False)

        monkeypatch.setattr(montecarlo, "fit_proportions", warm_fails)
        spec = ScenarioSpec(
            plan=SIM_PLAN, theta_true=SIM_THETA, replications=3, seed=42,
            beta_grid=(0.0, 0.5, 1.0),
        )
        records = [
            montecarlo._replicate(spec, spec.generating_probabilities(), rep) for rep in range(3)
        ]
        assert warm_calls == [1] * 6
        assert all(record["ok"].all() for record in records)

    def test_contaminated_scenario_runs(self):
        spec = ScenarioSpec(
            plan=SIM_PLAN,
            theta_true=SIM_THETA,
            replications=6,
            seed=9,
            beta_grid=(0.0,),
            theta_tilde=ModelParams(8.0, -0.05, 1.5),
            contaminated_cell=3,
        )
        tab = run_scenario(spec)
        assert tab.row(0.0)["n_used"] > 0

    def test_bundled_scenario_executes_when_shrunk(self):
        spec = replace(load_scenario("clean"), replications=5)
        tab = run_scenario(spec)
        assert tab.rows.shape == (6, len(METRIC_COLUMNS))
        assert np.all(tab.column("n_used") + tab.column("n_failed") == 5.0)
