"""End-to-end tests of the command-line interface.

Commands run in-process through ``main`` so exit codes and emitted text
are asserted directly; stdout is captured with capsys.
"""

import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import stepstress.cli as cli
import stepstress.tuning as tuning
from stepstress.cli import (
    EXIT_CONVERGENCE,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from stepstress.datasets import load_dataset
from stepstress.errors import (
    ConvergenceError,
    DataError,
    NumericError,
    StepStressError,
    WeakIdentificationWarning,
)
from stepstress.estimation import FitConfig, fit
from stepstress.influence import influence_report
from stepstress.lifetime import characteristic_ci, param_ci
from stepstress.montecarlo import load_scenario, run_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def csv_table(text):
    """Split an emitted CSV into (meta dict, columns, float rows)."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns, np.array(rows)


class TestFit:
    def test_csv_matches_library_exactly(self, capsys):
        code, out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0", "--t", "4",
            "--format", "csv",
        )
        assert code == EXIT_OK
        meta, columns, rows = csv_table(out)
        assert len(rows) == 1
        row = dict(zip(columns, rows[0]))

        bundle = load_dataset("solar")
        result = fit(bundle.plan, bundle.data, FitConfig(beta=0.0))
        theta = result.params.as_array()
        cis = param_ci(result)
        assert row["a0"] == theta[0]
        assert row["a1"] == theta[1]
        assert row["eta"] == theta[2]
        assert row["a0_lo"] == cis[0, 0] and row["a0_hi"] == cis[0, 1]
        mean = characteristic_ci(result, bundle.plan, bundle.x0, "mean")
        assert row["mean"] == mean.value
        assert row["mean_direct_lo"] == mean.ci_direct[0]
        assert row["mean_transformed_hi"] == mean.ci_transformed[1]
        rel = characteristic_ci(result, bundle.plan, bundle.x0, "reliability", 4.0)
        assert row["reliability"] == rel.value
        quant = characteristic_ci(result, bundle.plan, bundle.x0, "quantile", 0.95)
        assert row["quantile"] == quant.value

    def test_reference_table_shape(self, capsys):
        code, out = run_cli(
            capsys, "fit", "--data", "solar",
            "--beta", "0,0.2,0.4,0.6,0.8,1", "--t", "4", "--format", "csv",
        )
        assert code == EXIT_OK
        _, columns, rows = csv_table(out)
        assert rows.shape == (6, len(columns))
        np.testing.assert_array_equal(rows[:, 0], [0, 0.2, 0.4, 0.6, 0.8, 1])
        # headline values at three published decimals
        row0 = dict(zip(columns, rows[0]))
        assert round(row0["mean"], 3) == 5.468
        assert round(row0["reliability"], 3) == 0.591
        assert round(row0["quantile"], 3) == 0.877

    def test_beta_list_is_fitted_as_one_path(self, capsys, monkeypatch):
        calls = []

        def recording(plan, data, config, *, starts=None):
            calls.append(starts)
            return fit(plan, data, config, starts=starts)

        monkeypatch.setattr(cli, "fit", recording)
        _, out = run_cli(
            capsys, "fit", "--data", "transistor", "--beta", "0,0.5,1", "--format", "csv"
        )
        # the first beta from the configured starts, the others from the
        # previous estimate and the pilot, with no fallback
        assert calls[0] is None and [len(s) for s in calls[1:]] == [2, 2]
        _, columns, rows = csv_table(out)
        bundle = load_dataset("transistor")
        for row in rows:
            cold = fit(bundle.plan, bundle.data, FitConfig(beta=row[0])).params.as_array()
            values = dict(zip(columns, row))
            path = [values["a0"], values["a1"], values["eta"]]
            np.testing.assert_allclose(path, cold, rtol=1e-10, atol=0.0)

    def test_metadata_header(self, capsys):
        _, out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0", "--format", "csv"
        )
        meta, _, _ = csv_table(out)
        for key in ("dataset", "dataset_hash", "version", "beta_grid", "seed"):
            assert key in meta
        assert meta["dataset"] == "solar"
        assert len(meta["dataset_hash"]) == 16

    def test_missing_mission_time_leaves_nan_columns(self, capsys):
        _, out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0", "--format", "csv"
        )
        _, columns, rows = csv_table(out)
        row = dict(zip(columns, rows[0]))
        assert np.isnan(row["reliability"])
        assert np.isnan(row["reliability_direct_lo"])
        assert np.isfinite(row["mean"])

    def test_formats_carry_identical_numbers(self, capsys):
        _, csv_out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0.4", "--t", "4",
            "--format", "csv",
        )
        _, json_out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0.4", "--t", "4",
            "--format", "json",
        )
        _, pretty_out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0.4", "--t", "4",
        )
        _, columns, rows = csv_table(csv_out)
        payload = json.loads(json_out)
        assert payload["columns"] == list(columns)
        np.testing.assert_array_equal(np.array(payload["rows"]), rows)
        # pretty shows the same numbers at 3 decimals
        data_line = pretty_out.splitlines()[-1].split()
        assert float(data_line[2]) == pytest.approx(rows[0, 1], abs=5e-4)

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--data", "solar", "--beta", "0"),
            ("ci", "--data", "solar", "--beta", "0.5", "--t", "3"),
        ],
    )
    def test_json_is_strict_with_null_for_missing_cells(self, capsys, argv):
        def refuse(name):
            raise ValueError(f"bare {name} in JSON output")

        _, csv_out = run_cli(capsys, *argv, "--format", "csv")
        _, json_out = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(json_out, parse_constant=refuse)
        _, _, rows = csv_table(csv_out)
        assert np.isnan(rows).any()
        restored = [[np.nan if v is None else v for v in row] for row in payload["rows"]]
        np.testing.assert_array_equal(np.array(restored), rows)

    def test_x0_override_maps_physical_stress(self, capsys):
        _, default_out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0", "--format", "csv"
        )
        _, mapped_out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0", "--x0", "293",
            "--format", "csv",
        )
        # 293K is the dataset's use stress: same normalized x0, same table
        assert default_out == mapped_out
        _, high_out = run_cli(
            capsys, "fit", "--data", "solar", "--beta", "0", "--x0", "353",
            "--format", "csv",
        )
        assert high_out != default_out

    def test_empty_beta_selects_optimal(self, capsys):
        code, out = run_cli(capsys, "fit", "--data", "solar", "--t", "4")
        assert code == EXIT_OK
        assert "Optimal" in out
        code, out = run_cli(
            capsys, "fit", "--data", "solar", "--t", "4", "--format", "csv"
        )
        meta, _, rows = csv_table(out)
        assert meta["beta_grid"] == "optimal"
        assert rows[0, 0] == 0.0  # tuning selects the likelihood fit here

    def test_tuned_fit_is_not_refitted(self, capsys, monkeypatch):
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args[2].beta)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "fit", counting_fit)
        monkeypatch.setattr(tuning, "fit", counting_fit)
        code, out = run_cli(capsys, "fit", "--data", "solar", "--format", "csv")
        assert code == EXIT_OK
        # the 11 grid fits of select_beta, and no twelfth at beta_opt
        assert calls == list(tuning.DEFAULT_BETA_GRID)
        assert csv_table(out)[2][0, 0] == 0.0


class TestCi:
    def test_rows_and_labels(self, capsys):
        code, out = run_cli(
            capsys, "ci", "--data", "solar", "--beta", "0", "--t", "4"
        )
        assert code == EXIT_OK
        for label in ("a0", "a1", "eta", "mean", "reliability(t=4)",
                      "quantile(level=0.95)"):
            assert label in out

    def test_parameters_have_no_transformed_interval(self, capsys):
        _, out = run_cli(
            capsys, "ci", "--data", "solar", "--beta", "0", "--format", "csv"
        )
        _, columns, rows = csv_table(out)
        assert rows.shape[0] == 5  # 3 parameters + mean + quantile
        jlo = columns.index("transformed_lo")
        assert np.all(np.isnan(rows[:3, jlo]))
        assert np.all(np.isfinite(rows[3:, jlo]))

    @pytest.mark.filterwarnings("ignore::stepstress.errors.ExtrapolationWarning")
    def test_matches_library(self, capsys):
        _, out = run_cli(
            capsys, "ci", "--data", "transistor", "--beta", "0.2",
            "--format", "csv",
        )
        _, columns, rows = csv_table(out)
        bundle = load_dataset("transistor")
        result = fit(bundle.plan, bundle.data, FitConfig(beta=0.2))
        np.testing.assert_array_equal(
            rows[:3, 0], result.params.as_array()
        )
        np.testing.assert_array_equal(rows[:3, 1], result.standard_errors)


    def test_weakly_identified_intervals_warn(self, capsys):
        # the a0 interval is about [-73, 92]; the table alone does not say why
        with pytest.warns(WeakIdentificationWarning, match="weakly identified"):
            code, out = run_cli(capsys, "ci", "--data", "led", "--beta", "0.5")
        assert code == EXIT_OK and out.startswith("# dataset: led")


class TestTest:
    def test_exponentiality_not_rejected_on_solar(self, capsys):
        code, out = run_cli(
            capsys, "test", "--data", "solar", "--constraint", "0,0,1,1",
            "--format", "csv",
        )
        assert code == EXIT_OK
        _, columns, rows = csv_table(out)
        row = dict(zip(columns, rows[0]))
        assert row["p_value"] > 0.05
        assert row["reject_5pct"] == 0.0
        assert row["df"] == 1.0

    def test_zero_slope_rejected_on_solar(self, capsys):
        _, out = run_cli(
            capsys, "test", "--data", "solar", "--constraint", "0,1,0,0",
            "--format", "csv",
        )
        _, columns, rows = csv_table(out)
        row = dict(zip(columns, rows[0]))
        assert row["reject_5pct"] == 1.0
        assert row["p_value"] < 1e-4

    def test_constraint_at_fitted_value_gives_zero(self, capsys):
        bundle = load_dataset("solar")
        result = fit(bundle.plan, bundle.data, FitConfig(beta=0.0))
        d = float(result.params.a1)
        _, out = run_cli(
            capsys, "test", "--data", "solar", "--constraint",
            f"0,1,0,{d!r}", "--format", "csv",
        )
        _, columns, rows = csv_table(out)
        assert rows[0, 0] == 0.0

    def test_pretty_prints_decision(self, capsys):
        _, out = run_cli(
            capsys, "test", "--data", "solar", "--constraint", "0,0,1,1"
        )
        assert "not rejected" in out

    def test_malformed_constraint(self, capsys):
        code, _ = run_cli(
            capsys, "test", "--data", "solar", "--constraint", "0,1,0"
        )
        assert code == EXIT_USAGE
        code, _ = run_cli(
            capsys, "test", "--data", "solar", "--constraint", "a,b,c,d"
        )
        assert code == EXIT_USAGE

    def test_rank_deficient_constraint_is_numeric_failure(self, capsys):
        code, _ = run_cli(
            capsys, "test", "--data", "solar", "--constraint", "0,0,0,1"
        )
        assert code == EXIT_NUMERIC


class TestTune:
    def test_solar_selection(self, capsys):
        code, out = run_cli(
            capsys, "tune", "--data", "solar", "--format", "csv"
        )
        assert code == EXIT_OK
        meta, columns, rows = csv_table(out)
        assert float(meta["beta_opt"]) == 0.0
        assert int(meta["rounds"]) >= 1
        assert columns == ["beta", "mse_estimate"]
        assert rows.shape == (11, 2)
        np.testing.assert_allclose(rows[:, 0], np.linspace(0, 1, 11), atol=1e-12)

    def test_custom_grid(self, capsys):
        _, out = run_cli(
            capsys, "tune", "--data", "solar", "--grid", "0,0.5,1",
            "--format", "csv",
        )
        meta, _, rows = csv_table(out)
        assert rows.shape == (3, 2)
        assert meta["beta_grid"] == "0,0.5,1"


class TestInfluence:
    def test_all_cells_by_default(self, capsys):
        code, out = run_cli(
            capsys, "influence", "--data", "solar", "--beta", "0.2",
            "--format", "csv",
        )
        assert code == EXIT_OK
        _, columns, rows = csv_table(out)
        bundle = load_dataset("solar")
        assert rows.shape[0] == bundle.plan.n_cells
        np.testing.assert_array_equal(
            rows[:, 0], np.arange(1, bundle.plan.n_cells + 1)
        )
        jw = columns.index("wald_second_order")
        assert np.all(np.isnan(rows[:, jw]))

    def test_single_cell_matches_library(self, capsys):
        _, out = run_cli(
            capsys, "influence", "--data", "solar", "--beta", "0.2",
            "--cell", "3", "--format", "csv",
        )
        _, columns, rows = csv_table(out)
        assert rows.shape[0] == 1
        bundle = load_dataset("solar")
        result = fit(bundle.plan, bundle.data, FitConfig(beta=0.2))
        rep = influence_report(result.params, bundle.plan, 0.2, 3)
        np.testing.assert_array_equal(rows[0, 1:4], rep.if_vector)

    def test_constraint_adds_wald_column(self, capsys):
        _, out = run_cli(
            capsys, "influence", "--data", "solar", "--beta", "0",
            "--constraint", "0,1,0,-2.4", "--format", "csv",
        )
        _, columns, rows = csv_table(out)
        jw = columns.index("wald_second_order")
        assert np.all(np.isfinite(rows[:, jw]))
        assert np.all(rows[:, jw] >= 0.0)

    def test_bad_cell_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "influence", "--data", "solar", "--cell", "99"
        )
        assert code == EXIT_USAGE


class TestSimulate:
    def test_deterministic_csv(self, capsys):
        args = ("simulate", "--scenario", "clean", "--replications", "3")
        code, first = run_cli(capsys, *args)
        assert code == EXIT_OK
        _, second = run_cli(capsys, *args)
        assert first == second
        meta, columns, rows = csv_table(first)
        assert meta["scenario"] == "clean"
        assert meta["seed"] == "20260818"
        assert rows.shape[0] == 6

    def test_seed_override_changes_draws_not_schema(self, capsys):
        _, base = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "3"
        )
        _, other = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "3",
            "--seed", "7",
        )
        assert base != other
        meta_b, cols_b, rows_b = csv_table(base)
        meta_o, cols_o, rows_o = csv_table(other)
        assert cols_b == cols_o
        assert rows_b.shape == rows_o.shape
        assert meta_o["seed"] == "7"

    def test_parallel_matches_serial(self, capsys):
        _, serial = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "4"
        )
        _, parallel = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "4",
            "--jobs", "2",
        )
        assert serial == parallel

    def test_sweep_prepends_column(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--scenario", "contaminated_a0",
            "--replications", "2", "--sweep", "a0=6,8",
        )
        assert code == EXIT_OK
        meta, columns, rows = csv_table(out)
        assert columns[0] == "sweep_a0"
        assert meta["sweep_a0"] == "6,8"
        assert rows.shape[0] == 12  # 2 sweep values x 6 betas
        np.testing.assert_array_equal(np.unique(rows[:, 0]), [6.0, 8.0])

    def test_sweep_rows_are_the_swept_tables_bit_for_bit(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--scenario", "contaminated_a0",
            "--replications", "2", "--sweep", "a0=6,8",
        )
        assert code == EXIT_OK
        body = [line for line in out.splitlines() if not line.startswith("# ")]
        spec = replace(load_scenario("contaminated_a0"), replications=2)
        expected = []
        for value in (6.0, 8.0):
            swept = replace(spec, theta_tilde=replace(spec.theta_tilde, a0=value))
            table = run_scenario(swept).to_csv().splitlines()
            expected.extend(f"{value!r},{line}" for line in table[1:])
        assert body[0] == "sweep_a0," + table[0]
        assert body[1:] == expected

    def test_sweep_validation(self, capsys):
        code, _ = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "2",
            "--sweep", "b0=1,2",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("sweep", ["a0=", "a0= ,"])
    def test_sweep_without_values_is_usage_error(self, capsys, sweep):
        code, out = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "2",
            "--sweep", sweep,
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_unknown_scenario(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--scenario", "missing")
        assert code == EXIT_DATA

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "metrics.csv"
        code, out = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "2",
            "--output", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("# scenario: clean")


class TestReport:
    def test_pretty_prints_infinite_cells(self):
        report = cli.Report({}, ("statistic", "p_value", "df"), [[np.inf, -np.inf, 1]])
        assert report.to_pretty().splitlines()[-1].split() == ["inf", "-inf", "1"]


class TestDatasets:
    def test_pretty_lists_everything(self, capsys):
        code, out = run_cli(capsys, "datasets")
        assert code == EXIT_OK
        for name in ("solar", "transistor", "led", "clean",
                     "contaminated_a0", "power_a1"):
            assert name in out

    def test_json_structure(self, capsys):
        _, out = run_cli(capsys, "datasets", "--format", "json")
        payload = json.loads(out)
        assert [d["name"] for d in payload["datasets"]] == [
            "solar", "transistor", "led"
        ]
        assert len(payload["scenarios"]) == 5


class TestOutputFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--data", "solar", "--beta", "0,1", "--t", "3"),
            ("ci", "--data", "solar", "--beta", "0.5", "--t", "3"),
            ("test", "--data", "solar", "--constraint", "0,0,1,1"),
            ("tune", "--data", "solar"),
            ("influence", "--data", "solar", "--cell", "2"),
            ("simulate", "--scenario", "clean", "--replications", "2"),
            ("datasets", "--format", "json"),
        ],
    )
    def test_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, expected = run_cli(capsys, *argv)
        assert code == EXIT_OK and expected
        if argv[0] == "test":  # the pretty verdict line goes to the file too
            assert "null hypothesis" in expected
        target = tmp_path / "report.txt"
        code, out = run_cli(capsys, *argv, "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_bytes() == expected.encode("utf-8")


class TestExitCodes:
    def test_missing_dataset(self, capsys):
        code, _ = run_cli(capsys, "fit", "--data", "nope", "--beta", "0")
        assert code == EXIT_DATA

    def test_unparseable_beta(self, capsys):
        code, _ = run_cli(capsys, "fit", "--data", "solar", "--beta", "x")
        assert code == EXIT_USAGE

    def test_invalid_confidence(self, capsys):
        code, _ = run_cli(
            capsys, "ci", "--data", "solar", "--confidence", "2"
        )
        assert code == EXIT_USAGE

    def test_convergence_failure(self, capsys, monkeypatch):
        def never_converges(*args, **kwargs):
            raise ConvergenceError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "fit", never_converges)
        code, _ = run_cli(capsys, "fit", "--data", "solar", "--beta", "0")
        assert code == EXIT_CONVERGENCE

    def test_argparse_usage_error(self, capsys):
        code = main(["fit"])  # --data is required
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_zero_mission_time_is_usage_error(self, capsys):
        code, out = run_cli(capsys, "ci", "--data", "solar", "--t", "0")
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("ci", "--data", "solar", "--t", "nan"),
            ("ci", "--data", "solar", "--t", "inf"),
            ("ci", "--data", "solar", "--x0", "nan"),
            ("ci", "--data", "solar", "--x0", "inf"),
            ("fit", "--data", "solar", "--beta", "0", "--x0=-inf"),
            ("test", "--data", "solar", "--constraint", "0,1,0,nan"),
            ("test", "--data", "solar", "--constraint", "0,1,0,inf"),
            ("influence", "--data", "solar", "--constraint", "nan,1,0,0"),
        ],
    )
    def test_non_finite_flag_value_is_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("test", "--data", "solar", "--constraint", "0,0,1,1"),
            ("tune", "--data", "solar"),
            ("influence", "--data", "solar"),
        ],
    )
    def test_x0_only_on_fit_and_ci(self, capsys, argv):
        code = main([*argv, "--x0", "1"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_degenerate_stress_normalization_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "one_level.txt"
        path.write_text(
            "# name: one_level\n# kind: counts\n# n_total: 3\n# time_unit: h\n"
            "# stress_unit: K\n# stress_levels: 300\n# change_times: 10\n"
            "# inspection_times: 5 10\n# use_stress: 300\n"
            "# normalization: minmax\n# analysis: as-recorded\n1\n1\n1\n"
        )
        code = main(["fit", "--data", str(path), "--beta", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert str(path) in err

    def test_overflowing_reliability_is_numeric_failure(self, capsys):
        # (t / alpha)^eta overflows a double: exit 5 with a message, not a
        # traceback from the interpreter's OverflowError
        code = main(["ci", "--data", "solar", "--t", "1e250"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "overflowed" in captured.err and captured.out == ""

    def test_ill_conditioned_fit_is_numeric_failure(self, capsys, tmp_path):
        # the solar design with every first-level survivor failing in the
        # first interval after the stress change: a1 is not identified
        path = tmp_path / "flat_slope.txt"
        path.write_text(
            "# name: flat_slope\n# kind: counts\n# n_total: 39\n"
            "# time_unit: 100 h\n# stress_unit: K\n# stress_levels: 293 353\n"
            "# change_times: 5 6\n# inspection_times: 1.5 3 5 5.2 5.4 6\n"
            "# use_stress: 293\n# normalization: minmax\n"
            "# analysis: as-recorded\n14\n11\n8\n6\n0\n0\n0\n"
        )
        for argv in (
            ("ci", "--data", str(path)),
            ("test", "--data", str(path), "--constraint", "0,1,0,0"),
            ("tune", "--data", str(path)),
            ("fit", "--data", str(path)),
        ):
            code = main(list(argv))
            err = capsys.readouterr().err
            assert code == EXIT_NUMERIC
            assert "ill-conditioned" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--data", "solar", "--beta", "nan"),
            ("fit", "--data", "solar", "--beta", "0,inf"),
            ("ci", "--data", "solar", "--beta", "nan"),
            ("test", "--data", "solar", "--beta", "inf", "--constraint", "0,0,1,1"),
            ("influence", "--data", "solar", "--beta", "inf"),
            ("tune", "--data", "solar", "--grid", "nan,0.5"),
        ],
    )
    def test_non_finite_beta_is_usage_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out = run_cli(
            capsys, "simulate", "--scenario", "clean", "--replications", "2",
            "--jobs", jobs,
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_malformed_dataset_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad_total.txt"
        path.write_text(
            "# name: bad_total\n# kind: counts\n# n_total: 3five\n"
            "# time_unit: h\n# stress_unit: K\n# stress_levels: 293 353\n"
            "# change_times: 5 6\n# inspection_times: 1.5 3 5 5.2 5.4 6\n"
            "# use_stress: 293\n# normalization: minmax\n"
            "# analysis: as-recorded\n1\n1\n1\n1\n1\n1\n1\n"
        )
        code = main(["fit", "--data", str(path), "--beta", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert str(path) in err

    def test_invalid_raw_times_name_the_file(self, capsys, tmp_path):
        path = tmp_path / "negative_time.txt"
        path.write_text(
            "# name: negative_time\n# kind: times\n# n_total: 3\n"
            "# time_unit: h\n# stress_unit: K\n# stress_levels: 293 353\n"
            "# change_times: 5 6\n# inspection_times: 1.5 3 5 5.2 5.4 6\n"
            "# use_stress: 293\n# normalization: minmax\n"
            "# analysis: as-recorded\n1.0\n-2.0\n4.0\n"
        )
        code = main(["fit", "--data", str(path), "--beta", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "failure times must be positive" in err
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize(
        "setting, replacement",
        [
            ("replications = 500", "replications = 0"),
            ("beta_grid = 0 0.2 0.4 0.6 0.8 1", "beta_grid = 0 nan 1"),
            ("seed = 20260818", "seed = -1"),
            ("t = 40", "t = 0"),
            ("t = 40", "t = nan"),
            ("x0 = 20", "x0 = inf"),
            ("null_slope = -0.05", "null_slope = nan"),
            ("[run]", "[contamination]\na0 = 8\ncell = 99\n\n[run]"),
        ],
    )
    def test_invalid_scenario_file_names_the_file(
        self, capsys, tmp_path, setting, replacement
    ):
        text = (
            resources.files("stepstress")
            .joinpath("data", "scenarios", "clean.ini")
            .read_text(encoding="utf-8")
        )
        assert setting in text
        path = tmp_path / "clean_copy.ini"
        path.write_text(text.replace(setting, replacement))
        code = main(["simulate", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.out == ""
        assert f"invalid scenario file {path}" in captured.err

    def test_negative_seed_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "clean", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "seed must be non-negative, got -1" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("test", "--data", "solar", "--constraint", "0,0,1e155,1e155"),
            ("test", "--data", "solar", "--constraint", "0,0,1,1e300"),
            ("test", "--data", "solar", "--constraint", "0,0,1,1e300", "--format", "json"),
            ("influence", "--data", "solar", "--constraint", "0,0,1e155,1e155"),
        ],
    )
    def test_overflowing_wald_form_is_numeric_failure(self, capsys, argv):
        # the 1e155 constraint states the unit-shape null of 0,0,1,1; its
        # C Sigma C' overflows, which once printed statistic 0 and p = 1
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.out == ""
        assert "overflows" in captured.err

    @pytest.mark.parametrize(
        "error, expected",
        [
            (DataError("boom"), EXIT_DATA),
            (ConvergenceError("boom"), EXIT_CONVERGENCE),
            (NumericError("boom"), EXIT_NUMERIC),
            (StepStressError("boom"), 1),
            (cli.UsageError("boom"), EXIT_USAGE),
            (ValueError("boom"), EXIT_USAGE),
            (OSError("boom"), EXIT_DATA),
        ],
    )
    def test_each_failure_has_its_exit_code(
        self, capsys, monkeypatch, error, expected
    ):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "fit", failing)
        code, out = run_cli(capsys, "fit", "--data", "solar", "--beta", "0")
        assert code == expected
        assert out == ""

    def test_unwritable_output_is_data_error(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "fit.csv"
        code = main(["fit", "--data", "solar", "--beta", "0", "--output", str(target)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert str(target) in err

    def test_help_exits_zero(self, capsys):
        code = main(["--help"])
        capsys.readouterr()
        assert code == EXIT_OK
