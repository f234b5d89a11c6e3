"""Tests for dataset ingestion: binning, normalization, bundled data."""

import warnings

import numpy as np
import pytest

from stepstress.datasets import (
    DatasetBundle,
    NormalizationMap,
    _bin_times,
    load_dataset,
)
from stepstress.errors import CensoringWarning, DataError
from stepstress.estimation import FitConfig, fit
from stepstress.model import StressPlan

SOLAR_RAW_PLAN = StressPlan([293.0, 353.0], [5.0, 6.0], [1.5, 3.0, 5.0, 5.2, 5.4, 6.0])


def _bin(times, n_total):
    return _bin_times(times, n_total, SOLAR_RAW_PLAN.inspection_times)


class TestBinFailures:
    def test_counts_on_interval_boundaries(self):
        # cells are left-open, right-closed: a failure at an inspection
        # time belongs to the interval that the inspection closes
        out = _bin([1.5, 1.6, 3.0, 5.9], 6)
        np.testing.assert_array_equal(out.counts, [1, 2, 0, 0, 0, 1, 2])
        assert out.total == 6

    def test_conserves_devices(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            times = rng.uniform(0.05, 6.0, size=rng.integers(1, 30))
            n_total = len(times) + int(rng.integers(0, 5))
            out = _bin(times, n_total)
            assert out.counts.sum() == out.total == n_total

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        times = rng.uniform(0.05, 6.0, size=25)
        a = _bin(times, 30)
        b = _bin(times[rng.permutation(25)], 30)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_beyond_termination_becomes_survivor_with_warning(self):
        with pytest.warns(CensoringWarning, match="survivors"):
            out = _bin([1.0, 7.5], 4)
        np.testing.assert_array_equal(out.counts, [1, 0, 0, 0, 0, 0, 3])

    def test_rejects_nonpositive_times(self):
        with pytest.raises(DataError, match="positive"):
            _bin([0.0, 1.0], 5)

    def test_rejects_more_failures_than_devices(self):
        with pytest.raises(DataError, match="devices"):
            _bin([1.0, 2.0, 3.0], 2)


def _stress_file(tmp_path, plan_raw, use_stress, normalization="minmax"):
    """A counts dataset file on a physical-stress plan, one device per cell."""
    def listed(values):
        return " ".join(map(str, values))

    path = tmp_path / "design.txt"
    path.write_text(
        "# name: design\n# kind: counts\n"
        f"# n_total: {plan_raw.n_cells}\n# time_unit: h\n# stress_unit: K\n"
        f"# stress_levels: {listed(plan_raw.stress_levels)}\n"
        f"# change_times: {listed(plan_raw.change_times)}\n"
        f"# inspection_times: {listed(plan_raw.inspection_times)}\n"
        f"# use_stress: {use_stress}\n# normalization: {normalization}\n"
        "# analysis: as-recorded\n" + "1\n" * plan_raw.n_cells
    )
    return path


class TestNormalizeStress:
    def _solar_design(self, tmp_path, use_stress):
        return load_dataset(_stress_file(tmp_path, SOLAR_RAW_PLAN, use_stress))

    def test_minmax_endpoints(self, tmp_path):
        b = self._solar_design(tmp_path, 293.0)
        np.testing.assert_allclose(b.plan.stress_levels, [0.0, 1.0])
        assert b.x0 == 0.0

    def test_use_stress_equal_to_max_maps_to_one(self, tmp_path):
        assert self._solar_design(tmp_path, 353.0).x0 == pytest.approx(1.0)

    def test_x0_outside_tested_range(self, tmp_path):
        assert self._solar_design(tmp_path, 273.0).x0 == pytest.approx(-1.0 / 3.0)

    def test_preserves_affine_structure(self, tmp_path):
        temps = np.array([363.0, 413.0, 433.0, 448.0])
        plan_raw = StressPlan(temps, [300, 500, 600, 720], [300, 500, 600, 720])
        b = load_dataset(_stress_file(tmp_path, plan_raw, 323.15))
        phys = np.diff(temps)
        norm = np.diff(b.plan.stress_levels)
        ratios = norm / phys
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_single_level_rejected(self, tmp_path):
        plan_raw = StressPlan([300.0], [10.0], [5.0, 10.0])
        path = _stress_file(tmp_path, plan_raw, 293.0)
        with pytest.raises(DataError, match="two distinct") as info:
            load_dataset(path)
        assert str(path) in str(info.value)

    def test_use_stress_at_lowest_level_rejected_when_use_anchored(self, tmp_path):
        path = _stress_file(tmp_path, SOLAR_RAW_PLAN, 293.0, "use-anchored")
        with pytest.raises(DataError, match="use_stress below") as info:
            load_dataset(path)
        assert str(path) in str(info.value)


class TestMalformedFile:
    @pytest.mark.parametrize(
        "printed, replacement",
        [
            ("# n_total: 7", "# n_total: 3five"),
            ("as-recorded\n1\n", "as-recorded\n1.2x\n"),
            ("# stress_levels: 293.0 353.0", "# stress_levels: 353.0 293.0"),
            ("# kind: counts", "# kind: both"),
        ],
    )
    def test_bad_value_is_data_error_naming_the_file(
        self, tmp_path, printed, replacement
    ):
        path = _stress_file(tmp_path, SOLAR_RAW_PLAN, 293.0)
        text = path.read_text()
        assert printed in text
        path.write_text(text.replace(printed, replacement))
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value).count(str(path)) == 1

    def test_raw_data_error_names_the_file(self, tmp_path):
        # the binning step does not know the file; load_dataset adds it
        path = _stress_file(tmp_path, SOLAR_RAW_PLAN, 293.0)
        text = path.read_text().replace("# kind: counts", "# kind: times")
        path.write_text(text.replace("as-recorded\n1\n", "as-recorded\n-2.0\n"))
        with pytest.raises(DataError, match="failure times must be positive") as info:
            load_dataset(path)
        assert str(info.value).count(str(path)) == 1


class TestNormalizationMap:
    def test_requires_increasing_references(self):
        with pytest.raises(ValueError):
            NormalizationMap(5.0, 5.0)
        with pytest.raises(ValueError):
            NormalizationMap(10.0, 5.0)

    def test_scalar_and_vector(self):
        m = NormalizationMap(25.0, 120.0)
        assert m(120.0) == pytest.approx(1.0)
        assert isinstance(m(120.0), float)
        np.testing.assert_allclose(m([25.0, 72.5, 120.0]), [0.0, 0.5, 1.0])


class TestBundledDatasets:
    @pytest.mark.parametrize("name", ["solar", "transistor", "led"])
    def test_loads_and_conserves_devices(self, name):
        b = load_dataset(name)
        assert isinstance(b, DatasetBundle)
        assert b.name == name
        assert b.data.counts.sum() == b.data.total
        assert b.recorded.counts.sum() == b.recorded.total
        assert b.recorded.total == b.data.total + b.n_removed

    def test_solar_content(self):
        b = load_dataset("solar")
        np.testing.assert_array_equal(b.recorded.counts, [3, 8, 5, 5, 5, 5, 4])
        assert b.recorded.total == 35
        np.testing.assert_array_equal(b.data.counts, [3, 8, 5, 5, 5, 5, 0])
        assert b.data.total == 31
        np.testing.assert_allclose(b.plan.stress_levels, [0.0, 1.0])
        np.testing.assert_allclose(b.plan.change_times, [5.0, 6.0])
        np.testing.assert_allclose(
            b.plan.inspection_times, [1.5, 3.0, 5.0, 5.2, 5.4, 6.0]
        )
        assert b.x0 == 0.0
        assert b.time_unit == "100 h"

    def test_solar_correction_applied(self):
        # read as printed, 10.14 would fall past the 6.0 termination: a
        # CensoringWarning, and one failure moved from the first cell to
        # the survivors
        with warnings.catch_warnings():
            warnings.simplefilter("error", CensoringWarning)
            b = load_dataset("solar")
        np.testing.assert_array_equal(b.recorded.counts, [3, 8, 5, 5, 5, 5, 4])
        assert b.recorded.total - b.recorded.counts[-1] == 31
        assert any("10.14" in note for note in b.notes)

    def test_transistor_content(self):
        b = load_dataset("transistor")
        np.testing.assert_array_equal(
            b.data.counts, [0, 0, 0, 2, 5, 5, 3, 3, 0, 9, 0]
        )
        assert b.data.total == 27
        assert b.recorded is b.data  # as-recorded: nothing removed
        temps = np.array([120, 140, 160, 180, 190, 200, 210, 220, 230, 240.0])
        np.testing.assert_allclose(
            b.plan.stress_levels, (temps - 25.0) / 95.0, rtol=1e-12
        )
        np.testing.assert_allclose(b.plan.inspection_times, 168.0 * np.arange(1, 11))
        assert b.x0 == 0.0
        assert b.x0_physical == 25.0

    def test_led_content(self):
        b = load_dataset("led")
        np.testing.assert_array_equal(b.recorded.counts, [0, 4, 5, 14, 4])
        np.testing.assert_array_equal(b.data.counts, [0, 4, 5, 14, 0])
        assert b.data.total == 23
        np.testing.assert_allclose(
            b.plan.stress_levels, [0.0, 50 / 85, 70 / 85, 1.0], atol=1e-12
        )
        assert b.x0 == pytest.approx(b.stress_map(323.15))
        assert b.x0 < 0  # use temperature sits below the tested range

    def test_solar_fit_golden(self):
        b = load_dataset("solar")
        result = fit(b.plan, b.data, FitConfig(beta=0.0))
        np.testing.assert_allclose(
            result.params.as_array(), [1.8039, -2.3877, 1.5350], atol=1e-3
        )
        assert result.weakly_identified is False

    def test_transistor_fit_golden(self):
        b = load_dataset("transistor")
        result = fit(b.plan, b.data, FitConfig(beta=0.0))
        np.testing.assert_allclose(
            result.params.as_array(), [16.436, -5.163, 0.8705], atol=2e-3
        )
        assert result.weakly_identified is True

    def test_unknown_name_raises(self):
        with pytest.raises(DataError, match="bundled"):
            load_dataset("toaster")


class TestUserFiles:
    HEADER = (
        "# name: mini\n"
        "# kind: {kind}\n"
        "# n_total: {n}\n"
        "# time_unit: h\n"
        "# stress_unit: K\n"
        "# stress_levels: 300 350\n"
        "# change_times: 10 20\n"
        "# inspection_times: 5 10 15 20\n"
        "# use_stress: 300\n"
        "# normalization: minmax\n"
        "# analysis: {analysis}\n"
    )

    def test_times_file_round_trip(self, tmp_path):
        p = tmp_path / "mini.txt"
        p.write_text(
            self.HEADER.format(kind="times", n=6, analysis="as-recorded")
            + "2.0\n7.0\n11.0\n18.0\n"
        )
        b = load_dataset(p)
        np.testing.assert_array_equal(b.data.counts, [1, 1, 1, 1, 2])
        assert b.data.total == 6
        np.testing.assert_allclose(b.plan.stress_levels, [0.0, 1.0])

    def test_counts_file_round_trip(self, tmp_path):
        p = tmp_path / "mini.txt"
        header = self.HEADER.format(kind="counts", n=10, analysis="drop-censored")
        # numeric header lists may be separated by commas as well as spaces
        header = header.replace("inspection_times: 5 10 15 20", "inspection_times: 5, 10,15 ,20")
        p.write_text(header + "1\n2\n3\n1\n3\n")
        b = load_dataset(p)
        np.testing.assert_array_equal(b.plan.inspection_times, [5.0, 10.0, 15.0, 20.0])
        np.testing.assert_array_equal(b.data.counts, [1, 2, 3, 1, 0])
        assert b.data.total == 7
        assert b.n_removed == 3
        np.testing.assert_array_equal(b.recorded.counts, [1, 2, 3, 1, 3])
        assert b.recorded.total == 10

    def test_missing_header_key_raises(self, tmp_path):
        p = tmp_path / "broken.txt"
        p.write_text("# name: broken\n# kind: times\n1.0\n")
        with pytest.raises(DataError, match="missing header keys"):
            load_dataset(p)

    def test_count_sum_mismatch_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(
            self.HEADER.format(kind="counts", n=99, analysis="as-recorded")
            + "1\n2\n3\n1\n3\n"
        )
        with pytest.raises(DataError, match="n_total"):
            load_dataset(p)

    def test_wrong_cell_count_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(
            self.HEADER.format(kind="counts", n=3, analysis="as-recorded") + "1\n2\n"
        )
        with pytest.raises(DataError, match="cells"):
            load_dataset(p)

    def test_unknown_kind_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(
            self.HEADER.format(kind="hours", n=2, analysis="as-recorded") + "1\n2\n"
        )
        with pytest.raises(DataError, match="kind"):
            load_dataset(p)

    def test_unknown_normalization_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        text = self.HEADER.format(kind="times", n=2, analysis="as-recorded").replace(
            "minmax", "zscore"
        )
        p.write_text(text + "1\n2\n")
        with pytest.raises(DataError, match="normalization"):
            load_dataset(p)

    def test_malformed_correction_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(
            self.HEADER.format(kind="times", n=2, analysis="as-recorded")
            + "# correct: 9.9\n1.0\n2.0\n"
        )
        with pytest.raises(DataError, match="correction"):
            load_dataset(p)
