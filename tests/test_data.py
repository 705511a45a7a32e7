"""Loading, splitting, correlation ranking, and the synthetic generator."""

import numpy as np
import pytest

from cvpe.data import (
    MultivariateSeries,
    SyntheticSpec,
    chronological_split,
    generate_synthetic,
    lagged_driver_mean,
    load_csv,
    pearson,
    rank_channels,
    split_bounds,
)
from oracles import pearson_oracle


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        p = write_csv(
            tmp_path / "ok.csv",
            "date,a,b,OT\n2020-01-01,1,2,3\n2020-01-02,4,5,6\n",
        )
        s = load_csv(p)
        assert s.channel_names == ["a", "b", "OT"]
        assert s.values.shape == (3, 2)
        np.testing.assert_allclose(s.values[:, 1], [4.0, 5.0, 6.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_wrong_timestamp_column(self, tmp_path):
        p = write_csv(tmp_path / "bad.csv", "time,a\n1,2\n")
        with pytest.raises(ValueError) as err:
            load_csv(p)
        assert str(err.value) == (
            "first column must be the timestamp column 'date', got 'time' (row 0, column 'time')"
        )

    def test_ragged_row_reports_row_number(self, tmp_path):
        p = write_csv(tmp_path / "ragged.csv", "date,a,b\nx,1,2\ny,3\n")
        with pytest.raises(ValueError) as err:
            load_csv(p)
        assert str(err.value) == "expected 3 fields, got 2 (row 2)"

    def test_non_numeric_reports_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "alpha.csv", "date,a,b\nx,1,2\ny,oops,4\n")
        with pytest.raises(ValueError) as err:
            load_csv(p)
        assert str(err.value) == "non-numeric value 'oops' (row 2, column 'a')"

    def test_non_finite_rejected(self, tmp_path):
        p = write_csv(tmp_path / "inf.csv", "date,a\nx,inf\n")
        with pytest.raises(ValueError, match=r"^non-finite value 'inf' \(row 1, column 'a'\)$"):
            load_csv(p)

    def test_empty_and_headers_only(self, tmp_path):
        with pytest.raises(ValueError, match=r"^empty file \(row 0\)$"):
            load_csv(write_csv(tmp_path / "empty.csv", ""))
        with pytest.raises(ValueError, match=r"^no data rows \(row 1\)$"):
            load_csv(write_csv(tmp_path / "bare.csv", "date,a\n"))


class TestSeriesAndSplits:
    def test_series_invariants(self):
        with pytest.raises(ValueError):
            MultivariateSeries(np.ones(5), ["a"])
        with pytest.raises(ValueError):
            MultivariateSeries(np.ones((2, 5)), ["a", "a"])
        with pytest.raises(ValueError):
            MultivariateSeries(np.ones((2, 5)), ["a"])
        bad = np.ones((2, 5))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            MultivariateSeries(bad, ["a", "b"])

    def test_fixed_calendar_protocol_boundaries(self):
        assert split_bounds("ett_hourly", 17420) == (8640, 11520, 14400)
        assert split_bounds("ett_minute", 69680) == (34560, 46080, 57600)

    def test_ratio_protocol_uses_floor(self):
        assert split_bounds("ratio_70_10_20", 1001) == (700, 800, 1001)

    def test_explicit_boundaries_are_kept(self):
        assert split_bounds((10, 15, 20), 25) == (10, 15, 20)

    def test_boundaries_must_fit_and_increase(self):
        with pytest.raises(ValueError, match="^split needs 14400 time steps but the series has only 10000$"):
            split_bounds("ett_hourly", 10000)
        with pytest.raises(ValueError, match="strictly increasing"):
            split_bounds((5, 5, 9), 9)

    def test_chronological_split_segments(self):
        rng = np.random.default_rng(0)
        series = MultivariateSeries(rng.normal(size=(3, 100)), ["a", "b", "OT"])
        tr, va, te = chronological_split(series, "ratio_70_10_20")
        assert (tr.length, va.length, te.length) == (70, 10, 20)
        rebuilt = np.concatenate([tr.values, va.values, te.values], axis=1)
        np.testing.assert_array_equal(rebuilt, series.values)
        assert tr.channel_names == series.channel_names

    def test_calendar_split_discards_tail(self):
        rng = np.random.default_rng(1)
        series = MultivariateSeries(rng.normal(size=(2, 15000)), ["a", "OT"])
        tr, va, te = chronological_split(series, "ett_hourly")
        rebuilt = np.concatenate([tr.values, va.values, te.values], axis=1)
        np.testing.assert_array_equal(rebuilt, series.values[:, :14400])


class TestPearson:
    def test_matches_loop_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert abs(pearson(x, y) - pearson_oracle(x, y)) < 1e-12

    def test_exact_endpoints(self):
        x = np.arange(10.0)
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -2 * x + 5) == pytest.approx(-1.0, abs=1e-12)

    def test_error_cases(self):
        with pytest.raises(ValueError, match="correlation undefined for a constant sequence"):
            pearson(np.ones(5), np.arange(5.0))
        with pytest.raises(ValueError):
            pearson(np.arange(4.0), np.arange(5.0))
        with pytest.raises(ValueError):
            pearson(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            pearson(np.ones((2, 2)), np.ones((2, 2)))


class TestRanking:
    def build(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=200)
        strong = 0.9 * t + 0.1 * rng.normal(size=200)
        weak = 0.2 * t + 0.8 * rng.normal(size=200)
        anti = -t + 0.05 * rng.normal(size=200)
        return MultivariateSeries(
            np.stack([weak, anti, strong, t]), ["weak", "anti", "strong", "OT"]
        )

    def test_orders_by_absolute_correlation(self):
        ranked = rank_channels(self.build())
        names = [n for n, _ in ranked]
        assert names[0] == "anti"
        assert names[1] == "strong"
        assert names[-1] == "weak"

    def test_tie_breaks_by_original_index(self):
        t = np.arange(50.0)
        series = MultivariateSeries(
            np.stack([-t, t.copy(), t]), ["mirror", "copy", "OT"]
        )
        ranked = rank_channels(series)
        assert [n for n, _ in ranked] == ["mirror", "copy"]

    # the mean of twenty 0.3s is not exactly 0.3, so a test on the centred
    # sum of squares would not find that channel constant
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level", [1.0, 0.3])
    def test_constant_candidate_is_dropped(self, level):
        series = MultivariateSeries(
            np.stack([np.full(20, level), np.arange(20.0), np.arange(20.0) * 2]),
            ["flat", "ok", "OT"],
        )
        ranked = rank_channels(series)
        assert [n for n, _ in ranked] == ["ok"]
        with pytest.raises(ValueError, match="correlation undefined for a constant sequence"):
            pearson(series.values[0], series.values[2])

    def test_constant_target_is_an_error(self):
        series = MultivariateSeries(
            np.stack([np.arange(20.0), np.ones(20)]), ["a", "OT"]
        )
        with pytest.raises(ValueError, match="target channel 'OT' is constant"):
            rank_channels(series)

    def test_unknown_target(self):
        series = MultivariateSeries(np.ones((2, 10)) * np.arange(10), ["a", "b"])
        with pytest.raises(ValueError, match="no channel named 'OT'"):
            rank_channels(series)


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(1, 100, 0.5, 4, 0.1, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(4, 100, 1.5, 4, 0.1, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(4, 100, 0.5, 0, 0.1, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(4, 100, 0.5, 100, 0.1, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(4, 100, 0.5, 4, -0.1, 0)

    def test_lagged_driver_mean_clamps_the_prefix(self):
        drivers = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 3.0, 4.0, 5.0]])
        out = lagged_driver_mean(drivers, 2)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 2.0])

    def test_shapes_names_and_determinism(self):
        spec = SyntheticSpec(5, 300, 0.5, 4, 0.1, 42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.values.shape == (5, 300)
        assert a.channel_names == ["ch0", "ch1", "ch2", "ch3", "OT"]
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_synthetic(SyntheticSpec(5, 300, 0.5, 4, 0.1, 43))
        assert not np.array_equal(a.values, c.values)

    def test_full_coupling_no_noise_target_is_lagged_driver_mean(self):
        spec = SyntheticSpec(6, 400, 1.0, 7, 0.0, 9)
        s = generate_synthetic(spec)
        want = lagged_driver_mean(s.values[:-1], 7)
        np.testing.assert_allclose(s.values[-1], want, atol=1e-12)

    def test_zero_coupling_target_ignores_drivers(self):
        base = generate_synthetic(SyntheticSpec(4, 200, 0.0, 4, 0.0, 11))
        # the target draws phases/innovations from the same positions of the
        # stream regardless of coupling, so coupling may only change the mix
        mixed = generate_synthetic(SyntheticSpec(4, 200, 1.0, 4, 0.0, 11))
        np.testing.assert_array_equal(base.values[:-1], mixed.values[:-1])
        assert not np.array_equal(base.values[-1], mixed.values[-1])

    def test_coupling_interpolates_linearly(self):
        lo = generate_synthetic(SyntheticSpec(4, 200, 0.0, 4, 0.0, 13))
        hi = generate_synthetic(SyntheticSpec(4, 200, 1.0, 4, 0.0, 13))
        mid = generate_synthetic(SyntheticSpec(4, 200, 0.25, 4, 0.0, 13))
        want = 0.25 * hi.values[-1] + 0.75 * lo.values[-1]
        np.testing.assert_allclose(mid.values[-1], want, atol=1e-12)
