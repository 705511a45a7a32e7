"""Loading, splitting, correlation ranking, and the synthetic generator."""

import numpy as np
import pytest

from cvpe.data import (
    MultivariateSeries,
    SplitSpec,
    SyntheticSpec,
    chronological_split,
    generate_synthetic,
    lagged_driver_mean,
    load_csv,
    pearson,
    rank_channels,
    select_top_k,
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

    def test_split_spec_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            SplitSpec()
        with pytest.raises(ValueError):
            SplitSpec(protocol="ratio_70_10_20", boundaries=(1, 2, 3))
        with pytest.raises(ValueError):
            SplitSpec(protocol="weekly")

    def test_fixed_calendar_protocol_boundaries(self):
        assert SplitSpec(protocol="ett_hourly").resolve(17420) == (8640, 11520, 14400)
        assert SplitSpec(protocol="ett_minute").resolve(69680) == (34560, 46080, 57600)

    def test_ratio_protocol_uses_floor(self):
        assert SplitSpec(protocol="ratio_70_10_20").resolve(1001) == (700, 800, 1001)

    def test_two_part_boundaries_extend_to_length(self):
        assert SplitSpec(boundaries=(10, 15)).resolve(25) == (10, 15, 25)

    def test_boundaries_must_fit_and_increase(self):
        with pytest.raises(ValueError):
            SplitSpec(protocol="ett_hourly").resolve(10000)
        with pytest.raises(ValueError):
            SplitSpec(boundaries=(5, 5, 9)).resolve(9)

    def test_chronological_split_segments(self):
        rng = np.random.default_rng(0)
        series = MultivariateSeries(rng.normal(size=(3, 100)), ["a", "b", "OT"])
        tr, va, te = chronological_split(series, SplitSpec(protocol="ratio_70_10_20"))
        assert (tr.length, va.length, te.length) == (70, 10, 20)
        rebuilt = np.concatenate([tr.values, va.values, te.values], axis=1)
        np.testing.assert_array_equal(rebuilt, series.values)
        assert tr.channel_names == series.channel_names

    def test_calendar_split_discards_tail(self):
        rng = np.random.default_rng(1)
        series = MultivariateSeries(rng.normal(size=(2, 15000)), ["a", "OT"])
        tr, va, te = chronological_split(series, SplitSpec(protocol="ett_hourly"))
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
        ranked = rank_channels(self.build(), "OT")
        names = [n for n, _ in ranked]
        assert names[0] == "anti"
        assert names[1] == "strong"
        assert names[-1] == "weak"

    def test_tie_breaks_by_original_index(self):
        t = np.arange(50.0)
        series = MultivariateSeries(
            np.stack([-t, t.copy(), t]), ["mirror", "copy", "OT"]
        )
        ranked = rank_channels(series, "OT")
        assert [n for n, _ in ranked] == ["mirror", "copy"]

    def test_restricting_to_train_prefix_changes_the_answer(self):
        t = np.arange(100.0)
        rng = np.random.default_rng(4)
        # tracks the target everywhere, but imperfectly
        late = t + 0.01 * rng.normal(size=100)
        # perfect on the first half, useless afterwards
        early = np.concatenate([t[:50], 50.0 - t[50:]])
        series = MultivariateSeries(np.stack([late, early, t]), ["late", "early", "OT"])
        full = rank_channels(series, "OT", train_len=None)
        prefix = rank_channels(series, "OT", train_len=50)
        assert [n for n, _ in prefix][0] == "early"
        assert [n for n, _ in full][0] == "late"

    # the mean of twenty 0.3s is not exactly 0.3, so a test on the centred
    # sum of squares would not find that channel constant
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level", [1.0, 0.3])
    def test_constant_candidate_is_dropped(self, level):
        series = MultivariateSeries(
            np.stack([np.full(20, level), np.arange(20.0), np.arange(20.0) * 2]),
            ["flat", "ok", "OT"],
        )
        ranked = rank_channels(series, "OT")
        assert [n for n, _ in ranked] == ["ok"]
        with pytest.raises(ValueError, match="correlation undefined for a constant sequence"):
            pearson(series.values[0], series.values[2])

    def test_constant_target_is_an_error(self):
        series = MultivariateSeries(
            np.stack([np.arange(20.0), np.ones(20)]), ["a", "OT"]
        )
        with pytest.raises(ValueError, match="target channel 'OT' is constant"):
            rank_channels(series, "OT")

    def test_unknown_target(self):
        series = MultivariateSeries(np.ones((2, 10)) * np.arange(10), ["a", "b"])
        with pytest.raises(ValueError):
            rank_channels(series, "OT")


class TestSelection:
    def test_keeps_target_and_preserves_order(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=100)
        chans = [0.8 * t + 0.2 * rng.normal(size=100) for _ in range(3)]
        series = MultivariateSeries(
            np.stack([*chans, t]), ["c0", "c1", "c2", "OT"]
        )
        kept = select_top_k(series, "OT", 2)
        assert kept.channel_names[-1] == "OT"
        assert kept.n_channels == 3
        assert kept.channel_names == sorted(
            kept.channel_names, key=series.channel_names.index
        )

    def test_k_zero_keeps_only_target(self):
        rng = np.random.default_rng(7)
        series = MultivariateSeries(rng.normal(size=(3, 50)), ["a", "b", "OT"])
        kept = select_top_k(series, "OT", 0)
        assert kept.channel_names == ["OT"]

    def test_k_larger_than_available_keeps_everything(self):
        rng = np.random.default_rng(8)
        series = MultivariateSeries(rng.normal(size=(3, 50)), ["a", "b", "OT"])
        kept = select_top_k(series, "OT", 99)
        assert kept.channel_names == ["a", "b", "OT"]


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
