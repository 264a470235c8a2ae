"""CSV ingestion, normalization (offline and causal), and synthetic data."""

import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gptdf.data_io import (
    generate_synthetic,
    load_csv,
    normalize,
    prepare_stream,
    resolve_data_spec,
)
from gptdf.errors import ConfigError, DataError, GptdfError
from gptdf.gp_core import (
    FitConfig,
    GPModel,
    Matern52,
    TemporalFeature,
    TimeSeries,
    fit_hyperparameters,
    sample_prior,
)

CSV_CELLS = st.sampled_from(["1", "-2.5", " 3 ", "1e999", "nan", "inf", "", "t", "y",
                             '"', '"4"', "\x00", "\ufeff5"]) | st.text(max_size=4)
CSV_TEXTS = st.text() | st.lists(st.lists(CSV_CELLS, max_size=4).map(",".join),
                                 max_size=8).map("\n".join)


class TestLoadCsv:
    def test_plain_values(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1\n2\n3\n")
        series = load_csv(p)
        np.testing.assert_array_equal(series.timestamps, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("text, rows", [
        ("y\n1\n\n\n2\nabc\n3\n", "[6]"),  # blank lines count
        ('y\n1\n"a\nb"\nxyz\n2\n', "[3, 5]"),  # a quoted cell spans lines 3-4
        ("y\r\n1\r\n\r\nabc\r\n", "[4]"),
    ])
    def test_bad_row_named_by_the_line_it_starts_on(self, tmp_path, text, rows):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match=re.escape(f"rows {rows}")):
            load_csv(path, column="y")

    def test_blank_value_row_reported(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1\n\n2\n,\n3\n")
        with pytest.raises(DataError, match=r"rows \[4\]"):  # the blank line 2 counts
            load_csv(p)

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("flow\n")
        with pytest.raises(DataError, match="empty series"):
            load_csv(p)

    def test_header_detected_for_index_selector(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("flow\n10\n20\n")
        series = load_csv(p, column=0)
        np.testing.assert_array_equal(series.values, [10.0, 20.0])

    def test_column_by_name(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("t,flow\n0,10\n1,20\n")
        series = load_csv(p, column="flow")
        np.testing.assert_array_equal(series.values, [10.0, 20.0])

    def test_missing_column_name(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("t,flow\n0,10\n")
        with pytest.raises(DataError, match="'speed' not found"):
            load_csv(p, column="speed")

    def test_explicit_time_column(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("t,flow\n0.5,10\n1.5,20\n2.25,30\n")
        series = load_csv(p, column="flow", time_column="t")
        np.testing.assert_array_equal(series.timestamps, [0.5, 1.5, 2.25])

    def test_non_monotone_time_column(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("t,flow\n0,10\n0,20\n")
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(p, column="flow", time_column="t")

    @pytest.mark.parametrize("column, time_column", [(-5, None), (5, None), ("flow", -9)])
    def test_column_past_row_width(self, tmp_path, column, time_column):
        p = tmp_path / "v.csv"
        p.write_text("t,flow\n0,10\n1,20\n")
        with pytest.raises(DataError):
            load_csv(p, column=column, time_column=time_column)

    def test_negative_column_counts_from_the_end(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("0.5,10\n1.5,20\n")
        series = load_csv(p, column=-1, time_column=-2)
        np.testing.assert_array_equal(series.values, [10.0, 20.0])
        np.testing.assert_array_equal(series.timestamps, [0.5, 1.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    @settings(max_examples=200, deadline=None)
    @given(text=CSV_TEXTS, selectors=st.sampled_from([(0, None), (1, 0), ("y", None),
                                                      ("y", "t"), (0, 3)]))
    def test_arbitrary_text_loads_or_raises_data_error(self, text, selectors):
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "v.csv")
            with open(p, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                series = load_csv(p, *selectors)
            except GptdfError:
                return
        assert isinstance(series, TimeSeries) and len(series) >= 1

    @pytest.mark.parametrize("text, selectors", [("nan\n1\n2\n", (0, None)),
                                                 ("inf,0\n1,1\n", (0, 1))],
                             ids=["nan-value", "inf-value"])
    def test_non_finite_first_value_is_data_not_header(self, tmp_path, text, selectors):
        p = tmp_path / "v.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=r"rows \[1\]"):
            load_csv(p, *selectors)

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1\ninf\n2\n")
        with pytest.raises(DataError, match=r"rows \[2\]"):
            load_csv(p)

    @pytest.mark.parametrize("content", [b"1\n2\n\xff\n", b"1\n" + b"9" * 200_000 + b"\n"],
                             ids=["not-utf8", "field-past-csv-limit"])
    def test_unreadable_text_rejected(self, tmp_path, content):
        p = tmp_path / "v.csv"
        p.write_bytes(content)
        with pytest.raises(DataError, match="not readable"):
            load_csv(p)
        # a data spec naming the file reports it as data, not as a bad spec
        with pytest.raises(DataError):
            resolve_data_spec({"csv": str(p)})

    @pytest.mark.parametrize("text, selectors", [("\ufeff1.0\n2.0\n3.0\n", (0, None)),
                                                 ("\ufefft,y\n0,1\n1,2\n2,3\n", ("y", "t"))],
                             ids=["before-data", "before-header"])
    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path, text, selectors):
        p = tmp_path / "v.csv"
        p.write_text(text, encoding="utf-8")
        series = load_csv(p, *selectors)
        np.testing.assert_array_equal(series.timestamps, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_memory_holds_the_selected_columns_not_the_rows(self, tmp_path, rng):
        p = tmp_path / "wide.csv"
        table = rng.normal(size=(20_000, 20))
        table[:, 0] = np.arange(20_000)
        np.savetxt(p, table, delimiter=",")
        tracemalloc.start()
        try:
            series = load_csv(p, column=3, time_column=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(series.values, table[:, 3])
        assert peak < 8e6  # holding every row's cells as strings peaks near 38 MB


class TestNormalize:
    def test_three_point_exact(self):
        series, (mean, std) = normalize(TimeSeries.from_values([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(series.values, [-1.0, 0.0, 1.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_idempotent_up_to_stats(self, rng):
        series, _ = normalize(TimeSeries.from_values(rng.normal(3.0, 2.0, 40)))
        again, (mean, std) = normalize(series)
        np.testing.assert_allclose(again.values, series.values, atol=1e-12)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert std == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(DataError, match="zero variance"):
            normalize(TimeSeries.from_values([5.0, 5.0, 5.0]))

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            normalize(TimeSeries.from_values([5.0]))

    def test_output_moments(self, rng):
        series, _ = normalize(TimeSeries.from_values(rng.normal(7.0, 0.3, 100)))
        assert series.values.mean() == pytest.approx(0.0, abs=1e-12)
        assert series.values.std(ddof=1) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(values=arrays(np.float64, st.integers(2, 30),
                         elements=st.floats(-1e6, 1e6)).filter(
                             lambda v: np.std(v) > 1e-6))
    def test_round_trip(self, values):
        series = TimeSeries.from_values(values)
        normalized, (mean, std) = normalize(series)
        back = normalized.values * std + mean
        np.testing.assert_allclose(back, series.values,
                                   rtol=1e-12, atol=1e-9)


class TestPrepareStream:
    def test_offline_matches_normalize(self, rng):
        raw = TimeSeries.from_values(rng.normal(5.0, 2.0, 30))
        prepared = prepare_stream(raw, "offline")
        expected, (mean, std) = normalize(raw)
        np.testing.assert_allclose(prepared.series.values, expected.values)
        np.testing.assert_allclose(prepared.series.values, (raw.values - mean) / std)

    def test_online_is_causal(self, rng):
        raw = TimeSeries.from_values(rng.normal(5.0, 2.0, 25))
        series = prepare_stream(raw, "online").series.values
        y = raw.values
        # the first step is left as it is, the second centered on the first
        assert series[0] == y[0] and series[1] == y[1] - y[0]
        # step k is centered on the mean of the values before k and scaled by
        # their regularized std
        for k in range(2, 25):
            prefix = y[:k]
            ssd = float(((prefix - prefix.mean()) ** 2).sum())
            scale = math.sqrt((ssd + 2.0) / (k + 1))
            assert series[k] == pytest.approx((y[k] - prefix.mean()) / scale)
        # regularization washes out: close to the plain sample std by the end
        assert series[24] == pytest.approx((y[24] - y[:24].mean()) / y[:24].std(ddof=1),
                                           rel=0.1)
        # a later value changes no earlier step
        changed = TimeSeries.from_values(np.concatenate([y[:20], y[20:] + 100.0]))
        np.testing.assert_array_equal(prepare_stream(changed, "online").series.values[:20],
                                      series[:20])

    def test_online_survives_constant_prefix(self):
        raw = TimeSeries.from_values([2.0, 2.0, 2.0, 5.0, 6.0])
        prepared = prepare_stream(raw, "online")
        assert np.isfinite(prepared.series.values).all()
        # the pseudo-observations keep a near-constant prefix from exploding:
        # the first step off it is scaled by sqrt((0 + 2) / (3 + 1))
        assert prepared.series.values[3] == pytest.approx(3.0 / math.sqrt(0.5))
        assert np.abs(prepared.series.values).max() < 10.0

    def test_none_mode_is_identity(self):
        raw = TimeSeries.from_values([1.0, 4.0])
        prepared = prepare_stream(raw, "none")
        np.testing.assert_array_equal(prepared.series.values, raw.values)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            prepare_stream(TimeSeries.from_values([1.0, 2.0]), "sideways")


class TestGenerateSynthetic:
    def test_zero_noise_equals_prior_draw(self):
        feature = TemporalFeature(0.7, 2.0, 0.0)
        series = generate_synthetic(feature, 30, 11)
        direct = sample_prior(GPModel(Matern52(0.7, 2.0), noise_std=0.0),
                              np.arange(30.0), 11)
        np.testing.assert_array_equal(series.values, direct)

    def test_deterministic_per_seed(self):
        feature = TemporalFeature(0.8, 2.0, 0.1)
        a = generate_synthetic(feature, 50, 4)
        b = generate_synthetic(feature, 50, 4)
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_synthetic(feature, 50, 5)
        assert not np.array_equal(a.values, c.values)

    def test_noise_free_moments(self):
        feature = TemporalFeature(1.0, 1.0, 0.0)
        draws = np.concatenate([generate_synthetic(feature, 400, s).values
                                for s in range(8)])
        assert abs(draws.var(ddof=1) - 1.0) < 0.1

    def test_long_series_refits_to_generating_scale(self):
        # consistency at scale: generate long, refit on a prefix
        feature = TemporalFeature(0.8215, 2.0752, 0.1001)
        hits = 0
        for seed in range(3):
            series = generate_synthetic(feature, 5000, seed)
            refit = fit_hyperparameters(series.head(400), FitConfig(restarts=4, seed=seed))
            hits += 0.5 * 2.0752 <= refit.sigma_l <= 1.5 * 2.0752
        assert hits >= 2

    def test_bad_length(self):
        with pytest.raises(ValueError):
            generate_synthetic(TemporalFeature(1, 1, 0.1), 0, 0)


class TestResolveDataSpec:
    def test_synthetic_spec(self):
        series = resolve_data_spec(
            {"synthetic": {"sigma_f": 1.0, "sigma_l": 2.0, "sigma_n": 0.1, "n": 20, "seed": 3}})
        assert len(series) == 20

    def test_csv_spec(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1\n2\n")
        series = resolve_data_spec({"csv": str(p)})
        assert len(series) == 2

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            resolve_data_spec({"parquet": "x"})
        with pytest.raises(ConfigError):
            resolve_data_spec({"synthetic": {"sigma_f": 1.0}})

    def test_malformed_csv_entry_is_a_config_error(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1\n2\n")
        with pytest.raises(ConfigError):
            resolve_data_spec({"csv": str(p), "column": [0]})
        # an int is no path: open() would read and close that file descriptor
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(ConfigError):
                resolve_data_spec({"csv": read_end})
            os.fstat(read_end)
        finally:
            os.close(read_end)
            os.close(write_end)
