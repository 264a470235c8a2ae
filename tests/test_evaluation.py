"""Metrics, the train-then-predict baseline, and the benchmark harness."""

import csv
import io
import json
import math

import numpy as np
import pytest

from gptdf.data_io import generate_synthetic
from gptdf.errors import ConfigError, DataError
from gptdf.evaluation import (
    REPORT_COLUMNS,
    SERIES_COLUMNS,
    BenchmarkConfig,
    BenchmarkMethod,
    BenchmarkReport,
    BenchmarkRow,
    delay,
    mae,
    mse,
    nll,
    run_baseline_gp,
    run_benchmark,
)
from gptdf.fusion import StepRecord, fuse_predictions
from gptdf.gp_core import FitConfig, PredictiveDistribution, TemporalFeature

from conftest import DEMOS, LONG_SCALE_FEATURES, SHORT_SCALE_FEATURES

LOG_2PI = math.log(2.0 * math.pi)


def _record(step, truth, mean, var):
    return StepRecord(step=step, t=float(step), truth=truth,
                      prediction=fuse_predictions([mean], [var], [1.0]))


class TestMetrics:
    def test_nll_standard_normal_at_mean(self):
        value = nll([PredictiveDistribution(0.0, 1.0)], [0.0])
        assert value == pytest.approx(0.5 * LOG_2PI)

    def test_nll_unit_deviation(self):
        value = nll([PredictiveDistribution(0.0, 1.0)], [1.0])
        assert value == pytest.approx(0.5 + 0.5 * LOG_2PI)

    def test_nll_is_a_mean_not_a_sum(self):
        preds = [PredictiveDistribution(0.0, 1.0)] * 4
        assert nll(preds, [0.0] * 4) == pytest.approx(0.5 * LOG_2PI)

    def test_nll_is_a_python_float(self):
        # repr of a numpy float64 under numpy 2 would corrupt the CSV table
        records = [_record(0, 0.1, 0.0, 1.0), _record(1, 0.2, 0.1, 0.5)]
        value = nll([r.prediction for r in records], [0.1, 0.2])
        assert type(value) is float
        per_step = [0.5 * (0.1 ** 2 + LOG_2PI), 0.5 * (0.1 ** 2 / 0.5 + math.log(math.pi))]
        assert value == pytest.approx(sum(per_step) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            nll([PredictiveDistribution(0.0, 1.0)], [0.0, 1.0])
        with pytest.raises(ValueError, match="length mismatch"):
            mae([0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="length mismatch"):
            mse([0.0, 1.0], [0.0])

    def test_perfect_predictions(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_symmetric_errors(self):
        assert mae([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)
        assert mse([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)

    def test_single_error(self):
        assert mae([0.0], [2.0]) == pytest.approx(2.0)
        assert mse([0.0], [2.0]) == pytest.approx(4.0)

    def test_jensen_inequality(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            preds = rng.normal(size=n)
            truths = rng.normal(size=n)
            assert mae(preds, truths) ** 2 <= mse(preds, truths) + 1e-12

    def test_permutation_invariance(self, rng):
        n = 17
        means = rng.normal(size=n)
        variances = rng.uniform(0.1, 2.0, n)
        truths = rng.normal(size=n)
        preds = [PredictiveDistribution(m, v) for m, v in zip(means, variances)]
        perm = rng.permutation(n)
        assert nll([preds[i] for i in perm], truths[perm]) == \
            pytest.approx(nll(preds, truths), rel=1e-12)
        assert mae(means[perm], truths[perm]) == pytest.approx(mae(means, truths), rel=1e-12)
        assert mse(means[perm], truths[perm]) == pytest.approx(mse(means, truths), rel=1e-12)


class TestDelay:
    def test_zero_when_first_step_predicted(self):
        records = [_record(0, 0.1, 0.0, 1.0), _record(1, 0.2, 0.1, 1.0)]
        assert delay(records, 2) == 0

    def test_training_prefix(self):
        records = [_record(50, 0.1, 0.0, 1.0)]
        assert delay(records, 200) == 50

    def test_empty_log_counts_whole_stream(self):
        assert delay([], 123) == 123


@pytest.fixture(scope="module")
def stream():
    return generate_synthetic(TemporalFeature(0.8215, 2.0752, 0.1001), 120, 0)


class TestBaseline:
    def test_delay_equals_training_size(self, stream):
        records, metrics = run_baseline_gp(stream, 50, tau=30,
                                           fit_config=FitConfig(restarts=2, seed=0))
        assert metrics["delay"] == 50
        assert [r.step for r in records] == list(range(50, 120))

    def test_train_on_all_but_one(self, stream):
        short = stream.head(40)
        records, metrics = run_baseline_gp(short, 39, tau=20,
                                           fit_config=FitConfig(restarts=2, seed=0))
        assert len(records) == 1
        assert metrics["delay"] == 39

    def test_training_size_bounds(self, stream):
        with pytest.raises(DataError):
            run_baseline_gp(stream, 4)
        with pytest.raises(DataError):
            run_baseline_gp(stream, len(stream))

    def test_more_training_does_not_hurt_on_average(self):
        # statistical trend over seeds: a longer training prefix gives a
        # better-calibrated model and no worse NLL on the tail
        truth = TemporalFeature(0.8215, 2.0752, 0.1001)
        small, large = [], []
        for seed in range(5):
            stream = generate_synthetic(truth, 220, 100 + seed)
            for size, sink in ((20, small), (120, large)):
                _, metrics = run_baseline_gp(stream, size, tau=50,
                                             fit_config=FitConfig(restarts=4, seed=seed))
                sink.append(metrics["nll"])
        assert np.mean(large) <= np.mean(small)


def _features(dicts):
    return tuple(TemporalFeature.from_dict(d) for d in dicts)


@pytest.fixture(scope="module")
def report():
    stream = generate_synthetic(TemporalFeature(0.8215, 2.0752, 0.1001), 170, 1)
    methods = (
        BenchmarkMethod("GPTDF-All", "fusion",
                        features=_features(SHORT_SCALE_FEATURES + LONG_SCALE_FEATURES)),
        BenchmarkMethod("GPTDF-I", "fusion", features=_features(SHORT_SCALE_FEATURES)),
        BenchmarkMethod("GPTDF-II", "fusion", features=_features(LONG_SCALE_FEATURES)),
        BenchmarkMethod("GP-I", "baseline", train_size=50),
        BenchmarkMethod("GP-II", "baseline", train_size=100),
        BenchmarkMethod("GP-III", "baseline", train_size=150),
    )
    config = BenchmarkConfig(methods=methods, stream=stream, tau=40,
                             normalization="offline",
                             fit=FitConfig(restarts=2, seed=0))
    return run_benchmark(config)


class TestBenchmark:
    def test_six_row_table(self, report):
        assert len(report.rows) == 6
        assert [r.method for r in report.rows] == sorted(r.method for r in report.rows)
        for row in report.rows:
            assert row.error == ""
            assert math.isfinite(row.nll) and math.isfinite(row.mae) and math.isfinite(row.mse)

    def test_delays(self, report):
        by_name = {r.method: r for r in report.rows}
        assert by_name["GPTDF-All"].delay == 0
        assert by_name["GPTDF-I"].delay == 0
        assert by_name["GPTDF-II"].delay == 0
        assert by_name["GP-I"].delay == 50
        assert by_name["GP-II"].delay == 100
        assert by_name["GP-III"].delay == 150

    def test_csv_schema_and_round_trip(self, report):
        text = report.to_csv()
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(REPORT_COLUMNS)
        by_name = {r.method: r for r in report.rows}
        for row in parsed[1:]:
            ref = by_name[row[0]]
            assert float(row[1]) == ref.nll
            assert float(row[2]) == ref.mae
            assert float(row[3]) == ref.mse
            assert int(row[4]) == ref.delay

    def test_row_formatting_round_trips_reference_values(self):
        # four-decimal metric magnitudes survive CSV emit/parse unchanged
        row = BenchmarkRow(method="GPTDF-All", nll=0.2839, mae=0.2472, mse=0.1041, delay=0)
        report = BenchmarkReport(rows=(row,), series={})
        parsed = list(csv.reader(io.StringIO(report.to_csv())))[1]
        assert parsed == ["GPTDF-All", "0.2839", "0.2472", "0.1041", "0", ""]
        assert float(parsed[1]) == 0.2839

    def test_series_files(self, report, tmp_path):
        written = report.write_series_csvs(tmp_path)
        assert len(written) == 6
        with open(written[0], encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(SERIES_COLUMNS)
        assert len(rows) > 1

    def test_single_method(self):
        stream = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 40, 2)
        config = BenchmarkConfig(
            methods=(BenchmarkMethod("only", "fusion",
                                     features=_features(SHORT_SCALE_FEATURES[:1])),),
            stream=stream, normalization="offline")
        report = run_benchmark(config)
        assert len(report.rows) == 1
        assert report.rows[0].delay == 0

    def test_method_failure_isolated(self):
        stream = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 40, 3)
        config = BenchmarkConfig(
            methods=(BenchmarkMethod("bad", "baseline", train_size=45),
                     BenchmarkMethod("good", "fusion",
                                     features=_features(SHORT_SCALE_FEATURES[:1]))),
            stream=stream, normalization="offline",
            fit=FitConfig(restarts=2, seed=0))
        report = run_benchmark(config)
        by_name = {r.method: r for r in report.rows}
        assert by_name["bad"].error != ""
        assert math.isnan(by_name["bad"].nll)
        assert by_name["good"].error == ""
        assert "good" in report.series and "bad" not in report.series

    def test_empty_methods_rejected(self):
        stream = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 30, 4)
        with pytest.raises(ConfigError):
            BenchmarkConfig(methods=(), stream=stream)

    def test_duplicate_method_names_rejected(self):
        stream = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 30, 4)
        method = BenchmarkMethod("x", "fusion", features=_features(SHORT_SCALE_FEATURES[:1]))
        with pytest.raises(ConfigError):
            BenchmarkConfig(methods=(method, method), stream=stream)

    def test_loop_settings_validated(self):
        stream = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 30, 4)
        method = BenchmarkMethod("x", "fusion", features=_features(SHORT_SCALE_FEATURES[:1]))
        with pytest.raises(ConfigError):
            BenchmarkConfig(methods=(method,), stream=stream, alpha=0.0)
        with pytest.raises(ConfigError):
            BenchmarkConfig(methods=(method,), stream=stream, tau=0)
        with pytest.raises(ConfigError, match="unknown normalization mode 'onlin'"):
            BenchmarkConfig(methods=(method,), stream=stream, normalization="onlin")

    def test_config_from_dict(self, tmp_path):
        raw = {
            "stream": {"synthetic": {"sigma_f": 0.8, "sigma_l": 2.0, "sigma_n": 0.1, "n": 30}},
            "methods": [
                {"name": "f", "kind": "fusion", "features": SHORT_SCALE_FEATURES[:2]},
                {"name": "b", "kind": "baseline", "train_size": 10},
            ],
            "tau": 20,
            "alpha": 0.85,
            "normalization": "offline",
        }
        config = BenchmarkConfig.from_dict(raw, fallback_seed=7)
        assert len(config.methods) == 2
        assert config.tau == 20
        assert config.alpha == 0.85
        demo = json.loads((DEMOS / "bench_small.json").read_text(encoding="utf-8"))
        config = BenchmarkConfig.from_dict(demo)
        assert (config.tau, config.alpha, config.normalization, config.fit.restarts) == (
            50, 0.9, "offline", 4)
        assert len(config.stream) == demo["stream"]["synthetic"]["n"]
        assert [(m.name, m.kind, [f.as_dict() for f in m.features], m.train_size)
                for m in config.methods] == [
            (m["name"], m["kind"], m.get("features", []), m.get("train_size", 0))
            for m in demo["methods"]]
        # JSON integers where floats are expected; a time column by name or index
        path = tmp_path / "stream.csv"
        path.write_text("t,y\n0,1.0\n1,2.5\n3,0.5\n")
        for time_column in ("t", 0):
            config = BenchmarkConfig.from_dict({
                "stream": {"csv": str(path), "column": "y", "time_column": time_column},
                "methods": [{"name": "f", "kind": "fusion",
                             "features": [{"sigma_f": 1, "sigma_l": 2, "sigma_n": 0}]}],
                "fit": {"sigma_f_bounds": [1, 1000]}})
            assert config.stream.timestamps.tolist() == [0.0, 1.0, 3.0]
            assert config.methods[0].features == (TemporalFeature(1.0, 2.0, 0.0),)
            assert config.fit.sigma_f_bounds == (1.0, 1000.0)

    def test_bad_method_kind(self):
        with pytest.raises(ConfigError):
            BenchmarkMethod("x", "interpolator")
