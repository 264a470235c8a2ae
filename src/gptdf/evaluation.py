"""Metrics (NLL, MAE, MSE, delay), the train-then-predict GP baseline, and
the benchmark harness that compares fusion variants against baselines on a
shared stream."""

from __future__ import annotations

import io
import csv
import math
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import data_io, fusion, gp_core
from .errors import ConfigError, DataError, GptdfError, read_settings
from .fusion import gaussian_log_density
from .gp_core import FitConfig, TemporalFeature

__all__ = [
    "nll",
    "mae",
    "mse",
    "delay",
    "run_baseline_gp",
    "BenchmarkMethod",
    "BenchmarkConfig",
    "BenchmarkRow",
    "BenchmarkReport",
    "series_file_name",
    "run_benchmark",
    "REPORT_COLUMNS",
    "SERIES_COLUMNS",
]

SERIES_COLUMNS = ("step", "t", "y", "mean", "var", "lo", "hi")


def _check_lengths(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} predictions vs {len(b)} truths")
    if len(a) == 0:
        raise ValueError("need at least one prediction")


def nll(predictions, truths):
    """Mean negative log Gaussian density of the truths under the
    predictions (per-step mean, not a sum)."""
    _check_lengths(predictions, truths)
    dists = [p.distribution if isinstance(p, fusion.FusedPrediction) else p
             for p in predictions]
    log_p = gaussian_log_density(np.array([d.mean for d in dists]),
                                 np.array([d.variance for d in dists]),
                                 np.asarray(truths, dtype=float))
    # Summed in step order, not numpy's pairwise order: the mean is the same
    # float that a running total over the steps gives.
    return float(-np.cumsum(log_p)[-1] / log_p.size)


def mae(predicted_means, truths):
    m = np.asarray(predicted_means, dtype=float)
    y = np.asarray(truths, dtype=float)
    _check_lengths(m, y)
    return float(np.abs(m - y).mean())


def mse(predicted_means, truths):
    m = np.asarray(predicted_means, dtype=float)
    y = np.asarray(truths, dtype=float)
    _check_lengths(m, y)
    return float(((m - y) ** 2).mean())


def delay(records, stream_length):
    """Number of leading stream steps with no emitted prediction: the step
    index of the first record, or the stream length if nothing was emitted."""
    if not records:
        return int(stream_length)
    return int(min(r.step for r in records))


def _metrics_from_records(records, stream_length):
    preds = [r.prediction for r in records]
    truths = [r.truth for r in records]
    means = [r.prediction.distribution.mean for r in records]
    return {
        "nll": nll(preds, truths),
        "mae": mae(means, truths),
        "mse": mse(means, truths),
        "delay": delay(records, stream_length),
    }


def run_baseline_gp(stream, train_size, tau=fusion.DEFAULT_TAU, fit_config=None):
    """Train-then-predict baseline: fit the feature triple on the first
    `train_size` points, then run the online loop with that one expert over
    the remaining steps, its window seeded with the last `tau` prefix points.

    Returns (records, metrics). The first `train_size` steps have no
    prediction, so the delay equals `train_size` by construction.
    """
    n = len(stream)
    train_size = int(train_size)
    if train_size < gp_core.MIN_FIT_POINTS:
        raise DataError(f"training size {train_size} is below the fitting minimum "
                        f"{gp_core.MIN_FIT_POINTS}")
    if train_size >= n:
        raise DataError(f"training size {train_size} must be smaller than the stream ({n})")
    feature = gp_core.fit_hyperparameters(stream.head(train_size), fit_config)
    state = fusion.ensemble_from_features([feature], tau=tau, window=stream.head(train_size))
    state.step = train_size
    tail = gp_core.TimeSeries(stream.timestamps[train_size:], stream.values[train_size:])
    records = fusion.run_stream(state, tail)
    return records, _metrics_from_records(records, n)


@dataclass(frozen=True)
class BenchmarkMethod:
    """One table row to produce: either a fusion run over a feature set
    (kind="fusion") or a train-then-predict baseline (kind="baseline")."""

    name: str
    kind: str
    features: tuple = ()
    train_size: int = 0

    def __post_init__(self):
        if self.kind not in ("fusion", "baseline"):
            raise ConfigError(f"unknown method kind {self.kind!r}")
        if self.kind == "fusion" and not self.features:
            raise ConfigError(f"method {self.name!r} needs at least one feature")
        if self.kind == "baseline" and int(self.train_size) < 1:
            raise ConfigError(f"method {self.name!r} needs a positive train_size")
        object.__setattr__(self, "features", tuple(self.features))

    @classmethod
    def from_dict(cls, d):
        return cls(**read_settings(d, {"name": str, "kind": str,
                                       "features": [TemporalFeature.from_dict],
                                       "train_size": int}, "benchmark method"))


@dataclass(frozen=True)
class BenchmarkConfig:
    methods: tuple
    stream: gp_core.TimeSeries
    tau: int = fusion.DEFAULT_TAU
    alpha: float = fusion.DEFAULT_ALPHA
    normalization: str = "online"
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("benchmark needs at least one method")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate method names in {names}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 1 <= int(self.tau) <= sys.maxsize:  # window indices are ssize_t
            raise ConfigError(f"tau must be >= 1 and <= {sys.maxsize}, got {self.tau}")
        if self.normalization not in data_io.NORMALIZATION_MODES:
            raise ConfigError(f"unknown normalization mode {self.normalization!r}")

    @classmethod
    def from_dict(cls, d, fallback_seed=0):
        return cls(**read_settings(d, {
            "methods": [BenchmarkMethod.from_dict],
            "stream": lambda spec: data_io.resolve_data_spec(spec, fallback_seed),
            "tau": int, "alpha": float, "normalization": str,
            "fit": FitConfig.from_dict}, "benchmark config"))


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    nll: float = math.nan
    mae: float = math.nan
    mse: float = math.nan
    delay: int = -1
    error: str = ""


REPORT_COLUMNS = tuple(f.name for f in fields(BenchmarkRow))


def series_file_name(method_name):
    """The file a method's per-step series CSV is written to; characters
    other than letters, digits, '-' and '_' become '_'."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in method_name)
    return f"series_{safe}.csv"


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple
    series: dict  # method name -> list of per-step dicts (SERIES_COLUMNS)

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(astuple(row) for row in self.rows)
        return buf.getvalue()

    def write_series_csvs(self, out_dir):
        """One plot-ready CSV per method: truth, predictive mean/variance,
        and the 3-sigma band per step."""
        import pathlib

        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name in sorted(self.series):
            path = out_dir / series_file_name(name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, SERIES_COLUMNS)
                writer.writeheader()
                writer.writerows(self.series[name])
            written.append(path)
        return written


def _series_rows(records):
    rows = []
    for rec in records:
        dist = rec.prediction.distribution
        lo, hi = rec.prediction.interval_3sigma
        rows.append({"step": rec.step, "t": rec.t, "y": rec.truth,
                     "mean": dist.mean, "var": dist.variance, "lo": lo, "hi": hi})
    return rows


def run_benchmark(config):
    """Run every configured method on the shared (normalized) stream and
    assemble the comparison table.

    Rows are ordered by method name. A method failure does not abort the
    benchmark: its row carries the error message and empty metrics.
    """
    stream = data_io.prepare_stream(config.stream, config.normalization).series
    rows = []
    series = {}
    for method in sorted(config.methods, key=lambda m: m.name):
        try:
            if method.kind == "fusion":
                state = fusion.ensemble_from_features(method.features,
                                                      tau=config.tau, alpha=config.alpha)
                records = fusion.run_stream(state, stream)
                metrics = _metrics_from_records(records, len(stream))
            else:
                records, metrics = run_baseline_gp(stream, method.train_size,
                                                   tau=config.tau, fit_config=config.fit)
        except GptdfError as exc:
            rows.append(BenchmarkRow(method=method.name, error=str(exc)))
            continue
        rows.append(BenchmarkRow(method=method.name, **metrics))
        series[method.name] = _series_rows(records)
    return BenchmarkReport(rows=tuple(rows), series=series)
