"""Ingestion and preprocessing: CSV loading, normalization (offline and
causal/online), and synthetic series generation."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MALFORMED, ConfigError, DataError, read_settings
from .gp_core import (MAX_SAMPLE_POINTS, GPModel, Matern52, TemporalFeature, TimeSeries,
                      sample_prior)

NORMALIZATION_MODES = ("online", "offline", "none")

__all__ = [
    "PreparedStream",
    "load_csv",
    "normalize",
    "prepare_stream",
    "generate_synthetic",
    "check_data_spec",
    "resolve_data_spec",
]


def _columns(first, column, time_column):
    """The value and time column indices, and whether `first`, the file's
    first nonblank row, is a header: it is when a selector is a name, or when
    its value cell does not parse as a float (so a nan or inf first row is
    data). Negative indices count from the end of the row."""
    names = [cell.strip() for cell in first]

    def index(sel):
        if not isinstance(sel, str):
            return int(sel)
        if sel not in names:
            raise DataError(f"column {sel!r} not found in header {names}")
        return names.index(sel)

    col = index(column)
    time_col = None if time_column is None else index(time_column)
    header = isinstance(column, str) or isinstance(time_column, str)
    if not header:
        try:
            float(first[col])
        except (IndexError, ValueError):
            header = True
    return col, time_col, header


def load_csv(path, column=0, time_column=None):
    """Load one value column (by index or header name) from a CSV file.

    Without a time column, timestamps are consecutive integers 0..n-1. Rows
    whose selected cells do not parse as finite numbers abort the load with
    the 1-based line each starts on. Header rows are detected automatically
    for integer column selectors and required for name selectors. The file
    is read once, as UTF-8 with or without a byte-order mark, and only the
    selected cells' floats are kept.
    """
    values, times, bad_rows = [], [], []
    col = None  # the value column's index, once the first nonblank row is read
    try:  # fspath: open() would take an int as a file descriptor
        with open(os.fspath(path), encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            end = 0  # the line the last row ended on: a quoted cell may span lines
            for row in reader:
                start, end = end + 1, reader.line_num
                if not row:
                    continue
                if col is None:
                    col, time_col, header = _columns(row, column, time_column)
                    if header:
                        continue
                try:
                    v = float(row[col])
                    t = v if time_col is None else float(row[time_col])
                except (IndexError, ValueError):  # past either end of the row, or not a number
                    v = t = math.nan
                if math.isfinite(v) and math.isfinite(t):
                    values.append(v)
                    if time_col is not None:
                        times.append(t)
                else:
                    bad_rows.append(start)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path} is not readable as UTF-8 CSV: {exc}") from exc

    if col is None:
        raise DataError(f"empty series: no rows in {path}")
    if bad_rows:
        # the first five name the rows; a file of any length gives one short line
        where = (f"rows {bad_rows}" if len(bad_rows) <= 5
                 else f"{len(bad_rows)} rows, the first five at rows {bad_rows[:5]}")
        raise DataError(f"unparseable values in {path} at {where}")
    if not values:
        raise DataError(f"empty series: no data rows in {path}")

    if time_col is not None:
        t = np.asarray(times, dtype=float)
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise DataError(f"time column in {path} is not strictly increasing")
        return TimeSeries(t, np.asarray(values, dtype=float))
    return TimeSeries.from_values(values)


def normalize(data):
    """Center and scale to sample std one (n-1 denominator).

    Returns the transformed series and the (mean, std) pair it was
    transformed by: series = (data - mean) / std.
    Refuses series shorter than 2 points, with zero variance, or whose mean
    or std overflows.
    """
    if len(data) < 2:
        raise DataError("need at least 2 points to normalize")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(data.values.mean())
        std = float(data.values.std(ddof=1))
    if std == 0.0:
        raise DataError("zero variance: cannot normalize a constant series")
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DataError(f"values too large to normalize: mean={mean}, std={std}")
    return TimeSeries(data.timestamps, (data.values - mean) / std), (mean, std)


@dataclass(frozen=True)
class PreparedStream:
    """A stream transformed for online consumption."""

    series: TimeSeries


def prepare_stream(data, mode="online"):
    """Transform a raw stream for prediction.

    mode="online": causal normalization. Step k is centered with the mean of
    the values strictly before it and scaled with a regularized running std,
    sqrt((m2 + 2) / (count + 1)) where m2 is the prefix sum of squared
    deviations: two unit pseudo-observations keep the scale bounded away
    from zero while a near-constant prefix lasts, and wash out as O(1/count).
    mode="offline": whole-series normalization up front.
    mode="none": identity.
    Raises DataError when a running mean or scale overflows.
    """
    if mode not in NORMALIZATION_MODES:
        raise ConfigError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        return PreparedStream(data)
    if mode == "offline":
        return PreparedStream(normalize(data)[0])

    normalized = []
    # Welford recursion over the prefix strictly before each step; the first
    # step is centered at 0 and the first two are scaled by 1
    count, mean, m2, scale = 0, 0.0, 0.0, 1.0
    for k, x in enumerate(data.values.tolist()):
        if count >= 2:
            scale = math.sqrt((m2 + 2.0) / (count + 1))
        normalized.append((x - mean) / scale)
        count += 1
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
        if not 0.0 <= m2 < math.inf:  # false once the mean or m2 overflows
            raise DataError(f"values too large to normalize: running scale overflows at step {k}")
    return PreparedStream(TimeSeries(data.timestamps, normalized))


def generate_synthetic(feature, n, seed):
    """Sample a noise-free prior path from the feature's kernel at integer
    times 0..n-1, then add independent observation noise of level sigma_n.
    Deterministic per seed."""
    if (n := int(n)) < 1:
        raise ValueError("n must be >= 1")
    ts = np.arange(n, dtype=float)
    rng = np.random.default_rng(seed)
    latent_model = GPModel(Matern52(feature.sigma_f, feature.sigma_l), noise_std=0.0)
    f = sample_prior(latent_model, ts, rng)
    y = f + rng.normal(0.0, feature.sigma_n, n) if feature.sigma_n > 0.0 else f
    return TimeSeries(ts, y)


_CSV_SPEC = {"csv": str, "column": (int, str), "time_column": (int, str, type(None))}
_SYNTHETIC_SPEC = {"sigma_f": float, "sigma_l": float, "sigma_n": float, "n": int, "seed": int}


def check_data_spec(spec, what="data spec"):
    """Check a data spec, {"csv": path, "column"?, "time_column"?} or
    {"synthetic": {"sigma_f", "sigma_l", "sigma_n", "n", "seed"?}}, without
    reading a CSV or generating data; raise ConfigError naming `what` if it is malformed.
    Return its loader: a function of the seed for a synthetic spec without one."""
    try:
        if isinstance(spec, dict) and "synthetic" in spec:
            s = read_settings(spec, {"synthetic": _SYNTHETIC_SPEC}, "data spec")["synthetic"]
            feature, n = TemporalFeature(s["sigma_f"], s["sigma_l"], s["sigma_n"]), s["n"]
            if not 1 <= n <= MAX_SAMPLE_POINTS or s.get("seed", 0) < 0:
                raise ValueError(f"synthetic n must be >= 1 and <= {MAX_SAMPLE_POINTS} "
                                 f"and seed >= 0: {s}")
            return lambda seed: generate_synthetic(feature, n, s.get("seed", seed))
        s = read_settings(spec, _CSV_SPEC, "data spec")
        path = s.pop("csv")
        return lambda seed: load_csv(path, **s)
    except MALFORMED as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {what}: {detail}") from exc


def resolve_data_spec(spec, fallback_seed=0):
    """Materialize a data spec (see `check_data_spec`) into a TimeSeries."""
    return check_data_spec(spec)(fallback_seed)
