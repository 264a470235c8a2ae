"""Workload inputs and node operations.

Every input is generated from the workload seed during set-up: historical
archives, target streams, the irregular-grid CSV files and the feature
records the registry is pre-seeded with. A node operation calls the library
only through module attributes (``fusion.gptdf_step``, ``data_io.load_csv``,
...), so the traced run can rebind them from outside the library.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from gptdf import data_io, edge_sim, evaluation, fusion, gp_core
from gptdf.gp_core import FitConfig, GPModel, Matern52, TemporalFeature

# Generating process of every synthetic series: a Matern-5/2 path with unit
# output scale plus white noise of this level. The noise keeps the per-point
# NLL well away from zero, so the quality metrics are never near 0.
SIGNAL_STD = 1.0
NOISE_STD = 0.5
LENGTH_SCALES = (1.5, 10.0)
# Every node fits with the library's default restart seed, as nodes
# configured alike would; the archives carry the variety.
FIT_CONFIG = FitConfig(restarts=4)


@dataclass(frozen=True)
class Shape:
    """Fixed shape of one workload.

    ``pool`` distinct inputs are generated and cycled through; the first
    ``prefix`` nodes of every run always complete, and the counts that must
    repeat exactly for a seed (NLL, wire bytes, call counts) are taken over
    that prefix only, whatever the run's length.
    """

    kind: str  # "historical" or "target"
    points: int  # archive length or stream length per node
    pool: int
    prefix: int
    experts: int = 0
    tau: int = 0
    irregular: bool = False


SHAPES = {
    "historical-fit": Shape(kind="historical", points=400, pool=16, prefix=6),
    "target-regular": Shape(kind="target", points=250, pool=32, prefix=8,
                            experts=16, tau=50),
    "target-irregular": Shape(kind="target", points=400, pool=32, prefix=8,
                              experts=4, tau=100, irregular=True),
}


def spread_order(n):
    """Bit-reversal permutation of range(n) (n a power of two): every prefix
    of the order covers the whole range evenly."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def length_scales(n):
    """n length scales spread geometrically over LENGTH_SCALES, in an order
    whose every prefix spans the range."""
    grid = np.geomspace(*LENGTH_SCALES, n)
    return [float(grid[i]) for i in spread_order(n)]


@dataclass
class Inputs:
    archives: list = field(default_factory=list)  # TimeSeries per historical node
    records: list = field(default_factory=list)  # pre-seeded FeatureRecords
    streams: list = field(default_factory=list)  # TimeSeries per target node
    csv_paths: list = field(default_factory=list)  # irregular target streams


def _irregular_times(rng, n):
    """Strictly increasing times with jittered gaps in [0.55, 1.45]."""
    return np.cumsum(1.0 + rng.uniform(-0.45, 0.45, n))


def _write_csv(path, series):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,y\n")
        for t, y in zip(series.timestamps.tolist(), series.values.tolist()):
            fh.write(f"{t!r},{y!r}\n")


def make_inputs(name, seed, out_dir):
    shape = SHAPES[name]
    seeds = np.random.SeedSequence([seed, sorted(SHAPES).index(name)]).spawn(shape.pool + 1)
    inputs = Inputs()
    if shape.kind == "historical":
        for i, ls in enumerate(length_scales(shape.pool)):
            node_seed = int(seeds[i].generate_state(1)[0])
            feature = TemporalFeature(SIGNAL_STD, ls, NOISE_STD)
            inputs.archives.append(data_io.generate_synthetic(feature, shape.points, node_seed))
        return inputs

    # Expert triples as a historical fleet fitted on normalized archives
    # would report them, jittered per seed.
    rng = np.random.default_rng(seeds[-1])
    grid = np.geomspace(*LENGTH_SCALES, shape.experts)
    for j, ls in enumerate(grid):
        jitter = np.exp(rng.normal(0.0, 0.05, 3))
        feature = TemporalFeature(0.9 * jitter[0], float(ls) * jitter[1], 0.45 * jitter[2])
        inputs.records.append(edge_sim.FeatureRecord(
            source_id=f"expert-{j:02d}", feature=feature, n_points=400, fitted_at=j))
    for i, ls in enumerate(length_scales(shape.pool)):
        rng = np.random.default_rng(seeds[i])
        if shape.irregular:
            t = _irregular_times(rng, shape.points)
            model = GPModel(Matern52(SIGNAL_STD, ls), NOISE_STD)
            series = gp_core.TimeSeries(t, gp_core.sample_prior(model, t, rng))
            path = out_dir / f"stream-{i:02d}.csv"
            _write_csv(path, series)
            inputs.csv_paths.append(path)
        else:
            feature = TemporalFeature(SIGNAL_STD, ls, NOISE_STD)
            inputs.streams.append(data_io.generate_synthetic(feature, shape.points, rng))
    return inputs


@dataclass
class Env:
    """A set-up workload: its inputs, a pre-seeded registry served on a
    loopback socket, and a serial number for node reports."""

    shape: Shape
    inputs: Inputs
    server: object
    thread: object
    address: tuple
    serial: int = 0

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10.0)


def set_up(name, seed, out_dir):
    """Build inputs, start the registry server and warm every path the
    workload's nodes take. Returns (env, seconds)."""
    t0 = time.perf_counter()
    inputs = make_inputs(name, seed, out_dir)
    registry = edge_sim.CloudRegistry()
    for record in inputs.records:
        registry.report(record)
    server, thread, address = edge_sim.serve_registry(registry)
    env = Env(SHAPES[name], inputs, server, thread, address)
    _warm_up(env)
    return env, time.perf_counter() - t0


def _warm_up(env):
    channel = edge_sim.SocketChannel(env.address)
    response = channel.query(edge_sim.FeatureQuery("warm-up", env.shape.experts or None))
    if env.shape.kind == "historical":
        short = env.inputs.archives[0].head(24)
        normalized, _ = data_io.normalize(short)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp_core.fit_hyperparameters(normalized, FitConfig(restarts=1))
        return
    series = _target_series(env, 0)
    state = fusion.ensemble_from_features([r.feature for r in response.records],
                                          tau=env.shape.tau)
    z = data_io.prepare_stream(series.head(12), "online").series
    for t, y in zip(z.timestamps.tolist(), z.values.tolist()):
        fusion.gptdf_step(state, (t, y))


def _target_series(env, i):
    if env.shape.irregular:
        return data_io.load_csv(env.inputs.csv_paths[i], column="y", time_column="t")
    return env.inputs.streams[i]


@dataclass
class NodeResult:
    """What one node operation produced, with its timings. Only ``seconds``,
    ``first_s`` and ``step_s`` are measured; the rest is for the checks."""

    node_id: str
    seconds: float = math.nan
    first_s: float = math.nan
    points: int = 0
    step_s: np.ndarray = None
    traffic: list = field(default_factory=list)
    warnings: Counter = field(default_factory=Counter)
    error: str = ""
    # historical
    record: object = None
    archive: object = None
    # target
    features: list = field(default_factory=list)
    series: object = None
    predictions: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    log: str = ""


def run_node(env, k, tracer=None):
    """Run node ``k`` of the workload (inputs cycle through the pool).
    Exceptions are caught and recorded on the result."""
    i = k % env.shape.pool
    prefix = "hist" if env.shape.kind == "historical" else "target"
    result = NodeResult(node_id=f"{prefix}-{k:03d}")
    op = _historical_node if env.shape.kind == "historical" else _target_node
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            span = (tracer.request(f"perfbench.{env.shape.kind}_node", result.node_id)
                    if tracer is not None else contextlib.nullcontext())
            with span:
                op(env, i, result, tracer)
        except Exception as exc:  # every failure is counted, never fatal
            result.error = f"{type(exc).__name__}: {exc}"
    result.warnings.update(type(w.message).__name__ for w in caught)
    return result


def _historical_node(env, i, result, tracer):
    archive = env.inputs.archives[i]
    channel = edge_sim.SocketChannel(env.address)
    result.traffic = channel.traffic
    result.archive, result.points = archive, len(archive)
    fitted_at = env.serial
    env.serial += 1
    t0 = time.perf_counter()
    result.record = edge_sim.run_edge_node(archive, "historical", channel, result.node_id,
                                           fitted_at=fitted_at, fit_config=FIT_CONFIG)
    result.seconds = result.first_s = time.perf_counter() - t0


def _target_node(env, i, result, tracer):
    shape = env.shape
    channel = edge_sim.SocketChannel(env.address)
    result.traffic = channel.traffic
    step_s = np.empty(shape.points)
    predictions = []
    t0 = time.perf_counter()
    response = channel.query(edge_sim.FeatureQuery(result.node_id, shape.experts))
    features = [r.feature for r in response.records] or [edge_sim.DEFAULT_PRIOR_FEATURE]
    series = _target_series(env, i)
    state = fusion.ensemble_from_features(features, tau=shape.tau)
    z = data_io.prepare_stream(series, "online").series
    ts, ys = z.timestamps.tolist(), z.values.tolist()
    for j, obs in enumerate(zip(ts, ys)):
        if tracer is not None:
            tracer.step = j
        s0 = time.perf_counter()
        fused, state = fusion.gptdf_step(state, obs)
        step_s[j] = time.perf_counter() - s0
        predictions.append(fused)
        if j == 0:
            result.first_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.step = -1
    records = [fusion.StepRecord(step=j, t=ts[j], truth=ys[j], prediction=p)
               for j, p in enumerate(predictions)]
    means = [p.distribution.mean for p in predictions]
    metrics = {
        "nll": evaluation.nll(predictions, ys),
        "mae": evaluation.mae(means, ys),
        "mse": evaluation.mse(means, ys),
        "delay": evaluation.delay(records, len(ys)),
    }
    buf = io.StringIO()
    fusion.write_prediction_log(records, buf)
    result.seconds = time.perf_counter() - t0
    result.step_s = step_s
    result.points = len(ys)
    result.features = [r.feature for r in response.records]
    result.series = z
    result.predictions = predictions
    result.metrics = metrics
    result.log = buf.getvalue()
