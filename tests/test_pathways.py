"""The four target pathways against `reference_online_run`, a dense
reference that shares no code with the library: `gptdf predict`, the target
role of `run_edge_node`, the fusion rows of `run_benchmark` and its
train-then-predict baseline rows. Every logged step is checked: its step and
time exactly, its 3-sigma band as the line's own mean +- 3 sd, and its fused
mean, variance and predictive weights within the `expert_tolerance` rule,
taken at the least favourable expert of the step."""

import json
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (REFERENCE_VARIANCE_FLOOR, expert_tolerance, reference_normalize,
                      reference_online_run)
from gptdf import edge_sim, evaluation, fusion, gp_core
from gptdf.cli import main
from gptdf.evaluation import BenchmarkConfig, BenchmarkMethod
from gptdf.gp_core import FitConfig, TemporalFeature, TimeSeries

SIGMA_L_BOUNDS = FitConfig().sigma_l_bounds
SIGMA_N_FLOOR = FitConfig().sigma_n_bounds[0]


@st.composite
def pathway_runs(draw, grids=("regular", "jittered", "gaps"), min_size=2):
    """1-8 experts, a window of 1-60 points, any forgetting parameter, a
    normalization mode, and a raw stream of `min_size` to `min_size` + 38
    points on one of `grids`. A "regular" grid is 0, 1, ..., as for a CSV
    read without a time column."""
    m = draw(st.integers(1, 8))
    length_scales = st.one_of(st.sampled_from(SIGMA_L_BOUNDS), st.floats(0.3, 30.0))
    features = [TemporalFeature(draw(st.floats(0.3, 1.5)), draw(length_scales),
                                draw(st.floats(SIGMA_N_FLOOR, 1.0))) for _ in range(m)]
    tau = draw(st.integers(1, 60))
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    mode = draw(st.sampled_from(["online", "offline", "none"]))
    grid = draw(st.sampled_from(grids))
    n = draw(st.integers(min_size, min_size + 38))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if grid == "regular":
        t = np.arange(float(n))
    elif grid == "jittered":
        t = np.cumsum(1.0 + rng.uniform(-0.45, 0.45, n))
    else:
        t = np.cumsum(np.where(rng.uniform(size=n) < 0.7, 1.0, rng.integers(2, 6, n)))
    y = draw(st.floats(-3.0, 3.0)) + draw(st.floats(0.5, 2.0)) * rng.normal(0.0, 1.0, n)
    return features, tau, alpha, mode, TimeSeries(t, y)


def assert_lines_match(lines, features, stream, tau, alpha, mode, first=0):
    """`lines`, the pathway's log from step `first` on, in the log's field
    names (`omega_hat` optional), equal the reference run over the whole
    normalized stream."""
    y = reference_normalize(stream.values, mode)
    reference = reference_online_run(features, stream.timestamps, y, tau, alpha)[first:]
    assert len(lines) == len(reference)
    for k, (line, ref) in enumerate(zip(lines, reference), start=first):
        assert line["step"] == k
        assert line["t"] == stream.timestamps[k]
        sd = math.sqrt(line["fused_variance"])
        assert (line["interval_low"], line["interval_high"]) == \
            (line["fused_mean"] - 3.0 * sd, line["fused_mean"] + 3.0 * sd)
        tol = max(expert_tolerance(f, ref["window"]) for f in features)
        assert line["fused_mean"] == pytest.approx(ref["mean"], abs=tol), k
        assert line["fused_variance"] == pytest.approx(ref["variance"], abs=tol), k
        if "omega_hat" in line:
            np.testing.assert_allclose(line["omega_hat"], ref["omega_hat"], rtol=0, atol=tol)
    return y[first:]


def assert_metrics_of_lines(metrics, lines, truths, delay):
    """The run's metrics are those of its own logged steps: the mean
    negative log density (variance floored), MAE and MSE, and the delay."""
    mean = np.array([line["fused_mean"] for line in lines])
    var = np.maximum([line["fused_variance"] for line in lines], REFERENCE_VARIANCE_FLOOR)
    err = mean - np.asarray(truths)
    nll = 0.5 * (err ** 2 / var + np.log(2.0 * math.pi * var))
    assert metrics["nll"] == pytest.approx(math.fsum(nll) / nll.size, rel=1e-12, abs=1e-12)
    assert metrics["mae"] == pytest.approx(math.fsum(np.abs(err)) / err.size, rel=1e-12, abs=1e-12)
    assert metrics["mse"] == pytest.approx(math.fsum(err ** 2) / err.size, rel=1e-12, abs=1e-12)
    assert metrics["delay"] == delay


def series_lines(rows):
    """A benchmark series' rows in the prediction log's field names."""
    return [{"step": r["step"], "t": r["t"], "fused_mean": r["mean"],
             "fused_variance": r["var"], "interval_low": r["lo"], "interval_high": r["hi"]}
            for r in rows]


class TestPathwayOracle:
    @settings(max_examples=25, deadline=None)
    @given(run=pathway_runs(grids=("regular",)))
    def test_predict_command(self, run):
        features, tau, alpha, mode, stream = run
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "stream.csv").write_text("".join(f"{v!r}\n" for v in stream.values.tolist()))
            (tmp / "features.json").write_text(json.dumps([f.as_dict() for f in features]))
            code = main(["predict", str(tmp / "stream.csv"), "--features", str(tmp / "features.json"),
                         "--tau", str(tau), "--alpha", repr(alpha), "--normalization", mode,
                         "--out", str(tmp / "log.jsonl")])
            assert code == 0
            lines = [json.loads(line) for line in (tmp / "log.jsonl").read_text().splitlines()]
        assert_lines_match(lines, features, stream, tau, alpha, mode)

    @settings(max_examples=25, deadline=None)
    @given(run=pathway_runs())
    def test_target_role(self, run):
        features, tau, alpha, mode, stream = run
        channel = edge_sim.InProcessChannel(edge_sim.CloudRegistry())
        for j, f in enumerate(features):
            channel.report(edge_sim.FeatureRecord(f"node-{j}", f, n_points=100, fitted_at=j))
        report = edge_sim.run_edge_node(stream, "target", channel, "target", tau=tau,
                                        alpha=alpha, normalization=mode)
        # the registry answers newest first
        features = [features[int(i.split("-")[1])] for i in report.model_ids]
        lines = [fusion.log_record(r) for r in report.records]
        truths = assert_lines_match(lines, features, stream, tau, alpha, mode)
        assert [r.truth for r in report.records] == pytest.approx(truths, rel=0, abs=1e-12)
        assert_metrics_of_lines(report.metrics, lines, [r.truth for r in report.records], 0)

    @settings(max_examples=25, deadline=None)
    @given(run=pathway_runs(min_size=gp_core.MIN_FIT_POINTS + 1), data=st.data())
    def test_benchmark_rows(self, run, data):
        features, tau, alpha, mode, stream = run
        train_size = data.draw(st.integers(gp_core.MIN_FIT_POINTS, len(stream) - 1))
        config = BenchmarkConfig(
            methods=(BenchmarkMethod("fusion", "fusion", features=features),
                     BenchmarkMethod("baseline", "baseline", train_size=train_size)),
            stream=stream, tau=tau, alpha=alpha, normalization=mode,
            fit=FitConfig(restarts=1))
        fitted = []
        real_fit = gp_core.fit_hyperparameters

        def recorded_fit(*args, **kwargs):
            fitted.append(real_fit(*args, **kwargs))
            return fitted[-1]

        with mock.patch.object(gp_core, "fit_hyperparameters", recorded_fit):
            report = evaluation.run_benchmark(config)
        rows = {row.method: row for row in report.rows}
        assert rows["fusion"].error == rows["baseline"].error == ""
        for name, used, first in [("fusion", features, 0), ("baseline", fitted, train_size)]:
            lines = series_lines(report.series[name])
            truths = assert_lines_match(lines, used, stream, tau, alpha, mode, first)
            assert [r["y"] for r in report.series[name]] == pytest.approx(truths, rel=0, abs=1e-12)
            row = rows[name]
            assert_metrics_of_lines(dict(nll=row.nll, mae=row.mae, mse=row.mse, delay=row.delay),
                                    lines, [r["y"] for r in report.series[name]], first)
