"""Benchmark core: set-up, the closed node loop, checks and metrics.

Imported by ``run.py`` once the library sources have been found.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from gptdf import data_io, gp_core

import oracle
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
# Seed held back from tuning; a later speed claim is confirmed on it as well.
HOLDOUT_SEED = 20191
SETUP_REPEATS = 5
# A run stops early after this many failed nodes; it has failed already.
MAX_FAILED_OPS = 20
# Untraced time spent on the node pairs that measure the tracing overhead.
OVERHEAD_SECONDS = 5.0

# Per-layer metric -> (end-to-end metric, workload) it should move.
LAYER_MAP = {
    "gp_core.fit_hyperparameters.ms_p50": ("node_s_p50", "historical-fit"),
    "gp_core.minimize.nfev": ("node_s_p50", "historical-fit"),
    "gp_core.minimize.nit": ("node_s_p50", "historical-fit"),
    "gp_core.nll_eval.ms": ("node_s_p50", "historical-fit"),
    "gp_core.minimize.failed": ("nll_per_point", "historical-fit"),
    "gp_core.fit.warnings": ("nll_per_point", "historical-fit"),
    "gp_core.predict.calls": ("points_per_s", "target-regular"),
    "gp_core.predict.self_us_p50": ("points_per_s", "target-regular"),
    "gp_core.build_covariance.calls": ("points_per_s", "target-regular"),
    "gp_core.build_covariance.self_us_p50": ("points_per_s", "target-irregular"),
    "gp_core.variance_clamps": ("nll_per_point", "target-regular"),
    "fusion.gptdf_step.us_p50": ("points_per_s", "target-regular"),
    "fusion.gptdf_step.us_p99": ("points_per_s", "target-irregular"),
    "fusion.gptdf_step.self_us_p50": ("points_per_s", "target-regular"),
    "fusion.fuse_predictions.us_p50": ("points_per_s", "target-regular"),
    "fusion.update_weights.us_p50": ("points_per_s", "target-regular"),
    "fusion.predictive_weights.us_p50": ("points_per_s", "target-regular"),
    "fusion.weight_collapses": ("nll_per_point", "target-regular"),
    "fusion.weight_floor_hits": ("nll_per_point", "target-regular"),
    "fusion.n_eff_p50": ("nll_per_point", "target-regular"),
    "fusion.write_prediction_log.ms": ("points_per_s", "target-regular"),
    "fusion.log_bytes": ("points_per_s", "target-regular"),
    "evaluation.metrics.ms": ("points_per_s", "target-regular"),
    "data_io.normalize.ms": ("node_s_p50", "historical-fit"),
    "data_io.prepare_stream.ms": ("first_result_ms_p50", "target-regular"),
    "data_io.load_csv.ms": ("first_result_ms_p50", "target-irregular"),
    "edge_sim.SocketChannel.report.rtt_us_p50": ("node_s_p50", "historical-fit"),
    "edge_sim.SocketChannel.report.rtt_us_p99": ("node_s_p50", "historical-fit"),
    "edge_sim.CloudRegistry.report.us_p50": ("node_s_p50", "historical-fit"),
    "edge_sim.SocketChannel.query.rtt_us_p50": ("first_result_ms_p50", "target-regular"),
    "edge_sim.SocketChannel.query.rtt_us_p99": ("first_result_ms_p50", "target-regular"),
    "edge_sim.CloudRegistry.query.us_p50": ("first_result_ms_p50", "target-regular"),
    "edge_sim.bytes_up": ("wire_bytes_per_node", "historical-fit"),
    "edge_sim.bytes_down": ("wire_bytes_per_node", "target-regular"),
    "edge_sim.rejected": ("wire_bytes_per_node", "historical-fit"),
    "trace.overhead_pct": ("points_per_s", "target-regular"),
}


def _median(values):
    return float(statistics.median(values)) if len(values) else 0.0


def _mean(values):
    return float(statistics.fmean(values)) if len(values) else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy load."""
    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = fn()
                    break
    return found


def provenance(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Phase:
    """Closed-loop run of node operations plus the checks on each node.

    Runs nodes 0, 1, ... until at least ``prefix`` nodes ran and the summed
    wall time of the node operations reaches ``seconds``. Checks run between
    operations and are not counted in that budget. Counts that must repeat
    exactly for a seed are taken over the prefix nodes only.
    """

    def __init__(self, env, seconds, prefix, tracer=None):
        shape = env.shape
        self.node_s, self.first_s, self.node_points, steps = [], [], [], []
        self.failures = []
        self.failed_ops = 0
        self.threads_peak = threading.active_count()
        self.prefix = {"bytes": [], "nll": [], "fits": [], "log_bytes": [], "up": 0,
                       "down": 0, "rejected": 0, "warnings": Counter(), "n_eff": []}
        self.prefix_counts = Counter()
        clamps = gp_core.diagnostics["variance_clamps"]
        measured = 0.0
        k = 0
        while (k < prefix or measured < seconds) and self.failed_ops < MAX_FAILED_OPS:
            w0 = time.perf_counter()
            result = workloads.run_node(env, k, tracer)
            measured += time.perf_counter() - w0
            self.threads_peak = max(self.threads_peak, threading.active_count())
            try:
                if result.error:
                    failures = [f"{result.node_id}: {result.error}"]
                elif shape.kind == "historical":
                    failures = oracle.check_historical(result, workloads.FIT_CONFIG)
                else:
                    failures = oracle.check_target(result, shape.experts, shape.tau)
            except Exception as exc:  # malformed output fails the node, not the run
                failures = [f"{result.node_id}: check raised {type(exc).__name__}: {exc}"]
            if failures:
                self.failed_ops += 1
                self.failures.extend(failures)
            if not result.error:
                self.node_s.append(result.seconds)
                self.first_s.append(result.first_s)
                self.node_points.append(result.points)
                if result.step_s is not None:
                    steps.append(result.step_s)
            if k < prefix:
                self._add_prefix(result)
            k += 1
            if k == prefix:
                self.prefix_counts = Counter(tracer.counts if tracer is not None else ())
                self.prefix_counts["gp_core.variance_clamps"] = (
                    gp_core.diagnostics["variance_clamps"] - clamps)
        self.attempted = k
        self.step_s = np.concatenate(steps) if steps else np.empty(0)

    def _add_prefix(self, result):
        p = self.prefix
        node_bytes = 0
        for direction, _, line in result.traffic:
            size = len(line.encode("utf-8"))
            node_bytes += size
            p["up" if direction == "up" else "down"] += size
            p["rejected"] += '"status": "rejected"' in line
        p["bytes"].append(node_bytes)
        p["warnings"].update(result.warnings)
        if result.record is not None:
            p["fits"].append((result.archive, result.record.feature))
        if result.predictions:
            p["nll"].append(result.metrics["nll"])
            p["log_bytes"].append(len(result.log.encode("utf-8")))
            omegas = np.array([pred.omega_hat for pred in result.predictions])
            p["n_eff"].extend((1.0 / (omegas ** 2).sum(axis=1)).tolist())

    def nll_per_point(self):
        """Mean per-point NLL over the prefix nodes: the fused predictions'
        per-step NLL on targets, the fitted triple's dense marginal
        likelihood per archive point on historical nodes. Call it with the
        tracer uninstalled."""
        values = list(self.prefix["nll"])
        for archive, feature in self.prefix["fits"]:
            normalized, _ = data_io.normalize(archive)
            lml = gp_core.log_marginal_likelihood(feature.to_model(), normalized)
            values.append(-lml / len(archive))
        return _mean(values)

    def points_per_s(self):
        """Median over nodes of points processed per second of node time."""
        return _median([p / s for p, s in zip(self.node_points, self.node_s)])

    def wire_bytes_per_node(self):
        return _mean(self.prefix["bytes"])


def end_to_end(phase, setup_s):
    return {
        "setup_s": (_median(setup_s), "s"),
        "node_s_p50": (_median(phase.node_s), "s"),
        "first_result_ms_p50": (_median(phase.first_s) * 1e3, "ms"),
        "points_per_s": (phase.points_per_s(), "1/s"),
        "nll_per_point": (phase.nll_per_point(), "nats"),
        "wire_bytes_per_node": (phase.wire_bytes_per_node(), "bytes"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def named_metrics(kind, phase, setup_s):
    """The metrics under the names the design gives them for each node
    role: (value, unit, sample count or None)."""
    n = len(phase.node_s)
    common = {
        "setup_s": (_median(setup_s), "s", len(setup_s)),
        "wire_bytes_per_node": (phase.wire_bytes_per_node(), "bytes", None),
        "ops_failed_ratio": (phase.failed_ops / phase.attempted,
                             f"of {phase.attempted}", None),
        "peak_rss_mb": (_peak_rss_mb(), "MB", None),
    }
    if kind == "historical":
        return {"fit_s": (_median(phase.node_s), "s", n),
                "fit_nll_per_point": (phase.nll_per_point(), "nats", None), **common}
    steps = phase.step_s
    return {
        "first_prediction_ms": (_median(phase.first_s) * 1e3, "ms", n),
        "step_us_p50": (_percentile(steps, 50) * 1e6, "us", len(steps)),
        "step_us_p99": (_percentile(steps, 99) * 1e6, "us", int(len(steps) * 0.01)),
        "steps_per_s": (phase.points_per_s(), "1/s", sum(phase.node_points)),
        "pred_nll": (phase.nll_per_point(), "nats", None),
        **common,
    }


def tracing_overhead(env):
    """Traced minus untraced node time as a share of the untraced time, in
    percent, and the seconds the pairs took. Each node runs untraced and
    then traced right after it, so the machine's slow speed drift cancels
    within a pair."""
    t0 = time.perf_counter()
    untraced = traced = 0.0
    k = 0
    while k < 2 or untraced < OVERHEAD_SECONDS:
        untraced += workloads.run_node(env, k).seconds
        tracer = Tracer()
        tracer.install()
        try:
            traced += workloads.run_node(env, k, tracer).seconds
        finally:
            tracer.uninstall()
        k += 1
    return (traced / untraced - 1.0) * 100.0, time.perf_counter() - t0


def per_layer(tracer, phase, overhead_pct):
    cols = tracer.spans()
    index = {name: i for i, name in enumerate(tracer.names)}

    def select(name, column="duration"):
        i = index.get(name)
        return cols[column][cols["name"] == i] if i is not None else np.empty(0)

    def p50(name, column="duration", scale=1e6):
        return _median(select(name, column)) * scale

    def p99(name):
        return _percentile(select(name), 99) * 1e6

    def per_node_ms(names):
        mask = np.isin(cols["name"], [index[n] for n in names if n in index])
        totals = np.bincount(cols["request"][mask], weights=cols["duration"][mask])
        return _median(totals[totals > 0]) * 1e3

    counts = phase.prefix_counts
    pre = phase.prefix
    nfev_total = tracer.counts["gp_core.minimize.nfev"]
    fit_total = select("gp_core.fit_hyperparameters").sum()
    return {
        "gp_core.fit_hyperparameters.ms_p50": (p50("gp_core.fit_hyperparameters", scale=1e3), "ms"),
        "gp_core.minimize.nfev": (counts["gp_core.minimize.nfev"], "count"),
        "gp_core.minimize.nit": (counts["gp_core.minimize.nit"], "count"),
        "gp_core.nll_eval.ms": (fit_total / nfev_total * 1e3 if nfev_total else 0.0, "ms"),
        "gp_core.minimize.failed": (counts["gp_core.minimize.failed"], "count"),
        "gp_core.fit.warnings": (pre["warnings"]["FitWarning"], "count"),
        "gp_core.predict.calls": (counts["gp_core.predict.calls"], "count"),
        "gp_core.predict.self_us_p50": (p50("gp_core.predict", "self"), "us"),
        "gp_core.build_covariance.calls": (counts["gp_core.build_covariance.calls"], "count"),
        "gp_core.build_covariance.self_us_p50": (p50("gp_core.build_covariance", "self"), "us"),
        "gp_core.variance_clamps": (counts["gp_core.variance_clamps"], "count"),
        "fusion.gptdf_step.us_p50": (p50("fusion.gptdf_step"), "us"),
        "fusion.gptdf_step.us_p99": (p99("fusion.gptdf_step"), "us"),
        "fusion.gptdf_step.self_us_p50": (p50("fusion.gptdf_step", "self"), "us"),
        "fusion.fuse_predictions.us_p50": (p50("fusion.fuse_predictions"), "us"),
        "fusion.update_weights.us_p50": (p50("fusion.update_weights"), "us"),
        "fusion.predictive_weights.us_p50": (p50("fusion.predictive_weights"), "us"),
        "fusion.weight_collapses": (pre["warnings"]["WeightCollapseWarning"], "count"),
        "fusion.weight_floor_hits": (counts["fusion.weight_floor_hits"], "count"),
        "fusion.n_eff_p50": (_median(pre["n_eff"]), "experts"),
        "fusion.write_prediction_log.ms": (p50("fusion.write_prediction_log", scale=1e3), "ms"),
        "fusion.log_bytes": (_mean(pre["log_bytes"]), "bytes"),
        "evaluation.metrics.ms": (per_node_ms(["evaluation.nll", "evaluation.mae",
                                               "evaluation.mse", "evaluation.delay"]), "ms"),
        "data_io.normalize.ms": (p50("data_io.normalize", scale=1e3), "ms"),
        "data_io.prepare_stream.ms": (p50("data_io.prepare_stream", scale=1e3), "ms"),
        "data_io.load_csv.ms": (p50("data_io.load_csv", scale=1e3), "ms"),
        "edge_sim.SocketChannel.report.rtt_us_p50": (p50("edge_sim.SocketChannel.report"), "us"),
        "edge_sim.SocketChannel.report.rtt_us_p99": (p99("edge_sim.SocketChannel.report"), "us"),
        "edge_sim.CloudRegistry.report.us_p50": (p50("edge_sim.CloudRegistry.report"), "us"),
        "edge_sim.SocketChannel.query.rtt_us_p50": (p50("edge_sim.SocketChannel.query"), "us"),
        "edge_sim.SocketChannel.query.rtt_us_p99": (p99("edge_sim.SocketChannel.query"), "us"),
        "edge_sim.CloudRegistry.query.us_p50": (p50("edge_sim.CloudRegistry.query"), "us"),
        "edge_sim.bytes_up": (pre["up"], "bytes"),
        "edge_sim.bytes_down": (pre["down"], "bytes"),
        "edge_sim.rejected": (pre["rejected"], "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def run(args):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    info = provenance(args)
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)
    shape = workloads.SHAPES[args.workload]

    setup_s = []
    envs = []
    try:
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            env, seconds = workloads.set_up(args.workload, args.seed, OUT_DIR)
            envs.append(env)
            setup_s.append(seconds)
            if len(envs) > 1:
                envs.pop(0).close()
        env = envs[-1]
        if args.trace == 0:
            phase = Phase(env, args.seconds, shape.prefix)
            metrics = end_to_end(phase, setup_s)
        else:
            overhead_pct, spent = tracing_overhead(env)
            tracer = Tracer()
            tracer.install()
            try:
                phase = Phase(env, args.seconds - spent, shape.prefix, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, phase, overhead_pct)
            spans_path = OUT_DIR / f"spans-{args.workload}.csv"
            tracer.write_csv(spans_path)
            print(f"trace {len(tracer.start)} spans -> {spans_path.relative_to(ROOT)}")
        shown = named_metrics(shape.kind, phase, setup_s)
    finally:
        for env in envs:
            env.close()
    info["threads_peak"] = phase.threads_peak
    print(f"{args.workload} threads_peak = {phase.threads_peak}")

    for name, (value, unit, samples) in shown.items():
        extra = "" if samples is None else f" (n={samples})"
        print(f"{args.workload} {name} = {value:.6g} {unit}{extra}")
    if args.trace == 1:
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}"
                  "  -> {} on {}".format(*LAYER_MAP[name]))
    for failure in phase.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)

    result = {
        "correct": phase.failed_ops == 0,
        "attempted": phase.attempted,
        "failed": phase.failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, provenance=info, named={k: v[0] for k, v in shown.items()},
                  node_s=phase.node_s, failures=phase.failures)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
