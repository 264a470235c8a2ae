"""Correctness checks owned by the benchmark.

The expert oracle is deliberately independent of ``gp_core``: it builds the
Matern-5/2 covariance itself and conditions with an explicit dense inverse
from ``numpy.linalg``. Each check returns a list of failure messages; an
empty list means the node passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gptdf import edge_sim

TOLERANCE = 1e-8
# The fusion rule floors each expert variance at this value before weighting.
VARIANCE_FLOOR = 1e-12
SIMPLEX_TOLERANCE = 1e-9
WIRE_FIELDS = frozenset(edge_sim.MESSAGE_FIELDS) | frozenset(edge_sim.ENVELOPE_FIELDS)


def _matern52(sigma_f, sigma_l, r):
    a = math.sqrt(5.0) * r / sigma_l
    return sigma_f * sigma_f * (1.0 + a + a * a / 3.0) * np.exp(-a)


def expert_prediction(feature, t_window, y_window, t_star):
    """Zero-mean GP prediction of one expert by dense inversion."""
    prior = feature.sigma_f ** 2
    if len(t_window) == 0:
        return 0.0, prior
    V = _matern52(feature.sigma_f, feature.sigma_l, np.abs(t_window[:, None] - t_window[None, :]))
    V += feature.sigma_n ** 2 * np.eye(len(t_window))
    V_inv = np.linalg.inv(V)
    k = _matern52(feature.sigma_f, feature.sigma_l, np.abs(t_star - t_window))
    mean = float(k @ V_inv @ y_window)
    variance = max(prior - float(k @ V_inv @ k), 0.0)
    return mean, variance


def fuse(means, variances, omega_hat):
    wp = np.asarray(omega_hat) / np.maximum(np.asarray(variances), VARIANCE_FLOOR)
    denom = wp.sum()
    return float((np.asarray(means) * wp).sum() / denom), float(1.0 / denom)


def _close(value, reference):
    return abs(value - reference) <= TOLERANCE * (1.0 + abs(reference))


def sampled_steps(n, tau):
    """Steps checked against the oracle: the prior step, the window filling
    and sliding, the last step, and a regular stride in between."""
    steps = {0, 1, tau - 1, tau, tau + 1, n - 1} | set(range(0, n, 47))
    return sorted(s for s in steps if 0 <= s < n)


def check_wire(traffic):
    failures = []
    for direction, node_id, line in traffic:
        msg = json.loads(line)
        extra = set(msg) - WIRE_FIELDS
        if extra:
            failures.append(f"{direction} message of {node_id} carries {sorted(extra)}")
        if msg.get("status") == "rejected":
            failures.append(f"registry rejected {node_id}: {msg.get('reason', '')}")
    return failures


def check_historical(result, config):
    failures = check_wire(result.traffic)
    feature = result.record.feature
    bounds = (config.sigma_f_bounds, config.sigma_l_bounds, config.sigma_n_bounds)
    for name, value, (lo, hi) in zip(("sigma_f", "sigma_l", "sigma_n"),
                                     (feature.sigma_f, feature.sigma_l, feature.sigma_n), bounds):
        if not (math.isfinite(value) and lo * (1 - 1e-9) <= value <= hi * (1 + 1e-9)):
            failures.append(f"{result.node_id}: fitted {name}={value} outside [{lo}, {hi}]")
    return failures


def check_target(result, expected_experts, tau):
    failures = check_wire(result.traffic)
    node = result.node_id
    if len(result.features) != expected_experts:
        failures.append(f"{node}: got {len(result.features)} experts, expected "
                        f"{expected_experts} (fallback to the default prior)")
        return failures
    if result.metrics["delay"] != 0:
        failures.append(f"{node}: delay {result.metrics['delay']}, expected 0")
    if len(result.log.splitlines()) != result.points:
        failures.append(f"{node}: prediction log has the wrong number of lines")
    omegas = np.array([p.omega_hat for p in result.predictions])
    if np.any(omegas <= 0.0) or np.any(np.abs(omegas.sum(axis=1) - 1.0) > SIMPLEX_TOLERANCE):
        failures.append(f"{node}: predictive weights left the simplex")

    t, y = result.series.timestamps, result.series.values
    for k in sampled_steps(result.points, tau):
        lo = max(0, k - tau)
        fused = result.predictions[k]
        means, variances = [], []
        for feature, (pred, _) in zip(result.features, fused.per_model):
            mean, variance = expert_prediction(feature, t[lo:k], y[lo:k], t[k])
            if not (_close(pred.mean, mean) and _close(pred.variance, variance)):
                failures.append(f"{node} step {k}: expert ({pred.mean}, {pred.variance}) "
                                f"vs oracle ({mean}, {variance})")
            means.append(mean)
            variances.append(variance)
        mean, variance = fuse(means, variances, fused.omega_hat)
        dist = fused.distribution
        if not (_close(dist.mean, mean) and _close(dist.variance, variance)):
            failures.append(f"{node} step {k}: fused ({dist.mean}, {dist.variance}) "
                            f"vs oracle ({mean}, {variance})")
    return failures
