"""Dynamic model averaging over GP experts and precision-weighted fusion of
their Gaussian predictions, plus the online predict-then-update loop.

Per step, each expert predicts the incoming observation from the shared
sliding window; the predictions are fused with the current predictive
weights, the observation's per-expert likelihoods update the weights, and a
forgetting exponent flattens them toward uniform for the next step. The very
first step fuses pure prior predictions, so a prediction exists before any
data has been seen.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import gp_core
from .gp_core import PredictiveDistribution, TimeSeries

__all__ = [
    "EnsembleState",
    "FusedPrediction",
    "StepRecord",
    "WeightCollapseWarning",
    "ensemble_from_features",
    "predictive_weights",
    "update_weights",
    "gaussian_log_density",
    "gaussian_predictive_density",
    "fuse",
    "fuse_predictions",
    "confidence_interval",
    "fused_prediction",
    "gptdf_step",
    "run_stream",
    "log_record",
    "write_prediction_log",
    "PREDICTION_LOG_FIELDS",
]

# Post-update floor for each model weight is WEIGHT_FLOOR / M; keeps every
# expert revivable under forgetting.
WEIGHT_FLOOR = 1e-8
VARIANCE_FLOOR = 1e-12

DEFAULT_ALPHA = 0.9
DEFAULT_TAU = 50

PREDICTION_LOG_FIELDS = ("step", "t", "fused_mean", "fused_variance",
                         "interval_low", "interval_high", "omega_hat")


class WeightCollapseWarning(RuntimeWarning):
    """All model likelihoods vanished in one update; weights were kept."""


def predictive_weights(weights, alpha):
    """Flatten weights toward uniform: w_j**alpha, renormalized."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a nonempty vector")
    if not 0.0 < float(alpha) < 1.0:
        raise ValueError(f"forgetting parameter must lie in (0, 1), got {alpha}")
    if np.any(w <= 0.0) or not np.isfinite(w).all():
        raise ValueError("degenerate weight")
    p = w ** float(alpha)
    return p / p.sum()


def update_weights(omega_hat, likelihoods):
    """Multiply predictive weights by per-model likelihoods and renormalize,
    then floor each weight at WEIGHT_FLOOR/M and renormalize again.

    If every product vanishes (all likelihoods underflowed), the predictive
    weights are kept unchanged and a WeightCollapseWarning is issued.
    """
    oh = np.asarray(omega_hat, dtype=float)
    lik = np.asarray(likelihoods, dtype=float)
    if oh.shape != lik.shape or oh.ndim != 1:
        raise ValueError("weights and likelihoods must be vectors of equal length")
    if np.any(lik < 0.0) or not np.isfinite(lik).all():
        raise ValueError("likelihoods must be finite and nonnegative")
    scores = oh * lik
    total = scores.sum()
    if total <= 0.0:
        warnings.warn("all model likelihoods vanished; keeping predictive weights",
                      WeightCollapseWarning)
        w = oh.copy()
    else:
        w = scores / total
    w = np.maximum(w, WEIGHT_FLOOR / w.size)
    return w / w.sum()


def gaussian_log_density(pred, y):
    """Log density of y under the prediction, with the variance floored."""
    v = max(pred.variance, VARIANCE_FLOOR)
    return -0.5 * ((float(y) - pred.mean) ** 2 / v + math.log(2.0 * math.pi * v))


def gaussian_predictive_density(pred, y):
    return math.exp(gaussian_log_density(pred, y))


def fuse(per_model, omega_hat):
    """Weighted product-of-experts fusion of Gaussian predictions.

    With precisions P_j = 1/variance_j, the fused mean is
    sum(m_j w_j P_j) / sum(w_j P_j) and the fused variance 1 / sum(w_j P_j).
    """
    oh = np.asarray(omega_hat, dtype=float)
    if len(per_model) != oh.size:
        raise ValueError("predictions and weights must have equal length")
    means = np.array([p.mean for p in per_model])
    variances = np.maximum(np.array([p.variance for p in per_model]), VARIANCE_FLOOR)
    wp = oh / variances
    denom = wp.sum()
    return PredictiveDistribution(float((means * wp).sum() / denom), float(1.0 / denom))


def confidence_interval(pred, k=3.0):
    """(mean - k*sd, mean + k*sd); k=3 gives the widest band routinely logged."""
    sd = math.sqrt(pred.variance)
    return (pred.mean - k * sd, pred.mean + k * sd)


@dataclass(frozen=True)
class FusedPrediction:
    """Fused Gaussian plus the per-model predictions with the predictive
    weights used to fuse them, and the 3-sigma interval."""

    distribution: PredictiveDistribution
    per_model: tuple
    interval_3sigma: tuple

    @property
    def omega_hat(self):
        return tuple(w for _, w in self.per_model)


def fuse_predictions(per_model, omega_hat):
    dist = fuse(per_model, omega_hat)
    pairs = tuple((p, float(w)) for p, w in zip(per_model, np.asarray(omega_hat, dtype=float)))
    return FusedPrediction(dist, pairs, confidence_interval(dist, 3.0))


@dataclass
class EnsembleState:
    """Mutable state of the online loop: the experts, their weights, the
    forgetting parameter, and the sliding window of recent observations.

    Single-writer: `gptdf_step` mutates the state in place. `weights` holds
    the posterior model weights; `omega_hat` the flattened predictive weights
    that the next fusion will use.
    """

    models: list
    weights: np.ndarray
    omega_hat: np.ndarray
    alpha: float = DEFAULT_ALPHA
    tau: int = DEFAULT_TAU
    window_times: deque = field(default=None)
    window_values: deque = field(default=None)
    step: int = 0

    def __post_init__(self):
        if len(self.models) < 1:
            raise ValueError("ensemble needs at least one model")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"forgetting parameter must lie in (0, 1), got {self.alpha}")
        if int(self.tau) < 1:
            raise ValueError("window length must be >= 1")
        self.tau = int(self.tau)
        self.weights = np.asarray(self.weights, dtype=float)
        self.omega_hat = np.asarray(self.omega_hat, dtype=float)
        for name in ("weights", "omega_hat"):
            w = getattr(self, name)
            if w.shape != (len(self.models),) or np.any(w <= 0.0):
                raise ValueError(f"{name} must be strictly positive, one per model")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to one")
        if self.window_times is None:
            self.window_times = deque(maxlen=self.tau)
        if self.window_values is None:
            self.window_values = deque(maxlen=self.tau)

    @property
    def n_models(self):
        return len(self.models)

    def window_series(self):
        if not self.window_times:
            return None
        return TimeSeries(np.array(self.window_times), np.array(self.window_values))


def ensemble_from_features(features, tau=DEFAULT_TAU, alpha=DEFAULT_ALPHA, mean=0.0):
    """Build an ensemble of one expert per feature triple, starting from
    uniform weights."""
    features = list(features)
    if not features:
        raise ValueError("ensemble needs at least one feature")
    models = [f.to_model(mean) for f in features]
    m = len(models)
    weights = np.full(m, 1.0 / m)
    return EnsembleState(models=models, weights=weights,
                         omega_hat=predictive_weights(weights, alpha),
                         alpha=alpha, tau=tau)


def fused_prediction(state, t_star):
    """Fused prediction at `t_star` from the current window and predictive
    weights. Pure: does not advance the state."""
    window = state.window_series()
    preds = [gp_core.predict(m, window, t_star) for m in state.models]
    return fuse_predictions(preds, state.omega_hat)


def gptdf_step(state, new_obs):
    """Process one observation; return the fused prediction made for it and
    the advanced state.

    The returned prediction is computed before the observation enters the
    window, so it conditions only on strictly earlier data: each expert
    predicts the incoming time from the shared window, and the predictions
    are fused with the current predictive weights. The observation then
    updates the model weights through its per-expert likelihoods (skipped on
    the first call, which fuses pure prior predictions), the forgetting
    exponent produces the next predictive weights, and the observation is
    appended to the window.
    """
    t, y = new_obs
    t = float(t)
    y = float(y)
    if not (math.isfinite(t) and math.isfinite(y)):
        raise ValueError(f"observation must be finite, got ({t}, {y})")
    if state.window_times and t <= state.window_times[-1]:
        raise ValueError(
            f"observation timestamp {t} does not increase past {state.window_times[-1]}")

    fused = fused_prediction(state, t)
    if state.window_times:
        likelihoods = np.array([gaussian_predictive_density(p, y) for p, _ in fused.per_model])
        state.weights = update_weights(state.omega_hat, likelihoods)
    state.omega_hat = predictive_weights(state.weights, state.alpha)
    state.window_times.append(t)
    state.window_values.append(y)
    state.step += 1
    return fused, state


@dataclass(frozen=True)
class StepRecord:
    """One step of an online run: the observation and the prediction that
    was in force when it arrived."""

    step: int
    t: float
    truth: float
    prediction: FusedPrediction


def run_stream(state, series):
    """Run the online loop over a whole series, emitting one record per
    observation. Records are numbered from `state.step`, so a fresh state's
    first record is step 0, whose prediction is the prior fusion: no warm-up
    prefix goes unpredicted."""
    records = []
    for t, y in zip(series.timestamps.tolist(), series.values.tolist()):
        step = state.step
        fused, state = gptdf_step(state, (t, y))
        records.append(StepRecord(step=step, t=t, truth=y, prediction=fused))
    return records


def log_record(record):
    """Wire form of one step: fixed field names, one JSON object per line."""
    dist = record.prediction.distribution
    low, high = record.prediction.interval_3sigma
    return {
        "step": record.step,
        "t": record.t,
        "fused_mean": dist.mean,
        "fused_variance": dist.variance,
        "interval_low": low,
        "interval_high": high,
        "omega_hat": list(record.prediction.omega_hat),
    }


def write_prediction_log(records, fp):
    for record in records:
        fp.write(json.dumps(log_record(record)) + "\n")
