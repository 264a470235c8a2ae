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
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from . import gp_core
from .errors import DataError
from .gp_core import PredictiveDistribution

__all__ = [
    "EnsembleState",
    "FusedPrediction",
    "StepRecord",
    "WeightCollapseWarning",
    "ensemble_from_features",
    "predictive_weights",
    "update_weights",
    "gaussian_log_density",
    "fuse_predictions",
    "fused_prediction",
    "gptdf_step",
    "run_stream",
    "log_record",
    "write_prediction_log",
]

# Post-update floor for each model weight is WEIGHT_FLOOR / M; keeps every
# expert revivable under forgetting.
WEIGHT_FLOOR = 1e-8
VARIANCE_FLOOR = 1e-12

DEFAULT_ALPHA = 0.9
DEFAULT_TAU = 50

# 2 pi of the density's normalizer; `gaussian_log_density` folds it the same way.
_TWO_PI = 2.0 * np.pi
_COLLAPSE = "all model likelihoods vanished; keeping predictive weights"
# The online loop reduces with the ufuncs that `ndarray.sum` and `ndarray.max`
# call, without their Python wrappers: the same reductions, bit for bit.
_sum = np.add.reduce
_max = np.maximum.reduce


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
        warnings.warn(_COLLAPSE, WeightCollapseWarning)
        w = oh.copy()
    else:
        w = scores / total
    w = np.maximum(w, WEIGHT_FLOOR / w.size)
    return w / w.sum()


def gaussian_log_density(mean, variance, y):
    """Log density of y under N(mean, variance), with the variance floored.
    Takes scalars or M-vectors, elementwise."""
    v = np.maximum(variance, VARIANCE_FLOOR)
    return -0.5 * ((y - mean) ** 2 / v + np.log(_TWO_PI * v))


@dataclass(frozen=True, eq=False)
class FusedPrediction:
    """Fused Gaussian, with the M-vectors of per-expert means and variances
    and the predictive weights that fused them. No other object holds the
    vectors. Records compare by identity: array fields have no single truth
    value."""

    distribution: PredictiveDistribution
    means: np.ndarray
    variances: np.ndarray
    omega_hat: np.ndarray

    @property
    def interval_3sigma(self):
        """(mean - 3 sd, mean + 3 sd) of the fused Gaussian."""
        sd = math.sqrt(self.distribution.variance)
        return (self.distribution.mean - 3.0 * sd, self.distribution.mean + 3.0 * sd)

    @property
    def per_model(self):
        """(PredictiveDistribution, weight) per expert, built from the vectors."""
        return tuple((PredictiveDistribution(m, v), w) for m, v, w in
                     zip(self.means.tolist(), self.variances.tolist(), self.omega_hat.tolist()))


def fuse_predictions(means, variances, omega_hat):
    """Weighted product-of-experts fusion of M Gaussian expert predictions.

    With precisions P_j = 1/variance_j, the fused mean is
    sum(m_j w_j P_j) / sum(w_j P_j) and the fused variance 1 / sum(w_j P_j).
    """
    means = np.array(means, dtype=float)
    variances = np.array(variances, dtype=float)
    omega_hat = np.array(omega_hat, dtype=float)
    if means.ndim != 1 or not means.size or not means.shape == variances.shape == omega_hat.shape:
        raise ValueError("means, variances and weights must be vectors of equal length")
    if not (np.isfinite(means) & (0.0 <= variances) & (variances < np.inf)).all():
        raise ValueError(f"invalid expert predictions: means={means}, variances={variances}")
    wp = omega_hat / np.maximum(variances, VARIANCE_FLOOR)
    denom = wp.sum()
    dist = PredictiveDistribution(float((means * wp).sum() / denom), float(1.0 / denom))
    return FusedPrediction(dist, means, variances, omega_hat)


# The last cache miss: its offsets key; and the gain rows in window order,
# with the predictive variances clamped at zero and their clamp count,
# floored at VARIANCE_FLOOR and as log(2 pi v) of the floored ones, which
# every hit reuses.
_WindowCache = namedtuple("_WindowCache", "key gains variances clamps floored log_norm")

# Per-state constants of the zero-mean experts: output and length scales as
# columns, which build the window covariance; the columns -sqrt(5) / length
# scale and output scale squared / 3, which build k*; noise and prior
# variances k(t, t); the noisy prior variance plus its first ridge, and 1e-3
# of the noisy prior variance, the d^2 floor of a slide; and the post-update
# weight floor WEIGHT_FLOOR / M.
_Experts = namedtuple(
    "_Experts", "output_scale length_scale neg_rate sf2_3 noise_var prior ridged d2_floor "
    "weight_floor")


def _expert_constants(features):
    sf = np.array([f.sigma_f for f in features])[:, None]
    sl = np.array([f.sigma_l for f in features])[:, None]
    noise_var = np.array([f.sigma_n for f in features]) ** 2
    prior = sf[:, 0] ** 2
    diagonal = prior + noise_var
    return _Experts(sf, sl, -gp_core.SQRT5 / sl, sf ** 2 / 3.0, noise_var, prior,
                    (1.0 + gp_core.JITTER_INITIAL) * diagonal, 1e-3 * diagonal,
                    WEIGHT_FLOOR / len(features))


class _Window:
    """The last `tau` observations, kept as the slice [lo, hi) of two buffers,
    so reading the window copies nothing. An append that finds the buffers
    full moves the window to their front, about once per `tau` appends; the
    buffers double, up to twice `tau`, as the window fills, so a long `tau`
    costs memory only for the points seen."""

    __slots__ = ("tau", "times", "values", "lo", "hi")

    def __init__(self, tau):
        self.tau = tau
        self.times = np.empty(min(2 * tau, 16))
        self.values = np.empty(self.times.size)
        self.lo = self.hi = 0

    def append(self, t, y):
        if self.hi == self.times.size:
            kept = min(self.hi - self.lo, self.tau - 1)  # what stays once (t, y) is in
            size = self.times.size
            if 2 * (kept + 1) > size:
                size = min(2 * size, 2 * self.tau)
            for name in ("times", "values"):
                old = getattr(self, name)
                new = old if size == old.size else np.empty(size)
                new[:kept] = old[self.hi - kept:self.hi]
                setattr(self, name, new)
            self.lo, self.hi = 0, kept
        self.times[self.hi] = t
        self.values[self.hi] = y
        self.hi += 1
        if self.hi - self.lo > self.tau:
            self.lo += 1


class EnsembleState:
    """Mutable state of the online loop: the feature triples of its
    zero-mean experts, their weights, the forgetting parameter, and the
    sliding window of recent observations.

    A state starts at step zero, before any data: uniform `weights`, their
    flattened predictive weights `omega_hat`, and an empty window. From
    there only `gptdf_step` advances it, in place (single-writer). `weights`
    holds the posterior model weights; `omega_hat` the predictive weights
    that the next fusion will use. The triples are fixed for the life of the
    state: their constants are read once, and the window cache depends on
    the window alone. `window_times` and `window_values` read the window,
    oldest first. Also named `ensemble_from_features`.
    """

    def __init__(self, features, tau=DEFAULT_TAU, alpha=DEFAULT_ALPHA):
        self.features = list(features)
        if not self.features:
            raise ValueError("ensemble needs at least one feature")
        if not 1 <= int(tau) <= sys.maxsize:  # window indices are ssize_t
            raise ValueError(f"window length must be >= 1 and <= {sys.maxsize}")
        self.alpha = float(alpha)
        self.tau = int(tau)
        self.weights = np.full(len(self.features), 1.0 / len(self.features))
        # rejects an alpha outside (0, 1)
        self.omega_hat = predictive_weights(self.weights, self.alpha)
        self.step = 0
        self._window = _Window(self.tau)
        self._experts = _expert_constants(self.features)
        self._window_cache = None
        self._factors = None

    @property
    def window_times(self):
        return tuple(self._window.times[self._window.lo:self._window.hi].tolist())

    @property
    def window_values(self):
        return tuple(self._window.values[self._window.lo:self._window.hi].tolist())


ensemble_from_features = EnsembleState


def _inverse_factors(V):
    """Inverse factors L_j^-1 of an (M, n, n) stack of window covariances, each
    L_j the factor `gp_core._cholesky_with_jitter` gives the dense
    `gp_core.predict`; and whether every expert took the first ridge, the
    only one a slide extends."""
    factors = [gp_core._cholesky_with_jitter(v) for v in V]
    # a triangular inverse per expert costs a tenth of np.linalg.inv's LU
    G = np.array([lapack.dtrtri(L, lower=1)[0] for L, _ in factors])
    return G, all(jitter == gp_core.JITTER_INITIAL for _, jitter in factors)


class _SlotFactors:
    """The window's inverse factors G_j, with G_j'G_j the inverse of V_j plus
    its ridge, in one C-contiguous (M, S, S) stack that slides in place, and
    the record of the last cache miss that used them.

    Each window point owns one slot: a row and a column of every G_j, and an
    entry of `times`. The window's points hold the slots first, first + 1,
    ..., first + size - 1, modulo S, oldest first; a free slot's row and
    column are zero, so the products read it as nothing. S doubles up to
    tau + 1 as the window fills, so a long `tau` costs memory only for the
    points seen. `gains` (rows_j' G_j, in slot order over the leading slots
    the window spans) and `sq` (|rows_j|^2, rows_j = G_j k*_j) are the last
    miss's; `step` and `t_star` are the state's step at that miss (each step
    appends one point) and the time it predicted.
    """

    __slots__ = ("G", "times", "first", "size", "gains", "sq", "step", "t_star")

    def __init__(self, G, times, tau):
        m, n, _ = G.shape
        slots = min(tau + 1, max(16, 2 * n))
        self.G = np.zeros((m, slots, slots))
        self.G[:, :n, :n] = G
        self.times = np.zeros(slots)
        self.times[:n] = times
        self.first, self.size = 0, n

    def slide(self, window, step, e):
        """Move the factors in place to `window` at `step`, the last miss's
        window followed by the t* that miss predicted and without its oldest
        point if that point has left; True, with nothing written, for the last
        miss's window itself (no step since); False, with nothing written,
        for any other window or a nearly singular one.

        The appended point borders G_j with the row (-gains_j', 1) / d_j in a
        free slot, d_j^2 the point's noisy prior variance plus its ridge
        minus |rows_j|^2. A departing point is dropped by a Householder
        reflection, which keeps G_j'G_j and maps the point's column onto a
        multiple of its own slot's unit vector; zeroing that slot's row and
        column then leaves the factor without the point. A
        d_j^2 <= 1e-3 of the noisy prior variance marks a nearly singular
        window, where a slid factor drifts from the dense solution.
        """
        if step == self.step:
            return True
        if step != self.step + 1 or window.times[window.hi - 1] != self.t_star:
            return False
        d2 = e.ridged - self.sq
        if not (d2 > e.d2_floor).all():
            return False
        G, n, size = self.G, self.gains.shape[1], self.size
        if size == G.shape[1]:  # no free slot: the window is filling, from slot 0
            grown = min(2 * size, window.tau + 1)
            self.G = np.zeros((G.shape[0], grown, grown))
            self.G[:, :size, :size] = G
            self.times = np.append(self.times, np.zeros(grown - size))
            G = self.G
        free = (self.first + size) % G.shape[1]
        d = np.sqrt(d2)
        np.divide(self.gains, -d[:, None], out=G[:, free, :n])
        G[:, free, free] = 1.0 / d
        self.times[free] = self.t_star
        if size < window.hi - window.lo:
            self.size = size + 1
            return True
        # H = I - v v' / c with v = a + sign(a_p)|a| e_p, c = |a| (|a| + |a_p|),
        # for the departing point's column a and slot p: G -= v (v'G)' / c.
        p = self.first
        v = G[:, :, p].copy()
        pivot = v[:, p].tolist()
        norm = np.sqrt(np.einsum("ij,ij->i", v, v))
        v[:, p] += np.copysign(norm, pivot)
        proj = np.matmul(v[:, None, :], G)
        for j, (norm_j, pivot_j) in enumerate(zip(norm.tolist(), pivot)):
            # G[j] is a whole C-contiguous matrix, so G[j].T is Fortran-ordered
            # and BLAS updates it in place; on a sub-view f2py would update a
            # copy.
            c = norm_j * (norm_j + abs(pivot_j))
            blas.dger(-1.0 / c, proj[j, 0], v[j], a=G[j].T, overwrite_a=1)
        G[:, p] = 0.0
        G[:, :, p] = 0.0
        self.first = (p + 1) % G.shape[1]
        return True


def _window_gains(state, t_star):
    """Per-expert gain rows W_j = V_j^-1 k*_j, in window order, and
    unclamped predictive variances k(t*, t*) - k*_j' V_j^-1 k*_j for
    predicting `t_star` from the current window.

    Called on a miss of `_predictions`' cache. A miss takes rows G_j k*_j and
    gains rows_j' G_j from the window's inverse factors G_j. The factors of
    the last miss slide in place to the new window in O(M tau^2) when it is
    that window plus the point it predicted, and are used as they are when
    no step has been taken since (`_SlotFactors.slide`); any
    other miss factors each expert's window afresh with `_inverse_factors`,
    O(M tau^3), and carries the factors on only if every expert took the
    first ridge.
    """
    window = state._window
    e = state._experts
    factors = state._factors
    state._factors = None
    carried = True
    if factors is None or not factors.slide(window, state.step, e):
        times = window.times[window.lo:window.hi]
        r = np.abs(times[:, None] - times[None, :])
        K = gp_core._matern52(e.output_scale[:, :, None], e.length_scale[:, :, None], r)
        G, carried = _inverse_factors(K + e.noise_var[:, None, None] * np.eye(times.size))
        factors = _SlotFactors(G, times, window.tau)
    G, first, end = factors.G, factors.first, factors.first + factors.size
    span = G.shape[1]
    if end < span:  # a filling window holds the leading slots
        span = end
        G = G[:, :end, :end]
    # Matern-5/2 k* = sigma_f^2 (1 + a + a^2 / 3) exp(-a), a = sqrt(5) |t* - t| / sigma_l
    na = e.neg_rate * np.abs(t_star - factors.times[:span])
    k_star = 3.0 - na
    k_star *= na
    np.subtract(3.0, k_star, out=k_star)
    k_star *= np.exp(na)
    k_star *= e.sf2_3
    rows = np.matmul(G, k_star[:, :, None])[:, :, 0]
    gains = np.matmul(rows[:, None, :], G)[:, 0]
    sq = np.einsum("ij,ij->i", rows, rows)
    if carried:
        factors.gains, factors.sq = gains, sq
        factors.step, factors.t_star = state.step, t_star
        state._factors = factors
    if end > span:  # the window wraps round the slots
        gains = np.concatenate((gains[:, first:], gains[:, :end - span]), axis=1)
    elif first:
        gains = gains[:, first:end]
    return gains, e.prior - sq


def _predictions(state, t_star):
    """Each expert's mean and predictive variance (clamped at zero) at
    `t_star` from the current window, the variances floored at
    VARIANCE_FLOOR, and log(2 pi v) of the floored ones (None for an empty
    window, whose predictions are the zero-mean priors).

    Everything but the means depends on the window only through its offsets
    t* - t_i, so it is cached under those offsets' bytes: on a regular grid
    with a full window every step hits, and costs one (M, tau) product.
    A gap, an irregular grid or a filling window misses. Clamps count into
    `gp_core.diagnostics` on every call, hit or miss, as the dense
    `gp_core.predict` counts them.
    """
    e = state._experts
    window = state._window
    if window.hi == window.lo:
        return np.zeros_like(e.prior), e.prior.copy(), np.maximum(e.prior, VARIANCE_FLOOR), None
    key = (t_star - window.times[window.lo:window.hi]).tobytes()
    cached = state._window_cache
    if cached is None or cached.key != key:
        gains, variances = _window_gains(state, t_star)
        clamps = int((variances < 0.0).sum())
        if clamps:
            variances = np.maximum(variances, 0.0)
        floored = np.maximum(variances, VARIANCE_FLOOR)
        cached = state._window_cache = _WindowCache(key, gains, variances, clamps, floored,
                                                    np.log(_TWO_PI * floored))
    if cached.clamps:
        gp_core.diagnostics["variance_clamps"] += cached.clamps
    y = window.values[window.lo:window.hi]
    means = _sum(cached.gains * y, axis=1)
    return means, cached.variances.copy(), cached.floored, cached.log_norm


def _fused(means, variances, floored, omega_hat):
    """`fuse_predictions` of vectors the online loop built: the same
    arithmetic, without the checks and copies, and with the variances
    already floored."""
    wp = omega_hat / floored
    denom = _sum(wp)
    try:
        dist = PredictiveDistribution(float(_sum(means * wp) / denom), float(1.0 / denom))
    except ValueError as exc:  # the window's values overflow the experts' arithmetic
        raise DataError(f"fused prediction overflows: {exc}") from None
    return FusedPrediction(dist, means, variances, omega_hat)


def fused_prediction(state, t_star):
    """Fused prediction at `t_star` from the current window and predictive
    weights. Does not advance the state; it only refreshes the window cache
    and its inverse factors.

    Each expert's prediction equals `gp_core.predict(feature.to_model(),
    window, t_star)`, the dense single-model reference, computed for all
    experts at once.
    """
    means, variances, floored, _ = _predictions(state, t_star)
    return _fused(means, variances, floored, state.omega_hat.copy())


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

    The fusion, log density, weight update and forgetting run inline on the
    M-vectors with the arithmetic of `fuse_predictions`,
    `gaussian_log_density`, `update_weights` and `predictive_weights`, in the
    same order, so their results are equal bit for bit.
    """
    t, y = new_obs
    t = float(t)
    y = float(y)
    if not (math.isfinite(t) and math.isfinite(y)):
        raise ValueError(f"observation must be finite, got ({t}, {y})")
    window = state._window
    if window.hi > window.lo and t <= window.times[window.hi - 1]:
        raise ValueError(f"observation timestamp {t} does not increase past "
                         f"{float(window.times[window.hi - 1])}")

    means, variances, floored, log_norm = _predictions(state, t)
    omega_hat = state.omega_hat
    # The record takes `omega_hat`: the state gets new predictive weights below.
    fused = _fused(means, variances, floored, omega_hat)
    if log_norm is not None:
        # Likelihoods relative to the best expert's: the update is invariant
        # to that scale, and one surprising observation can no longer
        # underflow every density and collapse the update.
        log_lik = -0.5 * ((y - means) ** 2 / floored + log_norm)
        scores = omega_hat * np.exp(log_lik - _max(log_lik))
        total = _sum(scores)
        # NaN when every density overflowed to -inf: the same collapse
        if not total > 0.0:
            warnings.warn(_COLLAPSE, WeightCollapseWarning)
            w = omega_hat
        else:
            w = scores / total
        w = np.maximum(w, state._experts.weight_floor)
        state.weights = w / _sum(w)
    p = state.weights ** state.alpha
    state.omega_hat = p / _sum(p)
    window.append(t, y)
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
    # Values past the experts' arithmetic overflow to a weight collapse, which
    # warns once; numpy's own overflow warnings would only precede it.
    with np.errstate(over="ignore", invalid="ignore"):
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
        "omega_hat": record.prediction.omega_hat.tolist(),
    }


def write_prediction_log(records, fp):
    for record in records:
        fp.write(json.dumps(log_record(record)) + "\n")
