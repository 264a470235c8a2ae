"""Gaussian-process core: the Matern-5/2 kernel, covariance construction, exact prediction,
marginal likelihood, hyperparameter fitting, and prior sampling.

Inputs are scalar times. All covariance factorizations go through a single
jittered Cholesky helper; fitting runs multi-start L-BFGS-B in log-parameter
space with analytic gradients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import optimize as sopt

from .errors import DataError, NumericalError

__all__ = [
    "TimeSeries",
    "Matern52",
    "GPModel",
    "TemporalFeature",
    "PredictiveDistribution",
    "FitConfig",
    "FitWarning",
    "MIN_FIT_POINTS",
    "eval_kernel",
    "build_covariance",
    "build_noisy_covariance",
    "log_marginal_likelihood",
    "fit_hyperparameters",
    "predict",
    "sample_prior",
    "diagnostics",
]

LOG_2PI = math.log(2.0 * math.pi)
SQRT5 = math.sqrt(5.0)

# Jitter added to every covariance before Cholesky, relative to the mean
# diagonal; escalated tenfold on failure up to the max factor.
JITTER_INITIAL = 1e-10
JITTER_MAX = 1e-4

MIN_FIT_POINTS = 8

# Diagnostic counters. `variance_clamps` counts predictive variances that
# came out (slightly) negative in floating point and were clamped to zero.
diagnostics = {"variance_clamps": 0}


class FitWarning(UserWarning):
    """Raised when hyperparameter optimization could not improve on its
    starting points and the best initialization is returned instead."""


def _check_scale(name, value, allow_zero=False):
    v = float(value)
    if not math.isfinite(v) or (v <= 0.0 and not allow_zero) or v < 0.0:
        raise ValueError(f"{name} must be {'nonnegative' if allow_zero else 'positive'} "
                         f"and finite, got {value!r}")
    return v


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (timestamp, value) pairs with strictly increasing timestamps."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or y.ndim != 1:
            raise ValueError("timestamps and values must be one-dimensional")
        if t.shape[0] != y.shape[0]:
            raise ValueError("timestamps and values must have equal length")
        if t.size and not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValueError("timestamps and values must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", y)

    def __len__(self):
        return int(self.timestamps.shape[0])

    @classmethod
    def from_values(cls, values):
        """Series over consecutive integer timestamps 0..n-1."""
        y = np.asarray(values, dtype=float)
        return cls(np.arange(y.shape[0], dtype=float), y)

    def head(self, n):
        return TimeSeries(self.timestamps[:n], self.values[:n])


@dataclass(frozen=True)
class Matern52:
    """Matern kernel with smoothness 5/2:

    k(t, t') = output_scale**2 * (1 + a + a**2/3) * exp(-a),
    a = sqrt(5) * |t - t'| / length_scale.
    """

    output_scale: float
    length_scale: float

    def __post_init__(self):
        object.__setattr__(self, "output_scale", _check_scale("output_scale", self.output_scale))
        object.__setattr__(self, "length_scale", _check_scale("length_scale", self.length_scale))


def _matern52(output_scale, length_scale, r):
    """Matern-5/2 values at nonnegative distances `r`; the scales broadcast
    against `r`, so one call can evaluate a stack of kernels."""
    a = SQRT5 * r / length_scale
    return output_scale ** 2 * (1.0 + a + a * a / 3.0) * np.exp(-a)


def eval_kernel(kernel, t_i, t_j):
    """Covariance between two time points. Symmetric; bounded by output_scale**2."""
    return float(_matern52(kernel.output_scale, kernel.length_scale,
                           abs(float(t_i) - float(t_j))))


def build_covariance(kernel, ts_a, ts_b):
    """Pairwise covariance matrix between two time vectors.

    Returns a |ts_a| x |ts_b| matrix; the square case (ts_a == ts_b) is
    symmetric positive semidefinite.
    """
    a = np.atleast_1d(np.asarray(ts_a, dtype=float))
    b = np.atleast_1d(np.asarray(ts_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DataError("empty input locations")
    r = np.abs(a[:, None] - b[None, :])
    return _matern52(kernel.output_scale, kernel.length_scale, r)


def build_noisy_covariance(K, noise_std):
    """K + noise_std**2 * I. Positive definite whenever noise_std > 0."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {K.shape}")
    noise_std = _check_scale("noise_std", noise_std, allow_zero=True)
    return K + (noise_std ** 2) * np.eye(K.shape[0])


def _cholesky_with_jitter(V, jitter_initial=JITTER_INITIAL, jitter_max=JITTER_MAX):
    """Lower Cholesky factor of V + jitter*mean(diag(V))*I.

    The jitter factor starts at `jitter_initial` and escalates tenfold until
    factorization succeeds or `jitter_max` is exceeded.
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    scale = float(np.trace(V)) / n
    if not (scale > 0.0 and math.isfinite(scale)):
        scale = 1.0
    factor = jitter_initial
    eye = np.eye(n)
    while factor <= jitter_max:
        try:
            return sla.cholesky(V + factor * scale * eye, lower=True)
        except sla.LinAlgError:
            factor *= 10.0
    raise NumericalError("covariance not positive definite")


@dataclass(frozen=True)
class GPModel:
    """One candidate expert: a kernel, an observation-noise level, and a
    constant mean."""

    kernel: object
    noise_std: float = 0.0
    mean: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "noise_std", _check_scale("noise_std", self.noise_std, allow_zero=True))
        m = float(self.mean)
        if not math.isfinite(m):
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", m)


@dataclass(frozen=True)
class TemporalFeature:
    """Three-parameter summary of a series' temporal structure: output scale
    sigma_f, length scale sigma_l, and noise level sigma_n. This triple is
    the only payload exchanged with the cloud registry."""

    sigma_f: float
    sigma_l: float
    sigma_n: float

    def __post_init__(self):
        object.__setattr__(self, "sigma_f", _check_scale("sigma_f", self.sigma_f))
        object.__setattr__(self, "sigma_l", _check_scale("sigma_l", self.sigma_l))
        object.__setattr__(self, "sigma_n", _check_scale("sigma_n", self.sigma_n, allow_zero=True))

    def to_model(self, mean=0.0):
        return GPModel(Matern52(self.sigma_f, self.sigma_l), self.sigma_n, mean)

    def as_dict(self):
        return {"sigma_f": self.sigma_f, "sigma_l": self.sigma_l, "sigma_n": self.sigma_n}

    @classmethod
    def from_dict(cls, d):
        return cls(float(d["sigma_f"]), float(d["sigma_l"]), float(d["sigma_n"]))


@dataclass(frozen=True)
class PredictiveDistribution:
    """Gaussian prediction: mean and (nonnegative) variance."""

    mean: float
    variance: float

    def __post_init__(self):
        m = float(self.mean)
        v = float(self.variance)
        if not (math.isfinite(m) and math.isfinite(v)) or v < 0.0:
            raise ValueError(f"invalid predictive distribution: mean={m}, variance={v}")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "variance", v)


def log_marginal_likelihood(model, data):
    """Log marginal likelihood of the observed series under the model.

    With residual r = y - mean and V the noisy covariance of the observed
    times, this is -r' V^-1 r / 2 - log|V| / 2 - n log(2 pi) / 2.
    """
    if len(data) == 0:
        raise DataError("cannot evaluate likelihood of an empty series")
    K = build_covariance(model.kernel, data.timestamps, data.timestamps)
    V = build_noisy_covariance(K, model.noise_std)
    L = _cholesky_with_jitter(V)
    r = data.values - model.mean
    alpha = sla.cho_solve((L, True), r)
    return float(-0.5 * r @ alpha - np.log(np.diag(L)).sum() - 0.5 * len(data) * LOG_2PI)


def predict(model, train, t_star):
    """One-point GP prediction at time `t_star`.

    With no training data the prior (mean, k(t*, t*)) is returned. Otherwise
    the posterior mean is mean + k*' V^-1 (y - mean) and the variance is
    k(t*, t*) - k*' V^-1 k*, clamped at zero (clamps are counted in
    `diagnostics`).
    """
    t_star = float(t_star)
    if train is None or len(train) == 0:
        return PredictiveDistribution(model.mean, eval_kernel(model.kernel, t_star, t_star))
    K = build_covariance(model.kernel, train.timestamps, train.timestamps)
    V = build_noisy_covariance(K, model.noise_std)
    L = _cholesky_with_jitter(V)
    k_star = build_covariance(model.kernel, [t_star], train.timestamps)[0]
    alpha = sla.cho_solve((L, True), train.values - model.mean)
    mean = model.mean + float(k_star @ alpha)
    w = sla.solve_triangular(L, k_star, lower=True)
    variance = eval_kernel(model.kernel, t_star, t_star) - float(w @ w)
    if variance < 0.0:
        diagnostics["variance_clamps"] += 1
        variance = 0.0
    return PredictiveDistribution(mean, variance)


def sample_prior(model, ts, seed):
    """One draw from the model's prior (including observation noise) at the
    given strictly increasing time points. Deterministic per seed; a
    numpy Generator is also accepted."""
    t = np.atleast_1d(np.asarray(ts, dtype=float))
    if t.size == 0:
        raise DataError("empty input locations")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("timestamps must be strictly increasing")
    K = build_covariance(model.kernel, t, t)
    V = build_noisy_covariance(K, model.noise_std)
    L = _cholesky_with_jitter(V)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return model.mean + L @ rng.standard_normal(t.size)


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Multi-start fit settings: per-parameter bounds, restart count, seed for
    the log-uniform initializations, and the jitter schedule."""

    sigma_f_bounds: tuple = (1e-3, 1e3)
    sigma_l_bounds: tuple = (1e-3, 1e3)
    sigma_n_bounds: tuple = (0.1, 1e2)
    restarts: int = 8
    seed: int = 0
    jitter_initial: float = JITTER_INITIAL
    jitter_max: float = JITTER_MAX

    def __post_init__(self):
        for name in ("sigma_f_bounds", "sigma_l_bounds", "sigma_n_bounds"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo < hi and math.isfinite(hi)):
                raise ValueError(f"{name} must satisfy 0 < low < high, got ({lo}, {hi})")
        if int(self.restarts) < 1:
            raise ValueError("restarts must be >= 1")
        object.__setattr__(self, "restarts", int(self.restarts))

    def as_dict(self):
        return {
            "sigma_f_bounds": list(self.sigma_f_bounds),
            "sigma_l_bounds": list(self.sigma_l_bounds),
            "sigma_n_bounds": list(self.sigma_n_bounds),
            "restarts": self.restarts,
            "seed": self.seed,
            "jitter_initial": self.jitter_initial,
            "jitter_max": self.jitter_max,
        }

    @classmethod
    def from_dict(cls, d):
        known = {"sigma_f_bounds", "sigma_l_bounds", "sigma_n_bounds",
                 "restarts", "seed", "jitter_initial", "jitter_max"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown fit-config keys: {sorted(unknown)}")
        kwargs = {}
        for name in ("sigma_f_bounds", "sigma_l_bounds", "sigma_n_bounds"):
            if name in d:
                kwargs[name] = tuple(float(x) for x in d[name])
        for name in ("restarts", "seed"):
            if name in d:
                kwargs[name] = int(d[name])
        for name in ("jitter_initial", "jitter_max"):
            if name in d:
                kwargs[name] = float(d[name])
        return cls(**kwargs)


def _matern_nll_and_grad(log_params, t, y, jitter_initial=JITTER_INITIAL, jitter_max=JITTER_MAX):
    """Negative log marginal likelihood of a zero-mean Matern-5/2 model and
    its gradient w.r.t. (log sigma_f, log sigma_l, log sigma_n).

    Gradient entries are -tr((aa' - V^-1) dV/dtheta)/2 with a = V^-1 y.
    """
    sf, sl, sn = np.exp(log_params)
    n = t.shape[0]
    r = np.abs(t[:, None] - t[None, :])
    a = SQRT5 * r / sl
    e = np.exp(-a)
    K = (sf * sf) * (1.0 + a + a * a / 3.0) * e
    V = K + (sn * sn) * np.eye(n)
    L = _cholesky_with_jitter(V, jitter_initial, jitter_max)
    alpha = sla.cho_solve((L, True), y)
    nll = 0.5 * float(y @ alpha) + float(np.log(np.diag(L)).sum()) + 0.5 * n * LOG_2PI

    V_inv = sla.cho_solve((L, True), np.eye(n))
    dK_dlog_sf = 2.0 * K
    dK_dlog_sl = (sf * sf) * (a * a * (1.0 + a) / 3.0) * e
    grad = np.empty(3)
    for i, G in enumerate((dK_dlog_sf, dK_dlog_sl)):
        grad[i] = -0.5 * (float(alpha @ G @ alpha) - float((V_inv * G).sum()))
    # dV/dlog sigma_n = 2 sigma_n^2 I, so only diagonals contribute
    grad[2] = -0.5 * (2.0 * sn * sn) * (float(alpha @ alpha) - float(np.trace(V_inv)))
    return nll, grad


def fit_hyperparameters(data, config=None):
    """Fit (sigma_f, sigma_l, sigma_n) by maximizing the log marginal
    likelihood of a zero-mean Matern-5/2 model.

    Runs `config.restarts` L-BFGS-B starts from log-uniform initial points
    within the bounds and returns the best optimum; ties within 1e-12 go to
    the lowest restart index, so the result does not depend on evaluation
    order. The series is assumed centered (normalize first).

    Raises DataError for series shorter than MIN_FIT_POINTS. If every
    restart fails outright, the best initialization is returned and a
    FitWarning is issued.
    """
    config = config or FitConfig()
    if len(data) < MIN_FIT_POINTS:
        raise DataError(
            f"need at least {MIN_FIT_POINTS} points to fit temporal features, got {len(data)}")
    t = data.timestamps
    y = data.values

    lo = np.log([config.sigma_f_bounds[0], config.sigma_l_bounds[0], config.sigma_n_bounds[0]])
    hi = np.log([config.sigma_f_bounds[1], config.sigma_l_bounds[1], config.sigma_n_bounds[1]])
    rng = np.random.default_rng(config.seed)
    # One moment-based start ahead of the random restarts: the marginal
    # likelihood is multimodal and log-uniform draws alone can strand every
    # restart in the explain-it-all-as-noise basin.
    y_scale = float(y.std(ddof=0)) or 1.0
    spacing = float(np.median(np.diff(t))) if len(data) > 1 else 1.0
    moment_init = np.clip(np.log([y_scale, 3.0 * spacing, 0.1 * y_scale]), lo, hi)
    inits = np.vstack([moment_init,
                       lo + rng.uniform(size=(config.restarts, 3)) * (hi - lo)])

    def objective(x):
        try:
            return _matern_nll_and_grad(x, t, y, config.jitter_initial, config.jitter_max)
        except NumericalError:
            return 1e25, np.zeros(3)

    best_nll = math.inf
    best_x = None
    best_init_nll = math.inf
    best_init_x = None
    any_success = False
    for x0 in inits:
        init_nll, _ = objective(x0)
        if init_nll < best_init_nll - 1e-12:
            best_init_nll = init_nll
            best_init_x = x0
        try:
            res = sopt.minimize(objective, x0, jac=True, method="L-BFGS-B",
                                bounds=list(zip(lo, hi)))
        except Exception:
            continue
        if not math.isfinite(res.fun):
            continue
        any_success = True
        if res.fun < best_nll - 1e-12:
            best_nll = res.fun
            best_x = np.clip(res.x, lo, hi)

    if not any_success or best_x is None or best_nll > best_init_nll:
        warnings.warn("optimization failed to improve on its initializations; "
                      "returning the best initial point", FitWarning)
        best_x = best_init_x
    sf, sl, sn = np.exp(best_x)
    return TemporalFeature(float(sf), float(sl), float(sn))
