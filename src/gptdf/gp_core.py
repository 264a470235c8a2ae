"""Gaussian-process core: the Matern-5/2 kernel, covariance construction, exact prediction,
marginal likelihood, hyperparameter fitting, and prior sampling.

Inputs are scalar times. Prediction and `log_marginal_likelihood` factor
the dense covariance through a single jittered Cholesky helper. Fitting
and sampling never form a covariance matrix: both run a Kalman filter
over the state-space form of Matern-5/2, O(n). The fit's objective is the
same likelihood with a complex-step gradient, minimized by multi-start
L-BFGS-B in log-parameter space; the sampler draws each value from the
filter's prediction, which reproduces the dense draw of the same seed.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
from scipy import linalg as sla
from scipy.linalg import lapack
from scipy import optimize as sopt

from .errors import DataError, NumericalError, read_settings

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

# What a failed L-BFGS-B run may raise; anything else is a programming error
# and propagates out of fit_hyperparameters.
_NUMERICAL_FAILURES = (ArithmeticError, np.linalg.LinAlgError)

# Diagnostic counters. `variance_clamps` counts predictive variances that
# came out (slightly) negative in floating point and were clamped to zero.
diagnostics = {"variance_clamps": 0}


class FitWarning(UserWarning):
    """Raised when hyperparameter optimization could not improve on its
    starting points and the best initialization is returned instead."""


# The kernel and the likelihood square every scale. A scale's square is a
# positive normal float exactly when the scale lies in this range.
_MIN_SCALE = math.sqrt(sys.float_info.min)  # 2**-511, whose square is exact
_MAX_SCALE = math.sqrt(sys.float_info.max)


def _check_scale(name, value, allow_zero=False):
    v = float(value)
    if not (_MIN_SCALE <= v <= _MAX_SCALE or allow_zero and v == 0.0):
        raise ValueError(f"{name} must be {'zero or ' if allow_zero else ''}positive, "
                         f"its square a positive normal float, got {value!r}")
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


def _cholesky_with_jitter(V):
    """Lower Cholesky factor of V + jitter*mean(diag(V))*I, and the jitter
    factor it took.

    The jitter factor starts at JITTER_INITIAL and escalates tenfold until
    factorization succeeds or JITTER_MAX is exceeded.
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    scale = float(np.trace(V)) / n
    if not (scale > 0.0 and math.isfinite(scale)):
        scale = 1.0
    factor = JITTER_INITIAL
    eye = np.eye(n)
    while factor <= JITTER_MAX:
        try:
            return sla.cholesky(V + factor * scale * eye, lower=True), factor
        except sla.LinAlgError:
            factor *= 10.0
    raise NumericalError("covariance not positive definite")


def _noisy_factor(model, ts):
    """Jittered lower Cholesky factor of the model's noisy covariance
    K + noise_std**2 * I at the times `ts`."""
    K = build_covariance(model.kernel, ts, ts)
    return _cholesky_with_jitter(K + model.noise_std ** 2 * np.eye(K.shape[0]))[0]


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

    def to_model(self):
        return GPModel(Matern52(self.sigma_f, self.sigma_l), self.sigma_n)

    def as_dict(self):
        return {"sigma_f": self.sigma_f, "sigma_l": self.sigma_l, "sigma_n": self.sigma_n}

    @classmethod
    def from_dict(cls, d):
        """Read a triple from a JSON object holding exactly its three numbers."""
        return cls(**read_settings(d, dict.fromkeys(("sigma_f", "sigma_l", "sigma_n"), float),
                                   "feature"))


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
    L = _noisy_factor(model, data.timestamps)
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
    L = _noisy_factor(model, train.timestamps)
    k_star = build_covariance(model.kernel, [t_star], train.timestamps)[0]
    alpha = sla.cho_solve((L, True), train.values - model.mean)
    mean = model.mean + float(k_star @ alpha)
    w = sla.solve_triangular(L, k_star, lower=True)
    variance = eval_kernel(model.kernel, t_star, t_star) - float(w @ w)
    if variance < 0.0:
        diagnostics["variance_clamps"] += 1
        variance = 0.0
    return PredictiveDistribution(mean, variance)


# 2**17 points: a year of 5-minute samples (105,120) fits, and a draw of
# this many takes about 0.15 s on one x86-64 core. A longer draw is refused
# before any work.
MAX_SAMPLE_POINTS = 131072


def sample_prior(model, ts, seed):
    """One draw from the Matern-5/2 model's prior (including observation
    noise) at the given strictly increasing time points, at most
    MAX_SAMPLE_POINTS of them. Deterministic per seed; a numpy Generator is
    also accepted, and the draw takes its next n standard normals.

    O(n): a Kalman filter over the state-space form of Matern-5/2 (see
    `_kalman_terms`) predicts each noisy value from the draws before it,
    mean m_k and variance S_k, and sets y_k = m_k + sqrt(S_k) z_k. That is
    row k of L z, L the lower Cholesky factor of the noisy covariance with
    the first-attempt ridge JITTER_INITIAL * (sigma_f^2 + sigma_n^2) on its
    diagonal, so a seed gives the dense draw L z to rounding.
    Raises NumericalError on a non-positive S_k.
    """
    t = np.atleast_1d(np.asarray(ts, dtype=float))
    if t.size == 0:
        raise DataError("empty input locations")
    if t.size > MAX_SAMPLE_POINTS:
        raise DataError(f"cannot sample {t.size} points: at most {MAX_SAMPLE_POINTS}")
    if not np.isfinite(t).all():
        raise ValueError("timestamps must be finite")
    diffs = np.diff(t)
    if not np.all(diffs > 0.0):
        raise ValueError("timestamps must be strictly increasing")
    sf, sl = model.kernel.output_scale, model.kernel.length_scale
    sf2, sn2 = sf * sf, model.noise_std ** 2
    # the filter runs at unit output scale; r is the noise plus the dense ridge
    r = (sn2 + JITTER_INITIAL * (sf2 + sn2)) / sf2
    slots = {}
    index = [slots.setdefault(d, len(slots)) for d in diffs.tolist()]
    unique = _transition_rows(SQRT5 / sl * np.array(list(slots))).real.tolist()
    rows = [_SDE_START] + [unique[i] for i in index]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sqrt = math.sqrt
    m0 = m1 = m2 = 0.0
    p00 = p01 = p02 = p11 = p12 = p22 = 0.0
    draw = []
    for zk, (a, b, e, e2, q00, q01, q02, q11, q12, q22) in zip(
            rng.standard_normal(t.size).tolist(), rows):
        # predict, as in `_kalman_terms`
        m0 = e * (m0 + a * m1 + b * m2)
        m1 = e * (m1 + a * m2)
        m2 = e * m2
        r01 = p01 + a * p11 + b * p12
        r02 = p02 + a * p12 + b * p22
        r12 = p12 + a * p22
        p00 = e2 * (p00 + a * (p01 + r01) + b * (p02 + r02)) + q00
        p01 = e2 * (r01 + a * r02) + q01
        p02 = e2 * r02 + q02
        p11 = e2 * (p11 + a * (p12 + r12)) + q11
        p12 = e2 * r12 + q12
        p22 = e2 * p22 + q22
        s = p00 + r
        if not s > 0.0:
            raise NumericalError("innovation variance not positive")
        # draw the innovation, then update on it
        v = sqrt(s) * zk
        draw.append(m0 + v)
        k0 = p00 / s
        k1 = p01 / s
        k2 = p02 / s
        m0 += k0 * v
        m1 += k1 * v
        m2 += k2 * v
        p22 -= k2 * p02
        p12 -= k1 * p02
        p11 -= k1 * p01
        p02 -= k0 * p02
        p01 -= k0 * p01
        p00 -= k0 * p00
    return model.mean + sf * np.array(draw)


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Multi-start fit settings: per-parameter bounds, restart count, and seed
    for the log-uniform initializations."""

    sigma_f_bounds: tuple = (1e-3, 1e3)
    sigma_l_bounds: tuple = (1e-3, 1e3)
    sigma_n_bounds: tuple = (0.1, 1e2)
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_f_bounds", "sigma_l_bounds", "sigma_n_bounds"):
            lo, hi = (float(x) for x in getattr(self, name))
            # the objective squares each parameter: a square must not underflow or overflow
            if not _MIN_SCALE <= lo < hi <= _MAX_SCALE:
                raise ValueError(f"{name} must satisfy 0 < low < high with both squares "
                                 f"positive normal floats, got ({lo}, {hi})")
            object.__setattr__(self, name, (lo, hi))
        if int(self.restarts) < 1 or int(self.seed) < 0:
            raise ValueError(f"restarts must be >= 1 and seed >= 0, "
                             f"got {self.restarts} and {self.seed}")
        object.__setattr__(self, "restarts", int(self.restarts))

    def as_dict(self):
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        bounds = dict.fromkeys(("sigma_f_bounds", "sigma_l_bounds", "sigma_n_bounds"), [float])
        return cls(**read_settings(d, {**bounds, "restarts": int, "seed": int}, "fit-config"))


# Matern-5/2 as a linear SDE (Hartikainen & Sarkka, MLSP 2010). With
# lam = sqrt(5)/sigma_l and sigma_f = 1, the state (f, f'/lam, f''/lam^2) has
# drift lam*(M - I), M = [[1, 1, 0], [0, 1, 1], [-1, -3, -2]], and M^3 = 0.
# The filter runs in the Jordan basis of M: x = T z with T the chain
# (M^2 e3, M e3, e3). There M is the upper shift J, f is still the first
# component, the transition over a scaled gap u = lam*d is the triangular
# A = exp(-u) (I + u J + u^2 J^2 / 2), and the stationary covariance C does
# not depend on lam.
_SYM = ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])  # upper triangle, row-major


def _sde_constants():
    """Upper triangles of C and of the d_j (j = 0..4) in
    Q(u) = C - A C A' = C P(5, 2u) + exp(-2u) sum_j d_j u^j,
    P(5, .) being the regularized lower incomplete gamma function. Worked in
    exact rationals so that the low orders that cancel are exactly 0: Q00 is
    O(u^5), which C - A C A' in floating point loses entirely."""
    third = Fraction(1, 3)
    T_inv = np.array([[1, 0, 0], [1, 1, 0], [1, 2, 1]], dtype=object)
    C = T_inv @ np.array([[1, 0, -third], [0, third, 0], [-third, 0, 1]], dtype=object) @ T_inv.T
    J = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=object)
    B = [np.identity(3, dtype=int).astype(object), J, (J @ J) * Fraction(1, 2)]
    d = [C * Fraction(2 ** j, math.factorial(j))
         - sum(B[a] @ C @ B[j - a].T for a in range(3) if 0 <= j - a <= 2)
         for j in range(5)]
    return C[_SYM].astype(float), np.array([dj[_SYM] for dj in d], dtype=float)


_SDE_C, _SDE_QPOLY = _sde_constants()
# Row of a transition from "no previous observation": A = 0, Q = C.
_SDE_START = [0.0] * 4 + _SDE_C.tolist()
# 1/j! for j = 5..20: the terms of the P(5, x) series that matter for x < 1.
_SERIES_COEF = np.array([1.0 / math.factorial(j) for j in range(5, 21)])
# Against the powers u^0..u^4: the d_j of the six entries of Q, then
# 2^j / j!, whose sum is the head sum_{j<5} x^j / j! of exp(x) at x = 2u.
_POWER_COEF = np.vstack([_SDE_QPOLY.T, [2.0 ** j / math.factorial(j) for j in range(5)]])
# Complex-step size in log-parameter space.
_CSTEP = 1e-20
# Relative change of S and of each gain, real and imaginary parts apart, below
# which a filter on a constant transition counts as settled. The imaginary
# parts carry the gradient and settle later than the real parts.
_SETTLED = 1e-14
# Steps on the trailing run of equal gaps after which a filter that has not
# settled hands the rest of the run, with the stationary covariance, to
# `_run_tail`, and the fewest observations left for which that pays. A
# handover costs about as much as 50 loop steps a pass, and a whole
# evaluation that hands over after the first step costs about as much as
# one that settles within 30. So a run
# whose scaled gap u = sqrt(5) gap / sigma_l is below `_LONG_SCALE_U` (a
# length scale over 11 gaps, which takes more than 50 steps to settle)
# hands over after its first step; any other hands over after 72 steps if
# it has not settled, which keeps fitted triples (settled within 70 steps)
# off the doubling that the stationary covariance takes.
_HANDOVER_STEPS = 72
_HANDOVER_MIN_REST = 64
_LONG_SCALE_U = 0.2
# Doubling steps allowed for the stationary covariance; each doubles the
# horizon, so 64 cover any length scale that float gaps can express.
_DOUBLINGS = 64


def _powers(x, k):
    """Rows x^0..x^k of the vector x, each block of powers the product of
    the one before with the highest power so far: a few vector products,
    where `np.vander` accumulates one row of x at a time."""
    p = np.empty((k + 1, x.size), dtype=x.dtype)
    p[0] = 1.0
    p[1] = x
    j = 1
    while j < k:
        m = min(j, k - j)
        np.multiply(p[1:m + 1], p[j], out=p[j + 1:j + m + 1])
        j += m
    return p


def _transition_rows(u):
    """One row per scaled gap in `u`: u, u^2/2, exp(-u) and exp(-2u), which
    give A, then the upper triangle of Q. Analytic, so complex steps pass.

    P(5, x) = 1 - exp(-x) sum_{j<5} x^j / j! is taken from its power series
    where that difference would cancel (x < 1). The exponentials come before
    the matrix products: after a BLAS call, numpy's complex exp can run
    several times slower until a vectorized ufunc such as `2.0 * u` runs.
    """
    x = 2.0 * u
    small = x.real < 1.0
    xs = np.where(small, x, 0.0)
    e1 = np.exp(-u)
    e2 = np.exp(-x)
    es = np.exp(-xs)
    poly = _POWER_COEF @ _powers(u, 4)
    gamma5 = 1.0 - e2 * poly[6]
    if small.any():
        gamma5 = np.where(small, es * (_SERIES_COEF @ _powers(xs, 20)[5:]), gamma5)
    rows = np.empty((10, u.size), dtype=complex)
    rows[0] = u
    rows[1] = 0.5 * u * u
    rows[2] = e1
    rows[3] = e2
    rows[4:] = _SDE_C[:, None] * gamma5 + e2 * poly[:6]
    return rows.T


def _kalman_terms(y, rows, r, handover=0):
    """Kalman filter of a unit-variance Matern-5/2 state observed with noise
    variance `r`; `rows[k]` is the transition into observation k (see
    `_transition_rows`; the first is `_SDE_START`). Returns
    (sum log S_k, sum v_k^2 / S_k) over the innovations v_k and their
    variances S_k; scalars may be complex.

    The S_k are the squared pivots of the Cholesky factor of the noisy
    covariance in time order, so these sums are log|V| and y' V^-1 y.

    `rows` ends in a run of one row object that appears nowhere before the
    run. On that run the recursion for S and the gains does not depend on y;
    once they stop changing, or if they still change after `handover` steps
    of the run (0: never), `_run_tail` gives the remaining sums.
    """
    m0 = m1 = m2 = 0.0
    p00 = p01 = p02 = p11 = p12 = p22 = 0.0
    s0 = g0 = g1 = g2 = 0.0
    log_det = quad = 0.0
    log = cmath.log
    tol = _SETTLED
    steady = rows[-1]
    budget = handover
    fixed = None
    ys = iter(y)
    for yk, row in zip(ys, rows):
        a, b, e, e2, q00, q01, q02, q11, q12, q22 = row
        # predict: m <- e U m, P <- e^2 U P U' + Q, with U = I + a J + b J^2
        m0 = e * (m0 + a * m1 + b * m2)
        m1 = e * (m1 + a * m2)
        m2 = e * m2
        r01 = p01 + a * p11 + b * p12
        r02 = p02 + a * p12 + b * p22
        r12 = p12 + a * p22
        p00 = e2 * (p00 + a * (p01 + r01) + b * (p02 + r02)) + q00
        p01 = e2 * (r01 + a * r02) + q01
        p02 = e2 * r02 + q02
        p11 = e2 * (p11 + a * (p12 + r12)) + q11
        p12 = e2 * r12 + q12
        p22 = e2 * p22 + q22
        # update with the observation of f
        s = p00 + r
        if not s.real > 0.0:
            raise NumericalError("innovation variance not positive")
        v = yk - m0
        k0 = p00 / s
        k1 = p01 / s
        k2 = p02 / s
        m0 += k0 * v
        m1 += k1 * v
        m2 += k2 * v
        p22 -= k2 * p02
        p12 -= k1 * p02
        p11 -= k1 * p01
        p02 -= k0 * p02
        p01 -= k0 * p01
        p00 -= k0 * p00
        log_det += log(s)
        quad += v * v / s
        if row is steady:
            # settled: S and every gain, real and imaginary parts, as at the
            # previous step (the first step of the run compares against 0)
            d = s - s0
            if abs(d.real) <= tol * s.real and abs(d.imag) <= tol * abs(s.imag):
                d0, d1, d2 = k0 - g0, k1 - g1, k2 - g2
                if (abs(d0.real) <= tol * abs(k0.real) and abs(d0.imag) <= tol * abs(k0.imag)
                        and abs(d1.real) <= tol * abs(k1.real)
                        and abs(d1.imag) <= tol * abs(k1.imag)
                        and abs(d2.real) <= tol * abs(k2.real)
                        and abs(d2.imag) <= tol * abs(k2.imag)):
                    break
            s0, g0, g1, g2 = s, k0, k1, k2
            budget -= 1
            if not budget and (fixed := _riccati_fixed_point(row, r)) is not None:
                break
    # after a break the rest of y goes to the tail; a loop that ran to the
    # end has taken all of it
    rest = np.fromiter(ys, float)
    if rest.size:
        tail_det, tail_quad = _run_tail(rest, row, r, (m0, m1, m2),
                                        (p00, p01, p02, p11, p12, p22), fixed)
        log_det += tail_det
        quad += tail_quad
    return log_det, quad


def _riccati_fixed_point(row, r):
    """Upper triangle of the stationary predicted covariance P of the filter
    under the constant transition `row` (see `_transition_rows`) with noise
    variance `r`, complex like them, or None if a doubling has not converged
    within `_DOUBLINGS` steps.

    The real part is `_real_fixed_point` of the real parts. The imaginary
    parts of a complex step are first order, so one Newton (Hewer) step on
    the complex data makes them exact: with the gain g of the real P, the
    closed loop Phi = e U (I - g h') and w = e U g, P is the fixed point of
    X -> Phi X Phi' + r w w' + Q, whose imaginary part is the fixed point of
    Y -> Re(Phi) Y Re(Phi)' + E, E = Im(Phi P Phi' + r w w' + Q). That sum is
    taken by Smith's doubling in real arithmetic: Y <- Y + F Y F', F <- F F,
    until every entry of Y moves by at most `_SETTLED`.
    """
    a, b, e, _, q00, q01, q02, q11, q12, q22 = row
    fixed = _real_fixed_point(tuple(x.real for x in row), r.real)
    if fixed is None:
        return None
    x00, x01, x02, x11, x12, x22 = fixed
    s = x00 + r
    u0 = (x00 + a * x01 + b * x02) / s
    u1 = (x01 + a * x02) / s
    u2 = x02 / s
    f00, f01, f02 = e * (1.0 - u0), e * a, e * b
    f10, f11, f12 = -e * u1, e, e * a
    f20, f22 = -e * u2, e
    w0, w1, w2 = e * u0, e * u1, e * u2
    # Phi P, then the upper triangle of E
    v00 = f00 * x00 + f01 * x01 + f02 * x02
    v01 = f00 * x01 + f01 * x11 + f02 * x12
    v02 = f00 * x02 + f01 * x12 + f02 * x22
    v10 = f10 * x00 + f11 * x01 + f12 * x02
    v11 = f10 * x01 + f11 * x11 + f12 * x12
    v12 = f10 * x02 + f11 * x12 + f12 * x22
    v20 = f20 * x00 + f22 * x02
    v22 = f20 * x02 + f22 * x22
    y00 = (v00 * f00 + v01 * f01 + v02 * f02 + r * w0 * w0 + q00).imag
    y01 = (v00 * f10 + v01 * f11 + v02 * f12 + r * w0 * w1 + q01).imag
    y02 = (v00 * f20 + v02 * f22 + r * w0 * w2 + q02).imag
    y11 = (v10 * f10 + v11 * f11 + v12 * f12 + r * w1 * w1 + q11).imag
    y12 = (v10 * f20 + v12 * f22 + r * w1 * w2 + q12).imag
    y22 = (v20 * f20 + v22 * f22 + r * w2 * w2 + q22).imag
    f00, f01, f02, f10, f11, f12, f20, f22 = (
        f00.real, f01.real, f02.real, f10.real, f11.real, f12.real, f20.real, f22.real)
    f21 = 0.0
    tol = _SETTLED
    for _ in range(_DOUBLINGS):
        v00 = f00 * y00 + f01 * y01 + f02 * y02
        v01 = f00 * y01 + f01 * y11 + f02 * y12
        v02 = f00 * y02 + f01 * y12 + f02 * y22
        v10 = f10 * y00 + f11 * y01 + f12 * y02
        v11 = f10 * y01 + f11 * y11 + f12 * y12
        v12 = f10 * y02 + f11 * y12 + f12 * y22
        v20 = f20 * y00 + f21 * y01 + f22 * y02
        v21 = f20 * y01 + f21 * y11 + f22 * y12
        v22 = f20 * y02 + f21 * y12 + f22 * y22
        d00 = v00 * f00 + v01 * f01 + v02 * f02
        d01 = v00 * f10 + v01 * f11 + v02 * f12
        d02 = v00 * f20 + v01 * f21 + v02 * f22
        d11 = v10 * f10 + v11 * f11 + v12 * f12
        d12 = v10 * f20 + v11 * f21 + v12 * f22
        d22 = v20 * f20 + v21 * f21 + v22 * f22
        y00 += d00
        y01 += d01
        y02 += d02
        y11 += d11
        y12 += d12
        y22 += d22
        if (abs(d00) <= tol * abs(y00) and abs(d01) <= tol * abs(y01)
                and abs(d02) <= tol * abs(y02) and abs(d11) <= tol * abs(y11)
                and abs(d12) <= tol * abs(y12) and abs(d22) <= tol * abs(y22)):
            return (complex(x00, y00), complex(x01, y01), complex(x02, y02),
                    complex(x11, y11), complex(x12, y12), complex(x22, y22))
        f00, f01, f02, f10, f11, f12, f20, f21, f22 = (
            f00 * f00 + f01 * f10 + f02 * f20, f00 * f01 + f01 * f11 + f02 * f21,
            f00 * f02 + f01 * f12 + f02 * f22, f10 * f00 + f11 * f10 + f12 * f20,
            f10 * f01 + f11 * f11 + f12 * f21, f10 * f02 + f11 * f12 + f12 * f22,
            f20 * f00 + f21 * f10 + f22 * f20, f20 * f01 + f21 * f11 + f22 * f21,
            f20 * f02 + f21 * f12 + f22 * f22)
    return None


@functools.lru_cache(maxsize=1)
def _real_fixed_point(row, r):
    """Upper triangle of the stationary predicted covariance P of the filter
    under the real transition `row` (a tuple) with real noise variance `r`,
    or None if it has not converged within `_DOUBLINGS` steps. The two
    gradient passes of one evaluation share their real parts, so the second
    finds the first's result in the cache.

    P solves P = A P (I + G P)^-1 A' + Q with A = e U and G = h h' / r. The
    structure-preserving doubling of Chu, Fan & Lin (2005) iterates on the
    transposed form X = F' X (I + G X)^-1 F + H, F = A', H = Q:
        F <- F Z F,  G <- G + F Z G F',  H <- H + F' H Z F,  Z = (I + G H)^-1,
    each step doubling the horizon of H, which tends to P. It stops when
    every entry of H moves by at most `_SETTLED`.
    """
    a, b, e, _, h00, h01, h02, h11, h12, h22 = row
    f00, f01, f02 = e, 0.0, 0.0
    f10, f11, f12 = a * e, e, 0.0
    f20, f21, f22 = b * e, a * e, e
    g00, g01, g02, g11, g12, g22 = 1.0 / r, 0.0, 0.0, 0.0, 0.0, 0.0
    tol = _SETTLED
    for _ in range(_DOUBLINGS):
        # W = I + G H and its inverse Z, by cofactors
        w00 = 1.0 + g00 * h00 + g01 * h01 + g02 * h02
        w01 = g00 * h01 + g01 * h11 + g02 * h12
        w02 = g00 * h02 + g01 * h12 + g02 * h22
        w10 = g01 * h00 + g11 * h01 + g12 * h02
        w11 = 1.0 + g01 * h01 + g11 * h11 + g12 * h12
        w12 = g01 * h02 + g11 * h12 + g12 * h22
        w20 = g02 * h00 + g12 * h01 + g22 * h02
        w21 = g02 * h01 + g12 * h11 + g22 * h12
        w22 = 1.0 + g02 * h02 + g12 * h12 + g22 * h22
        c00 = w11 * w22 - w12 * w21
        c10 = w12 * w20 - w10 * w22
        c20 = w10 * w21 - w11 * w20
        d = 1.0 / (w00 * c00 + w01 * c10 + w02 * c20)
        z00 = c00 * d
        z01 = (w02 * w21 - w01 * w22) * d
        z02 = (w01 * w12 - w02 * w11) * d
        z10 = c10 * d
        z11 = (w00 * w22 - w02 * w20) * d
        z12 = (w02 * w10 - w00 * w12) * d
        z20 = c20 * d
        z21 = (w01 * w20 - w00 * w21) * d
        z22 = (w00 * w11 - w01 * w10) * d
        # Y = Z F
        y00 = z00 * f00 + z01 * f10 + z02 * f20
        y01 = z00 * f01 + z01 * f11 + z02 * f21
        y02 = z00 * f02 + z01 * f12 + z02 * f22
        y10 = z10 * f00 + z11 * f10 + z12 * f20
        y11 = z10 * f01 + z11 * f11 + z12 * f21
        y12 = z10 * f02 + z11 * f12 + z12 * f22
        y20 = z20 * f00 + z21 * f10 + z22 * f20
        y21 = z20 * f01 + z21 * f11 + z22 * f21
        y22 = z20 * f02 + z21 * f12 + z22 * f22
        # H += F' (H Y), symmetric
        u00 = h00 * y00 + h01 * y10 + h02 * y20
        u01 = h00 * y01 + h01 * y11 + h02 * y21
        u02 = h00 * y02 + h01 * y12 + h02 * y22
        u10 = h01 * y00 + h11 * y10 + h12 * y20
        u11 = h01 * y01 + h11 * y11 + h12 * y21
        u12 = h01 * y02 + h11 * y12 + h12 * y22
        u20 = h02 * y00 + h12 * y10 + h22 * y20
        u21 = h02 * y01 + h12 * y11 + h22 * y21
        u22 = h02 * y02 + h12 * y12 + h22 * y22
        d00 = f00 * u00 + f10 * u10 + f20 * u20
        d01 = f00 * u01 + f10 * u11 + f20 * u21
        d02 = f00 * u02 + f10 * u12 + f20 * u22
        d11 = f01 * u01 + f11 * u11 + f21 * u21
        d12 = f01 * u02 + f11 * u12 + f21 * u22
        d22 = f02 * u02 + f12 * u12 + f22 * u22
        # G += F (Z G) F', Z G symmetric
        s00 = z00 * g00 + z01 * g01 + z02 * g02
        s01 = z00 * g01 + z01 * g11 + z02 * g12
        s02 = z00 * g02 + z01 * g12 + z02 * g22
        s11 = z10 * g01 + z11 * g11 + z12 * g12
        s12 = z10 * g02 + z11 * g12 + z12 * g22
        s22 = z20 * g02 + z21 * g12 + z22 * g22
        t00 = f00 * s00 + f01 * s01 + f02 * s02
        t01 = f00 * s01 + f01 * s11 + f02 * s12
        t02 = f00 * s02 + f01 * s12 + f02 * s22
        t10 = f10 * s00 + f11 * s01 + f12 * s02
        t11 = f10 * s01 + f11 * s11 + f12 * s12
        t12 = f10 * s02 + f11 * s12 + f12 * s22
        t20 = f20 * s00 + f21 * s01 + f22 * s02
        t21 = f20 * s01 + f21 * s11 + f22 * s12
        t22 = f20 * s02 + f21 * s12 + f22 * s22
        g00 += t00 * f00 + t01 * f01 + t02 * f02
        g01 += t00 * f10 + t01 * f11 + t02 * f12
        g02 += t00 * f20 + t01 * f21 + t02 * f22
        g11 += t10 * f10 + t11 * f11 + t12 * f12
        g12 += t10 * f20 + t11 * f21 + t12 * f22
        g22 += t20 * f20 + t21 * f21 + t22 * f22
        # F <- F Y
        f00, f01, f02, f10, f11, f12, f20, f21, f22 = (
            f00 * y00 + f01 * y10 + f02 * y20, f00 * y01 + f01 * y11 + f02 * y21,
            f00 * y02 + f01 * y12 + f02 * y22, f10 * y00 + f11 * y10 + f12 * y20,
            f10 * y01 + f11 * y11 + f12 * y21, f10 * y02 + f11 * y12 + f12 * y22,
            f20 * y00 + f21 * y10 + f22 * y20, f20 * y01 + f21 * y11 + f22 * y21,
            f20 * y02 + f21 * y12 + f22 * y22)
        h00 += d00
        h01 += d01
        h02 += d02
        h11 += d11
        h12 += d12
        h22 += d22
        if (abs(d00) <= tol * abs(h00) and abs(d01) <= tol * abs(h01)
                and abs(d02) <= tol * abs(h02) and abs(d11) <= tol * abs(h11)
                and abs(d12) <= tol * abs(h12) and abs(d22) <= tol * abs(h22)):
            return h00, h01, h02, h11, h12, h22
    return None


def _run_tail(y, row, r, mean, cov, fixed=None):
    """(sum log S, sum v^2 / S) over the observations `y` that follow the
    filter's posterior mean `mean` and covariance `cov` (upper triangle)
    under the constant transition `row` with noise variance `r`.

    Run the steady filter, S = P00 + r and g = P h / S, from the exact mean.
    P is `fixed`, the stationary predicted covariance
    (`_riccati_fixed_point`) handed over by a filter that has not settled,
    or, for a filter that has settled (`fixed` None), its prediction P_k
    from `cov`. With D = P_k - P, the steady filter's innovations w have
    covariance S I + H D H', H_t = h' Phi^(t-1) the rows of the closed loop
    Phi = e U (I - g h'), for any P_k (Solin, Hensman & Turner, NeurIPS
    2018, made exact for any start state). Its innovations are a unit
    triangular map of y, so the sums are
        n log S + log det(I + D H'H / S),
        (w'w - b' (S I + D H'H)^-1 D b) / S,  b = H'w,
    3 x 3 algebra once w and H are known. Both come from one banded solve
    of the steady filter's predicted means mu_{t+1} = Phi mu_t + e U g y_t,
    unit lower triangular in the 3n interleaved state entries, with the
    start mean and the unit states e_j (whose first entries are H) as four
    right-hand sides. The state form, unlike an AR (polynomial) form of the
    same filter, keeps rounding from growing through the near-unit roots of
    long length scales.

    A settled filter has D = 0, so the sums are n log S and w'w / S, and
    the unit states are not solved for: at scaled gaps u of about 2 and
    more their responses decay into subnormals, which slow the solve about
    twofold.
    """
    a, b, e, e2, q00, q01, q02, q11, q12, q22 = row
    p00, p01, p02, p11, p12, p22 = cov
    m0, m1, m2 = mean
    # P_k, the prediction from the posterior covariance `cov`
    r01 = p01 + a * p11 + b * p12
    r02 = p02 + a * p12 + b * p22
    r12 = p12 + a * p22
    predicted = (e2 * (p00 + a * (p01 + r01) + b * (p02 + r02)) + q00,
                 e2 * (r01 + a * r02) + q01, e2 * r02 + q02,
                 e2 * (p11 + a * (p12 + r12)) + q11, e2 * r12 + q12, e2 * p22 + q22)
    x00, x01, x02 = (predicted if fixed is None else fixed)[:3]
    s = x00 + r
    # U g, and the band of I - Phi: entry (3t + i, 3(t - 1) + j) is -Phi_ij
    u0 = (x00 + a * x01 + b * x02) / s
    u1 = (x01 + a * x02) / s
    u2 = x02 / s
    n = len(y)
    band = np.empty((n, 3, 6), dtype=complex)  # Fortran order as (6, 3n)
    band[:] = ((0.0, 0.0, 0.0, e * (u0 - 1.0), e * u1, e * u2),
               (0.0, 0.0, -e * a, -e, 0.0, 0.0),
               (0.0, -e * b, -e * a, -e, 0.0, 0.0))
    sides = 1 if fixed is None else 4
    rhs = np.zeros((sides, n, 3), dtype=complex)
    rhs[0, 0] = (e * (m0 + a * m1 + b * m2), e * (m1 + a * m2), e * m2)
    np.multiply(y[:-1, None], (e * u0, e * u1, e * u2), out=rhs[0, 1:])
    if fixed is not None:
        rhs[1, 0, 0] = rhs[2, 0, 1] = rhs[3, 0, 2] = 1.0
    x, _ = lapack.ztbtrs(band.reshape(3 * n, 6).T, rhs.reshape(sides, 3 * n).T,
                         uplo="L", diag="U")
    w = x[::3]
    w[:, 0] = y - w[:, 0]
    # einsum, not a BLAS product: right after one, the next complex LAPACK
    # call can run many times slower on some x86 CPUs
    gram = np.einsum("ti,tj->ij", w, w).tolist()
    if fixed is None:
        return n * cmath.log(s), gram[0][0] / s
    ww, b0, b1, b2 = gram[0]
    (t00, t01, t02), (_, t11, t12), (_, _, t22) = (g[1:] for g in gram[1:])
    d00, d01, d02, d11, d12, d22 = (pk - pf for pk, pf in zip(predicted, fixed))
    # M = S I + D H'H, and D b
    m00 = s + d00 * t00 + d01 * t01 + d02 * t02
    m01 = d00 * t01 + d01 * t11 + d02 * t12
    m02 = d00 * t02 + d01 * t12 + d02 * t22
    m10 = d01 * t00 + d11 * t01 + d12 * t02
    m11 = s + d01 * t01 + d11 * t11 + d12 * t12
    m12 = d01 * t02 + d11 * t12 + d12 * t22
    m20 = d02 * t00 + d12 * t01 + d22 * t02
    m21 = d02 * t01 + d12 * t11 + d22 * t12
    m22 = s + d02 * t02 + d12 * t12 + d22 * t22
    v0 = d00 * b0 + d01 * b1 + d02 * b2
    v1 = d01 * b0 + d11 * b1 + d12 * b2
    v2 = d02 * b0 + d12 * b1 + d22 * b2
    # b' M^-1 D b and det M, by cofactors
    c00 = m11 * m22 - m12 * m21
    c01 = m12 * m20 - m10 * m22
    c02 = m10 * m21 - m11 * m20
    det = m00 * c00 + m01 * c01 + m02 * c02
    correction = (b0 * (c00 * v0 + (m02 * m21 - m01 * m22) * v1 + (m01 * m12 - m02 * m11) * v2)
                  + b1 * (c01 * v0 + (m00 * m22 - m02 * m20) * v1 + (m02 * m10 - m00 * m12) * v2)
                  + b2 * (c02 * v0 + (m01 * m20 - m00 * m21) * v1 + (m00 * m11 - m01 * m10) * v2)
                  ) / det
    return (n - 3) * cmath.log(s) + cmath.log(det), (ww - correction) / s


def _matern_nll_and_grad(log_params, t, y):
    """Negative log marginal likelihood of a zero-mean Matern-5/2 model and
    its gradient w.r.t. (log sigma_f, log sigma_l, log sigma_n), in O(n).

    The value is `-log_marginal_likelihood` at the same first-attempt
    ridge: the filter's noise variance is sigma_n^2 + JITTER_INITIAL *
    (sigma_f^2 + sigma_n^2), which is the ridge the dense path adds to
    diag V. One transition is built per distinct gap, so a regular grid
    needs one, and the filter hands the rest of the run of equal gaps that
    ends the series to one steady-state solve once it has settled, or, with
    the stationary covariance, if it has not settled after
    `_HANDOVER_STEPS` steps. The sigma_l and sigma_n entries of the
    gradient are complex steps through the same filter; the sigma_f entry
    follows from scaling both sigma_f and sigma_n, which scales V:
    g_f + g_n = n - y' V^-1 y.
    Raises NumericalError on a non-positive innovation variance or a
    non-finite result.
    """
    log_sf, log_sl, log_sn = (float(x) for x in log_params)
    n = t.shape[0]
    diffs = np.diff(t)
    # The trailing run of equal gaps gets a transition of its own, after the
    # distinct gaps before it; the filter tells the run by that row's identity.
    before = np.flatnonzero(diffs != diffs[-1:])
    split = int(before[-1]) + 1 if before.size else 0
    slots = {}
    index = [slots.setdefault(d, len(slots)) for d in diffs[:split].tolist()]
    gaps = np.array(list(slots) + diffs[-1:].tolist())
    run = n - 1 - split
    handover = 0
    if run:
        handover = 1 if SQRT5 * diffs[-1] < _LONG_SCALE_U * math.exp(log_sl) else _HANDOVER_STEPS
        if run < handover + _HANDOVER_MIN_REST:
            handover = 0
    sf2 = math.exp(2.0 * log_sf)
    z = (y / math.exp(log_sf)).tolist()

    def half_nll(transitions, log_sn):
        unique = transitions.tolist()
        sn2 = cmath.exp(2.0 * log_sn)
        rows = [_SDE_START] + [unique[i] for i in index] + unique[-1:] * run
        log_det, quad = _kalman_terms(z, rows, (sn2 + JITTER_INITIAL * (sf2 + sn2)) / sf2,
                                       handover)
        return 0.5 * (log_det + quad), quad.real

    step = 1j * _CSTEP
    transitions = _transition_rows(SQRT5 * cmath.exp(-(log_sl + step)) * gaps)
    value_l, quad = half_nll(transitions, log_sn)
    # complex rows: mixed float-complex arithmetic is the slower path in CPython
    value_n, _ = half_nll(transitions.real + 0j, log_sn + step)
    nll = value_l.real + n * log_sf + 0.5 * n * LOG_2PI
    g_l = value_l.imag / _CSTEP
    g_n = value_n.imag / _CSTEP
    grad = (n - quad - g_n, g_l, g_n)
    if not all(math.isfinite(g) for g in (nll,) + grad):
        raise NumericalError("non-finite likelihood")
    return nll, np.array(grad)


def fit_hyperparameters(data, config=None):
    """Fit (sigma_f, sigma_l, sigma_n) by maximizing the log marginal
    likelihood of a zero-mean Matern-5/2 model.

    Runs `config.restarts` L-BFGS-B starts from log-uniform initial points
    within the bounds and returns the best optimum; ties within 1e-12 go to
    the lowest restart index, so the result does not depend on evaluation
    order. The series is assumed centered (normalize first).

    Raises DataError for series shorter than MIN_FIT_POINTS, and
    NumericalError when the likelihood is finite at no point the fit
    reached. If every restart fails outright, the best initialization is
    returned and a FitWarning is issued.
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
    # restart in the explain-it-all-as-noise basin. A spread past the float
    # range (inf, or nan from inf - inf) clips to the upper bounds.
    with np.errstate(over="ignore", invalid="ignore"):
        y_scale = float(np.nan_to_num(y.std(ddof=0), nan=math.inf)) or 1.0
    spacing = float(np.median(np.diff(t))) if len(data) > 1 else 1.0
    moment_init = np.clip(np.log([y_scale, 3.0 * spacing, 0.1 * y_scale]), lo, hi)
    inits = np.vstack([moment_init,
                       lo + rng.uniform(size=(config.restarts, 3)) * (hi - lo)])

    failure = 1e25  # the objective's value where the likelihood fails

    def objective(x):
        try:
            return _matern_nll_and_grad(x, t, y)
        except NumericalError:
            return failure, np.zeros(3)

    best_nll = math.inf
    best_x = None
    failed_inits = []
    best_init_nll = math.inf
    best_init_x = None
    # Values past about 1e305 overflow the filter's arithmetic; the result
    # is then not finite, and the objective returns the failure value. The
    # overflow is that failure, not a warning to print.
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in inits:
            try:
                res = sopt.minimize(objective, x0, jac=True, method="L-BFGS-B",
                                    bounds=list(zip(lo, hi)))
            except _NUMERICAL_FAILURES:
                failed_inits.append(x0)
                continue
            if res.fun < best_nll - 1e-12:
                best_nll = res.fun
                best_x = np.clip(res.x, lo, hi)

        # L-BFGS-B never ends above its own start, so only the starting
        # points of runs that raised can beat the best optimum.
        for x0 in failed_inits:
            init_nll, _ = objective(x0)
            if init_nll < best_init_nll - 1e-12:
                best_init_nll = init_nll
                best_init_x = x0
    if min(best_nll, best_init_nll) >= failure:
        raise NumericalError("the likelihood is not finite at any point the fit reached")
    if best_nll > best_init_nll:
        warnings.warn("optimization failed to improve on its initializations; "
                      "returning the best initial point", FitWarning)
        best_x = best_init_x
    sf, sl, sn = np.exp(best_x)
    return TemporalFeature(float(sf), float(sl), float(sn))
