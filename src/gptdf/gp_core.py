"""Gaussian-process core: the Matern-5/2 kernel, covariance construction, exact prediction,
marginal likelihood, hyperparameter fitting, and prior sampling.

Inputs are scalar times. Prediction, sampling and `log_marginal_likelihood`
factor the dense covariance through a single jittered Cholesky helper.
Fitting never forms a covariance matrix: its objective is the same
likelihood computed by a Kalman filter over the state-space form of
Matern-5/2, O(n) per evaluation, with a complex-step gradient. It runs
multi-start L-BFGS-B in log-parameter space.
"""

from __future__ import annotations

import cmath
import math
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

    def to_model(self, mean=0.0):
        return GPModel(Matern52(self.sigma_f, self.sigma_l), self.sigma_n, mean)

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


# The dense sampler holds about five n x n matrices at once: 1 GB at 5,000
# points and 2.8 GB at this bound. A longer draw is refused before any work.
MAX_SAMPLE_POINTS = 8192


def sample_prior(model, ts, seed):
    """One draw from the model's prior (including observation noise) at the
    given strictly increasing time points, at most MAX_SAMPLE_POINTS of them.
    Deterministic per seed; a numpy Generator is also accepted."""
    t = np.atleast_1d(np.asarray(ts, dtype=float))
    if t.size == 0:
        raise DataError("empty input locations")
    if t.size > MAX_SAMPLE_POINTS:
        raise DataError(f"cannot sample {t.size} points: at most {MAX_SAMPLE_POINTS}")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("timestamps must be strictly increasing")
    L = _noisy_factor(model, t)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return model.mean + L @ rng.standard_normal(t.size)


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
            if not (0.0 < lo < hi and lo * lo >= np.finfo(float).tiny and hi * hi < math.inf):
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


def _kalman_terms(y, rows, r):
    """Kalman filter of a unit-variance Matern-5/2 state observed with noise
    variance `r`; `rows[k]` is the transition into observation k (see
    `_transition_rows`; the first is `_SDE_START`). Returns
    (sum log S_k, sum v_k^2 / S_k) over the innovations v_k and their
    variances S_k; scalars may be complex.

    The S_k are the squared pivots of the Cholesky factor of the noisy
    covariance in time order, so these sums are log|V| and y' V^-1 y.

    `rows` ends in a run of one row object that appears nowhere before the
    run. On that run the recursion for S and the gains does not depend on y;
    once they stop changing, `_steady_tail` gives the remaining sums.
    """
    m0 = m1 = m2 = 0.0
    p00 = p01 = p02 = p11 = p12 = p22 = 0.0
    s0 = g0 = g1 = g2 = 0.0
    log_det = quad = 0.0
    log = cmath.log
    tol = _SETTLED
    steady = rows[-1]
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
                    rest = np.fromiter(ys, float)  # zip has taken this step's y
                    if rest.size:
                        tail_det, tail_quad = _steady_tail(rest, (a, b, e), s, (k0, k1, k2),
                                                           (m0, m1, m2))
                        log_det += tail_det
                        quad += tail_quad
                    break
            s0, g0, g1, g2 = s, k0, k1, k2
    return log_det, quad


def _steady_tail(y, transition, s, gains, mean):
    """(sum log S, sum v^2 / S) over the observations `y` that follow a
    settled filter: innovation variance `s`, gains `gains`, posterior mean
    `mean`, and the constant transition e U with (a, b, e) = `transition`.

    Then the innovations obey A(z) v = B(z) y, with B(z) = (1 - e/z)^3 the
    characteristic polynomial of e U and A(z) that of the closed loop
    e U (I - g h'); the filter's state enters as the zero-input response
    c_j (the innovations of zero observations), which adds
    (c0, c1 + a1 c0, c2 + a1 c1 + a2 c0) to the first three right-hand
    sides. A(z) v = rhs is one unit lower-triangular banded Toeplitz solve.
    """
    a, b, e = transition
    k0, k1, k2 = gains
    m0, m1, m2 = mean
    # -trace, the sum of the principal 2x2 minors, and -det of e U (I - g h')
    a1 = -e * (3.0 - k0 - a * k1 - b * k2)
    a2 = e * e * (3.0 - 2.0 * k0 - a * k1 + (a * a - b) * k2)
    a3 = -e * e * e * (1.0 - k0)
    c = []
    for _ in range(3):
        m0 = e * (m0 + a * m1 + b * m2)
        m1 = e * (m1 + a * m2)
        m2 = e * m2
        v = -m0
        c.append(v)
        m0 += k0 * v
        m1 += k1 * v
        m2 += k2 * v
    n = len(y)
    rhs = np.convolve(y, (1.0, -3.0 * e, 3.0 * e * e, -e * e * e))[:n]
    rhs[:3] += (c[0], c[1] + a1 * c[0], c[2] + a1 * c[1] + a2 * c[0])[:n]
    band = np.empty((4, n), dtype=complex)  # row 0, the unit diagonal, is not read
    band[1:] = np.array((a1, a2, a3))[:, None]
    v, _ = lapack.ztbtrs(band, rhs[:, None], uplo="L", diag="U")
    v = v[:, 0]
    return n * cmath.log(s), (v @ v) / s


def _matern_nll_and_grad(log_params, t, y):
    """Negative log marginal likelihood of a zero-mean Matern-5/2 model and
    its gradient w.r.t. (log sigma_f, log sigma_l, log sigma_n), in O(n).

    The value is `-log_marginal_likelihood` at the same first-attempt
    ridge: the filter's noise variance is sigma_n^2 + JITTER_INITIAL *
    (sigma_f^2 + sigma_n^2), which is the ridge the dense path adds to
    diag V. One transition is built per distinct gap, so a regular grid
    needs one, and the filter hands the run of equal gaps that ends the
    series to a steady-state solve once it has settled. The sigma_l and
    sigma_n entries of the gradient are complex steps through the same
    filter; the sigma_f entry follows from scaling both sigma_f and
    sigma_n, which scales V: g_f + g_n = n - y' V^-1 y.
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
    sf2 = math.exp(2.0 * log_sf)
    z = (y / math.exp(log_sf)).tolist()

    def half_nll(transitions, log_sn):
        unique = transitions.tolist()
        sn2 = cmath.exp(2.0 * log_sn)
        rows = [_SDE_START] + [unique[i] for i in index] + unique[-1:] * run
        log_det, quad = _kalman_terms(z, rows, (sn2 + JITTER_INITIAL * (sf2 + sn2)) / sf2)
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
            return _matern_nll_and_grad(x, t, y)
        except NumericalError:
            return 1e25, np.zeros(3)

    best_nll = math.inf
    best_x = None
    failed_inits = []
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

    # L-BFGS-B never ends above its own start, so only the starting points
    # of runs that raised can beat the best optimum.
    best_init_nll = math.inf
    best_init_x = None
    for x0 in failed_inits:
        init_nll, _ = objective(x0)
        if init_nll < best_init_nll - 1e-12:
            best_init_nll = init_nll
            best_init_x = x0
    if best_nll > best_init_nll:
        warnings.warn("optimization failed to improve on its initializations; "
                      "returning the best initial point", FitWarning)
        best_x = best_init_x
    sf, sl, sn = np.exp(best_x)
    return TemporalFeature(float(sf), float(sl), float(sn))
