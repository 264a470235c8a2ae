"""Shared fixtures and independent oracles.

The dense oracles below deliberately use explicit matrix inversion and LU
determinants (numpy.linalg) rather than the library's Cholesky path, and
this file's own Matern-5/2 kernel rather than the library's, so they can
serve as independent references for prediction and likelihood values.
`dense_sample_prior` draws L z through its own Cholesky factor L, worked in
extended precision: the definition the library's O(n) sampler reproduces
row by row.
`reference_online_run` goes further: it restates a whole online pathway from
the paper's equations and the README's rules, and calls no library code.
"""

import math
import pathlib

import numpy as np
import pytest

from gptdf.gp_core import FitConfig

LOG_2PI = math.log(2.0 * math.pi)
DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

# Fitted feature triples used as fixtures throughout: four experts with short
# length scales (~2.1-2.4) and four with long ones (~4.6-9.6).
SHORT_SCALE_FEATURES = [
    dict(sigma_f=0.8215, sigma_l=2.0752, sigma_n=0.1001),
    dict(sigma_f=0.8069, sigma_l=2.4335, sigma_n=0.1000),
    dict(sigma_f=0.8096, sigma_l=2.2916, sigma_n=0.1001),
    dict(sigma_f=0.8206, sigma_l=2.1494, sigma_n=0.1000),
]
LONG_SCALE_FEATURES = [
    dict(sigma_f=0.7773, sigma_l=7.3899, sigma_n=0.1000),
    dict(sigma_f=0.7778, sigma_l=4.5846, sigma_n=0.1007),
    dict(sigma_f=0.7897, sigma_l=9.6141, sigma_n=0.1001),
    dict(sigma_f=0.8471, sigma_l=7.5284, sigma_n=0.1003),
]


def dense_kernel(kernel, a, b):
    """The kernel's covariance between two time points, by the reference formula."""
    return float(reference_matern52(kernel.output_scale, kernel.length_scale,
                                    float(a) - float(b)))


def dense_kernel_matrix(kernel, ts_a, ts_b):
    """Entry-by-entry kernel matrix via scalar evaluations."""
    return np.array([[dense_kernel(kernel, a, b) for b in ts_b] for a in ts_a])


def dense_noisy(kernel, ts, noise_std, jitter_rel=0.0):
    K = dense_kernel_matrix(kernel, ts, ts)
    V = K + noise_std ** 2 * np.eye(len(ts))
    if jitter_rel:
        # replicate the library's positive-definiteness safeguard so the
        # comparison isolates the solve path, not the safeguard
        V = V + jitter_rel * (np.trace(V) / len(ts)) * np.eye(len(ts))
    return V


def dense_predict(model, train_t, train_y, t_star, jitter_rel=0.0):
    """Posterior mean/variance by explicit matrix inversion."""
    V = dense_noisy(model.kernel, train_t, model.noise_std, jitter_rel)
    V_inv = np.linalg.inv(V)
    k_star = np.array([dense_kernel(model.kernel, t_star, t) for t in train_t])
    resid = np.asarray(train_y, dtype=float) - model.mean
    mean = model.mean + k_star @ V_inv @ resid
    var = dense_kernel(model.kernel, t_star, t_star) - k_star @ V_inv @ k_star
    return float(mean), float(var)


def dense_log_marginal_likelihood(model, train_t, train_y, jitter_rel=0.0):
    """Log marginal likelihood via explicit inverse and LU log-determinant."""
    V = dense_noisy(model.kernel, train_t, model.noise_std, jitter_rel)
    V_inv = np.linalg.inv(V)
    sign, logdet = np.linalg.slogdet(V)
    assert sign > 0
    r = np.asarray(train_y, dtype=float) - model.mean
    n = len(train_t)
    return float(-0.5 * r @ V_inv @ r - 0.5 * logdet - 0.5 * n * LOG_2PI)


def dense_sample_prior(model, ts, seed):
    """One prior draw through the dense factor: L z, with L the lower
    Cholesky factor of K + sigma_n^2 I plus the library's first-attempt
    ridge, and z the next n standard normals of `seed` (an int or a numpy
    Generator). Worked in numpy's extended precision (80-bit on x86 Linux),
    as a noise-free V is as ill conditioned as the ridge lets it be: in
    double precision, LAPACK's factor of one at length scale 10 over 400
    jittered gaps put one draw L z 3.4e-12 of max|y| off."""
    t = np.asarray(ts, dtype=np.longdouble)
    sf, sl, sn = (np.longdouble(x) for x in (model.kernel.output_scale,
                                             model.kernel.length_scale, model.noise_std))
    V = reference_matern52(sf, sl, t[:, None] - t[None, :])
    V += (sn ** 2 + REFERENCE_RIDGE * (sf ** 2 + sn ** 2)) * np.eye(t.size, dtype=np.longdouble)
    L = np.zeros_like(V)
    for j in range(t.size):
        L[j:, j] = V[j:, j] / np.sqrt(V[j, j])
        V[j + 1:, j + 1:] -= np.outer(L[j + 1:, j], L[j + 1:, j])
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return (model.mean + L @ rng.standard_normal(t.size)).astype(float)


def random_increasing_times(rng, n, min_gap=0.2, max_gap=2.0):
    gaps = rng.uniform(min_gap, max_gap, size=n)
    return np.cumsum(gaps) + rng.uniform(-1.0, 1.0)


def expert_tolerance(feature, n):
    """How far an expert's prediction from an n-point window may lie from the
    dense reference: 1e-12, the `TestBatchedExperts` tolerance, or, when the
    window may be worse conditioned than 1e3, 1e-15 times the bound
    1 + n sigma_f^2 / sigma_n^2 on its condition number. At the upper
    length-scale bound a window is all but rank one, and the inverse factors
    the online loop carries lose about one more digit to the dense solve
    (up to 1.8e-15 times the bound over 3,000 examples, against 2e-16
    elsewhere), so the factor is 1e-14 there."""
    kappa = 1.0 + n * feature.sigma_f ** 2 / feature.sigma_n ** 2
    upper = feature.sigma_l == FitConfig().sigma_l_bounds[1]
    return max(1e-12, kappa * (1e-14 if upper else 1e-15))


# The README's constants of the online loop, restated for the reference:
# the ridge on diag V relative to its mean diagonal, the floor of a
# predictive variance, and the post-update weight floor (divided by M).
REFERENCE_RIDGE = 1e-10
REFERENCE_VARIANCE_FLOOR = 1e-12
REFERENCE_WEIGHT_FLOOR = 1e-8


def reference_matern52(sigma_f, sigma_l, r):
    a = math.sqrt(5.0) * np.abs(r) / sigma_l
    return sigma_f ** 2 * (1.0 + a + a * a / 3.0) * np.exp(-a)


def reference_normalize(values, mode):
    """The stream as the target node sees it. "online": step k is centered
    on the mean of the values before it and scaled by
    sqrt((m2 + 2) / (k + 1)), m2 their summed squared deviations, once k >= 2
    (by 1 before); "offline": centered and scaled to sample std one; "none":
    as it is. Each prefix's sums are taken afresh, not by a recursion."""
    x = np.asarray(values, dtype=float)
    if mode == "none":
        return x.copy()
    if mode == "offline":
        mean = math.fsum(x) / x.size
        return (x - mean) / math.sqrt(math.fsum((x - mean) ** 2) / (x.size - 1))
    out = np.empty(x.size)
    for k in range(x.size):
        prefix = x[:k]
        mean = math.fsum(prefix) / k if k else 0.0
        scale = math.sqrt((math.fsum((prefix - mean) ** 2) + 2.0) / (k + 1)) if k >= 2 else 1.0
        out[k] = (x[k] - mean) / scale
    return out


def reference_online_run(features, times, values, tau, alpha):
    """The online loop of the paper over a normalized stream, from step zero
    with uniform weights: per step, each zero-mean Matern-5/2 expert predicts
    from the last `tau` points with `np.linalg.solve` on V = K + sigma_n^2 I
    plus the ridge; the predictions, their variances clamped at zero and
    floored, fuse by precision times the predictive weights; the
    observation's log densities update the weights (not at step zero), which
    are floored at REFERENCE_WEIGHT_FLOOR / M and renormalized; and the
    forgetting exponent `alpha` gives the next predictive weights.

    Returns one dict per step: the fused `mean` and `variance`, the
    predictive weights `omega_hat` that fused them, and `window`, the number
    of points predicted from."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    m = len(features)
    weights = np.full(m, 1.0 / m)
    omega_hat = weights ** alpha / np.sum(weights ** alpha)
    steps = []
    for k in range(times.size):
        wt, wy = times[max(0, k - tau):k], values[max(0, k - tau):k]
        means, variances = np.zeros(m), np.zeros(m)
        for j, f in enumerate(features):
            prior = f.sigma_f ** 2
            if not k:
                variances[j] = prior
                continue
            ridge = REFERENCE_RIDGE * (prior + f.sigma_n ** 2)
            V = (reference_matern52(f.sigma_f, f.sigma_l, wt[:, None] - wt[None, :])
                 + (f.sigma_n ** 2 + ridge) * np.eye(wt.size))
            k_star = reference_matern52(f.sigma_f, f.sigma_l, times[k] - wt)
            means[j] = k_star @ np.linalg.solve(V, wy)
            variances[j] = max(prior - k_star @ np.linalg.solve(V, k_star), 0.0)
        floored = np.maximum(variances, REFERENCE_VARIANCE_FLOOR)
        precision = omega_hat / floored
        steps.append(dict(mean=float(means @ precision / precision.sum()),
                          variance=float(1.0 / precision.sum()),
                          omega_hat=omega_hat, window=wt.size))
        if k:
            log_w = np.log(omega_hat) - 0.5 * ((values[k] - means) ** 2 / floored
                                               + np.log(2.0 * math.pi * floored))
            w = np.exp(log_w - log_w.max())
            w = np.maximum(w / w.sum(), REFERENCE_WEIGHT_FLOOR / m)
            weights = w / w.sum()
        omega_hat = weights ** alpha / np.sum(weights ** alpha)
    return steps


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
