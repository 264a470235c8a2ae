"""Shared fixtures and independent oracles.

The dense oracles below deliberately use explicit matrix inversion and LU
determinants (numpy.linalg) rather than the library's Cholesky path, so they
can serve as independent references for prediction and likelihood values.
"""

import math
import pathlib

import numpy as np
import pytest

from gptdf.gp_core import eval_kernel

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


def dense_kernel_matrix(kernel, ts_a, ts_b):
    """Entry-by-entry kernel matrix via scalar evaluations."""
    return np.array([[eval_kernel(kernel, a, b) for b in ts_b] for a in ts_a])


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
    k_star = np.array([eval_kernel(model.kernel, t_star, t) for t in train_t])
    resid = np.asarray(train_y, dtype=float) - model.mean
    mean = model.mean + k_star @ V_inv @ resid
    var = eval_kernel(model.kernel, t_star, t_star) - k_star @ V_inv @ k_star
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


def random_increasing_times(rng, n, min_gap=0.2, max_gap=2.0):
    gaps = rng.uniform(min_gap, max_gap, size=n)
    return np.cumsum(gaps) + rng.uniform(-1.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
