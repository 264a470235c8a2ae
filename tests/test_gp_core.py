"""Kernel, covariance, prediction, likelihood, sampling, and fitting tests.

Expected values marked by hand-worked closed forms are computed inline from
the scalar formulas; matrix cases are checked against the dense-inverse
oracles in conftest, which do not share the library's Cholesky path.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptdf import gp_core
from gptdf.errors import DataError, NumericalError
from gptdf.gp_core import (
    FitConfig,
    GPModel,
    Matern52,
    TemporalFeature,
    TimeSeries,
    build_covariance,
    eval_kernel,
    fit_hyperparameters,
    log_marginal_likelihood,
    predict,
    sample_prior,
    _cholesky_with_jitter,
    _matern_nll_and_grad,
)

from conftest import (
    dense_log_marginal_likelihood,
    dense_predict,
    random_increasing_times,
)

LOG_2PI = math.log(2.0 * math.pi)


def matern52_closed_form(sigma_f, sigma_l, r):
    a = math.sqrt(5.0) * r / sigma_l
    return sigma_f ** 2 * (1.0 + a + a * a / 3.0) * math.exp(-a)


kernels = st.builds(Matern52, st.floats(0.1, 3.0), st.floats(0.1, 10.0))


class TestKernels:
    def test_matern_zero_distance_is_squared_output_scale(self):
        assert eval_kernel(Matern52(1.0, 1.0), 3.7, 3.7) == pytest.approx(1.0)
        assert eval_kernel(Matern52(2.5, 0.3), 0.0, 0.0) == pytest.approx(2.5 ** 2)

    def test_matern_unit_distance_closed_form(self):
        expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
        assert eval_kernel(Matern52(1.0, 1.0), 0.0, 1.0) == pytest.approx(expected, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(kernel=kernels, a=st.floats(-50, 50), b=st.floats(-50, 50))
    def test_symmetry_and_bounds(self, kernel, a, b):
        left = eval_kernel(kernel, a, b)
        right = eval_kernel(kernel, b, a)
        assert left == right
        assert 0.0 <= left <= kernel.output_scale ** 2 + 1e-15
        # strictly positive wherever the exponential is representable
        if abs(a - b) < 10.0 * kernel.length_scale:
            assert left > 0.0

    # the last two square to infinity and to a subnormal float
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e200, 1e-160])
    def test_invalid_scales_rejected(self, bad):
        with pytest.raises(ValueError):
            Matern52(bad, 1.0)
        with pytest.raises(ValueError):
            Matern52(1.0, bad)

    def test_scale_range_is_where_squares_are_normal_floats(self):
        low, high = 2.0 ** -511, math.sqrt(sys.float_info.max)
        assert low * low == sys.float_info.min and high * high < math.inf
        assert TemporalFeature(high, low, low).as_dict() == {
            "sigma_f": high, "sigma_l": low, "sigma_n": low}
        assert TemporalFeature(1.0, 1.0, 0.0).sigma_n == 0.0
        # one float past either end squares to a subnormal or to infinity
        for bad in (math.nextafter(low, 0.0), math.nextafter(high, math.inf), 5e-324, -low):
            with pytest.raises(ValueError, match="sigma_n"):
                TemporalFeature(1.0, 1.0, bad)


class TestCovariance:
    def test_single_point(self):
        np.testing.assert_allclose(build_covariance(Matern52(1.0, 1.0), [0.0], [0.0]),
                                   [[1.0]])

    def test_two_point_entries(self):
        K = build_covariance(Matern52(1.0, 1.0), [0.0, 1.0], [0.0, 1.0])
        off = matern52_closed_form(1.0, 1.0, 1.0)
        np.testing.assert_allclose(K, [[1.0, off], [off, 1.0]], atol=1e-14)

    def test_square_case_is_its_own_transpose(self, rng):
        t = random_increasing_times(rng, 9)
        K = build_covariance(Matern52(0.7, 2.0), t, t)
        np.testing.assert_array_equal(K, K.T)

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError, match="empty input locations"):
            build_covariance(Matern52(1.0, 1.0), [], [0.0])
        with pytest.raises(DataError, match="empty input locations"):
            build_covariance(Matern52(1.0, 1.0), [0.0], [])

    @settings(max_examples=40, deadline=None)
    @given(kernel=kernels, n=st.integers(2, 20), seed=st.integers(0, 10_000))
    def test_positive_semidefinite(self, kernel, n, seed):
        t = random_increasing_times(np.random.default_rng(seed), n)
        K = build_covariance(kernel, t, t)
        assert np.linalg.eigvalsh(K).min() >= -1e-9

    def test_rectangular_shape(self):
        K = build_covariance(Matern52(1.0, 1.0), [0.0, 1.0, 2.0], [0.5, 1.5])
        assert K.shape == (3, 2)


class TestCholeskyJitter:
    def test_escalation_then_failure(self):
        # Indefinite matrix: no jitter within the schedule can fix it
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="covariance not positive definite"):
            _cholesky_with_jitter(bad)

    def test_singular_psd_recovers_via_jitter(self):
        ones = np.ones((3, 3))  # rank one, singular
        L, _ = _cholesky_with_jitter(ones)
        np.testing.assert_allclose(L @ L.T, ones, atol=1e-6)

    def test_returns_the_factor_it_took(self):
        # smallest eigenvalue about -5e-9 at unit scale: rungs 1e-10 and
        # 1e-9 fail, 1e-8 succeeds
        V = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-8]])
        L, factor = _cholesky_with_jitter(V)
        assert factor == pytest.approx(100.0 * gp_core.JITTER_INITIAL)
        np.testing.assert_allclose(L @ L.T, V + factor * np.trace(V) / 2 * np.eye(2), atol=1e-15)
        assert _cholesky_with_jitter(np.eye(2))[1] == gp_core.JITTER_INITIAL

    def test_zero_trace_takes_jitter_relative_to_one(self):
        L, factor = _cholesky_with_jitter(np.zeros((2, 2)))
        assert factor == gp_core.JITTER_INITIAL
        np.testing.assert_allclose(L @ L.T, factor * np.eye(2), rtol=1e-15)


class TestLogMarginalLikelihood:
    def test_scalar_standard_gaussian(self):
        # total variance k(t,t) + sigma_n^2 = 0.64 + 0.36 = 1
        model = GPModel(Matern52(0.8, 1.0), noise_std=0.6)
        value = log_marginal_likelihood(model, TimeSeries([0.0], [0.0]))
        assert value == pytest.approx(-0.5 * LOG_2PI, abs=1e-8)

    def test_scalar_unit_deviation(self):
        model = GPModel(Matern52(0.8, 1.0), noise_std=0.6)
        value = log_marginal_likelihood(model, TimeSeries([0.0], [1.0]))
        assert value == pytest.approx(-0.5 - 0.5 * LOG_2PI, abs=1e-8)

    def test_three_point_dense_oracle(self):
        model = GPModel(Matern52(1.0, 1.0), noise_std=0.1)
        t = [0.0, 1.0, 2.0]
        y = [0.1, -0.2, 0.3]
        expected = dense_log_marginal_likelihood(model, t, y)
        value = log_marginal_likelihood(model, TimeSeries(t, y))
        assert value == pytest.approx(expected, abs=1e-8)

    def test_mean_is_subtracted(self, rng):
        t = random_increasing_times(rng, 6)
        y = rng.normal(size=6)
        shifted = GPModel(Matern52(1.0, 2.0), noise_std=0.3, mean=1.5)
        centered = GPModel(Matern52(1.0, 2.0), noise_std=0.3, mean=0.0)
        lhs = log_marginal_likelihood(shifted, TimeSeries(t, y))
        rhs = log_marginal_likelihood(centered, TimeSeries(t, y - 1.5))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_empty_series_rejected(self):
        model = GPModel(Matern52(1.0, 1.0), 0.1)
        with pytest.raises(DataError):
            log_marginal_likelihood(model, TimeSeries([], []))


class TestPredict:
    def test_empty_train_returns_prior(self):
        model = GPModel(Matern52(1.0, 1.0), noise_std=0.0)
        pred = predict(model, None, 5.0)
        assert pred.mean == 0.0
        assert pred.variance == pytest.approx(1.0)
        shifted = GPModel(Matern52(0.5, 2.0), noise_std=0.2, mean=1.2)
        pred = predict(shifted, TimeSeries([], []), -3.0)
        assert pred.mean == pytest.approx(1.2)
        assert pred.variance == pytest.approx(0.25)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="mean must be finite"):
            GPModel(Matern52(1.0, 1.0), 0.1, mean)

    def test_noise_free_interpolation(self):
        model = GPModel(Matern52(1.0, 1.0), noise_std=0.0)
        pred = predict(model, TimeSeries([0.0], [3.0]), 0.0)
        assert pred.mean == pytest.approx(3.0, abs=1e-8)
        assert pred.variance == pytest.approx(0.0, abs=1e-8)

    def test_interpolation_on_random_suite(self, rng):
        # spacing at least half a length scale keeps the zero-noise system
        # well enough conditioned for exact interpolation in float64
        for _ in range(50):
            n = int(rng.integers(2, 11))
            sl = float(rng.uniform(0.5, 3.0))
            t = np.cumsum(rng.uniform(0.5 * sl, 2.0, size=n))
            y = rng.normal(size=n)
            model = GPModel(Matern52(float(rng.uniform(0.3, 2.0)), sl), noise_std=0.0)
            train = TimeSeries(t, y)
            idx = int(rng.integers(0, n))
            pred = predict(model, train, t[idx])
            assert pred.mean == pytest.approx(y[idx], abs=1e-8)

    def test_matches_dense_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 11))
            t = random_increasing_times(rng, n)
            y = rng.normal(size=n)
            model = GPModel(Matern52(float(rng.uniform(0.3, 2.0)),
                                     float(rng.uniform(0.5, 4.0))),
                            noise_std=float(rng.uniform(0.05, 0.5)),
                            mean=float(rng.uniform(-1.0, 1.0)))
            t_star = float(rng.uniform(t[0] - 2.0, t[-1] + 2.0))
            mean, var = dense_predict(model, t, y, t_star, jitter_rel=1e-10)
            pred = predict(model, TimeSeries(t, y), t_star)
            assert pred.mean == pytest.approx(mean, abs=1e-10)
            assert pred.variance == pytest.approx(max(var, 0.0), abs=1e-10)

    def test_noise_monotonicity(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 8))
            t = random_increasing_times(rng, n)
            y = rng.normal(size=n)
            kernel = Matern52(1.0, float(rng.uniform(0.5, 3.0)))
            t_star = float(rng.uniform(t[0], t[-1]))
            prev = -math.inf
            for noise in (0.0, 0.05, 0.2, 0.5, 1.0):
                var = predict(GPModel(kernel, noise), TimeSeries(t, y), t_star).variance
                assert var >= prev - 1e-9
                prev = var

    def test_variance_clamp_counter(self, monkeypatch):
        # The Cholesky ridge keeps k(t*, t*) - k*'V^-1 k* positive for real
        # Matern-5/2 inputs, even zero noise and near-duplicate times; a
        # prior variance below what the window explains drives the clamp.
        real = gp_core.eval_kernel
        monkeypatch.setattr(gp_core, "eval_kernel", lambda k, a, b: real(k, a, b) - 10.0)
        before = gp_core.diagnostics["variance_clamps"]
        t = np.array([0.0, 1e-7, 1.0])
        model = GPModel(Matern52(1.0, 5.0), noise_std=0.0)
        pred = predict(model, TimeSeries(t, [0.1, 0.1, 0.2]), 0.5)
        assert pred.variance == 0.0
        assert gp_core.diagnostics["variance_clamps"] == before + 1


class TestSamplePrior:
    def test_deterministic_per_seed(self):
        model = GPModel(Matern52(1.0, 2.0), noise_std=0.1)
        ts = np.arange(20.0)
        np.testing.assert_array_equal(sample_prior(model, ts, 7), sample_prior(model, ts, 7))
        assert not np.array_equal(sample_prior(model, ts, 7), sample_prior(model, ts, 8))

    def test_single_point_variance(self):
        model = GPModel(Matern52(1.0, 1.0), noise_std=0.0)
        draws = np.array([sample_prior(model, [0.0], seed)[0] for seed in range(10_000)])
        assert abs(draws.var(ddof=1) - 1.0) < 0.05

    def test_output_scale_shrinks_deviations(self):
        big = GPModel(Matern52(1.0, 1.0), noise_std=0.0, mean=0.5)
        small = GPModel(Matern52(0.01, 1.0), noise_std=0.0, mean=0.5)
        ts = np.arange(50.0)
        dev_big = np.abs(sample_prior(big, ts, 3) - 0.5).max()
        dev_small = np.abs(sample_prior(small, ts, 3) - 0.5).max()
        assert dev_small == pytest.approx(dev_big * 0.01, rel=1e-6)

    def test_non_increasing_times_rejected(self):
        model = GPModel(Matern52(1.0, 1.0), 0.1)
        with pytest.raises(ValueError):
            sample_prior(model, [0.0, 0.0, 1.0], 0)

    def test_no_times_rejected(self):
        with pytest.raises(DataError, match="empty input locations"):
            sample_prior(GPModel(Matern52(1.0, 1.0), 0.1), [], 0)

    def test_more_points_than_it_holds_rejected(self):
        model = GPModel(Matern52(1.0, 1.0), 0.1)
        with pytest.raises(DataError, match=f"at most {gp_core.MAX_SAMPLE_POINTS}"):
            sample_prior(model, np.arange(gp_core.MAX_SAMPLE_POINTS + 1.0), 0)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        t = random_increasing_times(rng, 30)
        y = rng.normal(size=30)
        for _ in range(5):
            x = rng.uniform([-1.0, -1.0, -1.5], [1.0, 1.5, 0.5])
            _, grad = _matern_nll_and_grad(x, t, y)
            h = 1e-6
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                num = (_matern_nll_and_grad(xp, t, y)[0]
                       - _matern_nll_and_grad(xm, t, y)[0]) / (2 * h)
                assert grad[i] == pytest.approx(num, rel=1e-4)


def dense_nll(x, t, y):
    """Negative dense log marginal likelihood at log-parameters x."""
    sf, sl, sn = np.exp(x)
    return -log_marginal_likelihood(GPModel(Matern52(sf, sl), noise_std=sn), TimeSeries(t, y))


def reference_nll(x, t, y):
    """The same likelihood, first-attempt jitter included, with the Cholesky
    factor worked in 40 digits. mpmath comes with the test extra."""
    import mpmath as mp

    with mp.workdps(40):
        sf, sl, sn = (mp.mpf(float(v)) for v in np.exp(x))
        n = len(t)
        ridge = sn ** 2 + mp.mpf(gp_core.JITTER_INITIAL) * (sf ** 2 + sn ** 2)
        V = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                a = mp.sqrt(5) * abs(mp.mpf(float(t[i])) - mp.mpf(float(t[j]))) / sl
                V[i, j] = sf ** 2 * (1 + a + a * a / 3) * mp.exp(-a) + (ridge if i == j else 0)
        L = mp.cholesky(V)
        w = mp.lu_solve(L, mp.matrix([mp.mpf(float(v)) for v in y]))
        quad = sum(w[i] ** 2 for i in range(n))
        log_det = 2 * sum(mp.log(L[i, i]) for i in range(n))
        return float((quad + log_det + n * mp.log(2 * mp.pi)) / 2)


_BOUNDS = FitConfig()
FIT_BOUND_CORNERS = list(itertools.product(_BOUNDS.sigma_f_bounds, _BOUNDS.sigma_l_bounds,
                                           _BOUNDS.sigma_n_bounds))
# (sigma_f, sigma_l, sigma_n) where sigma_f/sigma_n = 1e4 and sigma_l is far
# beyond the span: the dense factorization itself loses about six digits there.
DENSE_LOSES_DIGITS = (1e3, 1e3, 0.1)
# (sigma_f, sigma_l, sigma_n) as historical nodes fit them on normalized
# archives; on a unit grid the filter settles within a few dozen steps.
FITTED_LIKE = [(0.9, 4.2, 0.44), (0.89, 1.69, 0.46), (0.86, 8.98, 0.54)]


def predicted_covariance(row, cov):
    """Upper triangle of A P A' + Q: the prediction from the posterior
    covariance `cov` (upper triangle) under the transition `row`."""
    a, b, e, _, *q = row
    A = e * np.array([[1.0, a, b], [0.0, 1.0, a], [0.0, 0.0, 1.0]])
    P = np.zeros((3, 3), dtype=complex)
    P[np.triu_indices(3)] = cov
    P += np.triu(P, 1).T
    return (A @ P @ A.T)[np.triu_indices(3)] + np.array(q)


@pytest.fixture
def tail_calls(monkeypatch):
    """Records each call of the tail of the trailing run: the number of
    observations it covers, whether it was handed a stationary covariance
    (`handover`; a settled filter hands none), the S and gains of the
    steady filter it runs, and its arguments."""
    calls = []
    run_tail = gp_core._run_tail

    def spy(y, row, r, mean, cov, fixed=None):
        P = predicted_covariance(row, cov) if fixed is None else np.array(fixed)
        s = P[0] + r
        calls.append(SimpleNamespace(n=len(y), handover=fixed is not None, s=s,
                                     gains=tuple(P[:3] / s), args=(y, row, r, mean, cov)))
        return run_tail(y, row, r, mean, cov, fixed)

    monkeypatch.setattr(gp_core, "_run_tail", spy)
    return calls


def settled(calls):
    return [call for call in calls if not call.handover]


def handovers(calls):
    return [call for call in calls if call.handover]


def one_ulp_apart(t):
    """The grid `t` with its last timestamp moved up by one ulp: the last gap
    gets a transition of its own, so the filter runs its loop to the end."""
    t_full = t.copy()
    t_full[-1] = np.nextafter(t_full[-1], np.inf)
    return t_full


def riccati_by_iteration(sigma_l, r, steps=3000):
    """Predicted covariance of the sigma_l complex-step pass on a unit grid
    after `steps` steps of the covariance recursion from the transition's Q."""
    u = gp_core.SQRT5 * np.exp(-(math.log(sigma_l) + 1j * gp_core._CSTEP))
    a, b, e, _, *q = gp_core._transition_rows(np.array([u]))[0]
    A = e * np.array([[1.0, a, b], [0.0, 1.0, a], [0.0, 0.0, 1.0]])
    Q = np.zeros((3, 3), dtype=complex)
    Q[np.triu_indices(3)] = q
    Q += np.triu(Q, 1).T
    P = Q.copy()
    for _ in range(steps):
        P = A @ (P - np.outer(P[:, 0], P[0]) / (P[0, 0] + r)) @ A.T + Q
    return P


# (sigma_l, sigma_n) on a unit grid whose filter would settle late or
# never: the handover takes the rest of the run
UNSETTLED = list(itertools.product([30.0, 100.0, 1e3], [0.1, 0.5]))


class TestStateSpaceLikelihood:
    """`_matern_nll_and_grad` is a Kalman filter over the state-space form of
    Matern-5/2; the dense `log_marginal_likelihood` is its oracle."""

    @pytest.mark.parametrize("grid", ["regular", "irregular"])
    def test_matches_dense_on_random_grids(self, rng, grid):
        for n in (8, 9, 30, 121, 400):
            if grid == "regular":
                t = float(rng.integers(-5, 5)) + rng.choice([0.25, 1.0, 2.0]) * np.arange(n)
            else:
                t = random_increasing_times(rng, n)
            x = rng.uniform([-1.0, -1.0, -2.3], [1.0, 2.5, 0.5])
            sf, sl, sn = np.exp(x)
            y = sample_prior(GPModel(Matern52(sf, sl), noise_std=sn), t, rng)
            nll, _ = _matern_nll_and_grad(x, t, y)
            assert abs(nll - dense_nll(x, t, y)) <= 1e-8 * n, (n, x)

    @pytest.mark.parametrize("gaps", [[1.0], [0.5, 1.0, 2.0], None],
                             ids=["one-gap", "three-gaps", "all-distinct"])
    def test_repeated_and_distinct_gaps(self, rng, gaps):
        n = 150
        step = rng.choice(gaps, size=n - 1) if gaps else rng.uniform(0.2, 2.0, n - 1)
        t = np.concatenate([[3.0], 3.0 + np.cumsum(step)])
        assert len(np.unique(np.diff(t))) == (len(gaps) if gaps else n - 1)
        y = rng.normal(size=n)
        for x in np.log([[0.8, 2.0, 0.1], [1.5, 0.3, 0.5], [0.5, 40.0, 0.2]]):
            nll, _ = _matern_nll_and_grad(x, t, y)
            assert abs(nll - dense_nll(x, t, y)) <= 1e-8 * n

    @pytest.mark.parametrize("grid", ["regular", "irregular"])
    def test_fit_bound_corners_match_dense(self, rng, grid):
        n = 40
        t = np.arange(n, dtype=float) if grid == "regular" else random_increasing_times(rng, n)
        y = rng.normal(size=n)
        for corner in FIT_BOUND_CORNERS:
            x = np.log(corner)
            nll, grad = _matern_nll_and_grad(x, t, y)
            assert np.isfinite(grad).all()
            if corner != DENSE_LOSES_DIGITS:
                assert abs(nll - dense_nll(x, t, y)) <= 1e-8 * n, corner

    @pytest.mark.parametrize("grid", ["regular", "irregular"])
    def test_fit_bound_corners_match_extended_precision(self, rng, grid):
        n = 40
        t = np.arange(n, dtype=float) if grid == "regular" else random_increasing_times(rng, n)
        y = rng.normal(size=n)
        for corner in FIT_BOUND_CORNERS:
            x = np.log(corner)
            nll, _ = _matern_nll_and_grad(x, t, y)
            assert abs(nll - reference_nll(x, t, y)) <= 1e-8 * n, corner

    def test_gradient_matches_dense_central_differences(self, rng):
        for grid in ("regular", "irregular"):
            n = 60
            t = np.arange(n, dtype=float) if grid == "regular" else random_increasing_times(rng, n)
            y = rng.normal(size=n)
            for _ in range(4):
                x = rng.uniform([-1.0, -0.5, -1.5], [1.0, 2.0, 0.5])
                _, grad = _matern_nll_and_grad(x, t, y)
                h = 1e-5
                for i in range(3):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    num = (dense_nll(xp, t, y) - dense_nll(xm, t, y)) / (2 * h)
                    assert grad[i] == pytest.approx(num, rel=1e-6, abs=1e-6)

    def test_long_archive_allocates_no_matrix(self, rng):
        import tracemalloc

        n = 4000  # a dense covariance alone would take 128 MB
        t = random_increasing_times(rng, n)
        y = rng.normal(size=n)
        tracemalloc.start()
        try:
            nll, grad = _matern_nll_and_grad(np.log([1.0, 3.0, 0.3]), t, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(nll) and np.isfinite(grad).all()
        assert peak < 16e6

    def test_failures_raise_numerical_error(self, rng):
        t = np.arange(20.0)
        y = rng.normal(size=20)
        x = np.log([1.0, 2.0, 0.1])
        with pytest.raises(NumericalError, match="innovation variance"):
            gp_core._kalman_terms(y.tolist(), [gp_core._SDE_START] * 20, -2.0)
        y[7] = math.nan
        with pytest.raises(NumericalError, match="non-finite"):
            _matern_nll_and_grad(x, t, y)

    def test_long_regular_grid_matches_dense(self, rng):
        n = 2000
        t = np.arange(n, dtype=float)
        x = np.log(FITTED_LIKE[0])
        sf, sl, sn = FITTED_LIKE[0]
        y = sample_prior(GPModel(Matern52(sf, sl), noise_std=sn), t, rng)
        nll, _ = _matern_nll_and_grad(x, t, y)
        assert abs(nll - dense_nll(x, t, y)) <= 1e-8 * n

    def test_regular_gradient_matches_dense_central_differences(self, rng):
        n = 400
        t = np.arange(n, dtype=float)
        for triple in FITTED_LIKE:
            x = np.log(triple)
            y = sample_prior(GPModel(Matern52(*triple[:2]), noise_std=triple[2]), t, rng)
            _, grad = _matern_nll_and_grad(x, t, y)
            h = 1e-5
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                num = (dense_nll(xp, t, y) - dense_nll(xm, t, y)) / (2 * h)
                assert grad[i] == pytest.approx(num, rel=1e-6, abs=1e-6), (triple, i)

    def test_steady_tail_equals_the_full_filter(self, rng):
        # Moving the last timestamp by one ulp gives the last gap a transition
        # of its own, so the filter runs to the end: the reference here.
        n = 400
        t = np.arange(n, dtype=float)
        t_full = t.copy()
        t_full[-1] = np.nextafter(t_full[-1], np.inf)
        for triple in FITTED_LIKE:
            x = np.log(triple)
            y = rng.normal(size=n)
            nll, grad = _matern_nll_and_grad(x, t, y)
            ref_nll, ref_grad = _matern_nll_and_grad(x, t_full, y)
            assert abs(nll - ref_nll) <= 1e-11 * n, triple
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-9)

    def test_tail_starts_once_the_imaginary_parts_settle(self, tail_calls):
        # The imaginary parts of S and the gains carry the gradient and settle
        # after the real parts. What the filter hands to the tail must be the
        # fixed point of the covariance recursion in both parts.
        n = 400
        for sf, sl, sn in FITTED_LIKE:
            tail_calls.clear()
            _matern_nll_and_grad(np.log([sf, sl, sn]), np.arange(n, dtype=float), np.zeros(n))
            # the sigma_l pass: a complex-step transition and a real noise variance
            u = gp_core.SQRT5 * np.exp(-(math.log(sl) + 1j * gp_core._CSTEP))
            a, b, e, _, *q = gp_core._transition_rows(np.array([u]))[0]
            r = (sn ** 2 + gp_core.JITTER_INITIAL * (sf ** 2 + sn ** 2)) / sf ** 2
            A = e * np.array([[1.0, a, b], [0.0, 1.0, a], [0.0, 0.0, 1.0]])
            Q = np.zeros((3, 3), dtype=complex)
            Q[np.triu_indices(3)] = q
            Q += np.triu(Q, 1).T
            P = Q.copy()
            for _ in range(3000):
                P = A @ (P - np.outer(P[:, 0], P[0]) / (P[0, 0] + r)) @ A.T + Q
            expected = np.array([P[0, 0] + r, *(P[:, 0] / (P[0, 0] + r))])
            first = settled(tail_calls)[0]
            got = np.array([first.s, *first.gains])
            np.testing.assert_allclose(got.real, expected.real, rtol=1e-13)
            np.testing.assert_allclose(got.imag, expected.imag, rtol=1e-13)

    def test_tail_runs_only_on_the_trailing_run_of_equal_gaps(self, rng, tail_calls):
        n = 400
        x = np.log(FITTED_LIKE[0])
        y = rng.normal(size=n)
        _matern_nll_and_grad(x, np.arange(n, dtype=float), y)
        assert len(settled(tail_calls)) == 2  # one per gradient pass
        assert all(0 < call.n < n - 8 for call in settled(tail_calls))
        tail_calls.clear()
        _matern_nll_and_grad(x, random_increasing_times(rng, n), y)
        assert settled(tail_calls) == []

    def test_last_gap_one_ulp_apart_gets_no_tail(self, rng, tail_calls):
        n = 400
        t = np.arange(n, dtype=float)
        t[-1] = np.nextafter(t[-1], np.inf)
        assert len(set(np.diff(t).tolist())) == 2
        x = np.log(FITTED_LIKE[0])
        y = rng.normal(size=n)
        nll, _ = _matern_nll_and_grad(x, t, y)
        assert settled(tail_calls) == []
        assert abs(nll - dense_nll(x, t, y)) <= 1e-8 * n

    def test_irregular_head_then_regular_tail(self, rng, tail_calls):
        head = random_increasing_times(rng, 150)
        t = np.concatenate([head, head[-1] + 0.5 * np.arange(1, 251)])
        n = t.size
        for triple in FITTED_LIKE:
            x = np.log(triple)
            y = sample_prior(GPModel(Matern52(*triple[:2]), noise_std=triple[2]), t, rng)
            nll, _ = _matern_nll_and_grad(x, t, y)
            assert abs(nll - dense_nll(x, t, y)) <= 1e-8 * n, triple
        assert settled(tail_calls) and all(call.n < 250 for call in settled(tail_calls))

    def test_settled_tail_equals_the_tail_given_its_covariance(self, rng, tail_calls,
                                                              monkeypatch):
        # A settled filter hands over no stationary covariance: the tail takes
        # P from its prediction, so D = 0 and the unit states are not solved for.
        n = 400
        sides = []
        ztbtrs = gp_core.lapack.ztbtrs

        def solve(band, rhs, **kwargs):
            sides.append(rhs.shape[1])
            return ztbtrs(band, rhs, **kwargs)

        monkeypatch.setattr(gp_core, "lapack", SimpleNamespace(ztbtrs=solve))
        for triple in FITTED_LIKE:
            tail_calls.clear()
            _matern_nll_and_grad(np.log(triple), np.arange(n, dtype=float), rng.normal(size=n))
            for call in settled(tail_calls):
                y, row, r, mean, cov = call.args
                got = gp_core._run_tail(y, row, r, mean, cov)
                given = gp_core._run_tail(y, row, r, mean, cov,
                                          tuple(predicted_covariance(row, cov)))
                assert sides[-2:] == [1, 4]
                for g, w in zip(got, given):
                    np.testing.assert_allclose(g.real, w.real, rtol=1e-13)
                    np.testing.assert_allclose(g.imag, w.imag, rtol=1e-13)

    def test_non_finite_value_in_the_tail_raises(self, rng):
        t = np.arange(400.0)
        y = rng.normal(size=400)
        y[350] = math.nan
        with pytest.raises(NumericalError, match="non-finite"):
            _matern_nll_and_grad(np.log(FITTED_LIKE[0]), t, y)

    @pytest.mark.parametrize("n", [100, 400, 2000])
    def test_handover_equals_the_full_filter(self, rng, n, tail_calls):
        t = np.arange(n, dtype=float)
        t_full = one_ulp_apart(t)
        for sl, sn in UNSETTLED:
            x = np.log([1.0, sl, sn])
            y = rng.normal(size=n)
            nll, grad = _matern_nll_and_grad(x, t, y)
            ref_nll, ref_grad = _matern_nll_and_grad(x, t_full, y)
            assert abs(nll - ref_nll) <= 1e-11 * n, (sl, sn)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-9)
        assert len(handovers(tail_calls)) == 2 * len(UNSETTLED)

    def test_handover_matches_dense(self, rng, tail_calls):
        n = 400
        t = np.arange(n, dtype=float)
        for sf, sl, sn in [(0.9, 100.0, 0.44), (1.5, 100.0, 0.1)]:
            x = np.log([sf, sl, sn])
            y = sample_prior(GPModel(Matern52(sf, sl), noise_std=sn), t, rng)
            nll, _ = _matern_nll_and_grad(x, t, y)
            assert abs(nll - dense_nll(x, t, y)) <= 1e-8 * n, (sf, sl, sn)
        assert len(handovers(tail_calls)) == 4

    @pytest.mark.parametrize("triple, run_steps", [
        ((1.0, 100.0, 0.3), 1),  # a length scale over 11 gaps: after the first step
        ((1.0, 11.0, 1.0), gp_core._HANDOVER_STEPS),  # unsettled after 72 steps
    ])
    def test_handover_bounds_the_loop(self, rng, tail_calls, triple, run_steps):
        # the first observation takes the start row, then each gradient pass
        # runs `run_steps` steps of the run before it hands over
        n = 400
        _matern_nll_and_grad(np.log(triple), np.arange(n, dtype=float), rng.normal(size=n))
        assert [n - call.n for call in handovers(tail_calls)] == [1 + run_steps] * 2

    def test_stationary_covariance_matches_the_riccati_iteration(self):
        sl, sn = 100.0, 0.3
        r = sn ** 2 + gp_core.JITTER_INITIAL * (1.0 + sn ** 2)
        u = gp_core.SQRT5 * np.exp(-(math.log(sl) + 1j * gp_core._CSTEP))
        row = gp_core._transition_rows(np.array([u]))[0].tolist()
        got = np.array(gp_core._riccati_fixed_point(row, r))
        expected = riccati_by_iteration(sl, r)[np.triu_indices(3)]
        np.testing.assert_allclose(got.real, expected.real, rtol=1e-13)
        np.testing.assert_allclose(got.imag, expected.imag, rtol=1e-13)

    def test_non_finite_value_after_the_handover_raises(self, rng, tail_calls):
        t = np.arange(400.0)
        y = rng.normal(size=400)
        y[350] = math.nan
        with pytest.raises(NumericalError, match="non-finite"):
            _matern_nll_and_grad(np.log([1.0, 100.0, 0.3]), t, y)
        assert handovers(tail_calls)

    @pytest.mark.parametrize("sigma_l", [40.0, 120.0])
    def test_fit_matches_the_full_filter(self, sigma_l, tail_calls):
        from gptdf.data_io import generate_synthetic

        series = generate_synthetic(TemporalFeature(1.0, sigma_l, 0.3), 400, 11)
        config = FitConfig(restarts=2, seed=3)
        got = fit_hyperparameters(series, config)
        assert handovers(tail_calls)
        ref = fit_hyperparameters(TimeSeries(one_ulp_apart(series.timestamps), series.values),
                                  config)
        for key, value in ref.as_dict().items():
            assert getattr(got, key) == pytest.approx(value, rel=1e-8), key


class TestFitHyperparameters:
    def test_recovers_length_scale(self):
        # generate-then-fit consistency: ten seeds, +/-50% on sigma_l
        from gptdf.data_io import generate_synthetic

        truth = TemporalFeature(0.8, 2.0, 0.1)
        for seed in range(10):
            data = generate_synthetic(truth, 200, seed)
            feature = fit_hyperparameters(data, FitConfig(seed=seed))
            assert 1.0 <= feature.sigma_l <= 3.0, f"seed {seed}: {feature}"

    def test_constant_series_pins_output_scale(self):
        flat = TimeSeries.from_values(np.zeros(30))
        feature = fit_hyperparameters(flat, FitConfig(restarts=3))
        assert feature.sigma_f == pytest.approx(1e-3, rel=1e-6)

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError, match="at least 8"):
            fit_hyperparameters(TimeSeries.from_values(np.arange(7.0) % 2))

    def test_refit_at_optimum_is_fixed_point(self):
        from gptdf.data_io import generate_synthetic
        from scipy import optimize as sopt

        data = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 100, 0)
        config = FitConfig(restarts=4, seed=0)
        feature = fit_hyperparameters(data, config)
        x_opt = np.log([feature.sigma_f, feature.sigma_l, feature.sigma_n])
        f_opt, _ = _matern_nll_and_grad(x_opt, data.timestamps, data.values)
        bounds = [tuple(np.log(config.sigma_f_bounds)),
                  tuple(np.log(config.sigma_l_bounds)),
                  tuple(np.log(config.sigma_n_bounds))]
        res = sopt.minimize(lambda x: _matern_nll_and_grad(x, data.timestamps, data.values),
                            x_opt, jac=True, method="L-BFGS-B", bounds=bounds)
        assert f_opt - res.fun < 1e-6

    def test_objective_beats_every_initialization(self):
        from gptdf.data_io import generate_synthetic

        data = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 80, 1)
        config = FitConfig(restarts=6, seed=1)
        feature = fit_hyperparameters(data, config)
        achieved = log_marginal_likelihood(feature.to_model(), data)

        lo = np.log([config.sigma_f_bounds[0], config.sigma_l_bounds[0],
                     config.sigma_n_bounds[0]])
        hi = np.log([config.sigma_f_bounds[1], config.sigma_l_bounds[1],
                     config.sigma_n_bounds[1]])
        rng = np.random.default_rng(config.seed)
        inits = lo + rng.uniform(size=(config.restarts, 3)) * (hi - lo)
        for x0 in inits:
            sf, sl, sn = np.exp(x0)
            init_lml = log_marginal_likelihood(
                GPModel(Matern52(sf, sl), noise_std=sn), data)
            assert achieved >= init_lml - 1e-9

    def test_programming_errors_propagate(self, monkeypatch):
        # One fault inside the first run: swallowing it would let the other
        # runs finish and hide it.
        real_objective = gp_core._matern_nll_and_grad
        calls = []

        def broken(*args):
            calls.append(args[0])
            if len(calls) == 2:
                raise TypeError("broken objective")
            return real_objective(*args)

        monkeypatch.setattr(gp_core, "_matern_nll_and_grad", broken)
        with pytest.raises(TypeError, match="broken objective"):
            fit_hyperparameters(TimeSeries.from_values(np.sin(np.arange(30.0))),
                                FitConfig(restarts=2))

    def test_numerical_failure_in_every_run_returns_best_initialization(self, monkeypatch):
        from gptdf.data_io import generate_synthetic

        data = generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 80, 1)
        config = FitConfig(restarts=4, seed=3)

        def failing_minimize(*args, **kwargs):
            raise FloatingPointError("overflow in the line search")

        monkeypatch.setattr(gp_core, "sopt", SimpleNamespace(minimize=failing_minimize))
        with pytest.warns(gp_core.FitWarning):
            feature = fit_hyperparameters(data, config)

        lo = np.log([config.sigma_f_bounds[0], config.sigma_l_bounds[0],
                     config.sigma_n_bounds[0]])
        hi = np.log([config.sigma_f_bounds[1], config.sigma_l_bounds[1],
                     config.sigma_n_bounds[1]])
        y_scale = float(data.values.std())
        moment = np.clip(np.log([y_scale, 3.0, 0.1 * y_scale]), lo, hi)
        rng = np.random.default_rng(config.seed)
        inits = np.vstack([moment, lo + rng.uniform(size=(config.restarts, 3)) * (hi - lo)])
        chosen = np.log([feature.sigma_f, feature.sigma_l, feature.sigma_n])
        nlls = [dense_nll(x0, data.timestamps, data.values) for x0 in inits]
        np.testing.assert_allclose(chosen, inits[int(np.argmin(nlls))], rtol=1e-12)

    def test_no_finite_likelihood_anywhere_raises(self, monkeypatch):
        # every run stops at its start on the failure value: no start fitted
        def failing(*args):
            raise NumericalError("innovation variance not positive")

        monkeypatch.setattr(gp_core, "_matern_nll_and_grad", failing)
        with pytest.raises(NumericalError, match="not finite at any point"):
            fit_hyperparameters(TimeSeries.from_values(np.sin(np.arange(30.0))),
                                FitConfig(restarts=2))

    @pytest.mark.parametrize("values", [
        [1e306 * (1.0 + 0.1 * math.sin(i)) for i in range(50)],
        [(-1.5e308, 1.5e308)[i % 2] for i in range(50)]], ids=["1e306", "1.5e308"])
    def test_values_past_1e305_raise_without_a_warning(self, values):
        # they overflow the filter's arithmetic at every point within the
        # bounds: that overflow is the failure, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="not finite at any point"):
                fit_hyperparameters(TimeSeries.from_values(values), FitConfig(restarts=2))

    def test_no_evaluation_outside_the_optimizer(self, monkeypatch):
        from gptdf.data_io import generate_synthetic

        calls = []
        real_objective = gp_core._matern_nll_and_grad
        real_minimize = gp_core.sopt.minimize
        nfev = []

        def counted_objective(*args):
            calls.append(args[0])
            return real_objective(*args)

        def counted_minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(gp_core, "_matern_nll_and_grad", counted_objective)
        monkeypatch.setattr(gp_core, "sopt", SimpleNamespace(minimize=counted_minimize))
        fit_hyperparameters(generate_synthetic(TemporalFeature(0.8, 2.0, 0.1), 60, 0),
                            FitConfig(restarts=3, seed=0))
        assert len(nfev) == 4
        assert len(calls) == sum(nfev)

    def test_result_respects_bounds(self):
        from gptdf.data_io import generate_synthetic

        data = generate_synthetic(TemporalFeature(0.8, 2.0, 0.3), 60, 2)
        config = FitConfig(restarts=3, seed=2)
        feature = fit_hyperparameters(data, config)
        assert config.sigma_f_bounds[0] <= feature.sigma_f <= config.sigma_f_bounds[1]
        assert config.sigma_l_bounds[0] <= feature.sigma_l <= config.sigma_l_bounds[1]
        assert config.sigma_n_bounds[0] <= feature.sigma_n <= config.sigma_n_bounds[1]


class TestFitConfig:
    def test_round_trip(self):
        config = FitConfig(restarts=3, seed=5)
        assert FitConfig.from_dict(config.as_dict()) == config

    def test_jitter_max_is_not_a_fit_setting(self):
        # the fit objective factors nothing, so there is no jitter to escalate,
        # and its ridge is the fixed first-attempt jitter of the dense path
        for raw in ({"jitter_max": 1e-4}, {"jitter_initial": 1e-10}):
            with pytest.raises(ValueError, match="unknown fit-config keys"):
                FitConfig.from_dict(raw)


class TestTimeSeries:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0, math.nan])
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeSeries([[0.0, 1.0]], [[1.0, 2.0]])

    def test_from_values(self):
        ts = TimeSeries.from_values([5.0, 6.0, 7.0])
        np.testing.assert_array_equal(ts.timestamps, [0.0, 1.0, 2.0])


def test_import_leaves_out_scipy_signal():
    # scipy.signal alone adds about 25 MB of resident memory to every node.
    src = os.path.dirname(os.path.dirname(gp_core.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c",
                    "import gptdf, sys; assert 'scipy.signal' not in sys.modules"],
                   env=env, check=True, timeout=120)
