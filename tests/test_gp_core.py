"""Kernel, covariance, prediction, likelihood, sampling, and fitting tests.

Expected values marked by hand-worked closed forms are computed inline from
the scalar formulas; matrix cases are checked against the dense-inverse
oracles in conftest, which do not share the library's Cholesky path.
"""

import math

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
    build_noisy_covariance,
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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_scales_rejected(self, bad):
        with pytest.raises(ValueError):
            Matern52(bad, 1.0)
        with pytest.raises(ValueError):
            Matern52(1.0, bad)


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


class TestNoisyCovariance:
    def test_zero_noise_is_identity_operation(self):
        np.testing.assert_array_equal(build_noisy_covariance([[1.0]], 0.0), [[1.0]])

    def test_scalar_case(self):
        np.testing.assert_allclose(build_noisy_covariance([[1.0]], 0.5), [[1.25]])

    def test_identity_plus_unit_noise(self):
        np.testing.assert_allclose(build_noisy_covariance(np.eye(2), 1.0), 2.0 * np.eye(2))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            build_noisy_covariance(np.ones((2, 3)), 0.1)


class TestCholeskyJitter:
    def test_escalation_then_failure(self):
        # Indefinite matrix: no jitter within the schedule can fix it
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="covariance not positive definite"):
            _cholesky_with_jitter(bad)

    def test_singular_psd_recovers_via_jitter(self):
        ones = np.ones((3, 3))  # rank one, singular
        L = _cholesky_with_jitter(ones)
        np.testing.assert_allclose(L @ L.T, ones, atol=1e-6)


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

    def test_variance_clamp_counter(self, rng):
        before = gp_core.diagnostics["variance_clamps"]
        # near-duplicate inputs with zero noise push the variance negative
        t = np.array([0.0, 1e-7, 1.0])
        model = GPModel(Matern52(1.0, 5.0), noise_std=0.0)
        pred = predict(model, TimeSeries(t, [0.1, 0.1, 0.2]), 0.5)
        assert pred.variance >= 0.0
        assert gp_core.diagnostics["variance_clamps"] >= before


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

    def test_result_respects_bounds(self):
        from gptdf.data_io import generate_synthetic

        data = generate_synthetic(TemporalFeature(0.8, 2.0, 0.3), 60, 2)
        config = FitConfig(restarts=3, seed=2)
        feature = fit_hyperparameters(data, config)
        assert config.sigma_f_bounds[0] <= feature.sigma_f <= config.sigma_f_bounds[1]
        assert config.sigma_l_bounds[0] <= feature.sigma_l <= config.sigma_l_bounds[1]
        assert config.sigma_n_bounds[0] <= feature.sigma_n <= config.sigma_n_bounds[1]


class TestTimeSeries:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0, math.nan])

    def test_from_values(self):
        ts = TimeSeries.from_values([5.0, 6.0, 7.0])
        np.testing.assert_array_equal(ts.timestamps, [0.0, 1.0, 2.0])
