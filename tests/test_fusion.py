"""Weight dynamics, product-of-experts fusion, and the online loop."""

import math
import sys
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dense_noisy, expert_tolerance
from gptdf import fusion, gp_core
from gptdf.errors import DataError
from gptdf.data_io import generate_synthetic
from gptdf.fusion import (
    WeightCollapseWarning,
    ensemble_from_features,
    fuse_predictions,
    fused_prediction,
    gaussian_log_density,
    gptdf_step,
    log_record,
    predictive_weights,
    run_stream,
    update_weights,
)
from gptdf.gp_core import PredictiveDistribution, TemporalFeature, TimeSeries

simplexes = st.integers(1, 6).flatmap(
    lambda m: arrays(np.float64, (m,), elements=st.floats(1e-6, 1.0)).map(
        lambda w: w / w.sum()))


class TestPredictiveWeights:
    def test_symmetric_pair_stays_uniform(self):
        np.testing.assert_allclose(predictive_weights([0.5, 0.5], 0.3), [0.5, 0.5])

    def test_single_model(self):
        np.testing.assert_allclose(predictive_weights([1.0], 0.9), [1.0])

    def test_direct_evaluation(self):
        a, b = 0.9 ** 0.9, 0.1 ** 0.9
        np.testing.assert_allclose(predictive_weights([0.9, 0.1], 0.9),
                                   [a / (a + b), b / (a + b)], rtol=1e-14)

    def test_degenerate_weight_rejected(self):
        with pytest.raises(ValueError, match="degenerate weight"):
            predictive_weights([0.5, 0.0, 0.5], 0.9)
        with pytest.raises(ValueError, match="degenerate weight"):
            predictive_weights([1.1, -0.1], 0.9)
        with pytest.raises(ValueError, match="nonempty vector"):
            predictive_weights([], 0.9)

    def test_alpha_range_enforced(self):
        for alpha in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                predictive_weights([0.5, 0.5], alpha)

    @settings(max_examples=80, deadline=None)
    @given(w=simplexes, alpha=st.floats(0.01, 0.99))
    def test_flattens_toward_uniform(self, w, alpha):
        oh = predictive_weights(w, alpha)
        assert oh.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(oh > 0)
        if w.size > 1 and w.max() - w.min() > 1e-9:
            assert oh.max() < w.max()
            assert oh.min() > w.min()


class TestUpdateWeights:
    def test_equal_likelihoods_change_nothing(self):
        oh = np.array([0.3, 0.7])
        np.testing.assert_allclose(update_weights(oh, [2.5, 2.5]), oh, atol=1e-12)

    def test_direct_arithmetic(self):
        np.testing.assert_allclose(update_weights([0.5, 0.5], [3.0, 1.0]), [0.75, 0.25])

    def test_single_model_always_one(self):
        np.testing.assert_allclose(update_weights([1.0], [0.123]), [1.0])

    def test_all_zero_likelihoods_keep_weights(self):
        oh = np.array([0.6, 0.4])
        with pytest.warns(WeightCollapseWarning):
            w = update_weights(oh, [0.0, 0.0])
        np.testing.assert_allclose(w, oh, atol=1e-9)

    def test_floor_keeps_experts_alive(self):
        w = update_weights([0.5, 0.5], [1.0, 0.0])
        assert w[1] >= 1e-8 / 2 / 2  # floored then renormalized
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_likelihood_rejected(self):
        with pytest.raises(ValueError):
            update_weights([0.5, 0.5], [1.0, -1.0])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="vectors of equal length"):
            update_weights([0.5, 0.5], [1.0])

    @settings(max_examples=80, deadline=None)
    @given(w=simplexes, alpha=st.floats(0.05, 0.95), seed=st.integers(0, 2**31))
    def test_simplex_preserved_through_cycles(self, w, alpha, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            oh = predictive_weights(w, alpha)
            lik = rng.uniform(0.0, 10.0, size=w.size)
            w = update_weights(oh, lik)
            assert np.all(w > 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)


class TestDensity:
    def test_standard_normal_at_mean(self):
        assert math.exp(gaussian_log_density(0.0, 1.0, 0.0)) == \
            pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_translation_invariance(self):
        assert math.exp(gaussian_log_density(2.0, 1.0, 2.0)) == \
            pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_wider_variance(self):
        assert math.exp(gaussian_log_density(0.0, 4.0, 0.0)) == \
            pytest.approx(1.0 / math.sqrt(8 * math.pi))

    def test_zero_variance_floored(self):
        assert math.isfinite(math.exp(gaussian_log_density(0.0, 0.0, 0.0)))

    def test_vectors_match_scalars(self, rng):
        means, variances = rng.normal(size=6), np.append(rng.uniform(0.1, 3.0, 5), 0.0)
        np.testing.assert_allclose(gaussian_log_density(means, variances, 0.3),
                                   [gaussian_log_density(m, v, 0.3)
                                    for m, v in zip(means, variances)], rtol=1e-15)


class TestFuse:
    def test_single_model_collapse(self):
        fused = fuse_predictions([1.3], [0.7], [1.0]).distribution
        assert fused.mean == pytest.approx(1.3, abs=1e-12)
        assert fused.variance == pytest.approx(0.7, abs=1e-12)

    def test_equal_precision_pair(self):
        fused = fuse_predictions([0.0, 2.0], [1.0, 1.0], [0.5, 0.5]).distribution
        assert fused.mean == pytest.approx(1.0)
        assert fused.variance == pytest.approx(1.0)

    def test_unequal_precision_pair(self):
        fused = fuse_predictions([0.0, 2.0], [1.0, 4.0], [0.5, 0.5]).distribution
        assert fused.mean == pytest.approx(0.4)
        assert fused.variance == pytest.approx(1.6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_predictions([0.0], [1.0], [0.5, 0.5])

    @pytest.mark.parametrize("means, variances, omega_hat", [
        pytest.param([0.0, math.nan], [1.0, 1.0], [0.5, 0.5], id="nan-mean"),
        pytest.param([0.0, 1.0], [1.0, math.inf], [0.5, 0.5], id="inf-variance"),
        pytest.param([0.0, 1.0], [1.0, -1e-3], [0.5, 0.5], id="negative-variance"),
        pytest.param([0.0, 1.0], [1.0], [0.5, 0.5], id="fewer-variances"),
        pytest.param([0.0, 1.0], [1.0, 1.0], [1.0], id="fewer-weights"),
    ])
    def test_invalid_predictions_rejected(self, means, variances, omega_hat):
        with pytest.raises(ValueError):
            fuse_predictions(means, variances, omega_hat)

    @settings(max_examples=60, deadline=None)
    @given(w=simplexes, seed=st.integers(0, 2**31))
    def test_precision_additivity_and_bound(self, w, seed):
        rng = np.random.default_rng(seed)
        means, variances = rng.normal(size=w.size), rng.uniform(0.1, 5.0, w.size)
        fused = fuse_predictions(means, variances, w).distribution
        precisions = w / variances
        assert fused.variance == pytest.approx(1.0 / precisions.sum(), rel=1e-12)
        assert fused.variance <= min(variances / w) + 1e-12

    def test_permutation_leaves_fusion_unchanged(self, rng):
        means, variances = rng.normal(size=5), rng.uniform(0.1, 3.0, 5)
        w = rng.uniform(0.1, 1.0, 5)
        w /= w.sum()
        base = fuse_predictions(means, variances, w).distribution
        perm = rng.permutation(5)
        shuffled = fuse_predictions(means[perm], variances[perm], w[perm]).distribution
        assert shuffled.mean == pytest.approx(base.mean, abs=1e-12)
        assert shuffled.variance == pytest.approx(base.variance, abs=1e-12)


class TestEnsembleState:
    def test_from_features_starts_uniform(self):
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)] * 4)
        np.testing.assert_allclose(state.weights, 0.25)
        np.testing.assert_allclose(state.omega_hat, 0.25)
        assert state.alpha == 0.9
        assert state.tau == 50

    def test_needs_a_model(self):
        with pytest.raises(ValueError):
            ensemble_from_features([])

    # window indices are C ssize_t: past that, a ValueError, not an OverflowError
    @pytest.mark.parametrize("tau", [0, sys.maxsize + 1])
    def test_window_length_out_of_range_rejected(self, tau):
        with pytest.raises(ValueError, match="window length must be >= 1"):
            ensemble_from_features([TemporalFeature(1, 1, 0.1)], tau=tau)


class TestGptdfStep:
    def test_first_step_fuses_priors(self):
        features = [TemporalFeature(1.0, 1.0, 0.1), TemporalFeature(0.5, 3.0, 0.1)]
        state = ensemble_from_features(features)
        fused, state = gptdf_step(state, (0.0, 0.7))
        assert fused.distribution.mean == pytest.approx(0.0)
        # prior fusion of variances 1.0 and 0.25 with uniform weights
        expected_var = 1.0 / (0.5 / 1.0 + 0.5 / 0.25)
        assert fused.distribution.variance == pytest.approx(expected_var)
        # first observation does not reweight the experts
        np.testing.assert_allclose(state.weights, 0.5)
        assert state.step == 1
        assert list(state.window_values) == [0.7]

    def test_timestamps_must_increase(self):
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)])
        gptdf_step(state, (0.0, 0.1))
        with pytest.raises(ValueError, match="increase"):
            gptdf_step(state, (0.0, 0.2))

    @pytest.mark.parametrize("obs", [(math.nan, 0.1), (0.0, math.inf)])
    def test_non_finite_observation_rejected(self, obs):
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)])
        with pytest.raises(ValueError, match="observation must be finite"):
            gptdf_step(state, obs)
        assert state.step == 0

    def test_window_respects_tau(self):
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)], tau=5)
        for k in range(12):
            gptdf_step(state, (float(k), 0.0))
        assert len(state.window_times) == 5
        assert list(state.window_times) == [7.0, 8.0, 9.0, 10.0, 11.0]

    def test_longest_window_holds_only_points_seen(self):
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)], tau=sys.maxsize)
        for k in range(40):
            gptdf_step(state, (float(k), 0.0))
        assert list(state.window_times) == [float(k) for k in range(40)]
        assert state._window.times.size <= 2 * 40 + 16

    def test_single_model_collapses_to_windowed_gp(self):
        feature = TemporalFeature(0.8215, 2.0752, 0.1001)
        stream = generate_synthetic(feature, 80, 3)
        state = ensemble_from_features([feature], tau=20)
        records = run_stream(state, stream)

        model = feature.to_model()
        wt, wy = deque(maxlen=20), deque(maxlen=20)
        for rec in records:
            window = TimeSeries(np.array(wt), np.array(wy)) if wt else None
            ref = gp_core.predict(model, window, rec.t)
            assert rec.prediction.distribution.mean == pytest.approx(ref.mean, abs=1e-12)
            assert rec.prediction.distribution.variance == pytest.approx(ref.variance, abs=1e-12)
            wt.append(rec.t)
            wy.append(rec.truth)

    def test_weights_sum_to_one_throughout(self):
        features = [TemporalFeature(0.8, 2.0, 0.1), TemporalFeature(0.8, 6.0, 0.1),
                    TemporalFeature(1.5, 1.0, 0.1)]
        stream = generate_synthetic(features[0], 60, 1)
        state = ensemble_from_features(features, tau=15)
        for k in range(len(stream)):
            gptdf_step(state, (float(stream.timestamps[k]), float(stream.values[k])))
            assert state.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert state.omega_hat.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(state.weights > 0)

    def test_model_order_permutation_equivariance(self):
        features = [TemporalFeature(0.8, 2.0, 0.1), TemporalFeature(0.8, 8.0, 0.1),
                    TemporalFeature(1.2, 0.7, 0.1)]
        stream = generate_synthetic(features[0], 40, 9)
        perm = [2, 0, 1]
        state_a = ensemble_from_features(features, tau=10)
        state_b = ensemble_from_features([features[i] for i in perm], tau=10)
        recs_a = run_stream(state_a, stream)
        recs_b = run_stream(state_b, stream)
        for ra, rb in zip(recs_a, recs_b):
            assert rb.prediction.distribution.mean == \
                pytest.approx(ra.prediction.distribution.mean, abs=1e-9)
            assert rb.prediction.distribution.variance == \
                pytest.approx(ra.prediction.distribution.variance, abs=1e-9)
        np.testing.assert_allclose(state_b.weights, state_a.weights[perm], atol=1e-9)

    def test_outlier_does_not_collapse_weights(self):
        # One observation far outside both experts' predictions underflows
        # both densities; only the wide-noise expert can explain it.
        state = ensemble_from_features([TemporalFeature(1.0, 5.0, 0.1),
                                        TemporalFeature(1.0, 5.0, 2.0)], tau=20)
        for k in range(30):
            gptdf_step(state, (float(k), math.sin(k / 5.0)))
        assert state.weights[0] > 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gptdf_step(state, (30.0, 80.0))
        assert state.weights[1] > 0.5

    def test_overflowing_observation_is_a_collapse(self):
        # (y - m)^2 / v overflows for every expert: every log density is
        # -inf, so the update keeps the predictive weights and warns.
        state = ensemble_from_features([TemporalFeature(1.0, 2.0, 0.3),
                                        TemporalFeature(0.5, 5.0, 0.2)], tau=10)
        gptdf_step(state, (0.0, 0.5))
        omega_hat = state.omega_hat.copy()
        with np.errstate(all="ignore"), pytest.warns(WeightCollapseWarning):
            gptdf_step(state, (1.0, 1e200))
        np.testing.assert_array_equal(state.weights, omega_hat)
        assert np.isfinite(state.omega_hat).all()
        # the window now holds 1e200: the next step predicts and collapses again
        with np.errstate(all="ignore"), pytest.warns(WeightCollapseWarning):
            fused, _ = gptdf_step(state, (2.0, 0.5))
        assert math.isfinite(fused.distribution.mean)
        assert np.isfinite(state.omega_hat).all()

    def test_overflowing_stream_warns_only_of_the_collapse(self):
        # numpy's overflow and invalid-value warnings would only precede the
        # weight collapse that each such step already reports
        state = ensemble_from_features([TemporalFeature(1.0, 2.0, 0.3),
                                        TemporalFeature(0.5, 5.0, 0.2)], tau=10)
        values = np.where(np.arange(60) % 2, -1e200, 1e200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_stream(state, TimeSeries.from_values(values))
        assert {type(w.message) for w in caught} == {WeightCollapseWarning}

    def test_overflowing_fused_prediction_raises_data_error(self):
        state = ensemble_from_features([TemporalFeature(1.0, 2.0, 0.3)], tau=10)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", WeightCollapseWarning)
            gptdf_step(state, (0.0, 1e308))
            with pytest.raises(DataError, match="fused prediction overflows"):
                gptdf_step(state, (1.0, -1e308))

    def test_prediction_emitted_at_first_iteration(self):
        # zero warm-up: the record for step 0 exists and carries an interval
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)])
        records = run_stream(state, TimeSeries.from_values([0.4, 0.5, 0.1]))
        assert [r.step for r in records] == [0, 1, 2]
        lo, hi = records[0].prediction.interval_3sigma
        assert lo < records[0].prediction.distribution.mean < hi


class TestFusedPredictionHelpers:
    def test_interval_matches_three_sigma(self, rng):
        fused = fuse_predictions([1.0, 0.0], [0.5, 2.0], [0.4, 0.6])
        point = fusion.FusedPrediction(PredictiveDistribution(5.0, 0.0), fused.means,
                                       fused.variances, fused.omega_hat)
        for pred in (fused, point):
            lo, hi = pred.interval_3sigma
            sd = math.sqrt(pred.distribution.variance)
            assert lo == pytest.approx(pred.distribution.mean - 3 * sd)
            assert hi == pytest.approx(pred.distribution.mean + 3 * sd)
        assert point.interval_3sigma == (5.0, 5.0)
        assert sum(fused.omega_hat) == pytest.approx(1.0)

    def test_log_record_field_names(self):
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)] * 2)
        records = run_stream(state, TimeSeries.from_values([0.1, 0.2]))
        rec = log_record(records[0])
        assert list(rec) == ["step", "t", "fused_mean", "fused_variance",
                             "interval_low", "interval_high", "omega_hat"]
        assert rec["step"] == 0
        assert len(rec["omega_hat"]) == 2

    def test_per_model_equals_the_vectors(self):
        fused = fuse_predictions([1.0, 0.0, -0.5], [0.5, 2.0, 0.0], [0.2, 0.3, 0.5])
        assert fused.per_model == ((PredictiveDistribution(1.0, 0.5), 0.2),
                                   (PredictiveDistribution(0.0, 2.0), 0.3),
                                   (PredictiveDistribution(-0.5, 0.0), 0.5))
        assert [p.mean for p, _ in fused.per_model] == fused.means.tolist()
        assert [p.variance for p, _ in fused.per_model] == fused.variances.tolist()
        assert [w for _, w in fused.per_model] == fused.omega_hat.tolist()

    def test_inputs_are_copied(self):
        means, variances, omega_hat = np.array([1.0, 0.0]), np.array([0.5, 2.0]), np.array([0.4, 0.6])
        fused = fuse_predictions(means, variances, omega_hat)
        means[:] = variances[:] = omega_hat[:] = 7.0
        assert fused.means.tolist() == [1.0, 0.0]
        assert fused.variances.tolist() == [0.5, 2.0]
        assert fused.omega_hat.tolist() == [0.4, 0.6]

    def test_earlier_records_unchanged_by_later_steps(self):
        # a regular grid: once the window is full every step reuses the
        # cached gains and variances, and the weights move every step
        state = ensemble_from_features(MIXED_FEATURES[:4], tau=5)
        records = run_stream(state, stream_on(range(30)))
        frozen = [(r.prediction.means.copy(), r.prediction.variances.copy(),
                   r.prediction.omega_hat.copy()) for r in records]
        more = run_stream(state, stream_on(range(30, 40), seed=1))
        assert not np.array_equal(more[-1].prediction.omega_hat, records[-1].prediction.omega_hat)
        for r, (means, variances, omega_hat) in zip(records, frozen):
            np.testing.assert_array_equal(r.prediction.means, means)
            np.testing.assert_array_equal(r.prediction.variances, variances)
            np.testing.assert_array_equal(r.prediction.omega_hat, omega_hat)

    def test_pure_prediction_does_not_advance_state(self):
        state = ensemble_from_features([TemporalFeature(1, 1, 0.1)])
        gptdf_step(state, (0.0, 0.3))
        before = (state.step, tuple(state.window_times))
        fused_prediction(state, 1.0)
        assert (state.step, tuple(state.window_times)) == before


# Sixteen experts with distinct output scales (so distinct covariance
# diagonals), four length scales and two noise levels; the noise levels
# stay at or above the fitting floor, where the dense reference itself is
# accurate well beyond 1e-12.
MIXED_FEATURES = [TemporalFeature(0.5 + 0.06 * j, (0.7, 2.0, 6.0, 15.0)[j % 4], (0.1, 0.4)[j // 8])
                  for j in range(16)]


def stream_on(timestamps, seed=0):
    t = np.asarray(timestamps, dtype=float)
    return TimeSeries(t, np.random.default_rng(seed).normal(0.0, 1.0, t.size))


def online_predictions(features, stream, tau):
    """Run the online loop; return each step's per-expert predictions, the
    number of gain-cache misses, and the number of steps whose window
    offsets differ from the previous step's."""
    state = ensemble_from_features(features, tau=tau)
    steps = []
    misses = changes = 0
    previous = None
    for t, y in zip(stream.timestamps.tolist(), stream.values.tolist()):
        if state.window_times:
            offsets = (t - np.array(state.window_times)).tobytes()
            changes += offsets != previous
            previous = offsets
        cache = state._window_cache
        fused, state = gptdf_step(state, (t, y))
        misses += state._window_cache is not cache
        steps.append([pred for pred, _ in fused.per_model])
    return dense_models(state), steps, misses, changes


def assert_matches_dense(models, stream, tau, steps, checked=None):
    """Every expert's prediction at every step (or at the `checked` steps)
    equals the dense `gp_core.predict` on the same window, to 1e-12."""
    wt, wy = deque(maxlen=tau), deque(maxlen=tau)
    for k, (t, y, preds) in enumerate(zip(stream.timestamps.tolist(),
                                          stream.values.tolist(), steps)):
        if checked is None or k in checked:
            window = TimeSeries(np.array(wt), np.array(wy)) if wt else None
            for model, pred in zip(models, preds):
                ref = gp_core.predict(model, window, t)
                assert pred.mean == pytest.approx(ref.mean, abs=1e-12)
                assert pred.variance == pytest.approx(ref.variance, abs=1e-12)
        wt.append(t)
        wy.append(y)


def assert_fused_matches_dense(models, window, t_star, fused):
    """The per-expert predictions of `fused`, made at `t_star` from
    `window`, equal the dense `gp_core.predict`, to 1e-12."""
    for model, (pred, _) in zip(models, fused.per_model):
        ref = gp_core.predict(model, window, t_star)
        assert pred.mean == pytest.approx(ref.mean, abs=1e-12)
        assert pred.variance == pytest.approx(ref.variance, abs=1e-12)


def dense_models(state):
    """The dense reference model of each of the state's experts."""
    return [f.to_model() for f in state.features]


def current_window(state):
    return TimeSeries(np.array(state.window_times), np.array(state.window_values))


def checked_step(state, t, y):
    """One `gptdf_step`, its prediction checked against the dense reference
    on the window it was made from."""
    window = current_window(state)
    fused, _ = gptdf_step(state, (t, y))
    assert_fused_matches_dense(dense_models(state), window, t, fused)


def count_refactors(monkeypatch):
    """Record the (M, n, n) shape of each window stack the online loop
    factors afresh from here until the patch is undone; the dense reference
    is not counted."""
    calls = []
    real = fusion._inverse_factors

    def counted(V):
        calls.append(V.shape)
        return real(V)

    monkeypatch.setattr(fusion, "_inverse_factors", counted)
    return calls


def jittered(n, rng):
    return np.cumsum(1.0 + rng.uniform(-0.45, 0.45, n))


class TestBatchedExperts:
    """The batched, cached expert predictions against the dense reference."""

    def check(self, features, stream, tau):
        models, steps, misses, changes = online_predictions(features, stream, tau)
        assert_matches_dense(models, stream, tau, steps)
        assert misses == changes
        return misses

    def test_integer_grid_hits_once_window_is_full(self):
        # steps 1..tau fill the window; every later step reuses its gains
        tau = 12
        assert self.check(MIXED_FEATURES, stream_on(range(60)), tau) == tau

    def test_irregular_grid_misses_every_step(self, rng):
        t = np.cumsum(1.0 + rng.uniform(-0.45, 0.45, 40))
        assert self.check(MIXED_FEATURES[:5], stream_on(t), 10) == 39

    def test_skipped_timestamp_misses_then_refills(self):
        # the filling window, each of the tau windows the gap shifts or passes
        # through, then one refill of the regular window after it
        tau = 8
        t = [k for k in range(50) if k != 30]
        assert self.check(MIXED_FEATURES[::3], stream_on(t), tau) == tau + tau + 1

    def test_window_filling_and_first_slide(self):
        tau = 16
        assert self.check(MIXED_FEATURES, stream_on(range(tau + 2)), tau) == tau

    @pytest.mark.parametrize("stubborn", [[3], list(range(16))])
    def test_cholesky_fallback_matches_dense(self, monkeypatch, stubborn):
        """If an expert's window fails the first ridge, that expert climbs
        the dense reference's jitter ladder; its factors are not carried to
        the next miss, and the predictions still equal the dense reference's
        under the same failures."""
        real_cholesky = gp_core.sla.cholesky
        real_helper = gp_core._cholesky_with_jitter
        diagonals = [MIXED_FEATURES[j].sigma_f ** 2 + MIXED_FEATURES[j].sigma_n ** 2
                     for j in stubborn]
        escalated = []

        def is_stubborn(V, ridge=0.0):
            return any(math.isclose(V[0, 0], d * (1.0 + ridge), rel_tol=1e-12) for d in diagonals)

        def failing_cholesky(a, lower):
            # the first rung adds JITTER_INITIAL times the (constant) diagonal
            if is_stubborn(a, gp_core.JITTER_INITIAL):
                raise gp_core.sla.LinAlgError("forced")
            return real_cholesky(a, lower=lower)

        def recorded_helper(V):
            L, jitter = real_helper(V)
            if jitter != gp_core.JITTER_INITIAL:
                assert is_stubborn(V)
                escalated.append(jitter)
            return L, jitter

        stream = stream_on(range(20))
        monkeypatch.setattr(gp_core.sla, "cholesky", failing_cholesky)
        monkeypatch.setattr(gp_core, "_cholesky_with_jitter", recorded_helper)
        refactors = count_refactors(monkeypatch)
        models, steps, misses, _ = online_predictions(MIXED_FEATURES, stream, 6)
        # without escalation only the first miss would factor; the rest slide
        assert len(refactors) == misses
        assert escalated == [10.0 * gp_core.JITTER_INITIAL] * (misses * len(stubborn))
        assert_matches_dense(models, stream, 6, steps)

    def test_variance_clamps_counted_like_dense(self, monkeypatch):
        window = TimeSeries(np.arange(10.0), np.linspace(-1.0, 1.0, 10))
        state = ensemble_from_features(MIXED_FEATURES, tau=10)
        for t, y in zip(window.timestamps.tolist(), window.values.tolist()):
            gptdf_step(state, (t, y))
        # a prior variance below what the window explains drives every
        # expert's predictive variance negative, on both paths
        real_gains = fusion._window_gains

        def shifted_gains(state, t_star):
            gains, variances = real_gains(state, t_star)
            return gains, variances - 10.0

        monkeypatch.setattr(fusion, "_window_gains", shifted_gains)
        real = gp_core.eval_kernel
        monkeypatch.setattr(gp_core, "eval_kernel", lambda k, a, b: real(k, a, b) - 10.0)

        before = gp_core.diagnostics["variance_clamps"]
        fast = [fused_prediction(state, 10.0) for _ in range(2)]  # a miss, then a hit
        fast_clamps = gp_core.diagnostics["variance_clamps"] - before
        dense = [[gp_core.predict(m, window, 10.0) for m in dense_models(state)]
                 for _ in range(2)]
        dense_clamps = gp_core.diagnostics["variance_clamps"] - before - fast_clamps

        assert fast_clamps == dense_clamps == 2 * len(MIXED_FEATURES)
        for fused, ref in zip(fast, dense):
            for (pred, _), r in zip(fused.per_model, ref):
                assert pred.variance == r.variance == 0.0
                assert pred.mean == pytest.approx(r.mean, abs=1e-12)

    def test_long_irregular_stream_slides_one_factorization(self, monkeypatch, rng):
        # Only the first window is factored; every later window's factors
        # come from the previous step's by appending and dropping a point.
        n, tau = 1200, 50
        stream = stream_on(jittered(n, rng), seed=1)
        calls = count_refactors(monkeypatch)
        models, steps, misses, changes = online_predictions(MIXED_FEATURES, stream, tau)
        monkeypatch.undo()
        assert calls == [(16, 1, 1)]
        assert misses == changes == n - 1
        checked = set(range(0, n, 97)) | {1, 2, tau - 1, tau, tau + 1, tau + 2, n - 1}
        assert_matches_dense(models, stream, tau, steps, checked)

    def test_full_window_irregular_step_factors_nothing(self, monkeypatch, rng):
        tau = 12
        t = jittered(tau + 12, rng)
        state = ensemble_from_features(MIXED_FEATURES[:4], tau=tau)
        for k in range(tau + 2):
            gptdf_step(state, (t[k], math.sin(t[k])))
        calls = count_refactors(monkeypatch)
        for k in range(tau + 2, t.size):
            checked_step(state, t[k], math.sin(t[k]))
        assert calls == []

    def test_filling_window_factors_once(self, monkeypatch):
        tau = 16
        stream = stream_on(range(tau + 4))
        calls = count_refactors(monkeypatch)
        models, steps, misses, _ = online_predictions(MIXED_FEATURES, stream, tau)
        monkeypatch.undo()
        assert misses == tau
        assert calls == [(16, 1, 1)]
        assert_matches_dense(models, stream, tau, steps)

    def test_prediction_not_followed_by_its_step(self, monkeypatch, rng):
        # fused_prediction at t' records t' as the factors' last prediction;
        # the step at another t has seen no append since, so its window is
        # the one the factors describe, and nothing is refactored.
        tau = 10
        t = jittered(40, rng)
        state = ensemble_from_features(MIXED_FEATURES[::2], tau=tau)
        for k in range(25):
            gptdf_step(state, (t[k], math.cos(t[k])))
        calls = count_refactors(monkeypatch)
        t_probe = t[25] - 0.3
        assert_fused_matches_dense(dense_models(state), current_window(state), t_probe,
                                   fused_prediction(state, t_probe))
        for k in range(25, 40):
            checked_step(state, t[k], math.cos(t[k]))
        assert len(calls) == 0

    def test_window_of_one_point(self, monkeypatch, rng):
        stream = stream_on(jittered(30, rng))
        calls = count_refactors(monkeypatch)
        models, steps, misses, changes = online_predictions(MIXED_FEATURES, stream, 1)
        monkeypatch.undo()
        assert misses == changes == 29
        assert calls == [(16, 1, 1)]
        assert_matches_dense(models, stream, 1, steps)

    def test_nonpositive_new_diagonal_refactors(self, monkeypatch, rng):
        tau = 8
        t = jittered(tau + 6, rng)
        state = ensemble_from_features(MIXED_FEATURES[:3], tau=tau)
        for k in range(tau + 2):
            gptdf_step(state, (t[k], 0.1 * k))
        # |rows|^2 far above the prior variance leaves no positive d^2 for
        # the appended point
        state._factors.sq = 1e6 * state._factors.sq
        calls = count_refactors(monkeypatch)
        checked_step(state, t[tau + 2], 0.0)
        assert len(calls) == 1


def window_slots(factors):
    """The slots of the window's points, oldest first."""
    return (factors.first + np.arange(factors.size)) % factors.G.shape[1]


def assert_inverse_factors(state, tol):
    """The inverse factors G_j carried by the last miss satisfy
    G_j'G_j = (V_j + first ridge)^-1 on that miss's window, read from the
    occupied slots in window order, to `tol` times the largest entry of the
    dense inverse; every free slot's row and column is zero."""
    factors = state._factors
    slots = window_slots(factors)
    free = np.setdiff1d(np.arange(factors.G.shape[1]), slots)
    for model, G in zip(dense_models(state), factors.G):
        V = dense_noisy(model.kernel, factors.times[slots], model.noise_std,
                        gp_core.JITTER_INITIAL)
        P = np.linalg.inv(V)
        np.testing.assert_allclose(G[:, slots].T @ G[:, slots], P, rtol=0.0,
                                   atol=tol * np.abs(P).max())
        assert not G[free].any() and not G[:, free].any()


class TestInverseFactors:
    """The inverse factors a cache miss slides from one window to the next
    in their slot buffer: bordered by the appended point in a free slot,
    reflected to drop the oldest and free its slot."""

    def test_append_and_drop_keep_inverse_factors(self, monkeypatch, rng):
        tau = 12
        t = jittered(3 * tau, rng)
        state = ensemble_from_features(MIXED_FEATURES, tau=tau)
        calls = count_refactors(monkeypatch)
        for k in range(t.size):
            gptdf_step(state, (t[k], math.sin(t[k])))
            if k:
                # steps 1..tau-1 append only; later steps append and drop
                assert window_slots(state._factors).size == min(k, tau)
                assert_inverse_factors(state, 1e-10)
        assert calls == [(16, 1, 1)]

    @pytest.mark.parametrize("nonnegative_pivot", [True, False])
    def test_householder_sign_branches(self, monkeypatch, rng, nonnegative_pivot):
        tau = 10
        t = jittered(tau + 8, rng)
        state = ensemble_from_features(MIXED_FEATURES[::4], tau=tau)
        for k in range(tau + 2):
            gptdf_step(state, (t[k], math.cos(t[k])))
        # Negating the row of the oldest point's slot leaves G'G and the
        # gains as they are; it only flips the pivot a_p of the next drop, so
        # both signs of the reflection run on the same window.
        factors = state._factors
        p = factors.first
        flip = np.where((factors.G[:, p, p] >= 0.0) == nonnegative_pivot, 1.0, -1.0)
        factors.G[:, p] *= flip[:, None]
        assert ((factors.G[:, p, p] >= 0.0) == nonnegative_pivot).all()
        calls = count_refactors(monkeypatch)
        for k in range(tau + 2, t.size):
            checked_step(state, t[k], math.cos(t[k]))
            assert_inverse_factors(state, 1e-10)
        assert calls == []

    def test_full_window_slides_stay_in_one_stack(self, monkeypatch, rng):
        # Once the window is full, a slide writes into the same factor stack
        # and the one-point window is the only refactor.
        tau = 20  # the stack grows from 16 slots to tau + 1 as the window fills
        t = jittered(4 * tau + 1, rng)
        state = ensemble_from_features(MIXED_FEATURES[:4], tau=tau)
        calls = count_refactors(monkeypatch)
        for k in range(2 * tau + 1):
            gptdf_step(state, (t[k], math.sin(t[k])))
        stack = state._factors.G
        assert stack.shape == (4, tau + 1, tau + 1)
        for k in range(2 * tau + 1, t.size):
            checked_step(state, t[k], math.sin(t[k]))
            assert state._factors.G is stack
        assert_inverse_factors(state, 1e-10)
        assert calls == [(4, 1, 1)]

    def test_long_length_scales_match_dense(self, monkeypatch, rng):
        # Long length scales and little noise make the window covariance
        # ill-conditioned, so any error the slides accumulate shows here.
        n, tau = 3000, 100
        features = [TemporalFeature(1.0, sigma_l, 0.1) for sigma_l in (10.0, 20.0, 40.0)]
        stream = stream_on(jittered(n, rng), seed=2)
        calls = count_refactors(monkeypatch)
        models, steps, misses, changes = online_predictions(features, stream, tau)
        monkeypatch.undo()
        assert calls == [(3, 1, 1)]
        assert misses == changes == n - 1
        checked = set(range(0, n, 53)) | {1, tau - 1, tau, tau + 1, n - 1}
        assert_matches_dense(models, stream, tau, steps, checked)

    def test_nearly_singular_window_refactors(self, rng):
        # Without noise and at a length scale far beyond the window, each new
        # point is all but determined by the window: those steps factor
        # afresh, so the predictions keep the dense reference's own accuracy.
        tau, n = 50, 300
        t = jittered(n, rng)
        state = ensemble_from_features([TemporalFeature(1.0, 1000.0, 0.0)], tau=tau)
        for k in range(n):
            window = current_window(state) if state.window_times else None
            fused, _ = gptdf_step(state, (t[k], math.sin(t[k] / 40.0)))
            if window is not None and k % 7 == 0:
                ref = gp_core.predict(state.features[0].to_model(), window, t[k])
                assert fused.means[0] == pytest.approx(ref.mean, abs=1e-5)


# Length scales at the corners of the default fit bounds and between them.
SIGMA_L_BOUNDS = gp_core.FitConfig().sigma_l_bounds
SIGMA_N_FLOOR = gp_core.FitConfig().sigma_n_bounds[0]


@st.composite
def step_streams(draw):
    """A random online run: M experts, window length tau and forgetting
    alpha; and a stream on a time grid (regular, jittered, with gaps, or with
    near-duplicate times) whose length often passes tau, as a baseline's
    training prefix does before its reported steps."""
    m = draw(st.integers(1, 16))
    tau = draw(st.integers(1, 100))
    length_scales = st.one_of(st.sampled_from(SIGMA_L_BOUNDS), st.floats(0.3, 30.0))
    # output scales of a unit-variance (normalized) stream
    features = [TemporalFeature(draw(st.floats(0.3, 1.5)), draw(length_scales),
                                draw(st.floats(SIGMA_N_FLOOR, 1.0))) for _ in range(m)]
    grid = draw(st.sampled_from(["regular", "jittered", "gaps", "near-duplicates"]))
    prefix = draw(st.sampled_from([0, 0, tau // 2, tau, tau + 7]))
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    size = prefix + n
    if grid == "regular":
        # a dyadic spacing keeps every offset exact, so full windows hit the cache
        t = draw(st.integers(-5, 5)) + draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) * np.arange(size)
    elif grid == "jittered":
        t = jittered(size, rng)
    elif grid == "gaps":
        t = np.cumsum(np.where(rng.uniform(size=size) < 0.7, 1.0, rng.integers(2, 6, size)))
    else:
        t = np.cumsum(np.where(rng.uniform(size=size) < 0.3, 1e-7, 1.0))
    y = rng.normal(0.0, 1.0, size)
    return features, tau, draw(st.floats(0.05, 0.95)), TimeSeries(t, y)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


class TestDifferentialStep:
    """`gptdf_step` against a reference composed from the public checked
    functions: each step's fusion, weight update and forgetting equal the
    reference's bit for bit, and each expert equals the dense
    `gp_core.predict` within `expert_tolerance`."""

    @settings(max_examples=40, deadline=None)
    @given(run=step_streams())
    def test_step_equals_reference(self, run):
        features, tau, alpha, stream = run
        m = len(features)
        state = ensemble_from_features(features, tau=tau, alpha=alpha)
        weights = np.full(m, 1.0 / m)
        omega_hat = predictive_weights(weights, alpha)
        assert_bitwise(state.omega_hat, omega_hat)
        for t, y in zip(stream.timestamps.tolist(), stream.values.tolist()):
            window = current_window(state) if len(state.window_times) else None
            before = gp_core.diagnostics["variance_clamps"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fused, _ = gptdf_step(state, (t, y))
            clamps = gp_core.diagnostics["variance_clamps"] - before
            dense = [gp_core.predict(model, window, t) for model in dense_models(state)]
            assert gp_core.diagnostics["variance_clamps"] - before - clamps == clamps
            for feature, (pred, _), ref in zip(features, fused.per_model, dense):
                tol = expert_tolerance(feature, 0 if window is None else len(window))
                assert pred.mean == pytest.approx(ref.mean, abs=tol)
                assert pred.variance == pytest.approx(ref.variance, abs=tol)

            reference = fuse_predictions(fused.means, fused.variances, omega_hat)
            assert_bitwise(fused.omega_hat, omega_hat)
            assert_bitwise([fused.distribution.mean, fused.distribution.variance],
                           [reference.distribution.mean, reference.distribution.variance])
            with warnings.catch_warnings(record=True) as expected:
                warnings.simplefilter("always")
                if window is not None:
                    log_lik = gaussian_log_density(fused.means, fused.variances, y)
                    weights = update_weights(omega_hat, np.exp(log_lik - log_lik.max()))
            omega_hat = predictive_weights(weights, alpha)
            assert [w.category for w in caught if w.category is WeightCollapseWarning] == \
                [w.category for w in expected]
            assert_bitwise(state.weights, weights)
            assert_bitwise(state.omega_hat, omega_hat)
