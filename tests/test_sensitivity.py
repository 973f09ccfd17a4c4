import math

import numpy as np
import pytest

from neighbornorm.normalization import NormalizerConfig
from neighbornorm.sensitivity import (
    CalibrationState,
    gaussian_kl_per_channel,
    sensitivity_score,
)
from neighbornorm.tensors import ChannelStats


def stats(mean, var):
    mean = np.atleast_1d(np.asarray(mean, np.float32))
    var = np.atleast_1d(np.asarray(var, np.float32))
    return ChannelStats(mean, var)


def kl_vector(mean, std):
    """Two-channel vector with exact population mean and std."""
    return np.array([mean - std, mean + std])


class TestGaussianKL:
    def test_identical_stats_zero(self):
        s = stats([0.5, -1.0, 2.0], [1.0, 0.25, 3.0])
        np.testing.assert_array_equal(gaussian_kl_per_channel(s, s), [0.0, 0.0, 0.0])

    def test_unit_mean_shift(self):
        # (1 + 1)/2 + ln(1) - 1/2 = 0.5
        kl = gaussian_kl_per_channel(stats([1.0], [1.0]), stats([0.0], [1.0]))
        assert kl[0] == pytest.approx(0.5, abs=1e-9)

    def test_doubled_std(self):
        # (4 + 0)/2 + ln(1/2) - 1/2 = 2 - ln 2 - 0.5
        kl = gaussian_kl_per_channel(stats([0.7], [4.0]), stats([0.7], [1.0]))
        assert kl[0] == pytest.approx(2.0 - math.log(2.0) - 0.5, abs=1e-9)

    def test_zero_variance_is_floored_finite(self):
        kl = gaussian_kl_per_channel(stats([0.0], [0.0]), stats([1.0], [0.0]))
        assert np.isfinite(kl).all()

    def test_nonnegative_over_random_stats(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(1, 8))
            t = stats(rng.normal(size=c), rng.uniform(0, 5, c))
            s = stats(rng.normal(size=c), rng.uniform(0, 5, c))
            assert np.all(gaussian_kl_per_channel(t, s) >= 0.0)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl_per_channel(stats([0.0], [1.0]), stats([0.0, 1.0], [1.0, 1.0]))


class TestSensitivityScore:
    def test_uniform_channels_give_three_halves(self):
        # std 0: sigmoid(0) = 1/2
        for k in (0.3, 1.0, 2.5):
            assert sensitivity_score(np.full(5, k)) == pytest.approx(1.5 * k, abs=1e-12)

    def test_zero_vector(self):
        assert sensitivity_score(np.zeros(4)) == 0.0

    def test_unit_mean_unit_std(self):
        kl = kl_vector(1.0, 1.0)
        assert kl.mean() == pytest.approx(1.0) and kl.std() == pytest.approx(1.0)
        score = sensitivity_score(kl)
        assert type(score) is float
        assert score == pytest.approx(1.0 + 1.0 / (1.0 + math.exp(-1.0)), abs=1e-9)

    def test_score_ratio_band(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            kl = rng.uniform(0.01, 4.0, size=int(rng.integers(1, 10)))
            assert 1.5 - 1e-12 <= sensitivity_score(kl) / kl.mean() < 2.0

    def test_monotone_in_mean_and_std(self):
        scores = [sensitivity_score(kl_vector(m, 0.5)) for m in (1.0, 2.0, 3.0)]
        assert scores[0] < scores[1] < scores[2]
        scores = [sensitivity_score(kl_vector(2.0, s)) for s in (0.0, 0.5, 1.0, 1.5)]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_score(np.zeros(0))


class TestCalibration:
    def test_stock_defaults(self):
        cfg = NormalizerConfig()
        assert cfg.cold_start_batches == 10
        assert cfg.gamma_threshold == 0.1
        assert cfg.alpha == 0.8

    def test_single_accumulation(self):
        state = CalibrationState(num_layers=3, cold_start_batches=2)
        state.accumulate([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(state.score_sums, [1.0, 2.0, 3.0])
        assert state.batches_seen == 1

    def test_symmetric_accumulation_averages(self):
        state = CalibrationState(num_layers=3, cold_start_batches=2)
        state.accumulate([1.0, 2.0, 3.0])
        state.accumulate([3.0, 2.0, 1.0])
        state.finalize(0.1)
        np.testing.assert_array_equal(state.raw_averages, [2.0, 2.0, 2.0])

    def test_min_max_normalization_and_threshold(self):
        state = CalibrationState(num_layers=3, cold_start_batches=1)
        state.accumulate([1.0, 2.0, 3.0])
        state.finalize(0.1)
        np.testing.assert_allclose(state.normalized_scores, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(state.enabled, [False, True, True])
        assert not state.partition_enabled(0)
        assert state.partition_enabled(1) and state.partition_enabled(2)

    def test_gamma_zero_enables_everything(self):
        state = CalibrationState(num_layers=4, cold_start_batches=1)
        state.accumulate([0.5, 0.1, 0.9, 0.3])
        state.finalize(0.0)
        assert state.enabled.all()

    def test_boundary_inclusive(self):
        state = CalibrationState(num_layers=3, cold_start_batches=1)
        state.accumulate([1.0, 2.0, 3.0])
        state.finalize(0.5)
        np.testing.assert_array_equal(state.enabled, [False, True, True])

    def test_degenerate_equal_averages_enable_all(self):
        state = CalibrationState(num_layers=3, cold_start_batches=1)
        state.accumulate([2.0, 2.0, 2.0])
        state.finalize(0.9)
        np.testing.assert_allclose(state.normalized_scores, [1.0, 1.0, 1.0])
        assert state.enabled.all()

    def test_pre_finalization_gating_is_all_on(self):
        state = CalibrationState(num_layers=2, cold_start_batches=3)
        assert state.partition_enabled(0) and state.partition_enabled(1)

    def test_accumulate_after_finalize_rejected(self):
        state = CalibrationState(num_layers=2, cold_start_batches=1)
        state.accumulate([1.0, 2.0])
        state.finalize(0.1)
        with pytest.raises(RuntimeError):
            state.accumulate([1.0, 2.0])

    def test_finalize_requires_full_cold_start(self):
        state = CalibrationState(num_layers=2, cold_start_batches=3)
        state.accumulate([1.0, 2.0])
        with pytest.raises(RuntimeError):
            state.finalize(0.1)

    def test_records_export(self):
        state = CalibrationState(num_layers=2, cold_start_batches=1)
        state.accumulate([1.0, 3.0])
        state.finalize(0.1)
        recs = state.as_records()
        assert recs == [
            {"layer": 0, "raw_average": 1.0, "normalized_score": 0.0, "partition_enabled": False},
            {"layer": 1, "raw_average": 3.0, "normalized_score": 1.0, "partition_enabled": True},
        ]

    def test_determinism(self):
        def run():
            state = CalibrationState(num_layers=3, cold_start_batches=4)
            rng = np.random.default_rng(99)
            for _ in range(4):
                state.accumulate(rng.uniform(0, 2, 3))
            state.finalize(0.1)
            return state.enabled.tolist(), state.normalized_scores.tolist()

        assert run() == run()
