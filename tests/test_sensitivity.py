import math

import numpy as np
import pytest

from neighbornorm.normalization import NormalizerConfig
from neighbornorm.sensitivity import (
    gaussian_kl_per_channel,
    layer_gate,
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
        recs = layer_gate([[1.0, 2.0, 3.0]], 0.1)
        assert [r["raw_average"] for r in recs] == [1.0, 2.0, 3.0]

    def test_symmetric_accumulation_averages(self):
        recs = layer_gate([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]], 0.1)
        assert [r["raw_average"] for r in recs] == [2.0, 2.0, 2.0]

    def test_min_max_normalization_and_threshold(self):
        recs = layer_gate([[1.0, 2.0, 3.0]], 0.1)
        np.testing.assert_allclose([r["normalized_score"] for r in recs], [0.0, 0.5, 1.0])
        assert [r["partition_enabled"] for r in recs] == [False, True, True]

    def test_gamma_zero_enables_everything(self):
        recs = layer_gate([[0.5, 0.1, 0.9, 0.3]], 0.0)
        assert all(r["partition_enabled"] for r in recs)

    def test_boundary_inclusive(self):
        recs = layer_gate([[1.0, 2.0, 3.0]], 0.5)
        assert [r["partition_enabled"] for r in recs] == [False, True, True]

    def test_degenerate_equal_averages_enable_all(self):
        recs = layer_gate([[2.0, 2.0, 2.0]], 0.9)
        np.testing.assert_allclose([r["normalized_score"] for r in recs], [1.0, 1.0, 1.0])
        assert all(r["partition_enabled"] for r in recs)

    def test_records_export(self):
        recs = layer_gate([[1.0, 3.0]], 0.1)
        assert recs == [
            {"layer": 0, "raw_average": 1.0, "normalized_score": 0.0, "partition_enabled": False},
            {"layer": 1, "raw_average": 3.0, "normalized_score": 1.0, "partition_enabled": True},
        ]
        assert all(type(v) in (int, float, bool) for r in recs for v in r.values())

    def test_sums_in_batch_order(self):
        # One layer: each 1.0 is lost against 1e16 in a running sum, but a
        # pairwise reduction (numpy's for a single column) keeps some.
        recs = layer_gate([[1e16]] + [[1.0]] * 15, 0.1)
        assert recs[0]["raw_average"] == 1e16 / 16

    @pytest.mark.parametrize("scores", [[], [[]], [1.0, 2.0], [[[1.0]]]])
    def test_non_matrix_scores_rejected(self, scores):
        with pytest.raises(ValueError):
            layer_gate(scores, 0.1)

    def test_determinism(self):
        def run():
            scores = np.random.default_rng(99).uniform(0, 2, size=(4, 3))
            return layer_gate(scores, 0.1)

        assert run() == run()
