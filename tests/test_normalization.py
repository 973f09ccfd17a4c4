import dataclasses

import numpy as np
import pytest

from neighbornorm.grouping import Partition, first_neighbor_partition
from neighbornorm.normalization import (
    NormalizerConfig,
    SourceStats,
    apply_normalizer,
    blend_stats,
    canonical_mode,
    group_channel_stats,
    normalize_groups,
    normalize_layer,
)
from neighbornorm.tensors import ChannelStats, channel_moments

from oracles import loop_channel_moments


def src_stats(c, mean=0.0, var=1.0, scale=1.0, shift=0.0, eps=1e-5):
    return SourceStats(
        stats=ChannelStats(np.full(c, mean, np.float32), np.full(c, var, np.float32)),
        affine_scale=np.full(c, scale, np.float32),
        affine_shift=np.full(c, shift, np.float32),
        eps=eps,
    )


def random_partition(rng, b):
    labels = rng.integers(0, max(1, b // 3), size=b)
    groups = [np.flatnonzero(labels == g) for g in np.unique(labels)]
    return Partition(groups=[g.astype(np.intp) for g in groups])


class TestConfig:
    def test_mode_aliases(self):
        assert canonical_mode("AlphaBN") == "alpha_bn"
        assert canonical_mode("FIND*") == "find_star"
        assert canonical_mode("sbn") == "sbn"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            NormalizerConfig(mode="batchnorm")

    def test_bounds(self):
        with pytest.raises(ValueError):
            NormalizerConfig(alpha=1.5)
        with pytest.raises(ValueError):
            NormalizerConfig(gamma_threshold=-0.1)
        with pytest.raises(ValueError):
            NormalizerConfig(cold_start_batches=0)

    def test_nan_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma_threshold"):
            NormalizerConfig(gamma_threshold=float("nan"))
        with pytest.raises(ValueError, match="gamma_threshold"):
            NormalizerConfig(gamma_threshold=float("inf"))

    def test_fractional_cold_start_rejected(self):
        with pytest.raises(ValueError, match="cold_start_batches"):
            NormalizerConfig(cold_start_batches=2.5)
        assert NormalizerConfig(cold_start_batches=2.0).cold_start_batches == 2

    def test_boolean_values_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            NormalizerConfig(alpha=True)
        with pytest.raises(ValueError, match="cold_start_batches"):
            NormalizerConfig(cold_start_batches=True)

    def test_non_numeric_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            NormalizerConfig(alpha="0.5")
        with pytest.raises(ValueError, match="alpha"):
            NormalizerConfig(alpha=float("nan"))


class TestSourceStatsValidation:
    def test_non_finite_affine_rejected(self):
        stats = ChannelStats(np.zeros(2, np.float32), np.ones(2, np.float32))
        for scale, shift in [([1.0, np.nan], [0.0, 0.0]), ([1.0, 1.0], [np.inf, 0.0])]:
            with pytest.raises(ValueError, match="finite"):
                SourceStats(stats=stats, affine_scale=np.array(scale), affine_shift=np.array(shift))

    def test_non_finite_eps_rejected(self):
        stats = ChannelStats(np.zeros(2, np.float32), np.ones(2, np.float32))
        for eps in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="eps"):
                SourceStats.with_identity_affine(stats, eps=eps)


class TestGroupChannelStats:
    def test_single_group_equals_full_batch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3, 2, 2)).astype(np.float32)
        part = Partition(groups=[np.arange(6, dtype=np.intp)])
        (stats,) = group_channel_stats(x, part)
        full = channel_moments(x)
        assert np.array_equal(stats.mean, full.mean)
        assert np.array_equal(stats.var, full.var)

    def test_singleton_constant_sample(self):
        x = np.full((3, 2, 1, 1), 5.0, np.float32)
        part = Partition(groups=[np.array([1], np.intp), np.array([0, 2], np.intp)])
        stats = group_channel_stats(x, part)
        np.testing.assert_array_equal(stats[0].mean, [5.0, 5.0])
        np.testing.assert_array_equal(stats[0].var, [0.0, 0.0])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3, 2, 2)).astype(np.float32)
        part = random_partition(rng, 8)
        for group, stats in zip(part.groups, group_channel_stats(x, part)):
            mean_ref, var_ref = loop_channel_moments(x, group.tolist())
            np.testing.assert_allclose(stats.mean, mean_ref, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(stats.var, var_ref, rtol=1e-6, atol=1e-9)

    def test_random_labelings_match_scalar_loop_oracle(self):
        # unsorted groups and singletons, as a Partition may hold them
        rng = np.random.default_rng(12)
        for _ in range(20):
            b = int(rng.integers(2, 14))
            x = rng.normal(loc=rng.normal(size=(b, 1, 1, 1)), size=(b, 3, 2, 3)).astype(np.float32)
            perm = rng.permutation(b)
            cuts = np.sort(rng.choice(np.arange(1, b), size=int(rng.integers(0, b)), replace=False))
            part = Partition(groups=[g.astype(np.intp) for g in np.split(perm, cuts)])
            for group, stats in zip(part.groups, group_channel_stats(x, part)):
                mean_ref, var_ref = loop_channel_moments(x, group.tolist())
                np.testing.assert_allclose(stats.mean, mean_ref, rtol=1e-6, atol=1e-7)
                np.testing.assert_allclose(stats.var, var_ref, rtol=1e-6, atol=1e-7)

    def test_partition_batch_mismatch(self):
        x = np.ones((4, 2, 2, 2), np.float32)
        with pytest.raises(ValueError):
            group_channel_stats(x, Partition(groups=[np.array([0, 1], np.intp)]))


class TestBlendStats:
    def test_alpha_one_returns_source(self):
        src = src_stats(3, mean=2.0, var=4.0)
        test = ChannelStats(np.full(3, -1.0, np.float32), np.full(3, 9.0, np.float32))
        out = blend_stats(test, src, 1.0)
        assert np.array_equal(out.mean, src.stats.mean)
        assert np.array_equal(out.var, src.stats.var)

    def test_alpha_zero_returns_test(self):
        src = src_stats(3, mean=2.0, var=4.0)
        test = ChannelStats(np.full(3, -1.0, np.float32), np.full(3, 9.0, np.float32))
        out = blend_stats(test, src, 0.0)
        assert np.array_equal(out.mean, test.mean)
        assert np.array_equal(out.var, test.var)

    def test_halfway_scalar_case(self):
        src = src_stats(1, mean=0.0, var=1.0)
        test = ChannelStats(np.array([2.0], np.float32), np.array([3.0], np.float32))
        out = blend_stats(test, src, 0.5)
        assert out.mean == pytest.approx([1.0])
        assert out.var == pytest.approx([2.0])

    def test_blended_variance_convex(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = int(rng.integers(1, 6))
            src = SourceStats(
                stats=ChannelStats(rng.normal(size=c).astype(np.float32), rng.uniform(0, 4, c).astype(np.float32)),
                affine_scale=np.ones(c, np.float32),
                affine_shift=np.zeros(c, np.float32),
            )
            test = ChannelStats(rng.normal(size=c).astype(np.float32), rng.uniform(0, 4, c).astype(np.float32))
            out = blend_stats(test, src, float(rng.uniform(0, 1)))
            lo = np.minimum(src.stats.var, test.var)
            hi = np.maximum(src.stats.var, test.var)
            assert np.all(out.var >= lo - 1e-6) and np.all(out.var <= hi + 1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            blend_stats(ChannelStats(np.zeros(2), np.ones(2)), src_stats(3), 0.5)


class TestNormalizeGroups:
    def test_centering_zeroes_cluster_means(self):
        # each sample constant per channel: values equal their cluster means
        x = np.zeros((4, 2, 1, 1), np.float32)
        x[:2, 0], x[:2, 1] = 3.0, -1.0
        x[2:, 0], x[2:, 1] = -2.0, 0.5
        part = Partition(groups=[np.array([0, 1], np.intp), np.array([2, 3], np.intp)])
        src = src_stats(2)
        blended = [blend_stats(s, src, 0.0) for s in group_channel_stats(x, part)]
        out = normalize_groups(x, part, blended, src)
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_scalar_hand_value(self):
        # 2 * (3 - 1)/sqrt(4) + 1 = 3, with eps driven to negligible
        x = np.full((1, 1, 1, 1), 3.0, np.float32)
        src = SourceStats(
            stats=ChannelStats(np.array([1.0], np.float32), np.array([4.0], np.float32)),
            affine_scale=np.array([2.0], np.float32),
            affine_shift=np.array([1.0], np.float32),
            eps=1e-12,
        )
        part = Partition(groups=[np.array([0], np.intp)])
        out = normalize_groups(x, part, [src.stats], src)
        assert out[0, 0, 0, 0] == pytest.approx(3.0, abs=1e-9)

    def test_partition_must_cover_batch_once(self):
        x = np.ones((3, 2, 2, 2), np.float32)
        src = src_stats(2)
        for groups in ([[0, 1]], [[0, 1], [1, 2]]):
            part = Partition(groups=[np.array(g, np.intp) for g in groups])
            with pytest.raises(ValueError, match="covers"):
                normalize_groups(x, part, [src.stats] * part.r, src)

    def test_moments_after_source_free_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = int(rng.integers(4, 16))
            x = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2), size=(b, 3, 4, 4)).astype(np.float32)
            part = random_partition(rng, b)
            src = src_stats(3)
            blended = [blend_stats(s, src, 0.0) for s in group_channel_stats(x, part)]
            out = normalize_groups(x, part, blended, src)
            for g in part.groups:
                if len(g) * 16 < 16:
                    continue
                stats = channel_moments(out, g)
                assert np.all(np.abs(stats.mean) <= 1e-4)
                assert np.all(np.abs(stats.var - 1.0) <= 1e-3)


class TestNormalizeLayer:
    def test_single_cluster_batch_equals_alpha_bn_bitwise(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        x = np.repeat(sample, 5, axis=0)  # identical rows cluster into one group
        assert first_neighbor_partition(x).r == 1
        src = src_stats(3, mean=0.3, var=2.0, scale=1.5, shift=-0.2)
        cfg = NormalizerConfig(mode="find", alpha=0.8)
        out_find = normalize_layer(x, src, cfg)
        out_alpha = normalize_layer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.8))
        assert np.array_equal(out_find, out_alpha)

    def test_forced_single_group_matches_alpha_bn(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3, 4, 4)).astype(np.float32)
        src = src_stats(3, mean=0.1, var=1.5)
        part = Partition(groups=[np.arange(8, dtype=np.intp)])
        blended = [blend_stats(s, src, 0.8) for s in group_channel_stats(x, part)]
        forced = normalize_groups(x, part, blended, src)
        alpha = normalize_layer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.8))
        np.testing.assert_allclose(forced, alpha, rtol=1e-6, atol=1e-7)

    def test_tbn_constant_batch_outputs_shift(self):
        x = np.full((4, 2, 3, 3), 7.5, np.float32)
        src = src_stats(2, shift=0.25, scale=3.0)
        out = normalize_layer(x, src, NormalizerConfig(mode="tbn"))
        np.testing.assert_array_equal(out, np.full_like(x, 0.25))

    def test_sbn_ignores_batch_content(self):
        rng = np.random.default_rng(6)
        src = src_stats(2, mean=0.5, var=2.0)
        cfg = NormalizerConfig(mode="sbn")
        a = rng.normal(size=(4, 2, 2, 2)).astype(np.float32)
        b = rng.normal(size=(4, 2, 2, 2)).astype(np.float32)
        b[1, 1, 0, 1] = a[1, 1, 0, 1]
        out_a = normalize_layer(a, src, cfg)
        out_b = normalize_layer(b, src, cfg)
        assert out_a[1, 1, 0, 1] == out_b[1, 1, 0, 1]

    def test_alpha_bn_limits_match_tbn_and_sbn(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4, 3, 3)).astype(np.float32)
        src = src_stats(4, mean=0.2, var=1.7)
        tbn = normalize_layer(x, src, NormalizerConfig(mode="tbn"))
        sbn = normalize_layer(x, src, NormalizerConfig(mode="sbn"))
        assert np.array_equal(normalize_layer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.0)), tbn)
        assert np.array_equal(normalize_layer(x, src, NormalizerConfig(mode="alpha_bn", alpha=1.0)), sbn)

    def test_find_alpha_one_equals_sbn_any_partition(self):
        rng = np.random.default_rng(8)
        x = rng.normal(loc=rng.normal(size=(10, 1, 1, 1)), size=(10, 4, 4, 4)).astype(np.float32)
        src = src_stats(4, mean=-0.4, var=0.9)
        find = normalize_layer(x, src, NormalizerConfig(mode="find", alpha=1.0))
        sbn = normalize_layer(x, src, NormalizerConfig(mode="sbn", alpha=1.0))
        assert np.array_equal(find, sbn)

    def test_partition_disabled_falls_back_to_alpha_bn(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 2, 4, 4)).astype(np.float32)
        src = src_stats(2)
        off = normalize_layer(x, src, NormalizerConfig(mode="find_star", alpha=0.8), partition_enabled=False)
        alpha = normalize_layer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.8))
        assert np.array_equal(off, alpha)

    def test_input_not_mutated_and_dims_preserved(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 3, 2, 6)).astype(np.float32)
        before = x.copy()
        src = src_stats(3)
        for mode in ("sbn", "tbn", "alpha_bn", "find", "find_star"):
            out = normalize_layer(x, src, NormalizerConfig(mode=mode))
            assert out.shape == x.shape
            assert np.array_equal(x, before)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalize_layer(np.ones((2, 3, 2, 2), np.float32), src_stats(4), NormalizerConfig(mode="sbn"))

    def test_cluster_count_trace(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(12, 3, 2, 2)).astype(np.float32)
        src = src_stats(3)
        _, trace = apply_normalizer(x, src, NormalizerConfig(mode="find"))
        assert trace.cluster_count == first_neighbor_partition(x).r
        _, trace = apply_normalizer(x, src, NormalizerConfig(mode="sbn"))
        assert trace.cluster_count is None
        full = channel_moments(x)
        assert np.array_equal(trace.batch_stats.mean, full.mean)


class TestSlotTrace:
    MODES = ("sbn", "tbn", "alpha_bn", "find", "find_star")

    @pytest.mark.parametrize("b", [1, 2, 64])
    @pytest.mark.parametrize("partition_enabled", [True, False])
    def test_batch_stats_bitwise_equal_channel_moments(self, b, partition_enabled):
        rng = np.random.default_rng(30 + b)
        x = (rng.normal(size=(b, 4, 5, 3)) * 3.0 + 1.5).astype(np.float32)
        full = channel_moments(x)
        for mode in self.MODES:
            _, trace = apply_normalizer(x, src_stats(4), NormalizerConfig(mode=mode), partition_enabled=partition_enabled)
            assert np.array_equal(trace.batch_stats.mean, full.mean)
            assert np.array_equal(trace.batch_stats.var, full.var)

    def test_batch_stats_merged_once(self):
        x = np.random.default_rng(31).normal(size=(6, 3, 4, 4)).astype(np.float32)
        _, trace = apply_normalizer(x, src_stats(3), NormalizerConfig(mode="find"))
        assert trace.batch_stats is trace.batch_stats

    def test_trace_holds_only_per_sample_arrays(self):
        b, c = 7, 3
        x = np.random.default_rng(32).normal(size=(b, c, 6, 6)).astype(np.float32)
        for mode in self.MODES:
            _, trace = apply_normalizer(x, src_stats(c), NormalizerConfig(mode=mode))
            arrays = [getattr(trace, f.name) for f in dataclasses.fields(trace)]
            arrays = [a for a in arrays if isinstance(a, np.ndarray)]
            assert len(arrays) == 2 and all(a.shape == (b, c) for a in arrays)
            assert trace.length == 36

    def test_traces_compare_without_raising(self):
        rng = np.random.default_rng(33)
        x, y = (rng.normal(size=(5, 3, 2, 2)).astype(np.float32) for _ in range(2))
        _, tx = apply_normalizer(x, src_stats(3), NormalizerConfig(mode="tbn"))
        _, ty = apply_normalizer(y, src_stats(3), NormalizerConfig(mode="tbn"))
        assert tx == ty  # the moment arrays are left out of ==
        _, tz = apply_normalizer(x, src_stats(3), NormalizerConfig(mode="find"))
        assert tz.cluster_count is not None and tx != tz
