import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighbornorm.grouping import first_neighbor_labels, first_neighbor_partition
from neighbornorm.normalization import NormalizerConfig, SourceStats, apply_normalizer, canonical_mode
from neighbornorm.stream import StreamScenario, make_domains, sample_batch
from neighbornorm.tensors import ChannelStats

from oracles import loop_channel_moments
from support import batch_stats, instance_means


def src_stats(c, mean=0.0, var=1.0, scale=1.0, shift=0.0, eps=1e-5):
    return SourceStats(
        stats=ChannelStats(np.full(c, mean, np.float32), np.full(c, var, np.float32)),
        affine_scale=np.full(c, scale, np.float32),
        affine_shift=np.full(c, shift, np.float32),
        eps=eps,
    )


def find_alpha0(x, src):
    """find at alpha=0, which normalizes each group with its own statistics, and the groups it formed."""
    out, trace = apply_normalizer(x, src, NormalizerConfig(mode="find", alpha=0.0))
    groups = first_neighbor_partition(x).groups
    assert trace.cluster_count == len(groups)
    return out, groups


def oracle_normalized(x, group, eps=1e-5):
    """x[group] normalized with the scalar-loop moments of its samples, in float64."""
    mean, var = loop_channel_moments(x, group.tolist())
    return (x[group].astype(np.float64) - mean[:, None, None]) / np.sqrt(var + eps)[:, None, None]


def two_point_batch(mean, var):
    """A (1, C, 1, 2) batch holding mean[c] -+ sqrt(var[c]) in channel c: its channel mean and variance."""
    mean, d = np.asarray(mean, np.float32), np.sqrt(np.asarray(var, np.float32))
    return np.stack([mean - d, mean + d], axis=-1)[None, :, None, :]


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

    def test_affine_length_rejected(self):
        stats = ChannelStats(np.zeros(2, np.float32), np.ones(2, np.float32))
        for scale, shift in [([1.0], [0.0, 0.0]), ([1.0, 1.0], [0.0, 0.0, 0.0])]:
            with pytest.raises(ValueError, match="affine parameter length must equal channel count"):
                SourceStats(stats=stats, affine_scale=np.array(scale), affine_shift=np.array(shift))

    def test_non_finite_eps_rejected(self):
        stats = ChannelStats(np.zeros(2, np.float32), np.ones(2, np.float32))
        for eps in (float("nan"), float("inf"), 0.0, 1e-50):  # 1e-50 is 0 in float32
            with pytest.raises(ValueError, match="eps"):
                SourceStats.with_identity_affine(stats, eps=eps)


class TestGroupChannelStats:
    """find normalizes each group with the channel statistics of its own samples."""

    def test_single_group_equals_full_batch(self):
        # at alpha=0 a group comes out as tbn makes it when it is the whole batch
        rng = np.random.default_rng(0)
        x = rng.normal(loc=rng.normal(size=(12, 1, 1, 1)), size=(12, 3, 2, 2)).astype(np.float32)
        src = src_stats(3)
        out, groups = find_alpha0(x, src)
        assert len(groups) > 1
        for g in groups:
            assert np.array_equal(out[g], apply_normalizer(x[g], src, NormalizerConfig(mode="tbn"))[0])

    def test_singleton_constant_sample(self):
        x = np.full((1, 2, 1, 1), 5.0, np.float32)
        out, trace = apply_normalizer(x, src_stats(2), NormalizerConfig(mode="find", alpha=0.0))
        assert trace.cluster_count == 1
        np.testing.assert_array_equal(trace.batch_stats.mean, [5.0, 5.0])
        np.testing.assert_array_equal(trace.batch_stats.var, [0.0, 0.0])
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3, 2, 2)).astype(np.float32)
        out, groups = find_alpha0(x, src_stats(3))
        for g in groups:
            np.testing.assert_allclose(out[g], oracle_normalized(x, g), rtol=1e-6, atol=1e-7)

    def test_random_labelings_match_scalar_loop_oracle(self):
        # interleaved groups, and the singleton of a one-sample batch
        rng = np.random.default_rng(12)
        for _ in range(20):
            b = int(rng.integers(1, 14))
            x = rng.normal(loc=rng.normal(size=(b, 1, 1, 1)), size=(b, 3, 2, 3)).astype(np.float32)
            out, groups = find_alpha0(x, src_stats(3))
            for g in groups:
                np.testing.assert_allclose(out[g], oracle_normalized(x, g), rtol=1e-6, atol=1e-7)


class TestBlendStats:
    """alpha_bn blends alpha parts source statistics with (1 - alpha) parts batch
    statistics, variances directly; `two_point_batch` fixes the batch's."""

    def test_alpha_one_returns_source(self):
        src = src_stats(3, mean=2.0, var=4.0, eps=1e-12)
        x = two_point_batch([-1.0] * 3, [9.0] * 3)
        out, _ = apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=1.0))
        assert np.array_equal(out, apply_normalizer(x, src, NormalizerConfig(mode="sbn"))[0])
        np.testing.assert_allclose(out, (x - 2.0) / 2.0)

    def test_alpha_zero_returns_test(self):
        src = src_stats(3, mean=2.0, var=4.0, eps=1e-12)
        x = two_point_batch([-1.0] * 3, [9.0] * 3)
        out, _ = apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.0))
        assert np.array_equal(out, apply_normalizer(x, src, NormalizerConfig(mode="tbn"))[0])
        np.testing.assert_allclose(out, (x + 1.0) / 3.0)

    def test_halfway_scalar_case(self):
        # batch mean 2, var 4 (values 0 and 4); source mean 0, var 14: blended mean 1, var 9
        src = src_stats(1, mean=0.0, var=14.0, eps=1e-12)
        out, _ = apply_normalizer(two_point_batch([2.0], [4.0]), src, NormalizerConfig(mode="alpha_bn", alpha=0.5))
        assert out.ravel() == pytest.approx([-1.0 / 3.0, 1.0])

    def test_blended_variance_convex(self):
        # the blended variance lies between the source and batch variances, so
        # alpha_bn's spread of each channel's two values lies between sbn's and tbn's
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = int(rng.integers(1, 6))
            src = SourceStats(
                stats=ChannelStats(rng.normal(size=c).astype(np.float32), rng.uniform(0, 4, c).astype(np.float32)),
                affine_scale=np.ones(c, np.float32),
                affine_shift=np.zeros(c, np.float32),
            )
            x = two_point_batch(rng.normal(size=c), rng.uniform(0, 4, c))
            alpha = float(rng.uniform(0, 1))
            spread = {
                mode: np.ptp(apply_normalizer(x, src, NormalizerConfig(mode=mode, alpha=alpha))[0], axis=-1).ravel()
                for mode in ("sbn", "tbn", "alpha_bn")
            }
            lo = np.minimum(spread["sbn"], spread["tbn"])
            hi = np.maximum(spread["sbn"], spread["tbn"])
            assert np.all(spread["alpha_bn"] >= lo * (1 - 1e-6)) and np.all(spread["alpha_bn"] <= hi * (1 + 1e-6))


class TestNormalizeGroups:
    def test_centering_zeroes_cluster_means(self):
        # each sample constant per channel: values equal their cluster means
        x = np.zeros((4, 2, 1, 1), np.float32)
        x[:2, 0], x[:2, 1] = 3.0, -1.0
        x[2:, 0], x[2:, 1] = -2.0, 0.5
        out, groups = find_alpha0(x, src_stats(2))
        assert [g.tolist() for g in groups] == [[0, 1], [2, 3]]
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_scalar_hand_value(self):
        # 2 * (3 - 1)/sqrt(4) + 1 = 3, with eps driven to negligible; at alpha=1 find takes the source statistics
        x = np.full((1, 1, 1, 1), 3.0, np.float32)
        src = SourceStats(
            stats=ChannelStats(np.array([1.0], np.float32), np.array([4.0], np.float32)),
            affine_scale=np.array([2.0], np.float32),
            affine_shift=np.array([1.0], np.float32),
            eps=1e-12,
        )
        out, trace = apply_normalizer(x, src, NormalizerConfig(mode="find", alpha=1.0))
        assert trace.cluster_count == 1
        assert out[0, 0, 0, 0] == pytest.approx(3.0, abs=1e-9)

    def test_moments_after_source_free_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = int(rng.integers(4, 16))
            x = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2), size=(b, 3, 4, 4)).astype(np.float32)
            out, groups = find_alpha0(x, src_stats(3))
            for g in groups:
                stats = batch_stats(out[g])
                assert np.all(np.abs(stats.mean) <= 1e-4)
                assert np.all(np.abs(stats.var - 1.0) <= 1e-3)


class TestNormalizeLayer:
    def test_single_cluster_batch_equals_alpha_bn_bitwise(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        x = np.repeat(sample, 5, axis=0)  # identical rows cluster into one group
        assert len(first_neighbor_partition(x).groups) == 1
        src = src_stats(3, mean=0.3, var=2.0, scale=1.5, shift=-0.2)
        out_find, _ = apply_normalizer(x, src, NormalizerConfig(mode="find", alpha=0.8))
        out_alpha, _ = apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.8))
        assert np.array_equal(out_find, out_alpha)

    def test_forced_single_group_matches_alpha_bn(self):
        # distinct samples forming one group: the instance means of samples 1..7
        # sit one small step from sample 0's, each along its own orthogonal
        # direction, so every one of them has sample 0 as its first neighbor
        rng = np.random.default_rng(5)
        steps = np.linalg.qr(np.column_stack([np.ones(8), rng.normal(size=(8, 7))]))[0][:, 1:].T
        means = 2.0 + 0.1 * np.concatenate([np.zeros((1, 8)), steps])
        noise = rng.normal(size=(8, 8, 4, 4))
        x = (means[:, :, None, None] + noise - noise.mean(axis=(2, 3), keepdims=True)).astype(np.float32)
        src = src_stats(8, mean=0.1, var=1.5)
        find, trace = apply_normalizer(x, src, NormalizerConfig(mode="find", alpha=0.8))
        assert trace.cluster_count == 1
        assert np.array_equal(find, apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.8))[0])

    def test_tbn_constant_batch_outputs_shift(self):
        x = np.full((4, 2, 3, 3), 7.5, np.float32)
        src = src_stats(2, shift=0.25, scale=3.0)
        out, _ = apply_normalizer(x, src, NormalizerConfig(mode="tbn"))
        np.testing.assert_array_equal(out, np.full_like(x, 0.25))

    def test_sbn_ignores_batch_content(self):
        rng = np.random.default_rng(6)
        src = src_stats(2, mean=0.5, var=2.0)
        cfg = NormalizerConfig(mode="sbn")
        a = rng.normal(size=(4, 2, 2, 2)).astype(np.float32)
        b = rng.normal(size=(4, 2, 2, 2)).astype(np.float32)
        b[1, 1, 0, 1] = a[1, 1, 0, 1]
        out_a, _ = apply_normalizer(a, src, cfg)
        out_b, _ = apply_normalizer(b, src, cfg)
        assert out_a[1, 1, 0, 1] == out_b[1, 1, 0, 1]

    def test_alpha_bn_limits_match_tbn_and_sbn(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4, 3, 3)).astype(np.float32)
        src = src_stats(4, mean=0.2, var=1.7)
        tbn, _ = apply_normalizer(x, src, NormalizerConfig(mode="tbn"))
        sbn, _ = apply_normalizer(x, src, NormalizerConfig(mode="sbn"))
        assert np.array_equal(apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.0))[0], tbn)
        assert np.array_equal(apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=1.0))[0], sbn)

    def test_find_alpha_one_equals_sbn_any_partition(self):
        rng = np.random.default_rng(8)
        x = rng.normal(loc=rng.normal(size=(10, 1, 1, 1)), size=(10, 4, 4, 4)).astype(np.float32)
        src = src_stats(4, mean=-0.4, var=0.9)
        find, _ = apply_normalizer(x, src, NormalizerConfig(mode="find", alpha=1.0))
        sbn, _ = apply_normalizer(x, src, NormalizerConfig(mode="sbn", alpha=1.0))
        assert np.array_equal(find, sbn)

    def test_partition_disabled_falls_back_to_alpha_bn(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 2, 4, 4)).astype(np.float32)
        src = src_stats(2)
        off, _ = apply_normalizer(x, src, NormalizerConfig(mode="find_star", alpha=0.8), partition_enabled=False)
        alpha, _ = apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=0.8))
        assert np.array_equal(off, alpha)

    def test_input_not_mutated_and_dims_preserved(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 3, 2, 6)).astype(np.float32)
        before = x.copy()
        src = src_stats(3)
        for mode in ("sbn", "tbn", "alpha_bn", "find", "find_star"):
            out, _ = apply_normalizer(x, src, NormalizerConfig(mode=mode))
            assert out.shape == x.shape
            assert np.array_equal(x, before)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_normalizer(np.ones((2, 3, 2, 2), np.float32), src_stats(4), NormalizerConfig(mode="sbn"))

    def test_cluster_count_trace(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(12, 3, 2, 2)).astype(np.float32)
        src = src_stats(3)
        _, trace = apply_normalizer(x, src, NormalizerConfig(mode="find"))
        assert trace.cluster_count == len(first_neighbor_partition(x).groups)
        _, trace = apply_normalizer(x, src, NormalizerConfig(mode="tbn"))
        assert trace.cluster_count is None
        full = batch_stats(x)
        assert np.array_equal(trace.batch_stats.mean, full.mean)

    def test_group_locality_appended_unlinked_samples(self):
        # find normalizes a group by its own members only: samples appended along -u that
        # link to no sample along +u leave those samples' output bitwise unchanged
        rng = np.random.default_rng(41)
        src, cfg = src_stats(8, mean=0.2, var=1.5), NormalizerConfig(mode="find")

        def cluster(u, n):
            means = rng.uniform(1.0, 2.0, size=(n, 1)) * u + rng.normal(scale=0.1, size=(n, 8))
            return (means[:, :, None, None] + rng.normal(scale=0.3, size=(n, 8, 4, 4))).astype(np.float32)

        for _ in range(40):
            u = rng.normal(size=8)
            u /= np.linalg.norm(u)
            n_old, n_new = (int(n) for n in rng.integers(2, 40, size=2))
            old = cluster(u, n_old)
            both = np.concatenate([old, cluster(-u, n_new)])
            labels, _ = first_neighbor_labels(instance_means(both))
            assert not set(labels[:n_old]) & set(labels[n_old:])  # no group, so no link, crosses
            out_old, _ = apply_normalizer(old, src, cfg)
            out_both, _ = apply_normalizer(both, src, cfg)
            assert np.array_equal(out_both[:n_old], out_old)


def random_src(rng, c):
    """Source statistics with random moments and a non-identity affine."""
    stats = ChannelStats(rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))
    return SourceStats(stats=stats, affine_scale=rng.uniform(0.5, 2.0, size=c), affine_shift=rng.normal(size=c))


@st.composite
def maps_and_sources(draw):
    """A float32 (B, C, H, W) map, B 1-300, of per-sample offset and scale drawn over several decades, and source
    statistics with random moments and affine terms."""
    b, c, h, w = draw(st.integers(1, 300)), draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loc = rng.normal(scale=10.0 ** draw(st.integers(-2, 3)), size=(b, c, 1, 1))
    x = loc + rng.normal(size=(b, c, h, w)) * 10.0 ** rng.integers(-3, 3, (b, 1, 1, 1))
    return x.astype(np.float32), random_src(rng, c)


class TestGeneratedDegeneracies:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(maps_and_sources())
    def test_alpha_bn_at_0_is_tbn_and_at_1_is_sbn_bitwise(self, case):
        x, src = case
        for alpha, mode in ((0.0, "tbn"), (1.0, "sbn")):
            blended, _ = apply_normalizer(x, src, NormalizerConfig(mode="alpha_bn", alpha=alpha))
            reference, _ = apply_normalizer(x, src, NormalizerConfig(mode=mode))
            assert blended.tobytes() == reference.tobytes(), (alpha, x.shape)


ONE_SAMPLE_CONFIGS = [("tbn", 0.8, True)] + [("alpha_bn", a, True) for a in (0.0, 0.3, 0.8, 1.0)]
ONE_SAMPLE_CONFIGS += [(mode, 0.8, on) for mode in ("find", "find_star") for on in (True, False)]


class TestOneSampleBatch:
    """A one-sample batch is its own group: it normalizes bitwise as a batch of two copies of itself,
    whose merge sums 2 * sums and 2 * m2 exactly and divides by 2L, which rounds like dividing by L."""

    @pytest.mark.parametrize("mode, alpha, partition_enabled", ONE_SAMPLE_CONFIGS)
    def test_one_sample_normalizes_as_two_copies(self, mode, alpha, partition_enabled):
        rng = np.random.default_rng(60)
        cfg = NormalizerConfig(mode=mode, alpha=alpha)
        for _ in range(20):
            src = random_src(rng, 6)
            x = (rng.normal(size=(1, 6, 5, 7)) * rng.uniform(0.1, 4.0) + rng.normal(scale=3.0)).astype(np.float32)
            one, one_trace = apply_normalizer(x, src, cfg, partition_enabled)
            two, two_trace = apply_normalizer(np.concatenate([x, x]), src, cfg, partition_enabled)
            assert np.array_equal(two[0], one[0]) and np.array_equal(two[1], one[0])
            assert one_trace.cluster_count == two_trace.cluster_count
            assert np.array_equal(one_trace.batch_stats.mean, two_trace.batch_stats.mean)
            assert np.array_equal(one_trace.batch_stats.var, two_trace.batch_stats.var)

    @pytest.mark.parametrize("mode, alpha, partition_enabled", ONE_SAMPLE_CONFIGS)
    def test_backbone_features_of_one_sample_as_two_copies(self, small_setup, mode, alpha, partition_enabled):
        # features, not logits: the head matmul rounds differently for one row than for two
        _, net, bank, _, _ = small_setup
        cfg, gating = NormalizerConfig(mode=mode, alpha=alpha), None if partition_enabled else [False] * net.num_slots
        scenario = StreamScenario(kind="cross_mix", domains=make_domains(5, 5, 0), batch_size=8, num_batches=1)
        for x in sample_batch(scenario, bank, 0).x[:, None]:
            one, one_traces = net.backbone(x, cfg, gating)
            two, two_traces = net.backbone(np.concatenate([x, x]), cfg, gating)
            assert np.array_equal(two[0], one[0]) and np.array_equal(two[1], one[0])
            assert [t.cluster_count for t in one_traces] == [t.cluster_count for t in two_traces]

    def test_blend_terms_are_keyed_by_alpha(self):
        # one SourceStats reused across alphas, revisited out of order, normalizes as a fresh one each time
        rng = np.random.default_rng(61)
        shared = random_src(rng, 4)
        batches = [rng.normal(size=(b, 4, 3, 3)).astype(np.float32) for b in (1, 6)]
        for alpha in (0.8, 0.3, 0.8, 1.0, 0.0, 0.3):
            for mode in ("alpha_bn", "find"):
                cfg = NormalizerConfig(mode=mode, alpha=alpha)
                fresh = SourceStats(shared.stats, shared.affine_scale, shared.affine_shift, shared.eps)
                for x in batches:
                    assert np.array_equal(apply_normalizer(x, shared, cfg)[0], apply_normalizer(x, fresh, cfg)[0])


class TestSlotTrace:
    MEASURING = ("tbn", "alpha_bn", "find", "find_star")  # every mode but sbn measures the batch

    @pytest.mark.parametrize("b", [1, 2, 64])
    @pytest.mark.parametrize("partition_enabled", [True, False])
    def test_batch_stats_bitwise_equal_channel_moments(self, b, partition_enabled):
        rng = np.random.default_rng(30 + b)
        x = (rng.normal(size=(b, 4, 5, 3)) * 3.0 + 1.5).astype(np.float32)
        full = batch_stats(x)
        for mode in self.MEASURING:
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
        for mode in self.MEASURING:
            _, trace = apply_normalizer(x, src_stats(c), NormalizerConfig(mode=mode))
            arrays = [getattr(trace, f.name) for f in dataclasses.fields(trace)]
            arrays = [a for a in arrays if isinstance(a, np.ndarray)]
            assert len(arrays) == 2 and all(a.shape == (b, c) for a in arrays)
            assert trace.length == 36

    def test_sbn_trace_carries_no_moments(self):
        x = np.random.default_rng(34).normal(size=(5, 3, 4, 4)).astype(np.float32)
        _, trace = apply_normalizer(x, src_stats(3), NormalizerConfig(mode="sbn"))
        assert trace.cluster_count is None and trace.sums is None and trace.m2 is None
        assert trace.batch_stats is None

    def test_traces_compare_without_raising(self):
        rng = np.random.default_rng(33)
        x, y = (rng.normal(size=(5, 3, 2, 2)).astype(np.float32) for _ in range(2))
        _, tx = apply_normalizer(x, src_stats(3), NormalizerConfig(mode="tbn"))
        _, ty = apply_normalizer(y, src_stats(3), NormalizerConfig(mode="tbn"))
        assert tx == ty  # the moment arrays are left out of ==
        _, tz = apply_normalizer(x, src_stats(3), NormalizerConfig(mode="find"))
        assert tz.cluster_count is not None and tx != tz
