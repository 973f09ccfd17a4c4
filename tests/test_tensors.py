import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighbornorm.tensors import (
    ChannelStats,
    as_feature_map,
    merge_moments,
    sample_moments,
)

from oracles import loop_channel_moments, pooled_moments
from support import batch_stats


def constant_map(b, vals, h=2, w=2):
    x = np.zeros((b, len(vals), h, w), dtype=np.float32)
    for c, v in enumerate(vals):
        x[:, c] = v
    return x


class TestAsFeatureMap:
    def test_rejects_3d_with_the_4d_message(self):
        with pytest.raises(ValueError, match=re.escape("must be 4-d (B,C,H,W), got shape (2, 3, 5)")):
            as_feature_map(np.ones((2, 3, 5), dtype=np.float32))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            as_feature_map(np.ones((2, 3), dtype=np.float32))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            as_feature_map(np.ones((0, 3, 2, 2), dtype=np.float32))

    def test_rejects_nan_and_inf(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            as_feature_map(x)
        x[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            as_feature_map(x)


class TestChannelStats:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ChannelStats(np.zeros(3), np.zeros(2))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ChannelStats(np.zeros(2), np.array([0.1, -0.1]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ChannelStats(np.array([np.inf]), np.array([np.nan]))
        with pytest.raises(ValueError, match="finite"):
            ChannelStats(np.zeros(2), np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="finite"):
            ChannelStats(np.array([0.0, -np.inf]), np.ones(2))


def check_random_labelings(seed, shape):
    """`merge_moments(*sample_moments(x))` on 30 random labelings vs the scalar-loop oracle: one (2, count, C)
    float64 array of mean and variance."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        b = int(rng.integers(1, 16))
        x = rng.normal(loc=rng.normal(scale=3.0, size=(b, 1, 1, 1)), size=(b, *shape)).astype(np.float32)
        count = int(rng.integers(1, b + 1))
        labels = np.concatenate([np.arange(count), rng.integers(0, count, b - count)])
        rng.shuffle(labels)  # unsorted; some labels are singletons
        mv = merge_moments(*sample_moments(x), int(np.prod(shape[1:])), labels, count)
        assert type(mv) is np.ndarray and mv.shape == (2, count, shape[0]) and mv.dtype == np.float64
        mean, var = mv
        for g in range(count):
            mean_ref, var_ref = loop_channel_moments(x, np.flatnonzero(labels == g).tolist())
            np.testing.assert_allclose(mean[g], mean_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(var[g], var_ref, rtol=1e-10, atol=1e-12)


class TestSegmentMoments:
    """Per-group moments of a map: `merge_moments` of its `sample_moments`."""

    def test_random_labelings_match_scalar_loop_oracle(self):
        check_random_labelings(11, (4, 3, 2))

    def test_singleton_segments_are_per_sample_moments(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 2, 4, 4)).astype(np.float32)
        labels = np.array([3, 0, 4, 1, 2])
        mean, var = merge_moments(*sample_moments(x), 16, labels, 5)
        for i, g in enumerate(labels):
            mean_ref, var_ref = loop_channel_moments(x, [i])
            np.testing.assert_allclose(mean[g], mean_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(var[g], var_ref, rtol=1e-10, atol=1e-12)

    def test_one_segment_is_channel_moments_bitwise(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(7, 3, 5, 5)).astype(np.float32)
        mean, var = merge_moments(*sample_moments(x), 25, np.zeros(7, np.intp), 1)
        full = batch_stats(x)
        assert np.array_equal(mean[0].astype(np.float32), full.mean)
        assert np.array_equal(var[0].astype(np.float32), full.var)

    def test_large_offset_variance_stays_accurate(self):
        # a small spread on a large offset: E[x^2] - E[x]^2 is off by ~1e-6
        # relative here, the centered pass agrees with the fsum oracle
        rng = np.random.default_rng(15)
        x = (np.float32(3000.0) + rng.normal(scale=0.01, size=(8, 1, 8, 8))).astype(np.float32)
        _, var = merge_moments(*sample_moments(x), 64, np.zeros(8, np.intp), 1)
        _, var_ref = loop_channel_moments(x)
        np.testing.assert_allclose(var[0], var_ref, rtol=1e-10)


@st.composite
def labelled_moments(draw):
    """`sample_moments`-shaped (B, C) sums and m2 over `length` positions, B 1-64, whose samples sit on a shared
    offset of up to 1e8 with spreads down to 1e-3, and a labelling of them into `count` groups, none empty."""
    b, c, length = draw(st.integers(1, 64)), draw(st.integers(1, 4)), draw(st.integers(1, 64))
    count = draw(st.integers(1, b))
    offset, spread = 10.0 ** draw(st.integers(0, 8)), 10.0 ** draw(st.integers(-3, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sums = length * (offset * rng.choice([-1.0, 1.0], c) + rng.normal(scale=spread, size=(b, c)))
    m2 = length * rng.uniform(0.0, spread**2, (b, c))
    labels = rng.permutation(np.concatenate([np.arange(count), rng.integers(0, count, b - count)]))
    return sums, m2, length, labels, count


class TestGeneratedMerges:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(labelled_moments())
    def test_merge_matches_pooled_moments_oracle(self, case):
        sums, m2, length, labels, count = case
        mean, var = merge_moments(sums, m2, length, labels, count)
        for g in range(count):
            members = np.flatnonzero(labels == g)
            mean_ref, var_ref = pooled_moments([(length, sums[i] / length, m2[i] / length) for i in members])
            # each sample's offset from the group mean carries the rounding of the sample's mean, ~1e-16 of the offset
            # shared by all, so the variance is good to that rounding times the spread, never to the offset squared
            scale = np.abs(mean_ref).max()
            np.testing.assert_allclose(mean[g], mean_ref, rtol=1e-14)
            assert (np.abs(var[g] - var_ref) <= 1e-12 * var_ref + 1e-14 * scale * np.sqrt(var_ref)).all()


class TestSampleMoments:
    def test_per_sample_sums_and_centered_squares_match_scalar_loop_oracle(self):
        rng = np.random.default_rng(16)
        x = rng.normal(loc=rng.normal(scale=3.0, size=(6, 1, 1, 1)), size=(6, 3, 4, 5)).astype(np.float32)
        sums, m2 = sample_moments(x)
        assert sums.shape == m2.shape == (6, 3) and sums.dtype == m2.dtype == np.float64
        for i in range(6):
            mean_ref, var_ref = loop_channel_moments(x, [i])
            np.testing.assert_allclose(sums[i] / 20, mean_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(m2[i] / 20, var_ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("b", [1, 63, 64, 65, 129, 256, 300])
    def test_rows_are_bitwise_the_one_sample_moments(self, b):
        # the moments run over 64-sample blocks, so these batches fill one block, end a block inside
        # them or end on a partial one; no row may depend on where its block starts or ends
        rng = np.random.default_rng(20 + b)
        for shape in [(8, 16, 16), (16, 8, 8)]:  # the stock slot-0 and slot-1 conv maps
            x = rng.normal(loc=2.0, size=(b, *shape)).astype(np.float32)
            moments = sample_moments(x)
            assert type(moments) is np.ndarray and moments.shape == (2, b, shape[0]) and moments.dtype == np.float64
            assert moments.flags.c_contiguous
            sums, m2 = moments
            for i in range(b):
                one = sample_moments(x[i : i + 1])
                assert one[0].tobytes() == sums[i].tobytes() and one[1].tobytes() == m2[i].tobytes(), (shape, i)

    def test_merge_of_random_labelings_matches_scalar_loop_oracle(self):
        check_random_labelings(17, (4, 2, 3))

    def test_merge_of_singletons_is_per_sample_moments(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        sums, m2 = sample_moments(x)
        mean, var = merge_moments(sums, m2, 9, np.array([2, 0, 3, 1]), 4)
        np.testing.assert_array_equal(mean[[2, 0, 3, 1]], sums / 9)
        np.testing.assert_array_equal(var[[2, 0, 3, 1]], m2 / 9)

    def test_large_offset_merge_stays_accurate(self):
        # samples far apart on a large offset: the merge's mean-offset terms
        # carry most of the variance and must not cancel
        rng = np.random.default_rng(19)
        x = (np.float32(3000.0) + rng.normal(scale=0.01, size=(8, 1, 8, 8))).astype(np.float32)
        x[::2] += np.float32(0.5)
        _, var = merge_moments(*sample_moments(x), 64, np.zeros(8, np.intp), 1)
        _, var_ref = loop_channel_moments(x)
        np.testing.assert_allclose(var[0], var_ref, rtol=1e-10)


class TestChannelMoments:
    """A map's channel moments over all samples and positions: `pooled_stats` of its `sample_moments`."""

    def test_constant_channels_any_subset(self):
        x = constant_map(4, [1.0, 2.0])
        for subset in (slice(None), [0], [1, 3], [0, 1, 2, 3]):
            stats = batch_stats(x[subset])
            assert np.array_equal(stats.mean, np.array([1.0, 2.0], np.float32))
            assert np.array_equal(stats.var, np.array([0.0, 0.0], np.float32))

    def test_two_point_hand_value(self):
        # ((0-1)^2 + (2-1)^2) / 2 = 1
        x = np.array([[[[0.0, 2.0]]]], dtype=np.float32)
        stats = batch_stats(x)
        assert stats.mean == pytest.approx([1.0])
        assert stats.var == pytest.approx([1.0])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
        stats = batch_stats(x[[0, 2]])
        mean_ref, var_ref = loop_channel_moments(x, [0, 2])
        np.testing.assert_allclose(stats.mean, mean_ref, rtol=1e-6)
        np.testing.assert_allclose(stats.var, var_ref, rtol=1e-6, atol=1e-9)

    def test_union_equals_pooled_moments(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            b = int(rng.integers(3, 12))
            x = rng.normal(scale=rng.uniform(0.5, 3.0), size=(b, 4, 3, 3)).astype(np.float32)
            perm = rng.permutation(b)
            cut = int(rng.integers(1, b))
            ia, ib = perm[:cut], perm[cut:]
            sa, sb = batch_stats(x[ia]), batch_stats(x[ib])
            union = batch_stats(x[perm])
            la = len(ia) * 9
            lb = len(ib) * 9
            mean_ref, var_ref = pooled_moments([(la, sa.mean, sa.var), (lb, sb.mean, sb.var)])
            np.testing.assert_allclose(union.mean, mean_ref, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(union.var, var_ref, rtol=1e-6, atol=1e-7)

    def test_near_constant_variance_clamped_nonnegative(self):
        x = np.full((8, 2, 4, 4), 0.1234567, dtype=np.float32)
        x += np.float32(1e-7) * np.arange(8, dtype=np.float32)[:, None, None, None]
        stats = batch_stats(x)
        assert np.all(stats.var >= 0.0)
