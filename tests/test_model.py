import os
import subprocess
import sys
import tracemalloc
from contextlib import closing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighbornorm.model import (
    LinearHead,
    ModelFormatError,
    Network,
    _stage,
    avg_pool_2x2,
    conv2d_3x3,
    load_model,
    save_model,
    train_linear_head,
)
from neighbornorm.normalization import NormalizerConfig, SourceStats, apply_normalizer
from neighbornorm.stream import StreamScenario, build_templates, identity_domain, iter_stacks, sample_batch
from neighbornorm.tensors import ChannelStats, pooled_stats, sample_moments

from oracles import loop_avg_pool2x2, loop_channel_moments, loop_conv3x3, ridge_normal_equations, window_conv3x3

MODES = ("sbn", "tbn", "alpha_bn", "find", "find_star")


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stock_batch(setup, b, index=0):
    """Batch `index` of the stock stream at batch size b."""
    cfg, _, bank, _ = setup
    return sample_batch(replace(cfg.scenario, batch_size=b), bank, index).x


def build_trained_net(seed=0, channels=(4, 8), input_shape=(1, 8, 8), num_classes=3, n_batches=6, batch=16):
    rng = np.random.default_rng(seed)
    batches = [rng.normal(size=(batch,) + input_shape).astype(np.float32) for _ in range(n_batches)]
    labels = [rng.integers(0, num_classes, batch) for _ in range(n_batches)]
    net = Network.build(channels, input_shape, seed, 1e-5, batches, np.concatenate(labels), 1e-2, num_classes)
    return net, batches


def kernels(seed, channels=(4, 8), c_in=1):
    """Seeded float32 conv kernels, one (c_out, c_in, 3, 3) array per stage."""
    rng, out = np.random.default_rng(seed), []
    for c_out in channels:
        out.append((rng.normal(size=(c_out, c_in, 3, 3)) / np.sqrt(c_in * 9)).astype(np.float32))
        c_in = c_out
    return out


def identity_stats(channels, eps=1e-5):
    """Zero-mean, unit-variance source statistics with identity affine terms, one per stage."""
    return [SourceStats.with_identity_affine(ChannelStats(np.zeros(c), np.ones(c)), eps) for c in channels]


class TestConv:
    def test_all_ones_kernel_on_constant_input(self):
        x = np.ones((1, 1, 4, 4), np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        out = conv2d_3x3(x, w)[0, 0]
        assert out[1, 1] == 9.0 and out[2, 2] == 9.0  # interior: full 3x3 support
        assert out[0, 0] == 4.0 and out[3, 3] == 4.0  # corners: 2x2 support
        assert out[0, 1] == 6.0 and out[3, 2] == 6.0  # edges: 2x3 support

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(conv2d_3x3(x, w), loop_conv3x3(x, w), rtol=1e-5, atol=1e-6)

    def test_single_sample_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(conv2d_3x3(x, w), loop_conv3x3(x, w), rtol=1e-5, atol=1e-6)

    def test_non_square_odd_channels_match_scalar_loop_oracle(self):
        rng = np.random.default_rng(18)
        for b, c_in, c_out, h, wd in [(3, 5, 7, 3, 7), (2, 1, 3, 1, 5), (1, 3, 1, 7, 2)]:
            x = rng.normal(size=(b, c_in, h, wd)).astype(np.float32)
            w = rng.normal(size=(c_out, c_in, 3, 3)).astype(np.float32)
            out = conv2d_3x3(x, w)
            assert out.shape == (b, c_out, h, wd) and out.dtype == np.float32
            np.testing.assert_allclose(out, loop_conv3x3(x, w), rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("b", [1, 64, 256, 300])  # the conv runs over 64-sample blocks; 300 ends on a partial one
    def test_stock_slot_shapes_bitwise_equal_window_oracle(self, b):
        rng = np.random.default_rng(19 + b)
        for c_in, c_out, side in [(1, 8, 16), (8, 16, 8)]:  # slot 0 and slot 1 of the stock network
            x = rng.normal(size=(b, c_in, side, side)).astype(np.float32)
            w = (rng.normal(size=(c_out, c_in, 3, 3)) / np.sqrt(c_in * 9)).astype(np.float32)
            out = conv2d_3x3(x, w)
            assert out.dtype == np.float32 and out.flags.c_contiguous
            assert np.array_equal(out, window_conv3x3(x, w))

    def test_edge_shapes_match_scalar_loop_oracle(self):
        rng = np.random.default_rng(20)
        for b, c_in, c_out, h, wd in [(1, 1, 2, 1, 1), (3, 2, 3, 1, 1), (1, 4, 5, 3, 7), (2, 3, 2, 5, 1), (1, 6, 4, 7, 5)]:
            x = rng.normal(size=(b, c_in, h, wd)).astype(np.float32)
            w = rng.normal(size=(c_out, c_in, 3, 3)).astype(np.float32)
            out = conv2d_3x3(x, w)
            assert out.shape == (b, c_out, h, wd) and out.dtype == np.float32 and out.flags.c_contiguous
            np.testing.assert_allclose(out, loop_conv3x3(x, w), rtol=1e-5, atol=1e-5)

    def test_kernel_shape_check(self):
        with pytest.raises(ValueError):
            conv2d_3x3(np.ones((1, 2, 4, 4), np.float32), np.ones((1, 3, 3, 3), np.float32))


class TestPoolRelu:
    def test_relu(self):
        # one stage of identity conv and unit sbn: relu zeroes the negative entries before the pool
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        head = LinearHead(np.ones((2, 1)), np.zeros(2), 1.0)
        net = Network([w], identity_stats([1], eps=1e-30), head, input_shape=(1, 2, 2), seed=0, eps=1e-30)
        feats, _ = net.backbone(np.array([[[[-1.0, 2.0], [-3.0, 6.0]]]], np.float32), NormalizerConfig(mode="sbn"))
        np.testing.assert_array_equal(feats, [[2.0]])  # (0 + 2 + 0 + 6) / 4

    def test_avg_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = avg_pool_2x2(x)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
        with pytest.raises(ValueError):
            avg_pool_2x2(np.ones((1, 1, 3, 4), np.float32))

    def test_avg_pool_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(19)
        for shape in [(1, 1, 2, 2), (3, 5, 4, 6), (2, 3, 8, 2)]:
            x = rng.normal(size=shape).astype(np.float32)
            out = avg_pool_2x2(x)
            assert out.dtype == np.float32
            np.testing.assert_allclose(out, loop_avg_pool2x2(x), rtol=1e-6, atol=1e-7)

    def test_avg_pool_sums_in_the_stated_order(self):
        # float32 addition does not associate: pin ((a + b) + c) + d, then * 0.25, bit for bit
        x = np.random.default_rng(23).normal(size=(4, 8, 16, 16)).astype(np.float32)
        a, b, c, d = x[:, :, ::2, ::2], x[:, :, ::2, 1::2], x[:, :, 1::2, ::2], x[:, :, 1::2, 1::2]
        assert same_bits(avg_pool_2x2(x), (((a + b) + c) + d) * np.float32(0.25))


class TestLinearHead:
    def test_orthonormal_features_reproduce_one_hot(self):
        feats = np.eye(4, dtype=np.float64)
        labels = np.arange(4)
        head = train_linear_head(feats, labels, 1e-10, num_classes=4)
        pred = feats @ head.weight.T.astype(np.float64) + head.bias.astype(np.float64)
        np.testing.assert_allclose(pred, np.eye(4), atol=1e-5)

    def test_huge_lambda_shrinks_weights(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(30, 6))
        labels = rng.integers(0, 3, 30)
        head = train_linear_head(feats, labels, 1e9, num_classes=3)
        assert np.abs(head.weight).max() < 1e-4

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(50, 8))
        labels = rng.integers(0, 4, 50)
        head = train_linear_head(feats, labels, 0.5, num_classes=4)
        w_ref, b_ref = ridge_normal_equations(feats, labels, 0.5, 4)
        assert np.abs(head.weight - w_ref).max() <= 1e-5
        assert np.abs(head.bias - b_ref).max() <= 1e-5

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(40, 7))
        labels = rng.integers(0, 3, 40)
        lam = 1e-2
        head = train_linear_head(feats, labels, lam, num_classes=3)
        a = np.concatenate([feats, np.ones((40, 1))], axis=1)
        y = np.zeros((40, 3))
        y[np.arange(40), labels] = 1.0
        w_aug = np.concatenate([head.weight.T.astype(np.float64), head.bias[None, :].astype(np.float64)])
        lhs = (a.T @ a + lam * np.eye(8)) @ w_aug
        rhs = a.T @ y
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(rhs)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            train_linear_head(np.eye(3), [0, 1, 1], 1e-2, num_classes=3)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            train_linear_head(np.eye(3), [0, 1, 2], 0.0, num_classes=3)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one label per row"):
            train_linear_head(np.eye(3), [0, 1], 1e-2, num_classes=2)

    def test_one_class_rejected(self):
        # the class-count rule the config and the model-file header also use
        with pytest.raises(ValueError, match="num_classes"):
            train_linear_head(np.eye(3), [0, 0, 0], 1e-2, num_classes=1)


class TestNetworkForward:
    def test_zero_input_propagates_to_bias(self):
        bias = np.array([0.5, -1.0, 2.0], np.float32)
        width = 8 * 2 * 2  # last stage's channels times the twice-pooled 8x8 input
        head = LinearHead(weight=np.ones((3, width), np.float32), bias=bias, ridge_lambda=1.0)
        net = Network(kernels(5), identity_stats((4, 8)), head, input_shape=(1, 8, 8), seed=5)
        x = np.zeros((4, 1, 8, 8), np.float32)
        assert net.backbone(x, NormalizerConfig(mode="sbn"))[0].shape[1] == width
        logits = net.forward(x, NormalizerConfig(mode="sbn"))
        np.testing.assert_allclose(logits, np.tile(bias, (4, 1)), atol=1e-7)

    def test_deterministic_same_seed(self):
        net_a, batches = build_trained_net(seed=7)
        net_b, _ = build_trained_net(seed=7)
        cfg = NormalizerConfig(mode="find")
        la = net_a.forward(batches[0], cfg)
        lb = net_b.forward(batches[0], cfg)
        assert np.array_equal(la, lb)

    def test_finite_logits_all_modes(self):
        net, batches = build_trained_net(seed=8)
        for mode in ("sbn", "tbn", "alpha_bn", "find", "find_star"):
            logits = net.forward(batches[0], NormalizerConfig(mode=mode))
            assert np.isfinite(logits).all()

    def test_single_cluster_everywhere_matches_alpha_bn_bitwise(self):
        net, batches = build_trained_net(seed=9)
        x = np.repeat(batches[0][:1], 6, axis=0)  # identical rows stay identical layer to layer
        find_logits = net.forward(x, NormalizerConfig(mode="find", alpha=0.8))
        alpha_logits = net.forward(x, NormalizerConfig(mode="alpha_bn", alpha=0.8))
        assert np.array_equal(find_logits, alpha_logits)

    def test_single_sample_partitioning_modes_match_alpha_bn_bitwise(self):
        net, batches = build_trained_net(seed=9)
        for i in range(4):
            x = batches[0][i : i + 1]
            alpha_logits = net.forward(x, NormalizerConfig(mode="alpha_bn", alpha=0.8))
            for mode in ("find", "find_star"):
                logits, traces = net.forward(x, NormalizerConfig(mode=mode, alpha=0.8), collect_traces=True)
                assert np.array_equal(logits, alpha_logits)
                assert [t.cluster_count for t in traces] == [1, 1]

    def test_gating_flags_control_slots(self):
        net, batches = build_trained_net(seed=10)
        cfg = NormalizerConfig(mode="find_star")
        _, traces_on = net.forward(batches[0], cfg, gating=[True, True], collect_traces=True)
        _, traces_off = net.forward(batches[0], cfg, gating=[False, False], collect_traces=True)
        assert all(t.cluster_count is not None for t in traces_on)
        assert all(t.cluster_count is None for t in traces_off)
        with pytest.raises(ValueError):
            net.forward(batches[0], cfg, gating=[True])

    def test_input_shape_check(self):
        net, _ = build_trained_net(seed=11)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 1, 6, 6), np.float32), NormalizerConfig(mode="sbn"))

    def test_source_stats_channel_mismatch_rejected(self):
        # one channel would broadcast over the slot's four in the normalizer: the constructor refuses it
        net, _ = build_trained_net(seed=11)
        stats = [*identity_stats([1]), *net.source_stats[1:]]
        with pytest.raises(ValueError, match=r"source_stats\[0\] must have 4 channels"):
            Network(net.conv_weights, stats, net.head, net.input_shape, net.seed, net.eps)

    def test_input_checked_once_per_forward(self, monkeypatch):
        import neighbornorm.model as model_module
        import neighbornorm.normalization as normalization_module
        import neighbornorm.tensors as tensors_module

        net, batches = build_trained_net(seed=12)
        calls = []
        for module in (model_module, normalization_module, tensors_module):
            checked = module.as_feature_map
            monkeypatch.setattr(module, "as_feature_map", lambda x, checked=checked: calls.append(1) or checked(x))
        for mode in MODES:
            calls.clear()
            net.forward(batches[0], NormalizerConfig(mode=mode))
            assert len(calls) == 1, mode

    def test_overflow_inside_the_stages_raises(self, default_setup):
        # a finite input whose stages overflow; np.errstate keeps numpy's overflow
        # warnings, errors under the suite's filterwarnings, from masking the ValueError
        _, net, _, _ = default_setup
        x = np.full((4, 1, 16, 16), 3e38)
        x[1] *= -1
        with np.errstate(over="ignore", invalid="ignore"):
            for mode in MODES:
                with pytest.raises(ValueError):
                    net.forward(x, NormalizerConfig(mode=mode))
            with pytest.raises(ValueError):
                Network.capture_source_stats(net.conv_weights, net.input_shape, [x], net.eps)
            with pytest.raises(ValueError):  # at 3e37 only sbn's last stage overflows: the exit check sees it
                net.forward(x / 10, NormalizerConfig(mode="sbn"))

    def test_permutation_equivariance_stock_batches(self, default_setup):
        # a sample's output depends on the batch as a set, not on its position in it
        cfg, net, bank, _ = default_setup
        rng = np.random.default_rng(21)
        for index in range(4):
            x = sample_batch(cfg.scenario, bank, index).x
            p = rng.permutation(x.shape[0])
            for mode in MODES:
                ncfg = NormalizerConfig(mode=mode)
                logits, traces = net.forward(x, ncfg, collect_traces=True)
                logits_p, traces_p = net.forward(x[p], ncfg, collect_traces=True)
                assert np.array_equal(logits_p, logits[p]), (index, mode)
                assert [t.cluster_count for t in traces_p] == [t.cluster_count for t in traces], (index, mode)

    @pytest.mark.parametrize("b", [1, 63, 64, 65, 129, 256])
    def test_blocked_stages_match_the_public_kernel_chain(self, default_setup, b):
        # a stage is the chain of public kernels on the whole batch: conv, normalize, relu, pool. Both
        # sides run the same blocked conv and moments, whose block edges the kernel tests pin; this pins
        # the in-place normalize, relu and pool of `Network._stage`, and the gating, to the public chain
        net, x = default_setup[1], stock_batch(default_setup, b)
        runs = [(mode, None) for mode in MODES] + [("find_star", (True, False)), ("find_star", (False, True))]
        for mode, gating in runs:
            cfg = NormalizerConfig(mode=mode)
            feats, traces = net.backbone(x, cfg, gating)
            h = x
            for k, trace in enumerate(traces):
                enabled = True if gating is None else gating[k]
                y, chained = apply_normalizer(conv2d_3x3(h, net.conv_weights[k]), net.source_stats[k], cfg, enabled)
                h = avg_pool_2x2(np.maximum(y, 0))
                assert trace.cluster_count == chained.cluster_count, (mode, gating, k)
                for ours, theirs in ((trace.sums, chained.sums), (trace.m2, chained.m2)):
                    assert ours is theirs is None or same_bits(ours, theirs), (mode, gating, k)
            assert same_bits(feats, h.reshape(b, -1)), (mode, gating)

    def test_sbn_features_do_not_depend_on_the_batch(self, default_setup):
        # sbn uses only frozen source statistics, and the head computes each row on its own, so a sample's
        # features and logits alone are bitwise its row in a stock batch, across block edges too
        net, sbn = default_setup[1], NormalizerConfig(mode="sbn")
        for b in (2, 64, 65, 256, 300):
            x = stock_batch(default_setup, b, index=1)
            feats, logits = net.backbone(x, sbn)[0], net.forward(x, sbn)
            for i in range(b):
                assert same_bits(net.backbone(x[i : i + 1], sbn)[0][0], feats[i]), (b, i)
                assert same_bits(net.forward(x[i : i + 1], sbn)[0], logits[i]), (b, i)

    @pytest.mark.parametrize("s", [1, 2, 63, 64, 65, 300])
    def test_singles_forward_each_row_as_its_own_batch(self, default_setup, s):
        # with `segment=1`, a stack of S one-sample batches goes through one forward: each row's logits and
        # `SlotTrace.row` are bitwise that sample's forward alone, in every mode and gating, across block edges;
        # sbn's rows hold no moments
        net, x = default_setup[1], stock_batch(default_setup, s, index=2)
        runs = [(NormalizerConfig(mode=mode), gating) for mode, gating in GATED_RUNS]
        runs += [(NormalizerConfig(mode="alpha_bn", alpha=alpha), None) for alpha in (0.0, 1.0)]
        for cfg, gating in runs:
            logits, traces = net.forward(x, cfg, gating=gating, collect_traces=True, segment=1)
            assert [len(tr.cluster_counts) for tr in traces] == [s] * net.num_slots, (cfg, gating)
            for i in range(s):
                alone, alone_traces = net.forward(x[i : i + 1], cfg, gating=gating, collect_traces=True)
                assert same_bits(logits[i : i + 1], alone), (cfg, gating, i)
                for row, theirs in zip([tr.row(i) for tr in traces], alone_traces, strict=True):
                    assert row.cluster_count == theirs.cluster_count, (cfg, gating, i)
                    for a, b_ in ((row.sums, theirs.sums), (row.m2, theirs.m2)):
                        assert (a is b_ is None) == (cfg.mode == "sbn"), (cfg, gating, i)
                        assert a is b_ is None or same_bits(a, b_), (cfg, gating, i)

    @pytest.mark.parametrize("b", [2, 3, 16, 63])
    def test_segment_forwards_each_batch_as_alone(self, default_setup, b):
        # with `segment` B, a stack of n B-sample batches, stock batches 0 to n - 1, goes through one forward: each
        # batch's logits and `SlotTrace.row` (count, sums and m2) are bitwise its forward alone, in every mode and
        # gating, for one batch, a partial stack, a full one of ceil(64 / B) batches and one batch more, across a
        # block edge; sbn's rows hold no moments (B=1 is the singles test above)
        net, per_stack = default_setup[1], -(-64 // b)
        runs = [(NormalizerConfig(mode=mode), gating) for mode, gating in GATED_RUNS]
        runs += [(NormalizerConfig(mode="alpha_bn", alpha=alpha), None) for alpha in (0.0, 1.0)]
        for n in sorted({1, per_stack - 1, per_stack, per_stack + 1} - {0}):
            batches = [stock_batch(default_setup, b, index=j) for j in range(n)]
            for cfg, gating in runs:
                logits, traces = net.forward(np.concatenate(batches), cfg, gating=gating, collect_traces=True, segment=b)
                assert [len(tr.cluster_counts) for tr in traces] == [n] * net.num_slots, (cfg, gating, n)
                for j, x in enumerate(batches):
                    alone, alone_traces = net.forward(x, cfg, gating=gating, collect_traces=True)
                    assert same_bits(logits[j * b : (j + 1) * b], alone), (cfg, gating, n, j)
                    for row, theirs in zip([tr.row(j) for tr in traces], alone_traces, strict=True):
                        assert row.cluster_count == theirs.cluster_count, (cfg, gating, n, j)
                        for a, b_ in ((row.sums, theirs.sums), (row.m2, theirs.m2)):
                            assert (a is b_ is None) == (cfg.mode == "sbn"), (cfg, gating, n, j)
                            assert a is b_ is None or same_bits(a, b_), (cfg, gating, n, j)

    def test_a_stack_of_batches_is_not_one_batch(self, default_setup):
        # without `segment` a stack is one batch: each 2-row batch normalized alone differs from its rows in the
        # 64-row batch, in every mode that measures the batch
        net, x = default_setup[1], stock_batch(default_setup, 64, index=2)
        for mode in ("tbn", "alpha_bn", "find"):
            cfg = NormalizerConfig(mode=mode)
            pairs = net.forward(x, cfg, segment=2)
            assert same_bits(pairs, np.concatenate([net.forward(x[i : i + 2], cfg) for i in range(0, 64, 2)])), mode
            assert not np.array_equal(pairs, net.forward(x, cfg)), mode

    @pytest.mark.parametrize("segment", [0, -2, 5, 128, 2.0, True, "2", np.float64(4.0)])
    def test_a_segment_must_divide_the_batch(self, default_setup, segment):
        # `forward` and `backbone` take outside input: a segment that is not a positive integer dividing the batch
        # raises, before any stage runs, where `np.arange(64) // 5` would make a 4-sample last batch
        net, x, cfg = default_setup[1], stock_batch(default_setup, 64), NormalizerConfig(mode="tbn")
        for call in (net.forward, net.backbone):
            with pytest.raises(ValueError, match="segment must be a positive integer dividing the batch's 64 samples"):
                call(x, cfg, segment=segment)

    def test_a_stem_is_one_batch(self, default_setup):
        # a stem's segment, a Python or numpy integer, need only divide its rows, as a raw map's does: a stem of a
        # stack forwards each batch bitwise as the raw stack and each batch alone do; a non-divisor raises
        net, x, cfg = default_setup[1], stock_batch(default_setup, 64), NormalizerConfig(mode="find")
        whole = net.forward(x, cfg)
        for segment in (64, np.int64(64)):
            assert same_bits(net.forward(net.stem(cfg)(x)(), cfg, segment=segment), whole)
        for segment in (1, 2, np.int64(32)):
            assert same_bits(net.forward(net.stem(cfg)(x)(), cfg, segment=segment), net.forward(x, cfg, segment=segment))
        stack = stock_batch(default_setup, 130)  # two batches of 65, a partial third block
        alone = np.concatenate([net.forward(stack[:65], cfg), net.forward(stack[65:], cfg)])
        assert same_bits(net.forward(net.stem(cfg)(stack)(), cfg, segment=65), alone)
        for segment in (5, 128):
            with pytest.raises(ValueError, match="dividing the batch.s 64 samples"):
                net.forward(net.stem(cfg)(x)(), cfg, segment=segment)


GATED_RUNS = [(mode, None) for mode in MODES]
GATED_RUNS += [("find_star", gating) for gating in ((True, False), (False, True), (False, False))]


class TestStem:
    """`Network.stem` checks a batch and runs its first conv and moments ahead of the network; `forward` of the
    resulting `Stem` is the forward of the batch, which makes no stem."""

    @staticmethod
    def outputs(net, x, cfg, gating):
        logits, traces = net.forward(x, cfg, gating=gating, collect_traces=True)
        return logits, [(t.cluster_count, t.sums, t.m2) for t in traces]

    @pytest.mark.parametrize("b", [1, 2, 63, 64, 65, 129, 256, 300])
    def test_forwarding_a_stem_is_forwarding_its_batch(self, default_setup, b):
        net, x = default_setup[1], stock_batch(default_setup, b, index=3)
        for mode, gating in GATED_RUNS:
            cfg = NormalizerConfig(mode=mode)
            stemmed = net.forward(net.stem(cfg)(x)(), cfg, gating=gating, collect_traces=True)
            raw = net.forward(x, cfg, gating=gating, collect_traces=True)
            assert same_bits(stemmed[0], raw[0]), (mode, gating)
            for ours, theirs in zip(stemmed[1], raw[1], strict=True):
                assert ours.cluster_count == theirs.cluster_count, (mode, gating)
                for a, b_ in ((ours.sums, theirs.sums), (ours.m2, theirs.m2)):
                    assert a is b_ is None or same_bits(a, b_), (mode, gating)

    @pytest.mark.parametrize("b", [1, 64])
    def test_a_raw_forward_makes_no_stem(self, default_setup, monkeypatch, b):
        net, x = default_setup[1], stock_batch(default_setup, b)
        expected = [net.forward(x, NormalizerConfig(mode=mode)) for mode in MODES]

        def stem(self, cfg):
            raise AssertionError("a raw forward made a stem")

        monkeypatch.setattr(Network, "stem", stem)
        for mode, logits in zip(MODES, expected):
            assert same_bits(net.forward(x, NormalizerConfig(mode=mode)), logits), mode

    def test_one_stem_function_serves_a_stream_with_fresh_moments(self, default_setup):
        # the scratch is shared by the batches of one function; the traces of a forwarded batch keep their bits
        net, cfg = default_setup[1], NormalizerConfig(mode="find")
        stem = net.stem(cfg)
        xs = [stock_batch(default_setup, 65, index=i) for i in range(3)]
        kept = [net.forward(stem(x)(), cfg, collect_traces=True)[1] for x in xs]
        for x, traces in zip(xs, kept):
            for ours, theirs in zip(traces, net.forward(x, cfg, collect_traces=True)[1]):
                assert same_bits(ours.sums, theirs.sums) and same_bits(ours.m2, theirs.m2)

    def test_a_stem_with_moments_forwards_in_sbn(self, default_setup):
        net, x, sbn = default_setup[1], stock_batch(default_setup, 64), NormalizerConfig(mode="sbn")
        assert same_bits(net.forward(net.stem(NormalizerConfig(mode="find"))(x)(), sbn), net.forward(x, sbn))

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "sbn"])
    def test_an_sbn_stem_in_a_measuring_mode_raises(self, default_setup, mode):
        net, x = default_setup[1], stock_batch(default_setup, 64)
        stem = net.stem(NormalizerConfig(mode="sbn"))(x)()
        assert stem.moments is None
        with pytest.raises(ValueError, match=f"made for sbn.*{mode} measures the batch"):
            net.forward(stem, NormalizerConfig(mode=mode))

    def test_a_stem_is_forwarded_once_by_its_network(self, default_setup):
        net, x, cfg = default_setup[1], stock_batch(default_setup, 2), NormalizerConfig(mode="tbn")
        stem = net.stem(cfg)(x)()
        other = Network(net.conv_weights, net.source_stats, net.head, net.input_shape, net.seed, net.eps)
        with pytest.raises(ValueError, match="by the network that made it"):
            other.forward(stem, cfg)
        net.forward(stem, cfg)
        with pytest.raises(ValueError, match="forwarded once"):
            net.forward(stem, cfg)

    @pytest.mark.parametrize("bad", [{"gating": [True]}, {"gating": [True, False, True]}, {"segment": 3},
                                     {"segment": 0}, {"segment": 2.0}])
    def test_a_rejected_forward_leaves_its_stem_whole(self, default_setup, bad):
        # a forward that rejects its gating or segment raises before it spends the stem, which then forwards
        # bitwise as a fresh stem of the same batch would
        net, x, cfg = default_setup[1], stock_batch(default_setup, 64, index=1), NormalizerConfig(mode="find")
        stem = net.stem(cfg)(x)()
        with pytest.raises(ValueError, match="gating must list|segment must be"):
            net.forward(stem, cfg, **bad)
        assert stem.conv is not None
        ours, theirs = self.outputs(net, stem, cfg, None), self.outputs(net, net.stem(cfg)(x)(), cfg, None)
        assert same_bits(ours[0], theirs[0]) and stem.conv is None
        for (count, *moments), (their_count, *their_moments) in zip(ours[1], theirs[1], strict=True):
            assert count == their_count and all(same_bits(a, b) for a, b in zip(moments, their_moments))

    def test_the_batch_is_checked_when_the_stem_is_made(self, default_setup):
        net = default_setup[1]
        with pytest.raises(ValueError, match="does not match network input"):
            net.stem(NormalizerConfig())(np.zeros((2, 1, 8, 8), np.float32))

    @pytest.mark.parametrize("mode", ["sbn", "find"])
    def test_the_scratch_is_one_block_allocated_at_the_first_call(self, default_setup, mode):
        # making the stem function allocates no scratch; its first call, even on one sample, allocates the block
        # scratch for `_BLOCK` samples, and later calls only their own outputs
        net, x = default_setup[1], stock_batch(default_setup, 1)
        tracemalloc.start()
        try:
            stem = net.stem(NormalizerConfig(mode=mode))
            made = tracemalloc.get_traced_memory()[0]
            first = stem(x)
            after_first = tracemalloc.get_traced_memory()[0]
            second = stem(x)
            after_second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cols = 64 * 9 * 16 * 18 * 4  # the im2col columns of one block of stock 1 x 16 x 16 samples
        assert made < 4096 and after_first - made > cols and after_second - after_first < 32 * 1024
        assert first().conv.shape == second().conv.shape == (1, 8, 16, 16)

    @pytest.mark.parametrize("mode", ["sbn", "find"])
    def test_the_work_allocates_no_batch_sized_array(self, default_setup, mode):
        # the calling thread allocates the stem's outputs and block scratch, so a worker running the work
        # grows no heap of its own; the work's own temporaries are a few (block, C) rows and numpy's 64 KiB
        # ufunc buffer, against the 2 MiB conv map it fills
        net, x = default_setup[1], stock_batch(default_setup, 256)
        stem = net.stem(NormalizerConfig(mode=mode))
        stem(x)()  # the first call allocates the scratch
        work = stem(x)
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 1024


STOCK_STAGE_MAPS = ((8, 16, 16), (16, 8, 8))  # a sample's conv map at slot 0 and at slot 1 of the stock network
ZERO_SHIFTS = {"+0.0": 0.0, "-0.0": -0.0}


def with_shifts(net, shifts, zero_scale):
    """`net` with slot k's affine shift `shifts[k]` (an array, a float for every channel, or "mixed": +0.0 and -0.0 in
    turn) and, with `zero_scale`, a zero affine scale on every third channel, whose normalized entries below the mean
    are -0.0 before the shift is added."""
    stats = []
    for src, shift in zip(net.source_stats, shifts):
        c = src.num_channels
        scale = np.where(np.arange(c) % 3 == 0, np.float32(0.0), src.affine_scale) if zero_scale else src.affine_scale
        shift = np.where(np.arange(c) % 2, -0.0, 0.0) if isinstance(shift, str) else np.broadcast_to(shift, c)
        stats.append(SourceStats(src.stats, scale, shift.astype(np.float32), src.eps))
    return Network(net.conv_weights, stats, net.head, net.input_shape, net.seed, net.eps)


class TestShiftOnTheRelu:
    """A stage adds its slot's shift only where an entry is nonzero: a shift of +0.0 and -0.0 entries changes a
    normalized entry only from -0.0 to +0.0, which the relu after it does too. `apply_normalizer`, which has no
    relu, always adds it."""

    @pytest.mark.parametrize("b", [1, 64, 256])
    @pytest.mark.parametrize("shape", STOCK_STAGE_MAPS)
    def test_the_relu_maps_negative_zero_to_positive_zero(self, b, shape):
        # the premise: np.maximum(t, 0.0) in place is +0.0 for t = -0.0 as for t = +0.0 and every t < 0, whichever
        # SIMD lane the entry falls in, on maps shaped like both stock stages' conv maps
        rng = np.random.default_rng(b)
        x = rng.choice(np.array([-0.0, 0.0, -1.5, 2.5, -1e-40, 1e-40], np.float32), size=(b, *shape))
        expected = np.where(x > 0, x, np.float32(0.0))
        assert np.signbit(x[x == 0]).any() and not np.signbit(expected).any()
        assert same_bits(np.maximum(x, 0.0, out=x), expected)

    @pytest.mark.parametrize("shifts", [(0.25, "+0.0"), ("-0.0", -0.5), ("mixed", "+0.0"), ("+0.0", "mixed"),
                                        ("-0.0", "-0.0"), (0.0, -0.5), ("mixed", 0.75)])
    @pytest.mark.parametrize("b", [1, 64, 65])
    def test_a_stage_is_normalize_then_relu_then_pool(self, default_setup, shifts, b):
        # a forward is bitwise the public chain that always adds the shift: conv, apply_normalizer, relu, pool, head,
        # for slots whose shift is nonzero, +0.0, -0.0 or both, in every mode and gating, raw and through a stem;
        # the zero-scale channels make -0.0 entries before the shift (the map with a -0.0 shift, which adds nothing,
        # shows them), so skipping a zero shift's add is tested where it would count
        net = with_shifts(default_setup[1], [ZERO_SHIFTS.get(s, s) for s in shifts], zero_scale=True)
        x = stock_batch(default_setup, b, index=2)
        for mode, gating in GATED_RUNS:
            cfg = NormalizerConfig(mode=mode)
            h, chained = x, []
            for k, (w, src) in enumerate(zip(net.conv_weights, net.source_stats)):
                conv, enabled = conv2d_3x3(h, w), True if gating is None else gating[k]
                unshifted = SourceStats(src.stats, src.affine_scale, np.full(src.num_channels, -0.0, np.float32), src.eps)
                before = apply_normalizer(conv, unshifted, cfg, enabled)[0]
                assert (np.signbit(before) & (before == 0)).any(), (mode, gating, k)
                y, trace = apply_normalizer(conv, src, cfg, enabled)
                h = avg_pool_2x2(np.maximum(y, np.float32(0.0)))
                chained.append(trace)
            logits = np.einsum("bd,kd->bk", h.reshape(b, -1), net.head.weight)
            logits += net.head.bias
            runs = (x, net.stem(cfg)(x)())  # at every batch size
            for ours, traces in (net.forward(run, cfg, gating=gating, collect_traces=True) for run in runs):
                assert same_bits(ours, logits), (mode, gating)
                for trace, theirs in zip(traces, chained, strict=True):
                    assert trace.cluster_counts == theirs.cluster_counts, (mode, gating)
                    for a, b_ in ((trace.sums, theirs.sums), (trace.m2, theirs.m2)):
                        assert a is b_ is None or same_bits(a, b_), (mode, gating)

    def test_apply_normalizer_adds_a_zero_shift(self):
        # with no relu after it, apply_normalizer keeps the add: sbn against a zero source mean takes a -0.0 input
        # entry to -0.0 before the shift, so a +0.0 shift makes it +0.0 and a -0.0 shift leaves it -0.0
        stats, x = ChannelStats(np.zeros(3), np.ones(3)), np.full((2, 3, 2, 2), -0.0, np.float32)
        for shift, negative in ((0.0, False), (-0.0, True)):
            src = SourceStats(stats, np.ones(3, np.float32), np.full(3, shift, np.float32))
            out, _ = apply_normalizer(x, src, NormalizerConfig(mode="sbn"))
            assert not out.any() and np.signbit(out).all() == negative and np.signbit(out).any() == negative

    def test_a_shift_is_added_where_any_entry_is_nonzero(self, default_setup):
        # a shift with one nonzero entry among zeros is added: the stage's output rises on that channel alone (where
        # its relu lets it through)
        net, x, cfg = default_setup[1], stock_batch(default_setup, 64), NormalizerConfig(mode="tbn")
        shift = np.zeros(net.source_stats[0].num_channels)
        shift[3] = 0.5
        moved = with_shifts(net, [shift, 0.0], zero_scale=False)
        ours = _stage(conv2d_3x3(x, net.conv_weights[0]), moved.source_stats[0], cfg)[0]
        base = _stage(conv2d_3x3(x, net.conv_weights[0]), net.source_stats[0], cfg)[0]
        assert same_bits(np.delete(ours, 3, axis=1), np.delete(base, 3, axis=1))
        assert (ours[:, 3] >= base[:, 3]).all() and (ours[:, 3] > base[:, 3]).mean() > 0.5


class TestFrozenValuesHoldTheirFields:
    """`SourceStats` and `StreamScenario` are plain data: the normalizer and the stream compute each term they derive
    from them where they read it, so no construction, forward or draw leaves an attribute that is not a field."""

    def test_only_fields_after_forwards_and_draws(self, default_setup):
        cfg, net, bank, _ = default_setup
        scenario = replace(cfg.scenario, batch_size=3, num_batches=50)  # stacks of 43 batches and of 7
        identity = SourceStats.with_identity_affine(ChannelStats(np.zeros(2), np.ones(2)))
        values = [*net.source_stats, identity, scenario]

        def assert_only_fields():
            for value in values:
                assert set(vars(value)) == {f.name for f in fields(value)}, type(value).__name__

        assert_only_fields()
        x, small = sample_batch(scenario, bank, 0).x, np.ones((2, 2, 2, 2), np.float32)
        for mode in MODES:
            for alpha in (0.3, 0.8):
                ncfg = NormalizerConfig(mode=mode, alpha=alpha)
                net.forward(x, ncfg)
                apply_normalizer(small, identity, ncfg)
                with closing(iter_stacks(scenario, bank, net.stem(ncfg))) as stacks:
                    for _, result in stacks:
                        net.forward(result(), ncfg, segment=scenario.batch_size)
                assert_only_fields()


def parts_of(net) -> dict:
    """The constructor arguments of `net`."""
    return dict(conv_weights=net.conv_weights, source_stats=net.source_stats, head=net.head, input_shape=net.input_shape,
                seed=net.seed, eps=net.eps)


class TestConstruction:
    """A network is whole when it exists: the constructor checks every part once, naming the one it rejects."""

    def test_build_names_a_bad_seed_before_it_draws(self):
        with pytest.raises(ValueError, match="seed"):
            Network.build((4,), (1, 4, 4), -3, 1e-5, [np.ones((2, 1, 4, 4), np.float32)], [0, 1], 1.0, 2)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("seed", lambda p: p.update(seed=-3)),
            ("seed", lambda p: p.update(seed=1.5)),
            ("input_shape", lambda p: p.update(input_shape=(1, 16.9, 16))),
            ("input_shape", lambda p: p.update(input_shape=(1, 15, 16))),  # does not pool through two stages
            (r"conv_weights\[0\] must be a finite \(C, 2, 3, 3\)", lambda p: p.update(input_shape=(2, 16, 16))),
            ("eps", lambda p: p.update(eps=1e-50)),  # 0 in float32
            ("source_stats", lambda p: p.update(source_stats=p["source_stats"][:1])),
            (r"source_stats\[1\] must have 16 channels", lambda p: p.update(source_stats=[p["source_stats"][0], *identity_stats([8])])),
            (r"source_stats\[0\].*eps", lambda p: p.update(source_stats=[*identity_stats([8], eps=1e-4), p["source_stats"][1]])),
            (r"conv_weights\[1\]", lambda p: p.update(conv_weights=[p["conv_weights"][0], np.ones((16, 4, 3, 3))])),
            (r"conv_weights\[0\]", lambda p: p.update(conv_weights=[np.full((8, 1, 3, 3), np.inf), p["conv_weights"][1]])),
            ("head must take the 256 pooled features", lambda p: p.update(head=LinearHead(np.zeros((10, 100)), np.zeros(10), 1.0))),
        ],
    )
    def test_bad_part_named(self, default_setup, field, edit):
        parts = parts_of(default_setup[1])
        edit(parts)
        with pytest.raises(ValueError, match=field):
            Network(**parts)

    @pytest.mark.parametrize(
        "field, weight, bias, ridge_lambda",
        [
            ("num_classes", np.ones((1, 4)), np.ones(1), 1.0),
            ("head", np.ones((2, 4)), np.ones(3), 1.0),
            ("head", np.ones(4), np.ones(4), 1.0),
            ("head", np.full((2, 4), np.nan), np.ones(2), 1.0),
            ("ridge_lambda", np.ones((2, 4)), np.ones(2), 0.0),
        ],
    )
    def test_bad_head_named(self, field, weight, bias, ridge_lambda):
        with pytest.raises(ValueError, match=field):
            LinearHead(weight, bias, ridge_lambda)

    def test_every_accepted_network_round_trips_bitwise(self, tmp_path):
        # what the constructor accepts, `load_model` reads back: float64 parts, integral-float seeds, a tiny or
        # large eps, non-identity affine terms, three stages on a non-square input
        rng = np.random.default_rng(31)

        def affine_stats(channels, eps):
            return [SourceStats(ChannelStats(rng.normal(size=c), rng.uniform(0, 3, c)), rng.normal(size=c), rng.normal(size=c), eps)
                    for c in channels]

        cases = [
            (kernels(1), identity_stats((4, 8)), (1, 8, 8), 0, 1e-5, 3),
            ([w.astype(np.float64) for w in kernels(2)], affine_stats((4, 8), 2.0**-149), (1, 8, 8), 7.0, 2.0**-149, 2),
            (kernels(3, (3, 5, 2), c_in=2), affine_stats((3, 5, 2), 0.5), (2, 8, 16), 2**40, 0.5, 4),
            (kernels(4, (6,)), affine_stats((6,), 1e-3), [1, 2, 6], 5, 1e-3, 7),
        ]
        for i, (weights, stats, shape, seed, eps, k) in enumerate(cases):
            width = weights[-1].shape[0] * (shape[1] >> len(weights)) * (shape[2] >> len(weights))
            head = LinearHead(rng.normal(size=(k, width)), rng.normal(size=k), rng.uniform(0.1, 2.0))
            net = Network(weights, stats, head, shape, seed, eps)
            save_model(net, tmp_path / f"{i}.nnm")
            loaded, _ = load_model(tmp_path / f"{i}.nnm")
            assert (loaded.input_shape, loaded.seed, loaded.eps) == (net.input_shape, net.seed, net.eps), i
            assert loaded.head.ridge_lambda == net.head.ridge_lambda, i
            for ours, theirs in zip(_tensor_arrays(net), _tensor_arrays(loaded)):
                assert same_bits(ours, theirs), i
            x = rng.normal(size=(5, *shape)).astype(np.float32)
            for mode in MODES:
                assert same_bits(net.forward(x, NormalizerConfig(mode=mode)), loaded.forward(x, NormalizerConfig(mode=mode))), (i, mode)

    def test_an_accepted_network_whose_sbn_features_overflow_raises_at_exit(self):
        # zero source variances over eps 2**-149 scale each sbn channel by ~2**74, so two stages overflow float32;
        # the constructor accepts the network, and the exit check names the overflow
        eps = 2.0**-149
        stats = [SourceStats.with_identity_affine(ChannelStats(np.zeros(2), np.zeros(2)), eps) for _ in range(2)]
        net = Network(kernels(5, (2, 2)), stats, LinearHead(np.ones((2, 8)), np.zeros(2), 1.0), (1, 8, 8), 0, eps)
        x = np.random.default_rng(0).normal(size=(4, 1, 8, 8)).astype(np.float32)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="stages overflowed"):
            net.forward(x, NormalizerConfig(mode="sbn"))
        for mode in ("tbn", "find"):
            assert np.isfinite(net.forward(x, NormalizerConfig(mode=mode))).all(), mode


@st.composite
def generated_networks(draw):
    """A network the constructor accepts: 1-3 stages of 1-5 channels on a 1-3 channel input whose sides pool evenly,
    a seed up to 2**53 (int or integral float), an eps from 2**-149 to 1, 2-6 classes, float32 or float64 parts, random
    source moments (zero variances among them) and affine terms, and a ridge lambda over twelve decades."""
    channels = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    stages = len(channels)
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)) << stages, draw(st.integers(1, 3)) << stages)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    weights = [w.astype(dtype) for w in kernels(int(rng.integers(2**31)), channels, c_in=shape[0])]
    eps = draw(st.sampled_from([2.0**-149, 1e-8, 1e-5, 0.5, 1.0]))
    stats = [SourceStats(ChannelStats(rng.normal(scale=5.0, size=c), rng.uniform(0, 3, c) * rng.integers(0, 2, c)),
                         rng.normal(size=c).astype(dtype), rng.normal(size=c).astype(dtype), eps) for c in channels]
    width = channels[-1] * (shape[1] >> stages) * (shape[2] >> stages)
    k = draw(st.integers(2, 6))
    head = LinearHead(rng.normal(size=(k, width)).astype(dtype), rng.normal(size=k), 10.0 ** rng.uniform(-6, 6))
    seed = draw(st.integers(0, 2**53))
    return Network(weights, stats, head, shape, float(seed) if draw(st.booleans()) else seed, eps)


class TestGeneratedRoundTrips:
    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(generated_networks())
    def test_every_generated_network_round_trips_bitwise(self, tmp_path_factory, net):
        path = tmp_path_factory.mktemp("nets") / "net.nnm"
        save_model(net, path)
        loaded, _ = load_model(path)
        assert (loaded.input_shape, loaded.seed, loaded.eps, loaded.channels) == (net.input_shape, net.seed, net.eps, net.channels)
        assert type(loaded.seed) is type(net.seed) is int and loaded.head.ridge_lambda == net.head.ridge_lambda
        for ours, theirs in zip(_tensor_arrays(net), _tensor_arrays(loaded), strict=True):
            assert same_bits(ours, theirs)
        x = np.random.default_rng(net.seed % 2**32).normal(size=(3, *net.input_shape)).astype(np.float32)
        for mode in MODES:
            assert logits_or_error(net, x, mode) == logits_or_error(loaded, x, mode), mode


def logits_or_error(net, x, mode):
    """The bytes of the logits, or the message of the ValueError a forward raises on features that overflow (a zero
    source variance over a tiny eps scales by ~2**74)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return net.forward(x, NormalizerConfig(mode=mode)).tobytes()
        except ValueError as exc:
            return str(exc)


def _tensor_arrays(net) -> list:
    """Every array a network holds, in a fixed order."""
    arrays = list(net.conv_weights) + [net.head.weight, net.head.bias]
    for src in net.source_stats:
        arrays += [src.stats.mean, src.stats.var, src.affine_scale, src.affine_shift]
    return arrays


class TestCapture:
    def test_identity_kernel_constant_batch(self):
        # center-tap kernel passes the input through, so a constant batch
        # yields constant activations: mean = constant, variance = 0
        w = np.zeros((2, 1, 3, 3), np.float32)
        w[:, 0, 1, 1] = 1.0
        (src,), _ = Network.capture_source_stats([w], (1, 4, 4), [np.full((3, 1, 4, 4), 2.5, np.float32)], 1e-5)
        stats = src.stats
        np.testing.assert_array_equal(stats.mean, [2.5, 2.5])
        np.testing.assert_array_equal(stats.var, [0.0, 0.0])

    def test_two_batches_pool_like_concatenation(self):
        rng = np.random.default_rng(12)
        b1 = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        b2 = rng.normal(size=(12, 1, 8, 8)).astype(np.float32)
        split, _ = Network.capture_source_stats(kernels(12), (1, 8, 8), [b1, b2], 1e-5)
        whole, _ = Network.capture_source_stats(kernels(12), (1, 8, 8), [np.concatenate([b1, b2])], 1e-5)
        split = [(s.stats.mean, s.stats.var) for s in split]
        for k, s in enumerate(whole):
            np.testing.assert_allclose(split[k][0], s.stats.mean, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(split[k][1], s.stats.var, rtol=1e-6, atol=1e-7)

    def test_order_independence(self):
        rng = np.random.default_rng(13)
        batches = [rng.normal(size=(6, 1, 8, 8)).astype(np.float32) for _ in range(3)]
        fwd, _ = Network.capture_source_stats(kernels(13), (1, 8, 8), batches, 1e-5)
        bwd, _ = Network.capture_source_stats(kernels(13), (1, 8, 8), batches[::-1], 1e-5)
        fwd = [(s.stats.mean, s.stats.var) for s in fwd]
        for k, s in enumerate(bwd):
            np.testing.assert_allclose(fwd[k][0], s.stats.mean, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(fwd[k][1], s.stats.var, rtol=1e-6, atol=1e-7)

    def test_capture_twice_identical(self):
        rng = np.random.default_rng(14)
        batches = [rng.normal(size=(6, 1, 8, 8)).astype(np.float32) for _ in range(2)]
        first, feats = Network.capture_source_stats(kernels(14), (1, 8, 8), batches, 1e-5)
        again, feats_again = Network.capture_source_stats(kernels(14), (1, 8, 8), batches, 1e-5)
        first = [(s.stats.mean, s.stats.var) for s in first]
        assert same_bits(feats, feats_again)
        for k, s in enumerate(again):
            assert np.array_equal(first[k][0], s.stats.mean)
            assert np.array_equal(first[k][1], s.stats.var)

    def test_large_offset_matches_scalar_loop_oracle(self):
        # a small spread on a large offset: E[x^2] - E[x]^2 is off by ~1e-5
        # relative here; the center-tap kernel hands the input to the slot unchanged
        rng = np.random.default_rng(19)
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        batches = [
            (np.float32(30000.0) + rng.normal(scale=0.01, size=(n, 1, 8, 8)) + 0.05 * i).astype(np.float32)
            for i, n in enumerate((5, 9, 3))
        ]
        (src,), _ = Network.capture_source_stats([w], (1, 8, 8), batches, 1e-5)
        mean_ref, var_ref = loop_channel_moments(np.concatenate(batches))
        np.testing.assert_allclose(src.stats.mean, mean_ref, rtol=1e-7)
        np.testing.assert_allclose(src.stats.var, var_ref, rtol=1e-6)

    def test_sweep_matches_slot_by_slot_definition(self):
        # slot k's statistics pool the conv maps of inputs re-run through stages 0..k-1
        # at their final statistics; the sweep keeps each batch's activation instead. `build` fits the
        # head on the same sweep's features, so its network holds the same statistics
        clean = StreamScenario(kind="static", domains=[identity_domain()], batch_size=7, num_batches=3, seed=23)
        bank = build_templates(4, seed=5)
        stream = [sample_batch(clean, bank, i) for i in range(clean.total_batches)]
        batches, labels = [b.x for b in stream], np.concatenate([b.labels for b in stream])
        net = Network.build((4, 8, 8), (1, 16, 16), 23, 1e-5, batches, labels, 1e-2, 4)
        stats, feats = Network.capture_source_stats(net.conv_weights, net.input_shape, batches, net.eps)
        sbn = NormalizerConfig(mode="sbn")
        for k in range(net.num_slots):
            parts = []
            for h in batches:
                for j in range(k):
                    h, _ = _stage(conv2d_3x3(h, net.conv_weights[j]), net.source_stats[j], sbn)
                parts.append(sample_moments(conv2d_3x3(h, net.conv_weights[k])))
            sums, m2 = (np.concatenate(p) for p in zip(*parts))
            expected = pooled_stats(sums, m2, (16 >> k) * (16 >> k))
            for src in (stats[k], net.source_stats[k]):
                assert np.array_equal(src.stats.mean, expected.mean), k
                assert np.array_equal(src.stats.var, expected.var), k
        assert np.array_equal(feats, np.concatenate([net.backbone(x, sbn)[0] for x in batches]))
        assert same_bits(net.head.weight, train_linear_head(feats, labels, 1e-2, 4).weight)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="nonempty clean stream"):
            Network.capture_source_stats(kernels(0, (4,)), (1, 4, 4), [], 1e-5)
        with pytest.raises(ValueError, match="one or more conv kernels"):
            Network.capture_source_stats([], (1, 4, 4), [np.ones((2, 1, 4, 4), np.float32)], 1e-5)


class TestSerialization:
    def test_roundtrip_preserves_logits_and_meta(self, tmp_path):
        net, batches = build_trained_net(seed=15)
        path = tmp_path / "model.nnm"
        save_model(net, path, meta={"clean_accuracy": 0.97, "data": {"num_classes": 3}})
        loaded, meta = load_model(path)
        assert meta["clean_accuracy"] == 0.97
        cfg = NormalizerConfig(mode="find")
        assert np.array_equal(net.forward(batches[0], cfg), loaded.forward(batches[0], cfg))

    def test_stock_shapes_roundtrip_logits_bitwise(self, tmp_path):
        net, batches = build_trained_net(seed=20, channels=(8, 16), input_shape=(1, 16, 16), num_classes=10)
        path = tmp_path / "model.nnm"
        save_model(net, path)
        loaded, _ = load_model(path)
        for mode in MODES:
            cfg = NormalizerConfig(mode=mode)
            for x in batches[:3]:
                assert np.array_equal(net.forward(x, cfg), loaded.forward(x, cfg)), mode
        assert net.head.weight.flags.c_contiguous

    def test_header_is_json_line(self, tmp_path):
        import json

        net, _ = build_trained_net(seed=16)
        path = tmp_path / "model.nnm"
        save_model(net, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
        assert header["channels"] == [4, 8]
        assert header["dtype"] == "<f4"
        assert header["seed"] == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.nnm")


def _rewrite_header(path, edit):
    """Apply `edit` to the parsed header of a model file and write it back."""
    import json

    raw = path.read_bytes()
    cut = raw.index(b"\n")
    header = json.loads(raw[:cut].decode("utf-8"))
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + raw[cut:])


class TestModelFileCorruption:
    """Seeded corruptions of a good model file each give one ModelFormatError."""

    @pytest.fixture
    def saved(self, tmp_path):
        net, _ = build_trained_net(seed=21)
        path = tmp_path / "model.nnm"
        save_model(net, path, meta={"note": "ok"})
        return net, path

    def test_good_file_round_trips_bitwise(self, saved, tmp_path):
        net, path = saved
        loaded, meta = load_model(path)
        assert meta == {"note": "ok"}
        assert loaded.channels == net.channels and loaded.input_shape == net.input_shape
        for a, b in zip(net.conv_weights, loaded.conv_weights):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        again = tmp_path / "again.nnm"
        save_model(loaded, again, meta=meta)
        assert again.read_bytes() == path.read_bytes()

    def test_truncation_anywhere(self, saved):
        _, path = saved
        raw = path.read_bytes()
        header_end = raw.index(b"\n")
        rng = np.random.default_rng(61)
        cuts = list(rng.integers(header_end + 1, len(raw), 8)) + [header_end + 1, len(raw) - 1]
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(ModelFormatError, match="payload has"):
                load_model(path)
        path.write_bytes(raw + b"\0\0\0\0")
        with pytest.raises(ModelFormatError, match="payload has"):
            load_model(path)

    def test_cut_header(self, saved):
        _, path = saved
        raw = path.read_bytes()
        rng = np.random.default_rng(62)
        for cut in list(rng.integers(1, raw.index(b"\n"), 6)) + [0]:
            path.write_bytes(raw[:cut])
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_nan_and_inf_bit_flips(self, saved):
        _, path = saved
        raw = path.read_bytes()
        start = raw.index(b"\n") + 1
        rng = np.random.default_rng(63)
        for word in rng.integers(0, (len(raw) - start) // 4, 6):
            for exponent_bits in (0x7F800001, 0x7F800000):  # NaN, then +-Inf
                payload = np.frombuffer(raw[start:], dtype="<u4").copy()
                payload[word] |= np.uint32(exponent_bits)
                path.write_bytes(raw[:start] + payload.tobytes())
                with pytest.raises(ModelFormatError, match="NaN or Inf"):
                    load_model(path)

    def test_sign_flip_in_a_variance(self, saved):
        net, path = saved
        raw = path.read_bytes()
        start = raw.index(b"\n") + 1
        payload = np.frombuffer(raw[start:], dtype="<u4").copy()
        first_var = sum(w.size for w in net.conv_weights) + net.channels[0]  # slot0.var[0]
        assert net.source_stats[0].stats.var[0] > 0
        payload[first_var] |= np.uint32(0x80000000)
        path.write_bytes(raw[:start] + payload.tobytes())
        with pytest.raises(ModelFormatError, match="variance"):
            load_model(path)

    def test_swapped_shape_entries(self, saved):
        _, path = saved
        raw = path.read_bytes()
        for name in ("conv1", "head.weight"):
            def swap(header, name=name):
                for entry in header["tensors"]:
                    if entry[0] == name:
                        entry[1][0], entry[1][1] = entry[1][1], entry[1][0]

            path.write_bytes(raw)
            _rewrite_header(path, swap)
            with pytest.raises(ModelFormatError, match="tensor manifest"):
                load_model(path)

    def test_swapped_entries_of_one_shape(self, saved):
        # slot0.mean and slot0.var share a shape, so only their names tell them apart; the payload is read by position
        _, path = saved

        def swap(header):
            tensors = header["tensors"]
            i, j = [n for n, (name, _) in enumerate(tensors) if name in ("slot0.mean", "slot0.var")]
            tensors[i], tensors[j] = tensors[j], tensors[i]

        _rewrite_header(path, swap)
        with pytest.raises(ModelFormatError, match="tensor manifest"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("channels", [4, 9]),
            ("channels", [4]),
            ("channels", [4, True]),
            ("input_shape", [1, 8, 6]),
            ("num_classes", 4),
            ("dtype", "<f8"),
            ("format", "neighbornorm-model-v0"),
            ("eps", float("inf")),
            ("ridge_lambda", -1.0),
            ("seed", "11"),
        ],
    )
    def test_wrong_header_field(self, saved, field, value):
        _, path = saved
        _rewrite_header(path, lambda header: header.__setitem__(field, value))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "key", ["format", "dtype", "seed", "eps", "input_shape", "channels", "num_classes", "ridge_lambda", "tensors"]
    )
    def test_missing_header_field(self, saved, key):
        _, path = saved
        _rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_meta_not_an_object(self, saved):
        _, path = saved
        _rewrite_header(path, lambda header: header.__setitem__("meta", ["note", "ok"]))
        with pytest.raises(ModelFormatError, match="meta must be an object"):
            load_model(path)

    @pytest.mark.parametrize("section", ["data", "train"])
    def test_meta_section_not_an_object(self, saved, section):
        _, path = saved
        _rewrite_header(path, lambda header: header["meta"].__setitem__(section, ["note"]))
        with pytest.raises(ModelFormatError, match=f"meta.{section} must be an object"):
            load_model(path)

    def test_wrong_header_input_shape_that_does_not_pool(self, saved):
        # the manifest matches the new shape, so only the pooling rule can reject it
        net, path = saved

        def edit(header):
            header["input_shape"] = [1, 10, 16]  # 10 does not halve through both stages
            for name, shape in header["tensors"]:
                if name == "head.weight":
                    shape[1] = net.channels[-1] * (10 // 4) * (16 // 4)

        _rewrite_header(path, edit)
        with pytest.raises(ModelFormatError, match="pool evenly"):
            load_model(path)

    def test_float_tensor_dim(self, saved):
        # equal to the int save_model writes, but a float size would slice the payload with a float
        _, path = saved
        _rewrite_header(path, lambda header: header["tensors"][0][1].__setitem__(0, 4.0))
        with pytest.raises(ModelFormatError, match="JSON integers"):
            load_model(path)

    def test_is_a_value_error(self):
        assert issubclass(ModelFormatError, ValueError)


# Run in a fresh interpreter under two BLAS threads: only OpenBLAS has started threads right after numpy's import, so
# those are its workers. Set up a small network, let the worker's spin after the ridge solve decay, then stream 50
# B=256 batches in sbn and find as `run_experiment` does, a stack and its stem at a time, and print the workers' CPU
# clock ticks (utime + stime) over the stream.
WORKER_TICKS = """
import os, time
import numpy as np

workers = [tid for tid in os.listdir("/proc/self/task") if int(tid) != os.getpid()]


def ticks():
    total = 0
    for tid in workers:
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total


from neighbornorm.model import Network
from neighbornorm.normalization import NormalizerConfig
from neighbornorm.stream import StreamScenario, build_templates, identity_domain, iter_stacks

rng = np.random.default_rng(0)
clean = [rng.normal(size=(64, 1, 16, 16)).astype(np.float32) for _ in range(4)]
net = Network.build((8, 16), (1, 16, 16), 0, 1e-5, clean, rng.integers(0, 10, 256), 1e-2, 10)
bank, stream = build_templates(10, seed=1), StreamScenario("static", [identity_domain()], batch_size=256, num_batches=50)
time.sleep(1.0)
before = ticks()
for cfg in (NormalizerConfig(mode="sbn"), NormalizerConfig(mode="find")):
    for stack, result in iter_stacks(stream, bank, net.stem(cfg)):
        net.forward(result(), cfg, segment=256)
print(len(workers), ticks() - before)
"""

# The similarity matrix of two batches above 250 samples whose size is no multiple of 8, hashed.
SIMILARITY_HASH = """
import hashlib
import numpy as np
from neighbornorm.grouping import cosine_similarity_matrix

rng = np.random.default_rng(5)
sims = [cosine_similarity_matrix(rng.normal(size=(b, 16)) + 1.0) for b in (300, 500)]
print(hashlib.sha256(b"".join(sim.tobytes() for sim in sims)).hexdigest())
"""


class TestBlasThreadsInTheStreamLoop:
    @staticmethod
    def run_script(script, threads):
        nproc = len(os.sched_getaffinity(0))
        if nproc < 2 or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs two cores and /proc/self/task")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        return subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True).stdout

    def test_b256_stream_leaves_the_blas_worker_idle(self):
        # every BLAS product in the loop is at most 64 rows, below OpenBLAS's threading size (the head makes none),
        # so its worker never wakes and the stream's noise worker keeps the second core; whole B=256 products kept
        # it busy for 30+ ticks
        workers, ticks = map(int, self.run_script(WORKER_TICKS, 2).split())
        if not workers:
            pytest.skip("the BLAS library started no worker threads")
        assert ticks <= 5

    def test_similarity_does_not_depend_on_blas_threads(self):
        # single-threaded blocks give the same bits under any thread count; a whole-batch GEMM above ~1e6
        # multiply-adds splits its rows by thread count, and did round differently under 1 and 2 threads
        assert self.run_script(SIMILARITY_HASH, 1) == self.run_script(SIMILARITY_HASH, 2)
