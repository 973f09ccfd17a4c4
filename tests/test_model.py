from dataclasses import replace

import numpy as np
import pytest

from neighbornorm.model import (
    ModelFormatError,
    Network,
    avg_pool_2x2,
    conv2d_3x3,
    load_model,
    save_model,
    train_linear_head,
)
from neighbornorm.normalization import NormalizerConfig, SourceStats, apply_normalizer
from neighbornorm.stream import StreamScenario, build_templates, identity_domain, iter_batches, sample_batch
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
    net = Network.build(channels=channels, input_shape=input_shape, seed=seed)
    batches = [rng.normal(size=(batch,) + input_shape).astype(np.float32) for _ in range(n_batches)]
    labels = [rng.integers(0, num_classes, batch) for _ in range(n_batches)]
    feats = net.capture_source_stats(batches)
    net.head = train_linear_head(feats, np.concatenate(labels), 1e-2, num_classes=num_classes)
    return net, batches


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

    @pytest.mark.parametrize("b", [1, 64, 256])
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
        net = Network([w], input_shape=(1, 2, 2), seed=0, eps=1e-30)
        net.source_stats[0] = SourceStats.with_identity_affine(ChannelStats(np.zeros(1), np.ones(1)), eps=1e-30)
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


class TestNetworkForward:
    def test_zero_input_propagates_to_bias(self):
        net = Network.build(channels=(4, 8), input_shape=(1, 8, 8), seed=5)
        for k, c in enumerate(net.channels):
            net.source_stats[k] = SourceStats.with_identity_affine(
                ChannelStats(np.zeros(c, np.float32), np.ones(c, np.float32))
            )
        bias = np.array([0.5, -1.0, 2.0], np.float32)
        from neighbornorm.model import LinearHead

        x = np.zeros((4, 1, 8, 8), np.float32)
        width = net.backbone(x, NormalizerConfig(mode="sbn"))[0].shape[1]
        assert width == 8 * 2 * 2  # last stage's channels times the twice-pooled 8x8 input
        net.head = LinearHead(weight=np.ones((3, width), np.float32), bias=bias, ridge_lambda=1.0)
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
        net, batches = build_trained_net(seed=11)
        net.source_stats[0] = SourceStats.with_identity_affine(ChannelStats(np.zeros(1), np.ones(1)))  # would broadcast
        with pytest.raises(ValueError, match="channels"):
            net.forward(batches[0], NormalizerConfig(mode="sbn"))

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
                Network.build(seed=11).capture_source_stats([x])
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
        # past 64 samples the backbone runs each stage per block; the chain of public kernels runs it
        # on the whole batch, so a block edge that leaked into grouping or statistics would show here
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
        # sbn uses only frozen source statistics, so a sample's features alone are bitwise its row in a
        # stock batch, across block edges at B=256 too. Logits are not: the head matmul rounds
        # differently for one row (M=1) than for a batch (M=B).
        net, sbn = default_setup[1], NormalizerConfig(mode="sbn")
        for b in (64, 256):
            x = stock_batch(default_setup, b, index=1)
            feats, _ = net.backbone(x, sbn)
            for i in range(b):
                assert same_bits(net.backbone(x[i : i + 1], sbn)[0][0], feats[i]), (b, i)


class TestCapture:
    def test_identity_kernel_constant_batch(self):
        # center-tap kernel passes the input through, so a constant batch
        # yields constant activations: mean = constant, variance = 0
        w = np.zeros((2, 1, 3, 3), np.float32)
        w[:, 0, 1, 1] = 1.0
        net = Network([w], input_shape=(1, 4, 4), seed=0)
        net.capture_source_stats([np.full((3, 1, 4, 4), 2.5, np.float32)])
        stats = net.source_stats[0].stats
        np.testing.assert_array_equal(stats.mean, [2.5, 2.5])
        np.testing.assert_array_equal(stats.var, [0.0, 0.0])

    def test_two_batches_pool_like_concatenation(self):
        rng = np.random.default_rng(12)
        net = Network.build(channels=(4, 8), input_shape=(1, 8, 8), seed=12)
        b1 = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        b2 = rng.normal(size=(12, 1, 8, 8)).astype(np.float32)
        net.capture_source_stats([b1, b2])
        split = [(s.stats.mean.copy(), s.stats.var.copy()) for s in net.source_stats]
        net.capture_source_stats([np.concatenate([b1, b2])])
        for k, s in enumerate(net.source_stats):
            np.testing.assert_allclose(split[k][0], s.stats.mean, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(split[k][1], s.stats.var, rtol=1e-6, atol=1e-7)

    def test_order_independence(self):
        rng = np.random.default_rng(13)
        net = Network.build(channels=(4, 8), input_shape=(1, 8, 8), seed=13)
        batches = [rng.normal(size=(6, 1, 8, 8)).astype(np.float32) for _ in range(3)]
        net.capture_source_stats(batches)
        fwd = [(s.stats.mean.copy(), s.stats.var.copy()) for s in net.source_stats]
        net.capture_source_stats(batches[::-1])
        for k, s in enumerate(net.source_stats):
            np.testing.assert_allclose(fwd[k][0], s.stats.mean, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(fwd[k][1], s.stats.var, rtol=1e-6, atol=1e-7)

    def test_capture_twice_identical(self):
        rng = np.random.default_rng(14)
        net = Network.build(channels=(4, 8), input_shape=(1, 8, 8), seed=14)
        batches = [rng.normal(size=(6, 1, 8, 8)).astype(np.float32) for _ in range(2)]
        net.capture_source_stats(batches)
        first = [(s.stats.mean.copy(), s.stats.var.copy()) for s in net.source_stats]
        net.capture_source_stats(batches)
        for k, s in enumerate(net.source_stats):
            assert np.array_equal(first[k][0], s.stats.mean)
            assert np.array_equal(first[k][1], s.stats.var)

    def test_large_offset_matches_scalar_loop_oracle(self):
        # a small spread on a large offset: E[x^2] - E[x]^2 is off by ~1e-5
        # relative here; the center-tap kernel hands the input to the slot unchanged
        rng = np.random.default_rng(19)
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        net = Network([w], input_shape=(1, 8, 8), seed=0)
        batches = [
            (np.float32(30000.0) + rng.normal(scale=0.01, size=(n, 1, 8, 8)) + 0.05 * i).astype(np.float32)
            for i, n in enumerate((5, 9, 3))
        ]
        net.capture_source_stats(batches)
        mean_ref, var_ref = loop_channel_moments(np.concatenate(batches))
        np.testing.assert_allclose(net.source_stats[0].stats.mean, mean_ref, rtol=1e-7)
        np.testing.assert_allclose(net.source_stats[0].stats.var, var_ref, rtol=1e-6)

    def test_sweep_matches_slot_by_slot_definition(self):
        # slot k's statistics pool the conv maps of inputs re-run through stages 0..k-1
        # at their final statistics; the sweep keeps each batch's activation instead
        net = Network.build(channels=(4, 8, 8), seed=23)
        clean = StreamScenario(kind="static", domains=[identity_domain()], batch_size=7, num_batches=3, seed=23)
        batches = [b.x for b in iter_batches(clean, build_templates(4, seed=5))]
        feats = net.capture_source_stats(batches)
        sbn = NormalizerConfig(mode="sbn")
        for k in range(net.num_slots):
            parts = []
            for h in batches:
                for j in range(k):
                    h, _ = net._stage(h, j, sbn)
                parts.append(sample_moments(conv2d_3x3(h, net.conv_weights[k])))
            sums, m2 = (np.concatenate(p) for p in zip(*parts))
            expected = pooled_stats(sums, m2, (16 >> k) * (16 >> k))
            assert np.array_equal(net.source_stats[k].stats.mean, expected.mean), k
            assert np.array_equal(net.source_stats[k].stats.var, expected.var), k
        assert np.array_equal(feats, np.concatenate([net.backbone(x, sbn)[0] for x in batches]))

    def test_empty_stream_rejected(self):
        net = Network.build(channels=(4,), input_shape=(1, 4, 4), seed=0)
        with pytest.raises(ValueError):
            net.capture_source_stats([])


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

    def test_is_a_value_error(self):
        assert issubclass(ModelFormatError, ValueError)
