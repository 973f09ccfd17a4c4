"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The module tracks its
own wall clock; the final test enforces the whole-suite time budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from neighbornorm.grouping import (
    cosine_similarity_matrix,
    first_neighbor_partition,
    instance_channel_means,
)
from neighbornorm.harness import (
    batch_size_sweep,
    compare_modes,
    predictions_at,
    run_experiment,
    write_metrics,
)
from neighbornorm.model import conv2d_3x3
from neighbornorm.normalization import NormalizerConfig, SourceStats, apply_normalizer
from neighbornorm.sensitivity import gaussian_kl_per_channel, layer_gate, sensitivity_score
from neighbornorm.stream import StreamScenario, sample_batch
from neighbornorm.tensors import ChannelStats, channel_moments

from conftest import separated_bank, separated_domains
from oracles import union_find_partition

_SUITE_T0 = time.time()


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {criterion}: PASS{suffix}")


def unit_source(c, mean=0.0, var=1.0, eps=1e-5):
    return SourceStats.with_identity_affine(
        ChannelStats(np.full(c, mean, np.float32), np.full(c, var, np.float32)), eps=eps
    )


def test_criterion_1_clustering_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    for _ in range(200):
        b = int(rng.integers(2, 65))
        c = int(rng.integers(1, 33))
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        loc = rng.normal(size=(b, 1, 1, 1))
        x = (loc + rng.normal(size=(b, c, h, w))).astype(np.float32)
        ours = [g.tolist() for g in first_neighbor_partition(x).groups]
        assert ours == union_find_partition(x)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("criterion 1 clustering-oracle-equivalence", f"200 batches, {elapsed:.1f}s")


def test_criterion_2_mode_degeneracies(default_setup):
    cfg, net, bank, _ = default_setup
    rng = np.random.default_rng(777)
    src = unit_source(6, mean=0.2, var=1.7)

    def normalized(x, mode, alpha=0.8):
        return apply_normalizer(x, src, NormalizerConfig(mode=mode, alpha=alpha))

    # a single-group find batch (16 copies of one sample) vs alpha_bn: bitwise
    one = np.repeat(rng.normal(size=(1, 6, 4, 4)).astype(np.float32), 16, axis=0)
    grouped, trace = normalized(one, "find")
    assert trace.cluster_count == 1
    assert np.array_equal(grouped, normalized(one, "alpha_bn")[0])

    # alpha limits are exact
    x = rng.normal(size=(16, 6, 4, 4)).astype(np.float32)
    assert np.array_equal(normalized(x, "alpha_bn", 0.0)[0], normalized(x, "tbn")[0])
    assert np.array_equal(normalized(x, "alpha_bn", 1.0)[0], normalized(x, "sbn")[0])

    # find_star degeneracies over a stream, identical calibration
    sc = replace(cfg.scenario, num_batches=14)

    def stream_logits(ncfg):
        scores, gating, out = [], None, []
        for i in range(sc.total_batches):
            logits, traces = net.forward(sample_batch(sc, bank, i).x, ncfg, gating=gating, collect_traces=True)
            if ncfg.mode == "find_star" and gating is None:
                kls = [gaussian_kl_per_channel(tr.batch_stats, src.stats) for tr, src in zip(traces, net.source_stats)]
                scores.append([sensitivity_score(kl) for kl in kls])
                if len(scores) == ncfg.cold_start_batches:
                    gating = [r["partition_enabled"] for r in layer_gate(scores, ncfg.gamma_threshold)]
            out.append(logits)
        return out

    find_logits = stream_logits(NormalizerConfig(mode="find", alpha=0.8))
    star_zero = stream_logits(NormalizerConfig(mode="find_star", alpha=0.8, gamma_threshold=0.0))
    for a, b in zip(find_logits, star_zero):
        assert np.array_equal(a, b)

    alpha_logits = stream_logits(NormalizerConfig(mode="alpha_bn", alpha=0.8))
    star_high = stream_logits(NormalizerConfig(mode="find_star", alpha=0.8, gamma_threshold=1.5))
    for i in range(10, sc.total_batches):  # after the 10-batch cold start
        assert np.array_equal(star_high[i], alpha_logits[i])

    _report("criterion 2 mode-degeneracies")


def test_criterion_3_normalization_moments():
    rng = np.random.default_rng(31337)
    checked = 0
    for _ in range(100):
        b = int(rng.integers(2, 20))
        c = int(rng.integers(1, 8))
        h = int(rng.integers(2, 6))
        w = int(rng.integers(2, 6))
        loc = rng.normal(scale=2.0, size=(b, c, 1, 1))
        scale = rng.uniform(0.5, 2.0, size=(1, c, 1, 1))
        x = (loc + scale * rng.normal(size=(b, c, h, w))).astype(np.float32)
        out, trace = apply_normalizer(x, unit_source(c), NormalizerConfig(mode="find", alpha=0.0))
        groups = first_neighbor_partition(x).groups
        assert trace.cluster_count == len(groups)
        for g in groups:
            if len(g) * h * w < 16:
                continue
            stats = channel_moments(out[g])
            assert np.abs(stats.mean).max() <= 1e-4
            assert np.abs(stats.var - 1.0).max() <= 1e-3
            checked += 1
    assert checked >= 100
    _report("criterion 3 normalization-moments", f"{checked} group checks")


def test_criterion_4_scalar_unit_values():
    def stats(mean, var):
        return ChannelStats(np.array([mean], np.float32), np.array([var], np.float32))

    cases = [
        (stats(0.5, 2.0), stats(0.5, 2.0), 0.0),
        (stats(1.0, 1.0), stats(0.0, 1.0), 0.5),
        (stats(0.0, 4.0), stats(0.0, 1.0), 2.0 - math.log(2.0) - 0.5),
    ]
    for target, source, expected in cases:
        kl = gaussian_kl_per_channel(target, source)
        assert abs(float(kl[0]) - expected) <= 1e-9

    for k in (0.25, 1.0, 3.0):
        assert abs(sensitivity_score(np.full(4, k)) - 1.5 * k) <= 1e-9
    score = sensitivity_score(np.array([0.0, 2.0]))  # mean 1, population std 1
    assert abs(score - (1.0 + 1.0 / (1.0 + math.exp(-1.0)))) <= 1e-9
    _report("criterion 4 scalar-unit-values")


def test_criterion_5_purity_under_separation(default_setup):
    _, net, _, _ = default_setup
    batches_checked = 0
    for m in (2, 5):
        for seed in range(20):
            bank = separated_bank(seed)
            sc = StreamScenario(
                kind="cross_mix", domains=separated_domains(m), batch_size=64, num_batches=5, seed=seed
            )
            for i in range(sc.num_batches):
                batch = sample_batch(sc, bank, i)
                h = conv2d_3x3(batch.x, net.conv_weights[0])  # slot-0 input

                # construction precondition: every sample's best same-domain
                # similarity beats its best cross-domain similarity
                sim = cosine_similarity_matrix(instance_channel_means(h))
                np.fill_diagonal(sim, -np.inf)
                same = batch.domain_ids[:, None] == batch.domain_ids[None, :]
                best_same = np.where(same, sim, -np.inf).max(axis=1)
                best_cross = np.where(~same, sim, -np.inf).max(axis=1)
                assert (best_same > best_cross).all()

                part = first_neighbor_partition(h)
                for g in part.groups:
                    assert len(set(batch.domain_ids[g].tolist())) == 1
                batches_checked += 1
    _report("criterion 5 purity-under-separation", f"{batches_checked} batches, M in {{2,5}}, 20 seeds")


def test_criterion_6_directional_experiment(default_setup):
    cfg, net, bank, meta = default_setup
    assert cfg.scenario.kind == "cross_mix"
    assert cfg.scenario.num_domains == 5
    assert all(d.severity == 5 for d in cfg.scenario.domains)
    assert cfg.scenario.num_batches == 200 and cfg.scenario.batch_size == 64

    t0 = time.time()
    rows = compare_modes(net, bank, cfg.scenario, cfg.normalizer, seeds=cfg.seeds)
    elapsed = time.time() - t0
    acc = {r["mode"]: r["mean_accuracy"] for r in rows}

    assert acc["find"] >= acc["alpha_bn"] >= acc["tbn"]
    assert acc["find"] >= acc["sbn"]
    assert acc["find"] - acc["tbn"] >= 0.02
    # severity table is strong enough to hurt the frozen-statistics baseline
    assert meta["clean_accuracy"] - acc["sbn"] >= 0.15
    assert elapsed <= 180.0

    table = "  ".join(f"{r['mode']}={r['mean_accuracy']:.4f}+-{r['std_accuracy']:.4f}" for r in rows)
    _report("criterion 6 directional-experiment", f"{table}; {elapsed:.0f}s")


def test_criterion_7_batch_size_stability(default_setup):
    cfg, net, bank, _ = default_setup
    sc = replace(cfg.scenario, num_batches=100)  # 6400-sample budget per size
    rows = batch_size_sweep(net, bank, sc, replace(cfg.normalizer, mode="find"), batch_sizes=(1, 4, 16, 64))
    accs = [r["mean_accuracy"] for r in rows]
    spread = max(accs) - min(accs)
    assert spread <= 0.05
    detail = "  ".join(f"B={r['batch_size']}:{r['mean_accuracy']:.4f}" for r in rows)
    _report("criterion 7 batch-size-stability", f"{detail}; spread={spread:.4f}")


def test_criterion_8_determinism_and_streaming(default_setup, tmp_path):
    cfg, net, bank, _ = default_setup
    sc = replace(cfg.scenario, num_batches=30)
    for mode in ("find", "find_star"):
        ncfg = replace(cfg.normalizer, mode=mode)
        rec_a = run_experiment(net, bank, sc, ncfg)
        rec_b = run_experiment(net, bank, sc, ncfg)
        write_metrics(rec_a, tmp_path / f"{mode}_a")
        write_metrics(rec_b, tmp_path / f"{mode}_b")
        assert (tmp_path / f"{mode}_a.json").read_bytes() == (tmp_path / f"{mode}_b.json").read_bytes()
        assert (tmp_path / f"{mode}_a.csv").read_bytes() == (tmp_path / f"{mode}_b.csv").read_bytes()

        for t in (0, 5, 12, 29):  # history before t is never needed
            assert np.array_equal(predictions_at(net, bank, sc, ncfg, t), rec_a.predictions[t])
    _report("criterion 8 determinism-and-streaming")


def test_criterion_9_suite_time_budget():
    elapsed = time.time() - _SUITE_T0
    assert elapsed <= 300.0
    _report("criterion 9 suite-time-budget", f"{elapsed:.0f}s <= 300s")
