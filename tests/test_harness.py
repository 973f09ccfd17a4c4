import csv
import json
import math
import pathlib
import re
import threading
from dataclasses import replace

import numpy as np
import pytest

import neighbornorm.harness as harness
import neighbornorm.model as model
from neighbornorm.harness import (
    ConfigError,
    batch_size_sweep,
    compare_modes,
    dump_diagnostics,
    load_experiment_config,
    predictions_at,
    run_experiment,
    write_metrics,
)
from neighbornorm.normalization import MODES, NormalizerConfig
from neighbornorm.sensitivity import layer_gate
from neighbornorm.stream import LabeledBatch, StreamScenario, identity_domain, sample_batch

from conftest import SMALL_CONFIG, separated_bank, separated_domains
from support import instance_means


class TestConfigLoading:
    def test_defaults_when_no_file(self):
        cfg = load_experiment_config()
        assert cfg.normalizer.mode == "find"
        assert cfg.scenario.kind == "cross_mix"
        assert cfg.seeds == [0, 1, 2, 3, 4]

    def test_missing_file_named(self):
        with pytest.raises(ConfigError, match="nonexistent.json"):
            load_experiment_config("nonexistent.json")

    def test_unknown_field_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"normalizer": {"mode": "find", "momentum": 0.9}}))
        with pytest.raises(ConfigError, match="momentum"):
            load_experiment_config(p)

    def test_invalid_value_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"normalizer": {"alpha": 2.0}}))
        with pytest.raises(ConfigError, match="alpha"):
            load_experiment_config(p)

    def test_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({}))
        cfg = load_experiment_config(p, {"normalizer.mode": "tbn", "scenario.seed": 9})
        assert cfg.normalizer.mode == "tbn"
        assert cfg.scenario.seed == 9

    @pytest.mark.parametrize("doc", ["[1, 2]", '{"scenario": 5}'])
    def test_non_object_named(self, tmp_path, doc):
        p = tmp_path / "c.json"
        p.write_text(doc)
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_experiment_config(p)

    @pytest.mark.parametrize("name", ["out", "model_path"])
    def test_empty_path_rejected(self, tmp_path, name):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({name: ""}))
        for path, overrides in ((p, None), (None, {name: ""})):
            with pytest.raises(ConfigError, match=f"invalid config: {name} must be a nonempty path"):
                load_experiment_config(path, overrides)

    @pytest.mark.parametrize("name", ["out", "model_path"])
    @pytest.mark.parametrize("value", [None, 3, 2.5, True, ["a"], {"a": 1}])
    def test_path_that_is_not_a_string_rejected(self, tmp_path, name, value):
        # str() would turn these into files named `None`, `3`, `True`, `['a']`, ...
        p = tmp_path / "c.json"
        p.write_text(json.dumps({name: value}))
        with pytest.raises(ConfigError, match=f"invalid config: {name} must be a nonempty path string"):
            load_experiment_config(p)
        if value is not None:  # a None override leaves the field alone
            with pytest.raises(ConfigError, match=f"invalid config: {name} must be a nonempty path string"):
                load_experiment_config(None, {name: value})

    def test_path_like_accepted_as_its_string(self, tmp_path):
        cfg = load_experiment_config(None, {"out": tmp_path / "run", "model_path": tmp_path / "m.nnm"})
        assert (cfg.out, cfg.model_path) == (str(tmp_path / "run"), str(tmp_path / "m.nnm"))

    def test_unreachable_template_floor_rejected_at_load(self):
        # the template bank is built, and so checked, when the config is loaded, not first in training
        with pytest.raises(ConfigError, match=re.escape("data.template_min_dist")):
            load_experiment_config(None, {"data.template_min_dist": 1e6})

    def test_explicit_domain_list(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(
            json.dumps(
                {
                    "scenario": {
                        "kind": "static",
                        "domains": [
                            {"id": 0, "contrast": 1.2, "brightness": 0.5, "noise_sigma": 0.1, "severity": 2}
                        ],
                    }
                }
            )
        )
        cfg = load_experiment_config(p)
        assert cfg.scenario.num_domains == 1
        assert cfg.scenario.domains[0].contrast == 1.2


class TestNumericConfigFields:
    """Every numeric field is checked at load; none is truncated, cast or left to fail in training."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scenario.batch_size", 2.5),
            ("scenario.batch_size", True),
            ("scenario.severity", 4.5),
            ("scenario.seed", 1.5),
            ("seeds", [True, 2]),
            ("data.num_classes", 10.5),
            ("model.train_batches", 2.5),
            ("model.eps", True),
            ("scenario.rounds", float("inf")),
            ("model.train_batch_size", True),
            ("model.head_lambda", float("nan")),
        ],
    )
    def test_rejected_at_load(self, tmp_path, field, value):
        section, _, name = field.partition(".")
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {name: value}} if name else {section: value}))
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_experiment_config(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("model.eps", 0.0),
            ("model.channels", [8, 2.5]),
            ("data.input_shape", [1, 16]),
            ("data.base_noise", -0.1),
            ("scenario.dirichlet_delta", float("nan")),
            ("seeds", []),
            ("data.input_shape", [1, 10, 16]),  # 10 does not halve through both stages
            ("model.eps", 1e-50),  # 0 in float32
            ("data.template_seed", -1),
            ("data.template_min_dist", -1.0),
            ("scenario.num_domains", 0),
            ("scenario.num_batches", 0),
            ("model.seed", 1.5),
            ("model.clean_eval_batches", 0),
        ],
    )
    def test_rejected_override(self, field, value):
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_experiment_config(None, {field: value})

    @pytest.mark.parametrize("field, value", [("scenario.num_domains", 0), ("scenario.severity", 7)])
    def test_rejected_beside_explicit_domains(self, field, value):
        # an explicit domain list overrides num_domains and severity, but a bad value is still an error
        domain = {"id": 0, "contrast": 1.2, "brightness": 0.5, "noise_sigma": 0.1, "severity": 2}
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_experiment_config(None, {"scenario.domains": [domain], field: value})

    @pytest.mark.parametrize("key, value", [("brightness", float("nan")), ("severity", True), ("id", 0.5), ("noise_sigma", -1.0)])
    def test_domain_entry_rejected(self, key, value):
        domain = {"id": 0, "contrast": 1.2, "brightness": 0.5, "noise_sigma": 0.1, "severity": 2} | {key: value}
        with pytest.raises(ConfigError, match=key):
            load_experiment_config(None, {"scenario.domains": [domain]})

    def test_domain_entry_named_by_index(self):
        good = {"id": 0, "contrast": 1.2, "brightness": 0.5, "noise_sigma": 0.1, "severity": 2}
        with pytest.raises(ConfigError, match=re.escape("scenario.domains[1].brightness")):
            load_experiment_config(None, {"scenario.domains": [good, good | {"brightness": "dark"}]})
        with pytest.raises(ConfigError, match=re.escape("invalid scenario.domains[0] config")):
            load_experiment_config(None, {"scenario.domains": [{"id": 0}]})

    @pytest.mark.parametrize("value", [[], {}, "", 0, False, "static", {"id": 0}, 5])
    def test_domains_neither_null_nor_a_nonempty_list_rejected(self, tmp_path, value):
        # only null builds the domains from num_domains and severity; an empty or falsy value is no domain list
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"scenario": {"domains": value}}))
        for path, overrides in ((p, None), (None, {"scenario.domains": value})):
            with pytest.raises(ConfigError, match=re.escape("scenario.domains must be null or a nonempty list")):
                load_experiment_config(path, overrides)

    def test_integral_floats_and_null_delta_accepted(self):
        cfg = load_experiment_config(None, {"scenario.batch_size": 8.0, "scenario.dirichlet_delta": None})
        assert cfg.scenario.batch_size == 8 and type(cfg.scenario.batch_size) is int

    @pytest.mark.parametrize("domains", [None, [{"id": 0, "contrast": 1.2, "brightness": 0.5, "noise_sigma": 0.1, "severity": 2}]])
    def test_integral_floats_give_the_same_files_as_ints(self, tmp_path, domains):
        ints = {
            "data": {"num_classes": 4, "template_seed": 7, "input_shape": [1, 16, 16], "template_min_dist": 8},
            "model": {"seed": 11, "channels": [4, 8], "train_batches": 4, "train_batch_size": 16,
                      "train_seed": 101, "clean_eval_batches": 2},
            "scenario": {"num_domains": 3, "severity": 5, "domains": domains, "batch_size": 16,
                         "num_batches": 6, "rounds": 1, "seed": 0},
            "normalizer": {"mode": "find_star", "alpha": 1, "gamma_threshold": 0, "cold_start_batches": 2},
            "seeds": [0],
        }

        def as_floats(value):
            if isinstance(value, dict):
                return {k: as_floats(v) for k, v in value.items()}
            if isinstance(value, list):
                return [as_floats(v) for v in value]
            return float(value) if type(value) is int else value

        files = []
        for name, doc in (("ints", ints), ("floats", as_floats(ints))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc | {"model_path": str(tmp_path / f"{name}.nnm")}))
            cfg = load_experiment_config(path)
            net, bank, meta = harness.train_model(cfg)
            model.save_model(net, cfg.model_path, meta=meta)
            paths = write_metrics(run_experiment(net, bank, cfg.scenario, cfg.normalizer), tmp_path / name)
            files.append([pathlib.Path(p).read_bytes() for p in (cfg.model_path, *paths[:2])])
        assert files[0] == files[1]


def test_train_model_runs_each_stage_once_per_batch(small_setup, monkeypatch):
    # one 2x2 pool per stage: set-up runs the K stages once per training batch (the capture
    # sweep) and once per clean-eval batch, and never again
    cfg = small_setup[0]
    calls = []
    pool = model.avg_pool_2x2
    monkeypatch.setattr(model, "avg_pool_2x2", lambda x, *args, **kwargs: calls.append(x.shape) or pool(x, *args, **kwargs))
    harness.train_model(cfg)
    mc = cfg.model
    assert len(calls) == len(mc["channels"]) * (mc["train_batches"] + mc["clean_eval_batches"]) == 24


class TestRunExperiment:
    def test_sbn_on_clean_static_matches_recorded_baseline(self, small_setup):
        cfg, net, bank, meta, _ = small_setup
        sc = StreamScenario(
            kind="static",
            domains=[identity_domain()],
            batch_size=cfg.model["train_batch_size"],
            num_batches=cfg.model["clean_eval_batches"],
            seed=cfg.model["train_seed"] + 1,
        )
        rec = run_experiment(net, bank, sc, NormalizerConfig(mode="sbn"))
        assert rec.mean_accuracy == meta["clean_accuracy"]

    def test_cluster_counts_only_for_partitioning(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        rec = run_experiment(net, bank, cfg.scenario, NormalizerConfig(mode="find"))
        assert all(c is not None for counts in rec.cluster_counts.values() for c in counts)
        rec = run_experiment(net, bank, cfg.scenario, NormalizerConfig(mode="sbn"))
        assert all(c is None for counts in rec.cluster_counts.values() for c in counts)
        assert rec.cluster_count_summary() == {}

    def test_find_star_cold_start_partitions_everywhere(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        ncfg = NormalizerConfig(mode="find_star", cold_start_batches=4, gamma_threshold=0.1)
        rec = run_experiment(net, bank, cfg.scenario, ncfg)
        assert rec.sensitivity is not None and len(rec.sensitivity) == net.num_slots
        disabled = [r["layer"] for r in rec.sensitivity if not r["partition_enabled"]]
        assert disabled  # two-layer net with min-max scores always gates one layer off at gamma=0.1
        for name, counts in rec.cluster_counts.items():
            k = int(name.removeprefix("slot"))
            assert all(c is not None for c in counts[:4])
            expected_none = k in disabled
            assert all((c is None) == expected_none for c in counts[4:])

    def test_pre_finalization_gating_is_all_on(self, small_setup):
        # gamma 1.5 gates every layer off after the cold start; before it
        # every slot partitions, exactly as find does.
        cfg, net, bank, _, _ = small_setup
        find = run_experiment(net, bank, cfg.scenario, NormalizerConfig(mode="find"))
        ncfg = NormalizerConfig(mode="find_star", cold_start_batches=5, gamma_threshold=1.5)
        star = run_experiment(net, bank, cfg.scenario, ncfg)
        assert not any(r["partition_enabled"] for r in star.sensitivity)
        for name, counts in star.cluster_counts.items():
            assert counts[:5] == find.cluster_counts[name][:5]
            assert all(c is None for c in counts[5:])
        for a, b in zip(star.predictions[:5], find.predictions[:5]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("b", [63, 64, 65, 129])
    def test_pipelined_stream_gives_the_serial_record(self, small_setup, b, mode):
        # from one block up `run_experiment` streams through a worker thread, which runs each batch's stem one
        # batch ahead; its record is a plain loop's, find_star's gate (after a 2-batch cold start) included
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, batch_size=b, num_batches=3, rounds=2)
        ncfg = NormalizerConfig(mode=mode, cold_start_batches=2)
        rec = run_experiment(net, bank, sc, ncfg)
        batches = [sample_batch(sc, bank, i) for i in range(sc.total_batches)]
        gate = None if rec.sensitivity is None else [r["partition_enabled"] for r in rec.sensitivity]
        outs = [net.forward(batch.x, ncfg, gating=gate if i >= 2 else None, collect_traces=True)
                for i, batch in enumerate(batches)]
        if mode == "find_star":
            assert rec.sensitivity == layer_gate([harness._layer_scores(net, traces) for _, traces in outs[:2]],
                                                 ncfg.gamma_threshold)
        else:
            assert rec.sensitivity is None
        preds = [logits.argmax(axis=1) for logits, _ in outs]
        assert rec.mean_accuracy == sum(int(np.count_nonzero(p == batch.labels)) for p, batch in zip(preds, batches)) / (
            b * sc.total_batches)
        assert rec.cluster_counts == {f"slot{k}": [traces[k].cluster_count for _, traces in outs] for k in range(net.num_slots)}
        assert rec.true_domain_counts == [len(set(batch.domain_ids.tolist())) for batch in batches]
        for ours, theirs in zip(rec.predictions, preds, strict=True):
            assert np.array_equal(ours, theirs)

    def test_raising_forward_leaves_no_thread(self, small_setup, monkeypatch):
        # the exception's traceback keeps `run_experiment`'s frame alive; the stream's worker must be joined anyway,
        # whether the forward raises on the calling thread or a batch's stem on the worker
        cfg, net, bank, _, _ = small_setup
        real_forward, real_stem, forwarded, stem_threads = model.Network.forward, model.Network.stem, [], []
        raising = {}  # "forward" or "stem" -> the 1-based batch at which it raises

        def forward(self, stem, *args, **kwargs):
            forwarded.append(stem.conv.shape[0])
            if len(forwarded) == raising.get("forward"):
                raise ArithmeticError("overflow")
            return real_forward(self, stem, *args, **kwargs)

        def stem(self, ncfg):
            prepare = real_stem(self, ncfg)

            def per_batch(x):
                fill, batch = prepare(x), len(stem_threads) + 1
                stem_threads.append(None)

                def work():
                    stem_threads[batch - 1] = threading.current_thread()
                    if batch == raising.get("stem"):
                        raise FloatingPointError("stem overflow")
                    return fill()

                return work

            return per_batch

        monkeypatch.setattr(model.Network, "forward", forward)
        monkeypatch.setattr(model.Network, "stem", stem)
        before = threading.active_count()
        for where, error in (("forward", ArithmeticError), ("stem", FloatingPointError)):
            raising.clear()
            raising[where] = 2 if where == "forward" else 3
            forwarded.clear()
            stem_threads.clear()
            with pytest.raises(error) as info:
                run_experiment(net, bank, replace(cfg.scenario, batch_size=64), cfg.normalizer)
            assert threading.active_count() == before
            assert forwarded == [64, 64] and info.traceback  # the stem's error reaches the caller at batch 3, its own
            assert threading.main_thread() not in stem_threads[:3]  # every stem ran on the worker

    def test_cold_start_longer_than_stream(self, small_setup, tmp_path):
        cfg, net, bank, _, _ = small_setup
        sc = cfg.scenario
        assert sc.total_batches < 30
        ncfg = NormalizerConfig(mode="find_star", cold_start_batches=30)
        rec = run_experiment(net, bank, sc, ncfg)
        assert rec.sensitivity is None
        write_metrics(rec, tmp_path / "m")
        assert json.loads((tmp_path / "m.json").read_text())["sensitivity"] is None
        assert all(c is not None for counts in rec.cluster_counts.values() for c in counts)
        find = run_experiment(net, bank, sc, NormalizerConfig(mode="find"))
        assert rec.cluster_counts == find.cluster_counts
        for a, b in zip(rec.predictions, find.predictions, strict=True):
            assert np.array_equal(a, b)
        for t in (0, sc.total_batches - 1):
            assert np.array_equal(predictions_at(net, bank, sc, ncfg, t), rec.predictions[t])

    def test_accuracy_bounds_and_counts(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        rec = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
        assert 0.0 <= rec.mean_accuracy <= 1.0
        assert rec.num_batches == cfg.scenario.total_batches
        assert len(rec.per_batch_accuracy) == rec.num_batches
        for counts in rec.cluster_counts.values():
            for c in counts:
                assert c is None or 1 <= c <= cfg.scenario.batch_size

    def test_domain_ids_never_influence_predictions(self, small_setup, monkeypatch):
        cfg, net, bank, _, _ = small_setup
        baseline = run_experiment(net, bank, cfg.scenario, cfg.normalizer)

        real, streamed = harness.iter_batches, []

        def scrambled(scenario, the_bank, stem):
            for b, stemmed in real(scenario, the_bank, stem):
                streamed.append(b)
                yield LabeledBatch(x=b.x, labels=b.labels, domain_ids=b.domain_ids[::-1].copy()), stemmed

        monkeypatch.setattr(harness, "iter_batches", scrambled)
        scrambled_rec = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
        assert len(streamed) == cfg.scenario.total_batches
        for a, b in zip(baseline.predictions, scrambled_rec.predictions):
            assert np.array_equal(a, b)

    def test_streaming_drop_history(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        for mode, cold in (("find", 10), ("find_star", 4), ("tbn", 10)):
            ncfg = NormalizerConfig(mode=mode, cold_start_batches=cold)
            rec = run_experiment(net, bank, cfg.scenario, ncfg)
            for t in (0, 3, 7, cfg.scenario.total_batches - 1):
                fresh = predictions_at(net, bank, cfg.scenario, ncfg, t)
                assert np.array_equal(fresh, rec.predictions[t])


class TestCompareAndSweep:
    def test_rows_shape(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        rows = compare_modes(net, bank, cfg.scenario, cfg.normalizer, seeds=cfg.seeds)
        assert [r["mode"] for r in rows] == ["sbn", "tbn", "alpha_bn", "find", "find_star"]
        for r in rows:
            assert len(r["per_seed_accuracy"]) == len(cfg.seeds)
            assert 0.0 <= r["mean_accuracy"] <= 1.0

    def test_find_star_gamma_zero_row_equals_find(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        ncfg = replace(cfg.normalizer, gamma_threshold=0.0, cold_start_batches=3)
        rows = compare_modes(net, bank, cfg.scenario, ncfg, modes=("find", "find_star"), seeds=(0, 1))
        assert rows[0]["per_seed_accuracy"] == rows[1]["per_seed_accuracy"]

    def test_std_is_the_population_std(self, small_setup):
        # the JSON reports the spread of the seeds run, not an estimate over more seeds: ddof=0
        cfg, net, bank, _, _ = small_setup
        rows = compare_modes(net, bank, cfg.scenario, cfg.normalizer, modes=("sbn", "find"), seeds=(0, 1, 2))
        for r in rows:
            accs = r["per_seed_accuracy"]
            mean = sum(accs) / len(accs)
            assert r["std_accuracy"] == pytest.approx(math.sqrt(sum((a - mean) ** 2 for a in accs) / len(accs)), rel=1e-12)
        assert any(r["std_accuracy"] > 0 for r in rows)

    def test_batch_size_sweep_fixed_budget(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, num_batches=4, batch_size=32)
        rows = batch_size_sweep(net, bank, sc, cfg.normalizer, batch_sizes=(1, 4, 16, 32))
        assert [r["batch_size"] for r in rows] == [1, 4, 16, 32]
        assert len({r["num_samples"] for r in rows}) == 1

    @pytest.mark.parametrize("seeds", [(1.7, True), (), [0, -1], "01"])
    def test_compare_modes_rejects_bad_seeds(self, small_setup, seeds):
        # a fraction or a bool would run as a cast seed, and no seeds at all as a NaN row
        cfg, net, bank, _, _ = small_setup
        with pytest.raises(ValueError, match="seeds"):
            compare_modes(net, bank, cfg.scenario, cfg.normalizer, seeds=seeds)

    def test_compare_modes_rejects_bad_mode_before_any_batch(self, small_setup, monkeypatch):
        cfg, net, bank, _, _ = small_setup
        monkeypatch.setattr(harness, "run_experiment", lambda *args: pytest.fail("streamed a batch"))
        with pytest.raises(ValueError, match="bogus"):
            compare_modes(net, bank, cfg.scenario, cfg.normalizer, modes=("sbn", "bogus"), seeds=(0, 1))

    @pytest.mark.parametrize("sizes", [(2.9, True), (), [4, 0]])
    def test_batch_size_sweep_rejects_bad_sizes(self, small_setup, sizes):
        cfg, net, bank, _, _ = small_setup
        with pytest.raises(ValueError, match="batch_sizes"):
            batch_size_sweep(net, bank, cfg.scenario, cfg.normalizer, batch_sizes=sizes)


class TestLifeLongAndGating:
    def test_rounds_replay_per_batch_accuracy(self, small_setup):
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, num_batches=6, rounds=2)
        rec = run_experiment(net, bank, sc, NormalizerConfig(mode="find"))
        assert rec.per_batch_accuracy[:6] == rec.per_batch_accuracy[6:]

    def test_gamma_sweep_flat_then_degrading(self, default_setup):
        cfg, net, bank, _ = default_setup
        sc = replace(cfg.scenario, num_batches=60)
        gammas = [0.0, 0.05, 0.1, 0.3, 0.6, 1.0]

        def acc_at(gamma):
            ncfg = replace(cfg.normalizer, mode="find_star", gamma_threshold=gamma)
            accs = [run_experiment(net, bank, replace(sc, seed=s), ncfg).mean_accuracy for s in (0, 1)]
            return float(np.mean(accs))

        accs = {g: acc_at(g) for g in gammas}
        print("\n[gamma sweep] " + "  ".join(f"g={g}:{a:.4f}" for g, a in accs.items()))
        low = [accs[g] for g in gammas if g <= 0.1]
        high = [accs[g] for g in gammas if g > 0.1]
        assert max(low) - min(low) <= 0.03  # roughly flat below the default threshold
        assert min(low) >= max(high) - 0.005  # no gain from gating more layers off

    @pytest.mark.parametrize("gamma", [5e-324, 0.5, 1.0])
    def test_two_slots_always_gate_exactly_one_off(self, small_setup, gamma):
        # min-max normalization of two layer averages gives exactly 0 and 1, so every gamma in (0, 1]
        # keeps the higher layer partitioning and turns the lower one off
        cfg, net, bank, _, _ = small_setup
        rec = run_experiment(net, bank, cfg.scenario, replace(cfg.normalizer, mode="find_star", gamma_threshold=gamma))
        assert sorted(r["normalized_score"] for r in rec.sensitivity) == [0.0, 1.0]
        assert sum(r["partition_enabled"] for r in rec.sensitivity) == 1

    def test_three_slots_gate_the_middle_layer_at_its_score(self, tmp_path):
        # a third slot's normalized score lies strictly inside (0, 1); a gamma just above it turns that layer
        # off and changes no other, a gamma just below keeps it on
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["model"]["channels"] = [8, 16, 32]  # 16x16 input pools to 2x2
        path = tmp_path / "three.json"
        path.write_text(json.dumps(raw))
        cfg = load_experiment_config(path)
        net, bank, _ = harness.train_model(cfg)
        ncfg = replace(cfg.normalizer, mode="find_star")
        scores = [r["normalized_score"] for r in run_experiment(net, bank, cfg.scenario, ncfg).sensitivity]
        inside = [k for k, score in enumerate(scores) if 0.0 < score < 1.0]
        assert net.num_slots == 3 and len(inside) == 1
        k, cold = inside[0], ncfg.cold_start_batches

        def gated(gamma):
            rec = run_experiment(net, bank, cfg.scenario, replace(ncfg, gamma_threshold=float(gamma)))
            return [r["partition_enabled"] for r in rec.sensitivity], rec.cluster_counts[f"slot{k}"][cold:]

        below, below_counts = gated(np.nextafter(scores[k], 0.0))
        above, above_counts = gated(np.nextafter(scores[k], 1.0))
        assert below[k] and not above[k]
        assert below[:k] + below[k + 1 :] == above[:k] + above[k + 1 :]
        assert None not in below_counts and set(above_counts) == {None}

    def test_default_severity_separation_reported(self, default_setup):
        # Reporting only: how often the default severity-5 table yields
        # within-domain-dominant similarity at slot 0. The purity criterion
        # asserts on purpose-built separated streams instead; the default
        # photometric table does not guarantee cosine separation for M=5.
        cfg, net, bank, _ = default_setup
        from neighbornorm.grouping import cosine_similarity_matrix
        from neighbornorm.model import conv2d_3x3
        from neighbornorm.stream import make_domains, sample_batch

        for m in (2, 5):
            ok = tot = 0
            for seed in range(5):
                sc = StreamScenario(
                    kind="cross_mix", domains=make_domains(m, 5, seed), batch_size=64, num_batches=4, seed=seed
                )
                for i in range(sc.num_batches):
                    b = sample_batch(sc, bank, i)
                    sim = cosine_similarity_matrix(instance_means(conv2d_3x3(b.x, net.conv_weights[0])))
                    np.fill_diagonal(sim, -np.inf)
                    same = b.domain_ids[:, None] == b.domain_ids[None, :]
                    best_same = np.where(same, sim, -np.inf).max(axis=1)
                    best_cross = np.where(~same, sim, -np.inf).max(axis=1)
                    ok += bool((best_same > best_cross).all())
                    tot += 1
            print(f"\n[separation report] default severity-5 table, M={m}: {ok}/{tot} batches separated")

    def test_normalizer_interfaces_take_no_domain_ids(self):
        import inspect

        from neighbornorm.grouping import first_neighbor_partition
        from neighbornorm.model import Network
        from neighbornorm.normalization import apply_normalizer

        for fn in (apply_normalizer, first_neighbor_partition, Network.forward, Network.backbone):
            assert not any("domain" in p for p in inspect.signature(fn).parameters)


class TestOutputs:
    def test_metrics_files_deterministic(self, small_setup, tmp_path):
        cfg, net, bank, _, _ = small_setup
        rec_a = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
        rec_b = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
        write_metrics(rec_a, tmp_path / "a")
        write_metrics(rec_b, tmp_path / "b")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_accuracy_is_the_json_value_at_six_decimals(self, small_setup, tmp_path):
        cfg, net, bank, _, _ = small_setup
        write_metrics(run_experiment(net, bank, cfg.scenario, cfg.normalizer), tmp_path / "m")
        accuracy = json.loads((tmp_path / "m.json").read_text())["per_batch"]["accuracy"]
        with open(tmp_path / "m.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["batch_index"] for row in rows] == [str(i) for i in range(len(accuracy))]
        assert [row["accuracy"] for row in rows] == [f"{acc:.6f}" for acc in accuracy]

    def test_metrics_json_contents(self, small_setup, tmp_path):
        cfg, net, bank, _, _ = small_setup
        rec = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
        write_metrics(rec, tmp_path / "m")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["metadata"]["cold_start_predictions_counted"] is True
        assert doc["summary"]["num_batches"] == cfg.scenario.total_batches
        assert len(doc["per_batch"]["accuracy"]) == cfg.scenario.total_batches
        timing = json.loads((tmp_path / "m.timing.json").read_text())
        assert len(timing["per_batch_seconds"]) == cfg.scenario.total_batches

    def test_diagnostics_series_per_mode(self, small_setup, tmp_path):
        cfg, net, bank, _, _ = small_setup
        rec = run_experiment(net, bank, cfg.scenario, NormalizerConfig(mode="find"))
        assert dump_diagnostics(rec, tmp_path / "find") == [f"{tmp_path / 'find'}.diagnostics.json"]
        doc = json.loads((tmp_path / "find.diagnostics.json").read_text())
        assert sorted(doc["cluster_counts"]) == [f"slot{k}" for k in range(net.num_slots)]

        rec = run_experiment(net, bank, cfg.scenario, NormalizerConfig(mode="sbn"))
        dump_diagnostics(rec, tmp_path / "sbn")
        doc = json.loads((tmp_path / "sbn.diagnostics.json").read_text())
        assert doc["cluster_counts"] == {}

    def test_separated_cross_mix_refines_domains(self, small_setup, tmp_path):
        _, net, bank, _, _ = small_setup
        sc = StreamScenario(kind="cross_mix", domains=separated_domains(5), batch_size=64, num_batches=10, seed=0)
        rec = run_experiment(net, separated_bank(0), sc, NormalizerConfig(mode="find"))
        dump_diagnostics(rec, tmp_path / "sep")
        doc = json.loads((tmp_path / "sep.diagnostics.json").read_text())
        assert doc["cluster_counts"]["slot0"]["mean"] >= 5.0
        assert doc["true_domain_counts"] == [5] * 10  # ground truth lives in diagnostics only
