import csv
import json
import math
import pathlib
import re
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neighbornorm.harness as harness
import neighbornorm.model as model
import neighbornorm.rules as rules
import neighbornorm.stream as stream
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
from neighbornorm.stream import _STACK, LabeledBatch, StreamScenario, identity_domain, sample_batch

from conftest import SMALL_CONFIG, separated_bank, separated_domains
from support import instance_means


def loop_record(net, bank, sc, ncfg) -> harness.MetricsRecord:
    """The record of a loop that forwards each `sample_batch` alone, find_star's gate from batch
    `ncfg.cold_start_batches` on, with no timings."""
    batches, scores, sensitivity, gate, outs = [sample_batch(sc, bank, i) for i in range(sc.total_batches)], [], None, None, []
    for batch in batches:
        outs.append(net.forward(batch.x, ncfg, gating=gate, collect_traces=True))
        if ncfg.mode == "find_star" and gate is None:
            scores.append(harness._layer_scores(net, outs[-1][1]))
            if len(scores) == ncfg.cold_start_batches:
                sensitivity = layer_gate(scores, ncfg.gamma_threshold)
                gate = [r["partition_enabled"] for r in sensitivity]
    preds, b = [logits.argmax(axis=1) for logits, _ in outs], sc.batch_size
    hits = [int(np.count_nonzero(p == batch.labels)) for p, batch in zip(preds, batches)]
    return harness.MetricsRecord(
        scenario=asdict(sc), normalizer=asdict(ncfg), mean_accuracy=sum(hits) / (b * sc.total_batches),
        num_batches=sc.total_batches, num_samples=b * sc.total_batches, per_batch_accuracy=[h / b for h in hits],
        cluster_counts={f"slot{k}": [traces[k].cluster_count for _, traces in outs] for k in range(net.num_slots)},
        sensitivity=sensitivity, metadata={"cold_start_predictions_counted": True}, predictions=preds,
        true_domain_counts=[len(set(batch.domain_ids.tolist())) for batch in batches])


def assert_loop_record(rec, net, bank, sc, ncfg):
    """`rec` is `loop_record`'s: predictions, per-batch accuracy, cluster counts, sensitivity and domain counts."""
    loop = loop_record(net, bank, sc, ncfg)
    assert rec.sensitivity == loop.sensitivity
    assert rec.mean_accuracy == loop.mean_accuracy
    assert rec.per_batch_accuracy == loop.per_batch_accuracy
    assert rec.cluster_counts == loop.cluster_counts
    assert rec.true_domain_counts == loop.true_domain_counts
    for ours, theirs in zip(rec.predictions, loop.predictions, strict=True):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


def run_counting_draws_and_forwards(monkeypatch, net, bank, sc, ncfg):
    """`run_experiment`'s record, the sample count of each forward and the batch indices of each `stream._drawn`."""
    real_forward, real_drawn, forwarded, drawn = model.Network.forward, stream._drawn, [], []

    def forward(self, x, *args, **kwargs):
        forwarded.append(x.shape[0])
        return real_forward(self, x, *args, **kwargs)

    def draw(scenario, the_bank, indices):
        drawn.append(list(indices))
        return real_drawn(scenario, the_bank, indices)

    with monkeypatch.context() as patch:
        patch.setattr(model.Network, "forward", forward)
        patch.setattr(stream, "_drawn", draw)
        return run_experiment(net, bank, sc, ncfg), forwarded, drawn


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

        files = []
        for name, doc in (("ints", ints), ("floats", floated(ints))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc | {"model_path": str(tmp_path / f"{name}.nnm")}))
            cfg = load_experiment_config(path)
            net, bank, meta = harness.train_model(cfg)
            model.save_model(net, cfg.model_path, meta=meta)
            paths = write_metrics(run_experiment(net, bank, cfg.scenario, cfg.normalizer), tmp_path / name)
            files.append([pathlib.Path(p).read_bytes() for p in (cfg.model_path, *paths[:2])])
        assert files[0] == files[1]


# Each numeric rule, and integral values it accepts
RULE_VALUES = {"FINITE": st.integers(-2**53, 2**53), "INTEGER": st.integers(-2**53, 2**53), "COUNT": st.integers(1, 2**53),
               "SEED": st.integers(0, 2**53), "NUM_CLASSES": st.integers(2, 2**53), "SEVERITY": st.integers(1, 5),
               "NONNEGATIVE": st.integers(0, 2**53), "POSITIVE": st.integers(1, 2**53), "SHARE": st.integers(0, 1),
               "EPS": st.integers(1, 2**53)}
_seeds, _counts = st.integers(0, 2**53), st.integers(1, 64)
# Each numeric config field, and integral values it accepts that load quickly
CONFIG_VALUES = {
    "data.num_classes": st.integers(2, 12), "data.template_seed": _seeds, "data.base_noise": st.integers(0, 3),
    "data.template_min_dist": st.integers(0, 8),
    "data.input_shape": st.tuples(st.integers(1, 3), st.sampled_from([4, 8, 16]), st.sampled_from([4, 8, 16])).map(list),
    "model.seed": _seeds, "model.eps": st.integers(1, 3), "model.head_lambda": st.integers(1, 10**6),
    "model.channels": st.lists(_counts, min_size=1, max_size=4), "model.train_batches": _counts,
    "model.train_batch_size": _counts, "model.train_seed": _seeds, "model.clean_eval_batches": _counts,
    "scenario.num_domains": st.integers(1, 10), "scenario.severity": st.integers(1, 5), "scenario.batch_size": _counts,
    "scenario.num_batches": _counts, "scenario.rounds": st.integers(1, 4), "scenario.seed": _seeds,
    "scenario.dirichlet_delta": st.integers(1, 100),
    "scenario.domains": st.fixed_dictionaries({"id": st.integers(-5, 5), "contrast": st.integers(1, 3), "brightness": st.integers(-3, 3),
                                               "noise_sigma": st.integers(0, 2), "severity": st.integers(1, 5)}).map(lambda d: [d]),
    "normalizer.alpha": st.integers(0, 1), "normalizer.gamma_threshold": st.integers(0, 100),
    "normalizer.cold_start_batches": _counts, "seeds": st.lists(_seeds, min_size=1, max_size=3),
}


def floated(value):
    """`value` with every int in it, nested in lists and dicts, as a float."""
    if isinstance(value, dict):
        return {k: floated(v) for k, v in value.items()}
    if isinstance(value, list):
        return [floated(v) for v in value]
    return float(value) if type(value) is int else value


class TestGeneratedRuleForms:
    """Every rule returns the int or float it checked, so an integral value and its float are stored alike."""

    @pytest.mark.parametrize("name", sorted(RULE_VALUES))
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_each_form_of_a_value_comes_back_as_one_number(self, name, data):
        rule, n = getattr(rules, name), data.draw(RULE_VALUES[name])
        kind = int if rule.keywords.get("integral") else float
        checked = [rule("v", form) for form in (n, float(n), np.int64(n), np.float64(n))]
        assert [(type(v), v) for v in checked] == [(kind, kind(n))] * 4
        if kind is int:
            assert rules.integers("v", [float(n), n], rule) == [n, n]

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(sorted(CONFIG_VALUES)).flatmap(lambda field: st.tuples(st.just(field), CONFIG_VALUES[field])))
    def test_an_integral_float_gives_the_config_its_int_gives(self, case):
        field, value = case
        loaded = []
        for form in (value, floated(value)):
            cfg = load_experiment_config(None, {field: form})
            loaded.append(repr((cfg.data, cfg.model, asdict(cfg.scenario), asdict(cfg.normalizer), cfg.seeds)))
            loaded.append(cfg.bank.templates.tobytes())
        assert loaded[:2] == loaded[2:]


def test_train_model_runs_each_stage_once_per_batch(small_setup, monkeypatch):
    # one 2x2 pool per stage: set-up runs the K stages once per training batch (the capture
    # sweep) and once per clean-eval stack of ceil(_STACK / B) batches, and never again
    cfg = small_setup[0]
    calls = []
    pool = model.avg_pool_2x2
    monkeypatch.setattr(model, "avg_pool_2x2", lambda x, *args, **kwargs: calls.append(x.shape) or pool(x, *args, **kwargs))
    harness.train_model(cfg)
    mc = cfg.model
    stacks = -(-mc["clean_eval_batches"] // -(-_STACK // mc["train_batch_size"]))
    assert len(calls) == len(mc["channels"]) * (mc["train_batches"] + stacks) == 18


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
    @pytest.mark.parametrize("b, kind", [*(pytest.param(b, "cross_mix", id=str(b)) for b in (63, 64, 65, 129)),
                                         *(pytest.param(b, kind, id=f"{b}-{kind}") for kind in ("random", "wild")
                                           for b in (3, 64))])
    def test_pipelined_stream_gives_the_serial_record(self, small_setup, b, kind, mode):
        # from one block up `run_experiment` streams through a worker thread, which runs each batch's stem one
        # batch ahead, and below it a stack of batches is drawn at once; the record, made a stack at a time, is a
        # plain loop's, find_star's gate (after a 2-batch cold start) included. random and wild batches hold
        # varying numbers of domains.
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, kind=kind, batch_size=b, num_batches=3, rounds=2,
                     dirichlet_delta=0.5 if kind == "wild" else None)
        ncfg = NormalizerConfig(mode=mode, cold_start_batches=2)
        assert_loop_record(run_experiment(net, bank, sc, ncfg), net, bank, sc, ncfg)

    @pytest.mark.parametrize("mode, num_batches, cold", [*((mode, n, 10) for mode in MODES for n in (1, 65, 130)),
                                                         *(("find_star", 130, cold) for cold in (1, 64, 65, 128))])
    def test_one_sample_batches_forward_in_stacks(self, small_setup, monkeypatch, mode, num_batches, cold):
        # at B=1 each stack of up to `_STACK` batches is one draw and one forward, cut in two after find_star's last
        # cold-start batch; the record is a loop's that forwards each `sample_batch` alone, with the gate from batch
        # `cold` on
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, batch_size=1, num_batches=num_batches)
        ncfg = NormalizerConfig(mode=mode, cold_start_batches=cold)
        rec, forwarded, drawn = run_counting_draws_and_forwards(monkeypatch, net, bank, sc, ncfg)
        assert drawn == [list(range(i, min(i + _STACK, num_batches))) for i in range(0, num_batches, _STACK)]
        head = min(cold, num_batches) if mode == "find_star" else 0
        assert forwarded == np.diff(sorted({*range(0, num_batches, _STACK), head, num_batches})).tolist()
        assert_loop_record(rec, net, bank, sc, ncfg)

    @pytest.mark.parametrize("b, num_batches, mode, cold", [
        *((3, 50, mode, 10) for mode in MODES if mode != "find_star"), *((3, 50, "find_star", cold) for cold in (5, 22)),
        *((b, n, mode, 5) for b, n in ((16, 10), (63, 5)) for mode in MODES)])
    def test_small_batches_forward_one_by_one_from_stacks(self, small_setup, monkeypatch, b, num_batches, mode, cold):
        # from 2 to 63 samples a run draws ceil(_STACK / B) batches at a time, the last stack partial (B 3: 43 and 7
        # batches; B 16: 8 and 2; B 63: 3 and 2), and forwards each stack whole, not one by one as the name
        # (kept, so the test's ids stay comparable) says: find_star's last cold-start batch, inside a stack or on its
        # edge, cuts it in two. The record is a loop's that forwards each `sample_batch` alone
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, batch_size=b, num_batches=num_batches)
        ncfg = NormalizerConfig(mode=mode, cold_start_batches=cold)
        rec, forwarded, drawn = run_counting_draws_and_forwards(monkeypatch, net, bank, sc, ncfg)
        per_stack = -(-_STACK // b)
        assert drawn == [list(range(i, min(i + per_stack, num_batches))) for i in range(0, num_batches, per_stack)]
        head = min(cold, num_batches) if mode == "find_star" else 0
        assert forwarded == [b * n for n in np.diff(sorted({*range(0, num_batches, per_stack), head, num_batches}))]
        assert_loop_record(rec, net, bank, sc, ncfg)

    @pytest.mark.parametrize("b", [1, 3, 16, 63])
    def test_one_forward_per_stack_below_one_block(self, small_setup, monkeypatch, b):
        # below one block a run makes one forward per stack, each with `segment` B, in every mode but find_star
        # (whose cold start cuts one stack): no per-batch forward loop is left
        cfg, net, bank, _, _ = small_setup
        per_stack, real_forward, segments = -(-_STACK // b), model.Network.forward, []

        def forward(self, x, *args, segment=None, **kwargs):
            segments.append((x.shape[0], segment))
            return real_forward(self, x, *args, segment=segment, **kwargs)

        monkeypatch.setattr(model.Network, "forward", forward)
        sc = replace(cfg.scenario, batch_size=b, num_batches=2 * per_stack + 1)
        for mode in ("sbn", "tbn", "alpha_bn", "find"):
            segments.clear()
            run_experiment(net, bank, sc, NormalizerConfig(mode=mode))
            assert segments == [(b * per_stack, b), (b * per_stack, b), (b, b)], mode

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.5])
    @pytest.mark.parametrize("cold", [1, 2, 3])
    @pytest.mark.parametrize("b", [64, 65, 127])
    def test_a_cold_start_inside_a_stack_forwards_its_raw_rows(self, small_setup, monkeypatch, tmp_path, b, cold, gamma):
        # from 64 to 127 samples a stack holds two batches: find_star's cold start of 1 or 3 batches ends inside one,
        # whose two runs are forwarded from the stack's raw rows, and one of 2 on a stack's edge, so every stack
        # forwards its stem. gamma 0, 0.1 and 1.5 gate both slots on, one off and both off. The files are a loop's
        # that forwards each `sample_batch` alone
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, batch_size=b, num_batches=5)  # stacks [0, 1], [2, 3] and [4]
        ncfg = NormalizerConfig(mode="find_star", cold_start_batches=cold, gamma_threshold=gamma)
        real_forward, forwarded = model.Network.forward, []

        def forward(self, x, *args, **kwargs):
            stem = isinstance(x, model.Stem)
            forwarded.append((stem, len(x.conv if stem else x)))
            return real_forward(self, x, *args, **kwargs)

        monkeypatch.setattr(model.Network, "forward", forward)
        rec = run_experiment(net, bank, sc, ncfg)
        monkeypatch.undo()
        per_stack = -(-_STACK // b)
        expected = []
        for first in range(0, sc.total_batches, per_stack):
            n = min(per_stack, sc.total_batches - first)
            expected += ([(False, (cold - first) * b), (False, (first + n - cold) * b)] if first < cold < first + n
                         else [(True, n * b)])
        assert per_stack == 2 and forwarded == expected
        assert sum(r["partition_enabled"] for r in rec.sensitivity) == {0.0: 2, 0.1: 1, 1.5: 0}[gamma]
        ours = write_metrics(rec, tmp_path / "run")[:2]
        theirs = write_metrics(loop_record(net, bank, sc, ncfg), tmp_path / "loop")[:2]
        for a, b_ in zip(ours, theirs):
            assert pathlib.Path(a).read_bytes() == pathlib.Path(b_).read_bytes()

    def test_raising_forward_leaves_no_thread(self, small_setup, monkeypatch):
        # the exception's traceback keeps `run_experiment`'s frame alive; the stream's worker must be joined anyway,
        # whether the forward raises on the calling thread or a stack's stem on the worker
        cfg, net, bank, _, _ = small_setup
        real_forward, real_stem, forwarded, stem_threads = model.Network.forward, model.Network.stem, [], []
        raising = {}  # "forward" or "stem" -> the 1-based call (a stack) at which it raises

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
            # B 64: stacks of two batches; the stem's error reaches the caller at stack 3, its own
            assert forwarded == [_STACK, _STACK] and info.traceback
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

    @pytest.mark.parametrize("mode", ["find", "find_star"])
    @pytest.mark.parametrize("index", [2.7, True, "1", float("nan")])
    def test_predictions_at_takes_sample_batchs_index(self, small_setup, mode, index):
        cfg, net, bank, _, _ = small_setup
        with pytest.raises(ValueError, match=r"^batch_index must be an integer"):
            predictions_at(net, bank, cfg.scenario, NormalizerConfig(mode=mode, cold_start_batches=2), index)

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

        real, streamed = harness.iter_stacks, []

        def scrambled(scenario, the_bank, stem):
            for b, stemmed in real(scenario, the_bank, stem):
                streamed.append(b)
                yield LabeledBatch(x=b.x, labels=b.labels, domain_ids=b.domain_ids[::-1].copy()), stemmed

        monkeypatch.setattr(harness, "iter_stacks", scrambled)
        scrambled_rec = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
        sc, per_stack = cfg.scenario, -(-_STACK // cfg.scenario.batch_size)  # B 32: stacks of four batches
        assert [len(b.labels) for b in streamed] == [per_stack * sc.batch_size] * (sc.total_batches // per_stack)
        for a, b in zip(baseline.predictions, scrambled_rec.predictions, strict=True):
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

    def test_batch_size_sweep_rejects_a_size_above_the_budget_before_any_batch(self, small_setup, monkeypatch):
        # a budget of 4 x 8 = 32 samples: a size of 32 runs one batch, 33 would run one batch past the budget
        cfg, net, bank, _, _ = small_setup
        sc = replace(cfg.scenario, num_batches=4, batch_size=8)
        assert [r["num_samples"] for r in batch_size_sweep(net, bank, sc, cfg.normalizer, batch_sizes=(32,))] == [32]
        monkeypatch.setattr(harness, "run_experiment", lambda *args: pytest.fail("streamed a batch"))
        with pytest.raises(ConfigError, match="batch size 33 exceeds the sample budget of 32"):
            batch_size_sweep(net, bank, sc, cfg.normalizer, batch_sizes=(4, 33))

    @pytest.mark.parametrize("seeds", [(1.7, True), (), [0, -1], "01"])
    def test_compare_modes_rejects_bad_seeds(self, small_setup, seeds):
        # a fraction or a bool would run as a cast seed, and no seeds at all as a NaN row
        cfg, net, bank, _, _ = small_setup
        with pytest.raises(ValueError, match="seeds"):
            compare_modes(net, bank, cfg.scenario, cfg.normalizer, seeds=seeds)

    @pytest.mark.parametrize("modes", [(), []])
    def test_compare_modes_rejects_no_modes_before_any_batch(self, small_setup, monkeypatch, modes):
        # no modes at all would write an empty table
        cfg, net, bank, _, _ = small_setup
        monkeypatch.setattr(harness, "run_experiment", lambda *args: pytest.fail("streamed a batch"))
        with pytest.raises(ValueError, match="modes must list one or more modes"):
            compare_modes(net, bank, cfg.scenario, cfg.normalizer, modes=modes, seeds=(0, 1))

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
        # at B=1 each batch's entry is an equal share of its run's forward: a stack of 64, cut after the cold start's
        # 10th batch, then the last 16
        sc = replace(cfg.scenario, batch_size=1, num_batches=80)
        write_metrics(run_experiment(net, bank, sc, NormalizerConfig(mode="find_star", cold_start_batches=10)), tmp_path / "s")
        seconds = json.loads((tmp_path / "s.timing.json").read_text())["per_batch_seconds"]
        assert [len(set(seconds[i:j])) for i, j in ((0, 10), (10, 64), (64, 80))] == [1, 1, 1]
        assert len(seconds) == 80 and all(s > 0 for s in seconds)

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
