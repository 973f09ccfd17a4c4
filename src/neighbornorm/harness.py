"""Experiment runner: stream -> model -> normalizer, metrics and dumps.

One run streams batches strictly in order. The only state that crosses
batches is the frozen source statistics and, for find_star, the
layer gate built from the first cold_start_batches batches (whose
predictions still count toward accuracy, with partitioning applied at
all layers). Everything written to the metrics files is a deterministic
function of the config; wall-clock timings go to a separate sidecar.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .model import Network, save_model, train_linear_head
from .normalization import _EPS_FLOOR, MODES, NormalizerConfig, _checked
from .sensitivity import gaussian_kl_per_channel, layer_gate, sensitivity_score
from .stream import (
    DomainSpec,
    StreamScenario,
    TemplateBank,
    build_templates,
    identity_domain,
    iter_batches,
    make_domains,
    sample_batch,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MetricsRecord",
    "DEFAULT_CONFIG",
    "load_experiment_config",
    "scenario_from_config",
    "bank_from_config",
    "train_model",
    "train_and_save",
    "run_experiment",
    "predictions_at",
    "compare_modes",
    "SWEEP_BATCH_SIZES",
    "batch_size_sweep",
    "write_metrics",
    "write_comparison",
    "dump_diagnostics",
]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


DEFAULT_CONFIG = {
    "data": {
        "num_classes": 10,
        "template_seed": 7,
        "base_noise": 0.25,
        "input_shape": [1, 16, 16],
        "template_min_dist": 8.0,
    },
    "model": {
        "seed": 11,
        "channels": [8, 16],
        "eps": 1e-5,
        "head_lambda": 0.01,
        "train_batches": 40,
        "train_batch_size": 64,
        "train_seed": 101,
        "clean_eval_batches": 20,
    },
    "scenario": {
        "kind": "cross_mix",
        "num_domains": 5,
        "severity": 5,
        "domains": None,  # explicit DomainSpec list; overrides num_domains/severity
        "batch_size": 64,
        "num_batches": 200,
        "rounds": 1,
        "seed": 0,
        "dirichlet_delta": None,
    },
    "normalizer": {
        "mode": "find",
        "alpha": 0.8,
        "gamma_threshold": 0.1,
        "cold_start_batches": 10,
    },
    "model_path": "model.nnm",
    "out": "results/run",
    "seeds": [0, 1, 2, 3, 4],
}


def _merged(defaults: dict, user: dict) -> dict:
    out = {}
    for key, val in defaults.items():
        if isinstance(val, dict):
            sub = user.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            unknown = set(sub) - set(val)
            if unknown:
                raise ConfigError(f"unknown config field {key}.{sorted(unknown)[0]}")
            out[key] = {**val, **sub}
        else:
            out[key] = user.get(key, val)
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]}")
    return out


# Numeric config fields by rule, (least, greatest, integral, least excluded) -> names, checked at load and
# stored as int or float once, so no bool, non-finite or fractional value is cast later. A null delta is allowed.
_NUMERIC_FIELDS = {
    (1, math.inf, True, False): ("model.train_batches", "model.train_batch_size", "model.clean_eval_batches",
                                 "scenario.num_domains", "scenario.batch_size", "scenario.num_batches", "scenario.rounds"),
    (0, math.inf, True, False): ("data.template_seed", "model.seed", "model.train_seed", "scenario.seed"),
    (2, math.inf, True, False): ("data.num_classes",),
    (1, 5, True, False): ("scenario.severity",),
    (0.0, math.inf, False, False): ("data.base_noise", "data.template_min_dist"),
    (0.0, math.inf, False, True): ("model.head_lambda", "scenario.dirichlet_delta"),
    (_EPS_FLOOR, math.inf, False, True): ("model.eps",),
}
# Integer-list fields -> (length or None, least entry).
_INTEGER_LISTS = {"data.input_shape": (3, 1), "model.channels": (None, 1), "seeds": (None, 0)}


def _check_numbers(raw: dict) -> None:
    """Store each numeric field and integer-list entry in `raw` as the int or float its rule checked; ValueError if it breaks it."""
    for rule, names in _NUMERIC_FIELDS.items():
        for name in names:
            section, key = name.split(".")
            if raw[section][key] is not None or name != "scenario.dirichlet_delta":
                raw[section][key] = (int if rule[2] else float)(_checked(name, raw[section][key], *rule))
    for name, (length, least) in _INTEGER_LISTS.items():
        section, _, key = name.rpartition(".")
        target = raw[section] if section else raw
        values = target[key]
        if not isinstance(values, (list, tuple)) or not values or len(values) != (length or len(values)):
            raise ValueError(f"{name} must be a list of {length or 'one or more'} integers, got {values!r}")
        target[key] = [int(_checked(f"{name}[{i}]", v, least, integral=True)) for i, v in enumerate(values)]
    if any(side % 2 ** len(raw["model"]["channels"]) for side in raw["data"]["input_shape"][1:]):
        raise ValueError(f"data.input_shape {raw['data']['input_shape']} does not pool evenly through every model.channels stage")


@dataclass
class ExperimentConfig:
    data: dict
    model: dict
    scenario: StreamScenario
    normalizer: NormalizerConfig
    model_path: str
    out: str
    seeds: list


def scenario_from_config(sc: dict) -> StreamScenario:
    try:
        if sc.get("domains"):
            domains = [DomainSpec(**d) for d in sc["domains"]]
        else:
            domains = make_domains(sc["num_domains"], sc["severity"], sc["seed"])
        return StreamScenario(
            kind=sc["kind"],
            domains=domains,
            batch_size=sc["batch_size"],
            num_batches=sc["num_batches"],
            rounds=sc["rounds"],
            seed=sc["seed"],
            dirichlet_delta=sc.get("dirichlet_delta"),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from exc


def bank_from_config(data: dict) -> TemplateBank:
    try:
        return build_templates(
            num_classes=data["num_classes"],
            seed=data["template_seed"],
            shape=tuple(data["input_shape"]),
            base_noise=data["base_noise"],
            min_dist=data["template_min_dist"],
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid data config: {exc}") from exc


def load_experiment_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config (missing fields fall back to defaults), apply
    flat overrides like {'normalizer.mode': 'tbn'}, and validate every
    referenced field before any batch is processed."""
    user = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    raw = _merged(DEFAULT_CONFIG, user)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        section, _, name = dotted.partition(".")
        target, key = (raw.get(section), name) if name else (raw, section)
        if not isinstance(target, dict) or key not in target:
            raise ConfigError(f"unknown config field {dotted}")
        target[key] = value

    try:
        normalizer = NormalizerConfig(**raw["normalizer"])
        _check_numbers(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    scenario = scenario_from_config(raw["scenario"])
    return ExperimentConfig(
        data=raw["data"],
        model=raw["model"],
        scenario=scenario,
        normalizer=normalizer,
        model_path=str(raw["model_path"]),
        out=str(raw["out"]),
        seeds=raw["seeds"],
    )


@dataclass
class MetricsRecord:
    scenario: dict
    normalizer: dict
    mean_accuracy: float
    num_batches: int
    num_samples: int
    per_batch_accuracy: list
    cluster_counts: dict  # slot name -> list of int or None per batch
    sensitivity: list | None
    metadata: dict
    per_batch_seconds: list = field(default_factory=list)  # sidecar only
    predictions: list = field(default_factory=list)  # in-memory only
    true_domain_counts: list = field(default_factory=list)  # diagnostics channel only

    def cluster_count_summary(self) -> dict:
        """Mean/std over batches, only for slots that ever partitioned."""
        out = {}
        for slot, counts in self.cluster_counts.items():
            vals = [c for c in counts if c is not None]
            if vals:
                arr = np.asarray(vals, dtype=np.float64)
                out[slot] = {"mean": float(arr.mean()), "std": float(arr.std()), "num_batches": len(vals)}
        return out


def train_model(cfg: ExperimentConfig) -> tuple[Network, TemplateBank, dict]:
    """Build templates, capture source statistics on a clean stream, fit
    the ridge head, and measure the clean-test baseline accuracy."""
    bank = bank_from_config(cfg.data)
    mc = cfg.model
    net = Network.build(tuple(mc["channels"]), tuple(cfg.data["input_shape"]), mc["seed"], mc["eps"])

    def clean_scenario(seed: int, num_batches: int) -> StreamScenario:
        return StreamScenario(
            kind="static",
            domains=[identity_domain()],
            batch_size=mc["train_batch_size"],
            num_batches=num_batches,
            seed=seed,
        )

    train_batches = list(iter_batches(clean_scenario(mc["train_seed"], mc["train_batches"]), bank))
    feats = net.capture_source_stats([b.x for b in train_batches])
    labels = np.concatenate([b.labels for b in train_batches])
    net.head = train_linear_head(feats, labels, mc["head_lambda"], num_classes=cfg.data["num_classes"])

    eval_scenario = clean_scenario(mc["train_seed"] + 1, mc["clean_eval_batches"])
    meta = {
        "data": dict(cfg.data),
        "train": {k: mc[k] for k in ("train_batches", "train_batch_size", "train_seed", "head_lambda")},
        "clean_accuracy": run_experiment(net, bank, eval_scenario, NormalizerConfig(mode="sbn")).mean_accuracy,
    }
    return net, bank, meta


def train_and_save(cfg: ExperimentConfig) -> dict:
    net, _, meta = train_model(cfg)
    save_model(net, cfg.model_path, meta=meta)
    return meta


def _layer_scores(net: Network, traces) -> list[float]:
    """One batch's raw shift score per slot. The two score functions are
    looked up in this module's globals at call time, where a tracer can
    wrap them."""
    return [
        sensitivity_score(gaussian_kl_per_channel(tr.batch_stats, src.stats))
        for tr, src in zip(traces, net.source_stats)
    ]


def run_experiment(net: Network, bank: TemplateBank, scenario: StreamScenario, ncfg: NormalizerConfig) -> MetricsRecord:
    """Stream all batches in order and score predictions against labels.

    Ground-truth domain ids stay inside this function's diagnostics; the
    network only ever sees the raw feature maps.
    """
    scores, gating, sensitivity = [], None, None  # find_star: cold-start scores, then the frozen gate
    slot_names = [f"slot{k}" for k in range(net.num_slots)]
    cluster_counts = {name: [] for name in slot_names}
    per_batch_acc, per_batch_seconds, predictions = [], [], []
    true_domain_counts = []
    correct = total = 0

    for idx in range(scenario.total_batches):
        batch = sample_batch(scenario, bank, idx)
        t0 = time.perf_counter()
        logits, traces = net.forward(batch.x, ncfg, gating=gating, collect_traces=True)
        if ncfg.mode == "find_star" and sensitivity is None:
            scores.append(_layer_scores(net, traces))
            if len(scores) == ncfg.cold_start_batches:
                sensitivity = layer_gate(scores, ncfg.gamma_threshold)
                gating = [rec["partition_enabled"] for rec in sensitivity]
        per_batch_seconds.append(time.perf_counter() - t0)

        preds = np.argmax(logits, axis=1)
        predictions.append(preds)
        hits = int((preds == batch.labels).sum())
        correct += hits
        total += batch.labels.shape[0]
        per_batch_acc.append(hits / batch.labels.shape[0])
        for name, tr in zip(slot_names, traces):
            cluster_counts[name].append(tr.cluster_count)
        true_domain_counts.append(len(np.unique(batch.domain_ids)))

    return MetricsRecord(
        scenario=asdict(scenario),
        normalizer=asdict(ncfg),
        mean_accuracy=correct / total,
        num_batches=scenario.total_batches,
        num_samples=total,
        per_batch_accuracy=per_batch_acc,
        cluster_counts=cluster_counts,
        sensitivity=sensitivity,
        metadata={"cold_start_predictions_counted": True},
        per_batch_seconds=per_batch_seconds,
        predictions=predictions,
        true_domain_counts=true_domain_counts,
    )


def predictions_at(net: Network, bank: TemplateBank, scenario: StreamScenario, ncfg: NormalizerConfig, index: int) -> np.ndarray:
    """Predictions for batch `index` with no history in memory.

    Only the frozen model state is carried across batches; for find_star
    that includes the layer gate, replayed here from the cold-start
    batches alone.
    """
    gating = None
    if ncfg.mode == "find_star" and index >= ncfg.cold_start_batches:
        scores = []
        for i in range(ncfg.cold_start_batches):
            _, traces = net.forward(sample_batch(scenario, bank, i).x, ncfg, collect_traces=True)
            scores.append(_layer_scores(net, traces))
        gating = [rec["partition_enabled"] for rec in layer_gate(scores, ncfg.gamma_threshold)]
    return np.argmax(net.forward(sample_batch(scenario, bank, index).x, ncfg, gating=gating), axis=1)


def compare_modes(
    net: Network,
    bank: TemplateBank,
    scenario: StreamScenario,
    ncfg: NormalizerConfig,
    modes=MODES,
    seeds=(0, 1, 2, 3, 4),
) -> list[dict]:
    """One row per mode: mean and std of run accuracy over stream seeds.

    All runs share the scenario apart from its seed, so rows are
    comparable by construction.
    """
    rows = []
    for mode in modes:
        mode_cfg = replace(ncfg, mode=mode)
        accs = []
        for seed in seeds:
            sc = replace(scenario, seed=int(seed))
            accs.append(run_experiment(net, bank, sc, mode_cfg).mean_accuracy)
        arr = np.asarray(accs, dtype=np.float64)
        rows.append(
            {
                "mode": mode_cfg.mode,
                "mean_accuracy": float(arr.mean()),
                "std_accuracy": float(arr.std()),
                "per_seed_accuracy": accs,
                "seeds": [int(s) for s in seeds],
            }
        )
    return rows


SWEEP_BATCH_SIZES = (1, 4, 16, 64)  # `batch_size_sweep`'s default, and the CLI's


def batch_size_sweep(
    net: Network,
    bank: TemplateBank,
    scenario: StreamScenario,
    ncfg: NormalizerConfig,
    batch_sizes=SWEEP_BATCH_SIZES,
) -> list[dict]:
    """Accuracy across batch sizes at a fixed total sample budget."""
    total = scenario.batch_size * scenario.num_batches
    rows = []
    for bs in batch_sizes:
        sc = replace(scenario, batch_size=int(bs), num_batches=max(1, total // int(bs)))
        rec = run_experiment(net, bank, sc, ncfg)
        rows.append({"batch_size": int(bs), "mean_accuracy": rec.mean_accuracy, "num_samples": rec.num_samples})
    return rows


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_metrics(record: MetricsRecord, out_prefix) -> list[str]:
    """Write <out>.json and <out>.csv (deterministic) plus <out>.timing.json
    (wall clock, excluded from determinism guarantees)."""
    out_prefix = str(out_prefix)
    doc = {
        "scenario": record.scenario,
        "normalizer": record.normalizer,
        "metadata": record.metadata,
        "summary": {
            "mean_accuracy": record.mean_accuracy,
            "num_batches": record.num_batches,
            "num_samples": record.num_samples,
            "cluster_counts": record.cluster_count_summary(),
        },
        "per_batch": {
            "accuracy": record.per_batch_accuracy,
            "cluster_counts": record.cluster_counts,
        },
        "sensitivity": record.sensitivity,
    }
    json_path = out_prefix + ".json"
    _dump_json(doc, json_path)

    csv_path = out_prefix + ".csv"
    slot_names = sorted(record.cluster_counts)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch_index", "accuracy"] + [f"r_{s}" for s in slot_names])
        for i, acc in enumerate(record.per_batch_accuracy):
            row = [i, f"{acc:.6f}"]
            for s in slot_names:
                c = record.cluster_counts[s][i]
                row.append("" if c is None else c)
            writer.writerow(row)

    timing_path = out_prefix + ".timing.json"
    _dump_json(
        {
            "per_batch_seconds": record.per_batch_seconds,
            "total_seconds": float(sum(record.per_batch_seconds)),
            "note": "wall-clock timings; not covered by determinism guarantees",
        },
        timing_path,
    )
    return [json_path, csv_path, timing_path]


def write_comparison(rows: list[dict], out_prefix) -> list[str]:
    out_prefix = str(out_prefix)
    json_path = out_prefix + ".json"
    _dump_json({"rows": rows}, json_path)
    csv_path = out_prefix + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "mean_accuracy", "std_accuracy"])
        for row in rows:
            writer.writerow([row["mode"], f"{row['mean_accuracy']:.6f}", f"{row['std_accuracy']:.6f}"])
    return [json_path, csv_path]


def dump_diagnostics(record: MetricsRecord, path) -> None:
    """Per-slot cluster-count mean/std plus the per-layer sensitivity dump.

    This is the only output channel that sees ground-truth domain
    composition (as per-batch domain counts).
    """
    _dump_json(
        {
            "cluster_counts": record.cluster_count_summary(),
            "sensitivity": record.sensitivity,
            "normalizer": record.normalizer,
            "true_domain_counts": record.true_domain_counts,
        },
        path,
    )
