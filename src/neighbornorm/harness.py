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
import os
import time
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, field, replace
from itertools import pairwise

import numpy as np

from .model import Network
from .normalization import MODES, NormalizerConfig
from .rules import COUNT, EPS, POSITIVE, SEED, integers, pooled_shape
from .sensitivity import gaussian_kl_per_channel, layer_gate, sensitivity_score
from .stream import (
    DomainSpec,
    StreamScenario,
    TemplateBank,
    build_templates,
    identity_domain,
    iter_stacks,
    make_domains,
    sample_batch,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MetricsRecord",
    "DEFAULT_CONFIG",
    "load_experiment_config",
    "bank_from_config",
    "train_model",
    "run_experiment",
    "predictions_at",
    "compare_modes",
    "SWEEP_BATCH_SIZES",
    "batch_size_sweep",
    "write_metrics",
    "write_comparison",
    "write_batch_sweep",
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
    "normalizer": asdict(NormalizerConfig()),
    "model_path": "model.nnm",
    "out": "results/run",
    "seeds": [0, 1, 2, 3, 4],
}


def _merged(defaults: dict, user, prefix: str = "") -> dict:
    """A new `defaults` with `user`'s values in place, section by section; ConfigError on a field that `defaults`
    lacks or on a config or section that is not a JSON object. `prefix` names the section, dotted."""
    if not isinstance(user, dict):
        raise ConfigError(f"config {'section ' + prefix[:-1] if prefix else 'file'} must be a JSON object, got {user!r}")
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config field {prefix}{unknown[0]}")
    return {k: _merged(v, user.get(k, {}), f"{k}.") if isinstance(v, dict) else user.get(k, v) for k, v in defaults.items()}


# The model section's numbers by rule, checked here: the network and head they size are built only in training.
_MODEL_RULES = {"seed": SEED, "eps": EPS, "head_lambda": POSITIVE, "train_batches": COUNT,
                "train_batch_size": COUNT, "train_seed": SEED, "clean_eval_batches": COUNT}


@contextmanager
def _fields(section: str):
    """Raise what the block rejects as one ConfigError: a ValueError, which leads with the name of the field it
    rejects, as `section`.name (a top-level field's own name for section ""), and a TypeError or KeyError, a
    malformed section, beside the section's name."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid config: {section + '.' if section else ''}{exc}") from exc
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from exc


@dataclass
class ExperimentConfig:
    data: dict
    model: dict
    scenario: StreamScenario
    normalizer: NormalizerConfig
    model_path: str
    out: str
    seeds: list
    bank: TemplateBank  # built from `data` at load


def bank_from_config(data: dict) -> TemplateBank:
    with _fields("data"):
        return build_templates(
            num_classes=data["num_classes"],
            seed=data["template_seed"],
            shape=tuple(data["input_shape"]),
            base_noise=data["base_noise"],
            min_dist=data["template_min_dist"],
        )


def load_experiment_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config (missing fields fall back to defaults), apply
    flat overrides like {'normalizer.mode': 'tbn'}, and validate every
    referenced field before any batch is processed."""
    user = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:  # a missing file, a directory, no permission
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    nested = {}  # the overrides as one more config, so one merge rejects an unknown field in either
    for dotted, value in (overrides or {}).items():
        section, _, name = dotted.partition(".")
        if value is not None and name:
            nested.setdefault(section, {})[name] = value
        elif value is not None:
            nested[section] = value
    raw = _merged(_merged(DEFAULT_CONFIG, user), nested)
    with _fields("normalizer"):
        normalizer = NormalizerConfig(**raw["normalizer"])
    with _fields(""):
        raw["seeds"] = integers("seeds", raw["seeds"], SEED)
        for name in ("model_path", "out"):  # a path that names no file is rejected before any training or batch
            raw[name] = os.fspath(raw[name]) if isinstance(raw[name], os.PathLike) else raw[name]
            if not isinstance(raw[name], str) or not raw[name]:
                raise ValueError(f"{name} must be a nonempty path string, got {raw[name]!r}")
    mc, data, sc = raw["model"], raw["data"], raw["scenario"]
    with _fields("model"):
        mc.update({key: rule(key, mc[key]) for key, rule in _MODEL_RULES.items()})
        mc["channels"] = integers("channels", mc["channels"], COUNT)
    with _fields("data"):
        data["input_shape"] = pooled_shape("input_shape", data["input_shape"], len(mc["channels"]))
    bank = bank_from_config(data)
    # each number is stored as the int or float its rule checked, so 8 and 8.0 give the same model file
    data.update(num_classes=bank.num_classes, template_seed=bank.seed, base_noise=bank.base_noise, template_min_dist=bank.min_dist)
    # make_domains also runs beside an explicit domain list, which replaces its result, to check num_domains and severity
    with _fields("scenario"):
        domains = make_domains(sc["num_domains"], sc["severity"], sc["seed"])
    if sc["domains"] is not None:  # only null builds the domains from num_domains and severity
        if not isinstance(sc["domains"], (list, tuple)) or not sc["domains"]:
            raise ConfigError(f"invalid config: scenario.domains must be null or a nonempty list, got {sc['domains']!r}")
        domains = []
        for i, d in enumerate(sc["domains"]):
            with _fields(f"scenario.domains[{i}]"):
                domains.append(DomainSpec(**d))
    with _fields("scenario"):
        scenario = StreamScenario(kind=sc["kind"], domains=domains, batch_size=sc["batch_size"], num_batches=sc["num_batches"],
                                  rounds=sc["rounds"], seed=sc["seed"], dirichlet_delta=sc["dirichlet_delta"])
    return ExperimentConfig(
        data=data,
        model=mc,
        scenario=scenario,
        normalizer=normalizer,
        model_path=raw["model_path"],
        out=raw["out"],
        seeds=raw["seeds"],
        bank=bank,
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
    # sidecar only, per batch: an equal share of its run's forward on the calling thread and of its wait for its
    # stack's stem on the stream's worker
    per_batch_seconds: list = field(default_factory=list)
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
    """Build the network from clean `sample_batch` batches of the config's templates (source statistics, then the
    ridge head) and measure the clean-test baseline accuracy on a clean stream."""
    bank, mc = cfg.bank, cfg.model

    def clean_scenario(seed: int, num_batches: int) -> StreamScenario:
        return StreamScenario(kind="static", domains=[identity_domain()], batch_size=mc["train_batch_size"],
                              num_batches=num_batches, seed=seed)

    train = clean_scenario(mc["train_seed"], mc["train_batches"])
    train_batches = [sample_batch(train, bank, i) for i in range(train.total_batches)]
    net = Network.build(tuple(mc["channels"]), tuple(cfg.data["input_shape"]), mc["seed"], mc["eps"],
                        [b.x for b in train_batches], np.concatenate([b.labels for b in train_batches]),
                        mc["head_lambda"], cfg.data["num_classes"])

    eval_scenario = clean_scenario(mc["train_seed"] + 1, mc["clean_eval_batches"])
    meta = {
        "data": dict(cfg.data),
        "train": {k: mc[k] for k in ("train_batches", "train_batch_size", "train_seed", "head_lambda")},
        "clean_accuracy": run_experiment(net, bank, eval_scenario, NormalizerConfig(mode="sbn")).mean_accuracy,
    }
    return net, bank, meta


def _layer_scores(net: Network, traces) -> list[float]:
    """One batch's raw shift score per slot. The two score functions are
    looked up in this module's globals at call time, where a tracer can
    wrap them."""
    return [
        sensitivity_score(gaussian_kl_per_channel(tr.batch_stats, src.stats))
        for tr, src in zip(traces, net.source_stats)
    ]


def _check_classes(net: Network, bank: TemplateBank) -> None:
    """ValueError unless `bank` draws its labels from the classes `net`'s head scores, so every label can be hit."""
    if bank.num_classes != net.head.num_classes:
        raise ValueError(f"the template bank holds {bank.num_classes} classes, but the network's head scores "
                         f"{net.head.num_classes}")


def run_experiment(net: Network, bank: TemplateBank, scenario: StreamScenario, ncfg: NormalizerConfig) -> MetricsRecord:
    """Stream all batches in order and score predictions against labels: a stack of `iter_stacks` at a time, its stem
    forwarded whole with `segment` B, except that find_star's last cold-start batch ends a run, and its gate applies
    from the next: both runs are forwarded from the stack's raw rows. Ground-truth domain ids stay inside this
    function's diagnostics; the network only ever sees the raw feature maps. A bank whose class count is not the
    head's is rejected before the first batch."""
    _check_classes(net, bank)
    scores, gating, sensitivity = [], None, None  # find_star: cold-start scores, then the frozen gate
    slot_names = [f"slot{k}" for k in range(net.num_slots)]
    cluster_counts = {name: [] for name in slot_names}
    per_batch_hits, per_batch_seconds, predictions, true_domain_counts = [], [], [], []

    b, star = scenario.batch_size, ncfg.mode == "find_star"
    with closing(iter_stacks(scenario, bank, net.stem(ncfg))) as stacks:  # closing joins the worker if one raises
        for stack, result in stacks:
            t0, n = time.perf_counter(), len(stack.labels) // b
            x, preds = result(), np.empty((n, b), np.intp)
            cut = ncfg.cold_start_batches - len(scores) if star and sensitivity is None else 0
            for lo, hi in pairwise(sorted({0, min(cut, n), n})):
                logits, traces = net.forward(x if hi - lo == n else stack.x[lo * b : hi * b], ncfg, gating=gating,
                                             collect_traces=True, segment=b)
                if star and sensitivity is None:  # a cold-start run
                    scores += [_layer_scores(net, [tr.row(j) for tr in traces]) for j in range(hi - lo)]
                    if len(scores) == ncfg.cold_start_batches:
                        sensitivity = layer_gate(scores, ncfg.gamma_threshold)
                        gating = [rec["partition_enabled"] for rec in sensitivity]
                per_batch_seconds += [(time.perf_counter() - t0) / (hi - lo)] * (hi - lo)
                preds[lo:hi] = logits.argmax(axis=1).reshape(hi - lo, b)
                for name, tr in zip(slot_names, traces):
                    cluster_counts[name] += tr.cluster_counts
                t0 = time.perf_counter()
            per_batch_hits += np.count_nonzero(preds == stack.labels.reshape(n, b), axis=1).tolist()
            predictions += list(preds)
            domains = np.sort(stack.domain_ids.reshape(n, b), axis=1)
            true_domain_counts += (1 + np.count_nonzero(np.diff(domains, axis=1), axis=1)).tolist()

    return MetricsRecord(
        scenario=asdict(scenario),
        normalizer=asdict(ncfg),
        mean_accuracy=sum(per_batch_hits) / (b * len(per_batch_hits)),
        num_batches=scenario.total_batches,
        num_samples=b * len(per_batch_hits),
        per_batch_accuracy=[hits / b for hits in per_batch_hits],
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
    batches alone. A bank whose class count is not the head's is rejected first.
    """
    _check_classes(net, bank)
    x, gating = sample_batch(scenario, bank, index).x, None  # which checks `index`
    if ncfg.mode == "find_star" and index >= ncfg.cold_start_batches:
        scores = []
        for i in range(ncfg.cold_start_batches):
            _, traces = net.forward(sample_batch(scenario, bank, i).x, ncfg, collect_traces=True)
            scores.append(_layer_scores(net, traces))
        gating = [rec["partition_enabled"] for rec in layer_gate(scores, ncfg.gamma_threshold)]
    return np.argmax(net.forward(x, ncfg, gating=gating), axis=1)


def compare_modes(net: Network, bank: TemplateBank, scenario: StreamScenario, ncfg: NormalizerConfig, modes=MODES, *,
                  seeds) -> list[dict]:
    """One row per mode: mean and std of run accuracy over stream seeds, one or more as `SEED` checks them.

    All runs share the scenario apart from its seed, so rows are
    comparable by construction.
    """
    seeds, rows, configs = integers("seeds", seeds, SEED), [], [replace(ncfg, mode=mode) for mode in modes]
    if not configs:  # every mode is checked before the first batch
        raise ValueError(f"modes must list one or more modes, got {modes!r}")
    for mode_cfg in configs:
        accs = [run_experiment(net, bank, replace(scenario, seed=seed), mode_cfg).mean_accuracy for seed in seeds]
        arr = np.asarray(accs, dtype=np.float64)
        rows.append({"mode": mode_cfg.mode, "mean_accuracy": float(arr.mean()), "std_accuracy": float(arr.std()),
                     "per_seed_accuracy": accs, "seeds": list(seeds)})
    return rows


SWEEP_BATCH_SIZES = (1, 4, 16, 64)  # `batch_size_sweep`'s default, and the CLI's


def batch_size_sweep(net: Network, bank: TemplateBank, scenario: StreamScenario, ncfg: NormalizerConfig,
                     batch_sizes=SWEEP_BATCH_SIZES) -> list[dict]:
    """Accuracy across batch sizes, one or more as `COUNT` checks them and none above the scenario's sample budget,
    at that fixed total budget."""
    total, sizes, rows = scenario.batch_size * scenario.num_batches, integers("batch_sizes", batch_sizes, COUNT), []
    if max(sizes) > total:  # one batch of that size would run past the budget
        raise ConfigError(f"batch size {max(sizes)} exceeds the sample budget of {total} (batch_size x num_batches)")
    for bs in sizes:
        rec = run_experiment(net, bank, replace(scenario, batch_size=bs, num_batches=max(1, total // bs)), ncfg)
        rows.append({"batch_size": bs, "mean_accuracy": rec.mean_accuracy, "num_samples": rec.num_samples})
    return rows


def _output_paths(writer, out_prefix) -> list[str]:
    """The files `writer`, one of the four writers below, makes of `out_prefix`, in the order it returns them."""
    suffixes = {write_metrics: (".json", ".csv", ".timing.json"), write_comparison: (".json", ".csv"),
                write_batch_sweep: (".batch_sweep.json",), dump_diagnostics: (".diagnostics.json",)}
    return [f"{out_prefix}{suffix}" for suffix in suffixes[writer]]


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _dump_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics(record: MetricsRecord, out_prefix) -> list[str]:
    """Write <out>.json and <out>.csv (deterministic) plus <out>.timing.json: `MetricsRecord.per_batch_seconds` and
    their sum, `total_seconds`, the wall clock of the forwards (excluded from determinism guarantees)."""
    json_path, csv_path, timing_path = _output_paths(write_metrics, out_prefix)
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
    _dump_json(doc, json_path)
    slot_names = sorted(record.cluster_counts)
    counts = zip(*(record.cluster_counts[s] for s in slot_names))  # csv writes None, a slot that did not group, as ""
    _dump_csv(csv_path, ["batch_index", "accuracy"] + [f"r_{s}" for s in slot_names],
              ([i, f"{acc:.6f}", *c] for i, (acc, c) in enumerate(zip(record.per_batch_accuracy, counts))))
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
    json_path, csv_path = _output_paths(write_comparison, out_prefix)
    _dump_json({"rows": rows}, json_path)
    _dump_csv(csv_path, ["mode", "mean_accuracy", "std_accuracy"],
              ([row["mode"], f"{row['mean_accuracy']:.6f}", f"{row['std_accuracy']:.6f}"] for row in rows))
    return [json_path, csv_path]


def write_batch_sweep(rows: list[dict], mode: str, out_prefix) -> list[str]:
    [path] = _output_paths(write_batch_sweep, out_prefix)
    _dump_json({"rows": rows, "mode": mode}, path)
    return [path]


def dump_diagnostics(record: MetricsRecord, out_prefix) -> list[str]:
    """Write <out>.diagnostics.json: per-slot cluster-count mean/std plus the per-layer sensitivity dump.

    This is the only output channel that sees ground-truth domain
    composition (as per-batch domain counts).
    """
    [path] = _output_paths(dump_diagnostics, out_prefix)
    _dump_json(
        {
            "cluster_counts": record.cluster_count_summary(),
            "sensitivity": record.sensitivity,
            "normalizer": record.normalizer,
            "true_domain_counts": record.true_domain_counts,
        },
        path,
    )
    return [path]
