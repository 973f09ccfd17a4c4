"""Command-line experiment runner. Each command loads the config (and, past `train`, the model file), makes one
harness call, writes its files and prints a report. With `out` the output prefix, the files are:

- train: the model file at `model_path`;
- run: <out>.json, <out>.csv and <out>.timing.json, from one experiment;
- compare: <out>.json and <out>.csv, one row per mode over the configured seeds;
- diagnose: <out>.diagnostics.json (cluster counts, sensitivity, true domain counts), from one experiment;
- sweep-batch: <out>.batch_sweep.json, accuracy across batch sizes at a fixed sample budget.

`run` and `diagnose` print one report, with the layer gate's lines in find_star. Flags override the matching
config fields, `--out` the model path for `train` and `out` otherwise; that path's directory is made before any
batch runs. A model file must agree with the config on every field it records: data.*, and model.seed, eps,
channels, head_lambda, train_batches, train_batch_size and train_seed. Exit codes: 0 success, 1 config error
(a missing, malformed or disagreeing model file, or an uncreatable output directory), 2 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .harness import (
    SWEEP_BATCH_SIZES,
    ConfigError,
    ExperimentConfig,
    batch_size_sweep,
    compare_modes,
    dump_diagnostics,
    load_experiment_config,
    run_experiment,
    train_model,
    write_batch_sweep,
    write_comparison,
    write_metrics,
)
from .model import ModelFormatError, Network, load_model, save_model
from .normalization import MODES, canonical_mode
from .rules import COUNT


def _load_cfg(args) -> ExperimentConfig:
    written = "model_path" if args.command == "train" else "out"
    overrides = {"normalizer.mode": args.mode, "normalizer.alpha": args.alpha, "normalizer.gamma_threshold": args.gamma,
                 "scenario.seed": args.seed, written: args.out}
    cfg = load_experiment_config(args.config, overrides)
    path = getattr(cfg, written)
    try:  # before any batch runs
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory of {path}: {exc}") from None
    return cfg


def _load_model_checked(cfg: ExperimentConfig) -> Network:
    """The model file's network, once every config field that the file records agrees with it."""
    try:
        net, meta = load_model(cfg.model_path)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {cfg.model_path}; run `train` first") from None
    except ModelFormatError as exc:
        raise ConfigError(f"malformed model file: {exc}; run `train` again") from None
    recorded = {**{f"data.{k}": v for k, v in meta.get("data", {}).items()},
                **{f"model.{k}": v for k, v in meta.get("train", {}).items()},
                "model.seed": net.seed, "model.eps": net.eps, "model.channels": list(net.channels)}
    for name, value in [(f"{s}.{k}", v) for s in ("data", "model") for k, v in getattr(cfg, s).items()]:
        if recorded.get(name, value) != value:
            raise ConfigError(f"config field {name}={value!r} conflicts with the model file (built with {recorded[name]!r})")
    return net


def _entries(flag: str, text: str, parse) -> list:
    """The comma-separated entries of a flag's value, each through `parse`, whose ValueError is a ConfigError."""
    try:
        return [parse(entry) for entry in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from None


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    net, _, meta = train_model(cfg)
    save_model(net, cfg.model_path, meta=meta)
    print(f"model written to {cfg.model_path}")
    print(f"clean test accuracy: {meta['clean_accuracy']:.4f}")
    return 0


def _run_and_report(args, write) -> int:
    """Stream one experiment, write it with `write(record, out)` and report it."""
    cfg = _load_cfg(args)
    record = run_experiment(_load_model_checked(cfg), cfg.bank, cfg.scenario, cfg.normalizer)
    paths = write(record, cfg.out)
    print(f"mode={cfg.normalizer.mode} scenario={cfg.scenario.kind} seed={cfg.scenario.seed}")
    print(f"mean accuracy: {record.mean_accuracy:.4f} over {record.num_samples} samples")
    for slot, summary in record.cluster_count_summary().items():
        print(f"cluster count {slot}: {summary['mean']:.2f} +- {summary['std']:.2f}")
    for rec in record.sensitivity or ():
        print(f"layer {rec['layer']}: raw={rec['raw_average']:.4f} "
              f"normalized={rec['normalized_score']:.4f} partition={'on' if rec['partition_enabled'] else 'off'}")
    print("wrote " + ", ".join(paths))
    return 0


cmd_run, cmd_diagnose = partial(_run_and_report, write=write_metrics), partial(_run_and_report, write=dump_diagnostics)


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    modes = _entries("--modes", args.modes, canonical_mode) if args.modes else MODES
    rows = compare_modes(_load_model_checked(cfg), cfg.bank, cfg.scenario, cfg.normalizer, modes=modes, seeds=cfg.seeds)
    paths = write_comparison(rows, cfg.out)
    print(f"{'mode':<10} {'mean_acc':>9} {'std':>7}   seeds={cfg.seeds}")
    for row in rows:
        print(f"{row['mode']:<10} {row['mean_accuracy']:>9.4f} {row['std_accuracy']:>7.4f}")
    print("wrote " + ", ".join(paths))
    return 0


def cmd_sweep_batch(args) -> int:
    cfg = _load_cfg(args)
    sizes = _entries("--sizes", args.sizes, lambda s: COUNT("--sizes entry", int(s))) if args.sizes else SWEEP_BATCH_SIZES
    rows = batch_size_sweep(_load_model_checked(cfg), cfg.bank, cfg.scenario, cfg.normalizer, batch_sizes=sizes)
    paths = write_batch_sweep(rows, cfg.normalizer.mode, cfg.out)
    for row in rows:
        print(f"batch_size={row['batch_size']:<4} accuracy={row['mean_accuracy']:.4f} ({row['num_samples']} samples)")
    print("wrote " + ", ".join(paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neighbornorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON experiment config (defaults used when omitted)")
        p.add_argument("--mode", default=None, help=f"normalizer mode: {'|'.join(MODES)}")
        p.add_argument("--alpha", type=float, default=None, help="source/test blend weight in [0,1]")
        p.add_argument("--gamma", type=float, default=None, help="gating threshold on normalized scores")
        p.add_argument("--seed", type=int, default=None, help="stream seed override")
        p.add_argument("--out", default=None, help="output path prefix override")

    for name, func, help_text, extra in (
        ("train", cmd_train, "build templates, capture source stats, fit head, write model file", None),
        ("run", cmd_run, "run one experiment and write metrics", None),
        ("compare", cmd_compare, "sweep normalizer modes over the configured seeds", ("--modes", "comma-separated mode list")),
        ("diagnose", cmd_diagnose, "run and dump cluster-count and sensitivity diagnostics", None),
        ("sweep-batch", cmd_sweep_batch, "accuracy across batch sizes at fixed sample budget",
         ("--sizes", f"comma-separated batch sizes (default {','.join(map(str, SWEEP_BATCH_SIZES))})")),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.set_defaults(func=func)
        if extra:
            p.add_argument(extra[0], default=None, help=extra[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/numeric failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
