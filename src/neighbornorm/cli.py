"""Command-line experiment runner.

Subcommands: train (build model file), run (one experiment), compare
(mode sweep over seeds), diagnose (cluster-count and sensitivity dumps),
sweep-batch (batch-size sweep at fixed sample budget). Flags override
the matching config fields; the directory of `out` (train: the model path)
is made before any batch runs. Exit codes: 0 success, 1 config error (a
missing or malformed model file, or an output directory that cannot be
made, included), 2 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    SWEEP_BATCH_SIZES,
    ConfigError,
    ExperimentConfig,
    _dump_json,
    batch_size_sweep,
    compare_modes,
    dump_diagnostics,
    load_experiment_config,
    run_experiment,
    train_and_save,
    write_comparison,
    write_metrics,
)
from .model import ModelFormatError, load_model
from .normalization import MODES, canonical_mode
from .rules import COUNT


def _load_cfg(args) -> ExperimentConfig:
    overrides = {
        "normalizer.mode": getattr(args, "mode", None),
        "normalizer.alpha": getattr(args, "alpha", None),
        "normalizer.gamma_threshold": getattr(args, "gamma", None),
        "scenario.seed": getattr(args, "seed", None),
        "out": getattr(args, "out", None),
    }
    cfg = load_experiment_config(args.config, overrides)
    if args.command == "train":
        cfg.model_path = args.out or cfg.model_path
    written = cfg.model_path if args.command == "train" else cfg.out
    try:  # before any batch runs
        os.makedirs(os.path.dirname(written) or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory of {written}: {exc}") from None
    return cfg


def _load_model_checked(cfg: ExperimentConfig):
    try:
        net, meta = load_model(cfg.model_path)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {cfg.model_path}; run `train` first") from None
    except ModelFormatError as exc:
        raise ConfigError(f"malformed model file: {exc}; run `train` again") from None
    model_data = meta.get("data", {})
    for key, value in cfg.data.items():
        if key in model_data and model_data[key] != value:
            raise ConfigError(
                f"config field data.{key}={value!r} conflicts with the model file "
                f"(built with {model_data[key]!r})"
            )
    return net, cfg.bank, meta  # built from cfg.data, which agrees with the model's


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    meta = train_and_save(cfg)
    print(f"model written to {cfg.model_path}")
    print(f"clean test accuracy: {meta['clean_accuracy']:.4f}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    net, bank, _ = _load_model_checked(cfg)
    record = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
    paths = write_metrics(record, cfg.out)
    print(f"mode={cfg.normalizer.mode} scenario={cfg.scenario.kind} seed={cfg.scenario.seed}")
    print(f"mean accuracy: {record.mean_accuracy:.4f} over {record.num_samples} samples")
    for slot, summary in record.cluster_count_summary().items():
        print(f"cluster count {slot}: {summary['mean']:.2f} +- {summary['std']:.2f}")
    print("wrote " + ", ".join(paths))
    return 0


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    net, bank, _ = _load_model_checked(cfg)
    if args.modes:
        try:
            modes = [canonical_mode(m) for m in args.modes.split(",")]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        modes = MODES
    rows = compare_modes(net, bank, cfg.scenario, cfg.normalizer, modes=modes, seeds=cfg.seeds)
    paths = write_comparison(rows, cfg.out)
    print(f"{'mode':<10} {'mean_acc':>9} {'std':>7}   seeds={cfg.seeds}")
    for row in rows:
        print(f"{row['mode']:<10} {row['mean_accuracy']:>9.4f} {row['std_accuracy']:>7.4f}")
    print("wrote " + ", ".join(paths))
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load_cfg(args)
    net, bank, _ = _load_model_checked(cfg)
    record = run_experiment(net, bank, cfg.scenario, cfg.normalizer)
    path = cfg.out + ".diagnostics.json"
    dump_diagnostics(record, path)
    print(f"mean accuracy: {record.mean_accuracy:.4f}")
    for slot, summary in record.cluster_count_summary().items():
        print(f"cluster count {slot}: {summary['mean']:.2f} +- {summary['std']:.2f}")
    if record.sensitivity:
        for rec in record.sensitivity:
            print(
                f"layer {rec['layer']}: raw={rec['raw_average']:.4f} "
                f"normalized={rec['normalized_score']:.4f} partition={'on' if rec['partition_enabled'] else 'off'}"
            )
    print(f"wrote {path}")
    return 0


def cmd_sweep_batch(args) -> int:
    cfg = _load_cfg(args)
    net, bank, _ = _load_model_checked(cfg)
    if args.sizes:
        try:
            sizes = [COUNT("--sizes entry", int(s)) for s in args.sizes.split(",")]
        except ValueError:
            raise ConfigError(f"--sizes must be comma-separated integers >= 1, got {args.sizes!r}") from None
    else:
        sizes = SWEEP_BATCH_SIZES
    rows = batch_size_sweep(net, bank, cfg.scenario, cfg.normalizer, batch_sizes=sizes)
    path = cfg.out + ".batch_sweep.json"
    _dump_json({"rows": rows, "mode": cfg.normalizer.mode}, path)
    for row in rows:
        print(f"batch_size={row['batch_size']:<4} accuracy={row['mean_accuracy']:.4f} ({row['num_samples']} samples)")
    print(f"wrote {path}")
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
