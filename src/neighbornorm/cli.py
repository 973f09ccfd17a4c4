"""Command-line experiment runner. Each command loads the config (and, past `train`, the model file), makes one
harness call and prints a report; then the directory of its files is made, once every check has passed, and the files
are written and named. A command that fails leaves no directory behind. It takes only the flags listed for it here;
any other is argparse's usage error, exit 2, before any config is read. With `out` the output prefix:

- train [--config --out]: the model file at `model_path`, the field its --out sets;
- run [--config --mode --alpha --gamma --seed --out]: <out>.json, <out>.csv and <out>.timing.json, from one run;
- compare [--config --alpha --gamma --seed --out --modes]: <out>.json and <out>.csv, one row per mode over the
  configured `seeds`, so its --seed sets only the seed the domain set is drawn from;
- diagnose [the run flags]: <out>.diagnostics.json (cluster counts, sensitivity, true domain counts), from one run;
- sweep-batch [the run flags, --sizes]: <out>.batch_sweep.json, accuracy across batch sizes at a fixed budget.

`run` and `diagnose` print the layer gate's lines in find_star. A model file must agree with the config on every
field it records: data.*, and model.seed, eps, channels, head_lambda, train_batches, train_batch_size and
train_seed. Exit codes: 0 success, 1 config error (an unreadable config file; a missing, unreadable, malformed or
disagreeing model file; an uncreatable output directory, or an output file that names a directory; a swept batch
size above the sample budget), 2 usage or runtime/numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    SWEEP_BATCH_SIZES,
    ConfigError,
    ExperimentConfig,
    _output_paths,
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
    """The config under the command's own flags, once the directory of the files it writes (its `--out`) can be made
    and none of those files is a directory. Nothing is made here: `main` makes the directory."""
    cfg = load_experiment_config(args.config, {field: getattr(args, dest) for dest, field in args.fields.items()})
    path = getattr(cfg, args.fields["out"])
    existing = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(existing):  # up to the nearest ancestor that exists, which must be a directory
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot create the directory of {path}: {existing} is not a directory")
    for written in [path] if args.writer is _save else _output_paths(args.writer, path):
        if os.path.isdir(written):
            raise ConfigError(f"cannot write {written}: it is a directory")
    return cfg


def _load_model_checked(cfg: ExperimentConfig) -> Network:
    """The model file's network, once every config field that the file records agrees with it."""
    try:
        net, meta = load_model(cfg.model_path)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {cfg.model_path}; run `train` first") from None
    except OSError as exc:
        raise ConfigError(f"cannot read model file {cfg.model_path}: {exc.strerror}") from None
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


def cmd_train(cfg: ExperimentConfig, args) -> tuple:
    net, _, meta = train_model(cfg)
    print(f"clean test accuracy: {meta['clean_accuracy']:.4f}")
    return net, meta


def _save(net: Network, meta: dict, path) -> list[str]:
    """`train`'s writer: the model file at `path`."""
    save_model(net, path, meta=meta)
    return [path]


def _run_and_report(cfg: ExperimentConfig, args) -> tuple:
    """Stream one experiment and report it."""
    record = run_experiment(_load_model_checked(cfg), cfg.bank, cfg.scenario, cfg.normalizer)
    print(f"mode={cfg.normalizer.mode} scenario={cfg.scenario.kind} seed={cfg.scenario.seed}")
    print(f"mean accuracy: {record.mean_accuracy:.4f} over {record.num_samples} samples")
    for slot, summary in record.cluster_count_summary().items():
        print(f"cluster count {slot}: {summary['mean']:.2f} +- {summary['std']:.2f}")
    for rec in record.sensitivity or ():
        print(f"layer {rec['layer']}: raw={rec['raw_average']:.4f} "
              f"normalized={rec['normalized_score']:.4f} partition={'on' if rec['partition_enabled'] else 'off'}")
    return (record,)


def cmd_compare(cfg: ExperimentConfig, args) -> tuple:
    modes = _entries("--modes", args.modes, canonical_mode) if args.modes else MODES
    rows = compare_modes(_load_model_checked(cfg), cfg.bank, cfg.scenario, cfg.normalizer, modes=modes, seeds=cfg.seeds)
    print(f"{'mode':<10} {'mean_acc':>9} {'std':>7}   seeds={cfg.seeds}")
    for row in rows:
        print(f"{row['mode']:<10} {row['mean_accuracy']:>9.4f} {row['std_accuracy']:>7.4f}")
    return (rows,)


def cmd_sweep_batch(cfg: ExperimentConfig, args) -> tuple:
    sizes = _entries("--sizes", args.sizes, lambda s: COUNT("--sizes entry", int(s))) if args.sizes else SWEEP_BATCH_SIZES
    rows = batch_size_sweep(_load_model_checked(cfg), cfg.bank, cfg.scenario, cfg.normalizer, batch_sizes=sizes)
    for row in rows:
        print(f"batch_size={row['batch_size']:<4} accuracy={row['mean_accuracy']:.4f} ({row['num_samples']} samples)")
    return rows, cfg.normalizer.mode


# Each flag once: (type, the config field it overrides or None, help); a (command, flag) row restates it for one command.
_FLAGS = {
    "--config": (str, None, "JSON experiment config; omitted fields, or all without this flag, take the defaults"),
    "--mode": (str, "normalizer.mode", f"normalizer.mode: {'|'.join(MODES)}"),
    "--alpha": (float, "normalizer.alpha", "normalizer.alpha: the source statistics' share of each blend, in [0, 1]"),
    "--gamma": (float, "normalizer.gamma_threshold", "normalizer.gamma_threshold: find_star's layer gate threshold"),
    "--seed": (int, "scenario.seed", "scenario.seed: the seed of the stream and of the domain set drawn for it"),
    "--out": (str, "out", "out: the prefix of the files written"),
    "--modes": (str, None, f"comma-separated modes, one row each (default {','.join(MODES)})"),
    "--sizes": (str, None, f"comma-separated batch sizes (default {','.join(map(str, SWEEP_BATCH_SIZES))})"),
    ("train", "--out"): (str, "model_path", "model_path: the model file written"),
    ("compare", "--seed"): (int, "scenario.seed", "scenario.seed, here only the domain set's seed: the streams use seeds"),
}
_RUN_FLAGS = "--config --mode --alpha --gamma --seed --out"
_COMMANDS = {  # command: (function, which returns its writer's arguments but the path; help; flags it reads; writer)
    "train": (cmd_train, "build templates, capture source stats, fit head, write model file", "--config --out", _save),
    "run": (_run_and_report, "run one experiment and write metrics", _RUN_FLAGS, write_metrics),
    "compare": (cmd_compare, "sweep normalizer modes over the configured seeds",
                "--config --alpha --gamma --seed --out --modes", write_comparison),
    "diagnose": (_run_and_report, "run and dump cluster-count and sensitivity diagnostics", _RUN_FLAGS, dump_diagnostics),
    "sweep-batch": (cmd_sweep_batch, "accuracy across batch sizes at fixed sample budget", _RUN_FLAGS + " --sizes",
                    write_batch_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neighbornorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, writer) in _COMMANDS.items():
        # no prefix matching: compare's --modes would take a --mode; fields: a flag's dest -> the config field it sets
        p, fields = sub.add_parser(name, help=help_text, allow_abbrev=False), {}
        for flag in flags.split():
            kind, field, flag_help = _FLAGS.get((name, flag), _FLAGS[flag])
            p.add_argument(flag, type=kind, help=flag_help)
            if field:
                fields[flag[2:]] = field
        p.set_defaults(func=func, fields=fields, writer=writer)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args)
        values, path = args.func(cfg, args), getattr(cfg, args.fields["out"])
        try:  # the one place the directory is made: every check has passed, and the first file follows
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the directory of {path}: {exc}") from None
        paths = args.writer(*values, path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/numeric failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print("wrote " + ", ".join(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
