"""Equivalence digest: SHA-256 hashes of what the package computes on the stock model, one per case group and one
over all of them. Two source trees that print the same lines compute the same bits on every case.

    python tests/digest.py --src path/to/tree/src

Run it on two trees, for example a change and its parent each exported with `git archive`, and diff the outputs;
it keeps no golden copy. It imports the package from `--src` alone (pytest's `pythonpath` setting does not
apply here) and prints the file it imported. pytest does not collect it: its name does not start with `test_`.

Case groups, all on the stock config's model and templates:

- model_file: the bytes of the stock model file, as `train_model` and `save_model` write it;
- sample_batch: every scenario kind at each batch size below, batches 0 and 3;
- forward: logits, per-slot cluster counts and trace `sums`/`m2` of `cross_mix` and `static` batches 0 and 3 at
  each batch size below, in every mode, `alpha_bn` at several alphas and `find_star` under every gating;
- iter_batches: each batch, its stem's conv map and moments, and the logits of forwarding the stem, streamed with
  `Network.stem` in `sbn` and in `find` at the stream batch sizes below (a stem made here for the batch, which the
  stream's result gives as its map);
- run_files: the JSON and CSV bytes `write_metrics` gives for one stock-stream `run_experiment` per mode at
  B 1 and 64;
- forward_mixes: the forward group's cases on `shuffle`, `random` and `wild` batches;
- apply_normalizer: the output, trace and input of `apply_normalizer` on the stock slot-0 conv map of
  `cross_mix` batches 0 and 3 at each batch size, in each forward configuration (find_star with the gating's slot-0
  flag); the digest stops with an error if a call writes its input;
- writer_files: the bytes `write_comparison`, `write_batch_sweep` and `dump_diagnostics` write for a
  `WRITER_BATCHES`-batch `cross_mix` stream at B 16: every mode over seeds 0 and 1, the sweep at sizes 1, 4, 16
  and 64 in find, and a find_star run;
- no_logits: the cases of forward, iter_batches and forward_mixes, in that order, with everything but their logits,
  so a change that moves only logits shows those three groups differ while this one does not;
- source_stats: each slot's source mean, var, affine scale and shift and eps, of the network `load_model` returns;
- head: that network's head weight, bias and ridge lambda;
- small_model_file: the bytes of the model file `train_model` and `save_model` write for tests/conftest.py's
  SMALL_CONFIG, whose head follows the BLAS thread count (the stock model's does not).
- one_sample_runs: the JSON and CSV bytes `write_metrics` gives for `ONE_SAMPLE_BATCHES`-batch `cross_mix` and
  `static` runs at B 1, in every mode, find_star at each of `ONE_SAMPLE_COLD_STARTS`, where the run forwards up to
  ceil(`stream._STACK` / B) batches at a time;
- small_batch_stream: each batch's `x`, `labels` and `domain_ids` from `iter_batches` for every scenario kind at
  each of `SMALL_STREAM_BATCH_SIZES`, `SMALL_STREAM_BATCHES` batches over two rounds, which the stream draws
  ceil(`stream._STACK` / B) batches at a time;
- stream_seeds: each batch's `x`, `labels` and `domain_ids` from `iter_batches` and from `sample_batch` for every
  scenario kind at stream seeds `STREAM_SEEDS`, of one to three uint32 words, at each of `STREAM_SEED_BATCH_SIZES`,
  `SMALL_STREAM_BATCHES` batches over two rounds;
- small_batch_runs: the JSON and CSV bytes `write_metrics` gives for `SMALL_RUN_BATCHES`-batch `cross_mix` and
  `random` runs at each of `SMALL_RUN_BATCH_SIZES`, in every mode, find_star at each of `SMALL_RUN_COLD_STARTS`,
  where the run draws ceil(`stream._STACK` / B) batches at a time and forwards each stack in runs;
- tiny_batch_runs: the JSON and CSV bytes `write_metrics` gives for `TINY_RUN_BATCHES`-batch `cross_mix` and `random`
  runs at each of `TINY_RUN_BATCH_SIZES`, in every mode, find_star at each of `TINY_RUN_COLD_STARTS`, a cold start
  inside a stack and one on a stack's edge at the 64-sample stacks this group was made for;
- shifted_forward: the forward group's values for `cross_mix` and `static` batches 0 and 3 at each of
  `SHIFTED_BATCH_SIZES`, in every forward configuration, of the stock network with its slot shifts replaced, one slot's
  by nonzero entries and the other's by +0.0 and -0.0 in turn, each way round, built through the public constructors;
- block_stack_runs: the JSON and CSV bytes `write_metrics` gives for `BLOCK_STACK_RUN_BATCHES`-batch `cross_mix` and
  `random` runs at each of `BLOCK_STACK_RUN_BATCH_SIZES`, in every mode, find_star at each of
  `BLOCK_STACK_COLD_STARTS`, inside and on the edge of a two-batch stack, where the stream's worker runs a stem
  per stack; then a `cross_mix` run of `EDGE_RUN_BATCHES` batches at B 2, find_star with its cold start on the edge
  of a 64-batch stack.

Every array of source_stats and head is hashed with its C-contiguity too, so they show whether the model file is read
back into the same network. The groups before forward_mixes are those of the first version of this script, those
before no_logits those of the second, those before source_stats those of the third, those before small_model_file
those of the fourth, those before one_sample_runs those of the fifth, those before small_batch_stream those of the
sixth, those before stream_seeds those of the seventh, those before small_batch_runs those of the eighth, those
before tiny_batch_runs those of the ninth, those before shifted_forward those of the tenth and those before
block_stack_runs those of the eleventh, so their lines can be diffed against any of their outputs.
The header names the BLAS numpy was built with, the thread count and kernel its OpenBLAS runs with, and
OPENBLAS_CORETYPE: outputs depend on the kernel, so compare only outputs of one kernel.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
import tempfile
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np

BATCH_SIZES = (1, 2, 63, 64, 65, 129, 256, 300)
BATCH_INDICES = (0, 3)
STREAM_BATCH_SIZES = (1, 63, 64, 65, 256)
STREAM_BATCHES = 4
RUN_BATCH_SIZES = (1, 64)
MIX_KINDS = ("shuffle", "random", "wild")
WRITER_BATCHES = 12
ALPHAS = (0.0, 0.3, 0.8, 1.0)
GATINGS = (None, (True, False), (False, True), (False, False))
ONE_SAMPLE_BATCHES = 130
ONE_SAMPLE_COLD_STARTS = (10, 64, 65)
SMALL_STREAM_BATCH_SIZES = (1, 3, 63)
SMALL_STREAM_BATCHES = 70
STREAM_SEEDS = (1, 2**32 - 1, 2**32, 2**64 + 7)
STREAM_SEED_BATCH_SIZES = (1, 3, 64)
SMALL_RUN_BATCH_SIZES = (3, 16, 63)
SMALL_RUN_BATCHES = 50
SMALL_RUN_COLD_STARTS = (5, 22)
TINY_RUN_BATCH_SIZES = (2, 4, 8)
TINY_RUN_BATCHES = 70
TINY_RUN_COLD_STARTS = (7, 32)
SHIFTED_BATCH_SIZES = (1, 64, 256)
BLOCK_STACK_RUN_BATCH_SIZES = (64, 65, 100, 127, 128)
BLOCK_STACK_RUN_BATCHES = 9
BLOCK_STACK_COLD_STARTS = (1, 2, 3)
EDGE_RUN_BATCHES = 130
EDGE_COLD_START = 64


class Digest:
    """A SHA-256 fed with one case at a time: arrays (dtype, shape and bytes), raw bytes (length and bytes) and
    other values, None among them (their repr)."""

    def __init__(self):
        self.hash, self.cases = hashlib.sha256(), 0

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                self.hash.update(repr((value.dtype.str, value.shape)).encode())
                self.hash.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, bytes):
                self.hash.update(repr(len(value)).encode() + value)
            else:
                self.hash.update(repr(value).encode())
        self.cases += 1


def forwarded(net, x, cfg, gating=None) -> list:
    """The logits of a forward, then each slot's cluster count, length and trace sums and m2."""
    logits, traces = net.forward(x, cfg, gating=gating, collect_traces=True)
    return [logits, *[value for tr in traces for value in (tr.cluster_count, tr.length, tr.sums, tr.m2)]]


def blas_facts() -> str:
    """The BLAS numpy was built with; the thread count and kernel of the OpenBLAS it loaded, read from the library
    where its symbols can be found (else "unknown"); and OPENBLAS_CORETYPE, which picks that kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = kernel = "unknown"
    try:
        with open("/proc/self/maps") as fh:  # the shared objects this process has mapped, on Linux
            [lib] = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
        lib = ctypes.CDLL(lib)
        for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            if hasattr(lib, name.format("get_num_threads")):
                get_threads, corename = (getattr(lib, name.format(f)) for f in ("get_num_threads", "get_corename"))
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                threads, kernel = get_threads(), corename().decode()
                break
    except (OSError, ValueError):  # no /proc, or not exactly one OpenBLAS mapped
        pass
    coretype = os.environ.get("OPENBLAS_CORETYPE", "unset")
    return f"{blas.get('name')} {blas.get('version')}, {threads} threads, kernel {kernel}, OPENBLAS_CORETYPE {coretype}"


def forward_configs(normalization):
    NormalizerConfig = normalization.NormalizerConfig
    yield NormalizerConfig(mode="sbn"), None
    yield NormalizerConfig(mode="tbn"), None
    for alpha in ALPHAS:
        yield NormalizerConfig(mode="alpha_bn", alpha=alpha), None
    yield NormalizerConfig(mode="find"), None
    for gating in GATINGS:
        yield NormalizerConfig(mode="find_star"), gating


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src/ directory of the tree to digest")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "neighbornorm" / "__init__.py").is_file():
        parser.error(f"{src} holds no neighbornorm package")
    sys.path.insert(0, str(src))
    import neighbornorm
    from conftest import SMALL_CONFIG
    from neighbornorm import harness, normalization, stream
    from neighbornorm.model import Network, load_model, save_model

    print(f"package: {neighbornorm.__file__}")
    print(f"blas:    {blas_facts()}")
    groups = {}
    cfg = harness.load_experiment_config()
    with tempfile.TemporaryDirectory() as tmp:
        group = groups["model_file"] = Digest()
        trained, bank, meta = harness.train_model(cfg)
        path = os.path.join(tmp, "model.nnm")
        save_model(trained, path, meta=meta)
        group.add(Path(path).read_bytes())
        net, _ = load_model(path)

        def scenario(kind, b, **fields):
            delta = cfg.scenario.dirichlet_delta or (0.5 if kind == "wild" else None)
            return replace(cfg.scenario, kind=kind, batch_size=b, dirichlet_delta=delta, **fields)

        group = groups["sample_batch"] = Digest()
        for kind in stream.SCENARIO_KINDS:
            for b in BATCH_SIZES:
                for i in BATCH_INDICES:
                    batch = stream.sample_batch(scenario(kind, b), bank, i)
                    group.add(batch.x, batch.labels, batch.domain_ids)

        no_logits = Digest()  # fed with each forwarded case's values after its logits; printed last

        def forwards(kinds) -> Digest:
            group = Digest()
            for kind in kinds:
                for b in BATCH_SIZES:
                    for i in BATCH_INDICES:
                        x = stream.sample_batch(scenario(kind, b), bank, i).x
                        for ncfg, gating in forward_configs(normalization):
                            logits, *rest = forwarded(net, x, ncfg, gating)
                            group.add(logits, *rest)
                            no_logits.add(*rest)
            return group

        groups["forward"] = forwards(("cross_mix", "static"))

        group = groups["iter_batches"] = Digest()
        for b in STREAM_BATCH_SIZES:
            sc = scenario("cross_mix", b, num_batches=STREAM_BATCHES)
            for ncfg in (normalization.NormalizerConfig(mode="sbn"), normalization.NormalizerConfig(mode="find")):
                with closing(stream.iter_batches(sc, bank, net.stem(ncfg))) as batches:
                    for batch, result in batches:
                        stem = result()  # below one block the batch's map: its stem is made here
                        stem = net.stem(ncfg)(stem)() if isinstance(stem, np.ndarray) else stem
                        # copied before the forward, which normalizes the conv map in place
                        made = [batch.x, batch.labels, batch.domain_ids] + [
                            a if a is None else a.copy() for a in (stem.conv, stem.moments)]
                        logits, *rest = forwarded(net, stem, ncfg)
                        group.add(*made, logits, *rest)
                        no_logits.add(*made, *rest)

        group = groups["run_files"] = Digest()
        for b in RUN_BATCH_SIZES:
            for mode in normalization.MODES:
                record = harness.run_experiment(net, bank, scenario("cross_mix", b), replace(cfg.normalizer, mode=mode))
                json_path, csv_path, _ = harness.write_metrics(record, os.path.join(tmp, f"{mode}_b{b}"))
                group.add(Path(json_path).read_bytes(), Path(csv_path).read_bytes())

        groups["forward_mixes"] = forwards(MIX_KINDS)

        group = groups["apply_normalizer"] = Digest()
        conv_of = net.stem(normalization.NormalizerConfig(mode="sbn"))  # a batch's slot-0 conv map, as the network makes it
        for b in BATCH_SIZES:
            for i in BATCH_INDICES:
                conv = conv_of(stream.sample_batch(scenario("cross_mix", b), bank, i).x)().conv
                for ncfg, gating in forward_configs(normalization):
                    before = conv.copy()
                    out, trace = normalization.apply_normalizer(conv, net.source_stats[0], ncfg, gating is None or gating[0])
                    if conv.tobytes() != before.tobytes():
                        sys.exit(f"apply_normalizer wrote its input: B={b} batch {i} mode {ncfg.mode}")
                    group.add(out, trace.cluster_count, trace.length, trace.sums, trace.m2, conv)

        group = groups["writer_files"] = Digest()
        sc, ncfg = scenario("cross_mix", 16, num_batches=WRITER_BATCHES), cfg.normalizer
        written = [
            harness.write_comparison(harness.compare_modes(net, bank, sc, ncfg, seeds=(0, 1)), os.path.join(tmp, "cmp")),
            harness.write_batch_sweep(harness.batch_size_sweep(net, bank, sc, replace(ncfg, mode="find"),
                                                               batch_sizes=(1, 4, 16, 64)), "find", os.path.join(tmp, "sweep")),
            harness.dump_diagnostics(harness.run_experiment(net, bank, sc, replace(ncfg, mode="find_star")),
                                     os.path.join(tmp, "diag")),
        ]
        for path in [p for paths in written for p in paths]:
            group.add(Path(path).read_bytes())
        groups["no_logits"] = no_logits

        def layout(a: np.ndarray) -> list:
            return [a, a.flags.c_contiguous]

        group = groups["source_stats"] = Digest()
        for src in net.source_stats:
            group.add(*[v for a in (src.stats.mean, src.stats.var, src.affine_scale, src.affine_shift) for v in layout(a)],
                      src.eps)
        group = groups["head"] = Digest()
        group.add(*layout(net.head.weight), *layout(net.head.bias), net.head.ridge_lambda)

        group = groups["small_model_file"] = Digest()
        config_path, small_path = os.path.join(tmp, "small.json"), os.path.join(tmp, "small.nnm")
        Path(config_path).write_text(json.dumps(SMALL_CONFIG))
        small, _, small_meta = harness.train_model(harness.load_experiment_config(config_path))
        save_model(small, small_path, meta=small_meta)
        group.add(Path(small_path).read_bytes())

        group = groups["one_sample_runs"] = Digest()
        for kind in ("cross_mix", "static"):
            sc = scenario(kind, 1, num_batches=ONE_SAMPLE_BATCHES)
            configs = [replace(cfg.normalizer, mode=mode) for mode in normalization.MODES if mode != "find_star"]
            configs += [replace(cfg.normalizer, mode="find_star", cold_start_batches=c) for c in ONE_SAMPLE_COLD_STARTS]
            for ncfg in configs:
                json_path, csv_path, _ = harness.write_metrics(harness.run_experiment(net, bank, sc, ncfg),
                                                               os.path.join(tmp, f"single_{kind}_{ncfg.mode}"))
                group.add(Path(json_path).read_bytes(), Path(csv_path).read_bytes())

        group = groups["small_batch_stream"] = Digest()
        for kind in stream.SCENARIO_KINDS:
            for b in SMALL_STREAM_BATCH_SIZES:
                sc = scenario(kind, b, num_batches=SMALL_STREAM_BATCHES, rounds=2)
                with closing(stream.iter_batches(sc, bank, net.stem(cfg.normalizer))) as batches:
                    for batch, _ in batches:
                        group.add(batch.x, batch.labels, batch.domain_ids)

        group = groups["stream_seeds"] = Digest()
        for kind in stream.SCENARIO_KINDS:
            for seed in STREAM_SEEDS:
                for b in STREAM_SEED_BATCH_SIZES:
                    sc = scenario(kind, b, num_batches=SMALL_STREAM_BATCHES, rounds=2, seed=seed)
                    with closing(stream.iter_batches(sc, bank, lambda x: lambda: None)) as batches:
                        for i, (batch, _) in enumerate(batches):
                            alone = stream.sample_batch(sc, bank, i)
                            group.add(batch.x, batch.labels, batch.domain_ids, alone.x, alone.labels, alone.domain_ids)

        def small_runs(batch_sizes, num_batches, cold_starts) -> Digest:
            group = Digest()
            configs = [replace(cfg.normalizer, mode=mode) for mode in normalization.MODES if mode != "find_star"]
            configs += [replace(cfg.normalizer, mode="find_star", cold_start_batches=c) for c in cold_starts]
            for kind in ("cross_mix", "random"):
                for b in batch_sizes:
                    for ncfg in configs:
                        record = harness.run_experiment(net, bank, scenario(kind, b, num_batches=num_batches), ncfg)
                        json_path, csv_path, _ = harness.write_metrics(record, os.path.join(tmp, f"small_{kind}_{b}"))
                        group.add(Path(json_path).read_bytes(), Path(csv_path).read_bytes())
            return group

        groups["small_batch_runs"] = small_runs(SMALL_RUN_BATCH_SIZES, SMALL_RUN_BATCHES, SMALL_RUN_COLD_STARTS)
        groups["tiny_batch_runs"] = small_runs(TINY_RUN_BATCH_SIZES, TINY_RUN_BATCHES, TINY_RUN_COLD_STARTS)

        group = groups["shifted_forward"] = Digest()
        for k in range(net.num_slots):  # slot k's shift nonzero, every other slot's zeros of both signs
            shifts = [np.where(np.arange(src.num_channels) % 2, np.float32(-0.0), np.float32(0.0))
                      for src in net.source_stats]
            shifts[k] = np.linspace(-0.5, 0.5, net.source_stats[k].num_channels, dtype=np.float32)
            shifted = Network(net.conv_weights, [normalization.SourceStats(src.stats, src.affine_scale, shift, src.eps)
                                                 for src, shift in zip(net.source_stats, shifts)],
                              net.head, net.input_shape, net.seed, net.eps)
            for kind in ("cross_mix", "static"):
                for b in SHIFTED_BATCH_SIZES:
                    for i in BATCH_INDICES:
                        x = stream.sample_batch(scenario(kind, b), bank, i).x
                        for ncfg, gating in forward_configs(normalization):
                            group.add(*forwarded(shifted, x, ncfg, gating))

        group = groups["block_stack_runs"] = small_runs(BLOCK_STACK_RUN_BATCH_SIZES, BLOCK_STACK_RUN_BATCHES,
                                                        BLOCK_STACK_COLD_STARTS)
        ncfg = replace(cfg.normalizer, mode="find_star", cold_start_batches=EDGE_COLD_START)
        record = harness.run_experiment(net, bank, scenario("cross_mix", 2, num_batches=EDGE_RUN_BATCHES), ncfg)
        json_path, csv_path, _ = harness.write_metrics(record, os.path.join(tmp, "edge"))
        group.add(Path(json_path).read_bytes(), Path(csv_path).read_bytes())

    total = hashlib.sha256()
    for name, group in groups.items():
        digest = group.hash.hexdigest()
        total.update(f"{name} {digest}\n".encode())
        print(f"{name:<16} {group.cases:>5} cases  {digest}")
    print(f"{'total':<16} {'':>11}  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
