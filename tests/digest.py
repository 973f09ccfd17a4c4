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
  `Network.stem` in `sbn` and in `find` at the stream batch sizes below;
- run_files: the JSON and CSV bytes `write_metrics` gives for one stock-stream `run_experiment` per mode at
  B 1 and 64.
"""

from __future__ import annotations

import argparse
import hashlib
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
ALPHAS = (0.0, 0.3, 0.8, 1.0)
GATINGS = (None, (True, False), (False, True), (False, False))


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
    from neighbornorm import harness, normalization, stream
    from neighbornorm.model import load_model, save_model

    print(f"package: {neighbornorm.__file__}")
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

        group = groups["forward"] = Digest()
        for kind in ("cross_mix", "static"):
            for b in BATCH_SIZES:
                for i in BATCH_INDICES:
                    x = stream.sample_batch(scenario(kind, b), bank, i).x
                    for ncfg, gating in forward_configs(normalization):
                        group.add(*forwarded(net, x, ncfg, gating))

        group = groups["iter_batches"] = Digest()
        for b in STREAM_BATCH_SIZES:
            sc = scenario("cross_mix", b, num_batches=STREAM_BATCHES)
            for ncfg in (normalization.NormalizerConfig(mode="sbn"), normalization.NormalizerConfig(mode="find")):
                with closing(stream.iter_batches(sc, bank, net.stem(ncfg))) as batches:
                    for batch, result in batches:
                        stem = result()  # copied before the forward, which normalizes the conv map in place
                        made = [batch.x, batch.labels, batch.domain_ids] + [
                            a if a is None else a.copy() for a in (stem.conv, stem.moments)]
                        group.add(*made, *forwarded(net, stem, ncfg))

        group = groups["run_files"] = Digest()
        for b in RUN_BATCH_SIZES:
            for mode in normalization.MODES:
                record = harness.run_experiment(net, bank, scenario("cross_mix", b), replace(cfg.normalizer, mode=mode))
                json_path, csv_path, _ = harness.write_metrics(record, os.path.join(tmp, f"{mode}_b{b}"))
                group.add(Path(json_path).read_bytes(), Path(csv_path).read_bytes())

    total = hashlib.sha256()
    for name, group in groups.items():
        digest = group.hash.hexdigest()
        total.update(f"{name} {digest}\n".encode())
        print(f"{name:<13} {group.cases:>5} cases  {digest}")
    print(f"{'total':<13} {'':>11}  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
