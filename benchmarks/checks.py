"""Output checks, run outside the timed sections.

Each check returns a list of failure messages; an empty list is a pass.
They test properties and an independent oracle, never a stored copy of
earlier output:

- set-up: clean accuracy, a bitwise model-file round trip, unchanged
  predictions after the round trip, identical models from every set-up;
- stream: accuracies recomputed from labels regenerated with
  `sample_batch`, group counts within 1..B/2, slot-0 partitions equal to
  the union-find oracle of tests/oracles.py on sampled batches, find_star
  equal to find over the cold start, one-sample batches giving one group,
  and the paper's mode order on the mixed stream;
- determinism: two streams of the same scenario give the same predictions
  and byte-identical metrics files.
"""

from __future__ import annotations

import importlib.util
import os
import random

import numpy as np

from neighbornorm import grouping, harness, model, stream
from neighbornorm.normalization import NormalizerConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CLEAN_ACCURACY = 0.99
MIN_FIND_OVER_TBN = 0.02  # the paper's direction, as the acceptance tests require it
ORACLE_SAMPLES = 512  # batch samples given to the oracle per run, at most 8 batches
ROUND_TRIP_BATCHES = 2
FORWARD_MODES = ("sbn", "tbn", "alpha_bn", "find")  # the modes a bare forward can run


def _oracles():
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("neighbornorm_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _named_tensors(net) -> list:
    named = [(f"conv{k}", w) for k, w in enumerate(net.conv_weights)]
    for k, src in enumerate(net.source_stats):
        named += [
            (f"slot{k}.mean", src.stats.mean),
            (f"slot{k}.var", src.stats.var),
            (f"slot{k}.affine_scale", src.affine_scale),
            (f"slot{k}.affine_shift", src.affine_shift),
        ]
    return named + [("head.weight", net.head.weight), ("head.bias", net.head.bias)]


def _bitwise_differences(a, b, label: str) -> list:
    failures = []
    scalars_a = (a.input_shape, a.seed, a.eps, a.head.ridge_lambda, [s.eps for s in a.source_stats])
    scalars_b = (b.input_shape, b.seed, b.eps, b.head.ridge_lambda, [s.eps for s in b.source_stats])
    if scalars_a != scalars_b:
        failures.append(f"{label}: scalar model fields differ: {scalars_a} vs {scalars_b}")
    named_b = dict(_named_tensors(b))
    for name, arr in _named_tensors(a):
        other = named_b.get(name)
        same = (
            other is not None
            and arr.dtype == other.dtype
            and arr.shape == other.shape
            and np.ascontiguousarray(arr).tobytes() == np.ascontiguousarray(other).tobytes()
        )
        if not same:
            failures.append(f"{label}: tensor {name} differs")
    return failures


def check_setups(setups: list, scenario) -> list:
    failures = []
    for i, s in enumerate(setups):
        if not s.meta["clean_accuracy"] >= MIN_CLEAN_ACCURACY:
            failures.append(f"set-up {i}: clean accuracy {s.meta['clean_accuracy']} < {MIN_CLEAN_ACCURACY}")
        failures += _bitwise_differences(s.trained, s.net, f"set-up {i} model-file round trip")
        if i:
            failures += _bitwise_differences(setups[0].net, s.net, f"set-up {i} against set-up 0")
    # Logits are not bitwise equal across the round trip (the trained head
    # weight is Fortran-ordered, the loaded one C-ordered); predictions are.
    s = setups[-1]
    for index in range(min(ROUND_TRIP_BATCHES, scenario.total_batches)):
        x = stream.sample_batch(scenario, s.bank, index).x
        for mode in FORWARD_MODES:
            cfg = NormalizerConfig(mode=mode)
            before = np.argmax(s.trained.forward(x, cfg), axis=1)
            after = np.argmax(s.net.forward(x, cfg), axis=1)
            if not np.array_equal(before, after):
                failures.append(f"model-file round trip changed {mode} predictions on batch {index}")
    return failures


def check_same_outputs(round_a: dict, round_b: dict, workdir: str, label: str) -> list:
    """Same predictions and byte-identical write_metrics JSON and CSV."""
    failures = []
    for mode, (rec_a, *_) in round_a.items():
        rec_b = round_b[mode][0]
        if len(rec_a.predictions) != len(rec_b.predictions) or not all(
            np.array_equal(p, q) for p, q in zip(rec_a.predictions, rec_b.predictions)
        ):
            failures.append(f"{label}: {mode} predictions differ from the first round")
        paths_a = harness.write_metrics(rec_a, os.path.join(workdir, f"{mode}-a"))
        paths_b = harness.write_metrics(rec_b, os.path.join(workdir, f"{mode}-b"))
        for path_a, path_b in zip(paths_a[:2], paths_b[:2]):  # the timing sidecar may differ
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() != fb.read():
                    failures.append(f"{label}: {mode} {os.path.splitext(path_a)[1]} metrics file differs")
    return failures


def check_stream(records: dict, setup, scenario, spec: dict, seed: int) -> list:
    failures = []
    b = scenario.batch_size
    total = scenario.total_batches
    labels = [stream.sample_batch(scenario, setup.bank, i).labels for i in range(total)]

    for mode, rec in records.items():
        hits = sum(int((p == y).sum()) for p, y in zip(rec.predictions, labels))
        samples = sum(y.shape[0] for y in labels)
        if len(rec.predictions) != total or rec.num_samples != samples or hits / samples != rec.mean_accuracy:
            failures.append(f"{mode}: reported accuracy {rec.mean_accuracy} != recomputed {hits}/{samples}")

    # A first-neighbour component has at least two members, so a batch of
    # B >= 2 forms at most B/2 groups; B = 1 is one group.
    most = max(1, b // 2)
    cold = min(setup.normalizer.cold_start_batches, total)
    for mode in ("find", "find_star"):
        for slot, counts in records[mode].cluster_counts.items():
            must_partition = total if mode == "find" else cold
            if any(c is None for c in counts[:must_partition]):
                failures.append(f"{mode} {slot}: a batch that must be partitioned was not")
            bad = [c for c in counts if c is not None and not 1 <= c <= most]
            if bad:
                failures.append(f"{mode} {slot}: group counts {bad[:3]} outside 1..{most}")

    oracles = _oracles()
    picks = random.Random(seed).sample(range(total), min(total, 8, max(1, ORACLE_SAMPLES // b)))
    for index in sorted(picks):
        h = model.conv2d_3x3(stream.sample_batch(scenario, setup.bank, index).x, setup.net.conv_weights[0])
        expected = oracles.union_find_partition(h)
        got = [g.tolist() for g in grouping.first_neighbor_partition(h).groups]
        ran = records["find"].cluster_counts["slot0"][index]
        if got != expected or ran != len(expected):
            failures.append(f"batch {index}: slot-0 partition ({ran} groups in the run) differs from the union-find oracle")

    find, find_star = records["find"].predictions, records["find_star"].predictions
    if not all(np.array_equal(find[i], find_star[i]) for i in range(cold)):
        failures.append("find_star predictions differ from find's during the cold start")
    if b == 1:
        alpha_bn = records["alpha_bn"].predictions
        for mode, preds in (("find", find), ("find_star", find_star)):
            if not all(np.array_equal(p, q) for p, q in zip(preds, alpha_bn)):
                failures.append(f"{mode} predictions differ from alpha_bn's on one-sample batches")

    if spec["paper_order"]:
        acc = {mode: rec.mean_accuracy for mode, rec in records.items()}
        if not (acc["find"] >= acc["alpha_bn"] >= acc["tbn"] and acc["find"] - acc["tbn"] >= MIN_FIND_OVER_TBN):
            failures.append(
                f"mode order: find {acc['find']:.4f}, alpha_bn {acc['alpha_bn']:.4f}, tbn {acc['tbn']:.4f}; "
                f"want find >= alpha_bn >= tbn and find - tbn >= {MIN_FIND_OVER_TBN}"
            )
    return failures
