"""Set-up, streaming rounds and the metrics computed from them."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
from calibrate import Calibrator
from neighbornorm import harness, model
from tracer import SETUP, Tracer
from workloads import BN_MODES, FIND_MODES, MODES

SETUP_REPEATS = 3  # setup_s is the median of these
MIN_ROUNDS = 2  # the determinism check compares two rounds


@dataclass
class SetUp:
    trained: object  # the network as train_model built it
    net: object  # the same network read back from the model file
    bank: object
    meta: dict
    normalizer: object  # the stock NormalizerConfig


def scenario_for(spec: dict, seed: int):
    """The stock scenario with the workload's fields, streamed with `seed`.

    The domain set stays the config's, as in `harness.compare_modes`.
    """
    cfg = harness.load_experiment_config(
        None,
        {
            "scenario.kind": spec["kind"],
            "scenario.batch_size": spec["batch_size"],
            "scenario.num_batches": spec["num_batches"],
        },
    )
    return replace(cfg.scenario, seed=seed)


def set_up(model_path: str) -> SetUp:
    """Train, write the model file and read it back, as `train` then `run` do.

    Module attributes are looked up at call time so the tracer sees them.
    """
    cfg = harness.load_experiment_config(None)
    trained, _, meta = harness.train_model(cfg)
    model.save_model(trained, model_path, meta=meta)
    net, meta = model.load_model(model_path)
    bank = harness.bank_from_config(meta["data"])
    return SetUp(trained, net, bank, meta, cfg.normalizer)


def stream_round(setup: SetUp, scenario, calibrator: Calibrator, tracer: Tracer | None = None) -> dict:
    """Stream the scenario once per mode: mode -> (MetricsRecord, wall s, reference s)."""
    out = {}
    for mode in MODES:
        ncfg = replace(setup.normalizer, mode=mode)
        if tracer is not None:
            tracer.mode = mode
        try:
            out[mode] = calibrator.timed(lambda: harness.run_experiment(setup.net, setup.bank, scenario, ncfg))
        finally:
            if tracer is not None:
                tracer.mode = None
    return out


def end_to_end(spec: dict, seed: int, seconds: float, workdir: str):
    """Untraced run: (metrics, attempted, failures, notes)."""
    scenario = scenario_for(spec, seed)
    calibrator = Calibrator(spec["batch_size"])
    setups = [calibrator.timed(lambda: set_up(os.path.join(workdir, f"model{i}.nnm"))) for i in range(SETUP_REPEATS)]
    failures = checks.check_setups([s for s, _, _ in setups], scenario)
    setup = setups[-1][0]

    rounds = []  # mode -> (record, wall s, reference s); only round 1 keeps its records
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(stream_round(setup, scenario, calibrator))
        if len(rounds) > 1:
            failures += checks.check_same_outputs(rounds[0], rounds[-1], workdir, f"round {len(rounds)}")
            rounds[-1] = {mode: (None, wall, ref) for mode, (_, wall, ref) in rounds[-1].items()}
    records = {mode: record for mode, (record, _, _) in rounds[0].items()}
    failures += checks.check_stream(records, setup, scenario, spec, seed)

    def pooled_rate(modes, column):
        samples = sum(records[m].num_samples for m in modes)
        return statistics.median(samples / sum(r[m][column] for m in modes) for r in rounds)

    metrics = {
        "setup_s": (statistics.median(ref for _, _, ref in setups), "s"),
        "find_samples_per_s": (pooled_rate(FIND_MODES, 2), "samples/s"),
        "bn_samples_per_s": (pooled_rate(BN_MODES, 2), "samples/s"),
    }
    for mode in MODES:
        metrics[f"{mode}_accuracy"] = (records[mode].mean_accuracy, "fraction")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")

    notes = [
        f"set-ups {SETUP_REPEATS}, rounds {len(rounds)}; wall clock before scaling to the reference speed: "
        f"setup {statistics.median(wall for _, wall, _ in setups):.3f} s, "
        f"find {pooled_rate(FIND_MODES, 1):.1f} samples/s, bn {pooled_rate(BN_MODES, 1):.1f} samples/s"
    ]
    for mode in MODES:
        wall = statistics.median(r[mode][1] for r in rounds)
        notes.append(f"mode {mode:<9} wall {wall:.3f} s (median of rounds)  accuracy {records[mode].mean_accuracy:.4f}")
    attempted = len(rounds) * len(MODES) * scenario.total_batches
    return metrics, attempted, failures, notes


def per_layer(spec: dict, seed: int, seconds: float, workdir: str):
    """Traced run: (metrics, attempted, failures, notes). `seconds` is
    unused: the run is one untraced and one traced round, so per-layer
    figures are per round."""
    scenario = scenario_for(spec, seed)
    calibrator = Calibrator(spec["batch_size"])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.mode = SETUP
        setup = set_up(os.path.join(workdir, "model.nnm"))
    finally:
        tracer.mode = None
        tracer.uninstall()
    failures = checks.check_setups([setup], scenario)

    untraced = stream_round(setup, scenario, calibrator)
    tracer.install()
    try:
        traced = stream_round(setup, scenario, calibrator, tracer)
    finally:
        tracer.uninstall()
    failures += checks.check_same_outputs(untraced, traced, workdir, "traced round")
    failures += checks.check_stream({m: r for m, (r, _, _) in untraced.items()}, setup, scenario, spec, seed)

    untraced_s = sum(ref for _, _, ref in untraced.values())
    traced_s = sum(ref for _, _, ref in traced.values())
    metrics = layer_metrics(tracer, {m: r for m, (r, _, _) in traced.items()}, setup.net.num_slots)
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
    notes = [
        f"untraced round {untraced_s:.3f} s, traced round {traced_s:.3f} s at the reference speed; "
        f"traced round {sum(wall for _, wall, _ in traced.values()):.3f} s wall clock; {len(tracer.spans)} spans"
    ]
    attempted = 2 * len(MODES) * scenario.total_batches
    return metrics, attempted, failures, notes


def layer_metrics(tracer: Tracer, records: dict, num_slots: int) -> dict:
    """Per-layer figures of one traced round: self times and counts."""
    self_s = tracer.self_times()
    spans = tracer.span_counts()
    slots = range(num_slots)

    def seconds(name, modes=MODES, slot=None):
        return sum(self_s.get((name, mode, slot), 0.0) for mode in modes)

    m = {"stream.sample_batch_s": (seconds("stream.sample_batch"), "s")}
    for k in slots:
        m[f"model.conv_s.slot{k}"] = (seconds("model.conv", slot=k), "s")
    for k in slots:
        m[f"model.relu_pool_s.slot{k}"] = (seconds("model.relu_pool", slot=k), "s")
    m["model.forward_self_s"] = (seconds("model.forward"), "s")
    for mode in MODES:
        for k in slots:
            m[f"normalization.apply_s.{mode}.slot{k}"] = (seconds("normalization.apply", (mode,), k), "s")
    for mode in FIND_MODES:
        for k in slots:
            m[f"grouping.partition_s.{mode}.slot{k}"] = (seconds("grouping.partition", (mode,), k), "s")
    for mode in FIND_MODES:
        for k in slots:
            groups = sum(c for c in records[mode].cluster_counts[f"slot{k}"] if c is not None)
            m[f"grouping.groups.{mode}.slot{k}"] = (groups, "count")
    for mode in MODES:
        m[f"tensors.channel_moments_s.{mode}"] = (seconds("tensors.channel_moments", (mode,)), "s")
    for mode in MODES:
        m[f"tensors.channel_moments.calls.{mode}"] = (spans.get(("tensors.channel_moments", mode), 0), "count")
    for mode in MODES:
        m[f"tensors.as_feature_map.calls.{mode}"] = (tracer.counts.get(("tensors.as_feature_map", mode), 0), "count")
    m["sensitivity.calibrate_s"] = (seconds("sensitivity.calibrate"), "s")
    for mode in MODES:
        m[f"harness.run_self_s.{mode}"] = (seconds("harness.run", (mode,)), "s")
    for name in ("harness.train_model", "model.capture_source_stats", "model.save_model", "model.load_model"):
        m[f"{name}_s"] = (seconds(name, (SETUP,)), "s")
    return m


def machine_facts(nproc: int, blas_threads: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
    }
