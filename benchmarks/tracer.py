"""Outside-in span tracer for the neighbornorm layers.

The tracer replaces public functions of the package with wrappers under
the names their callers look up (for example `neighbornorm.model.conv2d_3x3`,
which `Network.backbone` reads from its module globals), so the package
itself is never edited. Each wrapped call records a span: name, slot,
stream mode, parent span, start and end. Spans stay in memory until the
run ends; a layer's self time is its span's duration minus that of its
child spans.

A wrapped name that a later version of the package no longer has is
skipped, and the layer then reports zero calls and zero time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# Set-up spans record while the tracer's mode is SETUP; stream spans record
# while a normalizer mode is streaming. A set-up span's self time therefore
# includes the layer calls made inside it (capture_source_stats runs the
# backbone), and stream layers only ever report time spent streaming.
SETUP = "setup"

# Slot rule: "sibling" numbers calls of the same function under one parent
# (the k-th conv2d_3x3 inside one forward is slot k); "parent" inherits the
# slot of the enclosing span (a partition belongs to its apply_normalizer).
# (module, attribute, span name, phase, slot rule)
SPANNED = (
    ("neighbornorm.harness", "train_model", "harness.train_model", SETUP, None),
    ("neighbornorm.model", "Network.capture_source_stats", "model.capture_source_stats", SETUP, None),
    ("neighbornorm.model", "save_model", "model.save_model", SETUP, None),
    ("neighbornorm.model", "load_model", "model.load_model", SETUP, None),
    ("neighbornorm.harness", "run_experiment", "harness.run", "stream", None),
    ("neighbornorm.harness", "sample_batch", "stream.sample_batch", "stream", None),
    ("neighbornorm.harness", "gaussian_kl_per_channel", "sensitivity.calibrate", "stream", None),
    ("neighbornorm.harness", "sensitivity_score", "sensitivity.calibrate", "stream", None),
    ("neighbornorm.model", "Network.forward", "model.forward", "stream", None),
    ("neighbornorm.model", "conv2d_3x3", "model.conv", "stream", "sibling"),
    ("neighbornorm.model", "apply_normalizer", "normalization.apply", "stream", "sibling"),
    ("neighbornorm.model", "relu", "model.relu_pool", "stream", "sibling"),
    ("neighbornorm.model", "avg_pool_2x2", "model.relu_pool", "stream", "sibling"),
    ("neighbornorm.normalization", "first_neighbor_partition", "grouping.partition", "stream", "parent"),
    ("neighbornorm.normalization", "channel_moments", "tensors.channel_moments", "stream", None),
)

# Counted without a span, so their time stays in the caller's self time.
COUNTED = tuple(
    (module, "as_feature_map", "tensors.as_feature_map")
    for module in (
        "neighbornorm.tensors",
        "neighbornorm.grouping",
        "neighbornorm.normalization",
        "neighbornorm.model",
    )
)


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, current value) or None when the name is gone."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


class Tracer:
    """Records spans while installed and `mode` is set; see module doc."""

    def __init__(self):
        self.mode = None
        self.spans = []  # (name, slot, mode, parent index or None, start, end)
        self.counts = defaultdict(int)  # (name, mode) -> calls
        self._stack = []  # (span index, slot, {function key: calls under this span})
        self._undo = []

    def install(self) -> None:
        for module_name, attribute, name, phase, slot_rule in SPANNED:
            self._patch(module_name, attribute, lambda fn: self._span(fn, name, phase, slot_rule, attribute))
        for module_name, attribute, name in COUNTED:
            self._patch(module_name, attribute, lambda fn: self._counter(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _patch(self, module_name, attribute, make_wrapper) -> None:
        """Replace the attribute with make_wrapper(original), called at once."""
        found = _resolve(module_name, attribute)
        if found is None:
            return
        owner, leaf, original = found
        self._undo.append((owner, leaf, original))
        setattr(owner, leaf, make_wrapper(original))

    def _span(self, fn, name, phase, slot_rule, key):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mode = tracer.mode
            if mode is None or (mode == SETUP) != (phase == SETUP):
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            slot = None
            if slot_rule == "sibling":
                calls = parent[2] if parent else {}
                slot = calls.get(key, 0)
                calls[key] = slot + 1
            elif slot_rule == "parent" and parent:
                slot = parent[1]
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((index, slot, {}))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (name, slot, mode, parent[0] if parent else None, start, end)

        return traced

    def _counter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.mode is not None:
                tracer.counts[(name, tracer.mode)] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict:
        """(span name, mode, slot) -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, slot, mode, _, start, end) in enumerate(self.spans):
            totals[(name, mode, slot)] += (end - start) - child[i]
        return totals

    def span_counts(self) -> dict:
        """(span name, mode) -> number of spans."""
        counts = defaultdict(int)
        for name, _, mode, _, _, _ in self.spans:
            counts[(name, mode)] += 1
        return counts
