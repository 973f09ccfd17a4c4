"""Feature-map normalization modes.

Five modes share one affine transform and differ only in where the
mean/variance come from:

  sbn       frozen source statistics
  tbn       statistics of the current batch
  alpha_bn  convex blend of source and current-batch statistics
  find      partition the batch into like-distributed groups, blend each
            group's statistics with the source, normalize per group
  find_star find, but a harness-level calibration may disable the
            partitioning per layer (a disabled layer behaves as alpha_bn)

Statistics are frozen at capture time; nothing here keeps state across
batches.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grouping import Partition, first_neighbor_labels
from .tensors import ChannelStats, as_feature_map, merge_moments, sample_moments, segment_moments

__all__ = [
    "MODES",
    "SourceStats",
    "NormalizerConfig",
    "SlotTrace",
    "canonical_mode",
    "group_channel_stats",
    "blend_stats",
    "normalize_groups",
    "apply_normalizer",
    "normalize_layer",
]

MODES = ("sbn", "tbn", "alpha_bn", "find", "find_star")

# Each mode by its name, without the underscore, or with a hyphen; find_star also as find*.
_MODE_ALIASES = {alias: m for m in MODES for alias in (m, m.replace("_", ""), m.replace("_", "-"))} | {"find*": "find_star"}


def canonical_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[str(mode).strip().lower()]
    except KeyError:
        raise ValueError(f"unknown normalizer mode {mode!r}; expected one of {MODES}") from None


def _checked(name: str, value, lo: float, hi: float = math.inf, integral: bool = False, open_lo: bool = False):
    """`value` if it is a finite real number in [lo, hi], or (lo, hi] with `open_lo` (an integer when asked); never a bool."""
    kind = "an integer" if integral else "a finite number"
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if not lo <= value <= hi or (open_lo and value == lo) or (integral and value != int(value)):
        raise ValueError(f"{name} must be {kind} in {'(' if open_lo else '['}{lo}, {hi}], got {value!r}")
    return value


@dataclass(frozen=True)
class SourceStats:
    """Frozen per-channel source statistics plus the layer's affine parameters."""

    stats: ChannelStats
    affine_scale: np.ndarray
    affine_shift: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        scale = np.asarray(self.affine_scale, dtype=np.float32).reshape(-1)
        shift = np.asarray(self.affine_shift, dtype=np.float32).reshape(-1)
        c = self.stats.num_channels
        if scale.shape[0] != c or shift.shape[0] != c:
            raise ValueError("affine parameter length must equal channel count")
        if not (np.isfinite(scale).all() and np.isfinite(shift).all()):
            raise ValueError("affine parameters must be finite")
        _checked("eps", self.eps, 0.0, open_lo=True)
        object.__setattr__(self, "affine_scale", scale)
        object.__setattr__(self, "affine_shift", shift)

    @classmethod
    def with_identity_affine(cls, stats: ChannelStats, eps: float = 1e-5) -> "SourceStats":
        c = stats.num_channels
        return cls(stats=stats, affine_scale=np.ones(c, np.float32), affine_shift=np.zeros(c, np.float32), eps=eps)

    @property
    def num_channels(self) -> int:
        return self.stats.num_channels


@dataclass(frozen=True)
class NormalizerConfig:
    mode: str = "find"
    alpha: float = 0.8
    gamma_threshold: float = 0.1
    cold_start_batches: int = 10

    def __post_init__(self):
        object.__setattr__(self, "mode", canonical_mode(self.mode))
        _checked("alpha", self.alpha, 0.0, 1.0)
        _checked("gamma_threshold", self.gamma_threshold, 0.0)
        cold_start = _checked("cold_start_batches", self.cold_start_batches, 1, integral=True)
        object.__setattr__(self, "cold_start_batches", int(cold_start))


@dataclass(frozen=True)
class SlotTrace:
    """What one normalization call observed: group count (None when the batch
    was normalized whole) and the incoming map's `sample_moments`, (B, C) float64
    sums and m2 over `length` positions, never the map itself. `batch_stats`, the
    full-batch statistics, is merged from them on first read."""

    cluster_count: int | None
    sums: np.ndarray = field(compare=False)
    m2: np.ndarray = field(compare=False)
    length: int

    @cached_property
    def batch_stats(self) -> ChannelStats:
        mean, var = merge_moments(self.sums, self.m2, self.length, np.zeros(self.sums.shape[0], np.intp), 1)
        return ChannelStats(mean[0], var[0])


def _blend(mean: np.ndarray, var: np.ndarray, src: SourceStats, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha parts source, (1 - alpha) parts test; rows of (r, C) blend independently."""
    a = np.float32(alpha)
    one_m = np.float32(1.0) - a
    blended_var = a * src.stats.var + one_m * var
    return a * src.stats.mean + one_m * mean, np.maximum(blended_var, np.float32(0.0))


def _affine(x: np.ndarray, labels: np.ndarray, mean: np.ndarray, var: np.ndarray, src: SourceStats) -> np.ndarray:
    """Normalize sample i with row labels[i] of the (r, C) mean/var, then apply the layer affine."""
    scale = src.affine_scale * (1.0 / np.sqrt(var + np.float32(src.eps)))
    out = x - mean[labels][:, :, None, None]
    out *= scale[labels][:, :, None, None]
    out += src.affine_shift[None, :, None, None]
    return out


def group_channel_stats(x: np.ndarray, partition: Partition) -> list[ChannelStats]:
    """Channel moments of each partition group."""
    x = as_feature_map(x)
    mean, var = segment_moments(x, partition.labels(x.shape[0]), partition.r)
    return [ChannelStats(m, v) for m, v in zip(mean, var)]


def blend_stats(test: ChannelStats, src: SourceStats, alpha: float) -> ChannelStats:
    """Convex blend: alpha parts source statistics, (1 - alpha) parts test statistics.

    Variances are blended directly (not standard deviations).
    """
    _checked("alpha", alpha, 0.0, 1.0)
    if test.num_channels != src.num_channels:
        raise ValueError("channel count mismatch between test and source statistics")
    return ChannelStats(*_blend(test.mean, test.var, src, alpha))


def normalize_groups(x: np.ndarray, partition: Partition, blended: list[ChannelStats], src: SourceStats) -> np.ndarray:
    """Normalize each partition group with its own blended statistics."""
    x = as_feature_map(x)
    if len(blended) != partition.r:
        raise ValueError(f"{len(blended)} stat entries for {partition.r} groups")
    mean, var = np.stack([s.mean for s in blended]), np.stack([s.var for s in blended])
    return _affine(x, partition.labels(x.shape[0]), mean, var, src)


def apply_normalizer(
    x: np.ndarray,
    src: SourceStats,
    cfg: NormalizerConfig,
    partition_enabled: bool = True,
) -> tuple[np.ndarray, SlotTrace]:
    """Normalize one layer's feature map, returning the result and a trace.

    `partition_enabled` only matters for the partitioning modes; a
    disabled layer falls back to the alpha_bn transform, and so does a
    one-sample batch or a one-group partition, through the same code.
    """
    x = as_feature_map(x)
    b, c, h, w = x.shape
    if c != src.num_channels:
        raise ValueError(f"feature map has {c} channels, source stats {src.num_channels}")
    sums, m2 = sample_moments(x)
    labels, count = np.zeros(b, np.intp), None
    if cfg.mode in ("find", "find_star") and partition_enabled:
        labels, count = first_neighbor_labels(sums / (h * w)) if b > 1 else (labels, 1)
    if cfg.mode == "sbn":
        mean, var = src.stats.mean[None], src.stats.var[None]  # one group: row 0 for every sample
    else:
        mean, var = (m.astype(np.float32) for m in merge_moments(sums, m2, h * w, labels, count or 1))
    if cfg.mode in ("alpha_bn", "find", "find_star"):
        mean, var = _blend(mean, var, src, cfg.alpha)
    return _affine(x, labels, mean, var, src), SlotTrace(count, sums, m2, h * w)


def normalize_layer(
    x: np.ndarray,
    src: SourceStats,
    cfg: NormalizerConfig,
    partition_enabled: bool = True,
) -> np.ndarray:
    """`apply_normalizer` without the trace."""
    return apply_normalizer(x, src, cfg, partition_enabled)[0]
