"""Feature-map normalization modes.

Five modes share one affine transform and differ only in where the
mean/variance come from:

  sbn       frozen source statistics
  tbn       statistics of the current batch
  alpha_bn  convex blend of source and current-batch statistics
  find      partition the batch into like-distributed groups, blend each
            group's statistics with the source, normalize per group
  find_star find, but the per-layer gate `sensitivity.layer_gate` may
            disable the partitioning (a disabled layer behaves as alpha_bn)

Statistics are frozen at capture time and held as plain data; nothing
here keeps state across batches: each call derives the terms it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grouping import first_neighbor_labels
from .rules import COUNT, EPS, NONNEGATIVE, SHARE, one_of
from .tensors import ChannelStats, as_feature_map, merge_moments, pooled_stats, sample_moments

__all__ = [
    "MODES",
    "SourceStats",
    "NormalizerConfig",
    "SlotTrace",
    "canonical_mode",
    "apply_normalizer",
]

MODES = ("sbn", "tbn", "alpha_bn", "find", "find_star")


def canonical_mode(mode: str) -> str:
    """The entry of MODES that `mode` spells; find_star also as find*."""
    return one_of("mode", mode, MODES, {"find*": "find_star"})


@dataclass(frozen=True)
class SourceStats:
    """Frozen per-channel source statistics plus the layer's affine parameters, float32 (C,) vectors; plain data,
    holding its fields alone: `_normalize` derives each term it needs from them where it reads it."""

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
        EPS("eps", self.eps)
        object.__setattr__(self, "affine_scale", scale)
        object.__setattr__(self, "affine_shift", shift)

    @classmethod
    def with_identity_affine(cls, stats: ChannelStats, eps: float = 1e-5) -> "SourceStats":
        c = stats.num_channels
        return cls(stats=stats, affine_scale=np.ones(c, np.float32), affine_shift=np.zeros(c, np.float32), eps=eps)

    @property
    def num_channels(self) -> int:
        return self.stats.num_channels

    def _scale(self, var: np.ndarray) -> np.ndarray:
        """Affine scale over the standard deviation, per row of the (r, C) variance."""
        return self.affine_scale * (1.0 / np.sqrt(var + np.float32(self.eps)))


@dataclass(frozen=True)
class NormalizerConfig:
    mode: str = "find"
    alpha: float = 0.8
    gamma_threshold: float = 0.1
    cold_start_batches: int = 10

    def __post_init__(self):
        object.__setattr__(self, "mode", canonical_mode(self.mode))
        object.__setattr__(self, "alpha", SHARE("alpha", self.alpha))
        object.__setattr__(self, "gamma_threshold", NONNEGATIVE("gamma_threshold", self.gamma_threshold))
        object.__setattr__(self, "cold_start_batches", COUNT("cold_start_batches", self.cold_start_batches))


@dataclass(frozen=True)
class SlotTrace:
    """What one normalization call observed: each batch's group count (None: normalized whole) and the two rows of
    the map's `sample_moments`, (B, C) float64 sums and m2 over `length` positions, never the map itself. `batch_stats`,
    the whole map's statistics, is merged from them on first read. `sbn` measures nothing: those three are None."""

    cluster_counts: list
    sums: np.ndarray | None = field(compare=False)
    m2: np.ndarray | None = field(compare=False)
    length: int

    @property
    def cluster_count(self) -> int | None:  # a one-batch map's; ValueError for a stack, whose batch j's is `row(j)`'s
        [count] = self.cluster_counts
        return count

    @cached_property
    def batch_stats(self) -> ChannelStats | None:
        return None if self.sums is None else pooled_stats(self.sums, self.m2, self.length)

    def row(self, j: int) -> "SlotTrace":
        """Batch j's trace, of a map normalized with `segment`: the trace of its batch alone."""
        rows = (m if m is None else m.reshape(len(self.cluster_counts), -1, m.shape[1])[j] for m in (self.sums, self.m2))
        return SlotTrace(self.cluster_counts[j : j + 1], *rows, self.length)


def apply_normalizer(
    x: np.ndarray,
    src: SourceStats,
    cfg: NormalizerConfig,
    partition_enabled: bool = True,
) -> tuple[np.ndarray, SlotTrace]:
    """Normalize one layer's feature map, returning the result and a trace.

    `partition_enabled` only matters for the partitioning modes; a
    disabled layer falls back to the alpha_bn transform, and so does a
    one-group partition. A one-sample batch is its own group: `_normalize`
    takes its moments without a merge, and the result equals alpha_bn's. `x` is not written.
    """
    x = as_feature_map(x)
    if x.shape[1] != src.num_channels:
        raise ValueError(f"feature map has {x.shape[1]} channels, source stats {src.num_channels}")
    return _normalize(x.copy(), src, cfg, partition_enabled)


def _normalize(x: np.ndarray, src: SourceStats, cfg: NormalizerConfig, partition_enabled: bool,
               moments: np.ndarray | None = None, *, segment: int | None = None, relu=False) -> tuple[np.ndarray, SlotTrace]:
    """`apply_normalizer` of a canonical map with `src`'s channel count, which it normalizes in place, unchecked.
    `moments` is the map's `sample_moments` if the caller measured it already (the network's stem does); else,
    except in sbn, it is measured here. Each run of `segment` rows (None: B) is a batch, normalized bitwise as alone,
    its count in the trace. Mean and variance travel as one (2, count, C) array. A one-sample batch is its own group,
    `moments / L`: `merge_moments`' bits, without labels or a merge; else one merge covers every batch's groups.
    Each group's row blends alpha parts source with (1 - alpha) parts test, except in tbn. `relu` relus the map in
    place after the shift, skipping a zero shift's add: adding +0.0 or -0.0 changes only a -0.0, to the +0.0 relu gives."""
    b, _, h, w = x.shape
    seg = segment or b
    if cfg.mode == "sbn":  # one group; the batch is not measured
        mean, scale = src.stats.mean[None], src._scale(src.stats.var[None])
        trace = SlotTrace([None] * (b // seg), None, None, h * w)
    else:
        moments = sample_moments(x) if moments is None else moments
        grouped = cfg.mode in ("find", "find_star") and partition_enabled
        if seg == 1:  # each sample is its own group: elementwise over rows
            labels, count, mv = None, 1, (moments / (h * w)).astype(np.float32)
        else:
            labels, count = first_neighbor_labels(moments[0] / (h * w), seg) if grouped else (np.arange(b) // seg, b // seg)
            mv = merge_moments(*moments, h * w, labels, count).astype(np.float32)
        if cfg.mode != "tbn":  # no clamp: the batch's variance is >= +0.0 and the source's >= -0.0, so the blend is too
            a = np.float32(cfg.alpha)
            mv *= np.float32(1.0) - a
            mv += a * np.stack((src.stats.mean, src.stats.var))[:, None]
        mean, scale = mv[0], src._scale(mv[1])
        if count > 1:  # one row per sample; a single group's row broadcasts
            mean, scale = mean[labels], scale[labels]
        # batch j's ids start at labels[j * seg], so the one batch of a whole map counts `count`, as its ids start at 0
        counts = ([None] * (b // seg) if not grouped else [1] * b if seg == 1
                  else np.diff(labels[::seg], append=count).tolist())
        trace = SlotTrace(counts, *moments, h * w)
    x -= mean[:, :, None, None]
    x *= scale[:, :, None, None]
    if not relu or src.affine_shift.any():  # False for entries of +0.0 and -0.0 alike
        x += src.affine_shift[:, None, None]
    return np.maximum(x, 0.0, out=x) if relu else x, trace
