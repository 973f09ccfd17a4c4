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

Statistics are frozen at capture time; nothing here keeps state across
batches.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grouping import first_neighbor_labels
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
    """Frozen per-channel source statistics plus the layer's affine parameters. The normalizer's
    constant terms are computed once and reused: the float32 `eps`, the (1, C, 1, 1) shift, and
    the source's share of each alpha's blend, computed on its first `_blend`."""

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
        object.__setattr__(self, "_eps", np.float32(self.eps))  # the constant terms are not fields, so not in asdict
        object.__setattr__(self, "_shift", shift[None, :, None, None])  # as `_affine` adds it
        object.__setattr__(self, "_blends", {})  # alpha -> float32 (alpha * mean, alpha * var, 1 - alpha)

    @classmethod
    def with_identity_affine(cls, stats: ChannelStats, eps: float = 1e-5) -> "SourceStats":
        c = stats.num_channels
        return cls(stats=stats, affine_scale=np.ones(c, np.float32), affine_shift=np.zeros(c, np.float32), eps=eps)

    @property
    def num_channels(self) -> int:
        return self.stats.num_channels

    def _scale(self, var: np.ndarray) -> np.ndarray:
        """Affine scale over the standard deviation, per row of the (r, C) variance."""
        return self.affine_scale * (1.0 / np.sqrt(var + self._eps))

    @cached_property
    def source_scale(self) -> np.ndarray:
        """`_scale` of the source variance as one (1, C) row, sbn's; computed on first read."""
        return self._scale(self.stats.var[None])


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
    full-batch statistics, is merged from them on first read. `sbn` never
    measures the batch: its sums, m2 and batch_stats are None."""

    cluster_count: int | None
    sums: np.ndarray | None = field(compare=False)
    m2: np.ndarray | None = field(compare=False)
    length: int

    @cached_property
    def batch_stats(self) -> ChannelStats | None:
        return None if self.sums is None else pooled_stats(self.sums, self.m2, self.length)


def _blend(mean: np.ndarray, var: np.ndarray, src: SourceStats, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha parts source, (1 - alpha) parts test; rows of (r, C) blend independently."""
    terms = src._blends.get(alpha)
    if terms is None:  # the source's share is constant per alpha
        a = np.float32(alpha)
        terms = src._blends[alpha] = (a * src.stats.mean, a * src.stats.var, np.float32(1.0) - a)
    a_mean, a_var, one_m = terms
    return a_mean + one_m * mean, np.maximum(a_var + one_m * var, np.float32(0.0))


def _affine(x: np.ndarray, mean: np.ndarray, scale: np.ndarray, src: SourceStats, out: np.ndarray | None = None) -> np.ndarray:
    """(x - mean) * scale + shift into `out` (may be x) or one new array; mean and scale are (B, C) rows, or one (1, C)."""
    out = x - mean[:, :, None, None] if out is None else np.subtract(x, mean[:, :, None, None], out=out)
    out *= scale[:, :, None, None]
    out += src._shift
    return out


def apply_normalizer(
    x: np.ndarray,
    src: SourceStats,
    cfg: NormalizerConfig,
    partition_enabled: bool = True,
) -> tuple[np.ndarray, SlotTrace]:
    """Normalize one layer's feature map, returning the result and a trace.

    `partition_enabled` only matters for the partitioning modes; a
    disabled layer falls back to the alpha_bn transform, and so does a
    one-group partition. A one-sample batch is its own group: `_rows`
    takes its moments without a merge, and the result equals alpha_bn's.
    """
    return _normalize(as_feature_map(x), src, cfg, partition_enabled)


def _normalize(x: np.ndarray, src: SourceStats, cfg: NormalizerConfig, partition_enabled: bool) -> tuple[np.ndarray, SlotTrace]:
    """`apply_normalizer` of a canonical map, which it does not check: `sample_moments`, `_rows`, `_affine`."""
    sums, m2 = (None, None) if cfg.mode == "sbn" else sample_moments(x)  # sbn never measures the batch
    mean, scale, trace = _rows(x.shape, sums, m2, src, cfg, partition_enabled)
    return _affine(x, mean, scale, src), trace


def _rows(shape: tuple, sums, m2, src: SourceStats, cfg: NormalizerConfig, partition_enabled: bool):
    """(mean, scale, trace) of the whole batch from its `sample_moments` (None in sbn); checks only the channel count.
    A one-sample batch is its own group, `sums / L` and `m2 / L`: `merge_moments`' bits, without labels or a merge."""
    b, c, h, w = shape
    if c != src.num_channels:
        raise ValueError(f"feature map has {c} channels, source stats {src.num_channels}")
    if cfg.mode == "sbn":  # one group; the batch is not measured
        return src.stats.mean[None], src.source_scale, SlotTrace(None, None, None, h * w)
    count = 1 if cfg.mode in ("find", "find_star") and partition_enabled else None
    if b == 1:  # the sample is its own group
        moments = sums / (h * w), m2 / (h * w)
    else:
        labels, count = first_neighbor_labels(sums / (h * w)) if count else (np.zeros(b, np.intp), None)
        moments = merge_moments(sums, m2, h * w, labels, count or 1)
    mean, var = (m.astype(np.float32) for m in moments)
    if cfg.mode != "tbn":
        mean, var = _blend(mean, var, src, cfg.alpha)
    scale = src._scale(var)
    if (count or 1) > 1:  # one row per sample; a single group's row broadcasts
        mean, scale = mean[labels], scale[labels]
    return mean, scale, SlotTrace(count, sums, m2, h * w)
