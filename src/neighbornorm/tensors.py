"""Dense feature-map substrate and axis-wise channel statistics.

Feature maps are plain float32 numpy arrays of shape (B, C, H, W); a
(B, C, L) array is accepted anywhere a feature map is and treated as
(B, C, 1, L). `as_feature_map` validates at the public entry points; the
moment kernels below take arrays that are already canonical. All
statistics are accumulated in float64 and stored as float32. Variances
are biased (divide by b*L), never negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelStats", "as_feature_map", "channel_moments", "segment_moments"]


def as_feature_map(x: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a feature map to float32 (B, C, H, W).

    Rejects empty axes, wrong rank, and non-finite entries. A 3-d input
    (B, C, L) is reshaped to (B, C, 1, L).
    """
    x = np.asarray(x)
    if x.ndim == 3:
        x = x[:, :, None, :]
    if x.ndim != 4:
        raise ValueError(f"feature map must be 4-d (B,C,H,W) or 3-d (B,C,L), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ValueError(f"feature map axes must be nonempty, got shape {x.shape}")
    x = np.ascontiguousarray(x, dtype=np.float32)
    if not np.isfinite(x).all():
        raise ValueError("feature map contains NaN or Inf")
    return x


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and biased variance (finite float32 vectors of equal length)."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float32).reshape(-1)
        var = np.asarray(self.var, dtype=np.float32).reshape(-1)
        if mean.shape != var.shape:
            raise ValueError(f"mean/var length mismatch: {mean.shape} vs {var.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise ValueError("mean and variance must be finite")
        if np.any(var < 0):
            raise ValueError("variance must be nonnegative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def num_channels(self) -> int:
        return self.mean.shape[0]


def segment_moments(x: np.ndarray, labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment channel mean and biased variance: two (count, C) float64 arrays.

    Sample i of the canonical map `x` belongs to segment `labels[i]` in
    0..count-1; no segment may be empty. Per-sample channel sums are summed
    by label, then the variance is centered on each segment's mean (two
    passes, never E[x^2] - E[x]^2).
    """
    b, c = x.shape[:2]
    x3 = x.reshape(b, c, -1)
    onehot = (labels == np.arange(count)[:, None]).astype(np.float64)  # (count, B)
    n = onehot.sum(axis=1)[:, None] * x3.shape[2]
    mean = onehot @ x3.sum(axis=2, dtype=np.float64) / n
    dev = x3 - mean[labels][:, :, None]  # float64
    var = onehot @ np.einsum("bcl,bcl->bc", dev, dev) / n
    return mean, var


def channel_moments(x: np.ndarray, sample_indices=None) -> ChannelStats:
    """Per-channel mean and biased variance over selected samples and all spatial positions.

    The one-segment case of `segment_moments`. `sample_indices=None`
    selects the whole batch. Indices must be nonempty and in range.
    Variance divides by b*L (no Bessel correction).
    """
    if sample_indices is not None:
        idx = np.asarray(sample_indices, dtype=np.intp).reshape(-1)
        if idx.size == 0:
            raise ValueError("sample_indices must be nonempty")
        if idx.min() < 0 or idx.max() >= x.shape[0]:
            raise ValueError(f"sample index out of range for batch of {x.shape[0]}")
        x = x[idx]
    mean, var = segment_moments(x, np.zeros(x.shape[0], np.intp), 1)
    return ChannelStats(mean[0], var[0])
