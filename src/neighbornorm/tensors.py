"""Dense feature-map substrate and axis-wise channel statistics.

Feature maps are plain float32 numpy arrays of shape (B, C, H, W); a
(B, C, L) array is accepted anywhere a feature map is and treated as
(B, C, 1, L). `as_feature_map` checks a map once, where it enters a public
entry point (one call per `Network` forward); the kernels behind it take
canonical maps unchecked, and the network checks its result finite at exit.
Statistics are accumulated in float64 and stored as float32. Variances
are biased (divide by b*L), never negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelStats", "as_feature_map", "merge_moments", "pooled_stats", "sample_moments"]


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


def sample_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample channel sums and centered sums of squares: two (B, C) float64 arrays.

    One sum pass over the canonical map, then one pass centered on each sample's
    channel mean (never E[x^2] - E[x]^2); `merge_moments` groups them.
    """
    b, c = x.shape[:2]
    dev = x.reshape(b, c, -1).astype(np.float64)
    sums = dev.sum(axis=2)
    dev -= (sums / dev.shape[2])[:, :, None]
    return sums, np.einsum("bcl,bcl->bc", dev, dev)


def merge_moments(sums: np.ndarray, m2: np.ndarray, length: int, labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group channel mean and biased variance from `sample_moments`: two (count, C) float64 arrays.

    Sample i, with `length` positions per channel, belongs to group
    `labels[i]` in 0..count-1; no group may be empty. A group's centered sum
    of squares sums, over its samples i, m2[i] + length * (m_i - mean_g)^2
    (Chan, Golub & LeVeque, 1979). One group of one sample is (sums / length,
    m2 / length), which the network's one-sample batches take without a merge.
    """
    onehot = (labels == np.arange(count)[:, None]).astype(np.float64)  # (count, B)
    n = onehot.sum(axis=1)[:, None] * length
    mean = onehot @ sums / n
    offset = sums / length - mean[labels]
    var = onehot @ (m2 + length * (offset * offset)) / n
    return mean, var


def pooled_stats(sums: np.ndarray, m2: np.ndarray, length: int) -> ChannelStats:
    """Channel mean and biased variance of every sample together: the one-group `merge_moments`."""
    mean, var = merge_moments(sums, m2, length, np.zeros(sums.shape[0], np.intp), 1)
    return ChannelStats(mean[0], var[0])
