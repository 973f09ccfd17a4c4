"""Dense feature-map substrate and axis-wise channel statistics.

Feature maps are plain float32 numpy arrays of shape (B, C, H, W).
`as_feature_map` checks a map once, where it enters a public
entry point (one call per `Network` forward); the kernels behind it take
canonical maps unchecked, and the network checks its result finite at exit.
Statistics are accumulated in float64 and stored as float32. Variances
are biased (divide by b*L), never negative. Each pair of moments travels as
one stacked float64 array: a batch's per-sample (sums, centered sums of
squares) as (2, B, C), a grouping's (mean, variance) as (2, count, C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelStats", "as_feature_map", "merge_moments", "pooled_stats", "sample_moments"]

# Samples per block in the two kernels with batch-sized temporaries, `sample_moments` and
# `model._conv`: at 64 each block's temporary (at most 1.4 MiB, the stock slot-1 im2col
# buffer) fits a 2 MiB L2, where a B=256 batch's would be 5.6 MiB.
_BLOCK = 64


def as_feature_map(x: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a feature map to float32 (B, C, H, W).

    Rejects empty axes, wrong rank, and non-finite entries.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"feature map must be 4-d (B,C,H,W), got shape {x.shape}")
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


def sample_moments(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Per-sample channel sums and centered sums of squares, stacked: one C-contiguous (2, B, C) float64
    array, so `sums, m2 = sample_moments(x)` unpacks it.

    Per `_BLOCK` samples, one sum pass over a float64 copy of the canonical map, then
    one pass centered on each sample's channel mean (never E[x^2] - E[x]^2), both written
    straight into the result; `merge_moments` groups them. A sample's row does not depend on its batch.
    The result goes to `out` and the block copy to `scratch`, a float64 (n, C, H*W) array of n >= min(B,
    `_BLOCK`) samples, where given; each is allocated here where not.
    """
    b, c = x.shape[:2]
    flat = x.reshape(b, c, -1)
    moments = np.empty((2, b, c)) if out is None else out
    scratch = np.empty((min(b, _BLOCK), *flat.shape[1:])) if scratch is None else scratch
    for i in range(0, b, _BLOCK):
        dev = scratch[: min(b - i, _BLOCK)]
        dev[...] = flat[i : i + _BLOCK]
        dev -= (dev.sum(axis=2, out=moments[0, i : i + _BLOCK]) / dev.shape[2])[:, :, None]
        np.einsum("bcl,bcl->bc", dev, dev, out=moments[1, i : i + _BLOCK])
    return moments


def merge_moments(sums: np.ndarray, m2: np.ndarray, length: int, labels: np.ndarray, count: int) -> np.ndarray:
    """Per-group channel mean and biased variance from `sample_moments`, stacked: one (2, count, C) float64
    array, so `mean, var = merge_moments(*sample_moments(x), ...)` unpacks it.

    Sample i, with `length` positions per channel, belongs to group
    `labels[i]` in 0..count-1; no group may be empty. A group's centered sum
    of squares sums, over its samples i, m2[i] + length * (m_i - mean_g)^2
    (Chan, Golub & LeVeque, 1979). One group of one sample is `sample_moments / length`,
    which the network's one-sample batches take without a merge.
    """
    onehot = (labels == np.arange(count)[:, None]).astype(np.float64)  # (count, B)
    n, mv = onehot.sum(axis=1)[:, None] * length, np.empty((2, count, sums.shape[1]))
    offset = sums / length - np.divide(onehot @ sums, n, out=mv[0])[labels]
    np.divide(onehot @ (m2 + length * (offset * offset)), n, out=mv[1])
    return mv


def pooled_stats(sums: np.ndarray, m2: np.ndarray, length: int) -> ChannelStats:
    """Channel mean and biased variance of every sample together: the one-group `merge_moments`."""
    mean, var = merge_moments(sums, m2, length, np.zeros(sums.shape[0], np.intp), 1)
    return ChannelStats(mean[0], var[0])
