"""Test-side compositions of package kernels that the package does not export under one name.

Unlike `oracles`, these run the library's own code: they stand for what the
network computes, not for an independent reference.
"""

from __future__ import annotations

import numpy as np

from neighbornorm.tensors import ChannelStats, pooled_stats, sample_moments


def batch_stats(x: np.ndarray) -> ChannelStats:
    """Channel mean and biased variance of a canonical map over all samples and positions, as `SlotTrace.batch_stats`."""
    return pooled_stats(*sample_moments(x), x.shape[2] * x.shape[3])


def instance_means(x: np.ndarray) -> np.ndarray:
    """Per-sample channel means of a canonical map, (B, C) float64, as the grouping takes them."""
    return sample_moments(x)[0] / (x.shape[2] * x.shape[3])
