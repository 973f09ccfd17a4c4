"""Per-layer shift sensitivity and the cold-start layer gate.

A layer's sensitivity to the current batch is the channel-wise KL
divergence between Gaussians fit to the incoming batch and to the
source statistics, averaged over channels and up-weighted when the
divergence is uneven across channels. The gate is a pure function of
the scores of the cold-start batches: they are averaged per layer,
min-max normalized to [0, 1] across layers, and compared against a
threshold. Layers at or above it keep per-group partitioning, the rest
are normalized whole; every layer partitions during the cold start.
"""

from __future__ import annotations

import numpy as np

from .tensors import ChannelStats

__all__ = [
    "gaussian_kl_per_channel",
    "layer_gate",
    "sensitivity_score",
]

# Std floor inside the KL computation; keeps near-constant channels finite.
KL_STD_FLOOR = 1e-6


def gaussian_kl_per_channel(target: ChannelStats, source: ChannelStats) -> np.ndarray:
    """KL(target || source) per channel for Gaussian fits, float64, >= 0.

    Standard deviations are floored at `KL_STD_FLOOR` before use, so
    zero-variance channels neither divide by zero nor log zero.
    """
    if target.num_channels != source.num_channels:
        raise ValueError("channel count mismatch between target and source statistics")
    sig_t = np.maximum(np.sqrt(target.var.astype(np.float64)), KL_STD_FLOOR)
    sig_s = np.maximum(np.sqrt(source.var.astype(np.float64)), KL_STD_FLOOR)
    mu_t = target.mean.astype(np.float64)
    mu_s = source.mean.astype(np.float64)
    kl = (sig_t**2 + (mu_t - mu_s) ** 2) / (2.0 * sig_s**2) + np.log(sig_s / sig_t) - 0.5
    return np.maximum(kl, 0.0)


def sensitivity_score(kl: np.ndarray) -> float:
    """Score = (1 + sigmoid(std(kl))) * mean(kl), with population std."""
    kl = np.asarray(kl, dtype=np.float64).reshape(-1)
    if kl.size < 1:
        raise ValueError("need at least one channel")
    return float((1.0 + 1.0 / (1.0 + np.exp(-kl.std()))) * kl.mean())


def layer_gate(scores, gamma_threshold: float) -> list[dict]:
    """Per-layer gate records from the cold-start scores.

    `scores` holds one row of raw layer scores per cold-start batch. Each
    layer's average over the batches is min-max normalized across layers
    and compared with `gamma_threshold` (checked >= 0 by
    `NormalizerConfig`): a layer at or above it keeps partitioning. When
    every average is equal nothing separates the layers, so all of them
    keep partitioning. Two unequal layers score exactly 0 and 1, so any gamma
    in (0, 1] turns exactly one off; only a third can score in between.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or 0 in scores.shape:
        raise ValueError(f"need a (batches, layers) score array with both sizes >= 1, got shape {scores.shape}")
    # Row by row in batch order: a pairwise reduction could change the last bit.
    avg = sum(scores) / scores.shape[0]
    lo, hi = float(avg.min()), float(avg.max())
    normalized = (avg - lo) / (hi - lo) if hi > lo else np.ones_like(avg)
    return [
        {"layer": i, "raw_average": float(a), "normalized_score": float(n), "partition_enabled": bool(n >= gamma_threshold)}
        for i, (a, n) in enumerate(zip(avg, normalized))
    ]
