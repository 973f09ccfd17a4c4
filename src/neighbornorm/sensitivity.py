"""Per-layer shift sensitivity and the cold-start gating calibration.

A layer's sensitivity to the current batch is the channel-wise KL
divergence between Gaussians fit to the incoming batch and to the
source statistics, averaged over channels and up-weighted when the
divergence is uneven across channels. Scores are averaged over an
initial run of batches, min-max normalized to [0, 1] across layers, and
compared against a threshold: layers at or above it keep per-group
partitioning, the rest are normalized whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensors import ChannelStats

__all__ = [
    "CalibrationState",
    "gaussian_kl_per_channel",
    "sensitivity_score",
]

# Std floor inside the KL computation; keeps near-constant channels finite.
KL_STD_FLOOR = 1e-6


def gaussian_kl_per_channel(target: ChannelStats, source: ChannelStats, eps: float = KL_STD_FLOOR) -> np.ndarray:
    """KL(target || source) per channel for Gaussian fits, float64, >= 0.

    Standard deviations are floored at `eps` before use, so zero-variance
    channels neither divide by zero nor log zero.
    """
    if target.num_channels != source.num_channels:
        raise ValueError("channel count mismatch between target and source statistics")
    if not eps > 0:
        raise ValueError("eps must be positive")
    sig_t = np.maximum(np.sqrt(target.var.astype(np.float64)), eps)
    sig_s = np.maximum(np.sqrt(source.var.astype(np.float64)), eps)
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


@dataclass
class CalibrationState:
    """Accumulates per-layer raw scores over the cold-start batches, then
    freezes normalized scores and per-layer partition flags.

    During the cold start every layer partitions; gating only exists
    after `finalize`.
    """

    num_layers: int
    cold_start_batches: int
    batches_seen: int = 0
    score_sums: np.ndarray = field(init=False)
    finalized: bool = field(default=False, init=False)
    raw_averages: np.ndarray | None = field(default=None, init=False)
    normalized_scores: np.ndarray | None = field(default=None, init=False)
    enabled: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("need at least one layer")
        if self.cold_start_batches < 1:
            raise ValueError("cold_start_batches must be >= 1")
        self.score_sums = np.zeros(self.num_layers, dtype=np.float64)

    def accumulate(self, per_layer_scores) -> None:
        if self.finalized:
            raise RuntimeError("calibration already finalized")
        scores = np.asarray(per_layer_scores, dtype=np.float64).reshape(-1)
        if scores.shape[0] != self.num_layers:
            raise ValueError(f"got {scores.shape[0]} scores for {self.num_layers} layers")
        if self.batches_seen >= self.cold_start_batches:
            raise RuntimeError("cold start already complete; finalize before further batches")
        self.score_sums += scores
        self.batches_seen += 1

    def finalize(self, gamma_threshold: float) -> None:
        if self.finalized:
            raise RuntimeError("calibration already finalized")
        if self.batches_seen != self.cold_start_batches:
            raise RuntimeError(
                f"finalize requires {self.cold_start_batches} batches, saw {self.batches_seen}"
            )
        if gamma_threshold < 0:
            raise ValueError("gamma_threshold must be >= 0")
        avg = self.score_sums / self.batches_seen
        lo, hi = float(avg.min()), float(avg.max())
        if hi > lo:
            normalized = (avg - lo) / (hi - lo)
        else:
            # No signal separating the layers: keep partitioning everywhere.
            normalized = np.ones_like(avg)
        self.raw_averages = avg
        self.normalized_scores = normalized
        self.enabled = normalized >= gamma_threshold
        self.finalized = True

    def partition_enabled(self, layer: int) -> bool:
        if not self.finalized:
            return True
        return bool(self.enabled[layer])

    def as_records(self) -> list[dict]:
        """One record per layer: index, raw average, normalized score, flag."""
        if not self.finalized:
            raise RuntimeError("calibration not finalized")
        return [
            {
                "layer": i,
                "raw_average": float(self.raw_averages[i]),
                "normalized_score": float(self.normalized_scores[i]),
                "partition_enabled": bool(self.enabled[i]),
            }
            for i in range(self.num_layers)
        ]
