"""Test-time normalization with first-neighbor feature grouping.

Batches from shifting, possibly mixed domains are normalized per layer:
samples with similar instance-level statistics are grouped by a
first-neighbor graph, each group's statistics are blended with frozen
source statistics, and a per-layer gate computed from the cold-start
batches can switch the grouping off where the shift does not reach.
"""

from .grouping import (
    Partition,
    cosine_similarity_matrix,
    first_neighbor_components,
    first_neighbor_labels,
    first_neighbor_partition,
    first_neighbors,
    instance_channel_means,
)
from .normalization import (
    MODES,
    NormalizerConfig,
    SlotTrace,
    SourceStats,
    apply_normalizer,
    canonical_mode,
)
from .sensitivity import (
    gaussian_kl_per_channel,
    layer_gate,
    sensitivity_score,
)
from .tensors import ChannelStats, as_feature_map, channel_moments

__version__ = "0.1.0"

__all__ = [
    "ChannelStats",
    "as_feature_map",
    "channel_moments",
    "Partition",
    "instance_channel_means",
    "cosine_similarity_matrix",
    "first_neighbors",
    "first_neighbor_components",
    "first_neighbor_labels",
    "first_neighbor_partition",
    "MODES",
    "NormalizerConfig",
    "SourceStats",
    "SlotTrace",
    "canonical_mode",
    "apply_normalizer",
    "gaussian_kl_per_channel",
    "sensitivity_score",
    "layer_gate",
    "__version__",
]
