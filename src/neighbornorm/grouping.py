"""Partition a batch into groups of like-distributed samples.

Each sample is summarized by its per-channel spatial mean; samples are
linked to their most cosine-similar neighbor, two samples also being
linked when either is the other's first neighbor or both share one.
Connected components of that graph are the groups. One pass, no
recursive merging: components are taken directly from the first-neighbor
links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FirstNeighborGraph",
    "Partition",
    "instance_channel_means",
    "cosine_similarity_matrix",
    "first_neighbor_adjacency",
    "first_neighbor_partition",
]

# Norms below this are treated as degenerate (all-zero rows) so cosine
# similarity stays finite.
NORM_FLOOR = 1e-12


def instance_channel_means(x: np.ndarray) -> np.ndarray:
    """Per-sample, per-channel spatial means of a canonical map: a (B, C) float64 matrix."""
    return x.reshape(x.shape[0], x.shape[1], -1).astype(np.float64).mean(axis=2)


def cosine_similarity_matrix(means: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of instance-mean rows, symmetric, in [-1, 1]."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2:
        raise ValueError(f"expected (B, C) matrix, got shape {means.shape}")
    norms = np.linalg.norm(means, axis=1)
    unit = means / np.maximum(norms, NORM_FLOOR)[:, None]
    sim = unit @ unit.T
    sim = (sim + sim.T) / 2.0
    return np.clip(sim, -1.0, 1.0)


@dataclass(frozen=True)
class FirstNeighborGraph:
    """first[i] is sample i's most-similar other sample; adjacency links
    i and j when first[i]=j, first[j]=i, or first[i]=first[j]."""

    first: np.ndarray
    adjacency: np.ndarray


def first_neighbor_adjacency(sim: np.ndarray) -> FirstNeighborGraph:
    """Build the first-neighbor graph from a similarity matrix (B >= 2).

    Argmax ties break toward the lowest index; the diagonal never wins.
    """
    sim = np.asarray(sim, dtype=np.float64)
    b = sim.shape[0]
    if sim.ndim != 2 or sim.shape[1] != b:
        raise ValueError(f"similarity matrix must be square, got {sim.shape}")
    if b < 2:
        raise ValueError("first neighbors need at least two samples")
    masked = sim.copy()
    np.fill_diagonal(masked, -np.inf)
    first = np.argmax(masked, axis=1)  # np.argmax takes the lowest index on ties

    idx = np.arange(b)
    points_to = first[:, None] == idx[None, :]  # first[i] == j
    shares = first[:, None] == first[None, :]  # first[i] == first[j]
    adjacency = points_to | points_to.T | shares
    np.fill_diagonal(adjacency, False)
    return FirstNeighborGraph(first=first, adjacency=adjacency.astype(np.uint8))


@dataclass(frozen=True)
class Partition:
    """Disjoint sample-index groups covering the whole batch.

    Groups are ordered by smallest member and sorted internally, so equal
    inputs give bitwise-equal partitions.
    """

    groups: list = field(default_factory=list)

    @property
    def r(self) -> int:
        return len(self.groups)

    def labels(self, batch_size: int) -> np.ndarray:
        """Group id per sample index; the groups must cover the batch exactly once."""
        lab = np.full(batch_size, -1, dtype=np.intp)
        for g, members in enumerate(self.groups):
            lab[members] = g
        covered = sum(len(g) for g in self.groups)
        if covered != batch_size or lab.min() < 0:
            raise ValueError(f"partition covers {covered} samples but batch has {batch_size}")
        return lab


def _connected_components(adjacency: np.ndarray) -> list:
    """Iterative traversal; no recursion so large batches cannot overflow."""
    b = adjacency.shape[0]
    seen = np.zeros(b, dtype=bool)
    groups = []
    for start in range(b):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            node = stack.pop()
            members.append(node)
            for nb in np.nonzero(adjacency[node])[0]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(int(nb))
        members.sort()
        groups.append(np.asarray(members, dtype=np.intp))
    return groups


def first_neighbor_partition(x: np.ndarray) -> Partition:
    """Group a canonical batch by connected components of its first-neighbor graph.

    A single-sample batch is its own group; the graph is undefined
    without a distinct neighbor.
    """
    b = x.shape[0]
    if b == 1:
        return Partition(groups=[np.asarray([0], dtype=np.intp)])
    means = instance_channel_means(x)
    sim = cosine_similarity_matrix(means)
    graph = first_neighbor_adjacency(sim)
    return Partition(groups=_connected_components(graph.adjacency))
