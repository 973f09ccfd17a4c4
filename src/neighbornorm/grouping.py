"""Partition a batch into groups of like-distributed samples.

Each sample is summarized by its per-channel spatial mean and pointed at its
most cosine-similar other sample, `first[i]`; the groups are the components
of the graph i -> first[i], in one pass with no recursive merging. Samples
sharing a first neighbor k need no link of their own: i - k - j joins them.
Ties break toward the lowest index and the similarity matrix is exactly
symmetric, so the graph's only cycles are mutual pairs (first[first[i]] == i)
and ceil(log2 B) rounds of pointer jumping bring every sample onto its pair.
A lone sample has no other to point at: its masked row is all -inf, so it
points at itself and is one group, with no branch of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import _BLOCK, sample_moments

__all__ = [
    "Partition",
    "cosine_similarity_matrix",
    "first_neighbor_components",
    "first_neighbor_labels",
    "first_neighbor_partition",
]

# Norms below this are treated as degenerate (all-zero rows) so cosine
# similarity stays finite.
NORM_FLOOR = 1e-12


def cosine_similarity_matrix(means: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of instance-mean rows, symmetric, in [-1, 1]."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2:
        raise ValueError(f"expected (B, C) matrix, got shape {means.shape}")
    norms = np.linalg.norm(means, axis=1)
    unit = means / np.maximum(norms, NORM_FLOOR)[:, None]
    unit_t, sim = np.ascontiguousarray(unit.T), np.empty((len(unit), len(unit)))
    for i in range(0, len(unit), _BLOCK):  # GEMMs too small to wake a BLAS thread (numpy's SYRK is far slower)
        np.matmul(unit[i : i + _BLOCK], unit_t, out=sim[i : i + _BLOCK])
    np.add(sim, sim.T, out=sim)  # numpy buffers the overlapping transpose
    sim *= 0.5
    return np.clip(sim, -1.0, 1.0, out=sim)


def first_neighbor_components(first: np.ndarray) -> tuple[np.ndarray, int]:
    """Components of i -> first[i]: a group id per sample and the group count.

    Every cycle of `first` must be a mutual pair, as `first_neighbor_labels`
    guarantees. Ids rank each group's smallest member, which `np.minimum.at`
    scatters onto its pair in no order that matters, by a cumsum.
    """
    first = np.asarray(first, dtype=np.intp)
    reach, order = first, np.arange(first.shape[0])
    for _ in range((first.shape[0] - 1).bit_length()):  # ceil(log2 B) rounds
        reach = reach[reach]  # first applied 2^k times: on the pair after k rounds
    pair, smallest = np.minimum(reach, first[reach]), np.full(first.shape[0], first.shape[0])
    np.minimum.at(smallest, pair, order)
    lowest = smallest[pair]  # each sample's group's smallest member
    rank = np.cumsum(lowest == order) - 1
    return rank[lowest], int(rank[-1]) + 1


def first_neighbor_labels(means: np.ndarray, segment: int | None = None) -> tuple[np.ndarray, int]:
    """Group id per sample and group count from (B, C) instance means, B >= 1: a lone sample is one group. With a
    `segment` above 1, each run of that many rows is a batch, whose ids are its own shifted by the earlier batches'."""
    sim = cosine_similarity_matrix(means)
    if segment is not None and segment < len(sim):
        batch = np.arange(len(sim)) // segment
        sim[batch[:, None] != batch] = -np.inf  # a one-row batch's row would point at row 0, not at itself
    np.fill_diagonal(sim, -np.inf)  # never its own first neighbor; a fresh matrix, so masked in place
    return first_neighbor_components(np.argmax(sim, axis=1))


@dataclass(frozen=True)
class Partition:
    """Disjoint sample-index groups covering the whole batch.

    Groups are ordered by smallest member and sorted internally, so equal
    inputs give bitwise-equal partitions.
    """

    groups: list


def first_neighbor_partition(x: np.ndarray) -> Partition:
    """Group a canonical batch by the components of its first-neighbor graph."""
    labels, count = first_neighbor_labels(sample_moments(x)[0] / (x.shape[2] * x.shape[3]))
    order = np.argsort(labels, kind="stable")
    return Partition(groups=np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1]))
