"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately written with scalar Python loops or a
different algorithm than the library (union-find vs. graph traversal,
matrix inverse vs. solve) so the two routes cannot share a bug.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def loop_channel_moments(x, sample_indices=None):
    """Per-channel mean/biased variance via scalar accumulation loops."""
    x = np.asarray(x, dtype=np.float64)
    b, c, h, w = x.shape
    idx = list(range(b)) if sample_indices is None else list(sample_indices)
    means, variances = [], []
    for ch in range(c):
        vals = []
        for i in idx:
            for y in range(h):
                for z in range(w):
                    vals.append(float(x[i, ch, y, z]))
        m = math.fsum(vals) / len(vals)
        v = math.fsum((t - m) ** 2 for t in vals) / len(vals)
        means.append(m)
        variances.append(v)
    return np.array(means), np.array(variances)


def loop_instance_means(x):
    x = np.asarray(x, dtype=np.float64)
    b, c, h, w = x.shape
    out = np.zeros((b, c))
    for i in range(b):
        for ch in range(c):
            out[i, ch] = math.fsum(float(x[i, ch, y, z]) for y in range(h) for z in range(w)) / (h * w)
    return out


def loop_cosine(u, v, floor=1e-12):
    dot = math.fsum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(float(a) ** 2 for a in u))
    nv = math.sqrt(math.fsum(float(b) ** 2 for b in v))
    return dot / (max(nu, floor) * max(nv, floor))


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj


def union_find_partition(x):
    """Partition oracle: scalar-loop cosine, first neighbors, the three
    linking clauses, then union-find components. Groups come out sorted
    by smallest member, members ascending."""
    x = np.asarray(x, dtype=np.float64)
    b = x.shape[0]
    if b == 1:
        return [[0]]
    means = loop_instance_means(x)
    first = []
    for i in range(b):
        best_j, best_sim = None, -math.inf
        for j in range(b):
            if j == i:
                continue
            s = loop_cosine(means[i], means[j])
            if s > best_sim:
                best_sim, best_j = s, j
        first.append(best_j)
    uf = UnionFind(b)
    for i in range(b):
        for j in range(b):
            if i == j:
                continue
            if first[i] == j or first[j] == i or first[i] == first[j]:
                uf.union(i, j)
    comps = {}
    for i in range(b):
        comps.setdefault(uf.find(i), []).append(i)
    return sorted((sorted(members) for members in comps.values()), key=lambda g: g[0])


def pooled_moments(parts):
    """Size-weighted pooling of (count, mean, var) parts."""
    total = sum(n for n, _, _ in parts)
    mean = sum((n / total) * np.asarray(m, dtype=np.float64) for n, m, _ in parts)
    var = sum(
        (n / total) * (np.asarray(v, dtype=np.float64) + (np.asarray(m, dtype=np.float64) - mean) ** 2)
        for n, m, v in parts
    )
    return mean, var


def ridge_normal_equations(features, labels, lam, num_classes):
    """Ridge oracle via explicit inverse of the augmented normal equations."""
    f = np.asarray(features, dtype=np.float64)
    n, d = f.shape
    a = np.concatenate([f, np.ones((n, 1))], axis=1)
    y = np.zeros((n, num_classes))
    y[np.arange(n), np.asarray(labels)] = 1.0
    w = np.linalg.inv(a.T @ a + lam * np.eye(d + 1)) @ (a.T @ y)
    return w[:d].T, w[d]


def loop_conv3x3(x, w):
    """Scalar-loop 3x3 convolution with zero padding 1."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b, c_in, h, wd = x.shape
    c_out = w.shape[0]
    out = np.zeros((b, c_out, h, wd))
    for n in range(b):
        for o in range(c_out):
            for y in range(h):
                for z in range(wd):
                    acc = 0.0
                    for ci in range(c_in):
                        for dy in range(3):
                            for dx in range(3):
                                yy, zz = y + dy - 1, z + dx - 1
                                if 0 <= yy < h and 0 <= zz < wd:
                                    acc += x[n, ci, yy, zz] * w[o, ci, dy, dx]
                    out[n, o, y, z] = acc
    return out


def window_conv3x3(x, w):
    """3x3 convolution, zero padding 1, as one im2col matmul over `sliding_window_view`.

    The columns hold the same products in the same (Cin, dy, dx) order as the
    library's contiguous-row im2col, so a float32 input gives the same bits.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    w = np.asarray(w, dtype=np.float32)
    b, c_in, h, wd = x.shape
    xp = np.zeros((b, c_in, h + 2, wd + 2), dtype=np.float32)
    xp[:, :, 1:-1, 1:-1] = x
    windows = sliding_window_view(xp, (3, 3), axis=(2, 3))  # (B, Cin, H, W, 3, 3)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, c_in * 9, h * wd)
    return (w.reshape(w.shape[0], c_in * 9) @ cols).reshape(b, w.shape[0], h, wd)


def loop_avg_pool2x2(x):
    """Scalar-loop 2x2 average pooling, stride 2."""
    x = np.asarray(x, dtype=np.float64)
    b, c, h, w = x.shape
    out = np.zeros((b, c, h // 2, w // 2))
    for n in range(b):
        for ch in range(c):
            for y in range(h // 2):
                for z in range(w // 2):
                    block = [x[n, ch, 2 * y + dy, 2 * z + dx] for dy in range(2) for dx in range(2)]
                    out[n, ch, y, z] = math.fsum(block) / 4.0
    return out
