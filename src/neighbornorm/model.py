"""Forward-only layered classifier with pluggable normalization slots.

The backbone is a stack of conv(3x3, pad 1) -> normalize -> relu ->
avgpool(2x2) stages followed by a linear head. Conv weights are seeded
Gaussians scaled by 1/sqrt(fan-in) and are never trained; the head is a
closed-form ridge regression on one-hot targets. Source statistics for
each normalization slot, and the head's features, come from one
front-to-back pass over clean data; neither depends on batch order.

The public kernels check their inputs. A `Network` checks its input once, at
entry, runs the stages through the bodies behind them (`_conv`; `_normalize`,
the one FABN body, which checks only the channel count and normalizes in place;
relu in place), and checks at exit that the result is finite (else ValueError).
A stage sees the whole batch, as the grouping must; the two kernels whose temporaries
grow with it, `_conv` and `sample_moments`, run over blocks of `tensors._BLOCK`
samples, so those stay in L2, and no bit depends on block edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .normalization import NormalizerConfig, SlotTrace, SourceStats, _normalize
from .rules import COUNT, EPS, NUM_CLASSES, POSITIVE, SEED, integers, pooled_shape
from .tensors import _BLOCK, ChannelStats, as_feature_map, pooled_stats, sample_moments

__all__ = [
    "LinearHead",
    "Network",
    "conv2d_3x3",
    "avg_pool_2x2",
    "train_linear_head",
    "save_model",
    "load_model",
    "ModelFormatError",
]

MODEL_FORMAT = "neighbornorm-model-v1"


def conv2d_3x3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """3x3 convolution, stride 1, zero padding 1. w is (Cout, Cin, 3, 3)."""
    x = as_feature_map(x)
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 4 or w.shape[2:] != (3, 3) or w.shape[1] != x.shape[1]:
        raise ValueError(f"kernel shape {w.shape} does not fit input {x.shape}")
    return _conv(x, w)


def _conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`conv2d_3x3` of a canonical map and a float32 kernel that fits it, unchecked.

    Per block of `_BLOCK` samples, one im2col matmul over a flat zero-padded (block, Cin,
    H+3, W+2) buffer: window (dy, dx) of a channel is the contiguous run of H*(W+2) floats
    from row dy, column dx, so the column copy moves long runs, and each output row
    carries two spare columns, dropped at the end (the spare row bounds the last run).
    Every block writes only the buffer's interior, so its border is zeroed once.
    """
    b, c_in, h, wd = x.shape
    out = np.empty((b, w.shape[0], h, wd), np.float32)
    pad = np.zeros((min(b, _BLOCK), c_in, h + 3, wd + 2), np.float32)
    w2 = w.reshape(w.shape[0], c_in * 9)
    for i in range(0, b, _BLOCK):
        n = min(b - i, _BLOCK)
        xp = pad[:n]
        xp[:, :, 1 : h + 1, 1:-1] = x[i : i + n]
        windows = np.ndarray((n, c_in, 3, 3, h * (wd + 2)), np.float32, buffer=xp, strides=(*xp.strides[:3], 4, 4))
        out[i : i + n] = (w2 @ windows.reshape(n, c_in * 9, h * (wd + 2))).reshape(n, w.shape[0], h, wd + 2)[:, :, :, :wd]
    return out


def avg_pool_2x2(x: np.ndarray) -> np.ndarray:
    """Mean of each 2x2 block, summed ((a + b) + c) + d into one new array, then times 0.25."""
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool_2x2 needs even spatial dims, got {h}x{w}")
    out = x[:, :, ::2, ::2] + x[:, :, ::2, 1::2]
    out += x[:, :, 1::2, ::2]
    out += x[:, :, 1::2, 1::2]
    out *= np.float32(0.25)
    return out


def _finite(x: np.ndarray) -> np.ndarray:
    """`x`, or ValueError if an entry is NaN or Inf: the stages behind the entry check overflowed."""
    if not np.isfinite(x).all():
        raise ValueError("the network's stages overflowed to NaN or Inf on this input")
    return x


@dataclass(frozen=True)
class LinearHead:
    weight: np.ndarray  # (classes, feature_dim) float32
    bias: np.ndarray  # (classes,) float32
    ridge_lambda: float

    @property
    def num_classes(self) -> int:
        return self.weight.shape[0]


def train_linear_head(features: np.ndarray, labels: np.ndarray, ridge_lambda: float, num_classes: int) -> LinearHead:
    """Ridge regression onto one-hot targets via the normal equations.

    A constant column is appended for the bias, which is regularized like
    every other coefficient.
    """
    feats = np.asarray(features)
    labels = np.asarray(labels).reshape(-1)
    if feats.ndim != 2 or feats.shape[0] != labels.shape[0]:
        raise ValueError("features must be (N, D) with one label per row")
    ridge_lambda, k = POSITIVE("ridge_lambda", ridge_lambda), NUM_CLASSES("num_classes", num_classes)
    counts = np.bincount(labels, minlength=k)
    if counts.size > k or np.any(counts[:k] == 0):
        raise ValueError("every class needs at least one training sample")

    n, d = feats.shape
    a = np.ones((n, d + 1))  # float64 design matrix; the last column carries the bias
    a[:, :d] = feats
    y = np.zeros((n, k), dtype=np.float64)
    y[np.arange(n), labels] = 1.0
    gram = a.T @ a + ridge_lambda * np.eye(d + 1)
    try:
        w_aug = np.linalg.solve(gram, a.T @ y)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"ridge system is singular beyond regularization: {exc}") from exc
    if not np.isfinite(w_aug).all():
        raise ArithmeticError("ridge solve produced non-finite coefficients")
    return LinearHead(
        weight=np.ascontiguousarray(w_aug[:d].T, dtype=np.float32),
        bias=w_aug[d].astype(np.float32),
        ridge_lambda=ridge_lambda,
    )


class Network:
    """Fixed-weight conv backbone with one normalization slot per stage."""

    def __init__(self, conv_weights: list, input_shape: tuple, seed: int, eps: float = 1e-5):
        self.conv_weights = [np.asarray(w, dtype=np.float32) for w in conv_weights]
        self.input_shape = tuple(int(v) for v in input_shape)
        self.seed = int(seed)
        self.eps = float(eps)
        self.source_stats: list = [None] * len(self.conv_weights)
        self.head: LinearHead | None = None

    @classmethod
    def build(cls, channels=(8, 16), input_shape=(1, 16, 16), seed: int = 0, eps: float = 1e-5) -> "Network":
        rng = np.random.default_rng(seed)
        weights = []
        c_in = input_shape[0]
        for c_out in channels:
            fan_in = c_in * 9
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(c_out, c_in, 3, 3))
            weights.append(w.astype(np.float32))
            c_in = c_out
        return cls(weights, input_shape, seed, eps)

    @property
    def num_slots(self) -> int:
        return len(self.conv_weights)

    @property
    def channels(self) -> tuple:
        return tuple(w.shape[0] for w in self.conv_weights)

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = as_feature_map(x)
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"input shape {x.shape[1:]} does not match network input {self.input_shape}")
        return x

    def _require_stats(self) -> None:
        if any(s is None for s in self.source_stats):
            raise RuntimeError("source statistics not captured; run capture_source_stats first")

    def _stage(self, h: np.ndarray, k: int, cfg: NormalizerConfig, enabled: bool = True) -> tuple[np.ndarray, SlotTrace]:
        """Stage k on a canonical map of any batch size, unchecked: conv, normalize in place on the
        stage's own conv map, relu in place, pool."""
        h, trace = _normalize(_conv(h, self.conv_weights[k]), self.source_stats[k], cfg, enabled)
        return avg_pool_2x2(np.maximum(h, np.float32(0.0), out=h)), trace

    def backbone(self, x: np.ndarray, cfg: NormalizerConfig, gating=None) -> tuple[np.ndarray, list[SlotTrace]]:
        """Features after all stages, plus one trace per normalization slot.

        `gating` is an optional per-slot sequence of partition flags; None
        leaves partitioning on everywhere (only the partitioning modes
        look at it). Checks the input once; non-finite features raise ValueError.
        """
        h = self._check_input(x)
        self._require_stats()
        if gating is not None and len(gating) != self.num_slots:
            raise ValueError(f"gating must list {self.num_slots} flags")
        traces = []
        for k in range(self.num_slots):
            h, trace = self._stage(h, k, cfg, True if gating is None else bool(gating[k]))
            traces.append(trace)
        return _finite(h.reshape(h.shape[0], -1)), traces

    def forward(self, x: np.ndarray, cfg: NormalizerConfig, gating=None, collect_traces: bool = False):
        """Class scores (B, K); with `collect_traces`, also per-slot traces."""
        if self.head is None:
            raise RuntimeError("no linear head attached; train or load one first")
        feats, traces = self.backbone(x, cfg, gating)
        logits = feats @ self.head.weight.T + self.head.bias
        return (logits, traces) if collect_traces else logits

    def capture_source_stats(self, clean_batches) -> np.ndarray:
        """Fit each slot's source statistics from clean batches; return the (N, D) sbn features.

        One front-to-back sweep: slot k pools `sample_moments` of every batch's conv map, finalizes its
        statistics, then moves every batch through stage k into one array per slot (not per batch: that
        keeps the heap unfragmented), so nothing depends on batch order and the features are bitwise
        `backbone(x, sbn)`. Each conv runs twice, as keeping every slot-0 conv map would cost ~21 MB.
        """
        hs = [self._check_input(b) for b in clean_batches]
        if not hs:
            raise ValueError("clean training stream is empty")
        cfg = NormalizerConfig(mode="sbn")
        cuts = np.cumsum([h.shape[0] for h in hs])[:-1]
        for k in range(self.num_slots):
            parts = [sample_moments(_finite(_conv(h, self.conv_weights[k]))) for h in hs]
            sums, m2 = (np.concatenate(p) for p in zip(*parts))
            _, _, height, width = hs[0].shape
            self.source_stats[k] = SourceStats.with_identity_affine(pooled_stats(sums, m2, height * width), self.eps)
            out = np.empty((sums.shape[0], self.channels[k], height // 2, width // 2), np.float32)
            for h, rows in zip(hs, np.split(out, cuts)):
                rows[...] = self._stage(h, k, cfg)[0]
            hs = np.split(out, cuts)
        return _finite(out.reshape(out.shape[0], -1))


class ModelFormatError(ValueError):
    """A model file `save_model` did not write: bad header, tensor shapes, size or values."""


def _expected_manifest(channels: list, input_shape: list, num_classes: int) -> list:
    """[name, shape] of every tensor, in payload order, for a network of these sizes."""
    c_ins = (input_shape[0], *channels[:-1])
    manifest = [[f"conv{k}", [c_out, c_in, 3, 3]] for k, (c_in, c_out) in enumerate(zip(c_ins, channels))]
    for k, c in enumerate(channels):
        manifest += [[f"slot{k}.{part}", [c]] for part in ("mean", "var", "affine_scale", "affine_shift")]
    _, h, w = input_shape
    scale = 2 ** len(channels)
    head_dim = channels[-1] * (h // scale) * (w // scale)
    return manifest + [["head.weight", [num_classes, head_dim]], ["head.bias", [num_classes]]]


def _tensor_manifest(net: Network) -> list[tuple[str, np.ndarray]]:
    arrays = list(net.conv_weights)
    for src in net.source_stats:
        arrays += [src.stats.mean, src.stats.var, src.affine_scale, src.affine_shift]
    names = [name for name, _ in _expected_manifest(list(net.channels), list(net.input_shape), net.head.num_classes)]
    return list(zip(names, arrays + [net.head.weight, net.head.bias]))


def _check_header(header) -> None:
    """Raise ValueError unless `save_model` could have written this header, which holds every size as a JSON
    integer; `load_model` raises it as a ModelFormatError."""
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT or header.get("dtype") != "<f4":
        raise ModelFormatError(f"not a {MODEL_FORMAT} header with a '<f4' payload")
    channels = integers("channels", header.get("channels"), COUNT)
    input_shape = pooled_shape("input_shape", header.get("input_shape"), len(channels))
    num_classes = NUM_CLASSES("num_classes", header.get("num_classes"))
    if not isinstance(header.get("meta", {}), dict):
        raise ModelFormatError("meta must be an object")
    SEED("seed", header.get("seed"))
    EPS("eps", header.get("eps"))
    POSITIVE("ridge_lambda", header.get("ridge_lambda"))
    expected = _expected_manifest(channels, input_shape, num_classes)
    if header.get("tensors") != expected:
        raise ModelFormatError(f"tensor manifest {header.get('tensors')!r} does not match the sizes, expected {expected}")
    shapes = [d for _, shape in header["tensors"] for d in shape]
    if any(type(v) is not int for v in [*header["channels"], *header["input_shape"], header["num_classes"], *shapes]):
        raise ModelFormatError("channels, input_shape, num_classes and tensor shapes must be JSON integers")


def save_model(net: Network, path, meta: dict | None = None) -> None:
    """Write a model file: one JSON header line, then the little-endian
    float32 payload of every tensor in manifest order."""
    net._require_stats()
    if net.head is None:
        raise RuntimeError("cannot save a model without a head")
    named = _tensor_manifest(net)
    header = {
        "format": MODEL_FORMAT,
        "seed": net.seed,
        "eps": net.eps,
        "input_shape": list(net.input_shape),
        "channels": list(net.channels),
        "num_classes": net.head.num_classes,
        "ridge_lambda": net.head.ridge_lambda,
        "dtype": "<f4",
        "tensors": [[name, list(arr.shape)] for name, arr in named],
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in named:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_model(path) -> tuple[Network, dict]:
    """Read a model file written by `save_model`; returns (network, meta).

    Any header, tensor shape, payload size or value `save_model` would not
    write raises ModelFormatError.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        _check_header(header)
        sizes = [math.prod(shape) for _, shape in header["tensors"]]
        if len(payload) != 4 * sum(sizes):
            raise ModelFormatError(f"payload has {len(payload)} bytes, the header lists {4 * sum(sizes)}")
        flat = np.frombuffer(payload, dtype="<f4")
        if not np.isfinite(flat).all():
            raise ModelFormatError("payload contains NaN or Inf")
        ends = np.cumsum(sizes)
        tensors = {
            name: flat[end - size : end].reshape(shape).astype(np.float32)
            for (name, shape), size, end in zip(header["tensors"], sizes, ends)
        }
        channels = header["channels"]
        net = Network(
            conv_weights=[tensors[f"conv{k}"] for k in range(len(channels))],
            input_shape=tuple(header["input_shape"]),
            seed=header["seed"],
            eps=header["eps"],
        )
        for k in range(len(channels)):
            net.source_stats[k] = SourceStats(
                stats=ChannelStats(tensors[f"slot{k}.mean"], tensors[f"slot{k}.var"]),
                affine_scale=tensors[f"slot{k}.affine_scale"],
                affine_shift=tensors[f"slot{k}.affine_shift"],
                eps=header["eps"],
            )
    except ValueError as exc:  # the checks above, an undecodable header, a negative variance
        raise ModelFormatError(f"{path}: {exc}") from exc
    net.head = LinearHead(
        weight=tensors["head.weight"],
        bias=tensors["head.bias"],
        ridge_lambda=header["ridge_lambda"],
    )
    return net, header.get("meta", {})
