"""Forward-only layered classifier with pluggable normalization slots.

The backbone is a stack of conv(3x3, pad 1) -> normalize -> relu ->
avgpool(2x2) stages followed by a linear head. Conv weights are seeded
Gaussians scaled by 1/sqrt(fan-in) and are never trained; the head is a
closed-form ridge regression on one-hot targets. `Network.build` draws the
weights, captures each slot's source statistics and the head's features in
one front-to-back pass over clean data (neither depends on batch order),
fits the head, and only then constructs the network: a `Network` is whole
from construction, and its constructor checks every part once.

The public kernels check their inputs. A `Network` checks its input once, at
entry, runs each stage through one unchecked body, `_stage` (`_conv`; `_normalize`,
the one FABN body, which normalizes and relus in place, a zero shift riding on the
relu; pool), and checks at exit that the result is finite. Capture runs the same body.
`forward` takes a raw batch, or a `Stem` that stands for it: `Network.stem` checks a
batch and runs the first stage's conv and, except in sbn, its `sample_moments`, which
depend on nothing but the batch, so the stream runs it one stack ahead on its worker.
A stage sees the whole batch, as the grouping must; the two kernels whose temporaries
grow with it, `_conv` and `sample_moments`, run over blocks of `tensors._BLOCK`
samples, so those stay in L2, and none of their bits depends on block edges. The
head is computed row by row, so a sample's logits do not depend on its batch beyond
what its features do; only the grouping's similarity GEMM runs in 64-row blocks, so
that no product wakes a BLAS thread.
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
    "Stem",
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


def _conv(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None, scratch: tuple | None = None) -> np.ndarray:
    """`conv2d_3x3` of a canonical map and a float32 kernel that fits it, unchecked.

    Per block of `_BLOCK` samples, one im2col matmul over a flat zero-padded (block, Cin,
    H+3, W+2) buffer: window (dy, dx) of a channel is the contiguous run of H*(W+2) floats
    from row dy, column dx, so the column copy moves long runs, and each output row
    carries two spare columns, dropped at the end (the spare row bounds the last run).
    Every block writes only the buffer's interior, so its border is zeroed once. The result
    goes to `out` and the block buffers are `scratch`, as `_conv_scratch` makes them, where
    given; each is allocated here where not.
    """
    b, c_in, h, wd = x.shape
    c, run = w.shape[0], h * (wd + 2)
    out = np.empty((b, c, h, wd), np.float32) if out is None else out
    pad, cols, prod = _conv_scratch(min(b, _BLOCK), c_in, c, h, wd) if scratch is None else scratch
    w2 = w.reshape(c, c_in * 9)
    for i in range(0, b, _BLOCK):
        n = min(b - i, _BLOCK)
        xp = pad[:n]
        xp[:, :, 1 : h + 1, 1:-1] = x[i : i + n]
        windows = np.ndarray((n, c_in, 3, 3, run), np.float32, buffer=xp, strides=(*xp.strides[:3], 4, 4))
        cols[:n].reshape(n, c_in, 3, 3, run)[...] = windows
        np.matmul(w2, cols[:n], out=prod[:n])
        out[i : i + n] = prod[:n].reshape(n, c, h, wd + 2)[:, :, :, :wd]
    return out


def _conv_scratch(n: int, c_in: int, c: int, h: int, wd: int) -> tuple:
    """`_conv`'s block buffers for blocks of up to `n` samples of Cin x H x W to C channels: the padded input
    with its zero border, the im2col columns and the product rows."""
    run = h * (wd + 2)
    return (np.zeros((n, c_in, h + 3, wd + 2), np.float32), np.empty((n, c_in * 9, run), np.float32),
            np.empty((n, c, run), np.float32))


def avg_pool_2x2(x: np.ndarray) -> np.ndarray:
    """Mean of each 2x2 block, summed ((a + b) + c) + d into one new array, then times 0.25."""
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool_2x2 needs even spatial dims, got {h}x{w}")
    out = x[:, :, ::2, ::2] + x[:, :, ::2, 1::2]
    out += x[:, :, 1::2, ::2]
    out += x[:, :, 1::2, 1::2]
    out *= 0.25
    return out


def _finite(x: np.ndarray) -> np.ndarray:
    """`x`, or ValueError if an entry is NaN or Inf: the stages behind the entry check overflowed."""
    if not np.isfinite(x).all():
        raise ValueError("the network's stages overflowed to NaN or Inf on this input")
    return x


@dataclass(frozen=True)
class LinearHead:
    """Class scores `features @ weight.T + bias`: a finite float32 (K, D) weight and (K,) bias for K >= 2 classes,
    and the positive ridge lambda that fitted them."""

    weight: np.ndarray
    bias: np.ndarray
    ridge_lambda: float

    def __post_init__(self):
        weight, bias = np.ascontiguousarray(self.weight, np.float32), np.asarray(self.bias, np.float32)
        if weight.ndim != 2 or bias.shape != weight.shape[:1] or not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise ValueError(f"head must be a finite (K, D) weight and (K,) bias, got shapes {weight.shape} and {bias.shape}")
        NUM_CLASSES("num_classes", weight.shape[0])
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "ridge_lambda", POSITIVE("ridge_lambda", self.ridge_lambda))

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
    return LinearHead(weight=w_aug[:d].T, bias=w_aug[d], ridge_lambda=ridge_lambda)


def _checked(x: np.ndarray, input_shape: tuple) -> np.ndarray:
    """`x` as a canonical map of samples shaped `input_shape`, or ValueError."""
    x = as_feature_map(x)
    if x.shape[1:] != input_shape:
        raise ValueError(f"input shape {x.shape[1:]} does not match network input {input_shape}")
    return x


def _stage(conv: np.ndarray, src: SourceStats, cfg: NormalizerConfig, enabled: bool = True,
           moments: np.ndarray | None = None, segment: int | None = None) -> tuple[np.ndarray, SlotTrace]:
    """One stage after its conv, on a conv map of any batch size, unchecked: normalize the map in place against `src`
    (`moments`: its `sample_moments`, if measured already; `segment`: the samples per batch) and relu it, pool."""
    h, trace = _normalize(conv, src, cfg, enabled, moments, segment=segment, relu=True)
    return avg_pool_2x2(h), trace


@dataclass(eq=False, slots=True)
class Stem:
    """A checked batch, or stack of batches, after the first stage's conv, which `Network.forward` takes in its place.

    `conv` is the slot-0 conv map, float32 (B, C, H, W); `moments` is its `sample_moments`, or None in a stem
    made for sbn, the one mode that does not measure the batch. The forward normalizes the map in place and
    then drops it (`conv` becomes None), so a stem is forwarded once, and only by `net`, the network that made it.
    """

    net: "Network"
    conv: np.ndarray | None
    moments: np.ndarray | None


class Network:
    """Fixed-weight conv backbone with one normalization slot per stage, whole from construction.

    The constructor checks every part once: `input_shape` pools evenly through the stages, `seed` and `eps` follow
    their rules, each conv kernel is a finite (C_out, C_in, 3, 3) array that chains from the input's channels, each
    slot's `SourceStats` has its conv's C_out channels and the network's eps, and the head takes the pooled feature
    count. Anything it accepts comes back bitwise from `save_model` and `load_model`; a forward whose stages overflow
    (sbn scales a zero source variance by 1/sqrt(eps), ~2**74 at eps 2**-149) raises the exit check's ValueError.
    """

    def __init__(self, conv_weights, source_stats, head: LinearHead, input_shape, seed: int, eps: float = 1e-5):
        self.conv_weights = tuple(np.asarray(w, dtype=np.float32) for w in conv_weights)
        self.source_stats, self.head = tuple(source_stats), head
        self.input_shape = tuple(pooled_shape("input_shape", input_shape, len(self.conv_weights)))
        self.seed, self.eps = SEED("seed", seed), EPS("eps", eps)
        if not self.conv_weights or len(self.source_stats) != len(self.conv_weights):
            raise ValueError(f"source_stats must hold one entry per conv, of one or more: got {len(self.source_stats)} "
                             f"for {len(self.conv_weights)}")
        c_in = self.input_shape[0]
        for k, (w, src) in enumerate(zip(self.conv_weights, self.source_stats)):
            if w.shape[1:] != (c_in, 3, 3) or not w.size or not np.isfinite(w).all():
                raise ValueError(f"conv_weights[{k}] must be a finite (C, {c_in}, 3, 3) kernel, got shape {w.shape}")
            if src.num_channels != w.shape[0] or src.eps != self.eps:
                raise ValueError(f"source_stats[{k}] must have {w.shape[0]} channels and eps {self.eps}, "
                                 f"got {src.num_channels} and {src.eps}")
            c_in = w.shape[0]
        width = c_in * (self.input_shape[1] >> self.num_slots) * (self.input_shape[2] >> self.num_slots)
        if head.weight.shape[1] != width:
            raise ValueError(f"head must take the {width} pooled features, got width {head.weight.shape[1]}")

    @classmethod
    def build(cls, channels, input_shape, seed: int, eps: float, clean_batches, labels, ridge_lambda: float,
              num_classes: int) -> "Network":
        """Draw seeded Gaussian kernels scaled by 1/sqrt(fan-in), capture their source statistics on `clean_batches`,
        and fit the ridge head on the captured features against `labels`, one per sample in batch order."""
        rng = np.random.default_rng(SEED("seed", seed))  # the constructor checks it too, after the capture
        weights, c_in = [], input_shape[0]
        for c_out in channels:
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(c_in * 9), size=(c_out, c_in, 3, 3)).astype(np.float32))
            c_in = c_out
        source_stats, features = cls.capture_source_stats(weights, input_shape, clean_batches, eps)
        head = train_linear_head(features, labels, ridge_lambda, num_classes)
        return cls(weights, source_stats, head, input_shape, seed, eps)

    @classmethod
    def capture_source_stats(cls, conv_weights, input_shape, clean_batches, eps: float) -> tuple[list, np.ndarray]:
        """Each slot's `SourceStats` (identity affine, `eps`) for the float32 kernels `conv_weights`, fitted on clean
        batches of `input_shape` samples, and the (N, D) sbn features of those batches.

        One front-to-back sweep: slot k pools `sample_moments` of every batch's conv map, finalizes its
        statistics, then moves every batch through stage k into one array per slot (not per batch: that
        keeps the heap unfragmented), so nothing depends on batch order and the features are bitwise
        `backbone(x, sbn)`. Each conv runs twice, as keeping every slot-0 conv map would cost ~21 MB.
        """
        hs = [_checked(b, tuple(input_shape)) for b in clean_batches]
        if not hs or not conv_weights:
            raise ValueError("capture needs a nonempty clean stream and one or more conv kernels")
        cfg, source_stats = NormalizerConfig(mode="sbn"), []
        cuts = np.cumsum([h.shape[0] for h in hs])[:-1]
        for w in conv_weights:
            sums, m2 = np.concatenate([sample_moments(_finite(_conv(h, w))) for h in hs], axis=1)
            _, _, height, width = hs[0].shape
            source_stats.append(SourceStats.with_identity_affine(pooled_stats(sums, m2, height * width), eps))
            out = np.empty((sums.shape[0], w.shape[0], height // 2, width // 2), np.float32)
            for h, rows in zip(hs, np.split(out, cuts)):
                rows[...] = _stage(_conv(h, w), source_stats[-1], cfg)[0]
            hs = np.split(out, cuts)
        return source_stats, _finite(out.reshape(out.shape[0], -1))

    @property
    def num_slots(self) -> int:
        return len(self.conv_weights)

    @property
    def channels(self) -> tuple:
        return tuple(w.shape[0] for w in self.conv_weights)

    def stem(self, cfg: NormalizerConfig):
        """The per-stack function, for the mode of `cfg`, that `stream.iter_stacks` runs one stack ahead of the network.

        Called on the calling thread with a raw stack, it checks the stack once and allocates the slot-0 conv map and,
        unless the mode is sbn, its per-sample moments. The callable it returns fills them, on whichever thread runs
        it, and returns the `Stem` that `forward` takes in the batch's place. The block scratch of the conv and the
        moments, sized for `_BLOCK` samples, is allocated on the first call and reused by every later call, so the
        callables of one stem function must run one at a time, as the stream runs them."""
        w, measure = self.conv_weights[0], cfg.mode != "sbn"
        (c_in, height, width), c, scratch = self.input_shape, w.shape[0], None

        def prepare(x: np.ndarray):
            nonlocal scratch
            h = _checked(x, self.input_shape)
            if scratch is None:
                scratch = (_conv_scratch(_BLOCK, c_in, c, height, width),
                           np.empty((_BLOCK, c, height * width)) if measure else None)
            (conv_scratch, moments_scratch), conv = scratch, np.empty((h.shape[0], c, height, width), np.float32)
            moments = np.empty((2, h.shape[0], c)) if measure else None

            def fill() -> Stem:
                _conv(h, w, conv, conv_scratch)
                return Stem(self, conv, sample_moments(conv, moments, moments_scratch) if measure else None)

            return fill

        return prepare

    def backbone(self, x, cfg: NormalizerConfig, gating=None, *,
                 segment: int | None = None) -> tuple[np.ndarray, list[SlotTrace]]:
        """Features after all stages, plus one trace per normalization slot; `segment` as `forward` takes it.

        `x` is a raw batch, which is checked once, or a `Stem` of this network, which stands for its batch after
        the first conv; from there both take one path. `gating` is an optional per-slot sequence of partition flags;
        None leaves partitioning on everywhere (only the partitioning modes look at it). Non-finite features raise
        ValueError, and so do a stem that this network did not make, that was forwarded already, or that was made
        for sbn when `cfg`'s mode measures the batch, and a `segment` that does not divide the batch or the stem's rows.
        """
        stem = isinstance(x, Stem)
        if stem and (x.net is not self or x.conv is None):
            raise ValueError("a stem is forwarded once, by the network that made it")
        if stem and x.moments is None and cfg.mode != "sbn":
            raise ValueError(f"this stem was made for sbn and holds no moments; mode {cfg.mode} measures the batch")
        # `first`: the first slot whose conv runs here
        h, moments, first = (x.conv, x.moments, 1) if stem else (_checked(x, self.input_shape), None, 0)
        if segment is not None and (type(segment) is not int and not isinstance(segment, np.integer) or segment < 1
                                    or len(h) % segment):
            raise ValueError(f"segment must be a positive integer dividing the batch's {len(h)} samples, got {segment!r}")
        if gating is not None and len(gating) != self.num_slots:
            raise ValueError(f"gating must list {self.num_slots} flags")
        if stem:  # the arguments hold, so the stem is spent: the first stage normalizes its map in place
            x.conv = None
        traces = []
        for k, (w, src) in enumerate(zip(self.conv_weights, self.source_stats)):
            if k >= first:
                h, moments = _conv(h, w), None
            h, trace = _stage(h, src, cfg, True if gating is None else bool(gating[k]), moments, segment)
            traces.append(trace)
        return _finite(h.reshape(h.shape[0], -1)), traces

    def forward(self, x, cfg: NormalizerConfig, gating=None, collect_traces: bool = False, *, segment: int | None = None):
        """Class scores (B, K) of a raw batch or its `Stem`, as `backbone` takes them; with `collect_traces`, also
        per-slot traces. Each run of `segment` rows of `x` (None: all) is a batch of its own: its logits are bitwise
        its forward alone, and `SlotTrace.row` is its trace, so one call forwards many such batches."""
        feats, traces = self.backbone(x, cfg, gating, segment=segment)
        logits = np.einsum("bd,kd->bk", feats, self.head.weight)  # row by row, no BLAS call: no row sees the batch
        logits += self.head.bias
        return (logits, traces) if collect_traces else logits


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


def _check_header(header) -> None:
    """Raise ValueError unless `save_model` could have written this header, which holds every size as a JSON
    integer; `load_model` raises it as a ModelFormatError."""
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT or header.get("dtype") != "<f4":
        raise ModelFormatError(f"not a {MODEL_FORMAT} header with a '<f4' payload")
    if missing := [key for key in ("seed", "eps", "ridge_lambda") if key not in header]:
        raise ModelFormatError(f"header lacks {', '.join(missing)}")
    channels = integers("channels", header.get("channels"), COUNT)
    input_shape = pooled_shape("input_shape", header.get("input_shape"), len(channels))
    num_classes = NUM_CLASSES("num_classes", header.get("num_classes"))
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError("meta must be an object")
    for section in ("data", "train"):
        if not isinstance(meta.get(section, {}), dict):
            raise ModelFormatError(f"meta.{section} must be an object")
    expected = _expected_manifest(channels, input_shape, num_classes)
    if header.get("tensors") != expected:
        raise ModelFormatError(f"tensor manifest {header.get('tensors')!r} does not match the sizes, expected {expected}")
    shapes = [d for _, shape in header["tensors"] for d in shape]
    if any(type(v) is not int for v in [*header["channels"], *header["input_shape"], header["num_classes"], *shapes]):
        raise ModelFormatError("channels, input_shape, num_classes and tensor shapes must be JSON integers")


def save_model(net: Network, path, meta: dict | None = None) -> None:
    """Write a model file: one JSON header line, whose `tensors` is `_expected_manifest` of the network's sizes, then
    the little-endian float32 payload of those tensors in that order: the kernels, each slot's mean, var,
    affine_scale and affine_shift, then the head's weight and bias."""
    slots = [part for src in net.source_stats for part in (src.stats.mean, src.stats.var, src.affine_scale, src.affine_shift)]
    header = {
        "format": MODEL_FORMAT,
        "seed": net.seed,
        "eps": net.eps,
        "input_shape": list(net.input_shape),
        "channels": list(net.channels),
        "num_classes": net.head.num_classes,
        "ridge_lambda": net.head.ridge_lambda,
        "dtype": "<f4",
        "tensors": _expected_manifest(list(net.channels), list(net.input_shape), net.head.num_classes),
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for arr in [*net.conv_weights, *slots, net.head.weight, net.head.bias]:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_model(path) -> tuple[Network, dict]:
    """Read a model file written by `save_model`; returns (network, meta).

    Any header, tensor shape, payload size or value `save_model` would not write raises ModelFormatError. The
    header's manifest must be `_expected_manifest` of its sizes, so the payload is read by position: converted
    to float32 once, then cut into k kernels, four vectors per slot and the head, views of that one buffer.
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
        parts = np.split(flat.astype(np.float32), np.cumsum(sizes)[:-1])
        tensors = [part.reshape(shape) for part, (_, shape) in zip(parts, header["tensors"])]
        k = len(header["channels"])
        slots, (weight, bias) = tensors[k:-2], tensors[-2:]
        source_stats = [SourceStats(ChannelStats(*slots[i : i + 2]), *slots[i + 2 : i + 4], header["eps"])
                        for i in range(0, 4 * k, 4)]
        head = LinearHead(weight, bias, header["ridge_lambda"])
        net = Network(tensors[:k], source_stats, head, header["input_shape"], header["seed"], header["eps"])
    except ValueError as exc:  # the checks above and the constructors', an undecodable header, a negative variance
        raise ModelFormatError(f"{path}: {exc}") from exc
    return net, header.get("meta", {})
