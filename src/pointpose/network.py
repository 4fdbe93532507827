"""Point-set network: shared per-point encoder, max-pool, two heads.

PointNet semantics, implemented directly on numpy: a shared MLP encodes
every point, a per-dimension max over the 2048 points forms the global
feature, a binary classifier head consumes the global feature, and a
(K+1)-way segmentation head consumes each point's skip feature (the
encoder's second layer, or its first when the encoder has two layers;
`NetworkConfig.skip_layer`) concatenated with the global feature.
Backprop, Adam, and weight files are implemented here as well; all
computation follows the weights' dtype (float32 for training speed,
float64 for gradient checks).

Point sets hold N >= 2 points. Training (`assemble_features`) and
detection (`pipeline`) both lay out a set's channels by `write_features`.

`forward` is `encode` (encoder and max-pool), then `classify` (the
classifier head on the pooled features), then the segmenter. The first
two are public so that a caller can encode a large set of examples in
blocks, on several threads, and classify the pooled rows at once, as
`pipeline.detect` does.
Its spheres repeat their points only after every distinct one, so
`encode` takes each example's count of leading distinct rows and runs its
layers over those rows alone; max-pool ignores repeats. A product's rows
may round differently with other rows beside them (BLAS kernels vary with
the matrix size), so such pooled features equal those of all N rows to
float rounding, and a caller whose results must not depend on scheduling
encodes the same sets together every time, as `pipeline.detect` does.

Neither pass holds the widest encoder layer's (B*N, wide) activation:
training and inference run one encoder pass, which max-pools each
example's wide product in row tiles of at most 512 rows (_WIDE_TILE_ROWS)
and, in training, keeps each feature's argmax point; backward sends each
pooled feature's gradient to that point as a sparse product. So an
inference encode of 2048-point sets holds one block's narrow buffers (2
sets) and one (512, wide) tile, ~6 MiB for the paper network, whatever B
is: `pipeline.detect` runs one such encode on each of its threads.
Inference holds no (B*N, width) segmenter activation either: the
segmenter runs one example at a time into reused (N, width) buffers.
Training keeps those activations whole, because backward reads them, but
its step holds no buffer past its last reader: backward builds the
softmax over the seg logits, writes each layer's gradient over its
activation, takes the ReLU masks one row block at a time, and puts the
skip gradient and the pooled layer's winner rows into segmenter buffers
that have been read for the last time (see backward).
"""

from __future__ import annotations

import json
import numbers
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from .errors import TrainingDivergedError, WeightsFormatError

_EPS = 1e-12  # clamp inside logs


@dataclass(frozen=True)
class NetworkConfig:
    """Layer widths; segmenter's last width must equal k+1, classifier's 1.

    The segmenter reads each point's skip_layer output beside the pooled
    global feature: the encoder's second layer, or its first when it has
    only two. The skip layer is always below the pooled wide layer.
    """

    k: int
    input_channels: int = 7  # xyz + normal + curvature (10 with RGB)
    encoder: Tuple[int, ...] = (64, 64, 128, 1024)
    classifier: Tuple[int, ...] = (512, 256, 1)
    segmenter: Tuple[int, ...] = (512, 256, 128, 0)  # 0 placeholder -> k+1

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.k, self.input_channels, *self.encoder, *self.classifier,
                             *self.segmenter)):
            raise ValueError("k, input_channels and layer widths must be integers")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.input_channels not in (7, 10):
            raise ValueError("input_channels must be 7 (geometry) or 10 (with RGB)")
        if len(self.encoder) < 2:
            raise ValueError("encoder needs at least two layers (skip and pooled)")
        if not self.classifier or self.classifier[-1] != 1:
            raise ValueError("classifier must end in a single logistic unit")
        seg = tuple(self.segmenter)
        if seg and seg[-1] == 0:
            seg = seg[:-1] + (self.k + 1,)
            object.__setattr__(self, "segmenter", seg)
        if not self.segmenter or self.segmenter[-1] != self.k + 1:
            raise ValueError("segmenter must end in k+1 units")
        if min(*self.encoder, *self.classifier, *self.segmenter) < 1:
            raise ValueError("layer widths must be positive")

    @property
    def skip_layer(self) -> int:
        """Index of the encoder layer whose output the segmenter reads."""
        return min(1, len(self.encoder) - 2)

    @property
    def seg_input_width(self) -> int:
        return self.encoder[self.skip_layer] + self.encoder[-1]

    def to_dict(self) -> dict:
        return {"k": self.k, "input_channels": self.input_channels,
                "encoder": list(self.encoder), "classifier": list(self.classifier),
                "segmenter": list(self.segmenter)}

    @staticmethod
    def from_dict(d: dict) -> "NetworkConfig":
        return NetworkConfig(k=d["k"], input_channels=d["input_channels"],
                             encoder=tuple(d["encoder"]), classifier=tuple(d["classifier"]),
                             segmenter=tuple(d["segmenter"]))


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 80
    w_cls: float = 0.15
    w_seg: float = 0.85
    seed: int = field(default=0, metadata={"config": False})

    def __post_init__(self):
        # written so that NaN fails too
        if not abs(self.w_cls + self.w_seg - 1.0) <= 1e-9:
            raise ValueError("loss weights must sum to 1")
        if min(self.batch_size, self.epochs) < 1 or not self.learning_rate >= 0:
            raise ValueError("batch_size/epochs must be positive, learning_rate >= 0")
        if not (self.w_cls >= 0 and self.w_seg >= 0):
            raise ValueError("w_cls and w_seg must be at least 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must be at least 0 and below 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


def _flatten(groups) -> List[np.ndarray]:
    """Every (w, b) layer of the groups as one list: w, b, w, b, ..."""
    return [array for group in groups for layer in group for array in layer]


@dataclass
class Weights:
    """Dense layer parameters in declaration order: encoder, classifier, segmenter."""

    config: NetworkConfig
    encoder: List[Tuple[np.ndarray, np.ndarray]]
    classifier: List[Tuple[np.ndarray, np.ndarray]]
    segmenter: List[Tuple[np.ndarray, np.ndarray]]
    input_scale_mm: float = 0.0  # 0 = raw mm inputs, else xyz are divided by this

    def params(self) -> List[np.ndarray]:
        return _flatten((self.encoder, self.classifier, self.segmenter))

    @property
    def dtype(self):
        return self.encoder[0][0].dtype


def _layer_dims(config: NetworkConfig):
    enc = (config.input_channels,) + tuple(config.encoder)
    cls = (config.encoder[-1],) + tuple(config.classifier)
    seg = (config.seg_input_width,) + tuple(config.segmenter)
    return enc, cls, seg


def init_weights(config: NetworkConfig, seed: int = 0, dtype=np.float32,
                 input_scale_mm: float = 0.0) -> Weights:
    """He-initialized weights, deterministic in `seed`."""
    rng = np.random.default_rng(seed)

    def make(dims):
        layers = []
        for cin, cout in zip(dims[:-1], dims[1:]):
            w = rng.normal(0.0, np.sqrt(2.0 / cin), size=(cin, cout)).astype(dtype)
            layers.append((w, np.zeros(cout, dtype=dtype)))
        return layers

    enc, cls, seg = _layer_dims(config)
    return Weights(config=config, encoder=make(enc), classifier=make(cls),
                   segmenter=make(seg), input_scale_mm=input_scale_mm)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ForwardResult:
    class_prob: np.ndarray               # (B,)
    seg_logits: Optional[np.ndarray]     # (B, N, K+1) or None
    cache: Optional[dict] = None


class BufferPool:
    """Reusable scratch buffers keyed by call site; cuts allocation cost in
    the training loop, where every step works on arrays of the same shapes
    but for an epoch's short last batch.

    A request is served from the front of the key's flat buffer when that
    holds it and has its dtype; only a larger request, or another dtype,
    allocates."""

    def __init__(self):
        self._bufs = {}

    def get(self, key, shape, dtype) -> np.ndarray:
        size = int(np.prod(shape))
        buf = self._bufs.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(size, dtype=dtype)
            self._bufs[key] = buf
        return buf[:size].reshape(shape)


def _scratch(pool: Optional[BufferPool], key, shape, dtype) -> np.ndarray:
    """The pool's buffer for `key`, or a fresh one without a pool."""
    return pool.get(key, shape, dtype) if pool is not None else np.empty(shape, dtype)


def _linear_relu(h, w, bias, out=None):
    z = np.matmul(h, w, out=out)
    z += bias
    np.maximum(z, 0.0, out=z)
    return z


def _relu_mask(act, masks):
    """act > 0, written into the front of the flat bool buffer `masks`:
    each mask is read only within its own row block's step."""
    return np.greater(act, 0, out=masks[:act.size].reshape(act.shape))


def _masked(delta, act, blocks, masks):
    """delta *= (act > 0), one row block at a time."""
    for rows in blocks:
        np.multiply(delta[rows], _relu_mask(act[rows], masks), out=delta[rows])
    return delta


# The encoder streams over blocks of about this many points (2 sets of
# 2048), so the widest layer's (points, width) activation never exists
# whole: each block's narrow layers stay in cache for its wide GEMMs.
# Blocks of 4 spheres held twice the narrow buffers (8 MiB), and were no
# faster with one BLAS thread per classify thread, as detect runs them.
_FUSED_BLOCK_POINTS = 2 * 2048

# The encoder runs each example's wide product in near-equal row tiles of
# at most this many rows into one (rows, wide) buffer, 2 MiB for the paper
# network, and max-pools them as they come.
_WIDE_TILE_ROWS = 512


def _tiled_column_max(h: np.ndarray, w: np.ndarray, bias: np.ndarray, z: np.ndarray,
                      out: np.ndarray, arg: Optional[np.ndarray] = None) -> None:
    """The column max of h @ w + bias into `out` (wide,), over near-equal
    row tiles of at most len(z) rows written into z. A running max is exact.

    Without `arg` the bias goes on the max once: float addition is
    monotone, so this is exact. With `arg` it goes on each tile before the
    max, and `arg` receives each column's lowest winning row after bias: a
    tile's first row at its max, replaced only where a later tile's max is
    strictly greater.
    """
    tiles = -(-len(h) // len(z))
    edges = [j * len(h) // tiles for j in range(tiles + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        zt = np.matmul(h[lo:hi], w, out=z[:hi - lo])
        if arg is not None:
            zt += bias
        top = zt.max(axis=0)
        if arg is not None:
            # numpy's argmax down the columns copies the tile transposed
            # first; the flat indices of the maxima come in row order, so
            # each column's first one is its lowest row. A NaN column
            # matches no row and keeps len(zt); its feature is NaN, which
            # the caller's ReLU tie rule sends to point 0.
            hits = np.flatnonzero(zt == top)
            rows = np.full(len(top), len(zt))
            np.minimum.at(rows, hits % len(top), hits // len(top))
            later = slice(None) if lo == 0 else top > out
            arg[later] = rows[later] + lo
        if lo == 0:
            out[:] = top
        else:
            np.maximum(out, top, out=out)
    if arg is None:
        out += bias


def _network_input(weights: Weights, points) -> np.ndarray:
    x = np.asarray(points, dtype=weights.dtype)
    if x.ndim != 3 or x.shape[2] != weights.config.input_channels:
        raise ValueError(f"expected (B, N, {weights.config.input_channels}) input, "
                         f"got {x.shape}")
    if x.shape[1] < 2:
        raise ValueError(f"point sets need at least 2 points, got {x.shape[1]}")
    return x


def encoder_block(n: int) -> int:
    """Examples per block of the inference encoder for N-point sets."""
    return max(1, _FUSED_BLOCK_POINTS // n)


def encode(weights: Weights, points: np.ndarray, want_seg: bool = False,
           keep_cache: bool = False, pool: Optional[BufferPool] = None,
           counts: Optional[np.ndarray] = None):
    """Shared encoder and max-pool of a batch (B, N, C), without the widest
    layer's (B*N, wide) activation.

    Returns (g, skip, enc_acts, argmax): the pooled (B, wide) global
    feature; the skip layer's (B*N, width) output (NetworkConfig.skip_layer)
    when want_seg, else None; with keep_cache each encoder layer's
    (B*N, width) input and each pooled feature's winning point (B, wide),
    else None.

    Streams the narrow layers over blocks of encoder_block(N) examples and
    each example's wide product over row tiles (_tiled_column_max). A layer
    the caller keeps, every one with keep_cache and the skip layer under
    want_seg, is written into a whole-batch buffer; every other layer into
    one block buffer reused across blocks. Without keep_cache the wide
    layer's bias goes on each pooled row. With keep_cache it goes on each
    tile before the max, so each feature's winner is its lowest point
    after bias and ReLU.

    `counts` (B,), for inference without want_seg, is each example's count
    of leading distinct rows, 1 to N: the rows after them repeat earlier
    ones, as `dataset._sample_fill` draws them. Max-pool ignores repeats,
    so each block gathers each example's counted rows alone, and g equals
    the one of all N rows to float rounding: the products hold fewer rows,
    and a BLAS may round a row differently in a product of another size.
    The same batch and counts give the same g bit for bit.
    """
    x = _network_input(weights, points)
    b, n, c = x.shape
    if counts is not None:
        counts = np.asarray(counts, dtype=np.int64)
        if want_seg or keep_cache:
            raise ValueError("distinct-row counts are for inference without want_seg")
        if counts.shape != (b,) or not ((counts >= 1) & (counts <= n)).all():
            raise ValueError(f"counts must hold one count in 1..{n} per point set")
    dtype = weights.dtype
    *narrow, (w_wide, b_wide) = weights.encoder
    wide_w = w_wide.shape[1]
    per_block = min(b, encoder_block(n))
    block_rows = per_block * n
    skip_layer = weights.config.skip_layer
    kept = [keep_cache or (want_seg and li == skip_layer) for li in range(len(narrow))]
    # block buffers are reused across blocks: fresh large arrays would
    # page-fault on every block
    acts = [_scratch(pool, ("enc", li + 1), (b * n if keep else block_rows, w.shape[1]), dtype)
            for li, ((w, _), keep) in enumerate(zip(narrow, kept))]
    z = _scratch(pool, ("wide_z",), (min(n, _WIDE_TILE_ROWS), wide_w), dtype)
    g = np.empty((b, wide_w), dtype=dtype)
    arg = np.empty((b, wide_w), dtype=np.intp) if keep_cache else None
    for start in range(0, b, per_block):
        stop = min(b, start + per_block)
        h = x[start:stop].reshape(-1, c)
        rows = np.full(stop - start, n)
        if counts is not None:
            rows = counts[start:stop]
            if rows.sum() < len(h):
                h = x[start:stop][np.arange(n) < rows[:, None]]
        for li, (w, bias) in enumerate(narrow):
            out = acts[li][start * n:stop * n] if kept[li] else acts[li][:len(h)]
            h = _linear_relu(h, w, bias, out=out)
        ends = np.cumsum(rows)
        for i in range(stop - start):
            _tiled_column_max(h[ends[i] - rows[i]:ends[i]], w_wide, b_wide, z, g[start + i],
                              arg[start + i] if keep_cache else None)
    # ReLU is monotone, so applying it after the max is exact
    np.maximum(g, 0.0, out=g)
    skip = acts[skip_layer] if want_seg else None
    if not keep_cache:
        return g, skip, None, None
    # a feature that ReLU zeroes everywhere ties at 0: its argmax is point 0
    arg[~(g > 0)] = 0
    return g, skip, [x.reshape(-1, c)] + acts, arg


def classify(weights: Weights, g: np.ndarray):
    """Classifier head on pooled features (B, wide): (logit, prob, acts),
    where acts holds each layer's input."""
    c = g
    acts = [c]
    for w, bias in weights.classifier[:-1]:
        c = _linear_relu(c, w, bias)
        acts.append(c)
    w_last, b_last = weights.classifier[-1]
    logit = (c @ w_last + b_last).reshape(len(g))
    return logit, _sigmoid(logit), acts


def _segment(weights: Weights, skip: np.ndarray, g: np.ndarray, n: int,
             keep_cache: bool, pool: Optional[BufferPool]):
    """Segmentation logits (B, N, K+1) and, with keep_cache, each layer's
    (B*N, width) input for backward, else None.

    Runs one example at a time. Inference writes each layer into one
    (N, width) buffer reused by every example; training writes into the
    example's rows of the whole cached activations.
    """
    b = len(g)
    dtype = weights.dtype
    layers = weights.segmenter
    skip_w = weights.config.encoder[weights.config.skip_layer]
    w0, b0 = layers[0]
    g_part = g @ w0[skip_w:]
    g_part += b0
    height = b * n if keep_cache else n
    hidden = [_scratch(pool, ("seg", li), (height, w.shape[1]), dtype)
              for li, (w, _) in enumerate(layers[:-1])]
    logits = _scratch(pool, ("seg_out",), (b * n, layers[-1][0].shape[1]), dtype)
    last = len(layers) - 1
    for i in range(b):
        ex = slice(i * n, (i + 1) * n)
        rows = ex if keep_cache else slice(0, n)
        h = skip[ex]
        for li, (w, bias) in enumerate(layers):
            out = logits[ex] if li == last else hidden[li][rows]
            if li == 0:
                z = np.matmul(h, w[:skip_w], out=out)
                z += g_part[i]
            else:
                z = np.matmul(h, w, out=out)
                z += bias
            if li < last:
                np.maximum(z, 0.0, out=z)
            h = z
    return logits.reshape(b, n, -1), [skip] + hidden if keep_cache else None


def forward(weights: Weights, points: np.ndarray, want_seg: bool = True,
            keep_cache: bool = False, pool: Optional[BufferPool] = None) -> ForwardResult:
    """Run the network on a batch of point sets (B, N, C), N >= 2: encode,
    then classify, then (want_seg) segment.

    Permutation-covariant: permuting a batch element's points permutes its
    seg logits identically and leaves the class output bit-unchanged.

    The widest encoder layer's (B*N, wide) activation never exists whole,
    at any encoder depth. Both modes stream the narrow layers over blocks
    of encoder_block(N) examples, and run each example's wide product in
    near-equal row tiles of at most _WIDE_TILE_ROWS rows, which a running
    max pools exactly. Inference applies the wide layer's bias and ReLU
    once to the pooled (B, wide) matrix: float addition and ReLU are
    monotone, so they commute with max, and g is bit-identical to pooling
    the whole rectified activation. Training (keep_cache=True) keeps every
    narrow activation for backward, adds the bias to each tile before its
    max, and caches only the pooled g and each feature's argmax point
    (lowest index on ties). A segment call keeps only the skip layer's
    features, a narrow layer's.

    The segmenter runs one example at a time, so inference holds one
    example's (N, width) activations, never the batch's; training writes
    each example's rows of the cached (B*N, width) activations that
    backward reads. Its first layer is a per-point product on the skip
    features plus a per-example product on the global feature (broadcast
    over points); this equals the concatenated form.
    """
    x = _network_input(weights, points)
    b, n, _ = x.shape
    g, skip, enc_acts, arg = encode(weights, x, want_seg, keep_cache, pool)
    _, prob, cls_acts = classify(weights, g)
    seg_logits = seg_acts = None
    if want_seg:
        seg_logits, seg_acts = _segment(weights, skip, g, n, keep_cache, pool)

    cache = None
    if keep_cache:
        cache = {"x_shape": (b, n), "enc_acts": enc_acts, "argmax": arg, "g": g,
                 "cls_acts": cls_acts, "seg_acts": seg_acts, "seg_logits": seg_logits}
    return ForwardResult(class_prob=prob, seg_logits=seg_logits, cache=cache)


def joint_loss(class_prob: np.ndarray, seg_logits: np.ndarray,
               class_labels: np.ndarray, seg_labels: np.ndarray,
               w_cls: float = TrainConfig.w_cls, w_seg: float = TrainConfig.w_seg) -> float:
    """w_cls * BCE(class) + w_seg * mean categorical CE over all points."""
    p = np.asarray(class_prob, dtype=np.float64)
    y = np.asarray(class_labels, dtype=np.float64)
    bce = -np.mean(y * np.log(np.maximum(p, _EPS))
                   + (1.0 - y) * np.log(np.maximum(1.0 - p, _EPS)))

    sm = _softmax(np.asarray(seg_logits, dtype=np.float64))
    b, n, _ = sm.shape
    labels = np.asarray(seg_labels, dtype=np.int64).reshape(b, n)
    picked = np.take_along_axis(sm, labels[:, :, None], axis=2)[:, :, 0]
    ce = -np.mean(np.log(np.maximum(picked, _EPS)))
    return float(w_cls * bce + w_seg * ce)


@dataclass
class Gradients:
    encoder: List[Tuple[np.ndarray, np.ndarray]]
    classifier: List[Tuple[np.ndarray, np.ndarray]]
    segmenter: List[Tuple[np.ndarray, np.ndarray]]

    def params(self) -> List[np.ndarray]:
        return _flatten((self.encoder, self.classifier, self.segmenter))


def _mlp_backward(layers, acts, delta):
    """Backprop through an MLP tail whose last layer is linear.

    `acts` holds the input activation of each layer; `delta` is dL/d(last
    pre-activation). Returns (grads per layer, dL/d(input)).
    """
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        a_in = acts[li]
        grads[li] = (a_in.T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
        if li > 0:
            delta = delta * (acts[li] > 0)
    return grads, delta


# Backward takes each layer's ReLU mask over row blocks of whole examples,
# each at least this many rows, so that the mask buffer holds one block
# instead of the batch. The product that overwrites the layer runs per block
# too, and a block never gets smaller: OpenBLAS rounds a one-row (gemv) or a
# small (below ~1e6 multiply-adds) product differently from the batch's.
_MASK_BLOCK_POINTS = 2048


def _row_blocks(b: int, n: int) -> List[slice]:
    """Row slices of a (B*N, width) activation: whole examples, each block
    at least _MASK_BLOCK_POINTS rows, or the whole batch when it is smaller."""
    count = max(1, b // -(-_MASK_BLOCK_POINTS // n))
    edges = [i * b // count * n for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _free_view(free, shape):
    """A view of `shape` over the front of the smallest buffer in `free`
    that holds it, which then leaves `free`; None when none does."""
    size = int(np.prod(shape))
    fits = [i for i, a in enumerate(free) if a.size >= size]
    if not fits:
        return None
    smallest = free.pop(min(fits, key=lambda i: free[i].size))
    return smallest.reshape(-1)[:size].reshape(shape)


def _relu_grad_over(delta, w, act, blocks, masks, extra=None):
    """dL/d(pre-activation of `act`) = (delta @ w.T [+ extra]) * (act > 0),
    written over `act` one row block at a time, once the block's ReLU mask
    has been taken."""
    for rows in blocks:
        a = act[rows]
        mask = _relu_mask(a, masks)
        np.matmul(delta[rows], w.T, out=a)
        if extra is not None:
            a += extra[rows]
        np.multiply(a, mask, out=a)
    return act


def backward(weights: Weights, points: np.ndarray, class_labels: np.ndarray,
             seg_labels: np.ndarray, w_cls: float = TrainConfig.w_cls,
             w_seg: float = TrainConfig.w_seg,
             want_input_grad: bool = False,
             pool: Optional[BufferPool] = None,
             head_losses_out: Optional[list] = None):
    """Loss and gradients for a batch; max-pool routes to the argmax point.

    Returns (loss, Gradients) or (loss, Gradients, input_grad). The loss is
    evaluated from this pass's own softmax/probabilities (same formulas as
    joint_loss, in the weights' dtype). head_losses_out, when given,
    receives the pair (BCE, CE) of unweighted head losses; the loss is
    w_cls * BCE + w_seg * CE.

    Runs its own forward(keep_cache=True) and overwrites that cache, so the
    step holds no buffer past its last reader. The softmax, then the
    gradient at the seg logits, is built over the logits. Once a layer's
    ReLU mask is taken, the gradient at its pre-activation is written over
    its activation; the masks are taken one row block at a time
    (_row_blocks) into one bool buffer. The skip features' gradient and the
    pooled layer's winner rows go into segmenter buffers that have been read
    for the last time, or the skip gradient into a pooled buffer when none
    is wide enough.

    So a pooled step holds the forward's buffers (the encoder's narrow
    (B*N, width) layer inputs, one (512, wide) product tile, the
    segmenter's (B*N, width) layer inputs and its logits) and one row
    block's mask: 153.4 MiB for the paper network at 16 x 2048 points. A
    softmax buffer, a whole-batch mask and a skip-gradient buffer of their
    own made 190.8 MiB, and an (N, wide) product with its (N, wide) bool
    scratch 161.4 MiB. Its largest temporary is the sparse product's
    (B*N, w_in) result.

    The pooled layer's (B*N, wide) gradient never exists. Each feature's
    pooled gradient reaches one point, its argmax, so the weight gradient
    gathers those rows of the layer input and the input gradient is a
    sparse (B*N, wide) matrix, B*wide non-zeros, times the weight's
    transpose. The skip features' gradient joins the encoder's at the skip
    layer's output, which is always below the pooled layer.
    """
    fwd = forward(weights, points, want_seg=True, keep_cache=True, pool=pool)
    cache = fwd.cache
    b, n = cache["x_shape"]
    bn = b * n
    dtype = weights.dtype
    y = np.asarray(class_labels, dtype=dtype).reshape(b)
    labels = np.asarray(seg_labels, dtype=np.int64).reshape(bn)

    # softmax once, over the logits (global-max shift: cheaper than row
    # maxes, same result); the loss is read off before it turns into the
    # gradient
    rows = np.arange(bn)
    z = cache["seg_logits"].reshape(bn, -1)
    picked_z = z[rows, labels].astype(np.float64)
    gmax = z.max()
    e = np.subtract(z, gmax, out=z)
    np.exp(e, out=e)
    e_sum = e @ np.ones(z.shape[1], dtype=e.dtype)
    ce = -np.mean(picked_z - gmax - np.log(e_sum.astype(np.float64)))
    p64 = fwd.class_prob.astype(np.float64)
    y64 = y.astype(np.float64)
    bce = -np.mean(y64 * np.log(np.maximum(p64, _EPS))
                   + (1.0 - y64) * np.log(np.maximum(1.0 - p64, _EPS)))
    loss = float(w_cls * bce + w_seg * ce)
    if head_losses_out is not None:
        head_losses_out.append((float(bce), float(ce)))

    # classifier head: d(BCE)/d(logit) = p - y
    d_logit = ((w_cls / b) * (fwd.class_prob - y)).astype(dtype)
    cls_grads, d_g_cls = _mlp_backward(weights.classifier, cache["cls_acts"],
                                       d_logit[:, None])

    # segmentation head: d(CE)/d(logit) = softmax - onehot
    sm = e
    sm /= e_sum[:, None]
    sm[rows, labels] -= 1.0
    sm *= w_seg / bn  # in-place: keeps the weights' dtype
    delta = sm

    seg_layers = weights.segmenter
    seg_acts = cache["seg_acts"]
    enc_acts = cache["enc_acts"]
    blocks = _row_blocks(b, n)
    # one ReLU mask buffer, one row block of the widest layer, serves every layer
    masks = _scratch(pool, ("bw_mask",), (max(r.stop - r.start for r in blocks)
                                          * max(a.shape[1] for a in seg_acts + enc_acts),),
                     np.bool_)
    seg_grads = [None] * len(seg_layers)
    for li in range(len(seg_layers) - 1, 0, -1):
        w, _ = seg_layers[li]
        seg_grads[li] = (seg_acts[li].T @ delta, delta.sum(axis=0))
        delta = _relu_grad_over(delta, w, seg_acts[li], blocks, masks)
    # the logits and the segmenter's layer inputs above its first have been
    # read for the last time
    free = [z] + seg_acts[2:] if len(seg_layers) > 1 else []
    # layer 0 splits into the per-point skip half and per-example pooled half
    skip_layer = weights.config.skip_layer
    skip_w = weights.config.encoder[skip_layer]
    w0, _ = seg_layers[0]
    skip = seg_acts[0]
    g = cache["g"]
    delta_ex = delta.reshape(b, n, -1).sum(axis=1)
    seg_grads[0] = (np.concatenate([skip.T @ delta, g.T @ delta_ex], axis=0),
                    delta.sum(axis=0))
    d_skip = _free_view(free, (bn, skip_w))
    if d_skip is None:
        d_skip = _scratch(pool, ("bw_skip",), (bn, skip_w), dtype)
    np.matmul(delta, w0[:skip_w].T, out=d_skip)
    free.append(delta)
    d_g = d_g_cls + delta_ex @ w0[skip_w:].T

    # each feature's pooled gradient reaches its argmax point alone
    n_enc = len(weights.encoder)
    enc_grads = [None] * n_enc
    top = n_enc - 1
    w_top, _ = weights.encoder[top]
    wide_w = w_top.shape[1]
    winners = cache["argmax"] + (np.arange(b) * n)[:, None]
    d_pool = d_g * (g > 0)
    # the winner rows (B, wide, w_in) go into a freed buffer when one
    # holds them; mode="clip" writes them there directly, where "raise"
    # would gather into a temporary first
    won = np.take(enc_acts[top], winners, axis=0, mode="clip",
                  out=_free_view(free, winners.shape + enc_acts[top].shape[1:]))
    enc_grads[top] = (np.einsum("bjk,bj->kj", won, d_pool), d_pool.sum(axis=0))
    scatter = sparse.csr_array(
        (d_pool.ravel(), (winners.ravel(), np.tile(np.arange(wide_w), b))),
        shape=(bn, wide_w))
    delta = scatter @ w_top.T
    # the skip gradient joins at the skip layer's output, enc_acts[skip_layer + 1]
    if top == skip_layer + 1:
        delta += d_skip
    delta = _masked(delta, enc_acts[top], blocks, masks)

    for li in range(top - 1, -1, -1):
        w, _ = weights.encoder[li]
        enc_grads[li] = (enc_acts[li].T @ delta, delta.sum(axis=0))
        if li > 0:
            delta = _relu_grad_over(delta, w, enc_acts[li], blocks, masks,
                                    extra=d_skip if li == skip_layer + 1 else None)

    grads = Gradients(encoder=enc_grads, classifier=cls_grads, segmenter=seg_grads)
    if want_input_grad:
        return loss, grads, (delta @ weights.encoder[0][0].T).reshape(b, n, -1)
    return loss, grads


# ---------------------------------------------------------------------------
# training


def train(features: np.ndarray, class_labels: np.ndarray, seg_labels: np.ndarray,
          config: NetworkConfig, train_cfg: TrainConfig,
          input_scale_mm: float = 0.0,
          log_fn=None) -> Tuple[Weights, List[float]]:
    """Adam training, deterministic in train_cfg.seed.

    features: (M, N, C) float32, already centered/normalized;
    class_labels: (M,), seg_labels: (M, N). Returns final weights and the
    per-epoch mean loss log; raises TrainingDivergedError at the first epoch
    whose mean loss is NaN or infinite. log_fn, when given, is called after
    each epoch as log_fn(epoch, loss, cls_loss, seg_loss): the mean joint
    loss and the mean unweighted BCE and CE of the two heads over the
    epoch's examples.
    """
    m = len(features)
    if m == 0:
        raise ValueError("empty training set")
    rng = np.random.default_rng(train_cfg.seed)
    weights = init_weights(config, seed=train_cfg.seed, dtype=np.float32,
                           input_scale_mm=input_scale_mm)

    params = weights.params()
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    t = 0
    b1, b2, eps, lr = train_cfg.beta1, train_cfg.beta2, train_cfg.epsilon, train_cfg.learning_rate

    pool = BufferPool()
    epoch_losses: List[float] = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(m)
        total = cls_total = seg_total = 0.0
        for start in range(0, m, train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            x = pool.get(("batch",), (len(batch),) + features.shape[1:], features.dtype)
            # mode="clip" gathers straight into x; "raise" buffers a copy first
            np.take(features, batch, axis=0, out=x, mode="clip")
            heads = []
            loss, grads = backward(weights, x, class_labels[batch], seg_labels[batch],
                                   train_cfg.w_cls, train_cfg.w_seg, pool=pool,
                                   head_losses_out=heads)
            (bce, ce), = heads
            total += loss * len(batch)
            cls_total += bce * len(batch)
            seg_total += ce * len(batch)
            t += 1
            correction = np.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
            for p, g, mm, vv in zip(params, grads.params(), adam_m, adam_v):
                mm *= b1
                mm += (1 - b1) * g
                vv *= b2
                vv += (1 - b2) * np.square(g)
                p -= (lr * correction) * mm / (np.sqrt(vv) + eps)
        if not np.isfinite(total):
            raise TrainingDivergedError(f"training diverged: epoch {epoch + 1} has a mean "
                                        f"loss of {total / m}")
        epoch_losses.append(total / m)
        if log_fn is not None:
            log_fn(epoch, epoch_losses[-1], cls_total / m, seg_total / m)
    return weights, epoch_losses


def write_features(out: np.ndarray, positions, normals, curvatures, colors=None,
                   input_scale_mm: float = 0.0) -> np.ndarray:
    """Write one centered point set's network input into float32 `out` (N, C):
    xyz (rounded to float32, then times float32 1 / input_scale_mm when that
    is > 0), normal, curvature, then rgb when C is 10."""
    out[:, 0:3] = positions
    if input_scale_mm > 0:
        out[:, 0:3] *= np.float32(1.0 / input_scale_mm)
    out[:, 3:6] = normals
    out[:, 6] = curvatures
    if out.shape[1] == 10:
        if colors is None:
            raise ValueError("RGB input but the point set has no colors")
        out[:, 7:10] = colors
    return out


def assemble_features(examples, input_scale_mm: float = 0.0,
                      with_color: bool = False) -> np.ndarray:
    """Stack LabeledExamples into the network input tensor (M, N, C) by
    `write_features`, with rgb when with_color."""
    out = np.empty((len(examples), len(examples[0]), 10 if with_color else 7),
                   dtype=np.float32)
    for row, e in zip(out, examples):
        write_features(row, e.positions, e.normals, e.curvatures, e.colors, input_scale_mm)
    return out


# ---------------------------------------------------------------------------
# weights file: magic, JSON header, CRC32 of the tensor block, f32 tensors

_W_MAGIC = b"PVNW"


def save_weights(path, weights: Weights) -> None:
    header = json.dumps({
        "config": weights.config.to_dict(),
        "input_scale_mm": float(weights.input_scale_mm),
        "normalize": bool(weights.input_scale_mm > 0),
    }).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(p, dtype="<f4").tobytes()
                    for p in weights.params())
    with open(path, "wb") as f:
        f.write(_W_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))
        f.write(blob)


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise WeightsFormatError(f"weights file ends inside the {what}")
    return data


def load_weights(path) -> Weights:
    with open(path, "rb") as f:
        if f.read(4) != _W_MAGIC:
            raise WeightsFormatError("bad weights magic")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
        try:
            header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
            config = NetworkConfig.from_dict(header["config"])
            input_scale_mm = float(header["input_scale_mm"])
            if not 0 <= input_scale_mm < np.inf:
                raise ValueError(f"input_scale_mm {input_scale_mm} is not finite and >= 0")
            header["normalize"]  # required; it equals input_scale_mm > 0
        except (ValueError, KeyError, TypeError) as exc:
            raise WeightsFormatError(f"bad weights header: {exc!r}") from exc
        (crc,) = struct.unpack("<I", _read_exact(f, 4, "checksum"))
        blob = f.read()
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise WeightsFormatError("weights checksum mismatch (corrupted file)")

    flat = np.frombuffer(blob, dtype="<f4")
    enc, cls, seg = _layer_dims(config)

    def take(dims):
        nonlocal flat
        layers = []
        for cin, cout in zip(dims[:-1], dims[1:]):
            need = cin * cout + cout
            if len(flat) < need:
                raise WeightsFormatError("weights tensor block too short")
            w = flat[:cin * cout].reshape(cin, cout).copy()
            b = flat[cin * cout:need].copy()
            flat = flat[need:]
            layers.append((w, b))
        return layers

    weights = Weights(config=config, encoder=take(enc), classifier=take(cls),
                      segmenter=take(seg), input_scale_mm=input_scale_mm)
    if len(flat):
        raise WeightsFormatError("trailing bytes in weights tensor block")
    return weights
