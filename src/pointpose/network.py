"""Point-set network: shared per-point encoder, max-pool, two heads.

PointNet semantics, implemented directly on numpy: a shared MLP encodes
every point, a per-dimension max over the 2048 points forms the global
feature, a binary classifier head consumes the global feature, and a
(K+1)-way segmentation head consumes each point's second-layer feature
concatenated with the global feature. Backprop, Adam, and weight files
are implemented here as well; all computation follows the weights' dtype
(float32 for training speed, float64 for gradient checks).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import WeightsFormatError

_EPS = 1e-12  # clamp inside logs


@dataclass(frozen=True)
class NetworkConfig:
    """Layer widths; segmenter's last width must equal k+1, classifier's 1."""

    k: int
    input_channels: int = 7  # xyz + normal + curvature (10 with RGB)
    encoder: Tuple[int, ...] = (64, 64, 128, 1024)
    classifier: Tuple[int, ...] = (512, 256, 1)
    segmenter: Tuple[int, ...] = (512, 256, 128, 0)  # 0 placeholder -> k+1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.input_channels not in (7, 10):
            raise ValueError("input_channels must be 7 (geometry) or 10 (with RGB)")
        if len(self.encoder) < 2:
            raise ValueError("encoder needs at least two layers (segmenter skip)")
        if not self.classifier or self.classifier[-1] != 1:
            raise ValueError("classifier must end in a single logistic unit")
        seg = tuple(self.segmenter)
        if seg and seg[-1] == 0:
            seg = seg[:-1] + (self.k + 1,)
            object.__setattr__(self, "segmenter", seg)
        if not self.segmenter or self.segmenter[-1] != self.k + 1:
            raise ValueError("segmenter must end in k+1 units")

    @property
    def seg_input_width(self) -> int:
        return self.encoder[1] + self.encoder[-1]

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
    seed: int = 0

    def __post_init__(self):
        if abs(self.w_cls + self.w_seg - 1.0) > 1e-9:
            raise ValueError("loss weights must sum to 1")
        if min(self.batch_size, self.epochs) < 1 or self.learning_rate < 0:
            raise ValueError("batch_size/epochs must be positive, learning_rate >= 0")


@dataclass
class Weights:
    """Dense layer parameters in declaration order: encoder, classifier, segmenter."""

    config: NetworkConfig
    encoder: List[Tuple[np.ndarray, np.ndarray]]
    classifier: List[Tuple[np.ndarray, np.ndarray]]
    segmenter: List[Tuple[np.ndarray, np.ndarray]]
    input_scale_mm: float = 0.0  # 0 = raw mm inputs, else xyz are divided by this
    normalize: bool = False

    def params(self) -> List[np.ndarray]:
        out = []
        for group in (self.encoder, self.classifier, self.segmenter):
            for w, b in group:
                out.extend((w, b))
        return out

    @property
    def dtype(self):
        return self.encoder[0][0].dtype


def _layer_dims(config: NetworkConfig):
    enc = [(config.input_channels,) + tuple(config.encoder)][0]
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
                   segmenter=make(seg), input_scale_mm=input_scale_mm,
                   normalize=input_scale_mm > 0)


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
    class_logit: np.ndarray              # (B,)
    seg_logits: Optional[np.ndarray]     # (B, N, K+1) or None
    cache: Optional[dict] = None


class BufferPool:
    """Reusable scratch buffers keyed by call site; cuts allocation cost in
    the training loop, where every step works on identically-shaped arrays."""

    def __init__(self):
        self._bufs = {}

    def get(self, key, shape, dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


def _linear_relu(h, w, bias, out=None):
    z = np.matmul(h, w, out=out)
    z += bias
    np.maximum(z, 0.0, out=z)
    return z


def _masked(delta, act, pool, key):
    """delta *= (act > 0), with the boolean mask in a pooled buffer."""
    if pool is None:
        delta *= act > 0
        return delta
    mask = pool.get(key, act.shape, np.bool_)
    np.greater(act, 0, out=mask)
    np.multiply(delta, mask, out=delta)
    return delta


def forward(weights: Weights, points: np.ndarray, want_seg: bool = True,
            keep_cache: bool = False, pool: Optional[BufferPool] = None) -> ForwardResult:
    """Run the network on a batch of point sets (B, N, C).

    Permutation-covariant: permuting a batch element's points permutes its
    seg logits identically and leaves the class output bit-unchanged.

    The segmenter's first layer is evaluated as a per-point product on the
    skip features plus a per-example product on the global feature
    (broadcast over points); this equals the concatenated form.
    """
    cfg = weights.config
    x = np.asarray(points, dtype=weights.dtype)
    if x.ndim != 3 or x.shape[2] != cfg.input_channels:
        raise ValueError(f"expected (B, N, {cfg.input_channels}) input, got {x.shape}")
    b, n, _ = x.shape
    bn = b * n

    def buf(key, shape):
        return pool.get(key, shape, weights.dtype) if pool is not None else None

    h = x.reshape(bn, -1)
    enc_acts = [h]
    for li, (w, bias) in enumerate(weights.encoder):
        h = _linear_relu(h, w, bias, out=buf(("enc", li), (bn, w.shape[1])))
        enc_acts.append(h)

    wide = enc_acts[-1].reshape(b, n, -1)
    arg = None
    if keep_cache:
        # contiguous transpose makes the per-feature argmax (first max =
        # lowest point index) much cheaper than a strided reduction
        wide_w = wide.shape[2]
        wide_t = buf(("wide_t",), (b, wide_w, n))
        if wide_t is None:
            wide_t = np.empty((b, wide_w, n), dtype=weights.dtype)
        np.copyto(wide_t, wide.transpose(0, 2, 1))
        arg = wide_t.argmax(axis=2)
        g = np.take_along_axis(wide_t, arg[:, :, None], axis=2)[:, :, 0]
    else:
        g = wide.max(axis=1)

    c = g
    cls_acts = [c]
    for w, bias in weights.classifier[:-1]:
        c = _linear_relu(c, w, bias)
        cls_acts.append(c)
    w_last, b_last = weights.classifier[-1]
    logit = (c @ w_last + b_last).reshape(b)
    prob = _sigmoid(logit)

    seg_logits = None
    seg_acts = None
    if want_seg:
        skip = enc_acts[2]                             # second encoder layer, (B*N, w1)
        skip_w = cfg.encoder[1]
        w0, b0 = weights.segmenter[0]
        z = np.matmul(skip, w0[:skip_w], out=buf(("seg", 0), (bn, w0.shape[1])))
        g_part = g @ w0[skip_w:]
        g_part += b0
        z3 = z.reshape(b, n, -1)
        z3 += g_part[:, None, :]
        if len(weights.segmenter) == 1:
            seg_logits = z3
            seg_acts = [skip]
        else:
            np.maximum(z, 0.0, out=z)
            s = z
            seg_acts = [skip, s]
            for li, (w, bias) in enumerate(weights.segmenter[1:-1], start=1):
                s = _linear_relu(s, w, bias, out=buf(("seg", li), (bn, w.shape[1])))
                seg_acts.append(s)
            w_s, b_s = weights.segmenter[-1]
            out = np.matmul(s, w_s, out=buf(("seg_out",), (bn, w_s.shape[1])))
            out += b_s
            seg_logits = out.reshape(b, n, -1)

    cache = None
    if keep_cache:
        cache = {"x_shape": (b, n), "enc_acts": enc_acts, "argmax": arg, "g": g,
                 "cls_acts": cls_acts, "seg_acts": seg_acts,
                 "logit": logit, "prob": prob, "seg_logits": seg_logits}
    return ForwardResult(class_prob=prob, class_logit=logit,
                         seg_logits=seg_logits, cache=cache)


def joint_loss(class_prob: np.ndarray, seg_logits: np.ndarray,
               class_labels: np.ndarray, seg_labels: np.ndarray,
               w_cls: float = 0.15, w_seg: float = 0.85) -> float:
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
        out = []
        for group in (self.encoder, self.classifier, self.segmenter):
            for w, b in group:
                out.extend((w, b))
        return out


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


def backward(weights: Weights, points: np.ndarray, class_labels: np.ndarray,
             seg_labels: np.ndarray, w_cls: float = 0.15, w_seg: float = 0.85,
             fwd: Optional[ForwardResult] = None,
             want_input_grad: bool = False,
             pool: Optional[BufferPool] = None):
    """Loss and gradients for a batch; max-pool routes to the argmax point.

    Returns (loss, Gradients) or (loss, Gradients, input_grad). The loss is
    evaluated from this pass's own softmax/probabilities (same formulas as
    joint_loss, in the weights' dtype).
    """
    if fwd is None or fwd.cache is None:
        fwd = forward(weights, points, want_seg=True, keep_cache=True, pool=pool)
    cache = fwd.cache
    b, n = cache["x_shape"]
    bn = b * n
    dtype = weights.dtype

    def buf(key, shape):
        return pool.get(key, shape, dtype) if pool is not None else None

    y = np.asarray(class_labels, dtype=dtype).reshape(b)
    labels = np.asarray(seg_labels, dtype=np.int64).reshape(bn)

    # softmax once (global-max shift: cheaper than row maxes, same result);
    # the loss is read off before the buffer turns into the gradient
    rows = np.arange(bn)
    z = cache["seg_logits"].reshape(bn, -1)
    gmax = z.max()
    e = np.subtract(z, gmax, out=buf(("bw_sm",), z.shape))
    np.exp(e, out=e)
    e_sum = e @ np.ones(z.shape[1], dtype=e.dtype)
    picked_z = z[rows, labels].astype(np.float64)
    ce = -np.mean(picked_z - gmax - np.log(e_sum.astype(np.float64)))
    p64 = fwd.class_prob.astype(np.float64)
    y64 = y.astype(np.float64)
    bce = -np.mean(y64 * np.log(np.maximum(p64, _EPS))
                   + (1.0 - y64) * np.log(np.maximum(1.0 - p64, _EPS)))
    loss = float(w_cls * bce + w_seg * ce)

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
    seg_grads = [None] * len(seg_layers)
    for li in range(len(seg_layers) - 1, 0, -1):
        w, _ = seg_layers[li]
        seg_grads[li] = (seg_acts[li].T @ delta, delta.sum(axis=0))
        delta = np.matmul(delta, w.T, out=buf(("bw_seg", li), (bn, w.shape[0])))
        _masked(delta, seg_acts[li], pool, ("bw_segmask", li))
    # layer 0 splits into the per-point skip half and per-example pooled half
    skip_w = weights.config.encoder[1]
    w0, _ = seg_layers[0]
    skip = seg_acts[0]
    g = cache["g"]
    delta_ex = delta.reshape(b, n, -1).sum(axis=1)
    seg_grads[0] = (np.concatenate([skip.T @ delta, g.T @ delta_ex], axis=0),
                    delta.sum(axis=0))
    d_skip = np.matmul(delta, w0[:skip_w].T, out=buf(("bw_skip",), (bn, skip_w)))
    d_g = d_g_cls + delta_ex @ w0[skip_w:].T

    # route pooled gradient to each feature's argmax point
    wide_w = weights.config.encoder[-1]
    d_enc_last = buf(("bw_enc_top",), (bn, wide_w))
    if d_enc_last is None:
        d_enc_last = np.zeros((bn, wide_w), dtype=dtype)
    else:
        d_enc_last.fill(0.0)
    scatter_rows = cache["argmax"] + (np.arange(b) * n)[:, None]
    d_enc_last[scatter_rows, np.arange(wide_w)[None, :]] = d_g

    # d_skip lands on enc_acts[2] (second layer output); with a 2-layer
    # encoder that IS the pooled activation, so it merges immediately
    n_enc = len(weights.encoder)
    enc_acts = cache["enc_acts"]
    if n_enc == 2:
        d_enc_last += d_skip

    enc_grads = [None] * n_enc
    delta = d_enc_last
    _masked(delta, enc_acts[-1], pool, ("bw_encmask", n_enc))
    for li in range(n_enc - 1, -1, -1):
        w, _ = weights.encoder[li]
        enc_grads[li] = (enc_acts[li].T @ delta, delta.sum(axis=0))
        delta = np.matmul(delta, w.T, out=buf(("bw_enc", li), (bn, w.shape[0])))
        if li == 2:
            delta += d_skip
        if li > 0:
            _masked(delta, enc_acts[li], pool, ("bw_encmask", li))

    grads = Gradients(encoder=enc_grads, classifier=cls_grads, segmenter=seg_grads)
    if want_input_grad:
        return loss, grads, delta.reshape(b, n, -1)
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
    per-epoch mean loss log.
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
        total = 0.0
        for start in range(0, m, train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            x = pool.get(("batch",), (len(batch),) + features.shape[1:], features.dtype)
            np.take(features, batch, axis=0, out=x)
            loss, grads = backward(weights, x, class_labels[batch], seg_labels[batch],
                                   train_cfg.w_cls, train_cfg.w_seg, pool=pool)
            total += loss * len(batch)
            t += 1
            correction = np.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
            for p, g, mm, vv in zip(params, grads.params(), adam_m, adam_v):
                mm *= b1
                mm += (1 - b1) * g
                vv *= b2
                vv += (1 - b2) * np.square(g)
                p -= (lr * correction) * mm / (np.sqrt(vv) + eps)
        epoch_losses.append(total / m)
        if log_fn is not None:
            log_fn(epoch, epoch_losses[-1])
    return weights, epoch_losses


def assemble_features(examples, input_scale_mm: float = 0.0,
                      with_color: bool = False, out: Optional[np.ndarray] = None,
                      offset: int = 0) -> np.ndarray:
    """Stack LabeledExamples into the network input tensor (M, N, C).

    Channel order: xyz (divided by input_scale_mm when > 0), normal,
    curvature, then rgb when with_color. Pass `out`/`offset` to fill a
    preallocated slab.
    """
    channels = 10 if with_color else 7
    n = len(examples[0])
    if out is None:
        out = np.empty((len(examples), n, channels), dtype=np.float32)
        offset = 0
    scale = np.float32(1.0 / input_scale_mm) if input_scale_mm > 0 else np.float32(1.0)
    for i, e in enumerate(examples):
        row = out[offset + i]
        row[:, 0:3] = e.positions * scale
        row[:, 3:6] = e.normals
        row[:, 6] = e.curvatures
        if with_color:
            if e.colors is None:
                raise ValueError("with_color=True but example has no colors")
            row[:, 7:10] = e.colors
    return out


# ---------------------------------------------------------------------------
# weights file: magic, JSON header, CRC32 of the tensor block, f32 tensors

_W_MAGIC = b"PVNW"


def save_weights(path, weights: Weights) -> None:
    header = json.dumps({
        "config": weights.config.to_dict(),
        "input_scale_mm": float(weights.input_scale_mm),
        "normalize": bool(weights.normalize),
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


def load_weights(path, expected_config: Optional[NetworkConfig] = None) -> Weights:
    with open(path, "rb") as f:
        if f.read(4) != _W_MAGIC:
            raise WeightsFormatError("bad weights magic")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
        try:
            header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
            config = NetworkConfig.from_dict(header["config"])
            input_scale_mm = float(header["input_scale_mm"])
            normalize = bool(header["normalize"])
        except (ValueError, KeyError, TypeError) as exc:
            raise WeightsFormatError(f"bad weights header: {exc!r}") from exc
        (crc,) = struct.unpack("<I", _read_exact(f, 4, "checksum"))
        blob = f.read()
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise WeightsFormatError("weights checksum mismatch (corrupted file)")
    if expected_config is not None and config != expected_config:
        raise WeightsFormatError(
            f"weights config {config.to_dict()} != expected {expected_config.to_dict()}")

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
                      segmenter=take(seg), input_scale_mm=input_scale_mm,
                      normalize=normalize)
    if len(flat):
        raise WeightsFormatError("trailing bytes in weights tensor block")
    return weights
