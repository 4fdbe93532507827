"""Network forward/backward/training/weights-file tests."""

import json

import numpy as np
import pytest

from pointpose import network
from pointpose.errors import WeightsFormatError
from pointpose.network import (ForwardResult, NetworkConfig, TrainConfig,
                               Weights, assemble_features, backward, forward,
                               init_weights, joint_loss, load_weights,
                               save_weights, train)

TINY = NetworkConfig(k=2, input_channels=7, encoder=(4, 8), classifier=(4, 1),
                     segmenter=(4, 0))


def tiny_weights(seed=0, dtype=np.float64, random_bias=False, config=TINY):
    w = init_weights(config, seed=seed, dtype=dtype)
    if random_bias:
        # keep pre-activations off the ReLU kink so central differences are valid
        rng = np.random.default_rng(seed + 1000)
        for group in (w.encoder, w.classifier, w.segmenter):
            for _, b in group:
                b += rng.normal(0, 0.1, b.shape).astype(dtype)
    return w


def random_batch(rng, b=2, n=8, c=7):
    return rng.standard_normal((b, n, c))


# ---------------------------------------------------------------------------
# forward


def test_forward_duplicate_point_identical_seg_rows():
    rng = np.random.default_rng(0)
    w = tiny_weights()
    point = rng.standard_normal((1, 1, 7))
    x = np.repeat(point, 16, axis=1)
    out = forward(w, x)
    assert np.all(out.seg_logits[0] == out.seg_logits[0, 0])


def test_forward_permutation_covariance_bit_exact():
    rng = np.random.default_rng(1)
    w = init_weights(NetworkConfig(k=5, encoder=(16, 16, 32), classifier=(8, 1),
                                   segmenter=(16, 0)), seed=3, dtype=np.float32)
    x = rng.standard_normal((3, 64, 7)).astype(np.float32)
    perm = rng.permutation(64)
    for keep_cache in (False, True):   # fused inference and the training path
        a = forward(w, x, keep_cache=keep_cache)
        b = forward(w, x[:, perm], keep_cache=keep_cache)
        assert np.array_equal(a.class_prob, b.class_prob)
        assert np.array_equal(a.seg_logits[:, perm], b.seg_logits)


# (B, N, duplicated points, examples per block); None keeps the module's
FUSED_SHAPES = [
    (7, 16, False, 3),        # B not a multiple of the block
    (1, 16, False, 3),
    (5, 1, False, 3),         # one point per set
    (6, 16, True, 4),         # duplicated points tie in the max-pool
    (9, 2048, False, None),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [7, 10])
@pytest.mark.parametrize("encoder", [(16, 32), (16, 16, 32), (16, 16, 24, 32)])
@pytest.mark.parametrize("b, n, dup, block", FUSED_SHAPES)
def test_forward_fused_matches_cached(monkeypatch, dtype, channels, encoder,
                                      b, n, dup, block):
    """Inference never materialises the wide layer, yet equals the cached
    (training) path bit for bit."""
    if block is not None:
        monkeypatch.setattr(network, "_FUSED_BLOCK_POINTS", block * n)
    cfg = NetworkConfig(k=3, input_channels=channels, encoder=encoder,
                        classifier=(8, 1), segmenter=(8, 0))
    w = tiny_weights(seed=5, dtype=dtype, random_bias=True, config=cfg)
    x = np.random.default_rng(6).standard_normal((b, n, channels))
    if dup:
        x[:, n // 2:] = x[:, :1]
    ref = forward(w, x, keep_cache=True)
    seg = forward(w, x, want_seg=True)
    cls = forward(w, x, want_seg=False)
    assert seg.cache is None and cls.seg_logits is None
    assert np.array_equal(seg.class_prob, ref.class_prob)
    assert np.array_equal(seg.seg_logits, ref.seg_logits)
    assert np.array_equal(cls.class_prob, ref.class_prob)


def test_forward_zero_weights_prob_half():
    w = tiny_weights()
    for group in (w.encoder, w.classifier, w.segmenter):
        for wm, b in group:
            wm[:] = 0
            b[:] = 0
    out = forward(w, np.random.default_rng(2).standard_normal((4, 8, 7)))
    assert np.all(out.class_prob == 0.5)


def test_forward_shape_mismatch():
    w = tiny_weights()
    with pytest.raises(ValueError):
        forward(w, np.zeros((2, 8, 10)))


# ---------------------------------------------------------------------------
# joint_loss


def test_loss_perfect_predictions_near_zero():
    b, n, k1 = 3, 16, 3
    prob = np.ones(b) - 1e-15
    seg_logits = np.full((b, n, k1), -60.0)
    labels = np.random.default_rng(0).integers(0, k1, (b, n))
    for bi in range(b):
        for ni in range(n):
            seg_logits[bi, ni, labels[bi, ni]] = 60.0
    loss = joint_loss(prob, seg_logits, np.ones(b), labels)
    assert loss < 1e-6


def test_loss_uniform_seg_is_log_k1():
    b, n, k1 = 2, 32, 41
    seg_logits = np.zeros((b, n, k1))
    labels = np.random.default_rng(1).integers(0, k1, (b, n))
    loss = joint_loss(np.full(b, 0.5), seg_logits, np.ones(b), labels,
                      w_cls=0.0, w_seg=1.0)
    assert loss == pytest.approx(np.log(41), abs=1e-9)


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    b, n, k1 = 3, 12, 5
    prob = rng.uniform(0.01, 0.99, b)
    seg_logits = rng.standard_normal((b, n, k1))
    y = rng.integers(0, 2, b)
    labels = rng.integers(0, k1, (b, n))
    w_cls, w_seg = 0.15, 0.85

    # straightforward scalar re-implementation
    bce = 0.0
    for bi in range(b):
        p = prob[bi]
        bce += -(y[bi] * np.log(p) + (1 - y[bi]) * np.log(1 - p))
    bce /= b
    ce = 0.0
    for bi in range(b):
        for ni in range(n):
            z = seg_logits[bi, ni]
            e = np.exp(z - z.max())
            sm = e / e.sum()
            ce += -np.log(sm[labels[bi, ni]])
    ce /= b * n
    expected = w_cls * bce + w_seg * ce

    got = joint_loss(prob, seg_logits, y, labels, w_cls, w_seg)
    assert got == pytest.approx(expected, rel=1e-12)


def test_loss_nonnegative_and_cls_only_mode():
    rng = np.random.default_rng(8)
    prob = rng.uniform(0.01, 0.99, 4)
    seg = rng.standard_normal((4, 8, 3))
    y = rng.integers(0, 2, 4)
    labels = rng.integers(0, 3, (4, 8))
    assert joint_loss(prob, seg, y, labels) >= 0
    only_cls = joint_loss(prob, seg, y, labels, w_cls=1.0, w_seg=0.0)
    bce = -np.mean(y * np.log(prob) + (1 - y) * np.log(1 - prob))
    assert only_cls == pytest.approx(bce, rel=1e-12)


# ---------------------------------------------------------------------------
# backward


def _numeric_grad(w: Weights, x, y, seg, w_cls, w_seg, param, idx, h=1e-4):
    orig = param[idx]
    param[idx] = orig + h
    f1 = forward(w, x)
    up = joint_loss(f1.class_prob, f1.seg_logits, y, seg, w_cls, w_seg)
    param[idx] = orig - h
    f2 = forward(w, x)
    down = joint_loss(f2.class_prob, f2.seg_logits, y, seg, w_cls, w_seg)
    param[idx] = orig
    return (up - down) / (2 * h)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_tiny_configs(seed):
    rng = np.random.default_rng(seed)
    w = tiny_weights(seed=seed, dtype=np.float64, random_bias=True)
    x = random_batch(rng, b=2, n=8)
    y = rng.integers(0, 2, 2)
    seg = rng.integers(0, 3, (2, 8))
    w_cls, w_seg = 0.15, 0.85

    loss, grads = backward(w, x, y, seg, w_cls, w_seg)
    assert np.isfinite(loss)
    for p, g in zip(w.params(), grads.params()):
        assert np.all(np.isfinite(g))
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            fd = _numeric_grad(w, x, y, seg, w_cls, w_seg, p, idx)
            denom = max(abs(g[idx]) + abs(fd), 1e-8)
            assert abs(g[idx] - fd) / denom < 1e-4, (idx, g[idx], fd)
            it.iternext()


def test_gradient_zero_at_constructed_minimum():
    w = tiny_weights(dtype=np.float64)
    for group in (w.encoder, w.classifier, w.segmenter):
        for wm, b in group:
            wm[:] = 0
            b[:] = 0
    w.classifier[-1][1][:] = 40.0            # class logit +40 -> p ~ 1
    w.segmenter[-1][1][:] = -40.0
    w.segmenter[-1][1][0] = 40.0             # label 0 hugely favored
    x = np.random.default_rng(3).standard_normal((2, 8, 7))
    loss, grads = backward(w, x, np.ones(2), np.zeros((2, 8), int))
    assert loss < 1e-6
    for g in grads.params():
        assert np.abs(g).max() < 1e-6


def test_maxpool_routes_gradient_to_lowest_tied_index():
    w = tiny_weights(dtype=np.float64)
    point = np.random.default_rng(5).standard_normal((1, 1, 7))
    x = np.repeat(point, 2, axis=1)  # two identical points: argmax tie -> index 0
    _, _, dx = backward(w, x, np.ones(1), np.zeros((1, 2), int),
                        w_cls=1.0, w_seg=0.0, want_input_grad=True)
    assert np.abs(dx[0, 0]).max() > 0
    assert np.abs(dx[0, 1]).max() == 0.0


# ---------------------------------------------------------------------------
# training


def toy_dataset(rng, m=10, n=32, k=2):
    # class 1: tight blob, segment by sign of x; class 0: wide blob, background
    feats = np.zeros((m, n, 7), dtype=np.float32)
    cls = np.zeros(m, dtype=np.int64)
    seg = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        cls[i] = i % 2
        pts = rng.standard_normal((n, 3)) * (0.2 if cls[i] else 1.5)
        feats[i, :, :3] = pts
        feats[i, :, 3:6] = pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-9)
        feats[i, :, 6] = 0.1
        if cls[i]:
            seg[i] = np.where(pts[:, 0] > 0, 1, 2)
    return feats, cls, seg


def test_train_overfits_toy_dataset():
    rng = np.random.default_rng(0)
    feats, cls, seg = toy_dataset(rng)
    cfg = NetworkConfig(k=2, encoder=(16, 16, 32), classifier=(16, 1), segmenter=(16, 0))
    tc = TrainConfig(epochs=50, seed=0, batch_size=2, learning_rate=0.01)
    weights, losses = train(feats, cls, seg, cfg, tc)
    assert len(losses) == 50
    assert losses[-1] < 0.1 * losses[0]


def test_train_deterministic():
    rng = np.random.default_rng(1)
    feats, cls, seg = toy_dataset(rng)
    cfg = NetworkConfig(k=2, encoder=(8, 8), classifier=(8, 1), segmenter=(8, 0))
    tc = TrainConfig(epochs=5, seed=7)
    _, la = train(feats, cls, seg, cfg, tc)
    _, lb = train(feats, cls, seg, cfg, tc)
    assert la == lb


def test_train_zero_lr_freezes_weights():
    rng = np.random.default_rng(2)
    feats, cls, seg = toy_dataset(rng, m=4)
    cfg = NetworkConfig(k=2, encoder=(8, 8), classifier=(8, 1), segmenter=(8, 0))
    tc = TrainConfig(epochs=3, seed=3, learning_rate=0.0)
    weights, _ = train(feats, cls, seg, cfg, tc)
    reference = init_weights(cfg, seed=3, dtype=np.float32)
    for a, b in zip(weights.params(), reference.params()):
        assert np.array_equal(a, b)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(w_cls=0.5, w_seg=0.6)


# ---------------------------------------------------------------------------
# weights file


def test_weights_roundtrip_bit_identical_forward(tmp_path):
    rng = np.random.default_rng(4)
    feats, cls, seg = toy_dataset(rng, m=4)
    cfg = NetworkConfig(k=2, encoder=(8, 8), classifier=(8, 1), segmenter=(8, 0))
    weights, _ = train(feats, cls, seg, cfg, TrainConfig(epochs=2, seed=1),
                       input_scale_mm=60.0)
    path = tmp_path / "w.bin"
    save_weights(path, weights)
    back = load_weights(path)
    assert back.input_scale_mm == 60.0 and back.normalize
    a = forward(weights, feats[:2])
    b = forward(back, feats[:2])
    assert np.array_equal(a.class_prob, b.class_prob)
    assert np.array_equal(a.seg_logits, b.seg_logits)


def test_weights_wrong_k_rejected(tmp_path):
    w = init_weights(TINY, seed=0)
    path = tmp_path / "w.bin"
    save_weights(path, w)
    other = NetworkConfig(k=5, encoder=(4, 8), classifier=(4, 1), segmenter=(4, 0))
    with pytest.raises(WeightsFormatError):
        load_weights(path, expected_config=other)


def test_weights_corruption_detected(tmp_path):
    w = init_weights(TINY, seed=0)
    path = tmp_path / "w.bin"
    save_weights(path, w)
    data = bytearray(path.read_bytes())
    data[-3] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(WeightsFormatError, match="checksum"):
        load_weights(path)


def test_weights_truncated_file_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, init_weights(TINY, seed=0))
    data = path.read_bytes()
    hlen = int.from_bytes(data[4:8], "little")
    # inside the magic, the header length, the header, the checksum, the tensors
    for cut in (0, 2, 4, 6, 8, 8 + hlen // 2, 8 + hlen, 8 + hlen + 2, 8 + hlen + 4,
                len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(WeightsFormatError):
            load_weights(path)


@pytest.mark.parametrize("drop", ["config", "input_scale_mm", "normalize"])
def test_weights_incomplete_header_rejected(tmp_path, drop):
    path = tmp_path / "w.bin"
    save_weights(path, init_weights(TINY, seed=0))
    data = path.read_bytes()
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8:8 + hlen])
    del header[drop]
    raw = json.dumps(header).encode()
    path.write_bytes(data[:4] + len(raw).to_bytes(4, "little") + raw + data[8 + hlen:])
    with pytest.raises(WeightsFormatError, match="header"):
        load_weights(path)


def test_assemble_features_layout():
    from pointpose.dataset import LabeledExample
    n = 16
    e = LabeledExample(positions=np.full((n, 3), 30.0), normals=np.tile([0, 0, 1.0], (n, 1)),
                       curvatures=np.full(n, 0.25), seg_labels=np.zeros(n, np.uint16),
                       class_label=1, colors=np.full((n, 3), 0.5))
    feats = assemble_features([e], input_scale_mm=60.0, with_color=True)
    assert feats.shape == (1, n, 10)
    assert np.allclose(feats[0, :, 0:3], 0.5)
    assert np.allclose(feats[0, :, 6], 0.25)
    assert np.allclose(feats[0, :, 7:10], 0.5)


# ---------------------------------------------------------------------------
# kernel micro-benchmarks: pytest -m perf


@pytest.mark.perf
@pytest.mark.parametrize("b, want_seg", [(64, False), (16, True)])
def test_forward_speed(benchmark, b, want_seg):
    """Full-width network on 2048-point spheres: a detect classify batch
    (segmentation off) and the 16 segmented anchors."""
    w = init_weights(NetworkConfig(k=50), seed=0)
    x = np.random.default_rng(22).standard_normal((b, 2048, 7)).astype(np.float32)
    out = benchmark(forward, w, x, want_seg=want_seg)
    assert out.class_prob.shape == (b,)
    assert (out.seg_logits is not None) == want_seg
