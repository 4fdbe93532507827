"""Network forward/backward/training/weights-file tests."""

import json
import tracemalloc

import numpy as np
import pytest

from pointpose import network
from pointpose.errors import WeightsFormatError
from pointpose.network import (NetworkConfig, TrainConfig,
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
    (5, 2, False, 3),         # two points per set, the fewest allowed
    (6, 16, True, 4),         # duplicated points tie in the max-pool
    (9, 2048, False, None),
]


def _check_fused_matches_cached(monkeypatch, dtype, channels, encoder, segmenter,
                                b, n, dup, block):
    if block is not None:
        monkeypatch.setattr(network, "_FUSED_BLOCK_POINTS", block * n)
    cfg = NetworkConfig(k=3, input_channels=channels, encoder=encoder,
                        classifier=(8, 1), segmenter=segmenter)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [7, 10])
@pytest.mark.parametrize("encoder", [(16, 32), (16, 16, 32), (16, 16, 24, 32)])
@pytest.mark.parametrize("b, n, dup, block", FUSED_SHAPES)
def test_forward_fused_matches_cached(monkeypatch, dtype, channels, encoder,
                                      b, n, dup, block):
    """Inference never materialises the wide layer, yet equals the cached
    (training) path bit for bit."""
    _check_fused_matches_cached(monkeypatch, dtype, channels, encoder, (8, 0),
                                b, n, dup, block)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("encoder", [(16, 32), (16, 16, 32), (16, 16, 24, 32)])
@pytest.mark.parametrize("b, n, dup, block", FUSED_SHAPES)
@pytest.mark.parametrize("segmenter", [(0,), (8, 8, 0)], ids=["seg1", "seg3"])
def test_forward_fused_matches_cached_segmenter_depth(monkeypatch, segmenter, dtype,
                                                      encoder, b, n, dup, block):
    """The same for 1- and 3-layer segmenters: the segmenter loop's output
    layer is its first, or follows two hidden layers."""
    _check_fused_matches_cached(monkeypatch, dtype, 7, encoder, segmenter,
                                b, n, dup, block)


def repeated_rows(rng, counts, n, c=7):
    """Point sets whose rows after each count repeat earlier rows, as
    `dataset._sample_fill` draws them."""
    x = rng.standard_normal((len(counts), n, c)).astype(np.float32)
    for row, count in zip(x, counts):
        row[count:] = row[rng.integers(0, count, n - count)]
    return x


def recorded_narrow_products(monkeypatch):
    """(weight, rows) of each narrow encoder product, appended to the
    returned list as encode runs them."""
    products = []

    def recording(h, weight, bias, out=None):
        products.append((weight, len(h)))
        return linear_relu(h, weight, bias, out=out)

    linear_relu = network._linear_relu
    monkeypatch.setattr(network, "_linear_relu", recording)
    return products


# encode over distinct rows runs smaller products than over all N rows,
# which a BLAS may round differently: its pooled features equal those of
# every row to within this much of their largest magnitude (they were bit
# for bit equal on the OpenBLAS these tests were written on)
DISTINCT_ROWS_RTOL = {np.float32: 1e-5, np.float64: 1e-12}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encode_distinct_rows_equals_every_row(monkeypatch, dtype):
    """encode over each set's distinct rows gives the pooled features of all
    its rows, to float rounding. In blocks of 2 the narrow products run
    2048 + 700, 5 + 1500 and 2048 + 9 rows."""
    w = init_weights(NetworkConfig(k=3), seed=0, dtype=dtype)
    counts = np.array([2048, 700, 5, 1500, 2048, 9])
    x = repeated_rows(np.random.default_rng(3), counts, 2048)
    assert network.encoder_block(2048) == 2
    products = recorded_narrow_products(monkeypatch)
    g = network.encode(w, x, counts=counts)[0]
    first = w.encoder[0][0]
    assert [rows for weight, rows in products if weight is first] == [2748, 1505, 2057]
    rtol = DISTINCT_ROWS_RTOL[dtype]
    assert _close(g, network.encode(w, x)[0], rtol)
    assert _close(network.classify(w, g)[1], forward(w, x, want_seg=False).class_prob, rtol)


@pytest.mark.parametrize("counts", [False, True], ids=["every_row", "distinct_rows"])
@pytest.mark.parametrize("rows", [511, 512, 513, 1025, 2048])
def test_tiled_wide_product_equals_the_materialised_forward(rows, counts):
    """Inference runs the wide product in near-equal tiles of at most 512
    rows, yet its pooled features and scores equal the materialised
    training forward bit for bit: 513 rows make tiles of 256 and 257, 1025
    three tiles, 2048 four. With counts, each set's first `rows` rows are
    distinct, and the tiles split those."""
    w = init_weights(NetworkConfig(k=3), seed=0)
    assert network._WIDE_TILE_ROWS == 512
    n = 2048
    set_counts = np.array([rows, n, rows])
    x = repeated_rows(np.random.default_rng(rows), set_counts, n)
    if not counts:
        x = x[:, :rows]
    ref = forward(w, x, want_seg=False, keep_cache=True)
    g = network.encode(w, x, counts=set_counts if counts else None)[0]
    assert np.array_equal(g, ref.cache["g"])
    assert np.array_equal(network.classify(w, g)[1], ref.class_prob)


@pytest.mark.parametrize("with_arg", [False, True], ids=["inference", "training"])
def test_tiled_column_max_splits_rows_near_equally(with_arg):
    """1025 rows make tiles of 341, 342 and 342. With `arg`, as training
    runs it, each column's winner is its lowest row at the max after bias:
    rows 512 on repeat rows 0-512, so a later tile ties an earlier one and
    must not take its column."""
    w = np.eye(8, dtype=np.float32)
    h = np.random.default_rng(0).standard_normal((1025, 8)).astype(np.float32)
    h[512:] = h[:513]
    z = np.full((512, 8), np.nan, dtype=np.float32)
    out = np.empty(8, dtype=np.float32)
    bias = np.linspace(-1, 1, 8, dtype=np.float32)
    arg = np.empty(8, dtype=np.intp) if with_arg else None
    network._tiled_column_max(h, w, bias, z, out, arg)
    assert np.array_equal(out, (h + bias).max(axis=0))
    if with_arg:
        assert np.array_equal(arg, (h + bias).argmax(axis=0))
        assert (arg >= 341).any() and (arg < 341).any()   # a later tile wins some columns
    assert np.isnan(z[342:]).all() and not np.isnan(z[:342]).any()


def test_inference_encode_holds_no_whole_wide_product():
    """An inference encode of 4 sets of 2048 points holds one (512, 1024)
    tile, not an (N, wide) product, and 2-set narrow blocks. tracemalloc
    peak of this encode: 16.0 MiB with 4-set blocks and a (2048, 1024)
    product buffer, 6.1 MiB now. The bound is one (N, wide) float32
    product."""
    w = init_weights(NetworkConfig(k=50), seed=0)
    x = np.random.default_rng(7).standard_normal((4, 2048, 7)).astype(np.float32)
    tracemalloc.start()
    try:
        network.encode(w, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 1024 * 4, peak / 2 ** 20


def test_two_layer_segment_forward_holds_no_whole_wide_activation():
    """A 2-layer encoder's skip is its first layer, so a segment call runs
    the one tiled encoder pass. tracemalloc peak of this forward: 34.2 MiB
    when the pooled layer was the skip layer and its (B*N, wide) activation
    was held whole, 4.0 MiB now. The bound is one (B*N, wide) float32
    array."""
    w = init_weights(NetworkConfig(k=3, encoder=(64, 1024), classifier=(8, 1),
                                   segmenter=(8, 0)), seed=0)
    b, n = 4, 2048
    x = np.random.default_rng(7).standard_normal((b, n, 7)).astype(np.float32)
    tracemalloc.start()
    try:
        forward(w, x, want_seg=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < b * n * 1024 * 4, peak / 2 ** 20


@pytest.mark.parametrize("encoder, skip_layer, seg_input_width", [
    ((4, 8), 0, 4 + 8),
    ((4, 6, 8), 1, 6 + 8),
    ((4, 6, 7, 8), 1, 6 + 8),
])
def test_skip_layer_is_below_the_pooled_layer(encoder, skip_layer, seg_input_width):
    """The segmenter reads the encoder's second layer, or its first when
    the encoder has two layers, next to the pooled last layer."""
    cfg = NetworkConfig(k=2, encoder=encoder, classifier=(4, 1), segmenter=(4, 0))
    assert cfg.skip_layer == skip_layer
    assert cfg.seg_input_width == seg_input_width
    assert init_weights(cfg).segmenter[0][0].shape == (seg_input_width, 4)


@pytest.mark.parametrize("counts, kwargs, message", [
    ([4, 4], {"want_seg": True}, "inference without want_seg"),
    ([4, 4], {"keep_cache": True}, "inference without want_seg"),
    ([4], {}, "one count in 1..8 per point set"),
    ([0, 4], {}, "one count in 1..8 per point set"),
    ([4, 9], {}, "one count in 1..8 per point set"),
])
def test_encode_rejects_bad_counts(counts, kwargs, message):
    x = np.zeros((2, 8, 7))
    with pytest.raises(ValueError, match=message):
        network.encode(tiny_weights(), x, counts=np.array(counts), **kwargs)


def test_forward_segment_memory_stays_below_one_hidden_layer():
    """A segment call on 16 spheres of 2048 points never holds a
    (B*N, width) segmenter activation. tracemalloc peak of this forward:
    126.6 MiB with the batched segmenter, which held the (B*N, 512),
    (B*N, 256) and (B*N, 128) activations; 32.1 MiB one example at a time.
    The bound is one (B*N, 512) float32 activation."""
    w = init_weights(NetworkConfig(k=50), seed=0)
    b, n = 16, 2048
    x = np.random.default_rng(7).standard_normal((b, n, 7)).astype(np.float32)
    tracemalloc.start()
    try:
        forward(w, x, want_seg=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < b * n * 512 * 4, peak / 2 ** 20


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


@pytest.mark.parametrize("run", [
    lambda w, x: forward(w, x),
    lambda w, x: network.encode(w, x),
    lambda w, x: backward(w, x, np.ones(3), np.zeros((3, 1), int)),
], ids=["forward", "encode", "backward"])
def test_one_point_sets_are_rejected(run):
    """Point sets hold at least two points."""
    with pytest.raises(ValueError, match="at least 2 points"):
        run(tiny_weights(), np.zeros((3, 1, 7)))


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


# the 2-layer cases keep their plain seed ids. Every depth puts the pooled
# layer above the skip layer: the first layer for 2-layer encoders, the
# second for deeper ones
GRADCHECK_CASES = [pytest.param(seed, enc, id=str(seed) if len(enc) == 2 else
                                "-".join(map(str, enc + (seed,))))
                   for enc in [(4, 8), (4, 6, 8), (4, 6, 6, 8)] for seed in (0, 1, 2)]


@pytest.mark.parametrize("seed, encoder", GRADCHECK_CASES)
def test_gradcheck_tiny_configs(seed, encoder):
    cfg = NetworkConfig(k=2, input_channels=7, encoder=encoder, classifier=(4, 1),
                        segmenter=(4, 0))
    rng = np.random.default_rng(seed)
    w = tiny_weights(seed=seed, dtype=np.float64, random_bias=True, config=cfg)
    x = random_batch(rng, b=2, n=8)
    y = rng.integers(0, 2, 2)
    seg = rng.integers(0, 3, (2, 8))
    w_cls, w_seg = 0.15, 0.85

    loss, grads = backward(w, x, y, seg, w_cls, w_seg)
    assert np.isfinite(loss)
    for p, g in zip(w.params(), grads.params()):
        assert g.shape == p.shape
        assert np.all(np.isfinite(g))
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            fd = _numeric_grad(w, x, y, seg, w_cls, w_seg, p, idx)
            denom = max(abs(g[idx]) + abs(fd), 1e-8)
            assert abs(g[idx] - fd) / denom < 1e-4, (idx, g[idx], fd)
            it.iternext()


def dense_reference(w: Weights, x, y, seg, w_cls=0.15, w_seg=0.85):
    """The materialised route: the whole (B*N, wide) activation, its argmax
    over points, and the dense pooled gradient scattered onto it. Returns
    (loss, prob, seg_logits, g, argmax, Gradients, input_grad)."""
    cfg, dtype = w.config, w.dtype
    x = np.asarray(x, dtype=dtype)
    b, n, _ = x.shape
    bn = b * n
    enc = [x.reshape(bn, -1)]
    for wm, bias in w.encoder:
        enc.append(np.maximum(enc[-1] @ wm + bias, 0.0))
    wide = enc[-1].reshape(b, n, -1)
    arg = wide.argmax(axis=1)
    g = np.take_along_axis(wide, arg[:, None], axis=1)[:, 0]
    cls_acts = [g]
    for wm, bias in w.classifier[:-1]:
        cls_acts.append(np.maximum(cls_acts[-1] @ wm + bias, 0.0))
    w_last, b_last = w.classifier[-1]
    prob = network._sigmoid((cls_acts[-1] @ w_last + b_last).reshape(b))
    skip, skip_w = enc[cfg.skip_layer + 1], cfg.encoder[cfg.skip_layer]
    w0, b0 = w.segmenter[0]
    g_part = g @ w0[skip_w:]
    g_part += b0
    # the segmenter runs one example at a time, as in forward: OpenBLAS
    # picks its sgemm kernel by problem size, and its small-matrix kernel
    # (below ~1e6 multiply-adds) rounds differently from the batched product
    blocks = []
    for i in range(b):
        acts = [skip[i * n:(i + 1) * n] @ w0[:skip_w] + g_part[i]]
        for wm, bias in w.segmenter[1:]:
            acts[-1] = np.maximum(acts[-1], 0.0)
            acts.append(acts[-1] @ wm + bias)
        blocks.append(acts)
    layers = [np.concatenate(a) for a in zip(*blocks)]
    s, seg_acts = layers[-1], [skip] + layers[:-1]

    yv = np.asarray(y, dtype=dtype).reshape(b)
    labels = np.asarray(seg, dtype=np.int64).reshape(bn)
    rows = np.arange(bn)
    gmax = s.max()
    e = np.exp(s - gmax)
    e_sum = e @ np.ones(s.shape[1], dtype=dtype)
    ce = -np.mean(s[rows, labels].astype(np.float64) - gmax
                  - np.log(e_sum.astype(np.float64)))
    p64, y64 = prob.astype(np.float64), yv.astype(np.float64)
    bce = -np.mean(y64 * np.log(np.maximum(p64, 1e-12))
                   + (1.0 - y64) * np.log(np.maximum(1.0 - p64, 1e-12)))
    loss = float(w_cls * bce + w_seg * ce)

    d_logit = ((w_cls / b) * (prob - yv)).astype(dtype)
    cls_grads, d_g_cls = network._mlp_backward(w.classifier, cls_acts, d_logit[:, None])
    delta = e
    delta /= e_sum[:, None]
    delta[rows, labels] -= 1.0
    delta *= w_seg / bn
    seg_grads = [None] * len(w.segmenter)
    for li in range(len(w.segmenter) - 1, 0, -1):
        seg_grads[li] = (seg_acts[li].T @ delta, delta.sum(axis=0))
        delta = (delta @ w.segmenter[li][0].T) * (seg_acts[li] > 0)
    delta_ex = delta.reshape(b, n, -1).sum(axis=1)
    seg_grads[0] = (np.concatenate([skip.T @ delta, g.T @ delta_ex]), delta.sum(axis=0))
    d_skip = delta @ w0[:skip_w].T
    d_g = d_g_cls + delta_ex @ w0[skip_w:].T

    n_enc = len(w.encoder)
    delta = np.zeros((bn, cfg.encoder[-1]), dtype=dtype)
    delta[arg + (np.arange(b) * n)[:, None], np.arange(cfg.encoder[-1])] = d_g
    delta *= enc[-1] > 0
    enc_grads = [None] * n_enc
    for li in range(n_enc - 1, -1, -1):
        enc_grads[li] = (enc[li].T @ delta, delta.sum(axis=0))
        delta = delta @ w.encoder[li][0].T
        if li == cfg.skip_layer + 1:
            delta += d_skip
        if li > 0:
            delta *= enc[li] > 0
    grads = network.Gradients(encoder=enc_grads, classifier=cls_grads, segmenter=seg_grads)
    return loss, prob, s.reshape(b, n, -1), g, arg, grads, delta.reshape(b, n, -1)


@pytest.mark.parametrize("n", [513, 1025, 2048])
def test_training_forward_pools_paper_tiles_as_dense_reference(n):
    """The paper network's training forward pools its wide product over
    row tiles of at most 512 rows (2, 3 and 4 tiles here), yet its g and
    argmax equal the materialised route's bit for bit. Each set's last
    n // 2 rows repeat its first n // 2, so later tiles tie earlier ones,
    and every winner is in the first n - n // 2 rows."""
    w = tiny_weights(seed=11, dtype=np.float32, random_bias=True, config=NetworkConfig(k=50))
    assert network._WIDE_TILE_ROWS == 512
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, n, 7)).astype(np.float32)
    x[:, n - n // 2:] = x[:, :n // 2]
    y, seg = rng.integers(0, 2, 2), rng.integers(0, 51, (2, n))
    _, _, _, g_r, arg_r, _, _ = dense_reference(w, x, y, seg)
    fwd = forward(w, x, keep_cache=True)
    assert np.array_equal(fwd.cache["g"], g_r)
    assert np.array_equal(fwd.cache["argmax"], arg_r)
    assert (arg_r < n - n // 2).all()


def _close(a, ref, rtol):
    return np.abs(a - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("encoder", [(16, 64), (16, 16, 64), (16, 16, 24, 64)])
@pytest.mark.parametrize("b", [1, 7])
@pytest.mark.parametrize("n", [2, 2048])
def test_backward_matches_dense_reference(dtype, rtol, encoder, b, n):
    """The sparse pooled gradient equals the dense scatter route: forward
    outputs, argmax, loss and head gradients bit for bit, encoder gradients
    up to float reordering."""
    _check_backward_matches_dense(dtype, rtol, encoder, (32, 16, 0), b, n)


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("encoder", [(16, 64), (16, 16, 64), (16, 16, 24, 64)])
@pytest.mark.parametrize("b", [1, 7])
@pytest.mark.parametrize("n", [2, 2048])
@pytest.mark.parametrize("segmenter", [(0,), (32, 0)], ids=["seg1", "seg2"])
def test_backward_matches_dense_reference_segmenter_depth(segmenter, dtype, rtol,
                                                          encoder, b, n):
    """The same for 1- and 2-layer segmenters."""
    _check_backward_matches_dense(dtype, rtol, encoder, segmenter, b, n)


def _check_backward_matches_dense(dtype, rtol, encoder, segmenter, b, n):
    cfg = NetworkConfig(k=4, encoder=encoder, classifier=(16, 1), segmenter=segmenter)
    w = tiny_weights(seed=11, dtype=dtype, random_bias=True, config=cfg)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((b, n, 7))
    x[:, n // 2:] = x[:, :n - n // 2]       # duplicated points: argmax ties
    y = rng.integers(0, 2, b)
    seg = rng.integers(0, 5, (b, n))
    loss_r, prob_r, logits_r, g_r, arg_r, grads_r, dx_r = dense_reference(w, x, y, seg)

    fwd = forward(w, x, keep_cache=True)
    assert np.array_equal(fwd.class_prob, prob_r)
    assert np.array_equal(fwd.seg_logits, logits_r)
    assert np.array_equal(fwd.cache["g"], g_r)
    assert np.array_equal(fwd.cache["argmax"], arg_r)

    loss, grads, dx = backward(w, x, y, seg, want_input_grad=True)
    assert loss == loss_r
    for got, ref in zip(grads.classifier + grads.segmenter,
                        grads_r.classifier + grads_r.segmenter):
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    for got, ref in zip(grads.encoder, grads_r.encoder):
        for a, r in zip(got, ref):
            assert a.shape == r.shape and a.dtype == dtype
            assert _close(a, r, rtol)
    assert _close(dx, dx_r, rtol)


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


def test_backward_nan_weights_give_nan_loss():
    """A diverged step leaves NaN weights; the next step reports a NaN loss
    instead of failing in the pooled argmax, whose NaN max matches no point."""
    w = init_weights(NetworkConfig(k=2, encoder=(8, 8, 16), classifier=(4, 1),
                                   segmenter=(4, 0)), seed=0)
    w.encoder[0][0][:] = np.nan
    x = np.random.default_rng(0).standard_normal((2, 16, 7))
    loss, _ = backward(w, x, np.ones(2), np.zeros((2, 16), int))
    assert np.isnan(loss)


def test_backward_memory_stays_below_wide_layer():
    """One training step never holds a (B*N, wide) array. tracemalloc peak of
    this backward, with a fresh pool: 196.5 MiB with the dense scatter route
    (the wide activation, its transposed copy, the dense gradient and its
    mask, 32 MiB each), 59.3 MiB with the sparse route and an (N, wide)
    product per example, 51.3 MiB with (512, wide) product tiles. The bound
    is less than one more such array above the latter."""
    w = init_weights(NetworkConfig(k=50), seed=0)
    rng = np.random.default_rng(3)
    b, n = 4, 2048
    x = rng.standard_normal((b, n, 7)).astype(np.float32)
    y, seg = rng.integers(0, 2, b), rng.integers(0, 51, (b, n))
    pool = network.BufferPool()
    tracemalloc.start()
    try:
        backward(w, x, y, seg, pool=pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20, peak / 2 ** 20
    assert all(buf.size < b * n * 1024 for buf in pool._bufs.values())


def test_backward_relu_masks_share_one_buffer():
    """Every backward ReLU mask is a view of one pooled bool buffer sized for
    one row block (one 2048-point example) of the widest masked layer (512
    features per point), and it is the pool's only bool buffer. A pool of
    one mask per layer held 1152 bytes per point of the batch, one
    whole-batch mask 512, and the forward's (N, 1024) argmax scratch 1024
    more per point of a set. Gradients over two steps on one pool equal
    those computed without a pool, bit for bit."""
    w = init_weights(NetworkConfig(k=50), seed=0)
    rng = np.random.default_rng(4)
    b, n = 4, 2048
    pool = network.BufferPool()
    for _ in range(2):
        x = rng.standard_normal((b, n, 7)).astype(np.float32)
        y, seg = rng.integers(0, 2, b), rng.integers(0, 51, (b, n))
        got = backward(w, x, y, seg, want_input_grad=True, pool=pool)
        want = backward(w, x, y, seg, want_input_grad=True)
        _assert_same_step(got, want)
        np.testing.assert_array_equal(got[2], want[2])
    bool_bytes = sum(buf.nbytes for buf in pool._bufs.values() if buf.dtype == np.bool_)
    assert bool_bytes == n * 512


def _assert_same_step(got, want):
    assert got[0] == want[0]
    for layers in ("encoder", "classifier", "segmenter"):
        for g_got, g_want in zip(getattr(got[1], layers), getattr(want[1], layers)):
            np.testing.assert_array_equal(g_got[0], g_want[0])
            np.testing.assert_array_equal(g_got[1], g_want[1])


def test_backward_paper_network_pool_holds_no_dead_buffer():
    """A training epoch's full 16 x 2048 step, then its partial last batch,
    on one pool. The pool holds the forward's buffers and one row block's
    ReLU mask: the softmax, the skip gradient and the pooled layer's winner
    rows reuse segmenter buffers read for the last time. It held 190.8 MiB
    after a full step when each had its own buffer, 161.4 MiB without, and
    153.4 MiB since the forward pools (512, wide) product tiles instead of
    an (N, wide) product and its (N, wide) bool scratch. The bound is below
    one more (N, wide) float32 buffer. Loss and gradients equal a pool-less
    step, bit for bit."""
    w = init_weights(NetworkConfig(k=50), seed=0)
    rng = np.random.default_rng(8)
    pool = network.BufferPool()
    for b in (16, 14):
        x = rng.standard_normal((b, 2048, 7)).astype(np.float32)
        y, seg = rng.integers(0, 2, b), rng.integers(0, 51, (b, 2048))
        got = backward(w, x, y, seg, pool=pool)
        assert sum(buf.nbytes for buf in pool._bufs.values()) <= 155 * 2 ** 20
        _assert_same_step(got, backward(w, x, y, seg))


def test_buffer_pool_serves_a_smaller_request_from_the_front():
    """An epoch's short last batch takes the front of the full batches'
    buffers: the pool allocates only to grow, or for another dtype."""
    pool = network.BufferPool()
    full = pool.get("x", (16, 4, 7), np.float32)
    short = pool.get("x", (14, 4, 7), np.float32)
    assert short.shape == (14, 4, 7) and short.flags.c_contiguous
    assert np.shares_memory(short, full) and short.ctypes.data == full.ctypes.data
    assert pool.get("x", (16, 4, 7), np.float32).ctypes.data == full.ctypes.data
    assert not np.shares_memory(pool.get("x", (17, 4, 7), np.float32), full)
    assert pool.get("x", (2, 4, 7), np.float64).dtype == np.float64


def test_backward_hands_out_head_losses():
    """The joint loss is w_cls * BCE + w_seg * CE of the heads it hands out."""
    w = tiny_weights(seed=2, random_bias=True)
    rng = np.random.default_rng(9)
    x = random_batch(rng, b=3, n=16)
    y, seg = np.array([1, 0, 1]), rng.integers(0, 3, (3, 16))
    heads = []
    loss, _ = backward(w, x, y, seg, w_cls=0.3, w_seg=0.7, head_losses_out=heads)
    (bce, ce), = heads
    assert loss == float(0.3 * bce + 0.7 * ce)
    fwd = forward(w, x)
    assert bce == pytest.approx(joint_loss(fwd.class_prob, fwd.seg_logits, y, seg, 1.0, 0.0),
                                rel=1e-12)
    assert ce == pytest.approx(joint_loss(fwd.class_prob, fwd.seg_logits, y, seg, 0.0, 1.0),
                               rel=1e-12)


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


class ReallocatingPool:
    """The earlier BufferPool, which allocated anew whenever a key's shape
    changed."""

    def __init__(self):
        self._bufs = {}

    def get(self, key, shape, dtype):
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


def test_train_with_a_short_last_batch_equals_a_reallocating_pool(monkeypatch):
    """10 examples in batches of 4 end every epoch with a batch of 2, whose
    buffers are the fronts of the full batches' ones. The losses and the
    weights equal those trained with the earlier, reallocating pool bit for
    bit."""
    feats, cls, seg = toy_dataset(np.random.default_rng(5))
    cfg = NetworkConfig(k=2, encoder=(8, 8, 16), classifier=(8, 1), segmenter=(8, 0))
    tc = TrainConfig(epochs=3, seed=3, batch_size=4)
    weights, losses = train(feats, cls, seg, cfg, tc)
    monkeypatch.setattr(network, "BufferPool", ReallocatingPool)
    ref_weights, ref_losses = train(feats, cls, seg, cfg, tc)
    assert losses == ref_losses
    assert all(np.array_equal(a, b) for a, b in zip(weights.params(), ref_weights.params()))


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
    assert back.input_scale_mm == 60.0
    assert b'"normalize": true' in path.read_bytes()  # the header keeps the key
    a = forward(weights, feats[:2])
    b = forward(back, feats[:2])
    assert np.array_equal(a.class_prob, b.class_prob)
    assert np.array_equal(a.seg_logits, b.seg_logits)


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


@pytest.mark.perf
def test_backward_speed(benchmark):
    """One training step of the full-width network: 16 spheres of 2048
    points, k=50, reusing the training loop's buffer pool."""
    w = init_weights(NetworkConfig(k=50), seed=0)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((16, 2048, 7)).astype(np.float32)
    y, seg = rng.integers(0, 2, 16), rng.integers(0, 51, (16, 2048))
    loss, grads = benchmark(backward, w, x, y, seg, pool=network.BufferPool())
    assert np.isfinite(loss)
    assert [g.shape for g in grads.params()] == [p.shape for p in w.params()]
