"""Scene labeling, example extraction, augmentation, dataset file I/O."""

import numpy as np
import pytest

from pointpose.dataset import (DISCARD, AugmentParams, LabeledExample, SamplingParams,
                               SphereParams, augment, build_instance_training_set,
                               extract_example, generate_instance_examples, iter_dataset,
                               jitter_example, label_scene, read_dataset,
                               write_dataset)
from pointpose.errors import (DatasetFormatError, EmptyNeighborhoodError,
                              InsufficientForegroundError, MissingChannelError)
from pointpose.geometry import NNIndex
from pointpose.modelprep import build_object_model
from pointpose.pointcloud import PointCloud, concatenate_clouds
from pointpose.pose import RigidPose, rotation_about_axis


def sphere_model(diameter=80.0, n=1500, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cloud = PointCloud(positions=dirs * diameter / 2, normals=dirs,
                       curvatures=np.full(n, 0.02),
                       colors=np.tile([0.8, 0.2, 0.1], (n, 1)))
    return build_object_model(cloud, spacing=25.0)


def plane_cloud(extent=600.0, step=6.0, z=0.0):
    xs = np.arange(-extent / 2, extent / 2, step)
    xx, yy = np.meshgrid(xs, xs)
    n = xx.size
    return PointCloud(positions=np.stack([xx.ravel(), yy.ravel(), np.full(n, z)], 1),
                      normals=np.tile([0.0, 0, 1], (n, 1)),
                      curvatures=np.zeros(n),
                      colors=np.tile([0.5, 0.5, 0.5], (n, 1)))


def make_scene(model, seed=0):
    """Posed model hovering just above a large plane; returns (scene, gt)."""
    rng = np.random.default_rng(seed)
    rot = rotation_about_axis(rng.standard_normal(3), rng.uniform(0, np.pi))
    # bottom of the object sits ~5 mm over the plane: fg + discard bands exist
    min_z = (model.cloud.positions @ rot.T)[:, 2].min()
    t = np.array([rng.uniform(-60, 60), rng.uniform(-60, 60), 5.0 - min_z])
    gt = RigidPose(rot, t)
    scene = concatenate_clouds([plane_cloud(), model.cloud.transformed(gt)])
    return scene, gt


@pytest.fixture(scope="module")
def setup():
    model = sphere_model()
    scene, gt = make_scene(model, seed=3)
    labels = label_scene(scene, model, gt)
    return model, scene, gt, labels


# ---------------------------------------------------------------------------
# label_scene


def test_label_exact_overlay_all_foreground():
    model = sphere_model(n=400)
    gt = RigidPose.identity()
    labels = label_scene(model.cloud, model, gt)
    assert np.all(labels > 0)


def test_label_far_scene_all_background():
    model = sphere_model(n=400)
    far = RigidPose(np.eye(3), np.array([10 * model.diameter, 0, 0]))
    labels = label_scene(model.cloud.transformed(far), model, RigidPose.identity())
    assert np.all(labels == 0)


def test_label_counts_match_bruteforce(setup):
    model, scene, gt, labels = setup
    posed = gt.apply(model.cloud.positions)
    # chunked linear-scan distance oracle
    dmin = np.full(len(scene), np.inf)
    for s in range(0, len(scene), 2000):
        block = scene.positions[s:s + 2000]
        d = np.sqrt(((block[:, None, :] - posed[None, :, :]) ** 2).sum(axis=2))
        dmin[s:s + 2000] = d.min(axis=1)
    fg, disc = dmin <= 10.0, (dmin > 10.0) & (dmin <= 20.0)
    assert (labels > 0).sum() == fg.sum()
    assert (labels == -1).sum() == disc.sum()
    assert np.array_equal(labels > 0, fg)


def test_label_foreground_gets_nearest_keypoint(setup):
    model, scene, gt, labels = setup
    kp = gt.apply(model.keypoint_positions())
    fg_ids = np.nonzero(labels > 0)[0]
    sub = fg_ids[:: max(1, len(fg_ids) // 200)]
    for i in sub:
        d = np.linalg.norm(kp - scene.positions[i], axis=1)
        assert labels[i] == np.argmin(d) + 1


# ---------------------------------------------------------------------------
# extract_example


def test_extract_exact_fit_uses_each_point_once(setup):
    model, scene, gt, labels = setup
    rng = np.random.default_rng(0)
    index = NNIndex(scene.positions)
    center = gt.translation
    ids = index.ball(center, 0.6 * model.diameter)
    ids = ids[labels[ids] != -1]
    ex = extract_example(scene, labels, center, model, 1, rng, scene_index=index,
                         spheres=SphereParams(n_points=len(ids)))
    got = np.sort(ex.positions + ex.meta.centroid_mm, axis=0)
    expected = np.sort(scene.positions[ids], axis=0)
    np.testing.assert_allclose(got, expected, atol=2e-4)  # f32 storage


def test_extract_with_replacement_fill():
    rng = np.random.default_rng(1)
    model = sphere_model(n=300)
    pts = np.array([[i * 1.0, 0, 0] for i in range(100)])
    scene = PointCloud(positions=pts, normals=np.tile([0, 0, 1.0], (100, 1)),
                       curvatures=np.zeros(100))
    labels = label_scene(scene, model, RigidPose(np.eye(3), np.array([0, 0, 500.0])))
    ex = extract_example(scene, labels, np.array([5.0, 0, 0]), model, 0, rng)
    assert len(ex) == 2048
    originals = ex.positions.astype(np.float64) + ex.meta.centroid_mm
    d = np.abs(originals[:, None, :] - pts[None, :, :]).sum(axis=2).min(axis=1)
    assert np.all(d < 1e-3)


def test_extract_membership_subset(setup):
    model, scene, gt, labels = setup
    rng = np.random.default_rng(5)
    index = NNIndex(scene.positions)
    ex = extract_example(scene, labels, gt.translation, model, 1, rng, scene_index=index)
    assert len(ex) == 2048
    in_sphere = index.ball(gt.translation, 0.6 * model.diameter)
    allowed = scene.positions[in_sphere[labels[in_sphere] != -1]]
    originals = ex.positions.astype(np.float64) + ex.meta.centroid_mm
    for p in originals[::97]:
        assert np.linalg.norm(allowed - p, axis=1).min() < 1e-3


def test_extract_centered(setup):
    model, scene, gt, labels = setup
    ex = extract_example(scene, labels, gt.translation, model, 1,
                         np.random.default_rng(2))
    centroid = ex.positions.astype(np.float64).mean(axis=0)
    assert np.abs(centroid).max() < 1e-3  # f32 rounding on mm-scale coords


def test_extract_empty_sphere_raises():
    model = sphere_model(n=300)
    scene = plane_cloud(extent=100, step=10)
    labels = label_scene(scene, model, RigidPose(np.eye(3), np.array([0, 0, 2000.0])))
    with pytest.raises(EmptyNeighborhoodError):
        extract_example(scene, labels, np.array([5000.0, 0, 0]), model, 0,
                        np.random.default_rng(0))


@pytest.mark.parametrize("channel", ["normals", "curvatures"])
def test_extract_without_normals_or_curvatures_raises(setup, channel):
    """A training example takes the scene's normals and curvatures; a scene
    without them is completed first (`pipeline.ensure_channels`), not
    filled with zeros."""
    model, scene, gt, labels = setup
    bare = PointCloud(positions=scene.positions,
                      **{c: getattr(scene, c) for c in ("normals", "curvatures") if c != channel})
    with pytest.raises(MissingChannelError, match="normals and curvatures"):
        extract_example(bare, labels, gt.translation, model, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# generate_instance_examples


def test_generate_split_and_invariants(setup):
    model, scene, gt, labels = setup
    rng = np.random.default_rng(11)
    inst = generate_instance_examples(scene, model, gt, rng, labels=labels)
    assert len(inst.examples) == 50
    assert inst.easy_shortfall == 0 and inst.hard_shortfall == 0

    classes = [e.class_label for e in inst.examples]
    assert classes[:20] == [1] * 20 and classes[20:] == [0] * 30

    radius = 0.6 * model.diameter
    fg_pos = scene.positions[labels > 0]
    for e in inst.examples[:20]:
        # positive centers are foreground scene points
        assert np.linalg.norm(fg_pos - e.meta.anchor_mm, axis=1).min() < 1e-9
    for e in inst.examples[20:40]:
        # easy negative: no foreground anywhere in the sphere (brute force)
        assert not np.any(np.linalg.norm(fg_pos - e.meta.anchor_mm, axis=1) <= radius)
        assert not np.any(e.seg_labels)
    centroid = gt.apply(model.cloud.positions).mean(axis=0)
    for e in inst.examples[40:]:
        d = np.linalg.norm(e.meta.anchor_mm - centroid)
        assert 0.6 * model.diameter < d <= 1.2 * model.diameter

    # no discard points in any example
    discard_pos = scene.positions[labels == DISCARD]
    assert len(discard_pos) > 0
    for e in inst.examples[::7]:
        originals = e.positions.astype(np.float64) + e.meta.centroid_mm
        d = np.linalg.norm(discard_pos[:, None, :] - originals[None, ::41, :], axis=2)
        assert d.min() > 1e-6


def test_generate_insufficient_foreground():
    model = sphere_model(n=300)
    scene = plane_cloud(extent=300, step=8)
    gt = RigidPose(np.eye(3), np.array([0, 0, 3000.0]))
    with pytest.raises(InsufficientForegroundError):
        generate_instance_examples(scene, model, gt, np.random.default_rng(0))


def test_generate_object_fills_cloud_reports_shortfall():
    model = sphere_model(n=1200)
    scene = model.cloud  # nothing but the object
    inst = generate_instance_examples(scene, model, RigidPose.identity(),
                                      np.random.default_rng(1))
    assert inst.easy_shortfall == 20
    assert inst.hard_shortfall == 10
    assert len(inst.examples) == 20


def test_generate_deterministic(setup):
    model, scene, gt, labels = setup
    a = generate_instance_examples(scene, model, gt, np.random.default_rng(42), labels=labels)
    b = generate_instance_examples(scene, model, gt, np.random.default_rng(42), labels=labels)
    for ea, eb in zip(a.examples, b.examples):
        assert np.array_equal(ea.positions, eb.positions)
        assert np.array_equal(ea.seg_labels, eb.seg_labels)


# ---------------------------------------------------------------------------
# augment


def test_augment_balanced_class_histogram(setup):
    model, scene, gt, labels = setup
    inst = generate_instance_examples(scene, model, gt, np.random.default_rng(7),
                                      labels=labels)
    out = augment(inst.examples, model, np.random.default_rng(8))
    assert len(out) == 60
    n_pos = sum(e.class_label for e in out)
    assert n_pos == 30 and len(out) - n_pos == 30


def test_augment_literal_recipe(setup):
    model, scene, gt, labels = setup
    inst = generate_instance_examples(scene, model, gt, np.random.default_rng(7),
                                      labels=labels)
    out = augment(inst.examples, model, np.random.default_rng(8),
                  AugmentParams(balanced=False))
    assert len(out) == 60
    assert sum(e.class_label for e in out) == 40


def test_augment_object_only_positives_have_no_background(setup):
    model, scene, gt, labels = setup
    inst = generate_instance_examples(scene, model, gt, np.random.default_rng(7),
                                      labels=labels)
    params = AugmentParams(balanced=True)
    out = augment(inst.examples, model, np.random.default_rng(8), params)
    object_only = out[15:30]  # emission order: swaps, object-only, mixed
    for e in object_only:
        assert e.class_label == 1
        assert np.all(e.seg_labels > 0)


def test_augment_examples_are_2048_and_centered(setup):
    model, scene, gt, labels = setup
    inst = generate_instance_examples(scene, model, gt, np.random.default_rng(7),
                                      labels=labels)
    out = augment(inst.examples, model, np.random.default_rng(8))
    for e in out:
        assert len(e) == 2048
        assert np.abs(e.positions.astype(np.float64).mean(axis=0)).max() < 2e-2


def test_jitter_rms_matches_sigma():
    n = 50_000  # 150k coordinates > 1e5
    rng = np.random.default_rng(3)
    from pointpose.dataset import LabeledExample
    e = LabeledExample(positions=np.zeros((n, 3)), normals=np.tile([0, 0, 1.0], (n, 1)),
                       curvatures=np.full(n, 0.5), seg_labels=np.zeros(n, np.uint16),
                       class_label=0)
    j = jitter_example(e, rng)
    disp = j.positions.astype(np.float64)
    rms = np.sqrt((disp ** 2).mean(axis=0))
    np.testing.assert_allclose(rms, 0.01, rtol=0.1)


def test_full_instance_set_size_and_determinism(setup):
    model, scene, gt, labels = setup
    a = build_instance_training_set(scene, model, gt, np.random.default_rng(5))
    b = build_instance_training_set(scene, model, gt, np.random.default_rng(5))
    assert len(a.examples) == 110
    for ea, eb in zip(a.examples, b.examples):
        assert np.array_equal(ea.positions, eb.positions)
        assert ea.class_label == eb.class_label


# ---------------------------------------------------------------------------
# dataset file


def test_dataset_roundtrip_bit_identical(tmp_path, setup):
    model, scene, gt, labels = setup
    inst = build_instance_training_set(scene, model, gt, np.random.default_rng(9))
    path = tmp_path / "train.bin"
    write_dataset(path, inst.examples, k=model.k, balanced=True, seed=9)
    header, back = read_dataset(path)
    assert header.k == model.k and header.count == 110 and header.has_rgb
    assert len(back) == 110
    for a, b in zip(inst.examples, back):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.normals, b.normals)
        assert np.array_equal(a.curvatures, b.curvatures)
        assert np.array_equal(a.colors, b.colors)
        assert np.array_equal(a.seg_labels, b.seg_labels)
        assert a.class_label == b.class_label


def test_dataset_deterministic_bytes(tmp_path, setup):
    model, scene, gt, labels = setup
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    for path in (pa, pb):
        inst = build_instance_training_set(scene, model, gt, np.random.default_rng(21))
        write_dataset(path, inst.examples, k=model.k, seed=21)
    assert pa.read_bytes() == pb.read_bytes()


def test_dataset_truncation_names_record(tmp_path, setup):
    model, scene, gt, labels = setup
    inst = generate_instance_examples(scene, model, gt, np.random.default_rng(2),
                                      labels=labels)
    path = tmp_path / "t.bin"
    write_dataset(path, inst.examples[:5], k=model.k)
    data = path.read_bytes()
    path.write_bytes(data[:-100])
    with pytest.raises(DatasetFormatError, match="record 4"):
        read_dataset(path)


def test_dataset_streaming_iteration(tmp_path, setup):
    model, scene, gt, labels = setup
    inst = generate_instance_examples(scene, model, gt, np.random.default_rng(2),
                                      labels=labels)
    path = tmp_path / "s.bin"
    write_dataset(path, inst.examples, k=model.k)
    it = iter_dataset(path)
    header = next(it)
    seen = 0
    for e in it:
        assert len(e) == 2048
        seen += 1
    assert seen == header.count == len(inst.examples)


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(DatasetFormatError, match="magic"):
        read_dataset(path)


def test_dataset_of_mixed_colour_layouts_writes_no_file(tmp_path):
    """Every record has the layout of the header: a list of examples with
    and without colours raises before the file is opened."""
    def example(colors):
        n = 4
        return LabeledExample(positions=np.zeros((n, 3)), normals=np.tile([0, 0, 1.0], (n, 1)),
                              curvatures=np.zeros(n), seg_labels=np.zeros(n), class_label=0,
                              colors=colors)

    path = tmp_path / "mixed.bin"
    with pytest.raises(ValueError, match="example 2: inconsistent color layout"):
        write_dataset(path, [example(np.ones((4, 3)))] * 2 + [example(None)], k=1)
    assert not path.exists()


def test_augment_cuts_backgrounds_at_the_sampling_radius(setup):
    """Augmented backgrounds are cut at examples.radius_factor, like the
    originals, not at the module default."""
    model, scene, gt, labels = setup
    factor = 0.4
    sampling = SamplingParams(spheres=SphereParams(radius_factor=factor))
    # small background shifts keep every cut non-empty, so no mixed negative
    # takes the fallback background
    inst = build_instance_training_set(scene, model, gt, np.random.default_rng(5), sampling,
                                       AugmentParams(background_shift_factor=0.1))
    augmented = inst.examples[-60:]  # emission order: swaps, object-only, mixed
    with_background = augmented[:15] + augmented[30:]
    assert sum(e.class_label for e in with_background) == 15
    dist = []
    for e in with_background:
        cut_center = e.meta.anchor_mm - e.meta.centroid_mm
        dist.append(np.linalg.norm(e.positions[e.seg_labels == 0] - cut_center, axis=1))
    dist = np.concatenate(dist)
    assert len(dist) and dist.max() <= factor * model.diameter + 0.1  # + jitter


def test_augment_examples_lie_within_the_radius_of_their_anchor(setup):
    """With the default background shifts some mixed negative finds neither
    shifted background inside its cut sphere; its fallback background is cut
    at the same radius around the anchor it records."""
    model, scene, gt, labels = setup
    factor = 0.4
    sampling = SamplingParams(spheres=SphereParams(radius_factor=factor))
    inst = build_instance_training_set(scene, model, gt, np.random.default_rng(5), sampling)
    for i, e in enumerate(inst.examples[-60:]):
        center = e.meta.anchor_mm - e.meta.centroid_mm
        dist = np.linalg.norm(e.positions - center, axis=1)
        assert dist.max() <= factor * model.diameter + 0.1, i  # + jitter
