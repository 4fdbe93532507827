"""Keypoint sampling, symmetry reduction, diameter, nearest-keypoint labels."""

import numpy as np
import pytest

from pointpose.modelprep import (Keypoint, ObjectModel, SymmetryDescriptor,
                                 build_object_model, load_object_model,
                                 model_diameter, nearest_keypoint_labels,
                                 reduce_symmetric_keypoints, sample_keypoints,
                                 save_object_model)
from pointpose.pointcloud import PointCloud
from pointpose.pose import rotation_about_axis


def planar_patch(size=100.0, step=2.0):
    xs = np.arange(0, size + step / 2, step)
    xx, yy = np.meshgrid(xs, xs)
    pts = np.stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)], axis=1)
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    return PointCloud(positions=pts, normals=normals)


def sphere_cloud(diameter=120.0, n=20000, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PointCloud(positions=dirs * diameter / 2, normals=dirs)


# ---------------------------------------------------------------------------
# sample_keypoints


def test_keypoints_singleton():
    cloud = PointCloud(positions=np.array([[5.0, 5, 5]]), normals=np.array([[0.0, 0, 1]]))
    kps = sample_keypoints(cloud, spacing=25.0)
    assert len(kps) == 1
    np.testing.assert_allclose(kps[0].position, [5, 5, 5])


def test_keypoints_planar_patch_count_and_spacing():
    kps = sample_keypoints(planar_patch(), spacing=25.0)
    assert 16 <= len(kps) <= 25
    pos = np.array([k.position for k in kps])
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
    d[np.diag_indices(len(pos))] = np.inf
    assert d.min() >= 12.5


def test_keypoints_sphere_count_band():
    kps = sample_keypoints(sphere_cloud(), spacing=25.0)
    assert 40 <= len(kps) <= 120


def test_keypoints_snap_to_surface_points():
    cloud = sphere_cloud(n=5000, seed=3)
    kps = sample_keypoints(cloud, spacing=25.0)
    for kp in kps:
        d = np.linalg.norm(cloud.positions - kp.position, axis=1)
        assert d.min() < 1e-12  # exact member of the input cloud


def test_keypoints_require_normals_and_points():
    with pytest.raises(ValueError):
        sample_keypoints(PointCloud(positions=np.zeros((0, 3))), 25.0)
    with pytest.raises(ValueError):
        sample_keypoints(PointCloud(positions=np.ones((4, 3))), 25.0)


# ---------------------------------------------------------------------------
# reduce_symmetric_keypoints


def ring_keypoints(n=12, radius=40.0, z=10.0):
    angles = 2 * np.pi * np.arange(n) / n
    return [Keypoint(position=np.array([radius * np.cos(a), radius * np.sin(a), z]),
                     normal=np.array([np.cos(a), np.sin(a), 0.0])) for a in angles]


def test_reduce_none_is_identity():
    kps = ring_keypoints()
    out = reduce_symmetric_keypoints(kps, SymmetryDescriptor(), tol=12.5)
    assert [tuple(k.position) for k in out] == [tuple(k.position) for k in kps]


def test_reduce_revolution_collapses_ring_to_axis():
    kps = ring_keypoints(z=10.0)
    sym = SymmetryDescriptor(kind="revolution", axis=np.array([0, 0, 1.0]),
                             center=np.zeros(3))
    out = reduce_symmetric_keypoints(kps, sym, tol=12.5)
    assert len(out) == 1
    np.testing.assert_allclose(out[0].position, [0, 0, 10.0], atol=1e-9)


def test_reduce_revolution_axis_points_within_tolerance():
    kps = ring_keypoints(z=5.0) + ring_keypoints(z=30.0) + ring_keypoints(z=55.0)
    sym = SymmetryDescriptor(kind="revolution", axis=np.array([0, 0, 1.0]),
                             center=np.zeros(3))
    out = reduce_symmetric_keypoints(kps, sym, tol=12.5)
    assert len(out) == 3
    for kp in out:
        assert np.hypot(kp.position[0], kp.position[1]) < 1e-6


def test_reduce_cyclic_halves_paired_keypoints():
    rng = np.random.default_rng(4)
    sym = SymmetryDescriptor(kind="cyclic", fold=2, axis=np.array([0, 0, 1.0]),
                             center=np.zeros(3))
    flip = rotation_about_axis(np.array([0, 0, 1.0]), np.pi)
    base = [np.array([30.0, 4.0, 10.0]), np.array([25.0, -18.0, 22.0]),
            np.array([38.0, 12.0, -15.0]), np.array([20.0, 25.0, 3.0])]
    on_axis = [np.array([0.0, 0.0, 40.0])]
    kps = []
    for p in base:
        kps.append(Keypoint(position=p, normal=np.array([1.0, 0, 0])))
        kps.append(Keypoint(position=flip @ p, normal=np.array([-1.0, 0, 0])))
    kps += [Keypoint(position=p, normal=np.array([0, 0, 1.0])) for p in on_axis]
    rng.shuffle(kps)

    out = reduce_symmetric_keypoints(kps, sym, tol=1.0)

    # brute-force orbit oracle: count orbit equivalence classes
    pos = np.array([k.position for k in kps])
    seen = np.zeros(len(pos), bool)
    n_classes = 0
    for i in range(len(pos)):
        if seen[i]:
            continue
        n_classes += 1
        img = flip @ pos[i]
        hits = np.linalg.norm(pos - img, axis=1) <= 1.0
        seen |= hits
        seen[i] = True
    assert len(out) == n_classes == len(base) + len(on_axis)


def test_reduce_is_idempotent():
    sym_rev = SymmetryDescriptor(kind="revolution", axis=np.array([0, 0, 1.0]),
                                 center=np.zeros(3))
    kps = ring_keypoints(z=5.0) + ring_keypoints(n=8, radius=20.0, z=6.0)
    once = reduce_symmetric_keypoints(kps, sym_rev, tol=12.5)
    twice = reduce_symmetric_keypoints(once, sym_rev, tol=12.5)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        np.testing.assert_allclose(a.position, b.position, atol=1e-9)

    sym_cyc = SymmetryDescriptor(kind="cyclic", fold=3, axis=np.array([0, 0, 1.0]),
                                 center=np.zeros(3))
    ring = ring_keypoints(n=9, radius=35.0)
    once_c = reduce_symmetric_keypoints(ring, sym_cyc, tol=2.0)
    twice_c = reduce_symmetric_keypoints(once_c, sym_cyc, tol=2.0)
    assert len(once_c) == len(twice_c) == 3


# ---------------------------------------------------------------------------
# model_diameter


def test_diameter_unit_cube():
    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    assert model_diameter(PointCloud(positions=corners)) == pytest.approx(np.sqrt(3))


def test_diameter_single_point_is_zero():
    assert model_diameter(PointCloud(positions=np.array([[3.0, 2, 1]]))) == 0.0


def test_diameter_matches_linear_scan():
    rng = np.random.default_rng(8)
    pts = rng.normal(0, 40, (5000, 3))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    expected = float(np.linalg.norm(hi - lo))
    assert model_diameter(PointCloud(positions=pts)) == pytest.approx(expected, rel=1e-12)

    with pytest.raises(ValueError):
        model_diameter(PointCloud(positions=np.zeros((0, 3))))


# ---------------------------------------------------------------------------
# nearest_keypoint_labels


def test_labels_self_assignment():
    kps = ring_keypoints(n=6)
    kp_pos = np.array([k.position for k in kps])
    labels = nearest_keypoint_labels(kp_pos, kp_pos)
    assert labels.tolist() == [1, 2, 3, 4, 5, 6]


def test_labels_tie_breaks_low():
    kp_pos = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    assert nearest_keypoint_labels(np.array([[5.0, 0, 0]]), kp_pos)[0] == 1


def test_labels_match_bruteforce():
    rng = np.random.default_rng(10)
    kp_pos = np.array([rng.uniform(-50, 50, 3) for _ in range(20)])
    points = rng.uniform(-60, 60, (500, 3))
    labels = nearest_keypoint_labels(points, kp_pos)
    for p, lab in zip(points, labels):
        d = np.linalg.norm(kp_pos - p, axis=1)
        assert lab == np.argmin(d) + 1


# ---------------------------------------------------------------------------
# ObjectModel I/O


def test_object_model_roundtrip(tmp_path):
    model = build_object_model(sphere_cloud(n=8000, seed=1), spacing=25.0)
    assert model.k >= 40
    save_object_model(tmp_path / "obj", model)
    back = load_object_model(tmp_path / "obj")
    assert back.k == model.k
    assert back.diameter == pytest.approx(model.diameter, rel=1e-6)
    np.testing.assert_allclose(back.keypoint_positions(), model.keypoint_positions(),
                               atol=1e-9)
    assert back.symmetry.kind == "none"


def test_object_model_symmetric_roundtrip(tmp_path):
    for kind, fold in (("cyclic", 4), ("revolution", None)):
        sym = SymmetryDescriptor(kind=kind, fold=fold, axis=np.array([0, 0, 2.0]),
                                 center=np.array([1.0, 2, 3]))
        model = build_object_model(sphere_cloud(n=6000, seed=2), spacing=25.0, symmetry=sym)
        save_object_model(tmp_path / "sym", model)
        back = load_object_model(tmp_path / "sym")
        assert back.symmetry.kind == kind
        assert back.symmetry.fold == fold
        np.testing.assert_allclose(back.symmetry.axis, [0, 0, 1.0])
        np.testing.assert_allclose(back.symmetry.center, [1.0, 2, 3])


def test_object_model_validation():
    cloud = sphere_cloud(n=100)
    with pytest.raises(ValueError):
        ObjectModel(cloud=cloud, keypoints=[], diameter=10.0)
    with pytest.raises(ValueError):
        ObjectModel(cloud=cloud,
                    keypoints=[Keypoint(np.zeros(3), np.array([0, 0, 1.0]))],
                    diameter=0.0)
