"""Tests for voxel downsampling, normals, NN index, Kabsch, ICP, geodesic."""

import numpy as np
import pytest

from pointpose.errors import (DegenerateCorrespondencesError, EmptyIndexError,
                              NoOverlapError)
from pointpose.geometry import (NNIndex, estimate_normals, icp_refine,
                                kabsch_align, voxel_downsample)
from pointpose.pointcloud import PointCloud
from pointpose.pose import (RigidPose, random_rotation, rotation_about_axis,
                            rotation_geodesic)


def make_cloud(positions, **kw):
    return PointCloud(positions=np.asarray(positions, dtype=float), **kw)


# ---------------------------------------------------------------------------
# voxel_downsample


def test_voxel_empty_cloud():
    out = voxel_downsample(make_cloud(np.zeros((0, 3))), 25.0)
    assert len(out) == 0


def test_voxel_rejects_nonpositive_leaf():
    with pytest.raises(ValueError):
        voxel_downsample(make_cloud([[0, 0, 0]]), 0.0)
    with pytest.raises(ValueError):
        voxel_downsample(make_cloud([[0, 0, 0]]), -3.0)


def test_voxel_single_cell_centroid():
    # 8 corners of a 10 mm cube fit inside one 25 mm voxel
    corners = np.array([[x, y, z] for x in (1, 11) for y in (1, 11) for z in (1, 11)], float)
    out = voxel_downsample(make_cloud(corners), 25.0)
    assert len(out) == 1
    np.testing.assert_allclose(out.positions[0], [6, 6, 6])


def test_voxel_matches_bruteforce_hash():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 200, size=(10_000, 3))
    leaf = 25.0
    out = voxel_downsample(make_cloud(pts), leaf)

    # brute-force voxel hash oracle
    groups = {}
    for p in pts:
        key = tuple(np.floor(p / leaf).astype(int))
        groups.setdefault(key, []).append(p)
    expected = {k: np.mean(v, axis=0) for k, v in groups.items()}

    assert len(out) == len(expected)
    out_keys = [tuple(np.floor(p / leaf).astype(int)) for p in out.positions]
    assert len(set(out_keys)) == len(out_keys)  # one point per voxel
    for key, pos in zip(out_keys, out.positions):
        np.testing.assert_allclose(pos, expected[key], atol=1e-9)


def test_voxel_output_inside_voxel_aabb():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-100, 100, size=(5000, 3))
    leaf = 17.0
    out = voxel_downsample(make_cloud(pts), leaf)
    assert len(out) <= len(pts)
    lo = np.floor(out.positions / leaf) * leaf
    assert np.all(out.positions >= lo - 1e-9)
    assert np.all(out.positions < lo + leaf + 1e-9)


def test_voxel_boundary_goes_to_higher_voxel():
    out = voxel_downsample(make_cloud([[25.0, 0.1, 0.1], [26.0, 0.1, 0.1]]), 25.0)
    assert len(out) == 1  # both in voxel index 1 along x


def test_voxel_averages_channels_and_renormalizes():
    cloud = make_cloud([[1, 1, 1], [2, 2, 2]],
                       normals=[[1, 0, 0], [0, 1, 0]],
                       curvatures=[0.2, 0.4],
                       colors=[[1, 0, 0], [0, 0, 1]])
    out = voxel_downsample(cloud, 25.0)
    assert len(out) == 1
    np.testing.assert_allclose(np.linalg.norm(out.normals[0]), 1.0)
    np.testing.assert_allclose(out.normals[0], [np.sqrt(0.5), np.sqrt(0.5), 0])
    np.testing.assert_allclose(out.curvatures[0], 0.3)
    np.testing.assert_allclose(out.colors[0], [0.5, 0, 0.5])


# ---------------------------------------------------------------------------
# estimate_normals


def test_normals_plane():
    rng = np.random.default_rng(11)
    pts = np.zeros((400, 3))
    pts[:, :2] = rng.uniform(-50, 50, size=(400, 2))
    out = estimate_normals(make_cloud(pts), radius=10.0, viewpoint=np.array([0, 0, 1000.0]))
    np.testing.assert_allclose(out.normals, np.tile([0, 0, 1.0], (400, 1)), atol=1e-9)
    assert np.all(out.curvatures < 1e-6)


def test_normals_sphere_radial():
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((3000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = 50.0 * dirs
    out = estimate_normals(make_cloud(pts), radius=10.0, viewpoint=np.array([0, 0, 500.0]))
    # compare against analytic outward radial normals (sign per hemisphere)
    cos = np.abs(np.einsum("ij,ij->i", out.normals, dirs))
    angles = np.degrees(np.arccos(np.clip(cos, -1, 1)))
    assert np.percentile(angles, 99) < 5.0


def test_normals_isolated_point():
    out = estimate_normals(make_cloud([[10.0, 0, 0]]), radius=5.0, viewpoint=np.array([0, 0, 0.0]))
    np.testing.assert_allclose(out.normals[0], [-1, 0, 0], atol=1e-12)
    assert out.curvatures[0] == 0.0


# ---------------------------------------------------------------------------
# NNIndex


def test_nearest_345():
    idx = NNIndex(np.array([[0.0, 0, 0]]))
    i, d = idx.nearest(np.array([3.0, 4.0, 0.0]))
    assert i == 0
    assert d == pytest.approx(5.0, abs=1e-12)


def test_nearest_identity_query():
    pts = np.random.default_rng(0).uniform(0, 10, (50, 3))
    idx = NNIndex(pts)
    i, d = idx.nearest(pts[17])
    assert i == 17
    assert d == 0.0


def test_nearest_matches_linear_scan():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-100, 100, size=(1000, 3))
    idx = NNIndex(pts)
    queries = rng.uniform(-120, 120, size=(100, 3))
    ids, dists = idx.nearest_batch(queries)
    for q, i, d in zip(queries, ids, dists):
        scan = np.linalg.norm(pts - q, axis=1)
        j = int(np.argmin(scan))
        assert i == j
        assert d == pytest.approx(scan[j], rel=1e-12)


@pytest.mark.parametrize("n_points", [1, 500])
def test_nearest_within_max_dist_keeps_near_rows(n_points):
    rng = np.random.default_rng(43)
    # integer coordinates: equal distances (ties) and rows at exactly max_dist
    points = rng.integers(-50, 50, size=(n_points, 3)).astype(float)
    queries = rng.integers(-80, 80, size=(400, 3)).astype(float)
    ids, dists = NNIndex(points).nearest_batch(queries)
    max_dist = float(np.sort(dists)[len(dists) // 2])
    near_ids, near_d = NNIndex(points, max_dist=max_dist).nearest_batch(queries)
    near = dists <= max_dist
    assert (dists == max_dist).any() and not near.all()
    np.testing.assert_array_equal(near_ids[near], ids[near])
    np.testing.assert_array_equal(near_d[near], dists[near])
    assert np.isinf(near_d[~near]).all() and (near_ids[~near] == n_points).all()


def test_nearest_tie_breaks_to_lowest_index():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
    idx = NNIndex(pts)
    i, d = idx.nearest(np.zeros(3))
    assert i == 0
    assert d == pytest.approx(1.0)
    # exact duplicates
    idx2 = NNIndex(np.array([[2.0, 2, 2], [2.0, 2, 2], [9, 9, 9.0]]))
    i2, _ = idx2.nearest(np.array([2.0, 2, 2.1]))
    assert i2 == 0


def test_nearest_empty_index_raises():
    idx = NNIndex(np.zeros((0, 3)))
    with pytest.raises(EmptyIndexError):
        idx.nearest(np.zeros(3))


# ---------------------------------------------------------------------------
# kabsch_align


def test_kabsch_identity():
    src = np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10.0]])
    pose = kabsch_align(src, src)
    np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(pose.translation, 0, atol=1e-12)
    assert np.linalg.norm(pose.apply(src) - src) < 1e-9


def test_kabsch_constructed_transform():
    src = np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10.0]])
    rot = rotation_about_axis(np.array([0, 0, 1.0]), np.pi / 2)
    dst = src @ rot.T + np.array([10.0, 0, 0])
    pose = kabsch_align(src, dst)
    np.testing.assert_allclose(pose.rotation, rot, atol=1e-9)
    np.testing.assert_allclose(pose.translation, [10, 0, 0], atol=1e-9)


def test_kabsch_exact_recovery_random():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        rot = random_rotation(rng)
        t = rng.uniform(-500, 500, 3)
        pts = rng.uniform(-100, 100, (8, 3))
        pose = kabsch_align(pts, pts @ rot.T + t)
        assert np.abs(pose.rotation - rot).max() < 1e-9
        assert np.abs(pose.translation - t).max() < 1e-9


def test_kabsch_noisy_beats_random_perturbations():
    rng = np.random.default_rng(99)
    rot = random_rotation(rng)
    t = rng.uniform(-100, 100, 3)
    src = rng.uniform(-80, 80, (100, 3))
    dst = src @ rot.T + t + rng.normal(0, 1.0, (100, 3))
    pose = kabsch_align(src, dst)
    best = np.sum((pose.apply(src) - dst) ** 2)
    for _ in range(1000):
        d_rot = rotation_about_axis(rng.standard_normal(3), rng.normal(0, 0.05))
        cand_rot = d_rot @ rot
        cand_t = t + rng.normal(0, 1.0, 3)
        resid = np.sum((src @ cand_rot.T + cand_t - dst) ** 2)
        assert best <= resid + 1e-9


def test_kabsch_degenerate_inputs():
    with pytest.raises(DegenerateCorrespondencesError):
        kabsch_align(np.zeros((2, 3)), np.zeros((2, 3)))
    line = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
    with pytest.raises(DegenerateCorrespondencesError):
        kabsch_align(line, line + 1.0)


# ---------------------------------------------------------------------------
# icp_refine


def _synthetic_pair(rng, n=1500):
    """Model point set and a scene that is an exact rigid copy of it."""
    model = rng.uniform(-40, 40, (n, 3))
    rot = random_rotation(rng)
    t = rng.uniform(-200, 200, 3)
    gt = RigidPose(rot, t)
    scene = gt.apply(model)
    return model, scene, gt


def test_icp_fixed_point_at_ground_truth():
    rng = np.random.default_rng(2)
    model, scene, gt = _synthetic_pair(rng)
    pose = icp_refine(model, NNIndex(scene), gt, [(50.0, 30), (25.0, 30), (10.0, 30)])
    assert np.abs(pose.rotation - gt.rotation).max() < 1e-6
    assert np.abs(pose.translation - gt.translation).max() < 1e-6


def test_icp_converges_from_perturbed_init():
    rng = np.random.default_rng(4)
    model, scene, gt = _synthetic_pair(rng)
    nudge = rotation_about_axis(rng.standard_normal(3), np.radians(5.0))
    init = RigidPose(nudge @ gt.rotation, gt.translation + np.array([6.0, -6.0, 5.0]))
    pose = icp_refine(model, NNIndex(scene), init, [(50.0, 30), (25.0, 30), (10.0, 30)])
    add = np.mean(np.linalg.norm(pose.apply(model) - gt.apply(model), axis=1))
    assert add < 0.5


def test_icp_rms_non_increasing_per_level():
    rng = np.random.default_rng(8)
    model, scene, gt = _synthetic_pair(rng)
    scene = scene + rng.normal(0, 1.0, scene.shape)
    nudge = rotation_about_axis(rng.standard_normal(3), np.radians(6.0))
    init = RigidPose(nudge @ gt.rotation, gt.translation + np.array([8.0, 0.0, -7.0]))
    history = []
    icp_refine(model, NNIndex(scene), init, [(50.0, 30), (25.0, 30), (10.0, 30)],
               history_out=history)
    assert len(history) == 3
    for level in history:
        diffs = np.diff(level)
        assert np.all(diffs <= 1e-12)


def test_icp_no_overlap():
    rng = np.random.default_rng(6)
    model, scene, gt = _synthetic_pair(rng, n=400)
    diameter = np.linalg.norm(model.max(axis=0) - model.min(axis=0))
    init = RigidPose(gt.rotation, gt.translation + np.array([10 * diameter, 0, 0]))
    with pytest.raises(NoOverlapError):
        icp_refine(model, NNIndex(scene), init, [(50.0, 30), (25.0, 30), (10.0, 30)])


def test_icp_validates_schedule():
    with pytest.raises(ValueError):
        icp_refine(np.zeros((4, 3)), NNIndex(np.ones((4, 3))), RigidPose.identity(), [])
    with pytest.raises(ValueError):
        icp_refine(np.zeros((4, 3)), NNIndex(np.ones((4, 3))), RigidPose.identity(),
                   [(10.0, 5), (20.0, 5)])


# ---------------------------------------------------------------------------
# rotation_geodesic


def test_geodesic_identity_and_quarter_turn():
    r = random_rotation(np.random.default_rng(1))
    assert rotation_geodesic(r, r) == pytest.approx(0.0, abs=1e-9)
    axis = np.array([0.3, -0.5, 0.8])
    quarter = rotation_about_axis(axis, np.pi / 2) @ r
    assert rotation_geodesic(r, quarter) == pytest.approx(np.pi / 2, abs=1e-9)


def test_geodesic_matches_quaternion_oracle():
    def quat_angle(a, b):
        # angle from the scalar part of the relative quaternion
        m = a.T @ b
        w = np.sqrt(max(0.0, 1.0 + np.trace(m))) / 2.0
        return 2.0 * np.arccos(np.clip(w, -1.0, 1.0))

    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = random_rotation(rng), random_rotation(rng)
        assert rotation_geodesic(a, b) == pytest.approx(quat_angle(a, b), abs=1e-9)


def test_geodesic_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b, c = (random_rotation(rng) for _ in range(3))
        ab, ba = rotation_geodesic(a, b), rotation_geodesic(b, a)
        assert ab == pytest.approx(ba, abs=1e-9)
        assert rotation_geodesic(a, c) <= ab + rotation_geodesic(b, c) + 1e-9
