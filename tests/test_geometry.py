"""Tests for voxel downsampling, normals, NN index, Kabsch, ICP, geodesic."""

import numpy as np
import pytest

from pointpose.errors import (DegenerateCorrespondencesError, EmptyIndexError,
                              NoOverlapError)
from pointpose.geometry import (NNIndex, _TrackedNearest, estimate_normals, icp_refine,
                                kabsch_align, voxel_downsample)
from pointpose.pointcloud import PointCloud
from pointpose.pose import (RigidPose, random_rotation, rotation_about_axis,
                            rotation_geodesic)
from pointpose.synth import SynthParams, make_test_object, synth_scene


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


def test_voxel_cancelled_normals_take_the_first_member():
    # point 0 opens the highest-keyed voxel; points 1 and 2 the lowest
    cloud = make_cloud([[130, 130, 130], [1, 1, 1], [2, 2, 2], [131, 131, 131],
                        [60, 60, 60]],
                       normals=[[0, 0, 1], [1, 0, 0], [-1, 0, 0], [0, 0, -1], [0, 1, 0]])
    out = voxel_downsample(cloud, 25.0)
    np.testing.assert_allclose(out.positions, [[1.5, 1.5, 1.5], [60, 60, 60],
                                               [130.5, 130.5, 130.5]])
    np.testing.assert_array_equal(out.normals, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


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
    (i,), (d,) = idx.nearest_batch(np.array([3.0, 4.0, 0.0]))
    assert i == 0
    assert d == pytest.approx(5.0, abs=1e-12)


def test_nearest_identity_query():
    pts = np.random.default_rng(0).uniform(0, 10, (50, 3))
    idx = NNIndex(pts)
    (i,), (d,) = idx.nearest_batch(pts[17])
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
    (i,), (d,) = idx.nearest_batch(np.zeros(3))
    assert i == 0
    assert d == pytest.approx(1.0)
    # exact duplicates
    idx2 = NNIndex(np.array([[2.0, 2, 2], [2.0, 2, 2], [9, 9, 9.0]]))
    (i2,), _ = idx2.nearest_batch(np.array([2.0, 2, 2.1]))
    assert i2 == 0


def test_nearest_empty_index_raises():
    idx = NNIndex(np.zeros((0, 3)))
    with pytest.raises(EmptyIndexError):
        idx.nearest_batch(np.zeros(3))


def _brute_second(points, queries):
    d = np.linalg.norm(points[None, :, :] - queries[:, None, :], axis=2)
    return np.sort(d, axis=1)[:, 1]


def test_nearest_second_matches_brute_force():
    rng = np.random.default_rng(44)
    points = rng.uniform(-100, 100, (800, 3))
    queries = rng.uniform(-120, 120, (300, 3))
    result = NNIndex(points).nearest_batch(queries)
    np.testing.assert_array_equal(result.second, _brute_second(points, queries))
    ids, dists = result
    assert (result.second > dists).all()


def test_nearest_second_of_ties_equals_distance():
    points = np.array([[2.0, 2, 2], [2.0, 2, 2], [9, 9, 9.0]])
    result = NNIndex(points).nearest_batch(np.array([[2.0, 2, 2.1], [8, 8, 8.0]]))
    assert result.second[0] == result[1][0]
    assert result.second[1] > result[1][1]


def test_nearest_second_one_point_index_is_inf():
    queries = np.random.default_rng(45).uniform(-10, 10, (20, 3))
    for max_dist in (np.inf, 5.0):
        assert np.isinf(NNIndex(np.zeros((1, 3)), max_dist=max_dist)
                        .nearest_batch(queries).second).all()


def test_nearest_second_capped_at_search_bound():
    rng = np.random.default_rng(46)
    points = rng.uniform(-100, 100, (300, 3))
    queries = rng.uniform(-120, 120, (400, 3))
    max_dist = 12.0
    second = NNIndex(points, max_dist=max_dist).nearest_batch(queries).second
    brute = _brute_second(points, queries)
    within = brute <= max_dist
    assert within.any() and not within.all()
    np.testing.assert_array_equal(second[within], brute[within])
    # beyond the bound `second` is the bound itself: finite, and no farther
    assert np.isfinite(second).all()
    assert (second[~within] >= max_dist).all()
    assert (second[~within] <= max_dist * (1 + 1e-6)).all()


@pytest.mark.parametrize("n_points", [1, 50])
def test_nearest_empty_queries(n_points):
    points = np.random.default_rng(47).uniform(-10, 10, (n_points, 3))
    result = NNIndex(points).nearest_batch(np.zeros((0, 3)))
    ids, dists = result
    assert ids.shape == dists.shape == result.second.shape == (0,)
    assert ids.dtype == np.int64


def test_certified_distance_formula_matches_kd_bits():
    """Rows whose nearest point is reused take their distance from this formula."""
    rng = np.random.default_rng(48)
    points = rng.uniform(-300, 300, (5000, 3))
    index = NNIndex(points)
    for scale in (1.0, 0.01):
        queries = rng.uniform(-320, 320, (2000, 3)) * scale
        ids, dists = index.nearest_batch(queries)
        np.testing.assert_array_equal(np.linalg.norm(points[ids] - queries, axis=1), dists)
    near = points[rng.integers(0, len(points), 2000)] + rng.normal(0, 1e-3, (2000, 3))
    ids, dists = index.nearest_batch(near)
    np.testing.assert_array_equal(np.linalg.norm(points[ids] - near, axis=1), dists)


@pytest.mark.parametrize("max_dist", [np.inf, 4.0])
@pytest.mark.parametrize("duplicated", [False, True])
def test_tracked_nearest_equals_full_query_along_a_walk(max_dist, duplicated):
    """Points drifting over a sparse set: the certified rows match a full query."""
    rng = np.random.default_rng(49)
    points = rng.uniform(-40, 40, (200, 3))
    if duplicated:
        points = np.vstack([points, points[:100]])
    index = NNIndex(points, max_dist=max_dist)
    tracked = _TrackedNearest(index, 300)
    walkers = rng.uniform(-45, 45, (300, 3))
    reused = 0
    for step in range(60):
        calls = []
        index.nearest_batch = lambda q: calls.append(len(q)) or NNIndex.nearest_batch(index, q)
        ids, dists = tracked.nearest(walkers)
        del index.nearest_batch
        want_ids, want_dists = index.nearest_batch(walkers)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)
        assert len(calls) == 1
        reused += len(walkers) - calls[0]
        walkers = walkers + rng.normal(0, 0.6, walkers.shape)
    assert reused > 0


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


def _icp_always_query(model_points, scene, init, schedule, history_out):
    """icp_refine as it was before nearest points were reused: every
    iteration queries every model point."""
    pose = init
    found_pairs = False
    for gate, max_iters in schedule:
        prev_rms = None
        level_hist = []
        for _ in range(max_iters):
            transformed = pose.apply(model_points)
            ids, dists = scene.nearest_batch(transformed)
            keep = dists <= gate
            if keep.sum() < 3:
                break
            found_pairs = True
            src = model_points[keep]
            dst = scene.positions[ids[keep]]
            try:
                new_pose = kabsch_align(src, dst)
            except DegenerateCorrespondencesError:
                break
            residual = new_pose.apply(src) - dst
            rms = float(np.sqrt(np.mean(np.sum(residual * residual, axis=1))))
            if prev_rms is not None and rms > prev_rms:
                break
            pose = new_pose
            level_hist.append(rms)
            if prev_rms is not None and abs(prev_rms - rms) < 1e-6:
                break
            prev_rms = rms
        history_out.append(level_hist)
    if not found_pairs:
        raise NoOverlapError("no schedule level found 3 gated correspondences")
    return pose


def _nudged(pose, rng, degrees, mm):
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    turn = rotation_about_axis(rng.standard_normal(3), np.radians(degrees))
    return RigidPose(turn @ pose.rotation, pose.translation + mm * direction)


@pytest.fixture(scope="module")
def scene_anchor():
    """(model points, scene index, ground truth) of one synthetic scene: the
    5 mm voxel subset of the test object that faces the camera, as
    pipeline ICP pairs it."""
    model = make_test_object()
    scene = synth_scene(model, np.random.default_rng(5),
                        SynthParams(noise_sigma_mm=0.5, occluder_probability=0.3))
    cloud, gt = model.cloud, scene.gt_pose
    ids, _ = NNIndex(cloud.positions).nearest_batch(voxel_downsample(cloud, 5.0).positions)
    ids = np.unique(ids)
    to_camera = scene.cloud.view_origin - gt.apply(cloud.positions[ids])
    facing = np.einsum("ij,ij->i", cloud.normals[ids] @ gt.rotation.T, to_camera) > 0
    return cloud.positions[ids][facing], NNIndex(scene.cloud.positions), gt


def oracle_like_anchor(scene_anchor):
    """A voted pose as oracle segmentation gives it: ~2 degrees, ~0.7 mm off."""
    points, index, gt = scene_anchor
    return points, index, _nudged(gt, np.random.default_rng(7), 2.0, 0.7)


def noise_like_anchor(scene_anchor):
    """A voted pose as untrained detect gives it: 30 degrees, 45 mm off."""
    points, index, gt = scene_anchor
    return points, index, _nudged(gt, np.random.default_rng(7), 30.0, 45.0)


def _icp_case(name, scene_anchor):
    rng = np.random.default_rng(31)
    if name in ("oracle_like", "noise_like_caps"):
        make = oracle_like_anchor if name == "oracle_like" else noise_like_anchor
        return make(scene_anchor)
    model, scene, gt = _synthetic_pair(rng, n=600)
    if name == "clean":
        return model, NNIndex(scene), gt
    if name == "perturbed":
        return model, NNIndex(scene), _nudged(gt, rng, 6.0, 8.0)
    if name == "duplicated_points":
        return model, NNIndex(np.vstack([scene, scene])), _nudged(gt, rng, 4.0, 5.0)
    if name == "one_point":
        return model, NNIndex(scene[:1]), _nudged(gt, rng, 4.0, 5.0)
    if name == "finite_max_dist":
        # a sparse scene: many model points have no second scene point in reach
        model, scene, gt = _synthetic_pair(rng, n=300)
        return model, NNIndex(scene, max_dist=4.0), _nudged(gt, rng, 3.0, 2.0)
    raise ValueError(name)


ICP_CASES = ["clean", "perturbed", "oracle_like", "noise_like_caps", "duplicated_points",
             "one_point", "finite_max_dist"]


@pytest.mark.parametrize("case", ICP_CASES)
def test_icp_reuse_matches_always_query_loop(case, scene_anchor):
    model, index, init = _icp_case(case, scene_anchor)
    schedule = [(50.0, 30), (25.0, 30), (10.0, 30)]
    want_hist, got_hist = [], []
    want = _icp_always_query(model, index, init, schedule, want_hist)
    got = icp_refine(model, index, init, schedule, history_out=got_hist)
    np.testing.assert_array_equal(got.rotation, want.rotation)
    np.testing.assert_array_equal(got.translation, want.translation)
    assert got_hist == want_hist
    if case == "noise_like_caps":
        assert any(len(level) == 30 for level in got_hist)
    if case == "finite_max_dist":
        _, dists = index.nearest_batch(init.apply(model))
        assert np.isinf(dists).any()


def _count_queries(index):
    """Record the row count of every nearest_batch call on `index`."""
    calls = []
    original = index.nearest_batch

    def counted(queries):
        calls.append(len(queries))
        return original(queries)

    index.nearest_batch = counted
    return calls


def _loop_passes(history, schedule):
    """Iterations icp_refine ran: the recorded ones, plus one per level that
    ended on a rejected update, too few pairs or a degenerate fit."""
    passes = 0
    for level, (_, max_iters) in zip(history, schedule):
        converged = len(level) >= 2 and abs(level[-1] - level[-2]) < 1e-6
        passes += len(level) + (0 if converged or len(level) == max_iters else 1)
    return passes


@pytest.mark.parametrize("case", ICP_CASES)
def test_icp_queries_once_per_iteration(case, scene_anchor):
    model, index, init = _icp_case(case, scene_anchor)
    schedule = [(50.0, 30), (25.0, 30), (10.0, 30)]
    calls = _count_queries(index)
    history = []
    icp_refine(model, index, init, schedule, history_out=history)
    del index.nearest_batch
    assert len(calls) == _loop_passes(history, schedule)


def test_icp_queries_few_rows_on_oracle_like_anchor(scene_anchor):
    model, index, init = oracle_like_anchor(scene_anchor)
    calls = _count_queries(index)
    icp_refine(model, index, init, [(50.0, 30), (25.0, 30), (10.0, 30)])
    del index.nearest_batch
    # every call would query every model point without the certificate
    assert sum(calls) <= 0.4 * len(calls) * len(model)


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


# ---------------------------------------------------------------------------
# kernel micro-benchmarks: pytest -m perf


@pytest.mark.perf
@pytest.mark.parametrize("make_anchor", [oracle_like_anchor, noise_like_anchor])
def test_icp_refine_speed(benchmark, scene_anchor, make_anchor):
    model, index, init = make_anchor(scene_anchor)
    pose = benchmark(icp_refine, model, index, init, [(50.0, 30), (25.0, 30), (10.0, 30)])
    assert np.isfinite(pose.translation).all()
