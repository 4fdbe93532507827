"""Correspondence extraction, pose voting, density peak, pose estimation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from pointpose import voting
from pointpose.dataset import label_scene
from pointpose.errors import NoHypothesisError
from pointpose.modelprep import Keypoint, ObjectModel
from pointpose.pointcloud import PointCloud
from pointpose.pose import (RigidPose, random_rotation, rotation_about_axis,
                            rotation_geodesic)
from pointpose.synth import SynthParams, make_test_object, synth_scene
from pointpose.voting import (_BOX_CELLS, _LEAFSIZE, _SLACK, Correspondences, VoteSet,
                              VotingParams, _box_bound, _hemisphere_rows, _peak_search,
                              _rotation_bound,
                              correspondences_from_segmentation, density_peak,
                              estimate_pose, pose_votes, quat_to_matrix, segment_labels)


def make_model(n_kp=50, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cloud = PointCloud(positions=dirs * 45.0, normals=dirs)
    kp_dirs = rng.standard_normal((n_kp, 3))
    kp_dirs /= np.linalg.norm(kp_dirs, axis=1, keepdims=True)
    kps = [Keypoint(position=d * 45.0, normal=d.copy()) for d in kp_dirs]
    return ObjectModel(cloud=cloud, keypoints=kps, diameter=90.0 * np.sqrt(3))


def exact_correspondences(model, pose, repeat=1):
    kp = np.tile(model.keypoint_positions(), (repeat, 1))
    kn = np.tile(model.keypoint_normals(), (repeat, 1))
    ids = np.tile(np.arange(1, model.k + 1, dtype=np.int32), repeat)
    return Correspondences(
        scene_positions=pose.apply(kp),
        scene_normals=kn @ pose.rotation.T,
        keypoint_ids=ids,
        keypoint_positions=kp,
        keypoint_normals=kn,
        confidences=np.ones(len(ids)),
    )


def random_pose(rng):
    return RigidPose(random_rotation(rng), rng.uniform(-300, 300, 3))


# ---------------------------------------------------------------------------
# correspondences_from_segmentation


def test_correspondences_all_background_empty():
    model = make_model(n_kp=10)
    probs = np.zeros((64, 11))
    probs[:, 0] = 1.0
    corr = correspondences_from_segmentation(np.zeros((64, 3)), np.tile([0, 0, 1.0], (64, 1)),
                                             *segment_labels(probs), model)
    assert len(corr) == 0


def test_correspondences_match_oracle_labels():
    rng = np.random.default_rng(1)
    model = make_model(n_kp=10)
    labels = rng.integers(0, 11, 256)
    probs = np.zeros((256, 11))
    probs[np.arange(256), labels] = 1.0
    pts = rng.uniform(-50, 50, (256, 3))
    nrm = rng.standard_normal((256, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    corr = correspondences_from_segmentation(pts, nrm, *segment_labels(probs), model)
    assert len(corr) == (labels > 0).sum()
    np.testing.assert_array_equal(corr.keypoint_ids, labels[labels > 0])
    np.testing.assert_allclose(corr.keypoint_positions,
                               model.keypoint_positions()[labels[labels > 0] - 1])


def test_correspondences_min_confidence_extreme():
    model = make_model(n_kp=5)
    probs = np.full((32, 6), 1.0 / 6)  # soft: max prob < 1
    corr = correspondences_from_segmentation(np.zeros((32, 3)), np.tile([0, 0, 1.0], (32, 1)),
                                             *segment_labels(probs), model, min_confidence=1.0)
    assert len(corr) == 0


def test_segment_labels_are_the_argmax_and_its_probability():
    probs = np.array([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.1, 0.1, 0.8]])
    labels, conf = segment_labels(probs)
    np.testing.assert_array_equal(labels, [1, 0, 2])   # a tie takes the lower label
    np.testing.assert_array_equal(conf, [0.5, 0.4, 0.8])


@pytest.mark.parametrize("label", [-1, 6])
def test_correspondences_reject_labels_out_of_range(label):
    model = make_model(n_kp=5)
    labels = np.zeros(8, dtype=int)
    labels[3] = label
    with pytest.raises(ValueError, match="labels must lie in 0..5"):
        correspondences_from_segmentation(np.zeros((8, 3)), np.tile([0, 0, 1.0], (8, 1)),
                                          labels, np.ones(8), model)


# ---------------------------------------------------------------------------
# pose_votes


def test_votes_count_and_constraints():
    model = make_model(n_kp=1)
    pose = random_pose(np.random.default_rng(2))
    corr = exact_correspondences(model, pose)
    votes = pose_votes(corr, n_theta=36)
    assert len(votes) == 36
    for r, t in zip(quat_to_matrix(votes.quats), votes.translations):
        mapped = r @ corr.keypoint_positions[0] + t
        assert np.linalg.norm(mapped - corr.scene_positions[0]) < 1e-9
        n_mapped = r @ corr.keypoint_normals[0]
        assert np.arccos(np.clip(n_mapped @ corr.scene_normals[0], -1, 1)) < 1e-6


def test_votes_identity_family_contains_identity():
    model = make_model(n_kp=30)
    corr = exact_correspondences(model, RigidPose.identity())
    votes = pose_votes(corr, n_theta=36)
    eye = np.eye(3)
    for ci in range(len(corr)):
        sel = votes.source == ci
        geos = [rotation_geodesic(r, eye) for r in quat_to_matrix(votes.quats[sel])]
        assert min(geos) <= 2 * np.pi / 36 + 1e-9


def test_votes_family_contains_true_pose():
    rng = np.random.default_rng(3)
    model = make_model(n_kp=40)
    pose = random_pose(rng)
    corr = exact_correspondences(model, pose)
    n_theta = 720
    votes = pose_votes(corr, n_theta=n_theta)
    hits = 0
    for ci in range(len(corr)):
        sel = np.nonzero(votes.source == ci)[0]
        rot_ok = np.array([rotation_geodesic(r, pose.rotation)
                           for r in quat_to_matrix(votes.quats[sel])])
        t_ok = np.linalg.norm(votes.translations[sel] - pose.translation, axis=1)
        if np.any((rot_ok <= 2 * np.pi / n_theta) & (t_ok <= 1.0)):
            hits += 1
    assert hits >= 0.9 * len(corr)


def test_votes_antiparallel_normals_are_exact():
    kp = np.array([[10.0, 0, 0]])
    kn = np.array([[0.0, 0, 1.0]])
    for sn in ([0.0, 0, -1.0], [1.0, 0, 0], [-1.0, 0, 0]):
        scene_n = np.array([sn])
        corr = Correspondences(np.array([[50.0, 20, 5]]), scene_n,
                               np.array([1], np.int32), kp, kn, np.ones(1))
        votes = pose_votes(corr, n_theta=8)
        for r, t in zip(quat_to_matrix(votes.quats), votes.translations):
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert np.linalg.norm((r @ kp[0] + t) - [50, 20, 5]) < 1e-9
            assert np.linalg.norm(r @ kn[0] - scene_n[0]) < 1e-9


def matrix_votes(corr, n_theta):
    """Vote rotations built as matrices: the minimal rotation taking each
    keypoint normal onto its scene normal (a half-turn about scene normal
    x x_hat, or x y_hat, when they are opposite), then a spin about the
    scene normal."""
    rots = []
    for kn, sn in zip(corr.keypoint_normals, corr.scene_normals):
        cross = np.cross(kn, sn)
        sin, cos = np.linalg.norm(cross), kn @ sn
        if sin > 1e-12:
            base = rotation_about_axis(cross, np.arctan2(sin, cos))
        elif cos < 0:
            alt = np.cross(sn, [1.0, 0, 0])
            if np.linalg.norm(alt) < 1e-9:
                alt = np.cross(sn, [0, 1.0, 0])
            base = rotation_about_axis(alt, np.pi)
        else:
            base = np.eye(3)
        rots += [rotation_about_axis(sn, 2 * np.pi * t / n_theta) @ base
                 for t in range(n_theta)]
    return np.array(rots)


def test_vote_quaternions_match_matrix_construction():
    rng = np.random.default_rng(14)
    m = 40
    kn = unit_rows(rng, m)
    sn = unit_rows(rng, m)
    sn[:4] = -kn[:4]                        # anti-parallel
    sn[4:6] = kn[4:6]                       # parallel
    kn[6], sn[6] = [1.0, 0, 0], [-1.0, 0, 0]  # anti-parallel along x: y fallback
    corr = Correspondences(rng.uniform(-60, 60, (m, 3)), sn, np.ones(m, np.int32),
                           rng.uniform(-45, 45, (m, 3)), kn, np.ones(m))
    votes = pose_votes(corr, n_theta=36)
    rots = matrix_votes(corr, 36)
    want = Rotation.from_matrix(rots).as_quat()
    err = np.minimum(np.abs(votes.quats - want).max(axis=1),
                     np.abs(votes.quats + want).max(axis=1))
    assert err.max() < 1e-12
    np.testing.assert_allclose(quat_to_matrix(votes.quats), rots, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        votes.translations,
        np.repeat(corr.scene_positions, 36, axis=0)
        - np.einsum("vij,vj->vi", rots, np.repeat(corr.keypoint_positions, 36, axis=0)),
        rtol=0, atol=1e-9)


def stacked_quat_to_matrix(quats):
    """quat_to_matrix as nested np.stack calls over the same expressions."""
    x, y, z, w = np.moveaxis(np.asarray(quats, dtype=np.float64), -1, 0)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.stack([
        np.stack([1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)], axis=-1),
        np.stack([2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)], axis=-1),
        np.stack([2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)], axis=-1),
    ], axis=-2)


@pytest.mark.parametrize("shape", [(18000, 4), (2, 9000, 4), (0, 4)])
def test_quat_to_matrix_equals_the_stacked_formula(shape):
    quats = np.random.default_rng(15).standard_normal(shape)
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    got = quat_to_matrix(quats)
    assert got.shape == shape[:-1] + (3, 3)
    assert np.array_equal(got, stacked_quat_to_matrix(quats))


# ---------------------------------------------------------------------------
# density_peak


def vote_set(rotations, translations):
    """Votes from rotation matrices, carried as quaternions."""
    return VoteSet(Rotation.from_matrix(np.asarray(rotations, float)).as_quat(),
                   np.asarray(translations, float),
                   np.arange(len(translations), dtype=np.int32))


def test_density_peak_identical_votes():
    r = random_rotation(np.random.default_rng(4))
    votes = vote_set([r] * 20, [[1.0, 2, 3]] * 20)
    hyp, _ = density_peak(votes, 10.0, np.radians(12))
    assert hyp.s_kde == 1.0
    assert hyp.vote_support == 20
    np.testing.assert_allclose(hyp.pose.rotation, r, atol=1e-12)
    np.testing.assert_allclose(hyp.pose.translation, [1, 2, 3], atol=1e-12)


def test_density_peak_cluster_beats_scatter():
    rng = np.random.default_rng(5)
    r_a = random_rotation(rng)
    rots = [r_a] * 50
    trans = [[0.0, 0, 0]] * 50
    for k in range(10):
        rots.append(rotation_about_axis(rng.standard_normal(3), np.radians(60 + k)) @ r_a)
        trans.append((rng.uniform(100, 200, 3) * rng.choice([-1, 1], 3)).tolist())
    hyp, _ = density_peak(vote_set(rots, trans), 10.0, np.radians(12))
    assert hyp.vote_support == 50
    np.testing.assert_allclose(hyp.pose.translation, [0, 0, 0], atol=1e-9)


def brute_force_peak(votes, dt, dr):
    v = len(votes)
    rotations = quat_to_matrix(votes.quats)
    best = (-1, 0.0, -1)
    best_mask = None
    for i in range(v):
        d = np.linalg.norm(votes.translations - votes.translations[i], axis=1)
        tr = np.einsum("vij,ij->v", rotations, rotations[i])
        geo = np.arccos(np.clip((tr - 1) / 2, -1, 1))
        mask = (d <= dt) & (geo <= dr)
        score = (int(mask.sum()), -float(d[mask].sum()), -i)
        if score > best:
            best, best_mask = score, mask
    return best, best_mask


def noisy_votes(rng, n_in=700, n_out=300, sigma_t=2.0, sigma_r_deg=2.0):
    pose = random_pose(rng)
    rots, trans = [], []
    for _ in range(n_in):
        nudge = rotation_about_axis(rng.standard_normal(3),
                                    rng.normal(0, np.radians(sigma_r_deg)))
        rots.append(nudge @ pose.rotation)
        trans.append(pose.translation + rng.normal(0, sigma_t, 3))
    for _ in range(n_out):
        rots.append(random_rotation(rng))
        trans.append(rng.uniform(-400, 400, 3))
    return pose, vote_set(rots, trans)


def unit_rows(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def outlier_mix_set(rng):
    """300 inliers around a pose among 700 scattered votes."""
    return noisy_votes(rng, n_in=300, n_out=700)


def clean_cluster_set(rng, n_kp=60, repeat=1):
    """Votes of slightly noisy true correspondences: one dense peak,
    settled by the rotation bound alone."""
    model = make_model(n_kp=n_kp)
    gt = random_pose(rng)
    corr = exact_correspondences(model, gt, repeat)
    corr.scene_positions += rng.normal(0, 0.5, corr.scene_positions.shape)
    return gt, pose_votes(corr, 36)


def noise_like_correspondences(rng, m):
    """Random correspondences whose scene normals come from three planes."""
    planes = unit_rows(rng, 3)
    return Correspondences(
        scene_positions=rng.uniform(-60, 60, (m, 3)),
        scene_normals=planes[rng.integers(0, 3, m)],
        keypoint_ids=np.ones(m, np.int32),
        keypoint_positions=rng.uniform(-45, 45, (m, 3)),
        keypoint_normals=unit_rows(rng, m),
        confidences=np.ones(m))


def noise_like_set(rng, m=80):
    """Votes of noise-like correspondences: rotation neighbours abound but
    few votes agree in translation, so the search needs the joint bound."""
    return None, pose_votes(noise_like_correspondences(rng, m), 36)


def half_turn_set(rng):
    """120 votes within a few degrees of a half-turn (w ~ 0, so their
    quaternions come with both signs) among 1500 votes near another
    half-turn, scattered in translation. The scattered votes hold the
    largest rotation bounds, so the peak is found on the joint-bound path."""
    axis, other = unit_rows(rng, 2)
    gt = RigidPose(rotation_about_axis(axis, np.pi), rng.uniform(-50, 50, 3))
    decoy = rotation_about_axis(np.cross(axis, other), np.pi)
    rots, trans = [], []
    for center, n, spread in ((gt.rotation, 120, 2.0), (decoy, 1500, None)):
        for _ in range(n):
            tilt = rotation_about_axis(rng.standard_normal(3), rng.normal(0, np.radians(2)))
            rots.append(tilt @ center)
            trans.append(gt.translation + rng.normal(0, spread, 3) if spread
                         else rng.uniform(-150, 150, 3))
    return gt, vote_set(rots, trans)


def support_tie_set(rng):
    """Three clusters of 8 votes with equal support. Cluster A (votes 0-7)
    is spread along a line, B (8-15) and C (16-23) are stacked, so A loses
    on summed distance and C on index: vote 8 wins. 400 votes that share
    one rotation but lie 25 mm apart push the search onto the joint bound."""
    r_peak, r_noise = random_rotation(rng), random_rotation(rng)
    trans = ([[x, 0.0, 0.0] for x in range(8)] + [[200.0, 0, 0]] * 8
             + [[0, 200.0, 0]] * 8)
    grid = np.stack(np.meshgrid(*[np.arange(8) * 25.0] * 3), -1).reshape(-1, 3)
    trans += (grid[:400] - 500.0).tolist()
    return None, vote_set([r_peak] * 24 + [r_noise] * 400, trans)


def oracle_like_set(rng, m=150):
    """Votes of m ground-truth correspondences of one oracle anchor: the
    labelled points of a sphere around a foreground point of a seeded
    `make_test_object` + `synth_scene` scene, subsampled as estimate_pose
    does. Few votes have many rotation neighbours: the oracle benchmark's
    shape. No pose is returned to check against: the peak's mean rotation
    is several degrees off until estimate_pose's least-squares polish."""
    model = make_test_object()
    scene = synth_scene(model, rng, SynthParams(noise_sigma_mm=0.5,
                                                occluder_probability=0.3))
    labels = label_scene(scene.cloud, model, scene.gt_pose).labels
    fg = np.nonzero(labels > 0)[0]
    anchor = scene.cloud.positions[fg[rng.integers(len(fg))]]
    near = np.linalg.norm(scene.cloud.positions[fg] - anchor, axis=1) <= 0.6 * model.diameter
    ids = np.sort(rng.choice(fg[near], size=m, replace=False))
    corr = correspondences_from_segmentation(
        scene.cloud.positions[ids], scene.cloud.normals[ids],
        labels[ids], np.ones(m), model)
    return None, pose_votes(corr, 36)


PEAK_SETS = [outlier_mix_set, clean_cluster_set, noise_like_set, half_turn_set,
             support_tie_set, oracle_like_set]


@pytest.mark.parametrize("make_votes", PEAK_SETS)
def test_density_peak_matches_bruteforce(make_votes):
    check_peak_matches_bruteforce(make_votes)


@pytest.mark.parametrize("make_votes", PEAK_SETS)
def test_density_peak_matches_bruteforce_in_joint_chunks_of_3(monkeypatch, make_votes):
    """Every joint batch spans several chunks, and the peak does not move."""
    monkeypatch.setattr(voting, "_JOINT_CHUNK", 3)
    check_peak_matches_bruteforce(make_votes)


def check_peak_matches_bruteforce(make_votes):
    gt, votes = make_votes(np.random.default_rng(6))
    dr = np.radians(12)
    hyp, supporters = density_peak(votes, 10.0, dr)
    (support, neg_sum, neg_idx), mask = brute_force_peak(votes, 10.0, dr)
    assert hyp.vote_support == support
    assert hyp.s_kde == support / len(votes)
    np.testing.assert_array_equal(supporters, np.nonzero(mask)[0])  # ascending
    # the summed distance adds in ascending vote index, as the brute force does
    best, _ = _peak_search(votes.translations, votes.quats, 10.0, dr)
    assert best == (support, neg_sum, neg_idx)
    assert np.array_equal(hyp.pose.translation, votes.translations[mask].mean(axis=0))
    if gt is not None:
        assert np.linalg.norm(hyp.pose.translation - gt.translation) < 5.0
        assert rotation_geodesic(hyp.pose.rotation, gt.rotation) < np.radians(5)


def two_query_bound(quats, q_radius):
    """Rotation neighbours counted once for q and once for -q."""
    tree = cKDTree(quats, leafsize=64, balanced_tree=False)
    return (tree.query_ball_point(quats, q_radius, return_length=True)
            + tree.query_ball_point(-quats, q_radius, return_length=True))


Q_RADIUS = np.sqrt(2.0 - 2.0 * np.cos(np.radians(12) / 2.0))


def hemisphere_tree(rows):
    return cKDTree(rows, leafsize=_LEAFSIZE, balanced_tree=False)


@pytest.mark.parametrize("make_votes", PEAK_SETS)
def test_rotation_bound_one_query_matches_two(make_votes):
    _, votes = make_votes(np.random.default_rng(6))
    rows, vote_of = _hemisphere_rows(votes.quats, Q_RADIUS)
    tree = hemisphere_tree(rows)
    expected = two_query_bound(votes.quats, Q_RADIUS)
    ids = np.random.default_rng(1).permutation(len(votes))[:len(votes) // 2]
    np.testing.assert_array_equal(_rotation_bound(tree, ids, Q_RADIUS), expected[ids])
    np.testing.assert_array_equal(
        _rotation_bound(tree, np.arange(len(votes)), Q_RADIUS), expected)
    assert (rows[:len(votes), 3] >= 0).all()
    np.testing.assert_array_equal(vote_of[:len(votes)], np.arange(len(votes)))
    if make_votes is half_turn_set:     # quaternions on both sides of w = 0
        assert len(rows) > len(votes) and (votes.quats[:, 3] < 0).any()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       spread=st.sampled_from([0.3, 1.0, 3.0, 30.0]), snapped=st.floats(0.0, 1.0),
       delta_r_deg=st.sampled_from([12.0, 4.0]))
def test_box_bound_is_at_least_the_rotation_bound(seed, n, spread, snapped, delta_r_deg):
    """Quaternions around a half-turn (w ~ 0, so with flipped copies) and
    around a random rotation. A share of their coordinates is moved onto
    cell boundaries of the box grid, whose origin a corner row fixes, and
    every row gets a partner just within q_radius along one axis. At 4
    degrees the grid would exceed `_BOX_CELLS`, so its cells widen."""
    q_radius = np.sqrt(2.0 - 2.0 * np.cos(np.radians(delta_r_deg) / 2.0))
    rng = np.random.default_rng(seed)
    half_turn = np.append(unit_rows(rng, 1)[0], 0.0)
    centers = np.stack([half_turn, Rotation.random(random_state=rng).as_quat()])
    quats = centers[rng.integers(0, 2, n)] + rng.normal(0, spread * q_radius, (n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    rows, _ = _hemisphere_rows(quats, q_radius)
    corner = np.array([-1.2, -1.2, -1.2, -0.25])  # below every row and partner
    side = q_radius * _SLACK
    snap = rng.random(rows.shape) < snapped
    rows[snap] = (corner + np.round((rows - corner) / side) * side)[snap]
    partners = rows.copy()
    partners[np.arange(len(rows)), rng.integers(0, 4, len(rows))] += (
        rng.choice([-1.0, 1.0], len(rows)) * q_radius * (1 - 1e-9))
    rows = np.vstack([rows, partners, corner])
    exact = _rotation_bound(hemisphere_tree(rows), np.arange(n), q_radius)
    box = _box_bound(rows, n, q_radius)
    assert (box >= exact).all()
    np.testing.assert_array_equal(box, cell_neighbours(rows, q_radius)[:n])


def cell_neighbours(rows, q_radius):
    """Pairwise reference of `_box_bound`: the rows at most one cell away on
    every axis from each row's cell, on the same grid."""
    lo = rows.min(axis=0)
    span = rows.max(axis=0) - lo
    side = q_radius * _SLACK
    while np.prod(np.floor(span / side) + 1) > _BOX_CELLS:
        side *= 2
    cells = ((rows - lo) / side).astype(np.int64)
    return (np.abs(cells[:, None] - cells[None]).max(axis=2) <= 1).sum(axis=1)


_PHI = (1.0 + np.sqrt(5.0)) / 2.0
# the 12 vertices of an icosahedron: unit vectors at least 1.05 apart
ICOSAHEDRON = np.array([p for a, b in ((1.0, _PHI), (-1.0, _PHI), (1.0, -_PHI), (-1.0, -_PHI))
                        for p in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))])
ICOSAHEDRON /= np.linalg.norm(ICOSAHEDRON, axis=1, keepdims=True)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), delta_t=st.floats(0.5, 50.0),
       offset_mm=st.floats(0.0, 1e4),
       ulps=st.lists(st.integers(-4, 4), min_size=12, max_size=12))
def test_translation_prefilter_keeps_votes_on_the_kernel_boundary(seed, delta_t, offset_mm,
                                                                   ulps):
    """Three stacked votes at t_c and twelve at delta_t (1 + k eps), |k| <= 4,
    from it along icosahedron directions, so more than delta_t apart from
    each other. t_c lies offset_mm from the origin, where the prefilter's
    |t|^2 - 2 t.t_c + |t_c|^2 cancels worst, and the rounding of each
    t_c + delta_t u puts the twelve on both sides of the boundary. Every vote shares one
    rotation, so the translation test alone decides support."""
    rng = np.random.default_rng(seed)
    center = unit_rows(rng, 1)[0] * offset_mm
    dirs = ICOSAHEDRON @ Rotation.random(random_state=rng).as_matrix().T
    radii = delta_t * (1.0 + np.array(ulps) * np.finfo(np.float64).eps)
    trans = np.vstack([np.tile(center, (3, 1)), center + dirs * radii[:, None]])
    votes = vote_set([random_rotation(rng)] * len(trans), trans[rng.permutation(len(trans))])
    dr = np.radians(12)
    best, supporters = _peak_search(votes.translations, votes.quats, delta_t, dr)
    expected, mask = brute_force_peak(votes, delta_t, dr)
    assert best == expected
    np.testing.assert_array_equal(supporters, np.nonzero(mask)[0])


def surface_votes(rng, m=500):
    """Votes of m points of one flat 120 mm patch, normals within a few
    degrees of its own, all labelled with one keypoint: noise-like, but
    each vote has ~45 joint neighbours, as on the detect benchmark's
    noise-like anchors."""
    pos = np.zeros((m, 3))
    pos[:, :2] = rng.uniform(-60, 60, (m, 2))
    normals = np.array([0.0, 0.0, 1.0]) + rng.normal(0, 0.05, (m, 3))
    return pose_votes(Correspondences(
        scene_positions=pos, scene_normals=normals / np.linalg.norm(normals, axis=1)[:, None],
        keypoint_ids=np.ones(m, np.int32),
        keypoint_positions=np.tile(rng.uniform(-45, 45, 3), (m, 1)),
        keypoint_normals=np.tile(unit_rows(rng, 1), (m, 1)),
        confidences=np.ones(m)), 36)


def peak_memory(votes):
    """density_peak's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = density_peak(votes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_joint_pass_memory_is_bounded_by_its_chunk(monkeypatch):
    """The joint pass holds one chunk's neighbour lists, not a batch's.
    tracemalloc peak on this set: 13.5 MiB when one query served a whole
    batch, the largest of 2,412 candidates (110,316 neighbours as Python
    ints), 4.8 MiB in chunks of 256."""
    votes = surface_votes(np.random.default_rng(1))
    (hyp, supporters), peak = peak_memory(votes)
    assert peak < 8 * 2 ** 20, peak / 2 ** 20
    monkeypatch.setattr(voting, "_JOINT_CHUNK", len(votes))   # one query per batch
    (whole, whole_supporters), whole_peak = peak_memory(votes)
    assert whole_peak >= 8 * 2 ** 20, whole_peak / 2 ** 20
    assert (hyp.vote_support, hyp.s_kde) == (whole.vote_support, whole.s_kde)
    assert np.array_equal(supporters, whole_supporters)
    assert np.array_equal(hyp.pose.translation, whole.pose.translation)


def test_density_peak_skde_monotone_in_kernel():
    rng = np.random.default_rng(7)
    _, votes = noisy_votes(rng, n_in=200, n_out=100)
    wide = density_peak(votes, 20.0, np.radians(24))[0].s_kde
    mid = density_peak(votes, 10.0, np.radians(12))[0].s_kde
    tight = density_peak(votes, 5.0, np.radians(6))[0].s_kde
    assert wide >= mid >= tight > 0


def test_density_peak_duplication_invariant():
    rng = np.random.default_rng(8)
    _, votes = noisy_votes(rng, n_in=80, n_out=40)
    doubled = VoteSet(np.concatenate([votes.quats] * 2),
                      np.concatenate([votes.translations] * 2),
                      np.concatenate([votes.source, votes.source + len(votes)]))
    a, _ = density_peak(votes, 10.0, np.radians(12))
    b, _ = density_peak(doubled, 10.0, np.radians(12))
    assert b.vote_support == 2 * a.vote_support
    assert b.s_kde == a.s_kde
    np.testing.assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-12)
    np.testing.assert_allclose(a.pose.translation, b.pose.translation, atol=1e-12)


def test_density_peak_empty_votes():
    with pytest.raises(NoHypothesisError):
        density_peak(VoteSet(np.zeros((0, 4)), np.zeros((0, 3)), np.zeros(0, np.int32)),
                     10.0, 0.2)


@pytest.mark.parametrize("argument, value", [
    ("delta_t_mm", 0.0), ("delta_t_mm", -10.0), ("delta_t_mm", np.nan),
    ("delta_r_rad", 0.0), ("delta_r_rad", -0.2), ("delta_r_rad", np.nan),
    ("delta_r_rad", np.pi),
])
def test_density_peak_rejects_a_kernel_outside_its_range(argument, value):
    _, votes = clean_cluster_set(np.random.default_rng(6))
    kernel = {"delta_t_mm": 10.0, "delta_r_rad": 0.2, argument: value}
    with pytest.raises(ValueError, match=argument):
        density_peak(votes, **kernel)


# ---------------------------------------------------------------------------
# estimate_pose


def test_estimate_pose_exact_recovery():
    rng = np.random.default_rng(9)
    model = make_model(n_kp=60)
    gt = random_pose(rng)
    corr = exact_correspondences(model, gt)
    hyp = estimate_pose(corr)
    assert np.linalg.norm(hyp.pose.translation - gt.translation) < 0.5
    assert rotation_geodesic(hyp.pose.rotation, gt.rotation) < np.radians(0.5)
    assert 0 < hyp.s_kde <= 1


def test_estimate_pose_too_few_correspondences():
    model = make_model(n_kp=9)
    corr = exact_correspondences(model, RigidPose.identity())
    with pytest.raises(NoHypothesisError):
        estimate_pose(corr, VotingParams(min_correspondences=10))


def test_estimate_pose_duplication_invariant():
    rng = np.random.default_rng(10)
    model = make_model(n_kp=40)
    gt = random_pose(rng)
    corr = exact_correspondences(model, gt)
    doubled = exact_correspondences(model, gt, repeat=2)
    a = estimate_pose(corr)
    b = estimate_pose(doubled)
    np.testing.assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-9)
    np.testing.assert_allclose(a.pose.translation, b.pose.translation, atol=1e-9)


def test_estimate_pose_equivariant():
    rng = np.random.default_rng(11)
    model = make_model(n_kp=50)
    base = random_pose(rng)
    corr = exact_correspondences(model, base)
    hyp = estimate_pose(corr)
    for _ in range(3):
        g = random_pose(rng)
        moved = Correspondences(
            scene_positions=g.apply(corr.scene_positions),
            scene_normals=corr.scene_normals @ g.rotation.T,
            keypoint_ids=corr.keypoint_ids,
            keypoint_positions=corr.keypoint_positions,
            keypoint_normals=corr.keypoint_normals,
            confidences=corr.confidences,
        )
        hyp_g = estimate_pose(moved)
        # expected pose: g after the unmoved estimate
        expected_rotation = g.rotation @ hyp.pose.rotation
        expected_translation = g.rotation @ hyp.pose.translation + g.translation
        assert rotation_geodesic(hyp_g.pose.rotation, expected_rotation) < 1e-6
        np.testing.assert_allclose(hyp_g.pose.translation, expected_translation, atol=1e-6)


def test_estimate_pose_robust_to_outliers():
    rng = np.random.default_rng(12)
    model = make_model(n_kp=60)
    gt = random_pose(rng)
    corr = exact_correspondences(model, gt)
    m = len(corr)
    n_out = int(0.3 * m)
    sp = corr.scene_positions.copy()
    sn = corr.scene_normals.copy()
    sp[:m - n_out] += rng.normal(0, 2.0, (m - n_out, 3))  # inlier noise
    out_ids = np.arange(m - n_out, m)
    sp[out_ids] = rng.uniform(-200, 200, (n_out, 3))      # mismatched points
    dirs = rng.standard_normal((n_out, 3))
    sn[out_ids] = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    noisy = Correspondences(sp, sn, corr.keypoint_ids, corr.keypoint_positions,
                            corr.keypoint_normals, corr.confidences)
    hyp = estimate_pose(noisy)
    assert np.linalg.norm(hyp.pose.translation - gt.translation) < 5.0
    assert rotation_geodesic(hyp.pose.rotation, gt.rotation) < np.radians(5)


# ---------------------------------------------------------------------------
# kernel micro-benchmarks: pytest -m perf


def clean_votes_500(rng):
    return clean_cluster_set(rng, n_kp=50, repeat=10)[1]


def noise_like_votes_500(rng):
    return noise_like_set(rng, m=500)[1]


def oracle_like_votes_500(rng):
    return oracle_like_set(rng, m=500)[1]


@pytest.mark.perf
@pytest.mark.parametrize("make_votes", [clean_votes_500, noise_like_votes_500,
                                        oracle_like_votes_500])
def test_density_peak_speed(benchmark, make_votes):
    """500 correspondences x 36 angles, as estimate_pose votes at most."""
    votes = make_votes(np.random.default_rng(21))
    assert len(votes) == 500 * 36
    hyp, _ = benchmark(density_peak, votes)
    assert 1 <= hyp.vote_support <= len(votes)


@pytest.mark.perf
def test_pose_votes_speed(benchmark):
    corr = noise_like_correspondences(np.random.default_rng(21), 500)
    votes = benchmark(pose_votes, corr, 36)
    assert len(votes) == 500 * 36
