"""Correspondence extraction, pose voting, density peak, pose estimation."""

import numpy as np
import pytest

from pointpose.errors import NoHypothesisError
from pointpose.modelprep import Keypoint, ObjectModel
from pointpose.pointcloud import PointCloud
from pointpose.pose import (RigidPose, random_rotation, rotation_about_axis,
                            rotation_geodesic)
from pointpose.voting import (Correspondences, VoteSet, VotingParams, _peak_search,
                              correspondences_from_segmentation, density_peak,
                              estimate_pose, pose_votes)


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
                                             probs, model)
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
    corr = correspondences_from_segmentation(pts, nrm, probs, model)
    assert len(corr) == (labels > 0).sum()
    np.testing.assert_array_equal(corr.keypoint_ids, labels[labels > 0])
    np.testing.assert_allclose(corr.keypoint_positions,
                               model.keypoint_positions()[labels[labels > 0] - 1])


def test_correspondences_min_confidence_extreme():
    model = make_model(n_kp=5)
    probs = np.full((32, 6), 1.0 / 6)  # soft: max prob < 1
    corr = correspondences_from_segmentation(np.zeros((32, 3)), np.tile([0, 0, 1.0], (32, 1)),
                                             probs, model, min_confidence=1.0)
    assert len(corr) == 0


# ---------------------------------------------------------------------------
# pose_votes


def test_votes_count_and_constraints():
    model = make_model(n_kp=1)
    pose = random_pose(np.random.default_rng(2))
    corr = exact_correspondences(model, pose)
    votes = pose_votes(corr, n_theta=36)
    assert len(votes) == 36
    for r, t in zip(votes.rotations, votes.translations):
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
        geos = [rotation_geodesic(r, eye) for r in votes.rotations[sel]]
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
        rot_ok = np.array([rotation_geodesic(votes.rotations[i], pose.rotation)
                           for i in sel])
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
        for r, t in zip(votes.rotations, votes.translations):
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert np.linalg.norm((r @ kp[0] + t) - [50, 20, 5]) < 1e-9
            assert np.linalg.norm(r @ kn[0] - scene_n[0]) < 1e-9


# ---------------------------------------------------------------------------
# density_peak


def vote_set(rotations, translations):
    return VoteSet(np.asarray(rotations, float), np.asarray(translations, float),
                   np.arange(len(translations), dtype=np.int32))


def test_density_peak_identical_votes():
    r = random_rotation(np.random.default_rng(4))
    votes = vote_set([r] * 20, [[1.0, 2, 3]] * 20)
    hyp = density_peak(votes, 10.0, np.radians(12))
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
    hyp = density_peak(vote_set(rots, trans), 10.0, np.radians(12))
    assert hyp.vote_support == 50
    np.testing.assert_allclose(hyp.pose.translation, [0, 0, 0], atol=1e-9)


def brute_force_peak(votes, dt, dr):
    v = len(votes)
    best = (-1, 0.0, -1)
    best_mask = None
    for i in range(v):
        d = np.linalg.norm(votes.translations - votes.translations[i], axis=1)
        tr = np.einsum("vij,ij->v", votes.rotations, votes.rotations[i])
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


def noise_like_set(rng, m=80):
    """Votes of random correspondences whose scene normals come from three
    planes: rotation neighbours abound but few votes agree in translation,
    so the search needs the joint bound."""
    planes = unit_rows(rng, 3)
    corr = Correspondences(
        scene_positions=rng.uniform(-60, 60, (m, 3)),
        scene_normals=planes[rng.integers(0, 3, m)],
        keypoint_ids=np.ones(m, np.int32),
        keypoint_positions=rng.uniform(-45, 45, (m, 3)),
        keypoint_normals=unit_rows(rng, m),
        confidences=np.ones(m))
    return None, pose_votes(corr, 36)


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


@pytest.mark.parametrize("make_votes", [outlier_mix_set, clean_cluster_set, noise_like_set,
                                        half_turn_set, support_tie_set])
def test_density_peak_matches_bruteforce(make_votes):
    gt, votes = make_votes(np.random.default_rng(6))
    dr = np.radians(12)
    hyp, supporters = density_peak(votes, 10.0, dr, return_supporters=True)
    (support, neg_sum, neg_idx), mask = brute_force_peak(votes, 10.0, dr)
    assert hyp.vote_support == support
    assert hyp.s_kde == support / len(votes)
    np.testing.assert_array_equal(np.sort(supporters), np.nonzero(mask)[0])
    (_, search_neg_sum, search_neg_idx), _ = _peak_search(
        votes.translations, votes.rotations, 10.0, dr, -1)
    assert search_neg_idx == neg_idx
    assert search_neg_sum == pytest.approx(neg_sum, rel=1e-12, abs=1e-12)
    expected_t = votes.translations[mask].mean(axis=0)
    np.testing.assert_allclose(hyp.pose.translation, expected_t, atol=1e-9)
    if gt is not None:
        assert np.linalg.norm(hyp.pose.translation - gt.translation) < 5.0
        assert rotation_geodesic(hyp.pose.rotation, gt.rotation) < np.radians(5)


def test_density_peak_workers_do_not_change_result():
    _, votes = noise_like_set(np.random.default_rng(13))
    a, sa = density_peak(votes, return_supporters=True, workers=1)
    b, sb = density_peak(votes, return_supporters=True, workers=2)
    assert a.vote_support == b.vote_support
    np.testing.assert_array_equal(sa, sb)
    np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)


def test_density_peak_skde_monotone_in_kernel():
    rng = np.random.default_rng(7)
    _, votes = noisy_votes(rng, n_in=200, n_out=100)
    wide = density_peak(votes, 20.0, np.radians(24)).s_kde
    mid = density_peak(votes, 10.0, np.radians(12)).s_kde
    tight = density_peak(votes, 5.0, np.radians(6)).s_kde
    assert wide >= mid >= tight > 0


def test_density_peak_duplication_invariant():
    rng = np.random.default_rng(8)
    _, votes = noisy_votes(rng, n_in=80, n_out=40)
    doubled = VoteSet(np.concatenate([votes.rotations] * 2),
                      np.concatenate([votes.translations] * 2),
                      np.concatenate([votes.source, votes.source + len(votes)]))
    a = density_peak(votes, 10.0, np.radians(12))
    b = density_peak(doubled, 10.0, np.radians(12))
    assert b.vote_support == 2 * a.vote_support
    assert b.s_kde == a.s_kde
    np.testing.assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-12)
    np.testing.assert_allclose(a.pose.translation, b.pose.translation, atol=1e-12)


def test_density_peak_empty_votes():
    with pytest.raises(NoHypothesisError):
        density_peak(vote_set(np.zeros((0, 3, 3)), np.zeros((0, 3))), 10.0, 0.2)


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
        expected = g.compose(hyp.pose)
        assert rotation_geodesic(hyp_g.pose.rotation, expected.rotation) < 1e-6
        np.testing.assert_allclose(hyp_g.pose.translation, expected.translation, atol=1e-6)


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


@pytest.mark.perf
@pytest.mark.parametrize("make_votes", [clean_votes_500, noise_like_votes_500])
def test_density_peak_speed(benchmark, make_votes):
    """500 correspondences x 36 angles, as estimate_pose votes at most."""
    votes = make_votes(np.random.default_rng(21))
    assert len(votes) == 500 * 36
    hyp = benchmark(density_peak, votes)
    assert 1 <= hyp.vote_support <= len(votes)
