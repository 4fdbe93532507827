"""Occlusion removal and the multi-modal verification losses."""

import numpy as np
import pytest

from pointpose.errors import InvalidHypothesisError
from pointpose.geometry import NNIndex
from pointpose.modelprep import Keypoint, ObjectModel
from pointpose.pointcloud import Intrinsics, PointCloud
from pointpose.pose import RigidPose, random_rotation
from pointpose.verification import (VerificationParams, build_depth_buffer,
                                    color_loss, localization_loss,
                                    remove_occluded, verify)
from pointpose.voting import PoseHypothesis

INTR = Intrinsics(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)


def camera_plane(z, extent=250.0, step=2.5, color=None):
    xs = np.arange(-extent / 2, extent / 2, step)
    xx, yy = np.meshgrid(xs, xs)
    n = xx.size
    pts = np.stack([xx.ravel(), yy.ravel(), np.full(n, float(z))], axis=1)
    colors = np.tile(color, (n, 1)) if color is not None else None
    return PointCloud(positions=pts, colors=colors, intrinsics=INTR,
                      view_origin=np.zeros(3))


# ---------------------------------------------------------------------------
# remove_occluded


def test_occlusion_points_in_front_kept():
    scene = camera_plane(z=800.0)
    probe = np.array([[0.0, 0, 700.0], [20.0, -10, 650.0]])
    res = remove_occluded(probe, scene)
    assert not res.fallback
    assert res.visible_mask.all()


def test_occlusion_point_behind_wall_removed():
    scene = camera_plane(z=800.0)
    res = remove_occluded(np.array([[0.0, 0, 900.0]]), scene)
    assert not res.visible_mask[0]


def test_occlusion_outside_image_and_behind_camera_kept():
    scene = camera_plane(z=800.0)
    probe = np.array([[10000.0, 0, 500.0],   # projects far outside
                      [0.0, 0, -300.0]])     # behind the camera
    res = remove_occluded(probe, scene)
    assert res.visible_mask.all()


def test_occlusion_huge_finite_coordinate_projects_outside():
    """A finite point far beyond the image has no int64 pixel index: it is
    outside, with no "invalid value encountered in cast" warning (an error
    under this suite's warning filter), in the depth buffer and in the
    occlusion test."""
    scene = camera_plane(z=800.0)
    scene.positions = np.vstack([scene.positions, [[1e300, -1e300, 900.0]]])
    buf = build_depth_buffer(scene)
    assert np.array_equal(buf, build_depth_buffer(camera_plane(z=800.0)))
    res = remove_occluded(np.array([[1e300, 0, 900.0], [0.0, 1e300, 900.0],
                                    [0.0, 0, 900.0]]), scene, depth_buffer=buf)
    assert res.visible_mask.tolist() == [True, True, False]


def test_occlusion_missing_intrinsics_falls_back():
    scene = PointCloud(positions=np.random.default_rng(0).uniform(0, 100, (50, 3)))
    res = remove_occluded(np.zeros((5, 3)), scene)
    assert res.fallback
    assert res.visible_mask.all()


def test_occlusion_matches_ray_oracle_two_planes():
    rng = np.random.default_rng(1)
    scene = camera_plane(z=800.0, extent=200.0)
    params = VerificationParams(occlusion_margin_mm=5.0, splat_px=2)
    buf = build_depth_buffer(scene, params.splat_px)

    probe = np.zeros((500, 3))
    probe[:, 0] = rng.uniform(-150, 150, 500)
    probe[:, 1] = rng.uniform(-110, 110, 500)
    probe[:, 2] = rng.uniform(500, 1100, 500)
    res = remove_occluded(probe, scene, params, depth_buffer=buf)

    # per-point oracle: occluded iff some scene point within the splat
    # window projects Chebyshev-close and is more than margin nearer
    su = np.floor(INTR.fx * scene.positions[:, 0] / scene.positions[:, 2] + INTR.cx + 0.5)
    sv = np.floor(INTR.fy * scene.positions[:, 1] / scene.positions[:, 2] + INTR.cy + 0.5)
    for p, visible in zip(probe, res.visible_mask):
        u = np.floor(INTR.fx * p[0] / p[2] + INTR.cx + 0.5)
        v = np.floor(INTR.fy * p[1] / p[2] + INTR.cy + 0.5)
        if not (0 <= u < INTR.width and 0 <= v < INTR.height):
            expected = True
        else:
            near = (np.abs(su - u) <= params.splat_px) & (np.abs(sv - v) <= params.splat_px)
            near &= (su >= 0) & (su < INTR.width) & (sv >= 0) & (sv < INTR.height)
            if not near.any():
                expected = True
            else:
                zmin = scene.positions[near, 2].min()
                expected = not (p[2] > zmin + params.occlusion_margin_mm)
        assert visible == expected


def test_occlusion_idempotent_and_subset():
    rng = np.random.default_rng(2)
    scene = camera_plane(z=700.0)
    probe = np.column_stack([rng.uniform(-100, 100, 300), rng.uniform(-80, 80, 300),
                             rng.uniform(400, 1000, 300)])
    first = remove_occluded(probe, scene)
    again = remove_occluded(probe[first.visible_mask], scene)
    assert again.visible_mask.all()  # surviving points survive again


# ---------------------------------------------------------------------------
# losses


def test_color_loss_identical_and_analytic():
    c = np.random.default_rng(5).uniform(0, 1, (50, 3))
    assert color_loss(c, c)[0] == 0.0
    white = np.ones((10, 3))
    black = np.zeros((10, 3))
    val, fb = color_loss(white, black)
    assert val == pytest.approx(np.sqrt(3), rel=1e-12)
    assert not fb


def test_color_loss_missing_side_falls_back():
    val, fb = color_loss(None, np.ones((5, 3)))
    assert val == 1.0 and fb
    val, fb = color_loss(np.ones((5, 3)), None)
    assert val == 1.0 and fb


def test_localization_loss_arithmetic():
    assert localization_loss(2.0, 0.5, 0.25) == pytest.approx(4.0, abs=1e-15)
    assert localization_loss(0.0, 0.7, 0.3) == 0.0
    assert localization_loss(2.0, 1.0, 0.5) == pytest.approx(4.0, abs=1e-15)
    with pytest.raises(InvalidHypothesisError):
        localization_loss(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# verify


def small_model(seed=0, with_color=True):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((800, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # position-dependent colors so misalignments show up in the color loss
    cloud = PointCloud(positions=dirs * 30.0, normals=dirs,
                       colors=(dirs + 1.0) / 2.0 if with_color else None)
    kp = [Keypoint(position=dirs[i] * 30.0, normal=dirs[i]) for i in range(0, 800, 100)]
    return ObjectModel(cloud=cloud, keypoints=kp, diameter=60.0 * np.sqrt(3))


def scene_with_object(model, pose, with_color=True):
    from pointpose.pointcloud import concatenate_clouds
    plane = camera_plane(z=900.0, color=np.array([0.4, 0.4, 0.4]) if with_color else None)
    return concatenate_clouds([plane, model.cloud.transformed(pose)])


def test_verify_true_pose_beats_perturbations():
    rng = np.random.default_rng(6)
    model = small_model()
    gt = RigidPose(random_rotation(rng), np.array([0.0, 0.0, 750.0]))
    scene = scene_with_object(model, gt)
    index = NNIndex(scene.positions)
    buf = build_depth_buffer(scene, 2)

    base = verify(PoseHypothesis(pose=gt, s_kde=0.5, vote_support=10),
                  model, scene, scene_index=index, depth_buffer=buf)
    assert base.l_loc is not None and np.isfinite(base.l_loc)

    from pointpose.pose import rotation_about_axis
    worse = 0
    for _ in range(100):
        axis = rng.standard_normal(3)
        angle = np.radians(rng.uniform(10, 25))
        offset = rng.standard_normal(3)
        offset *= rng.uniform(10, 25) / np.linalg.norm(offset)
        pert = RigidPose(rotation_about_axis(axis, angle) @ gt.rotation,
                         gt.translation + offset)
        h = verify(PoseHypothesis(pose=pert, s_kde=0.5, vote_support=10),
                   model, scene, scene_index=index, depth_buffer=buf)
        if h.l_loc > base.l_loc:
            worse += 1
    assert worse == 100


@pytest.mark.parametrize("offset_mm", [0.0, 2.0])
def test_verify_geometric_loss_is_rms_nearest_distance(offset_mm):
    rng = np.random.default_rng(10)
    model = small_model(with_color=False)
    gt = RigidPose(random_rotation(rng), np.array([0.0, 0.0, 700.0]))
    scene = model.cloud.transformed(gt)   # no intrinsics: every point is visible
    pose = RigidPose(gt.rotation, gt.translation + np.array([0.0, offset_mm, 0.0]))
    h = verify(PoseHypothesis(pose=pose, s_kde=0.5, vote_support=1), model, scene)

    acc = 0.0
    for p in pose.apply(model.cloud.positions):
        acc += np.min(np.sum((scene.positions - p) ** 2, axis=1))
    assert h.occlusion_fallback and h.visible_count == len(model.cloud)
    assert h.l_geometric == pytest.approx(np.sqrt(acc / len(model.cloud)), rel=1e-9,
                                          abs=1e-12)
    assert h.l_geometric <= offset_mm + 1e-9


def test_verify_empty_visible_is_sentinel():
    model = small_model()
    scene = camera_plane(z=500.0)
    # object far behind the wall: every point occluded
    pose = RigidPose(np.eye(3), np.array([0.0, 0.0, 1500.0]))
    h = verify(PoseHypothesis(pose=pose, s_kde=0.5, vote_support=1), model, scene)
    assert h.l_loc == float("inf")
    assert h.visible_count == 0


def test_verify_skde_scales_loss():
    rng = np.random.default_rng(7)
    model = small_model()
    gt = RigidPose(random_rotation(rng), np.array([10.0, -5.0, 800.0]))
    scene = scene_with_object(model, gt)
    # slight offset so the geometric loss is strictly positive
    pose = RigidPose(gt.rotation, gt.translation + np.array([1.0, 0, 0]))
    a = verify(PoseHypothesis(pose=pose, s_kde=0.5, vote_support=1), model, scene)
    b = verify(PoseHypothesis(pose=pose, s_kde=0.25, vote_support=1), model, scene)
    assert a.l_geometric == b.l_geometric
    assert b.l_loc == pytest.approx(2 * a.l_loc, rel=1e-12)


def test_verify_colorless_uses_identity_color():
    rng = np.random.default_rng(8)
    model = small_model(with_color=False)
    gt = RigidPose(random_rotation(rng), np.array([0.0, 0.0, 700.0]))
    scene = scene_with_object(model, gt, with_color=False)
    h = verify(PoseHypothesis(pose=gt, s_kde=0.5, vote_support=1), model, scene)
    assert h.color_fallback
    assert h.l_color == 1.0
    assert h.l_loc == pytest.approx(h.l_geometric / 0.5, rel=1e-12)


def test_verify_deterministic():
    rng = np.random.default_rng(9)
    model = small_model()
    gt = RigidPose(random_rotation(rng), np.array([0.0, 0.0, 820.0]))
    scene = scene_with_object(model, gt)
    h1 = verify(PoseHypothesis(pose=gt, s_kde=0.5, vote_support=1), model, scene)
    h2 = verify(PoseHypothesis(pose=gt, s_kde=0.5, vote_support=1), model, scene)
    assert h1.l_loc == h2.l_loc and h1.l_geometric == h2.l_geometric
