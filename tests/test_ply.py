"""PLY and pose-file round-trip tests."""

import numpy as np
import pytest

from pointpose.errors import PlyFormatError
from pointpose.ply import read_ply, write_ply
from pointpose.pointcloud import PointCloud
from pointpose.pose import (RigidPose, load_pose_json, random_rotation,
                            save_pose_json)


def sample_cloud(n=200, with_color=True, seed=0):
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(
        positions=rng.uniform(-500, 500, (n, 3)),
        normals=normals,
        curvatures=rng.uniform(0, 1, n),
        colors=rng.uniform(0, 1, (n, 3)) if with_color else None,
    )


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("with_color", [True, False])
def test_ply_roundtrip(tmp_path, binary, with_color):
    cloud = sample_cloud(with_color=with_color)
    path = tmp_path / "cloud.ply"
    write_ply(path, cloud, binary=binary)
    back = read_ply(path)
    assert len(back) == len(cloud)
    # storage is float32; colors are uint8-quantized
    np.testing.assert_allclose(back.positions, cloud.positions, atol=1e-3)
    np.testing.assert_allclose(back.normals, cloud.normals, atol=1e-6)
    np.testing.assert_allclose(back.curvatures, cloud.curvatures, atol=1e-6)
    if with_color:
        np.testing.assert_allclose(back.colors, cloud.colors, atol=1 / 255.0)
    else:
        assert back.colors is None


def test_ply_binary_exact_for_f32_values(tmp_path):
    cloud = sample_cloud(with_color=False)
    cloud.positions = cloud.positions.astype(np.float32).astype(np.float64)
    cloud.normals = cloud.normals.astype(np.float32).astype(np.float64)
    cloud.curvatures = cloud.curvatures.astype(np.float32).astype(np.float64)
    path = tmp_path / "c.ply"
    write_ply(path, cloud, binary=True)
    back = read_ply(path)
    assert np.array_equal(back.positions, cloud.positions)
    assert np.array_equal(back.normals, cloud.normals)
    assert np.array_equal(back.curvatures, cloud.curvatures)


def test_ply_positions_only(tmp_path):
    cloud = PointCloud(positions=np.array([[1.0, 2.0, 3.0]]))
    path = tmp_path / "p.ply"
    write_ply(path, cloud, binary=False)
    back = read_ply(path)
    assert back.normals is None and back.curvatures is None and back.colors is None
    np.testing.assert_allclose(back.positions, [[1, 2, 3]], atol=1e-6)


def test_ply_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"not a ply file\n")
    with pytest.raises(ValueError):
        read_ply(path)


def test_ply_rejects_truncated_binary(tmp_path):
    cloud = sample_cloud(n=50, with_color=False)
    path = tmp_path / "t.ply"
    write_ply(path, cloud, binary=True)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ValueError):
        read_ply(path)


def test_ply_format_error_is_a_value_error(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"ply\nformat binary_big_endian 1.0\nend_header\n")
    with pytest.raises(PlyFormatError, match="unsupported PLY format") as info:
        read_ply(path)
    assert isinstance(info.value, ValueError)


def test_pose_json_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    pose = RigidPose(random_rotation(rng), rng.uniform(-100, 100, 3))
    path = tmp_path / "pose.json"
    save_pose_json(path, pose)
    back = load_pose_json(path)
    np.testing.assert_allclose(back.rotation, pose.rotation, atol=1e-15)
    np.testing.assert_allclose(back.translation, pose.translation, atol=1e-15)


def test_pose_rejects_improper_rotation():
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        RigidPose(reflect, np.zeros(3))
    with pytest.raises(ValueError):
        RigidPose(np.eye(3) * 1.001, np.zeros(3))


def test_pose_compose_inverse():
    rng = np.random.default_rng(12)
    a = RigidPose(random_rotation(rng), rng.uniform(-10, 10, 3))
    pts = rng.uniform(-5, 5, (20, 3))
    np.testing.assert_allclose(a.inverse().apply(a.apply(pts)), pts, atol=1e-12)
