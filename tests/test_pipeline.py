"""Input contracts of detect, the CLI, the run configuration and scene files."""

import numpy as np
import pytest

from pointpose import cli, pipeline
from pointpose.config import RunConfig, apply_override, config_from_dict
from pointpose.errors import ConfigError, MissingChannelError
from pointpose.modelprep import save_object_model
from pointpose.network import NetworkConfig, init_weights, save_weights
from pointpose.ply import write_ply
from pointpose.pointcloud import PointCloud
from pointpose.synth import make_test_object


@pytest.fixture(scope="module")
def model():
    return make_test_object(n_points=800)


def colourless_scene(n=500):
    rng = np.random.default_rng(0)
    return PointCloud(positions=rng.uniform(-100, 100, (n, 3)) + [0.0, 0.0, 900.0])


def rgb_weights(model):
    return init_weights(NetworkConfig(k=model.k, input_channels=10), seed=0)


def test_detect_rgb_weights_on_colourless_scene(model, monkeypatch):
    def no_normals(*args, **kwargs):
        raise AssertionError("normals were estimated before the input check")

    monkeypatch.setattr(pipeline, "estimate_normals", no_normals)
    with pytest.raises(MissingChannelError, match="RGB"):
        pipeline.detect(colourless_scene(), model, rgb_weights(model))


def test_cli_detect_rgb_weights_on_colourless_scene_exits_2(model, tmp_path, capsys):
    save_object_model(tmp_path / "model", model)
    write_ply(tmp_path / "scene.ply", colourless_scene())
    save_weights(tmp_path / "w.bin", rgb_weights(model))
    code = cli.main(["detect", "--scene", str(tmp_path / "scene.ply"),
                     "--model", str(tmp_path / "model"),
                     "--weights", str(tmp_path / "w.bin"),
                     "--out", str(tmp_path / "pose.json")])
    assert code == 2
    assert "no colors" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_classify_chunk_is_not_a_config_key():
    with pytest.raises(ConfigError, match="classify_chunk"):
        config_from_dict({"detect": {"classify_chunk": 64}})
    with pytest.raises(ConfigError, match="classify_chunk"):
        apply_override(RunConfig(), "detect.classify_chunk=64")


@pytest.mark.parametrize("content, message", [
    (b"hello, world\n", "not a PLY file"),
    (b"ply\nformat ascii 1.0\nelement vertex many\nend_header\n", "bad PLY header line"),
    (b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
     b"property float z\nend_header\n1 two 3\n", "bad ASCII PLY vertex data"),
])
def test_cli_detect_malformed_scene_exits_2(model, tmp_path, capsys, content, message):
    save_object_model(tmp_path / "model", model)
    (tmp_path / "scene.ply").write_bytes(content)
    code = cli.main(["detect", "--scene", str(tmp_path / "scene.ply"),
                     "--model", str(tmp_path / "model"), "--oracle",
                     "--out", str(tmp_path / "pose.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()

