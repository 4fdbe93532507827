"""Input contracts of detect, the CLI, the run configuration and scene files."""

import json
import re

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



def annotated_scene(tmp_path, model, sidecar):
    save_object_model(tmp_path / "model", model)
    write_ply(tmp_path / "scene.ply", colourless_scene())
    (tmp_path / "scene.json").write_text(sidecar)


@pytest.mark.parametrize("sidecar, message", [
    ("{not json", "invalid JSON"),
    ("[1, 2]", "expected a JSON object"),
    ('{"pose": "identity"}', "pose: expected an object"),
    ('{"pose": {"rotation": [[1, 0, 0], [0, 1, 0]], "translation_mm": [0, 0, 0]}}',
     "pose.rotation: expected 3x3"),
    ('{"pose": {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}',
     "pose.translation_mm: expected 3"),
    ('{"pose": {"rotation": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "translation_mm": [0, 0, 0]}}',
     "not orthonormal"),
    ('{"intrinsics": {"fx": "570", "fy": 570, "cx": 320, "cy": 240, "width": 640,'
     ' "height": 480}}', "intrinsics: expected"),
    ('{"intrinsics": {"fx": 570}}', "intrinsics: expected"),
    ('{"view_origin_mm": [0, 0]}', "view_origin_mm: expected 3"),
])
def test_cli_detect_malformed_sidecar_exits_2(model, tmp_path, capsys, sidecar, message):
    annotated_scene(tmp_path, model, sidecar)
    code = cli.main(["detect", "--scene", str(tmp_path / "scene.ply"),
                     "--model", str(tmp_path / "model"), "--oracle",
                     "--out", str(tmp_path / "pose.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_cli_eval_malformed_sidecar_exits_2(model, tmp_path, capsys):
    annotated_scene(tmp_path, model, "{not json")
    code = cli.main(["eval", "--scenes", str(tmp_path), "--model", str(tmp_path / "model"),
                     "--oracle", "--out-csv", str(tmp_path / "eval.csv"),
                     "--out-json", str(tmp_path / "eval.json")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "synth.clutter_count=4", "voting.delta_t_mm=5", "voting.delta_t_mm=5.5",
    "keypoints.merge_tol_mm=null", "keypoints.merge_tol_mm=3",
    "network.use_color=true", "icp.schedule=[[50, 30]]",
    'augmentation.jitter_channels=["xyz"]',
])
def test_config_value_of_declared_type_is_accepted(assignment):
    config = RunConfig()
    apply_override(config, assignment)
    key, raw = assignment.split("=", 1)
    section, name = key.split(".")
    assert config_from_dict({section: {name: json.loads(raw)}}) == config


@pytest.mark.parametrize("assignment, expected", [
    ('synth.clutter_count="three"', "expected int"),
    ("synth.clutter_count=three", "expected int"),
    ("synth.clutter_count=true", "expected int"),
    ("synth.clutter_count=3.0", "expected int"),
    ("voting.delta_t_mm=null", "expected float"),
    ('voting.delta_t_mm="5"', "expected float"),
    ('keypoints.merge_tol_mm="3"', "expected Optional[float]"),
    ("network.use_color=1", "expected bool"),
    ('icp.schedule=[[50, "30"]]', "expected List[List[float]]"),
    ("seed=1.5", "expected int"),
])
def test_config_value_of_wrong_type_is_rejected(assignment, expected):
    key, raw = assignment.split("=", 1)
    with pytest.raises(ConfigError, match=re.escape(f"{key}: {expected}")):
        apply_override(RunConfig(), assignment)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    data = {key: value} if "." not in key else {key.split(".")[0]: {key.split(".")[1]: value}}
    with pytest.raises(ConfigError, match=re.escape(f"{key}: {expected}")):
        config_from_dict(data)


def test_cli_mistyped_config_value_exits_2(tmp_path, capsys):
    code = cli.main(["synth", "--out", str(tmp_path / "scenes"), "--count", "1",
                     "--set", 'synth.clutter_count="three"'])
    assert code == 2
    assert 'synth.clutter_count: expected int, got "three"' in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()
