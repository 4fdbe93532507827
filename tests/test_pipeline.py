"""End-to-end runs of detect and oracle_detect, their stage timings and debug
dump, and the input contracts of detect, the CLI, the run configuration and
scene files."""

import csv
import io
import itertools
import json
import os
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial, wraps
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpose import cli, network, pipeline
from pointpose.config import RunConfig, apply_override, config_from_dict
from pointpose.dataset import LabeledExample, SphereParams, _sample_fill, write_dataset
from pointpose.errors import (ConfigError, MissingChannelError, NoHypothesisError,
                              NonFiniteSceneError, NoOverlapError, WeightsFormatError)
from pointpose.geometry import NNIndex, estimate_normals, voxel_downsample
from pointpose.modelprep import (Keypoint, ObjectModel, SymmetryDescriptor, load_object_model,
                                 model_diameter, save_object_model)
from pointpose.network import NetworkConfig, init_weights, save_weights
from pointpose.ply import read_ply, write_ply
from pointpose.pointcloud import PointCloud
from pointpose.pose import RigidPose, random_rotation, rotation_about_axis
from pointpose.synth import (SynthParams, load_scene, make_test_object, save_scene,
                             synth_scene)
from pointpose.voting import (PoseHypothesis, correspondences_from_segmentation, pose_votes,
                              segment_labels, subsample_correspondences)


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


def nan_scene(channel="position", n=500):
    """A scene with every channel, whose point 7 has a NaN or infinite
    value in `channel`."""
    cloud = colourless_scene(n)
    cloud.normals = np.tile([0.0, 0.0, -1.0], (n, 1))
    cloud.curvatures = np.zeros(n)
    cloud.colors = np.full((n, 3), 0.5)
    attr = {"position": "positions", "normal": "normals", "curvature": "curvatures",
            "colour": "colors"}[channel]
    getattr(cloud, attr)[7] = np.inf if channel == "colour" else np.nan
    return cloud


IDENTITY_SIDECAR = ('{"pose": {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
                    ' "translation_mm": [0, 0, 900]}}')


@pytest.mark.parametrize("channel", ["position", "normal", "curvature", "colour"])
@pytest.mark.parametrize("entry", ["oracle_detect", "detect"])
def test_detect_non_finite_scene_is_rejected(model, monkeypatch, entry, channel):
    """A NaN or infinite value in any scene channel is bad input, found
    before an index is built or normals are estimated."""
    def no_index(*args, **kwargs):
        raise AssertionError("an index was built before the input check")

    monkeypatch.setattr(pipeline, "NNIndex", no_index)
    monkeypatch.setattr(pipeline, "estimate_normals", no_index)
    with pytest.raises(NonFiniteSceneError,
                       match=f"^1 of 500 scene points have a NaN or infinite {channel}$"):
        if entry == "detect":
            pipeline.detect(nan_scene(channel), model,
                            init_weights(NetworkConfig(k=model.k), 0))
        else:
            pipeline.oracle_detect(nan_scene(channel), model, RigidPose.identity())


@pytest.mark.parametrize("n", [0, 30])
@pytest.mark.parametrize("entry", ["oracle_detect", "detect"])
def test_scene_without_a_usable_sphere_is_a_failed_detection(model, entry, n):
    """No points, or too few for a 64-point sphere: both sources segment no
    anchor and return a failed result, as when every anchor votes in vain."""
    scene = colourless_scene(n)
    if entry == "detect":
        weights = init_weights(NetworkConfig(k=model.k, encoder=(8, 8, 16), classifier=(8, 1),
                                             segmenter=(8, 0)), seed=0)
        result = pipeline.detect(scene, model, weights)
    else:
        result = pipeline.oracle_detect(scene, model, RigidPose(np.eye(3), [0.0, 0.0, 900.0]))
    assert result.failed and result.ranked == [] and result.anchors_segmented == 0
    assert result.anchors_skipped == result.anchors_total
    assert set(result.timings_ms) == set(pipeline.STAGES)


@pytest.mark.parametrize("channel", ["position", "normal"])
@pytest.mark.parametrize("command", ["detect", "prepare"])
def test_cli_detect_non_finite_scene_exits_2(model, tmp_path, capsys, command, channel):
    """`detect` and `prepare` check a scene file by the one rule: exit 2
    with an `error:` line, and no output written."""
    save_object_model(tmp_path / "model", model)
    write_ply(tmp_path / "scene.ply", nan_scene(channel))
    (tmp_path / "scene.json").write_text(IDENTITY_SIDECAR)
    io_args = {"detect": ["--scene", str(tmp_path / "scene.ply"), "--oracle",
                          "--out", str(tmp_path / "out")],
               "prepare": ["--scenes", str(tmp_path), "--out", str(tmp_path / "out")]}
    code = cli.main([command, "--model", str(tmp_path / "model")] + io_args[command])
    assert code == 2
    prefix = "scene: " if command == "prepare" else ""
    assert capsys.readouterr().err == (f"error: {prefix}1 of 500 scene points have a NaN or "
                                       f"infinite {channel}\n")
    assert not (tmp_path / "out").exists()


def test_classify_chunk_is_not_a_config_key():
    with pytest.raises(ConfigError, match="classify_chunk"):
        config_from_dict({"detect": {"classify_chunk": 64}})
    with pytest.raises(ConfigError, match="classify_chunk"):
        apply_override(RunConfig(), "detect.classify_chunk=64")


@pytest.mark.parametrize("value", ["null", "3"])
def test_merge_tol_mm_is_not_a_config_key(value):
    with pytest.raises(ConfigError, match="unknown config key: keypoints.merge_tol_mm"):
        config_from_dict({"keypoints": {"merge_tol_mm": json.loads(value)}})
    with pytest.raises(ConfigError, match="unknown config key: keypoints.merge_tol_mm"):
        apply_override(RunConfig(), f"keypoints.merge_tol_mm={value}")


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


def _drop_symmetry(sidecar):
    del sidecar["symmetry"]


def _string_diameter(sidecar):
    sidecar["diameter_mm"] = "161"


def _nan_keypoint(sidecar):
    sidecar["keypoints"][3]["position_mm"][1] = float("nan")


def _zero_symmetry_axis(sidecar):
    sidecar["symmetry"] = {"kind": "revolution", "axis": [0, 0, 0], "center_mm": [0, 0, 0]}


@pytest.mark.parametrize("mutate, message", [
    (_drop_symmetry, "symmetry: expected an object of kind"),
    (_string_diameter, "diameter_mm: expected a finite number"),
    (_nan_keypoint, "keypoints[3].position_mm: expected 3 finite numbers"),
    (_zero_symmetry_axis, "symmetry: symmetry axis must be nonzero"),
])
def test_cli_detect_malformed_model_sidecar_exits_2(model, tmp_path, capsys, mutate,
                                                    message):
    annotated_scene(tmp_path, model, IDENTITY_SIDECAR)
    path = tmp_path / "model.json"
    sidecar = json.loads(path.read_text())
    mutate(sidecar)
    path.write_text(json.dumps(sidecar))
    code = cli.main(["detect", "--scene", str(tmp_path / "scene.ply"),
                     "--model", str(tmp_path / "model"), "--oracle",
                     "--out", str(tmp_path / "pose.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "pose.json").exists()


def test_cli_eval_malformed_sidecar_exits_2(model, tmp_path, capsys):
    annotated_scene(tmp_path, model, "{not json")
    code = cli.main(["eval", "--scenes", str(tmp_path), "--model", str(tmp_path / "model"),
                     "--oracle", "--out-csv", str(tmp_path / "eval.csv"),
                     "--out-json", str(tmp_path / "eval.json")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def other_k_weights(model):
    return init_weights(NetworkConfig(k=model.k + 3), seed=0)


def test_detect_weights_for_another_keypoint_count(model, monkeypatch):
    def no_normals(*args, **kwargs):
        raise AssertionError("normals were estimated before the weights check")

    monkeypatch.setattr(pipeline, "estimate_normals", no_normals)
    with pytest.raises(WeightsFormatError, match=f"{model.k + 3} keypoints.* {model.k}"):
        pipeline.detect(colourless_scene(), model, other_k_weights(model))


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_cli_weights_for_another_keypoint_count_exit_2(model, tmp_path, capsys, command):
    annotated_scene(tmp_path, model, IDENTITY_SIDECAR)
    save_weights(tmp_path / "w.bin", other_k_weights(model))
    argv = [command, "--model", str(tmp_path / "model"), "--weights", str(tmp_path / "w.bin")]
    if command == "detect":
        argv += ["--scene", str(tmp_path / "scene.ply"), "--out", str(tmp_path / "pose.json")]
    else:
        argv += ["--scenes", str(tmp_path), "--out-csv", str(tmp_path / "eval.csv"),
                 "--out-json", str(tmp_path / "eval.json")]
    assert cli.main(argv) == 2
    assert f"error: weights segment {model.k + 3} keypoints" in capsys.readouterr().err


def test_cli_detect_truncated_weights_exits_2(model, tmp_path, capsys):
    annotated_scene(tmp_path, model, IDENTITY_SIDECAR)
    save_weights(tmp_path / "w.bin", init_weights(NetworkConfig(k=model.k), seed=0))
    (tmp_path / "w.bin").write_bytes((tmp_path / "w.bin").read_bytes()[:10])
    code = cli.main(["detect", "--scene", str(tmp_path / "scene.ply"),
                     "--model", str(tmp_path / "model"), "--weights", str(tmp_path / "w.bin"),
                     "--out", str(tmp_path / "pose.json")])
    assert code == 2
    assert "error: weights file ends inside the header" in capsys.readouterr().err


def test_cli_train_garbage_dataset_exits_2(tmp_path, capsys):
    (tmp_path / "data.bin").write_bytes(b"garbage")
    code = cli.main(["train", "--dataset", str(tmp_path / "data.bin"),
                     "--out", str(tmp_path / "w.bin")])
    assert code == 2
    assert "error: file too short for header" in capsys.readouterr().err
    assert not (tmp_path / "w.bin").exists()


def test_cli_train_logs_each_head_loss(tmp_path, capsys):
    """`.loss.csv` holds each epoch's joint loss and both heads' losses; the
    joint loss is their 0.15 / 0.85 weighted sum."""
    rng = np.random.default_rng(4)
    examples = [LabeledExample(positions=rng.standard_normal((64, 3)),
                               normals=np.tile([0, 0, 1.0], (64, 1)),
                               curvatures=np.full(64, 0.1), seg_labels=rng.integers(0, 3, 64),
                               class_label=i % 2) for i in range(4)]
    write_dataset(tmp_path / "data.bin", examples, k=2)
    code = cli.main(["train", "--dataset", str(tmp_path / "data.bin"),
                     "--out", str(tmp_path / "w.bin"), "--set", "training.epochs=2",
                     "--set", "network.normalize=false"])
    assert code == 0
    final_loss = json.loads(capsys.readouterr().out)["final_loss"]
    rows = list(csv.DictReader(io.StringIO((tmp_path / "w.loss.csv").read_text())))
    assert [r["epoch"] for r in rows] == ["0", "1"]
    assert float(rows[-1]["loss"]) == final_loss
    for r in rows:
        loss, cls_loss, seg_loss = (float(r[k]) for k in ("loss", "cls_loss", "seg_loss"))
        assert loss == pytest.approx(0.15 * cls_loss + 0.85 * seg_loss, rel=1e-12)


@pytest.mark.parametrize("assignment", [
    "synth.clutter_count=4", "voting.delta_t_mm=5", "voting.delta_t_mm=5.5",
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
    ("network.use_color=1", "expected bool"),
    ('icp.schedule=[[50, "30"]]', "expected List[List[float]]"),
    ("augmentation.jitter_channels=[1]", "expected Tuple[str, ...]"),
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


# ---------------------------------------------------------------------------
# whole detections on seeded synthetic scenes: the Baseline object, 0.5 mm
# sensor noise and an occluder in front of the object on 30% of scenes

NOISY = SynthParams(noise_sigma_mm=0.5, occluder_probability=0.3)
# a cheap network detect: coarse anchors, small spheres, two segmented
# anchors, fewer votes
SMALL_DETECT = ["detect.anchor_leaf_mm=80", "detect.top_anchors=2",
                "examples.n_points=512", "voting.max_correspondences=100"]


def small_detect_params():
    config = RunConfig()
    for assignment in SMALL_DETECT:
        apply_override(config, assignment)
    return config.detect_params()


@pytest.fixture(scope="module")
def baseline_model():
    return make_test_object()


@pytest.fixture(scope="module")
def noisy_scenes(baseline_model):
    return [synth_scene(baseline_model, np.random.default_rng([11, i]), NOISY,
                        scene_id=f"scene_{i:04d}") for i in range(4)]


@pytest.fixture(scope="module")
def small_scene(baseline_model):
    """A third of the points: no clutter, a smaller table."""
    params = SynthParams(noise_sigma_mm=0.5, occluder_probability=0.3, clutter_count=0,
                         table_size_mm=250.0)
    return synth_scene(baseline_model, np.random.default_rng([11, 4]), params)


def raw(cloud):
    """The cloud as a depth sensor gives it: no normals or curvature."""
    return PointCloud(positions=cloud.positions, view_origin=cloud.view_origin,
                      intrinsics=cloud.intrinsics)


def proper(pose):
    r = pose.rotation
    return np.allclose(r.T @ r, np.eye(3), atol=1e-9) and np.isclose(np.linalg.det(r), 1.0)


@pytest.mark.parametrize("i", range(4))
def test_oracle_detect_recovers_the_pose(baseline_model, noisy_scenes, i):
    scene = noisy_scenes[i]
    result = pipeline.oracle_detect(scene.cloud, baseline_model, scene.gt_pose)
    assert not result.failed
    add = pipeline.add_metric(result.best.pose, scene.gt_pose, baseline_model)
    assert add < 0.1 * baseline_model.diameter
    assert proper(result.best.pose)


# `oracle_detect` under rigid motions of the scene: 4 anchors, one thread,
# and no intrinsics (the depth buffer assumes a camera at the origin, so a
# moved scene with intrinsics would be another view)
MOVED_PARAMS = pipeline.DetectParams(oracle_anchors=4, threads=1)
# The 36 spins about each normal start at a phase that depends on the world
# frame (`voting._base_quats`), so the voted start moves a little with the
# scene and ICP may stop at a neighbouring minimum: these scenes and motions
# moved ADD by at most 0.19 mm, against the 16 mm success threshold.
MOVED_ADD_TOL_MM = 0.5


def without_intrinsics(cloud, motion=RigidPose.identity()):
    """The cloud moved rigidly, normals and view origin with it, and no camera."""
    return PointCloud(positions=motion.apply(cloud.positions),
                      normals=cloud.normals @ motion.rotation.T, curvatures=cloud.curvatures,
                      colors=cloud.colors, view_origin=motion.apply(cloud.view_origin))


@pytest.fixture(scope="module")
def unmoved_adds(baseline_model, noisy_scenes):
    """ADD of `oracle_detect` on scenes 0 and 1 where they are."""
    adds = []
    for scene in noisy_scenes[:2]:
        result = pipeline.oracle_detect(without_intrinsics(scene.cloud), baseline_model,
                                        scene.gt_pose, MOVED_PARAMS)
        adds.append(pipeline.add_metric(result.best.pose, scene.gt_pose, baseline_model))
    return adds


@settings(max_examples=12, deadline=None, derandomize=True)
@given(i=st.sampled_from([0, 1]), rotation_seed=st.integers(0, 2 ** 32 - 1),
       translation=st.lists(st.floats(-1000, 1000), min_size=3, max_size=3))
def test_oracle_pose_moves_with_the_scene(baseline_model, noisy_scenes, unmoved_adds, i,
                                          rotation_seed, translation):
    """Positions, normals, view origin and gt pose moved by one rigid motion:
    success stays, and ADD moves by less than MOVED_ADD_TOL_MM."""
    scene = noisy_scenes[i]
    motion = RigidPose(random_rotation(np.random.default_rng(rotation_seed)),
                       np.array(translation))
    gt = RigidPose(motion.rotation @ scene.gt_pose.rotation,
                   motion.apply(scene.gt_pose.translation))
    result = pipeline.oracle_detect(without_intrinsics(scene.cloud, motion), baseline_model, gt,
                                    MOVED_PARAMS)
    add = pipeline.add_metric(result.best.pose, gt, baseline_model)
    threshold = 0.1 * baseline_model.diameter
    assert (add < threshold) == (unmoved_adds[i] < threshold)
    assert abs(add - unmoved_adds[i]) < MOVED_ADD_TOL_MM


def test_detect_with_untrained_weights_runs_every_stage(baseline_model, noisy_scenes):
    weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
    params = small_detect_params()
    result = pipeline.detect(raw(noisy_scenes[0].cloud), baseline_model, weights, params)

    assert set(result.timings_ms) == set(pipeline.STAGES)
    assert all(t > 0 for t in result.timings_ms.values())
    assert 0 <= result.anchors_skipped < result.anchors_total
    assert result.anchors_segmented == min(params.top_anchors,
                                           result.anchors_total - result.anchors_skipped)
    assert 1 <= len(result.ranked) <= result.anchors_segmented
    assert result.best is result.ranked[0]
    l_loc = [h.l_loc for h in result.ranked]
    assert l_loc == sorted(l_loc)
    assert all(proper(h.pose) for h in result.ranked)
    assert all(h.vote_support >= 1 for h in result.ranked)


def segment_scene(weights, cloud, model, n_points, **changes):
    """`_network_segmentation` alone on spheres of n_points, with
    DetectParams fields changed."""
    params = replace(pipeline.DetectParams(), spheres=SphereParams(n_points=n_points),
                     **changes)
    cloud = pipeline.ensure_channels(cloud, params.normal_radius_mm)
    return pipeline._network_segmentation(weights, cloud, NNIndex(cloud.positions), model,
                                          params, pipeline._StageClock())


def full_spheres(cloud, model, params):
    """Every usable anchor's sampled sphere ids and its ball size, drawn
    from the anchor's own stream as detect draws them."""
    index = NNIndex(cloud.positions)
    anchors = voxel_downsample(cloud, params.anchor_leaf_mm)
    spheres, balls = [], []
    for ai, anchor in enumerate(anchors):
        ids = index.ball(anchor, params.spheres.radius_factor * model.diameter)
        if len(ids) >= params.min_sphere_points:
            rng = np.random.default_rng([params.seed, ai])
            spheres.append(_sample_fill(ids, params.spheres.n_points, rng))
            balls.append(len(ids))
    return spheres, np.array(balls)


def sphere_examples(cloud, spheres):
    """Full spheres as centered training examples."""
    examples = []
    for ids in spheres:
        pos = cloud.positions[ids]
        examples.append(LabeledExample(
            positions=pos - pos.mean(axis=0), normals=cloud.normals[ids],
            curvatures=cloud.curvatures[ids], seg_labels=np.zeros(len(ids)), class_label=0,
            colors=cloud.colors[ids]))
    return examples


# classify encodes distinct points in blocks, and the segment stage runs
# one sphere per forward, so their products differ in size from one
# forward over every full sphere, and a BLAS may round them differently.
# Scores and confidences are probabilities; on this test's scene the
# scores were equal, and the confidences, from float32 logits of up to
# ~220 (an ulp of 1.5e-5), differed by up to 3.0e-5.
PROBABILITY_TOL = 1e-4


def test_classify_scores_equal_one_forward_over_full_spheres(baseline_model, small_scene,
                                                             monkeypatch):
    """Classify encodes each sphere's distinct points only, one block at a
    time, yet its scores equal one forward over every full sphere within
    PROBABILITY_TOL. 205 spheres are 51 full blocks of 4 and one of 1,
    and 28 balls hold fewer than 1024 points. The segmented anchors are
    those of one forward over the full spheres, and get its labels, and
    its confidences within PROBABILITY_TOL."""
    weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
    blocks = []
    encode = pipeline.encode

    def recording_encode(w, x, **kwargs):
        blocks.append(kwargs["counts"].copy())   # the count buffer is reused
        return encode(w, x, **kwargs)

    monkeypatch.setattr(pipeline, "encode", recording_encode)
    params = replace(pipeline.DetectParams(), spheres=SphereParams(n_points=1024), threads=1)
    cloud = pipeline.ensure_channels(small_scene.cloud, params.normal_radius_mm)
    seg = pipeline._network_segmentation(weights, cloud, NNIndex(cloud.positions),
                                         baseline_model, params, pipeline._StageClock())

    spheres, balls = full_spheres(cloud, baseline_model, params)
    per_block = network.encoder_block(1024)
    assert len(spheres) == len(seg.anchors) == 205   # rows in anchor order
    assert [len(b) for b in blocks] == [per_block] * 51 + [1]
    assert np.array_equal(np.concatenate(blocks), np.minimum(balls, 1024))
    assert (balls < 1024).sum() == 28
    features = network.assemble_features(sphere_examples(cloud, spheres))
    scores = network.forward(weights, features, want_seg=False).class_prob
    assert np.abs(seg.scored[1] - scores).max() <= PROBABILITY_TOL

    top = np.lexsort((np.arange(len(spheres)), -scores))[:16]
    assert all(np.array_equal(seg.sphere_ids[i], spheres[r]) for i, r in enumerate(top))
    logits = network.forward(weights, features[top], want_seg=True).seg_logits
    for i, lg in enumerate(logits):
        labels, conf = segment_labels(network.softmax(lg.astype(np.float64)))
        assert np.array_equal(seg.labels[i], labels)
        assert np.abs(seg.confidences[i] - conf).max() <= PROBABILITY_TOL


def test_network_segmentation_holds_no_feature_array_of_every_sphere(baseline_model,
                                                                    small_scene):
    """No (spheres, n_points, channels) array exists: the tracemalloc peak of
    the segmentation stays below one. On 205 spheres of 4096 RGB points
    (32.0 MiB of features) it read 53.0 MiB when every sphere's features
    were built before one classify forward, 17.6 MiB streamed."""
    cfg = NetworkConfig(k=baseline_model.k, input_channels=10, encoder=(8, 8, 16),
                        classifier=(8, 1), segmenter=(8, 0))
    weights = init_weights(cfg, seed=0)
    tracemalloc.start()
    try:
        seg = segment_scene(weights, small_scene.cloud, baseline_model, n_points=4096,
                            top_anchors=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(seg.scored[1]) * 4096 * 10 * 4, peak / 2 ** 20


@pytest.mark.parametrize("channels", [7, 10], ids=["geometry", "rgb"])
def test_detect_features_equal_training_features(baseline_model, small_scene, monkeypatch,
                                                 channels):
    """With normalized weights, the spheres that detection segments get the
    features `assemble_features` gives the same centered points, bit for bit.
    Dividing the centered xyz in float64 instead changed the last float32
    bit of 44% of them."""
    scale = 0.6 * baseline_model.diameter
    cfg = NetworkConfig(k=baseline_model.k, input_channels=channels, encoder=(8, 8, 16),
                        classifier=(8, 1), segmenter=(8, 0))
    weights = init_weights(cfg, seed=0, input_scale_mm=scale)
    segmented = []
    forward = pipeline.forward

    def recording_forward(w, x, **kwargs):
        segmented.append(x.copy())   # the feature buffer is reused
        return forward(w, x, **kwargs)

    monkeypatch.setattr(pipeline, "forward", recording_forward)
    cloud = small_scene.cloud
    seg = segment_scene(weights, cloud, baseline_model, n_points=512, top_anchors=4)
    expected = network.assemble_features(sphere_examples(cloud, seg.sphere_ids),
                                         input_scale_mm=scale, with_color=channels == 10)
    assert np.array_equal(np.concatenate(segmented), expected)


def sleeping(fn, seconds):
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)
    return slow


SLOW_S = 0.3


@pytest.mark.parametrize("name, stage", [("label_scene", "segment"),
                                         ("build_depth_buffer", "verify")])
def test_stage_timing_measures_only_its_stage(baseline_model, small_scene, monkeypatch,
                                              name, stage):
    monkeypatch.setattr(pipeline, name, sleeping(getattr(pipeline, name), SLOW_S))
    timings = pipeline.oracle_detect(small_scene.cloud, baseline_model,
                                     small_scene.gt_pose).timings_ms
    assert timings[stage] >= 1000 * SLOW_S
    for other in ("normals", "segment", "vote"):
        if other != stage:
            assert timings[other] < 1000 * SLOW_S, (other, timings)


def scene_files(tmp_path, model, scene):
    save_object_model(tmp_path / "model", model)
    save_scene(tmp_path / "scene", scene)
    return ["--scene", str(tmp_path / "scene.ply"), "--model", str(tmp_path / "model"),
            "--out", str(tmp_path / "pose.json"), "--dump-debug", str(tmp_path / "debug")]


DEBUG_FILES = ("A_anchors.ply", "B_scores.ply", "C_top_spheres.ply",
               "D_segmentation.ply", "E_votes.ply", "F_pose.json")


@pytest.mark.parametrize("source", ["oracle", "weights"])
def test_cli_detect_dump_debug_writes_every_stage(baseline_model, small_scene, tmp_path,
                                                  capsys, source):
    argv = ["detect"] + scene_files(tmp_path, baseline_model, small_scene)
    if source == "oracle":
        argv += ["--oracle", "--set", "detect.oracle_anchors=3"]
    else:
        save_weights(tmp_path / "w.bin", init_weights(NetworkConfig(k=baseline_model.k), 0))
        argv += ["--weights", str(tmp_path / "w.bin")]
        argv += [f"--set={assignment}" for assignment in SMALL_DETECT]
    assert cli.main(argv) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    debug = tmp_path / "debug"
    assert all((debug / name).exists() for name in DEBUG_FILES)
    payload = json.loads((debug / "F_pose.json").read_text())
    assert len(payload["hypotheses"]) == info["hypotheses"] >= 1
    # A holds every anchor counted, C every segmented sphere, D one sphere
    n_points = 2048 if source == "oracle" else 512
    assert len(read_ply(debug / "A_anchors.ply")) == payload["anchors_total"]
    assert len(read_ply(debug / "C_top_spheres.ply")) == payload["anchors_segmented"] * n_points
    assert len(read_ply(debug / "D_segmentation.ply")) == n_points
    if source == "oracle":
        assert payload["anchors_segmented"] == 3


def test_dump_shows_the_first_ranked_anchor(baseline_model, noisy_scenes, tmp_path,
                                            monkeypatch):
    """D_segmentation.ply holds the sphere of the anchor whose hypothesis
    ranks first, and E_votes.ply that anchor's vote translations. Here
    that anchor is not the first one segmented."""
    finished = []   # (ids, labels, confidences, hypothesis) per anchor, in order
    finish = pipeline._finish_anchor

    def recording(scene, scene_index, model, ids, labels, confidences, *args):
        hyp = finish(scene, scene_index, model, ids, labels, confidences, *args)
        finished.append((ids, labels, confidences, hyp))
        return hyp

    monkeypatch.setattr(pipeline, "_finish_anchor", recording)
    scene = noisy_scenes[0]
    params = pipeline.DetectParams(oracle_anchors=3, threads=1)
    result = pipeline.oracle_detect(scene.cloud, baseline_model, scene.gt_pose, params,
                                    debug_dir=tmp_path)
    first = [hyp is result.ranked[0] for *_, hyp in finished].index(True)
    assert len(finished) == 3 and first > 0
    ids, labels, confidences, _ = finished[first]

    positions = scene.cloud.positions[ids]
    assert np.array_equal(read_ply(tmp_path / "D_segmentation.ply").positions,
                          positions.astype(np.float32).astype(np.float64))
    corr = correspondences_from_segmentation(positions, scene.cloud.normals[ids], labels,
                                             confidences, baseline_model)
    votes = pose_votes(subsample_correspondences(corr, params.voting), params.voting.n_theta)
    assert np.array_equal(read_ply(tmp_path / "E_votes.ply").positions,
                          votes.translations.astype(np.float32).astype(np.float64))


# ---------------------------------------------------------------------------
# the per-anchor stages on the thread budget (DetectParams.threads)


def with_budget(params, budget):
    return replace(params, threads=budget)


def outputs(result):
    """Everything a detection reports but its timings."""
    ranked = result.ranked
    return (np.array([h.pose.rotation for h in ranked]).reshape(-1, 3, 3),
            np.array([h.pose.translation for h in ranked]).reshape(-1, 3),
            np.array([h.vote_support for h in ranked]),
            np.array([h.l_loc for h in ranked]),
            (result.anchors_total, result.anchors_skipped, result.anchors_segmented))


@pytest.mark.parametrize("source", ["oracle_0", "oracle_1", "detect"])
def test_detection_is_the_same_at_every_thread_budget(baseline_model, noisy_scenes, source):
    if source == "detect":
        weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
        params = small_detect_params()
        run = partial(pipeline.detect, raw(noisy_scenes[0].cloud), baseline_model, weights)
    else:
        scene = noisy_scenes[int(source[-1])]
        params = pipeline.DetectParams(oracle_anchors=5)
        run = partial(pipeline.oracle_detect, scene.cloud, baseline_model, scene.gt_pose)

    results = [run(with_budget(params, budget)) for budget in (1, 2, 3)]
    want = outputs(results[0])
    assert len(want[2]) >= 2
    for result in results:
        assert tuple(result.timings_ms) == pipeline.STAGES
        got = outputs(result)
        assert all(np.array_equal(g, w) for g, w in zip(got[:4], want[:4]))
        assert got[4] == want[4]


def test_every_anchor_runs_once_under_fast_thread_switching(monkeypatch):
    calls = []

    def record(scene, scene_index, model, ids, labels, confidences, icp_model, params,
               depth_buffer, clock):
        calls.append(int(ids[0]))
        return int(ids[0])

    monkeypatch.setattr(pipeline, "_finish_anchor", record)
    n = 16
    seg = pipeline._Segmentation(anchors=np.zeros((n, 3)), skipped=0, scored=None,
                                 sphere_ids=[np.array([k]) for k in range(n)],
                                 labels=[None] * n, confidences=[None] * n)
    params = with_budget(pipeline.DetectParams(), 4)  # more threads than CPUs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # the last anchors of each call are where participants race
        for _ in range(300):
            calls.clear()
            results = pipeline._finish_anchors(None, None, None, seg, None, params, None,
                                               pipeline._StageClock())
            assert results == list(range(n))
            assert sorted(calls) == list(range(n))
    finally:
        sys.setswitchinterval(interval)


def test_budget_1_starts_no_thread(baseline_model, small_scene, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started at budget 1")

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    params = with_budget(pipeline.DetectParams(oracle_anchors=3), 1)
    result = pipeline.oracle_detect(small_scene.cloud, baseline_model,
                                    small_scene.gt_pose, params)
    assert len(result.ranked) == 3


def counting_pools(monkeypatch):
    """The max_workers of every thread pool pipeline starts from now on."""
    started = []

    def counted_pool(max_workers):
        started.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", counted_pool)
    return started


@pytest.mark.parametrize("threads, pools", [(1, []), (3, [2])])
def test_cli_threads_reach_the_anchor_pool(baseline_model, small_scene, tmp_path,
                                           monkeypatch, threads, pools):
    started = counting_pools(monkeypatch)
    save_object_model(tmp_path / "model", baseline_model)
    save_scene(tmp_path / "scene", small_scene)
    assert cli.main(["detect", "--oracle", "--threads", str(threads),
                     "--set", "detect.oracle_anchors=3",
                     "--scene", str(tmp_path / "scene.ply"),
                     "--model", str(tmp_path / "model"),
                     "--out", str(tmp_path / "pose.json")]) == 0
    assert started == pools


def test_classification_is_the_same_at_every_thread_budget(baseline_model, small_scene,
                                                          monkeypatch):
    """Classify's participants draw, encode and pool their own blocks, yet
    every budget scores and segments the same spheres bit for bit. At 1024
    points, a sphere of more than 512 distinct ones splits its wide product
    into two tiles."""
    weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
    started = counting_pools(monkeypatch)
    segs = [segment_scene(weights, small_scene.cloud, baseline_model, n_points=1024,
                          threads=budget) for budget in (1, 2, 3)]
    assert started == [1, 2]   # the classify stage's pools at budgets 2 and 3
    want = segs[0]
    assert len(want.scored[1]) == 205 and len(want.sphere_ids) == 16
    for seg in segs[1:]:
        assert np.array_equal(seg.anchors, want.anchors) and seg.skipped == want.skipped
        assert all(np.array_equal(a, b) for a, b in zip(seg.scored, want.scored))
        for got, expected in ((seg.sphere_ids, want.sphere_ids), (seg.labels, want.labels),
                              (seg.confidences, want.confidences)):
            assert len(got) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_classify_encodes_fixed_anchor_blocks_at_every_budget(baseline_model, small_scene,
                                                              monkeypatch):
    """Classify's work items are blocks of encoder_block(n_points) = 4
    consecutive anchors, and each encode call takes the usable spheres of
    one block, whatever the budget. Balls of fewer than 1000 points skip
    26 of the 205 anchors here, so one block is empty and 14 hold 1 to 3
    spheres."""
    calls = []
    encode = pipeline.encode

    def recording_encode(w, x, **kwargs):
        calls.append(tuple(kwargs["counts"]))   # the count buffer is reused
        return encode(w, x, **kwargs)

    monkeypatch.setattr(pipeline, "encode", recording_encode)
    cfg = NetworkConfig(k=baseline_model.k, encoder=(8, 8, 16), classifier=(8, 1),
                        segmenter=(8, 0))
    params = replace(pipeline.DetectParams(), spheres=SphereParams(n_points=1024),
                     min_sphere_points=1000)
    cloud = pipeline.ensure_channels(small_scene.cloud, params.normal_radius_mm)
    index = NNIndex(cloud.positions)
    balls = [len(index.ball(anchor, params.spheres.radius_factor * baseline_model.diameter))
             for anchor in voxel_downsample(cloud, params.anchor_leaf_mm)]
    per_block = network.encoder_block(1024)
    blocks = [tuple(min(ball, 1024) for ball in balls[lo:lo + per_block] if ball >= 1000)
              for lo in range(0, len(balls), per_block)]
    assert len(balls) == 205 and sorted(map(len, blocks)) == [0] + [1] * 2 + [2] * 7 \
        + [3] * 5 + [4] * 37
    for budget in (1, 2, 3):
        calls.clear()
        segment_scene(init_weights(cfg, seed=0), cloud, baseline_model, n_points=1024,
                      min_sphere_points=1000, threads=budget)
        if budget == 1:
            assert calls == [block for block in blocks if block]
        assert sorted(calls) == sorted(block for block in blocks if block)


def test_detect_at_budget_1_starts_no_thread(baseline_model, noisy_scenes, monkeypatch):
    started = counting_pools(monkeypatch)
    weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
    result = pipeline.detect(raw(noisy_scenes[0].cloud), baseline_model, weights,
                             with_budget(small_detect_params(), 1))
    assert started == []
    assert result.anchors_segmented == 2


def test_wrapped_encode_classifies_on_the_calling_thread(baseline_model, small_scene,
                                                        monkeypatch):
    threads = []
    encode = pipeline.encode

    @wraps(encode)
    def traced(*args, **kwargs):
        threads.append(threading.get_ident())
        return encode(*args, **kwargs)

    monkeypatch.setattr(pipeline, "encode", traced)
    started = counting_pools(monkeypatch)
    cfg = NetworkConfig(k=baseline_model.k, encoder=(8, 8, 16), classifier=(8, 1),
                        segmenter=(8, 0))
    seg = segment_scene(init_weights(cfg, seed=0), small_scene.cloud, baseline_model,
                        n_points=256, threads=2)
    assert started == []
    assert len(threads) == -(-len(seg.scored[1]) // network.encoder_block(256)) > 1
    assert set(threads) == {threading.get_ident()}


@pytest.fixture
def blas():
    """numpy's OpenBLAS, set to 3 threads for the test, then reset."""
    lib = pipeline._numpy_openblas()
    if lib is None:
        pytest.skip("numpy has no bundled OpenBLAS thread setter")
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(3)
    yield lib
    lib.scipy_openblas_set_num_threads64_(before)


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_classify_runs_one_blas_thread_and_restores_the_count(baseline_model, noisy_scenes,
                                                              monkeypatch, blas, fail):
    """OpenBLAS runs one thread while the budget classifies, and gets its
    count back after detect returns or raises."""
    counts = []
    encode = pipeline.encode

    def counting_encode(*args, **kwargs):
        counts.append(blas.scipy_openblas_get_num_threads64_())
        if fail and len(counts) == 3:
            raise RuntimeError("third block failed")
        return encode(*args, **kwargs)

    monkeypatch.setattr(pipeline, "encode", counting_encode)
    weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
    run = partial(pipeline.detect, raw(noisy_scenes[0].cloud), baseline_model, weights,
                  with_budget(small_detect_params(), 2))
    if fail:
        with pytest.raises(RuntimeError, match="third block failed"):
            run()
        assert len(counts) >= 3
    else:
        assert run().anchors_segmented == 2
    assert set(counts) == {1}
    assert blas.scipy_openblas_get_num_threads64_() == 3


def test_oracle_labels_ignore_the_labeling_section(baseline_model, small_scene, tmp_path):
    """`detect --oracle` labels with `label_scene`'s fixed 10/20 mm bands, so
    a `labeling` override, which `prepare` reads, leaves its pose unchanged.
    Labeling this scene with a 5 mm band instead moved the pose by 0.044 mm."""
    save_object_model(tmp_path / "model", baseline_model)
    save_scene(tmp_path / "scene", small_scene)
    poses = []
    for override in ([], ["--set", "labeling.foreground_mm=5"]):
        out = tmp_path / f"pose{len(poses)}.json"
        assert cli.main(["detect", "--oracle", "--threads", "1",
                         "--scene", str(tmp_path / "scene.ply"),
                         "--model", str(tmp_path / "model"), "--out", str(out)]
                        + override) == 0
        poses.append(out.read_bytes())
    assert poses[0] == poses[1]


def test_prepare_completes_a_scene_without_normals_as_detect_does(baseline_model, small_scene,
                                                                 tmp_path, monkeypatch):
    """`prepare` on a scene PLY without normals writes the dataset of the
    same scene with the normals and curvatures that `detect` estimates for
    it attached. It wrote zero normals and curvatures, which the jitter
    turned into random unit normals."""
    save_object_model(tmp_path / "model", baseline_model)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    save_scene(scenes / "scene", small_scene)
    write_ply(scenes / "scene.ply", PointCloud(positions=small_scene.cloud.positions,
                                               colors=small_scene.cloud.colors))
    argv = ["prepare", "--scenes", str(scenes), "--model", str(tmp_path / "model"),
            "--set", "examples.n_points=256", "--out"]
    assert cli.main(argv + [str(tmp_path / "raw.bin")]) == 0
    cloud, gt = load_scene(scenes / "scene")
    assert cloud.normals is None and cloud.curvatures is None
    completed = estimate_normals(cloud, pipeline.DetectParams().normal_radius_mm,
                                 cloud.view_origin)
    monkeypatch.setattr(cli, "load_scene", lambda stem: (completed, gt))
    assert cli.main(argv + [str(tmp_path / "completed.bin")]) == 0
    assert (tmp_path / "raw.bin").read_bytes() == (tmp_path / "completed.bin").read_bytes()


def test_wrapped_stage_runs_anchors_on_the_calling_thread(baseline_model, small_scene,
                                                         monkeypatch):
    # a tracer-style wrapper may keep one call stack for every thread
    threads = []
    icp_refine = pipeline.icp_refine

    @wraps(icp_refine)
    def traced(*args, **kwargs):
        threads.append(threading.get_ident())
        return icp_refine(*args, **kwargs)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started for a wrapped stage")

    monkeypatch.setattr(pipeline, "icp_refine", traced)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    params = with_budget(pipeline.DetectParams(oracle_anchors=3), 2)
    result = pipeline.oracle_detect(small_scene.cloud, baseline_model,
                                    small_scene.gt_pose, params)
    assert len(result.ranked) == 3
    assert threads == [threading.get_ident()] * 3


def test_thread_budget_without_cpu_affinity(monkeypatch):
    monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 3)
    assert pipeline.thread_budget(0) == 3
    assert pipeline.thread_budget(2) == 2
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)
    assert pipeline.thread_budget(0) == 1


def test_anchor_error_reaches_the_caller(baseline_model, small_scene, monkeypatch):
    calls = itertools.count(1)
    icp_refine = pipeline.icp_refine

    def failing_third(*args, **kwargs):
        if next(calls) == 3:
            raise RuntimeError("third anchor failed")
        return icp_refine(*args, **kwargs)

    monkeypatch.setattr(pipeline, "icp_refine", failing_third)
    params = with_budget(pipeline.DetectParams(oracle_anchors=5), 2)
    raised = []

    def run():
        try:
            pipeline.oracle_detect(small_scene.cloud, baseline_model,
                                   small_scene.gt_pose, params)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive(), "detection hung after an anchor failed"
    assert [str(exc) for exc in raised] == ["third anchor failed"]


def spy(monkeypatch, name, fail=None):
    """Wrap `pipeline.<name>`: the list of its results in call order, where
    its first call raises `fail` instead when `fail` is given (None in the
    list)."""
    results = []
    fn = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        if fail is not None and not results:
            results.append(None)
            raise fail
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pipeline, name, wrapper)
    return results


# three oracle anchors, finished in anchor order on the calling thread
FINISH_PARAMS = pipeline.DetectParams(oracle_anchors=3, threads=1)


def test_anchor_without_a_hypothesis_is_left_out_of_the_ranking(baseline_model, small_scene,
                                                                 monkeypatch):
    """An anchor whose vote raises NoHypothesisError gives no hypothesis,
    and the other anchors still rank as they did beside it."""
    run = partial(pipeline.oracle_detect, small_scene.cloud, baseline_model,
                  small_scene.gt_pose, FINISH_PARAMS)
    with monkeypatch.context() as patch:
        every = spy(patch, "verify")
        run()
    assert len(every) == 3

    spy(monkeypatch, "estimate_pose", fail=NoHypothesisError("no density peak"))
    verified = spy(monkeypatch, "verify")
    result = run()
    assert (result.anchors_segmented, len(verified), len(result.ranked)) == (3, 2, 2)
    others = pipeline.DetectionResult(ranked=sorted(every[1:], key=lambda h: h.l_loc),
                                      timings_ms={})
    assert all(np.array_equal(g, w) for g, w in zip(outputs(result)[:4], outputs(others)[:4]))


def test_anchor_whose_icp_finds_no_overlap_keeps_its_voted_pose(baseline_model, small_scene,
                                                                 monkeypatch):
    """An anchor whose ICP raises NoOverlapError is verified and ranked
    with its voted pose; the other anchors are refined."""
    voted = spy(monkeypatch, "estimate_pose")
    refined = spy(monkeypatch, "icp_refine", fail=NoOverlapError("no pairs in the gate"))
    verified = spy(monkeypatch, "verify")
    result = pipeline.oracle_detect(small_scene.cloud, baseline_model, small_scene.gt_pose,
                                    FINISH_PARAMS)
    assert len(voted) == len(refined) == len(verified) == 3
    assert np.array_equal(verified[0].pose.rotation, voted[0].pose.rotation)
    assert np.array_equal(verified[0].pose.translation, voted[0].pose.translation)
    assert np.isfinite(verified[0].l_loc)
    assert any(h is verified[0] for h in result.ranked)
    for k in (1, 2):
        assert verified[k].pose is refined[k]


# ---------------------------------------------------------------------------
# evaluation: one loop, in the calling process or on a pool of forked workers


@pytest.fixture(scope="module")
def eval_files(baseline_model, noisy_scenes, tmp_path_factory):
    """The 4 noisy scenes and the model as files."""
    root = tmp_path_factory.mktemp("eval")
    (root / "scenes").mkdir()
    save_object_model(root / "model", baseline_model)
    for scene in noisy_scenes:
        save_scene(root / "scenes" / scene.scene_id, scene)
    return root


def cli_eval(root, threads, capsys):
    """`cli eval --oracle`: its CSV without the `_ms` columns, and its summary."""
    out = root / f"threads{threads}"
    assert cli.main(["eval", "--oracle", "--threads", str(threads),
                     "--scenes", str(root / "scenes"), "--model", str(root / "model"),
                     "--out-csv", f"{out}.csv", "--out-json", f"{out}.json"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == json.loads(Path(f"{out}.json").read_text())
    return without_timings(Path(f"{out}.csv").read_text()), summary


def without_timings(text):
    rows = list(csv.reader(io.StringIO(text)))
    keep = [j for j, name in enumerate(rows[0]) if not name.endswith("_ms")]
    return [[row[j] for j in keep] for row in rows]


def test_cli_eval_is_the_same_serial_and_pooled(eval_files, capsys, monkeypatch):
    serial, summary = cli_eval(eval_files, 1, capsys)

    caller = os.getpid()

    def load_in_a_worker(stem):
        if os.getpid() == caller:
            raise AssertionError("the calling process loaded a scene")
        return load_scene(stem)

    monkeypatch.setattr(cli, "load_scene", load_in_a_worker)
    pooled, pooled_summary = cli_eval(eval_files, 2, capsys)
    monkeypatch.undo()

    assert pooled == serial
    assert pooled_summary == summary
    assert summary["scenes"] == 4 and summary["success_fraction"] == 1.0

    plys = sorted((eval_files / "scenes").glob("*.ply"))
    scenes = [(ply.stem, *load_scene(ply.with_suffix(""))) for ply in plys]
    config = RunConfig()
    report = pipeline.evaluate(scenes, load_object_model(eval_files / "model"), None,
                               with_budget(config.detect_params(), 1),
                               config.evaluation.threshold_factor, use_oracle=True)
    assert without_timings(report.to_csv()) == serial


def test_pool_workers_look_up_evaluate_scene_when_they_run(model, tmp_path, monkeypatch):
    """A wrapper installed on `pipeline.evaluate_scene` before the pool forks,
    as a span tracer installs one, runs in every worker."""
    calls = tmp_path / "calls.txt"

    def logged(cloud, gt, model, weights, params, threshold_factor, scene_id, use_oracle):
        with open(calls, "a") as f:
            f.write(f"{scene_id} {os.getpid()}\n")
        return pipeline.SceneRecord(scene_id=scene_id, add=1.0, adds=1.0, l_loc=1.0,
                                    s_kde=1.0, success=True, timings_ms={})

    monkeypatch.setattr(pipeline, "evaluate_scene", logged)
    scenes = [(f"scene_{i}", None, None) for i in range(4)]
    report = pipeline.evaluate(scenes, model, None,
                               with_budget(pipeline.DetectParams(), 2), use_oracle=True)

    assert [r.scene_id for r in report.records] == [s[0] for s in scenes]
    logged_ids, pids = zip(*(line.split() for line in calls.read_text().splitlines()))
    assert sorted(logged_ids) == [s[0] for s in scenes]
    assert str(os.getpid()) not in pids


@pytest.mark.parametrize("budget, share", [(2, 1), (6, 3)])
def test_pool_workers_run_blas_on_their_thread_share(model, monkeypatch, budget, share):
    """Each forked worker of a 2-scene run sets numpy's OpenBLAS to its
    share of the thread budget; the calling process keeps its own."""
    blas = pipeline._numpy_openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS thread setter")
    before = blas.scipy_openblas_get_num_threads64_()

    def report_blas(cloud, gt, model, weights, params, threshold_factor, scene_id,
                    use_oracle):
        threads = pipeline._numpy_openblas().scipy_openblas_get_num_threads64_()
        return pipeline.SceneRecord(scene_id=scene_id, add=1.0, adds=1.0, l_loc=1.0,
                                    s_kde=1.0, success=True, timings_ms={"blas": threads})

    monkeypatch.setattr(pipeline, "evaluate_scene", report_blas)
    scenes = [(f"scene_{i}", None, None) for i in range(2)]
    report = pipeline.evaluate(scenes, model, None,
                               with_budget(pipeline.DetectParams(), budget), use_oracle=True)
    assert [r.timings_ms["blas"] for r in report.records] == [share, share]
    assert blas.scipy_openblas_get_num_threads64_() == before


@pytest.mark.parametrize("adds, mean", [([2.0, float("inf"), 4.0], 3.0),
                                        ([float("inf")], None)])
def test_eval_summary_is_strict_json(adds, mean):
    records = [pipeline.SceneRecord(scene_id=f"s{i}", add=a, adds=a, l_loc=a, s_kde=0.0,
                                    success=False, timings_ms={})
               for i, a in enumerate(adds)]
    summary = pipeline.EvaluationReport(records, 0.1, 100.0).summary()
    json.dumps(summary, allow_nan=False)
    assert summary["mean_add_mm"] == mean


# kernel micro-benchmarks: pytest -m perf


@pytest.mark.perf
@pytest.mark.parametrize("budget", [1, 2])
def test_oracle_detect_anchor_threads_speed(benchmark, baseline_model, noisy_scenes, budget):
    """One oracle scene, 16 anchors, serial and on two threads."""
    scene = noisy_scenes[0]
    params = with_budget(pipeline.DetectParams(oracle_anchors=16), budget)
    result = benchmark.pedantic(pipeline.oracle_detect,
                                (scene.cloud, baseline_model, scene.gt_pose, params),
                                rounds=3, iterations=1)
    assert result.anchors_segmented == 16


@pytest.fixture(scope="module")
def baseline_cloud(baseline_model):
    """The detect benchmark's input, scene [0, 0] without normals, with the
    normals and curvatures that detect estimates for it."""
    scene = synth_scene(baseline_model, np.random.default_rng([0, 0]), NOISY)
    return pipeline.ensure_channels(raw(scene.cloud), pipeline.DetectParams().normal_radius_mm)


@pytest.fixture(scope="module")
def baseline_spheres(baseline_model, baseline_cloud):
    """8 full spheres of the detect benchmark's input (default
    DetectParams), evenly spaced over its 682 anchors, and their counts of
    distinct points."""
    params = pipeline.DetectParams()
    cloud = baseline_cloud
    spheres, balls = full_spheres(cloud, baseline_model, params)
    picks = np.linspace(0, len(spheres) - 1, 8).astype(int)
    weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
    feats = pipeline._sphere_features(cloud, np.stack([spheres[i] for i in picks]), weights,
                                      np.empty((8, params.spheres.n_points, 7), np.float32))
    return weights, feats, np.minimum(balls[picks], params.spheres.n_points)


@pytest.mark.perf
@pytest.mark.parametrize("distinct", [False, True], ids=["every_row", "distinct_rows"])
def test_classify_encode_speed(benchmark, baseline_spheres, distinct):
    """`encode` of 8 detect-input spheres (four classify blocks), over every
    row or over each sphere's distinct rows."""
    weights, feats, counts = baseline_spheres
    pool = network.BufferPool()
    g = benchmark(network.encode, weights, feats, pool=pool,
                  counts=counts if distinct else None)[0]
    assert g.shape == (8, 1024)


@pytest.mark.perf
@pytest.mark.parametrize("budget", [1, 2])
def test_network_segmentation_speed(benchmark, baseline_model, baseline_cloud, budget):
    """Anchors, classify and segment of the detect benchmark's input: 682
    spheres classified on one thread and on two."""
    weights = init_weights(NetworkConfig(k=baseline_model.k), seed=0)
    params = with_budget(pipeline.DetectParams(), budget)
    index = NNIndex(baseline_cloud.positions)
    seg = benchmark.pedantic(pipeline._network_segmentation,
                             (weights, baseline_cloud, index, baseline_model, params,
                              pipeline._StageClock()), rounds=2, iterations=1)
    assert len(seg.anchors) == 682 and len(seg.sphere_ids) == 16


@pytest.mark.parametrize("symmetric", [True, False])
def test_eval_scores_a_symmetric_model_by_adds(symmetric, monkeypatch):
    """A 4-fold model detected one symmetry step away from its gt pose: ADD
    is far above the threshold, ADD-S is about 0, and the scene succeeds
    only when the model declares its symmetry."""
    rng = np.random.default_rng(4)
    quadrant = rng.uniform([5.0, 5.0, -40.0], [60.0, 60.0, 40.0], (200, 3))
    turns = [rotation_about_axis(np.array([0, 0, 1.0]), k * np.pi / 2) for k in range(4)]
    cloud = PointCloud(positions=np.concatenate([quadrant @ r.T for r in turns]))
    symmetry = SymmetryDescriptor(kind="cyclic", fold=4, axis=[0, 0, 1], center=[0, 0, 0]) \
        if symmetric else SymmetryDescriptor()
    model = ObjectModel(cloud=cloud, keypoints=[Keypoint(np.zeros(3), np.array([0, 0, 1.0]))],
                        diameter=model_diameter(cloud), symmetry=symmetry)
    gt = RigidPose(random_rotation(rng), np.array([10.0, -20.0, 900.0]))
    turned = RigidPose(gt.rotation @ turns[1], gt.translation)

    def detected(scene, model, gt, params):
        hyp = PoseHypothesis(pose=turned, s_kde=1.0, vote_support=1, l_loc=0.0)
        return pipeline.DetectionResult(ranked=[hyp], timings_ms={})

    monkeypatch.setattr(pipeline, "oracle_detect", detected)
    record = pipeline.evaluate_scene(cloud, gt, model, None, pipeline.DetectParams(),
                                     threshold_factor=0.1, use_oracle=True)
    threshold = 0.1 * model.diameter
    assert record.add > 3 * threshold
    assert record.adds < 1e-9
    assert record.success == symmetric


def test_evaluate_scene_without_weights_needs_the_oracle(model, monkeypatch):
    """weights=None without use_oracle raises: no oracle record stands in
    for a detection."""
    def detected(*args):
        raise AssertionError("no detection may run")

    monkeypatch.setattr(pipeline, "oracle_detect", detected)
    monkeypatch.setattr(pipeline, "detect", detected)
    with pytest.raises(ValueError, match="needs weights unless use_oracle is set"):
        pipeline.evaluate_scene(colourless_scene(), RigidPose.identity(), model, None,
                                pipeline.DetectParams(), threshold_factor=0.1)
