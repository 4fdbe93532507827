"""The CLI's exit-code contract on bad input files: 0 ok, 1 runtime
failure, 2 usage or input error, and an `error:` line instead of a
traceback."""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpose import cli, pipeline
from pointpose.modelprep import save_object_model
from pointpose.network import NetworkConfig, init_weights, save_weights
from pointpose.ply import write_ply
from pointpose.pointcloud import PointCloud
from pointpose.pose import RigidPose
from pointpose.synth import make_test_object
from pointpose.voting import PoseHypothesis

SIDECAR = {"pose": {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "translation_mm": [0, 0, 900]},
           "intrinsics": {"fx": 570.0, "fy": 570.0, "cx": 320.0, "cy": 240.0,
                          "width": 640, "height": 480},
           "view_origin_mm": [0.0, 0.0, 0.0],
           "noise_sigma_mm": 0.5}


@pytest.fixture(scope="module")
def model():
    return make_test_object(n_points=800)


def scene_cloud(n):
    rng = np.random.default_rng(0)
    return PointCloud(positions=rng.uniform(-100, 100, (n, 3)) + [0.0, 0.0, 900.0])


def write_files(root: Path, model, scene: PointCloud) -> None:
    save_object_model(root / "model", model)
    write_ply(root / "scene.ply", scene)
    (root / "scene.json").write_text(json.dumps(SIDECAR))


def run(root: Path, command: str, source: str):
    """cli.main on the files under root: (exit code, stderr)."""
    files = {"detect": ["--scene", str(root / "scene.ply"), "--out", str(root / "pose.json")],
             "eval": ["--scenes", str(root), "--out-csv", str(root / "eval.csv"),
                      "--out-json", str(root / "eval.json")]}[command]
    source = ["--oracle"] if source == "oracle" else ["--weights", str(root / "w.bin")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--model", str(root / "model"), "--threads", "1"]
                        + files + source)
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# empty and sparse scenes


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_scene_file_of_no_points_exits_2(model, tmp_path, command):
    """An empty scene file is bad input, not a scene where detection fails."""
    write_files(tmp_path, model, PointCloud(positions=np.zeros((0, 3))))
    code, err = run(tmp_path, command, "oracle")
    assert code == 2
    assert err.startswith("error: ") and "scene.ply: the scene holds no points" in err


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_scene_whose_anchors_hold_too_few_points_exits_1(model, tmp_path, command):
    """30 points make no 64-point anchor sphere: detection fails at run time."""
    write_files(tmp_path, model, scene_cloud(30))
    save_weights(tmp_path / "w.bin", init_weights(NetworkConfig(k=model.k), seed=0))
    code, err = run(tmp_path, command, "weights")
    assert code == 1
    assert err.startswith("error: no anchor sphere held 64 points")


@pytest.mark.parametrize("points", [0, 1])
def test_model_file_of_no_or_non_finite_points_exits_2(model, tmp_path, points):
    write_files(tmp_path, model, scene_cloud(100))
    write_ply(tmp_path / "model.ply",
              PointCloud(positions=np.full((points, 3), np.nan)))
    code, err = run(tmp_path, "detect", "oracle")
    assert code == 2
    assert err.startswith("error: ") and "expected one or more points" in err


# ---------------------------------------------------------------------------
# mutated input files


def json_paths(doc, prefix=()):
    """The path of every value in a JSON document, the root's included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def mutate_json(text: str, data) -> str:
    """Drop one value, swap its type, make it NaN, or truncate the file."""
    doc = json.loads(text)
    kind = data.draw(st.sampled_from(["drop", "swap", "nan", "truncate"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = float("nan") if kind == "nan" else data.draw(st.sampled_from(
        [None, "x", True, 0, -1, 1e300, [], [1, 2], {}, {"a": 1}]))
    if not path:
        return json.dumps(None if kind == "drop" else value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def mutate_ply(blob: bytes, data) -> bytes:
    """Change one byte of the header, or truncate the file."""
    if data.draw(st.booleans()):
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    header_end = blob.index(b"end_header\n") + len(b"end_header\n")
    at = data.draw(st.integers(0, header_end - 1))
    return blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:]


def loaded(scene, model, gt, params, debug_dir=None):
    """Stands in for detection: the files have loaded."""
    hyp = PoseHypothesis(pose=RigidPose(np.eye(3), np.zeros(3)), s_kde=1.0, vote_support=1,
                         l_loc=0.0)
    return pipeline.DetectionResult(best=hyp, ranked=[hyp], timings_ms={})


@functools.lru_cache(maxsize=1)
def input_files() -> dict:
    """The bytes of a valid model and annotated scene (a module constant,
    so that a falsifying example does not print them)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_files(root, make_test_object(n_points=800), scene_cloud(200))
        return {name: (root / name).read_bytes()
                for name in ("model.json", "model.ply", "scene.json", "scene.ply")}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_files_keep_the_exit_code_contract(data):
    """A dropped key, a swapped type, a NaN or a truncation in model.json or
    the scene sidecar, or a changed header byte or a truncation of either
    PLY, exits 0, or 1 or 2 with an `error:` line; no exception escapes.
    Detection is stubbed out: the files only have to load."""
    files = dict(input_files())
    target = data.draw(st.sampled_from(sorted(files)))
    if target.endswith(".json"):
        files[target] = mutate_json(files[target].decode(), data).encode()
    else:
        files[target] = mutate_ply(files[target], data)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "oracle_detect", loaded):
        root = Path(tmp)
        for name, blob in files.items():
            (root / name).write_bytes(blob)
        code, err = run(root, "detect", "oracle")
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: "), err
