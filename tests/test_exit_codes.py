"""The CLI's exit-code contract on bad input files: 0 ok, 1 runtime
failure, 2 usage or input error, and an `error:` line instead of a
traceback. Scene, model, weights, dataset and config files are each
checked on hand-made faults and fuzzed."""

import contextlib
import csv
import functools
import io
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpose import cli, pipeline
from pointpose.dataset import _HEADER, LabeledExample, write_dataset
from pointpose.modelprep import save_object_model
from pointpose.network import NetworkConfig, init_weights, save_weights
from pointpose.ply import read_ply, write_ply
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
DEFAULT_CONFIG = Path(__file__).parent / "data" / "default_config.json"


# a small network, and a cheap network detect: coarse anchors, small
# spheres, two segmented anchors, fewer votes
def tiny_config(k):
    return NetworkConfig(k=k, encoder=(8, 8, 16), classifier=(8, 1), segmenter=(8, 0))


SMALL_DETECT = ["detect.anchor_leaf_mm=80", "detect.top_anchors=2",
                "examples.n_points=512", "voting.max_correspondences=100"]


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


def run(root: Path, command: str, source: str = "", *extra: str):
    """cli.main on the files under root: (exit code, stderr)."""
    files = {"detect": ["--scene", str(root / "scene.ply"), "--out", str(root / "pose.json")],
             "eval": ["--scenes", str(root), "--out-csv", str(root / "eval.csv"),
                      "--out-json", str(root / "eval.json")],
             "train": ["--dataset", str(root / "d.bin"), "--out", str(root / "trained.bin")],
             "prepare": ["--scenes", str(root), "--out", str(root / "d.bin")]}[command]
    source = {"oracle": ["--oracle"], "weights": ["--weights", str(root / "w.bin")],
              "": []}[source]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--model", str(root / "model"), "--threads", "1"]
                        + files + source + list(extra))
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# options


@pytest.mark.parametrize("command", ["detect", "eval"])
@pytest.mark.parametrize("source, extra, message", [
    ("", (), "error: one of the arguments --weights --oracle is required"),
    ("oracle", ("--weights", "w.bin"), "error: argument --weights: not allowed with "
                                       "argument --oracle"),
], ids=["neither", "both"])
def test_detect_and_eval_take_exactly_one_source(model, tmp_path, command, source, extra,
                                                 message):
    """`detect` and `eval` segment with the weights or the oracle: both
    options, or neither, exit 2 with argparse's error and run nothing."""
    write_files(tmp_path, model, scene_cloud(200))
    save_weights(tmp_path / "w.bin", init_weights(tiny_config(model.k), seed=0))
    extra = [str(tmp_path / arg) if arg == "w.bin" else arg for arg in extra]
    code, err = run(tmp_path, command, source, *extra)
    assert code == 2
    assert message in err
    assert not any((tmp_path / name).exists() for name in ("pose.json", "eval.csv"))


def test_main_returns_argparse_codes():
    """`main` returns argparse's exit code instead of raising SystemExit:
    0 after --help, 2 after a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["--help"]) == 0
        assert cli.main(["detect", "--help"]) == 0
        assert cli.main(["detect"]) == 2
    assert out.getvalue().startswith("usage: pointpose")
    assert "error: the following arguments are required" in err.getvalue()


# ---------------------------------------------------------------------------
# empty and sparse scenes


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_scene_file_of_no_points_exits_2(model, tmp_path, command):
    """An empty scene file is bad input, not a scene where detection fails."""
    write_files(tmp_path, model, PointCloud(positions=np.zeros((0, 3))))
    code, err = run(tmp_path, command, "oracle")
    assert code == 2
    assert err.startswith("error: ") and "scene.ply: the scene holds no points" in err


@pytest.mark.parametrize("source", ["weights", "oracle"])
def test_scene_whose_anchors_hold_too_few_points_exits_1(model, tmp_path, source):
    """30 points make no 64-point anchor sphere: either segmentation source
    finds no pose, and `detect` says how many anchors it had."""
    write_files(tmp_path, model, scene_cloud(30))
    save_weights(tmp_path / "w.bin", init_weights(tiny_config(model.k), seed=0))
    code, err = run(tmp_path, "detect", source)
    assert code == 1
    assert err.startswith("error: no pose: 0 of ")
    assert "held fewer than 64 points), and none gave a hypothesis" in err
    assert not (tmp_path / "pose.json").exists()


def test_eval_records_a_scene_without_a_usable_sphere_as_failed(model, tmp_path):
    """A sphere-less scene among others is one failed row of `eval --weights`,
    serial and pooled alike, not the end of the run."""
    save_object_model(tmp_path / "model", model)
    save_weights(tmp_path / "w.bin", init_weights(tiny_config(model.k), seed=0))
    (tmp_path / "scenes").mkdir()
    for name, n in (("a_sparse", 30), ("b_dense", 300)):
        write_ply(tmp_path / "scenes" / f"{name}.ply", scene_cloud(n))
        (tmp_path / "scenes" / f"{name}.json").write_text(json.dumps(SIDECAR))
    tables = []
    for threads in (1, 2):
        out = tmp_path / f"eval{threads}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--weights", str(tmp_path / "w.bin"),
                             "--model", str(tmp_path / "model"),
                             "--scenes", str(tmp_path / "scenes"), "--threads", str(threads),
                             "--out-csv", f"{out}.csv", "--out-json", f"{out}.json"]
                            + [a for kv in SMALL_DETECT for a in ("--set", kv)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(Path(f"{out}.csv").read_text())))
        tables.append([{k: v for k, v in r.items() if not k.endswith("_ms")} for r in rows])
    assert tables[0] == tables[1]
    assert [r["scene_id"] for r in tables[0]] == ["a_sparse", "b_dense"]
    assert tables[0][0]["add_mm"] == "inf" and tables[0][0]["success"] == "0"
    assert np.isfinite(float(tables[0][1]["add_mm"]))  # the other scene has a pose


def test_prepare_whose_every_scene_fails_exits_2(model, tmp_path):
    """200 random points hold too few foreground points for any example."""
    write_files(tmp_path, model, scene_cloud(200))
    code, err = run(tmp_path, "prepare")
    assert code == 2
    assert err.startswith("error: every scene failed (1); scene: ") and "foreground" in err
    assert not (tmp_path / "d.bin").exists()


@pytest.mark.parametrize("colourless", ["scene_0000", "scene_0001"])
def test_prepare_on_scenes_with_and_without_colours_exits_2(tmp_path, colourless):
    """One dataset holds one record layout: a scene whose colour channel
    differs from the first scene's stops prepare before a file is written."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(tmp_path), "--count", "2"]) == 0
    ply = (tmp_path / colourless).with_suffix(".ply")
    write_ply(ply, PointCloud(positions=read_ply(ply).positions))
    code, err = run(tmp_path, "prepare")
    assert code == 2
    has = {"scene_0000": "has none", "scene_0001": "has one"}[colourless]
    lacks = {"scene_0000": "has a", "scene_0001": "has no"}[colourless]
    assert err == (f"error: scene_0001 {lacks} colour channel and scene_0000 {has}: "
                   "the scenes of one dataset need the same channels\n")
    assert not (tmp_path / "d.bin").exists()


@pytest.mark.parametrize("points", [0, 1])
def test_model_file_of_no_or_non_finite_points_exits_2(model, tmp_path, points):
    write_files(tmp_path, model, scene_cloud(100))
    write_ply(tmp_path / "model.ply",
              PointCloud(positions=np.full((points, 3), np.nan)))
    code, err = run(tmp_path, "detect", "oracle")
    assert code == 2
    assert err.startswith("error: ") and "expected one or more points" in err


# ---------------------------------------------------------------------------
# well-formed dataset and weights files of invalid values


def examples(sizes=(4, 4), labels=(0, 1), top_label=2):
    """Point sets of the given sizes, class labels, and seg labels up to top_label."""
    rng = np.random.default_rng(1)
    return [LabeledExample(positions=rng.standard_normal((n, 3)),
                           normals=np.tile([0, 0, 1.0], (n, 1)), curvatures=np.zeros(n),
                           seg_labels=np.arange(n) % (top_label + 1), class_label=c)
            for n, c in zip(sizes, labels)]


def class_byte_5(path):
    blob = bytearray(path.read_bytes())
    blob[_HEADER.size + 4] = 5   # record 0: after its u32 length comes the class byte
    path.write_bytes(bytes(blob))


def nan_position(path):
    blob = bytearray(path.read_bytes())
    blob[_HEADER.size + 5:_HEADER.size + 9] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("k, records, edit, message", [
    (0, examples(), None, "header: keypoint count k must be at least 1"),
    (2, examples(sizes=(1, 1)), None, "record 0: 1 points, expected at least 2"),
    (2, examples(sizes=(4, 5)), None, "record 1: 5 points, expected 4"),
    (2, examples(top_label=3), None, "record 0: seg label 3 above k = 2"),
    (2, [], None, "the dataset holds no examples"),
    (2, examples(), class_byte_5, "record 0: class byte 5, expected 0 or 1"),
    (2, examples(), nan_position, "record 0: a NaN or infinite value"),
], ids=["k0", "one_point", "ragged", "label_above_k", "empty", "class_5", "nan"])
def test_invalid_dataset_values_exit_2(model, tmp_path, k, records, edit, message):
    write_files(tmp_path, model, scene_cloud(100))
    write_dataset(tmp_path / "d.bin", records, k=k)
    if edit:
        edit(tmp_path / "d.bin")
    code, err = run(tmp_path, "train", "", "--set", "network.normalize=false")
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "trained.bin").exists()


@pytest.mark.parametrize("normalize", ["true", "false"])
def test_train_with_a_model_of_another_keypoint_count_exits_2(model, tmp_path, normalize):
    """A 2-keypoint dataset with a model of more keypoints would train
    weights that every detect with that model rejects."""
    write_files(tmp_path, model, scene_cloud(100))
    write_dataset(tmp_path / "d.bin", examples(), k=2)
    assert model.k != 2
    code, err = run(tmp_path, "train", "", "--set", f"network.normalize={normalize}")
    assert code == 2
    assert err.startswith("error: ") and \
        f"the dataset labels 2 keypoints, the model {tmp_path / 'model'} has {model.k}" in err
    assert not (tmp_path / "trained.bin").exists()


def test_train_with_colour_on_a_dataset_without_colours_exits_2(model, tmp_path):
    """network.use_color=true asks for RGB inputs; a dataset without them
    does not fit the run, rather than training a geometry-only network."""
    write_files(tmp_path, model, scene_cloud(100))
    write_dataset(tmp_path / "d.bin", examples(), k=model.k)
    code, err = run(tmp_path, "train", "", "--set", "network.use_color=true",
                    "--set", "network.normalize=false")
    assert code == 2
    assert err == (f"error: network.use_color=true, but {tmp_path / 'd.bin'} holds "
                   "no colours\n")
    assert not (tmp_path / "trained.bin").exists()


def test_train_whose_loss_diverges_exits_1(model, tmp_path):
    """A learning rate of 1e6 turns the loss NaN in the second epoch: train
    stops with an error instead of writing NaN weights and a NaN summary.
    Its overflowing float32 products raise no RuntimeWarning (which this
    suite turns into an error): stderr holds the first epoch's line and the
    one error line."""
    write_files(tmp_path, model, scene_cloud(100))
    write_dataset(tmp_path / "d.bin", examples(sizes=(64,) * 4, labels=(0, 1, 0, 1)),
                  k=model.k)
    code, err = run(tmp_path, "train", "", "--set", "training.learning_rate=1000000",
                    "--set", "training.epochs=3", "--set", "network.normalize=false")
    assert code == 1
    first, *rest = err.splitlines()
    assert first.startswith("epoch 1/3: loss ")
    assert rest == ["error: training diverged: epoch 2 has a mean loss of nan"]
    assert not (tmp_path / "trained.bin").exists()
    assert not (tmp_path / "trained.loss.csv").exists()


def with_header(blob: bytes, edit) -> bytes:
    """A weights file whose header JSON `edit` has changed."""
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    return blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + hlen:]


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["config"]["encoder"].__setitem__(0, 8.0), "must be integers"),
    (lambda h: h["config"].__setitem__("k", float(h["config"]["k"])), "must be integers"),
    (lambda h: h.__setitem__("input_scale_mm", float("nan")), "input_scale_mm nan"),
    (lambda h: h.__setitem__("input_scale_mm", -1.0), "input_scale_mm -1.0"),
], ids=["float_width", "float_k", "nan_scale", "negative_scale"])
def test_invalid_weights_header_values_exit_2(model, tmp_path, edit, message):
    write_files(tmp_path, model, scene_cloud(200))
    save_weights(tmp_path / "w.bin", init_weights(tiny_config(model.k), seed=0))
    (tmp_path / "w.bin").write_bytes(with_header((tmp_path / "w.bin").read_bytes(), edit))
    code, err = run(tmp_path, "detect", "weights")
    assert code == 2
    assert err.startswith("error: bad weights header") and message in err


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


def change_byte(blob: bytes, lo: int, hi: int, data) -> bytes:
    """Set one byte in blob[lo:hi] to any value."""
    at = data.draw(st.integers(lo, hi - 1))
    return blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:]


def truncate(blob: bytes, data) -> bytes:
    return blob[:data.draw(st.integers(0, len(blob) - 1))]


def mutate_ply(blob: bytes, data) -> bytes:
    """Change one byte of the header, or truncate the file."""
    if data.draw(st.booleans()):
        return truncate(blob, data)
    return change_byte(blob, 0, blob.index(b"end_header\n") + len(b"end_header\n"), data)


def mutate_weights(blob: bytes, data) -> bytes:
    """Mutate the header JSON, change a checksum byte, or truncate the file."""
    kind = data.draw(st.sampled_from(["header", "checksum", "truncate"]))
    if kind == "truncate":
        return truncate(blob, data)
    (hlen,) = struct.unpack_from("<I", blob, 4)
    if kind == "checksum":
        return change_byte(blob, 8 + hlen, 12 + hlen, data)
    header = mutate_json(blob[8:8 + hlen].decode(), data).encode()
    return blob[:4] + struct.pack("<I", len(header)) + header + blob[8 + hlen:]


def mutate_dataset(blob: bytes, data) -> bytes:
    """Change one byte of the header, of the first record's length and
    class byte, or of the records, or truncate the file."""
    kind = data.draw(st.sampled_from(["header", "prefix", "records", "truncate"]))
    if kind == "truncate":
        return truncate(blob, data)
    h = _HEADER.size
    lo, hi = {"header": (0, h), "prefix": (h, h + 5), "records": (h, len(blob))}[kind]
    return change_byte(blob, lo, hi, data)


def loaded(scene, model, source, params, debug_dir=None):
    """Stands in for detection: the files have loaded."""
    hyp = PoseHypothesis(pose=RigidPose(np.eye(3), np.zeros(3)), s_kde=1.0, vote_support=1,
                         l_loc=0.0)
    return pipeline.DetectionResult(ranked=[hyp], timings_ms={})


def trained(*args, **kwargs):
    """Stands in for training: the dataset has loaded."""
    return init_weights(tiny_config(2), seed=0), [1.0]


SCENE_FILES = ("model.json", "model.ply", "scene.json", "scene.ply")


@functools.lru_cache(maxsize=1)
def input_files() -> dict:
    """The bytes of a valid model, annotated scene, weights file, dataset
    and config (a module constant, so that a falsifying example does not
    print them)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model = make_test_object(n_points=800)
        write_files(root, model, scene_cloud(200))
        save_weights(root / "w.bin", init_weights(tiny_config(model.k), seed=0))
        write_dataset(root / "d.bin", examples(sizes=(2, 2)), k=model.k)
        files = {name: (root / name).read_bytes() for name in SCENE_FILES + ("w.bin", "d.bin")}
    files["config.json"] = DEFAULT_CONFIG.read_bytes()
    return files


def run_mutated(files: dict, command: str, source: str = "", *extra: str):
    """`run` on the files, with detection and training stubbed out."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "oracle_detect", loaded), \
            mock.patch.object(cli, "detect", loaded), \
            mock.patch.object(cli, "train", trained):
        root = Path(tmp)
        for name, blob in files.items():
            (root / name).write_bytes(blob)
        return run(root, command, source, *[a.format(root=root) for a in extra])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_files_keep_the_exit_code_contract(data):
    """A dropped key, a swapped type, a NaN or a truncation in model.json or
    the scene sidecar, or a changed header byte or a truncation of either
    PLY, exits 0, or 1 or 2 with an `error:` line; no exception escapes.
    Detection is stubbed out: the files only have to load."""
    files = dict(input_files())
    target = data.draw(st.sampled_from(SCENE_FILES))
    if target.endswith(".json"):
        files[target] = mutate_json(files[target].decode(), data).encode()
    else:
        files[target] = mutate_ply(files[target], data)
    code, err = run_mutated(files, "detect", "oracle")
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: "), err


@pytest.mark.parametrize("target, mutate, argv", [
    ("w.bin", mutate_weights, ("detect", "weights")),
    ("d.bin", mutate_dataset, ("train",)),
    ("config.json", lambda blob, data: mutate_json(blob.decode(), data).encode(),
     ("detect", "oracle", "--config", "{root}/config.json")),
], ids=["weights", "dataset", "config"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_weights_dataset_and_config_keep_the_exit_code_contract(
        target, mutate, argv, data):
    """The weights file's header JSON, checksum or length (through `detect
    --weights`), a header or record byte or the length of a dataset
    (through `train`), and the default config (through `--config`) mutated:
    each exits 0, or 1 or 2 with an `error:` line. Detection and training
    are stubbed out."""
    files = dict(input_files())
    files[target] = mutate(files[target], data)
    code, err = run_mutated(files, *argv)
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: "), err
