"""Self-tests of the benchmark: tracing wrappers, computed FLOPs, the gate.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointpose import geometry, network, pipeline, synth, voting
from spans import Tracer, backward_macs, forward_macs, install, layer_totals
from harness import END_TO_END, PER_LAYER
from workloads import WORKLOADS, Oracle, make_scene

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def tiny():
    model = synth.make_test_object(n_points=1500)
    return model, make_scene(model, 7, 0)


def test_wrappers_count_calls_and_restore(tiny):
    model, sc = tiny
    originals = {
        "geometry.icp_refine": geometry.icp_refine,
        "pipeline.icp_refine": pipeline.icp_refine,
        "voting.estimate_pose": voting.estimate_pose,
        "pipeline.estimate_pose": pipeline.estimate_pose,
        "pipeline.verify": pipeline.verify,
        "pipeline.label_scene": pipeline.label_scene,
        "NNIndex.__init__": geometry.NNIndex.__init__,
        "NNIndex.nearest_batch": geometry.NNIndex.nearest_batch,
    }
    tracer = Tracer()
    install(tracer)
    try:
        assert pipeline.icp_refine is geometry.icp_refine
        assert pipeline.icp_refine is not originals["geometry.icp_refine"]
        res = pipeline.oracle_detect(sc.cloud, model, sc.gt_pose,
                                     pipeline.DetectParams(oracle_anchors=2))
    finally:
        tracer.restore()

    assert pipeline.icp_refine is originals["pipeline.icp_refine"]
    assert geometry.icp_refine is originals["geometry.icp_refine"]
    assert voting.estimate_pose is originals["voting.estimate_pose"]
    assert pipeline.estimate_pose is originals["pipeline.estimate_pose"]
    assert pipeline.verify is originals["pipeline.verify"]
    assert pipeline.label_scene is originals["pipeline.label_scene"]
    assert geometry.NNIndex.__init__ is originals["NNIndex.__init__"]
    assert geometry.NNIndex.nearest_batch is originals["NNIndex.nearest_batch"]

    t = layer_totals(tracer.collect())
    hyps = len(res.ranked)
    assert t["pipeline.oracle_detect_calls"] == 1
    assert t["dataset.label_scene_calls"] == 1
    assert t["voting.estimate_pose_calls"] == res.anchors_segmented
    assert t["voting.density_peak_calls"] == hyps
    assert t["geometry.icp_refine_calls"] == hyps
    assert t["verification.verify_calls"] == hyps
    assert t["voting.pose_votes.votes"] > 0 and t["voting.pose_votes.votes"] % 36 == 0
    # every ICP iteration pairs once by nearest neighbour
    assert t["geometry.icp_refine.iters"] > 0
    assert t["geometry.icp_refine.nearest_batch_calls"] >= t["geometry.icp_refine.iters"]
    # self times never exceed the parent's duration
    assert all(v >= -1e-9 for k, v in t.items() if k.endswith("_s"))


def test_estimate_pose_contains_its_children(tiny):
    model, sc = tiny
    tracer = Tracer()
    install(tracer)
    try:
        pipeline.oracle_detect(sc.cloud, model, sc.gt_pose,
                               pipeline.DetectParams(oracle_anchors=1))
    finally:
        tracer.restore()
    spans = tracer.collect()
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.name in ("voting.pose_votes", "voting.density_peak"):
            assert by_id[s.parent].name == "voting.estimate_pose"


def test_forward_gflop_matches_hand_count():
    cfg = network.NetworkConfig(k=2, input_channels=7, encoder=(5, 6),
                                classifier=(1,), segmenter=(0,))
    b, n = 2, 4
    # one layer alone: 3 more input channels widen only the first encoder
    # layer, by 3 inputs x 5 outputs per point
    rgb = network.NetworkConfig(k=2, input_channels=10, encoder=(5, 6),
                                classifier=(1,), segmenter=(0,))
    assert forward_macs(rgb, b, n, True) - forward_macs(cfg, b, n, True) == b * n * 3 * 5
    enc = b * n * (7 * 5 + 5 * 6)
    cls = b * 6 * 1
    seg = b * n * 6 * 3 + b * 6 * 3   # skip half per point + pooled half per set
    assert forward_macs(cfg, b, n, want_seg=False) == enc + cls
    assert forward_macs(cfg, b, n, want_seg=True) == enc + cls + seg
    assert backward_macs(cfg, b, n) == 2 * (enc + cls + seg)

    # the traced forward reports 2 flops per multiply-add
    weights = network.init_weights(cfg, seed=0)
    x = np.random.default_rng(0).standard_normal((b, n, 7)).astype(np.float32)
    tracer = Tracer()
    install(tracer)
    try:
        network.forward(weights, x, want_seg=False)
    finally:
        tracer.restore()
    t = layer_totals(tracer.collect())
    assert t["network.forward.gflop"] == pytest.approx(2e-9 * (enc + cls))
    assert t["network.forward.points"] == b * n
    assert t["network.forward.classify_unique_rows"] == b * n


def test_unique_rows_count_padding_duplicates():
    from spans import unique_rows_per_set
    x = np.zeros((2, 5, 7), dtype=np.float32)
    x[0, :, 0] = [1, 2, 3, 1, 2]     # 3 distinct rows
    x[1, :, 0] = [1, 2, 3, 4, 5]     # 5 distinct rows
    assert unique_rows_per_set(x) == 8


def test_compare_flags_each_field():
    out = {"pose": [1.0, 0, 0, 0, 1, 0, 0, 0, 1, 10.0, 20.0, 30.0],
           "vote_support": 120, "add_mm": 0.25}
    wl = Oracle.__new__(Oracle)
    assert wl.compare(out, dict(out)) is None
    assert wl.compare(out, dict(out, vote_support=121)) is not None
    assert wl.compare(out, dict(out, add_mm=0.26)) is not None
    moved = list(out["pose"])
    moved[9] += 0.01
    assert wl.compare(out, dict(out, pose=moved)) is not None


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER


def _copy_checkout(dst: Path) -> None:
    shutil.copytree(ROOT / "src", dst / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, dst / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests", "results"))


def _run(cwd: Path, workload: str, seed: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_corrupted_reference_fails_the_command(tmp_path):
    refs = json.loads((BENCH / "refs" / "oracle.json").read_text())
    seed = min(int(s) for s in refs)
    _copy_checkout(tmp_path)
    path = tmp_path / "bench" / "refs" / "oracle.json"
    refs[str(seed)][0]["vote_support"] += 1
    path.write_text(json.dumps(refs))

    proc = _run(tmp_path, "oracle", seed)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_missing_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run(tmp_path, "oracle", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
