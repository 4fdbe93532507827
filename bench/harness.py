"""Set-up, measurement loop, checks and metric assembly for one run."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Dict, List

from spans import Tracer, install, layer_totals
from workloads import env_record

STAGES = ("normals", "anchors", "classify", "segment", "vote", "icp", "verify")

# per-layer metric -> unit; values are per scene unless the unit says ratio
PER_LAYER = {
    "voting.estimate_pose_s": "s",
    "voting.pose_votes_s": "s",
    "voting.density_peak_s": "s",
    "voting.votes": "count",
    "voting.correspondences": "count",
    "voting.support_ratio": "ratio",
    "voting.no_hypothesis": "count",
    "network.forward_s": "s",
    "network.forward_points": "count",
    "network.forward_gflop": "GFLOP-computed",
    "network.unique_point_ratio": "ratio",
    "network.backward_s": "s",
    "network.backward_gflop": "GFLOP-computed",
    "network.train_s": "s",
    "geometry.icp_refine_s": "s",
    "geometry.icp_iters": "count",
    "geometry.nnindex_build_s": "s",
    "geometry.nearest_batch_calls": "count",
    "geometry.voxel_downsample_s": "s",
    "geometry.estimate_normals_s": "s",
    "verification.build_depth_buffer_s": "s",
    "verification.remove_occluded_s": "s",
    "verification.verify_s": "s",
    "dataset.label_scene_s": "s",
    "dataset.build_instance_training_set_s": "s",
    "dataset.examples": "count",
    "dataset.write_s": "s",
    "dataset.read_s": "s",
    "dataset.bytes": "B",
    "ply.read_s": "s",
    "ply.write_s": "s",
    "modelprep.load_object_model_s": "s",
    "pipeline.detect_s": "s",
    "cli.main_s": "s",
    **{f"pipeline.{s}_ms": "ms" for s in STAGES},
    "setup.synth.make_test_object_s": "s",
    "setup.synth.synth_scene_s": "s",
    "setup.ply.write_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.scenes": "count",
}

END_TO_END = {
    "setup_s": "s",
    "scene_s_p50": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, setup_spans, scenes: int, untraced_s: float,
                      traced_s: float, timings: List[dict]) -> Dict[str, float]:
    t = layer_totals(spans)
    su = layer_totals(setup_spans)

    def per_scene(key):
        return t.get(key, 0.0) / scenes

    m = {name: per_scene(name) for name, unit in PER_LAYER.items()
         if unit == "s" and not name.startswith(("setup.", "trace."))}
    m["pipeline.detect_s"] = per_scene("pipeline.detect_s") + per_scene("pipeline.oracle_detect_s")
    m["voting.votes"] = per_scene("voting.pose_votes.votes")
    m["voting.correspondences"] = per_scene("voting.estimate_pose.correspondences")
    m["voting.support_ratio"] = _ratio(t.get("voting.density_peak.support", 0.0),
                                       t.get("voting.pose_votes.votes", 0.0))
    m["voting.no_hypothesis"] = per_scene("voting.estimate_pose.no_hypothesis")
    m["network.forward_points"] = per_scene("network.forward.points")
    m["network.forward_gflop"] = per_scene("network.forward.gflop")
    m["network.unique_point_ratio"] = _ratio(
        t.get("network.forward.classify_unique_rows", 0.0),
        t.get("network.forward.classify_rows", 0.0))
    m["network.backward_gflop"] = per_scene("network.backward.gflop")
    m["geometry.icp_iters"] = per_scene("geometry.icp_refine.iters")
    m["geometry.nearest_batch_calls"] = sum(
        v for k, v in t.items() if k.endswith(".nearest_batch_calls")) / scenes
    m["dataset.examples"] = per_scene("dataset.build_instance_training_set.examples")
    m["dataset.bytes"] = per_scene("dataset.write.bytes")
    for stage in STAGES:
        m[f"pipeline.{stage}_ms"] = sum(tm.get(stage, 0.0) for tm in timings) / scenes
    # set-up figures are inclusive: the time of the call with its children
    m["setup.synth.make_test_object_s"] = su.get("synth.make_test_object_wall_s", 0.0)
    m["setup.synth.synth_scene_s"] = su.get("synth.synth_scene_wall_s", 0.0)
    m["setup.ply.write_s"] = su.get("ply.write_wall_s", 0.0)
    m["trace.overhead_s"] = (traced_s - untraced_s) / scenes
    m["trace.overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    m["trace.scenes"] = scenes
    return {name: m[name] for name in PER_LAYER}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def run_workload(cls, seed: int, seconds: float, trace: bool, work_root: Path,
                 setup_repeats: int) -> int:
    workdir = work_root / f"{cls.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spool_dir=workdir) if trace else None
    try:
        return _run(cls, seed, seconds, tracer, workdir, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass   # another run still uses it


def _traced(tracer: Tracer, fn, *args):
    install(tracer)
    try:
        return fn(*args)
    finally:
        tracer.restore()


def _run(cls, seed, seconds, tracer, workdir, setup_repeats) -> int:
    setup_times = []
    for r in range(setup_repeats):
        wl = cls(seed, workdir)
        t0 = time.perf_counter()
        if tracer is not None and r == setup_repeats - 1:
            _traced(tracer, wl.setup)
        else:
            wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_spans = tracer.collect() if tracer is not None else []

    op_s: Dict[int, float] = {}       # untraced wall time per operation index
    traced_s: Dict[int, float] = {}
    results: Dict[int, object] = {}   # untraced outputs per operation index
    failures = []
    attempted = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        # traced and untraced passes alternate which goes first
        passes = [i % 2 == 1, i % 2 == 0] if tracer is not None else [False]
        for traced in passes:
            attempted += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.op = i
                    res = _traced(tracer, wl.run_op, i)
                else:
                    res = wl.run_op(i)
            except Exception as exc:   # a failed operation is counted, not fatal
                failures.append({"op": i, "traced": traced, "error": repr(exc),
                                 "traceback": traceback.format_exc(limit=4)})
                continue
            (traced_s if traced else op_s)[i] = time.perf_counter() - t0
            reason = wl.check(i, res)
            if reason is not None:
                failures.append({"op": i, "traced": traced, "error": reason})
            if not traced:
                results[i] = res
        i += 1

    done = list(results.values())
    detail = {
        "workload": cls.name, "seed": seed, "seconds": seconds, "trace": tracer is not None,
        "ops": len(done), "scenes": sum(r.scenes for r in done),
        "op_s": list(op_s.values()), "setup_s_all": setup_times,
        "referenced_ops": sum(wl.reference(j) is not None for j in results),
        "failed_frac": len(failures) / attempted, "failures": failures,
        "env": env_record(),
        "timings_ms": [r.info["timings_ms"] for r in done if "timings_ms" in r.info],
    }
    if done:
        detail.update(wl.summary(done))

    metrics: Dict[str, float] = {}
    units = END_TO_END
    if tracer is None and done:
        per_scene, items, busy = wl.rates(done, [op_s[j] for j in results])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "scene_s_p50": statistics.median(per_scene),
            "items_per_s": items / busy,
            "peak_rss_mb": peak_rss_mb(),
        }
    elif tracer is not None and done:
        detail["traced_op_s"] = list(traced_s.values())
        pairs = [j for j in results if j in traced_s]
        metrics = per_layer_metrics(
            tracer.collect(), setup_spans, max(sum(results[j].scenes for j in pairs), 1),
            sum(op_s[j] for j in pairs), sum(traced_s[j] for j in pairs),
            [results[j].info.get("timings_ms", {}) for j in pairs])
        units = PER_LAYER
    print(json.dumps(detail))
    if not done:
        print(f"error: every operation failed: {failures[:1]}", flush=True)
        return 1
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1
