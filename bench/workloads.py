"""The four benchmark workloads: inputs from a seed, one operation, checks.

Every scene is `synth.synth_scene` with 0.5 mm noise, occluder probability
0.3 and the default 3 clutter objects, seeded `[seed, i]`. A workload's
`setup` builds everything the operations need; `run_op(i)` does the i-th
unit of work and returns its outputs; `check` compares them against the
recorded reference (when the seed and index are covered) and otherwise
against invariants that hold for any input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from pointpose import cli, dataset, modelprep, network, pipeline, synth
from pointpose.pointcloud import PointCloud

NOISE_MM = 0.5
OCCLUDER_P = 0.3
ORACLE_ANCHORS = 16
EXAMPLES_PER_SCENE = 110
BATCH = 16
EVAL_SCENES = 4
EVAL_WORKERS = min(2, len(os.sched_getaffinity(0)))   # never more workers than CPUs

# reference tolerances (the outputs are bit-identical on one machine; these
# only absorb last-digit differences of another BLAS kernel)
ROT_TOL = 1e-6        # rotation matrix entries
TRANS_TOL_MM = 1e-3   # translation
ADD_TOL_MM = 1e-3
LOSS_RTOL = 1e-5
CSV_RTOL = 1e-6

REFS_DIR = Path(__file__).resolve().parent / "refs"


def synth_params() -> synth.SynthParams:
    return synth.SynthParams(noise_sigma_mm=NOISE_MM, occluder_probability=OCCLUDER_P)


def make_scene(model, seed: int, i: int) -> synth.SyntheticScene:
    return synth.synth_scene(model, np.random.default_rng([seed, i]), synth_params(),
                             scene_id=f"scene_{i:04d}")


def raw_cloud(cloud: PointCloud) -> PointCloud:
    """The scene as a depth sensor gives it: no normals, no curvature."""
    return PointCloud(positions=cloud.positions, colors=cloud.colors,
                      view_origin=cloud.view_origin, intrinsics=cloud.intrinsics)


def pose_list(pose) -> List[float]:
    return [float(v) for v in np.concatenate([pose.rotation.ravel(), pose.translation])]


def pose_mismatch(got: List[float], want: List[float]) -> Optional[str]:
    g, w = np.asarray(got), np.asarray(want)
    if np.abs(g[:9] - w[:9]).max() > ROT_TOL or np.abs(g[9:] - w[9:]).max() > TRANS_TOL_MM:
        return f"pose differs by {np.abs(g - w).max():.3g}"
    return None


def proper_pose(pose) -> bool:
    r = pose.rotation
    return bool(np.abs(r.T @ r - np.eye(3)).max() < 1e-6 and abs(np.linalg.det(r) - 1) < 1e-6
                and np.isfinite(pose.translation).all())


def load_refs(name: str) -> dict:
    path = REFS_DIR / f"{name}.json"
    if not path.exists():
        return {}
    with open(path) as f:
        return json.load(f)


@dataclass
class OpResult:
    scenes: int                  # scenes this operation processed
    out: dict                    # outputs compared against the reference
    info: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    scenes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.refs = load_refs(self.name).get(str(seed), [])

    def setup(self) -> None:
        self.model = synth.make_test_object()
        self.scene_set = [make_scene(self.model, self.seed, i) for i in range(self.scenes)]

    def scene(self, i: int) -> synth.SyntheticScene:
        """Scenes past the set-up pool are generated on demand."""
        while len(self.scene_set) <= i:
            self.scene_set.append(make_scene(self.model, self.seed, len(self.scene_set)))
        return self.scene_set[i]

    def run_op(self, i: int) -> OpResult:
        raise NotImplementedError

    def reference(self, i: int) -> Optional[dict]:
        return self.refs[i] if i < len(self.refs) else None

    def check(self, i: int, res: OpResult) -> Optional[str]:
        """None when correct, else the reason."""
        ref = self.reference(i)
        if ref is not None:
            return self.compare(res.out, ref)
        return self.invariants(res)

    def compare(self, out: dict, ref: dict) -> Optional[str]:
        raise NotImplementedError

    def invariants(self, res: OpResult) -> Optional[str]:
        raise NotImplementedError

    def summary(self, results: List[OpResult]) -> dict:
        """Accuracy and output figures for the run's detail line."""
        return {}

    def rates(self, results: List[OpResult], op_s: List[float]):
        """(seconds per scene of each operation, items done, seconds busy):
        the inputs of `scene_s_p50` and `items_per_s`."""
        return ([dt / r.scenes for dt, r in zip(op_s, results)],
                sum(r.scenes for r in results), sum(op_s))


class Oracle(Workload):
    name = "oracle"
    why = ("ground-truth segmentation gives clean correspondences: best case for "
           "voting; network, anchors and normals are bypassed")
    scenes = 16

    def run_op(self, i):
        sc = self.scene(i)
        res = pipeline.oracle_detect(sc.cloud, self.model, sc.gt_pose,
                                     pipeline.DetectParams(oracle_anchors=ORACLE_ANCHORS))
        if res.best is None:
            return OpResult(1, {"pose": None, "vote_support": 0, "add_mm": None},
                            {"timings_ms": res.timings_ms, "success": False})
        add = pipeline.add_metric(res.best.pose, sc.gt_pose, self.model)
        return OpResult(1, {"pose": pose_list(res.best.pose),
                            "vote_support": int(res.best.vote_support), "add_mm": add},
                        {"timings_ms": res.timings_ms, "add_mm": add,
                         "success": add < 0.1 * self.model.diameter,
                         "proper": proper_pose(res.best.pose)})

    def compare(self, out, ref):
        if (out["pose"] is None) != (ref["pose"] is None):
            return "detection failure differs from the reference"
        if out["pose"] is None:
            return None
        if out["vote_support"] != ref["vote_support"]:
            return f"vote_support {out['vote_support']} != {ref['vote_support']}"
        if abs(out["add_mm"] - ref["add_mm"]) > ADD_TOL_MM:
            return f"ADD {out['add_mm']:.6f} != {ref['add_mm']:.6f} mm"
        return pose_mismatch(out["pose"], ref["pose"])

    def summary(self, results):
        adds = [r.info.get("add_mm", float("inf")) for r in results]
        return {"success_frac": sum(r.info["success"] for r in results) / len(results),
                "add_mm_p50": statistics.median(adds), "add_mm": adds}

    def invariants(self, res):
        if res.out["pose"] is None:
            return None   # an accuracy miss, counted by success_frac
        if not res.info["proper"]:
            return "best pose is not a proper rigid transform"
        if not 1 <= res.out["vote_support"] <= 500 * 36:
            return f"vote_support {res.out['vote_support']} out of range"
        return None


class Detect(Workload):
    """Every operation detects on the same input, whatever the seed.

    One detect takes 19-37 s, so a run holds one, and its time depends on
    the input far more than any bound allows: the network's noise-like
    segmentation changes every anchor's vote cost (see bench/NOTES.md).
    The input is therefore the ROADMAP Baseline one: scene [0, 0], weights
    seed 0.
    """

    name = "detect"
    why = ("full detect, Baseline scene without normals, untrained He-init weights: "
           "noise-like correspondences are the worst case for voting; BLAS-bound classify")
    scenes = 1
    input_seed = 0

    def __init__(self, seed, workdir):
        super().__init__(self.input_seed, workdir)

    def setup(self):
        super().setup()
        self.raw = raw_cloud(self.scene_set[0].cloud)
        self.weights = network.init_weights(network.NetworkConfig(k=self.model.k),
                                            self.input_seed)

    def reference(self, i):
        return self.refs[0] if self.refs else None

    def run_op(self, i):
        res = pipeline.detect(self.raw, self.model, self.weights)
        out = {"pose": pose_list(res.best.pose) if res.best else None,
               "vote_support": [int(h.vote_support) for h in res.ranked],
               "anchors_total": int(res.anchors_total)}
        l_loc = [h.l_loc for h in res.ranked]
        return OpResult(1, out, {"timings_ms": res.timings_ms,
                                 "anchors_segmented": res.anchors_segmented,
                                 "sorted": l_loc == sorted(l_loc),
                                 "proper": all(proper_pose(h.pose) for h in res.ranked)})

    def compare(self, out, ref):
        if out["anchors_total"] != ref["anchors_total"]:
            return f"anchors {out['anchors_total']} != {ref['anchors_total']}"
        if out["vote_support"] != ref["vote_support"]:
            return f"ranked vote_support {out['vote_support']} != {ref['vote_support']}"
        if (out["pose"] is None) != (ref["pose"] is None):
            return "detection failure differs from the reference"
        return pose_mismatch(out["pose"], ref["pose"]) if out["pose"] else None

    def summary(self, results):
        return {"vote_support": [r.out["vote_support"] for r in results],
                "anchors_total": [r.out["anchors_total"] for r in results]}

    def invariants(self, res):
        if res.info["anchors_segmented"] != pipeline.DetectParams().top_anchors:
            return f"{res.info['anchors_segmented']} anchors segmented"
        if not res.info["sorted"]:
            return "hypotheses are not ranked by localization loss"
        if not res.info["proper"]:
            return "a hypothesis pose is not a proper rigid transform"
        return None


class Train(Workload):
    name = "train"
    why = ("prepare a scene's 110 examples, write and read the dataset, one Adam "
           "epoch: the backward/Adam side of network that detect never runs")
    scenes = 3

    def setup(self):
        super().setup()
        # xyz divided by the example sphere radius, as `cli train` does by default
        self.input_scale_mm = 0.6 * self.model.diameter

    def run_op(self, i):
        sc = self.scene(i)
        t0 = time.perf_counter()
        inst = dataset.build_instance_training_set(sc.cloud, self.model, sc.gt_pose,
                                                   np.random.default_rng([self.seed, i]))
        t1 = time.perf_counter()
        path = self.workdir / f"train_{i}.bin"
        dataset.write_dataset(path, inst.examples, k=self.model.k, seed=self.seed)
        _, examples = dataset.read_dataset(path)
        path.unlink()
        roundtrip = len(examples) == len(inst.examples) and all(
            np.array_equal(a.positions, b.positions.astype(np.float32))
            and np.array_equal(a.seg_labels, b.seg_labels)
            and a.class_label == b.class_label for a, b in zip(examples, inst.examples))
        t2 = time.perf_counter()
        feats = network.assemble_features(examples, input_scale_mm=self.input_scale_mm)
        cls = np.array([e.class_label for e in examples], dtype=np.int64)
        seg = np.stack([e.seg_labels for e in examples]).astype(np.int64)
        _, losses = network.train(feats, cls, seg, network.NetworkConfig(k=self.model.k),
                                  network.TrainConfig(epochs=1, batch_size=BATCH,
                                                      seed=self.seed),
                                  input_scale_mm=self.input_scale_mm)
        t3 = time.perf_counter()
        return OpResult(1, {"examples": len(examples), "loss": losses[0]},
                        {"prepare_s": t1 - t0, "io_s": t2 - t1, "train_s": t3 - t2,
                         "examples": len(examples), "roundtrip": roundtrip})

    def compare(self, out, ref):
        if out["examples"] != ref["examples"]:
            return f"{out['examples']} examples != {ref['examples']}"
        if abs(out["loss"] - ref["loss"]) > LOSS_RTOL * abs(ref["loss"]):
            return f"loss {out['loss']!r} != {ref['loss']!r}"
        return None

    def check(self, i, res):
        if not res.info["roundtrip"]:
            return "dataset read back differs from what was written"
        return super().check(i, res)

    def rates(self, results, op_s):
        # a scene's time covers prepare, dataset I/O and its training epoch;
        # the items are examples trained, over the time in `network.train`
        per_scene, _, _ = super().rates(results, op_s)
        return (per_scene, sum(r.info["examples"] for r in results),
                sum(r.info["train_s"] for r in results))

    def summary(self, results):
        prepare_s = sum(r.info["prepare_s"] for r in results)
        return {"train_loss": [r.out["loss"] for r in results],
                "prepare_examples_per_s": sum(r.info["examples"] for r in results) / prepare_s}

    def invariants(self, res):
        if res.out["examples"] != EXAMPLES_PER_SCENE:
            return f"{res.out['examples']} examples, expected {EXAMPLES_PER_SCENE}"
        if not np.isfinite(res.out["loss"]) or res.out["loss"] <= 0:
            return f"loss {res.out['loss']} is not a positive number"
        return None


def csv_without_timings(text: str) -> List[List[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    keep = [j for j, h in enumerate(rows[0]) if not h.endswith("_ms")]
    return [[r[j] for j in keep] for r in rows]


def csv_stage_ms(text: str) -> dict:
    """Stage timings summed over the scenes of an eval CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {h[:-3]: sum(float(r[h]) for r in rows) for h in rows[0] if h.endswith("_ms")}


def csv_mismatch(got: List[List[str]], want: List[List[str]]) -> Optional[str]:
    if len(got) != len(want) or got[0] != want[0]:
        return "eval CSV shape or header differs"
    for g_row, w_row in zip(got[1:], want[1:]):
        for h, g, w in zip(got[0], g_row, w_row):
            if g == w:
                continue
            try:
                gf, wf = float(g), float(w)
            except ValueError:
                return f"{h}: {g!r} != {w!r}"
            if not abs(gf - wf) <= CSV_RTOL * max(abs(wf), 1e-9):
                return f"{w_row[0]} {h}: {g} != {w}"
    return None


class Eval(Workload):
    name = "eval"
    why = ("the oracle scene set as PLY files through `cli eval --oracle` with a "
           "2-worker pool: process pool, config round-trip and PLY reads")
    scenes = EVAL_SCENES

    def setup(self):
        super().setup()
        self.scene_dir = self.workdir / "scenes"
        if self.scene_dir.exists():
            shutil.rmtree(self.scene_dir)
        self.scene_dir.mkdir(parents=True)
        modelprep.save_object_model(self.workdir / "model", self.model)
        for sc in self.scene_set:
            synth.save_scene(self.scene_dir / sc.scene_id, sc)

    def run_op(self, i):
        out_csv, out_json = self.workdir / "eval.csv", self.workdir / "eval.json"
        argv = ["eval", "--oracle", "--threads", str(EVAL_WORKERS),
                "--set", f"detect.oracle_anchors={ORACLE_ANCHORS}",
                "--scenes", str(self.scene_dir), "--model", str(self.workdir / "model"),
                "--out-csv", str(out_csv), "--out-json", str(out_json)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli eval exited with {code}")
        text = out_csv.read_text()
        summary = json.loads(out_json.read_text())
        return OpResult(self.scenes, {"csv": csv_without_timings(text)},
                        {"summary": summary, "timings_ms": csv_stage_ms(text)})

    def reference(self, i):
        return self.refs[0] if self.refs else None

    def compare(self, out, ref):
        return csv_mismatch(out["csv"], ref["csv"])

    def summary(self, results):
        rows = results[0].out["csv"]
        adds = [float(r[rows[0].index("add_mm")]) for r in rows[1:]]
        return {"success_frac": results[0].info["summary"]["success_fraction"],
                "add_mm_p50": statistics.median(adds), "add_mm": adds}

    def invariants(self, res):
        rows = res.out["csv"]
        if len(rows) != self.scenes + 1:
            return f"eval CSV has {len(rows) - 1} rows for {self.scenes} scenes"
        head = rows[0]
        threshold = res.info["summary"]["threshold_mm"]
        for r in rows[1:]:
            rec = dict(zip(head, r))
            err = float(rec["add_mm"])   # the test object is asymmetric: ADD
            if int(rec["success"]) != int(err < threshold):
                return f"{rec['scene_id']}: success flag disagrees with ADD"
        return None

    def serial_csv(self) -> List[List[str]]:
        """The same scene and model files through the serial `pipeline.evaluate`."""
        scenes = []
        for sc in self.scene_set:
            cloud, gt = synth.load_scene(self.scene_dir / sc.scene_id)
            scenes.append((sc.scene_id, cloud, gt))
        model = modelprep.load_object_model(self.workdir / "model")
        report = pipeline.evaluate(scenes, model, None,
                                   pipeline.DetectParams(oracle_anchors=ORACLE_ANCHORS),
                                   use_oracle=True)
        return csv_without_timings(report.to_csv(include_timings=False))


WORKLOADS = {w.name: w for w in (Oracle, Detect, Train, Eval)}


def env_record() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas.get("version"),
        "scipy_openblas": scipy_blas.get("version"),
        "eval_pool_workers": EVAL_WORKERS,
        "density_peak_workers": (f"-1 (os.cpu_count() = {os.cpu_count()} threads per "
                                 f"call), also inside each of the {EVAL_WORKERS} eval "
                                 f"pool workers"),
    }
