"""Command-line interface: synth, prepare, train, detect, eval.

Every command is deterministic under a fixed config+seed. Commands raise
their failures; `main` alone turns one into an exit code and one
`error: ...` line on stderr, never a traceback. The exception's type
alone picks the code:

- 0: success.
- 2: an `InputError` or a missing file: a bad config or option value
  (such as `synth --count` below 0) or option combination, or an input
  file that is malformed or does not fit the run (a PLY of no points, a
  scene with a NaN or infinite position, normal, curvature or colour, scene
  intrinsics that form no image, weights for another keypoint count,
  scenes with and without colours in one `prepare`), and a `prepare` in
  which every scene failed.
- 1: any other `PointPoseError`, a run that cannot finish on valid
  input, such as a `detect` that finds no pose (`NoHypothesisError`) or
  a `train` whose loss turns NaN (`TrainingDivergedError`). `eval`
  records a scene without a pose as a failed row and goes on.

Arguments that do not parse, such as `detect` or `eval` with both or
neither of `--weights` and `--oracle`, return 2 after argparse's usage
line and `error: ...` on stderr; `--help` returns 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .config import (RunConfig, apply_override, config_from_dict, config_to_dict,
                     load_config, save_config)
from .dataset import build_instance_training_set, read_dataset, write_dataset
from .errors import (DatasetFormatError, InputError, NoHypothesisError, NonFiniteSceneError,
                     PointPoseError)
from .modelprep import load_object_model, save_object_model
from .network import assemble_features, load_weights, save_weights, train
from .pipeline import detect, ensure_channels, evaluate, oracle_detect
from .pose import save_pose_json
from .synth import (load_scene, make_test_object, read_scene_sidecar, save_scene,
                    synth_scene)


def _build_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    for assignment in args.set or []:
        apply_override(config, assignment)
    if args.seed is not None:
        config.seed = args.seed
    if args.threads is not None:
        config.threads = args.threads
    # one validation of the finished config: a section's checks see every override
    config = config_from_dict(config_to_dict(config))
    if args.dump_config:
        save_config(args.dump_config, config)
    return config


class _SceneFiles(Sequence):
    """The annotated scenes of a directory: .ply files whose JSON sidecar
    carries a gt pose. Indexing reads one scene as (id, cloud, gt pose)."""

    def __init__(self, scenes_dir):
        self.stems = [ply.with_suffix("") for ply in sorted(Path(scenes_dir).glob("*.ply"))
                      if ply.with_suffix(".json").exists()
                      and read_scene_sidecar(ply.with_suffix(".json"))[0] is not None]
        if not self.stems:
            raise FileNotFoundError(
                f"no annotated scenes (.ply + pose sidecar) in {scenes_dir}")

    def __len__(self) -> int:
        return len(self.stems)

    def __getitem__(self, i):
        cloud, gt = load_scene(self.stems[i])
        return self.stems[i].name, cloud, gt


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, config: RunConfig) -> None:
    if args.count < 0:
        raise InputError(f"--count {args.count}: the scene count must be at least 0")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.model:
        model = load_object_model(Path(args.model))
    else:
        model = make_test_object(spacing=config.keypoints.spacing_mm)
        save_object_model(out / "model", model)
    for i in range(args.count):
        rng = np.random.default_rng([config.seed, i])
        scene = synth_scene(model, rng, config.synth, scene_id=f"scene_{i:04d}")
        save_scene(out / f"scene_{i:04d}", scene)
    print(json.dumps({"scenes": args.count, "model_keypoints": model.k,
                      "model_diameter_mm": model.diameter, "out": str(out)}))


def cmd_prepare(args, config: RunConfig) -> None:
    model = load_object_model(Path(args.model))
    sampling = config.sampling_params()
    normal_radius_mm = config.detect.normal_radius_mm

    examples = []
    failures = []
    stats = {"scenes": 0, "positives": 0, "negatives": 0,
             "easy_shortfall": 0, "hard_shortfall": 0}
    for i, (scene_id, cloud, gt) in enumerate(_SceneFiles(args.scenes)):
        # one dataset holds one record layout, with or without RGB
        if i == 0:
            first_id, has_rgb = scene_id, cloud.colors is not None
        elif (cloud.colors is not None) != has_rgb:
            raise InputError(f"{scene_id} {'has no' if has_rgb else 'has a'} colour channel "
                             f"and {first_id} {'has one' if has_rgb else 'has none'}: the "
                             "scenes of one dataset need the same channels")
        # a malformed scene file stops prepare, as above
        try:
            cloud = ensure_channels(cloud, normal_radius_mm)
        except NonFiniteSceneError as exc:
            raise NonFiniteSceneError(f"{scene_id}: {exc}") from exc
        try:
            inst = build_instance_training_set(
                cloud, model, gt, np.random.default_rng([config.seed, i]),
                sampling, config.augmentation)
        except PointPoseError as exc:
            failures.append({"scene": scene_id, "error": str(exc)})
            continue
        examples.extend(inst.examples)
        stats["scenes"] += 1
        stats["positives"] += sum(e.class_label for e in inst.examples)
        stats["negatives"] += sum(1 - e.class_label for e in inst.examples)
        stats["easy_shortfall"] += inst.easy_shortfall
        stats["hard_shortfall"] += inst.hard_shortfall

    if not examples:
        raise InputError(f"every scene failed ({len(failures)}); "
                         f"{failures[0]['scene']}: {failures[0]['error']}")
    write_dataset(args.out, examples, k=model.k,
                  balanced=config.augmentation.balanced, seed=config.seed)
    stats["examples"] = len(examples)
    stats["failures"] = failures
    stats["out"] = str(args.out)
    print(json.dumps(stats))


def cmd_train(args, config: RunConfig) -> None:
    header, examples = read_dataset(args.dataset)
    if not examples:
        raise DatasetFormatError(f"{args.dataset}: the dataset holds no examples")
    if config.network.use_color and not header.has_rgb:
        raise InputError(f"network.use_color=true, but {args.dataset} holds no colours")
    if config.network.normalize and not args.model:
        raise InputError("network.normalize=true needs --model for the object diameter")
    input_scale = 0.0
    if args.model:
        # weights of another keypoint count would train, and then fail
        # every detect with this model
        model = load_object_model(Path(args.model))
        if model.k != header.k:
            raise InputError(f"{args.dataset}: the dataset labels {header.k} keypoints, "
                             f"the model {args.model} has {model.k}")
        if config.network.normalize:
            input_scale = config.examples.radius_factor * model.diameter

    net_config = config.network.network_config(header.k, config.network.use_color)
    feats = assemble_features(examples, input_scale_mm=input_scale,
                              with_color=config.network.use_color)
    cls = np.array([e.class_label for e in examples], dtype=np.int64)
    seg = np.stack([e.seg_labels for e in examples]).astype(np.int64)

    log_rows = []

    def log(epoch, loss, cls_loss, seg_loss):
        log_rows.append((epoch, loss, cls_loss, seg_loss))
        print(f"epoch {epoch + 1}/{config.training.epochs}: loss {loss:.6f} "
              f"(cls {cls_loss:.6f}, seg {seg_loss:.6f})", file=sys.stderr)

    # a diverging loss overflows on its way to NaN; train's epoch check
    # reports it as one error, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        weights, losses = train(feats, cls, seg, net_config, config.train_config(),
                                input_scale_mm=input_scale, log_fn=log)
    save_weights(args.out, weights)
    log_path = Path(args.out).with_suffix(".loss.csv")
    with open(log_path, "w") as f:
        f.write("epoch,loss,cls_loss,seg_loss\n")
        for row in log_rows:
            f.write(",".join(map(repr, row)) + "\n")
    print(json.dumps({"weights": str(args.out), "loss_log": str(log_path),
                      "final_loss": losses[-1], "examples": len(examples)}))


def cmd_detect(args, config: RunConfig) -> None:
    model = load_object_model(Path(args.model))
    cloud, gt = load_scene(Path(args.scene).with_suffix(""))
    params = config.detect_params()
    debug_dir = Path(args.dump_debug) if args.dump_debug else None

    if args.oracle:
        if gt is None:
            raise InputError("--oracle needs a gt pose sidecar next to the scene")
        result = oracle_detect(cloud, model, gt, params, debug_dir=debug_dir)
    else:
        result = detect(cloud, model, load_weights(args.weights), params,
                        debug_dir=debug_dir)

    if result.failed:
        raise NoHypothesisError(
            f"no pose: {result.anchors_segmented} of {result.anchors_total} anchors "
            f"segmented ({result.anchors_skipped} held fewer than "
            f"{params.min_sphere_points} points), and none gave a hypothesis")
    save_pose_json(args.out, result.best.pose)
    info = {"pose": str(args.out), "l_loc": result.best.l_loc,
            "s_kde": result.best.s_kde, "hypotheses": len(result.ranked),
            "timings_ms": result.timings_ms}
    print(json.dumps(info))


def cmd_eval(args, config: RunConfig) -> None:
    model = load_object_model(Path(args.model))
    scenes = _SceneFiles(args.scenes)
    weights = load_weights(args.weights) if args.weights else None
    params = config.detect_params()
    report = evaluate(scenes, model, weights, params, config.evaluation.threshold_factor,
                      use_oracle=args.oracle)
    Path(args.out_csv).write_text(report.to_csv())
    summary = report.summary()
    Path(args.out_json).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))


# ---------------------------------------------------------------------------


ORACLE_HELP = ("bypass the network with gt labels (needs sidecar); they use fixed "
               "10/20 mm foreground/discard bands, not the labeling section")


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config value (repeatable)")
    common.add_argument("--seed", type=int, help="override config seed")
    common.add_argument("--threads", type=int,
                        help="thread budget: detect runs its anchors on it, eval "
                             "splits it over a worker pool (default: the CPUs this "
                             "process may use)")
    common.add_argument("--dump-config", metavar="PATH",
                        help="write the effective config JSON and continue")

    parser = argparse.ArgumentParser(
        prog="pointpose",
        description="6-DoF object pose estimation on point clouds",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    def add_source(p):
        """Exactly one segmentation source: the network's weights or the oracle."""
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--weights")
        source.add_argument("--oracle", action="store_true", help=ORACLE_HELP)

    p = add_command("synth", "generate synthetic scenes + gt poses")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--model", help="reuse an existing model stem instead of "
                                   "generating the built-in test object")
    p.set_defaults(fn=cmd_synth)

    p = add_command("prepare", "build the training dataset from scenes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--model", required=True, help="model stem (PLY + JSON sidecar)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prepare)

    p = add_command("train", "train the network on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", help="model stem: its keypoint count must be the "
                   "dataset's; its diameter scales the inputs under network.normalize")
    p.set_defaults(fn=cmd_train)

    p = add_command("detect", "estimate the object pose in one scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--model", required=True)
    add_source(p)
    p.add_argument("--dump-debug", metavar="DIR",
                   help="write per-stage debug artifacts A-F")
    p.add_argument("--out", required=True, help="output pose JSON")
    p.set_defaults(fn=cmd_detect)

    p = add_command("eval", "evaluate detection over a scene set")
    p.add_argument("--scenes", required=True)
    p.add_argument("--model", required=True)
    add_source(p)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error or the help
        return exc.code
    try:
        args.fn(args, _build_config(args))
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PointPoseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
