"""Command-line interface: synth, prepare, train, detect, eval.

Every command is deterministic under a fixed config+seed. Exit codes:
0 success, 2 usage/input errors, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import (RunConfig, apply_override, config_to_dict, load_config,
                     save_config)
from .dataset import build_instance_training_set, read_dataset, write_dataset
from .errors import ConfigError, PointPoseError
from .modelprep import load_object_model, save_object_model
from .network import assemble_features, load_weights, save_weights, train
from .pipeline import detect, oracle_detect
from .pose import save_pose_json
from .synth import load_scene, make_test_object, save_scene, synth_scene


def _build_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    for assignment in args.set or []:
        apply_override(config, assignment)
    if args.seed is not None:
        config.seed = args.seed
    if args.threads is not None:
        config.threads = args.threads
    if args.dump_config:
        save_config(args.dump_config, config)
    return config


def _threads(config: RunConfig) -> int:
    return config.threads if config.threads > 0 else (os.cpu_count() or 1)


def _scene_stems(scenes_dir: Path):
    """Scene stems = .ply files whose JSON sidecar carries a gt pose."""
    stems = []
    for ply in sorted(Path(scenes_dir).glob("*.ply")):
        sidecar = ply.with_suffix(".json")
        if sidecar.exists():
            with open(sidecar) as f:
                if "pose" in json.load(f):
                    stems.append(ply.with_suffix(""))
    if not stems:
        raise FileNotFoundError(f"no annotated scenes (.ply + pose sidecar) in {scenes_dir}")
    return stems


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.model:
        model = load_object_model(Path(args.model))
    else:
        model = make_test_object(spacing=config.keypoints.spacing_mm)
        save_object_model(out / "model", model)
    params = config.synth_params()
    for i in range(args.count):
        rng = np.random.default_rng([config.seed, i])
        scene = synth_scene(model, rng, params, scene_id=f"scene_{i:04d}")
        save_scene(out / f"scene_{i:04d}", scene)
    print(json.dumps({"scenes": args.count, "model_keypoints": model.k,
                      "model_diameter_mm": model.diameter, "out": str(out)}))
    return 0


def cmd_prepare(args, config: RunConfig) -> int:
    model = load_object_model(Path(args.model))
    stems = _scene_stems(args.scenes)
    sampling = config.sampling_params()
    augmentation = config.augment_params()

    examples = []
    failures = []
    stats = {"scenes": 0, "positives": 0, "negatives": 0,
             "easy_shortfall": 0, "hard_shortfall": 0}
    for i, stem in enumerate(stems):
        cloud, gt = load_scene(stem)
        if gt is None:
            failures.append({"scene": stem.name, "error": "missing gt pose sidecar"})
            continue
        try:
            inst = build_instance_training_set(
                cloud, model, gt, np.random.default_rng([config.seed, i]),
                sampling, augmentation, scene_id=stem.name)
        except PointPoseError as exc:
            failures.append({"scene": stem.name, "error": str(exc)})
            continue
        examples.extend(inst.examples)
        stats["scenes"] += 1
        stats["positives"] += sum(e.class_label for e in inst.examples)
        stats["negatives"] += sum(1 - e.class_label for e in inst.examples)
        stats["easy_shortfall"] += inst.easy_shortfall
        stats["hard_shortfall"] += inst.hard_shortfall

    if not examples:
        print(json.dumps({"error": "all scenes failed", "failures": failures}),
              file=sys.stderr)
        return 2
    write_dataset(args.out, examples, k=model.k,
                  balanced=config.augmentation.balanced, seed=config.seed)
    stats["examples"] = len(examples)
    stats["failures"] = failures
    stats["out"] = str(args.out)
    print(json.dumps(stats))
    return 0


def cmd_train(args, config: RunConfig) -> int:
    header, examples = read_dataset(args.dataset)
    with_color = header.has_rgb and config.network.use_color
    input_scale = 0.0
    if config.network.normalize:
        if not args.model:
            print("network.normalize=true needs --model for the object diameter",
                  file=sys.stderr)
            return 2
        model = load_object_model(Path(args.model))
        input_scale = config.examples.radius_factor * model.diameter

    net_config = config.network_config(header.k, with_color)
    feats = assemble_features(examples, input_scale_mm=input_scale, with_color=with_color)
    cls = np.array([e.class_label for e in examples], dtype=np.int64)
    seg = np.stack([e.seg_labels for e in examples]).astype(np.int64)

    log_rows = []

    def log(epoch, loss):
        log_rows.append((epoch, loss))
        print(f"epoch {epoch + 1}/{config.training.epochs}: loss {loss:.6f}",
              file=sys.stderr)

    weights, losses = train(feats, cls, seg, net_config, config.train_config(),
                            input_scale_mm=input_scale, log_fn=log)
    save_weights(args.out, weights)
    log_path = Path(args.out).with_suffix(".loss.csv")
    with open(log_path, "w") as f:
        f.write("epoch,loss\n")
        for i, loss in enumerate(losses):
            f.write(f"{i},{loss!r}\n")
    print(json.dumps({"weights": str(args.out), "loss_log": str(log_path),
                      "final_loss": losses[-1], "examples": len(examples)}))
    return 0


def cmd_detect(args, config: RunConfig) -> int:
    model = load_object_model(Path(args.model))
    cloud, gt = load_scene(Path(args.scene).with_suffix(""))
    params = config.detect_params()
    params.voting.workers = _threads(config)
    debug_dir = Path(args.dump_debug) if args.dump_debug else None

    if args.oracle:
        if gt is None:
            print("--oracle needs a gt pose sidecar next to the scene", file=sys.stderr)
            return 2
        result = oracle_detect(cloud, model, gt, params, debug_dir=debug_dir)
    else:
        weights = load_weights(args.weights) if args.weights else None
        if weights is None:
            print("detect needs --weights (or --oracle with a gt sidecar)",
                  file=sys.stderr)
            return 2
        result = detect(cloud, model, weights, params, debug_dir=debug_dir)

    if result.failed:
        print(json.dumps({"error": "detection failed", "timings_ms": result.timings_ms}),
              file=sys.stderr)
        return 1
    save_pose_json(args.out, result.best.pose)
    info = {"pose": str(args.out), "l_loc": result.best.l_loc,
            "s_kde": result.best.s_kde, "hypotheses": len(result.ranked),
            "timings_ms": result.timings_ms}
    print(json.dumps(info))
    return 0


def cmd_eval(args, config: RunConfig) -> int:
    model = load_object_model(Path(args.model))
    stems = _scene_stems(args.scenes)
    weights = load_weights(args.weights) if args.weights else None
    if weights is None and not args.oracle:
        print("eval needs --weights or --oracle", file=sys.stderr)
        return 2
    factor = config.evaluation.threshold_factor

    # the thread budget is split across the pool: each worker's kd-tree
    # queries get their share instead of every CPU
    n_workers = min(_threads(config), len(stems))
    threads_each = max(1, _threads(config) // n_workers)
    tasks = [(str(stem), str(args.model), args.weights, bool(args.oracle),
              config_to_dict(config), threads_each) for stem in stems]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(_eval_scene_task, tasks))
    else:
        records = [_eval_scene_task(t) for t in tasks]

    from .pipeline import EvaluationReport
    report = EvaluationReport(records=records, threshold_factor=factor,
                              diameter=model.diameter)
    csv_text = report.to_csv()
    Path(args.out_csv).write_text(csv_text)
    summary = report.summary()
    Path(args.out_json).write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def _eval_scene_task(task):
    from .config import config_from_dict
    stem, model_path, weights_path, use_oracle, config_dict, threads = task
    config = config_from_dict(config_dict)
    params = config.detect_params()
    params.voting.workers = threads
    model = load_object_model(Path(model_path))
    weights = load_weights(weights_path) if weights_path else None
    cloud, gt = load_scene(Path(stem))
    if gt is None:
        raise ConfigError(f"{stem}: missing gt pose sidecar")
    from .pipeline import evaluate_scene
    return evaluate_scene(cloud, gt, model, weights, params,
                          config.evaluation.threshold_factor,
                          scene_id=Path(stem).name, use_oracle=use_oracle)


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config value (repeatable)")
    common.add_argument("--seed", type=int, help="override config seed")
    common.add_argument("--threads", type=int, help="worker pool size")
    common.add_argument("--dump-config", metavar="PATH",
                        help="write the effective config JSON and continue")

    parser = argparse.ArgumentParser(
        prog="pointpose",
        description="6-DoF object pose estimation on point clouds",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

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
    p.add_argument("--model", help="model stem (for input normalization scale)")
    p.set_defaults(fn=cmd_train)

    p = add_command("detect", "estimate the object pose in one scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--weights")
    p.add_argument("--oracle", action="store_true",
                   help="bypass the network with gt labels (needs sidecar)")
    p.add_argument("--dump-debug", metavar="DIR",
                   help="write per-stage debug artifacts A-F")
    p.add_argument("--out", required=True, help="output pose JSON")
    p.set_defaults(fn=cmd_detect)

    p = add_command("eval", "evaluate detection over a scene set")
    p.add_argument("--scenes", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--weights")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        return args.fn(args, config)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PointPoseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
