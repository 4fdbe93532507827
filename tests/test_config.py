"""The run configuration: its JSON schema, round trips, run-time fields that
are not keys, section checks, and the builders of the remaining sections."""

import json
import re
from pathlib import Path
from typing import Tuple

import pytest

from pointpose import cli
from pointpose.config import (RunConfig, _fits, apply_override, config_from_dict,
                              config_to_dict, save_config)
from pointpose.dataset import SamplingParams
from pointpose.errors import ConfigError
from pointpose.network import NetworkConfig, TrainConfig
from pointpose.pipeline import DetectParams

# `pointpose synth --dump-config` of the default config, recorded before the
# module parameter classes became config sections
DEFAULT_CONFIG = Path(__file__).parent / "data" / "default_config.json"

# fields the run fills in (seeds, the thread budget), and a synth constant
NOT_KEYS = ["training.seed", "voting.subsample_seed", "detect.threads",
            "synth.hpr_splat_px"]


def test_default_config_matches_the_recorded_schema(tmp_path):
    assert config_to_dict(RunConfig()) == json.loads(DEFAULT_CONFIG.read_text())
    save_config(tmp_path / "config.json", RunConfig())
    assert (tmp_path / "config.json").read_bytes() == DEFAULT_CONFIG.read_bytes()


def test_non_default_config_round_trips():
    config = RunConfig()
    for assignment in ["seed=7", "threads=1", 'augmentation.jitter_channels=["xyz", "rgb"]',
                       "augmentation.balanced=false", "training.w_cls=0.4",
                       "training.w_seg=0.6", "training.epochs=3", "voting.n_theta=12",
                       "voting.min_confidence=0.25", "verification.splat_px=0",
                       "synth.clutter_count=0", "icp.schedule=[[40, 10]]",
                       "sampling.hard_band=[0.5, 1.0]", "network.encoder=[8, 16]"]:
        apply_override(config, assignment)
    data = config_to_dict(config)
    back = config_from_dict(data)
    assert back == config
    assert back.augmentation.jitter_channels == ("xyz", "rgb")
    assert config_to_dict(back) == data
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("key", NOT_KEYS)
def test_fields_outside_the_schema_are_not_config_keys(key, tmp_path, capsys):
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        config_from_dict({section: {name: 1}})
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        apply_override(RunConfig(), f"{key}=1")
    assert name not in config_to_dict(RunConfig())[section]

    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {name: 1}}))
    code = cli.main(["synth", "--out", str(tmp_path / "scenes"), "--config", str(path)])
    assert code == 2
    assert f"unknown config key: {key}" in capsys.readouterr().err
    code = cli.main(["synth", "--out", str(tmp_path / "scenes"), "--set", f"{key}=1"])
    assert code == 2
    assert f"unknown config key: {key}" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


def test_builders_match_module_defaults():
    config = RunConfig()
    assert config.detect_params() == DetectParams()
    assert config.sampling_params() == SamplingParams()
    assert config.network.network_config(50, False) == NetworkConfig(k=50)
    assert config.train_config() == TrainConfig()


def test_builders_fill_in_the_run_seed():
    config = RunConfig(seed=5)
    assert config.train_config().seed == 5
    params = config.detect_params()
    assert params.seed == params.voting.subsample_seed == 5
    assert config.training.seed == config.voting.subsample_seed == 0


def test_builder_fills_in_the_thread_budget():
    assert RunConfig(threads=3).detect_params().threads == 3
    assert RunConfig().detect_params().threads == 0


@pytest.mark.parametrize("assignment, message", [
    ("verification.splat_px=-1", "verification: margin and splat radius must be non-negative"),
    ("voting.n_theta=3", "voting: n_theta must be at least 4"),
    ("voting.delta_t_mm=0", "voting: delta_t_mm must be positive"),
    ("voting.delta_t_mm=NaN", "voting: delta_t_mm must be positive"),
    ("voting.delta_r_deg=0", "voting: delta_r_deg must be above 0 and below 180"),
    ("voting.delta_r_deg=180", "voting: delta_r_deg must be above 0 and below 180"),
    ("voting.min_correspondences=0",
     "voting: min_correspondences must be at least 1 and at most max_correspondences"),
    ("voting.max_correspondences=0",
     "voting: min_correspondences must be at least 1 and at most max_correspondences"),
    ("voting.min_confidence=2", "voting: min_confidence must be between 0 and 1"),
    ("voting.min_confidence=-0.5", "voting: min_confidence must be between 0 and 1"),
    ("training.w_cls=0.5", "training: loss weights must sum to 1"),
    ("training.w_cls=NaN", "training: loss weights must sum to 1"),
    ("training.learning_rate=NaN",
     "training: batch_size/epochs must be positive, learning_rate >= 0"),
    ("verification.occlusion_margin_mm=NaN",
     "verification: margin and splat radius must be non-negative"),
])
def test_section_check_fails_as_config_error(assignment, message, tmp_path, capsys):
    key, raw = assignment.split("=")
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=message):
        config_from_dict({section: {name: json.loads(raw)}})

    code = cli.main(["synth", "--out", str(tmp_path / "scenes"), "--set", assignment])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


@pytest.mark.parametrize("command, assignment, message", [
    ("train", "network.classifier=[512, 2]",
     "network: classifier must end in a single logistic unit"),
    ("train", "network.encoder=[64, 0]", "network: layer widths must be positive"),
    ("detect", "icp.schedule=[[50]]",
     "icp: each schedule level must be a [gate, iterations] pair"),
    ("detect", "icp.schedule=[[25, 30], [50, 30]]",
     "icp: correspondence gates must be positive and strictly decreasing"),
    ("detect", "icp.schedule=[[50, 0.5]]", "icp: iterations must be whole numbers of at least 1"),
    ("detect", "icp.model_leaf_mm=0", "icp: model_leaf_mm must be positive"),
    ("detect --weights", "detect.top_anchors=0", "detect: top_anchors must be positive"),
    ("detect --weights", "detect.anchor_leaf_mm=0", "detect: anchor_leaf_mm must be positive"),
    ("detect --weights", "detect.anchor_leaf_mm=-3", "detect: anchor_leaf_mm must be positive"),
    ("detect --weights", "detect.min_sphere_points=0",
     "detect: min_sphere_points must be positive"),
    ("detect --weights", "detect.normal_radius_mm=0",
     "detect: normal_radius_mm must be positive"),
    ("detect", "detect.oracle_anchors=0", "detect: oracle_anchors must be positive"),
    ("detect --weights", "examples.n_points=0", "examples: n_points must be at least 2"),
    ("detect --weights", "examples.n_points=1", "examples: n_points must be at least 2"),
    ("prepare", "examples.n_points=1", "examples: n_points must be at least 2"),
    ("detect --weights", "examples.radius_factor=-1",
     "examples: radius_factor must be positive"),
    ("synth", "keypoints.spacing_mm=0", "keypoints: spacing_mm must be positive"),
    ("prepare", "sampling.positives=0", "sampling: positives must be at least 1"),
    ("prepare", "sampling.positives=-1", "sampling: positives must be at least 1"),
    ("prepare", "sampling.easy_negatives=-2", "sampling: easy_negatives must be at least 0"),
    ("prepare", "sampling.hard_negatives=-1", "sampling: hard_negatives must be at least 0"),
    ("prepare", "sampling.hard_band=[1.2, 0.6]",
     "sampling: hard_band must be [lo, hi] with 0 < lo < hi"),
    ("prepare", "sampling.hard_band=[0, 1.2]",
     "sampling: hard_band must be [lo, hi] with 0 < lo < hi"),
    ("prepare", "sampling.hard_band=[0.6]",
     "sampling: hard_band must be [lo, hi] with 0 < lo < hi"),
    ("prepare", "labeling.background_mm=5",
     "labeling: need 0 < foreground_mm < background_mm"),
    ("prepare", "labeling.foreground_mm=0",
     "labeling: need 0 < foreground_mm < background_mm"),
    ("synth", "synth.table_step_mm=0", "synth: table_step_mm must be positive"),
    ("synth", "synth.table_size_mm=-1", "synth: table_size_mm must be positive"),
    ("synth", "synth.table_distance_mm=NaN", "synth: table_distance_mm must be positive"),
    ("synth", "synth.noise_sigma_mm=-0.5",
     "synth: noise_sigma_mm and clutter_count must be at least 0"),
    ("synth", "synth.clutter_count=-1",
     "synth: noise_sigma_mm and clutter_count must be at least 0"),
    ("synth", "synth.occluder_probability=1.5",
     "synth: occluder_probability must be between 0 and 1"),
    ("synth", "synth.occluder_probability=NaN",
     "synth: occluder_probability must be between 0 and 1"),
    ("prepare", "augmentation.jitter_sigma=-0.01",
     "augmentation: jitter_sigma must be at least 0"),
    ("prepare", "augmentation.object_shift_factor=-1",
     "augmentation: object_shift_factor must be at least 0"),
    ("prepare", "augmentation.background_shift_factor=NaN",
     "augmentation: background_shift_factor must be at least 0"),
    ("prepare", "augmentation.background_swap_multiplier=-1",
     "augmentation: background_swap_multiplier must be at least 0"),
    ("prepare", "augmentation.segment_drop_prob=2",
     "augmentation: segment_drop_prob must be between 0 and 1"),
    ("prepare", "augmentation.max_segment_drop_fraction=-0.5",
     "augmentation: max_segment_drop_fraction must be between 0 and 1"),
    ("prepare", 'augmentation.jitter_channels=["xyz", "color"]',
     "augmentation: unknown jitter_channels ['color']; known: xyz, normal, curvature, rgb"),
    ("eval", "evaluation.threshold_factor=0", "evaluation: threshold_factor must be positive"),
    ("synth", "seed=-1", "config: seed must be at least 0 and below 2**64"),
])
def test_mirror_section_check_fails_at_load(command, assignment, message, tmp_path, capsys):
    config = RunConfig()
    apply_override(config, assignment)
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(config_to_dict(config))

    # none of these input files or output directories exists: the config
    # must fail before any is read or made
    files = {"train": ["--dataset", "d.bin", "--model", "model", "--out", "w.bin"],
             "detect": ["--oracle", "--scene", "scene", "--model", "model", "--out", "pose.json"],
             "detect --weights": ["--weights", "w.bin", "--scene", "scene", "--model", "model",
                                  "--out", "pose.json"],
             "prepare": ["--scenes", "scenes", "--model", "model", "--out", "d.bin"],
             "eval": ["--oracle", "--scenes", "scenes", "--model", "model",
                      "--out-csv", "eval.csv", "--out-json", "eval.json"],
             "synth": ["--out", "scenes"]}
    argv = [command.split()[0]] + [a if a.startswith("--") else str(tmp_path / a)
                                   for a in files[command]]
    assert cli.main(argv + ["--set", assignment]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("order", [1, -1])
def test_overrides_are_checked_together(order, tmp_path):
    overrides = ["training.w_cls=0.5", "training.w_seg=0.5"][::order]
    argv = ["synth", "--out", str(tmp_path / "scenes"), "--count", "0",
            "--dump-config", str(tmp_path / "config.json")]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert cli.main(argv) == 0
    training = json.loads((tmp_path / "config.json").read_text())["training"]
    assert training["w_cls"] == training["w_seg"] == 0.5


@pytest.mark.parametrize("tp, value, fits", [
    (Tuple[str, ...], ["xyz", "rgb"], True),
    (Tuple[str, ...], [], True),
    (Tuple[str, ...], ["xyz", 1], False),
    (Tuple[str, ...], "xyz", False),
    (Tuple[float, int], [50, 30], True),
    (Tuple[float, int], [50.0, 30.5], False),
    (Tuple[float, int], [50.0], False),
    (Tuple[float, int], [50.0, 30, 1], False),
])
def test_tuple_types_take_json_arrays(tp, value, fits):
    assert _fits(tp, value) is fits
