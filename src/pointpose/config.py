"""Declarative run configuration: one JSON document drives every stage.

All defaults carried here match the pipeline's canonical values (25 mm
keypoint/anchor spacing, 10/20 mm labeling band, 2048-point spheres of
radius 0.6 x diameter, 20/20/10 sampling, 0.15/0.85 loss weights, batch
16, learning rate 0.001). Unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from typing import List

from .dataset import AugmentParams, SamplingParams
from .errors import ConfigError
from .network import NetworkConfig, TrainConfig
from .pipeline import DetectParams
from .synth import SynthParams
from .verification import VerificationParams
from .voting import VotingParams


@dataclass
class KeypointSection:
    spacing_mm: float = 25.0


@dataclass
class LabelingSection:
    foreground_mm: float = 10.0
    background_mm: float = 20.0


@dataclass
class ExampleSection:
    n_points: int = 2048
    radius_factor: float = 0.6


@dataclass
class SamplingSection:
    positives: int = 20
    easy_negatives: int = 20
    hard_negatives: int = 10
    hard_band: List[float] = field(default_factory=lambda: [0.6, 1.2])


@dataclass
class AugmentSection:
    balanced: bool = True
    background_swap_multiplier: int = 1
    jitter_sigma: float = 0.01
    jitter_channels: List[str] = field(default_factory=lambda: ["xyz", "normal",
                                                                "curvature", "rgb"])
    segment_drop_prob: float = 0.2
    max_segment_drop_fraction: float = 0.5
    object_shift_factor: float = 0.05
    background_shift_factor: float = 0.5


@dataclass
class NetworkSection:
    use_color: bool = False
    encoder: List[int] = field(default_factory=lambda: [64, 64, 128, 1024])
    classifier: List[int] = field(default_factory=lambda: [512, 256, 1])
    segmenter_hidden: List[int] = field(default_factory=lambda: [512, 256, 128])
    normalize: bool = True  # divide xyz by 0.6 x diameter


@dataclass
class TrainingSection:
    batch_size: int = 16
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 80
    w_cls: float = 0.15
    w_seg: float = 0.85


@dataclass
class VotingSection:
    n_theta: int = 36
    delta_t_mm: float = 10.0
    delta_r_deg: float = 12.0
    min_correspondences: int = 10
    max_correspondences: int = 500
    min_confidence: float = 0.0


@dataclass
class IcpSection:
    schedule: List[List[float]] = field(default_factory=lambda: [[50.0, 30],
                                                                 [25.0, 30],
                                                                 [10.0, 30]])
    model_leaf_mm: float = 5.0


@dataclass
class VerificationSection:
    occlusion_margin_mm: float = 5.0
    splat_px: int = 2
    color: bool = True


@dataclass
class DetectSection:
    anchor_leaf_mm: float = 25.0
    top_anchors: int = 16
    min_sphere_points: int = 64
    normal_radius_mm: float = 10.0
    oracle_anchors: int = 1


@dataclass
class EvaluationSection:
    threshold_factor: float = 0.1


@dataclass
class SynthSection:
    noise_sigma_mm: float = 0.0
    clutter_count: int = 3
    occluder_probability: float = 0.0
    table_size_mm: float = 500.0
    table_distance_mm: float = 900.0
    table_step_mm: float = 3.5


@dataclass
class RunConfig:
    seed: int = 0
    threads: int = 0  # 0 -> every CPU this process may use
    keypoints: KeypointSection = field(default_factory=KeypointSection)
    labeling: LabelingSection = field(default_factory=LabelingSection)
    examples: ExampleSection = field(default_factory=ExampleSection)
    sampling: SamplingSection = field(default_factory=SamplingSection)
    augmentation: AugmentSection = field(default_factory=AugmentSection)
    network: NetworkSection = field(default_factory=NetworkSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    voting: VotingSection = field(default_factory=VotingSection)
    icp: IcpSection = field(default_factory=IcpSection)
    verification: VerificationSection = field(default_factory=VerificationSection)
    detect: DetectSection = field(default_factory=DetectSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    synth: SynthSection = field(default_factory=SynthSection)

    # -- builders for the module-level parameter objects ---------------------

    def sampling_params(self) -> SamplingParams:
        return SamplingParams(
            foreground_mm=self.labeling.foreground_mm,
            background_mm=self.labeling.background_mm,
            n_points=self.examples.n_points,
            radius_factor=self.examples.radius_factor,
            positives=self.sampling.positives,
            easy_negatives=self.sampling.easy_negatives,
            hard_negatives=self.sampling.hard_negatives,
            hard_band=tuple(self.sampling.hard_band),
        )

    def augment_params(self) -> AugmentParams:
        a = self.augmentation
        return AugmentParams(
            balanced=a.balanced,
            background_swap_multiplier=a.background_swap_multiplier,
            jitter_sigma=a.jitter_sigma,
            jitter_channels=tuple(a.jitter_channels),
            segment_drop_prob=a.segment_drop_prob,
            max_segment_drop_fraction=a.max_segment_drop_fraction,
            object_shift_factor=a.object_shift_factor,
            background_shift_factor=a.background_shift_factor,
        )

    def network_config(self, k: int, with_color: bool) -> NetworkConfig:
        n = self.network
        return NetworkConfig(
            k=k,
            input_channels=10 if with_color else 7,
            encoder=tuple(n.encoder),
            classifier=tuple(n.classifier),
            segmenter=tuple(n.segmenter_hidden) + (k + 1,),
        )

    def train_config(self) -> TrainConfig:
        t = self.training
        return TrainConfig(batch_size=t.batch_size, learning_rate=t.learning_rate,
                           beta1=t.beta1, beta2=t.beta2, epsilon=t.epsilon,
                           epochs=t.epochs, w_cls=t.w_cls, w_seg=t.w_seg,
                           seed=self.seed)

    def voting_params(self) -> VotingParams:
        v = self.voting
        return VotingParams(n_theta=v.n_theta, delta_t_mm=v.delta_t_mm,
                            delta_r_deg=v.delta_r_deg,
                            min_correspondences=v.min_correspondences,
                            max_correspondences=v.max_correspondences,
                            min_confidence=v.min_confidence,
                            subsample_seed=self.seed)

    def verification_params(self) -> VerificationParams:
        v = self.verification
        return VerificationParams(occlusion_margin_mm=v.occlusion_margin_mm,
                                  splat_px=v.splat_px, color=v.color)

    def detect_params(self) -> DetectParams:
        d = self.detect
        return DetectParams(
            anchor_leaf_mm=d.anchor_leaf_mm,
            top_anchors=d.top_anchors,
            min_sphere_points=d.min_sphere_points,
            n_points=self.examples.n_points,
            radius_factor=self.examples.radius_factor,
            normal_radius_mm=d.normal_radius_mm,
            icp_schedule=tuple((float(g), int(it)) for g, it in self.icp.schedule),
            icp_model_leaf_mm=self.icp.model_leaf_mm,
            oracle_anchors=d.oracle_anchors,
            seed=self.seed,
            voting=self.voting_params(),
            verification=self.verification_params(),
        )

    def synth_params(self) -> SynthParams:
        s = self.synth
        return SynthParams(noise_sigma_mm=s.noise_sigma_mm,
                           clutter_count=s.clutter_count,
                           occluder_probability=s.occluder_probability,
                           table_size_mm=s.table_size_mm,
                           table_distance_mm=s.table_distance_mm,
                           table_step_mm=s.table_step_mm)


def _fits(tp, value) -> bool:
    """Whether a parsed JSON value fits a field's declared type: an int
    field takes no bool or str, a float field also takes an int, and no field
    takes null."""
    if tp is bool:
        return isinstance(value, bool)
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if tp is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is str:
        return isinstance(value, str)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_fits(args[0], v) for v in value)
    raise TypeError(f"no JSON type check for {tp}")


def _checked(cls, name: str, value, key: str):
    """`value` if it fits the declared type of field `name` of `cls`."""
    tp = typing.get_type_hints(cls)[name]
    if not _fits(tp, value):
        expected = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
        raise ConfigError(f"{key}: expected {expected}, got {json.dumps(value)}")
    return value


def _from_dict(cls, data, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config key{'s' if len(unknown) > 1 else ''}: "
                          + ", ".join(f"{path}{k}" for k in unknown))
    kwargs = {}
    for name, value in data.items():
        f = fields[name]
        if dataclasses.is_dataclass(f.type) or (isinstance(f.default_factory, type)
                                                and dataclasses.is_dataclass(f.default_factory)):
            kwargs[name] = _from_dict(f.default_factory, value, f"{path}{name}.")
        elif isinstance(value, dict):
            raise ConfigError(f"{path}{name}: unexpected nested object")
        else:
            kwargs[name] = _checked(cls, name, value, f"{path}{name}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data)


def config_to_dict(config: RunConfig) -> dict:
    return dataclasses.asdict(config)


def load_config(path) -> RunConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(path, config: RunConfig) -> None:
    with open(path, "w") as f:
        json.dump(config_to_dict(config), f, indent=2)
        f.write("\n")


def apply_override(config: RunConfig, assignment: str) -> None:
    """Apply one `dotted.key=value` override; the value parses as JSON when
    possible and falls back to a plain string."""
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw

    target = config
    parts = key.split(".")
    for part in parts[:-1]:
        if not dataclasses.is_dataclass(target) or part not in {f.name for f in dataclasses.fields(target)}:
            raise ConfigError(f"unknown config key: {key}")
        target = getattr(target, part)
    leaf = parts[-1]
    if not dataclasses.is_dataclass(target) or leaf not in {f.name for f in dataclasses.fields(target)}:
        raise ConfigError(f"unknown config key: {key}")
    if dataclasses.is_dataclass(getattr(target, leaf)):
        raise ConfigError(f"{key} is a section, not a value")
    setattr(target, leaf, _checked(type(target), leaf, value, key))
