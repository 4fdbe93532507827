"""Declarative run configuration: one JSON document drives every stage.

All defaults carried here match the pipeline's canonical values (25 mm
keypoint/anchor spacing, 10/20 mm labeling band, 2048-point spheres of
radius 0.6 x diameter, 20/20/10 sampling, 0.15/0.85 loss weights, batch
16, learning rate 0.001). Unknown keys are rejected.

A module dataclass is a section when its fields are that section's keys,
apart from fields marked `metadata={"config": False}`, which the run fills
in (a seed): `augmentation`, `training`, `voting`,
`verification` and `synth`. The other sections span several module classes
or feed derived values, so the builders below assemble those. Every
section checks its values when it loads (`network` and `icp` by the
checks of the module values they feed), and so does the top level (the
seed). A section's own `__post_init__` check fails as a `ConfigError`
naming the section.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field, replace
from typing import List

from .dataset import AugmentParams, SamplingParams
from .errors import ConfigError
from .geometry import check_icp_schedule
from .network import NetworkConfig, TrainConfig
from .pipeline import DetectParams
from .synth import SynthParams
from .verification import VerificationParams
from .voting import VotingParams


def _check_positive(section, *names) -> None:
    """ValueError naming the first of the section's fields `names` that is
    not above 0 (NaN included)."""
    for name in names:
        if not getattr(section, name) > 0:
            raise ValueError(f"{name} must be positive")


@dataclass
class KeypointSection:
    spacing_mm: float = 25.0

    def __post_init__(self):
        _check_positive(self, "spacing_mm")


@dataclass
class LabelingSection:
    foreground_mm: float = 10.0
    background_mm: float = 20.0

    def __post_init__(self):
        if not 0 < self.foreground_mm < self.background_mm:
            raise ValueError("need 0 < foreground_mm < background_mm")


@dataclass
class ExampleSection:
    n_points: int = 2048
    radius_factor: float = 0.6

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2 (the network's point sets)")
        _check_positive(self, "radius_factor")


@dataclass
class SamplingSection:
    positives: int = 20
    easy_negatives: int = 20
    hard_negatives: int = 10
    hard_band: List[float] = field(default_factory=lambda: [0.6, 1.2])

    def __post_init__(self):
        if self.positives < 1:  # augmentation swaps the backgrounds of positives
            raise ValueError("positives must be at least 1")
        for name in ("easy_negatives", "hard_negatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        if not (len(self.hard_band) == 2 and 0 < self.hard_band[0] < self.hard_band[1]):
            raise ValueError("hard_band must be [lo, hi] with 0 < lo < hi")


@dataclass
class NetworkSection:
    use_color: bool = False
    encoder: List[int] = field(default_factory=lambda: [64, 64, 128, 1024])
    classifier: List[int] = field(default_factory=lambda: [512, 256, 1])
    segmenter_hidden: List[int] = field(default_factory=lambda: [512, 256, 128])
    normalize: bool = True  # divide xyz by 0.6 x diameter

    def __post_init__(self):
        # NetworkConfig's checks at load; the dataset sets k and the input width
        self.network_config(k=1, with_color=False)

    def network_config(self, k: int, with_color: bool) -> NetworkConfig:
        return NetworkConfig(
            k=k,
            input_channels=10 if with_color else 7,
            encoder=tuple(self.encoder),
            classifier=tuple(self.classifier),
            segmenter=tuple(self.segmenter_hidden) + (k + 1,),
        )


@dataclass
class IcpSection:
    schedule: List[List[float]] = field(default_factory=lambda: [[50.0, 30],
                                                                 [25.0, 30],
                                                                 [10.0, 30]])
    model_leaf_mm: float = 5.0

    def __post_init__(self):
        check_icp_schedule(self.schedule)
        _check_positive(self, "model_leaf_mm")


@dataclass
class DetectSection:
    anchor_leaf_mm: float = 25.0
    top_anchors: int = 16
    min_sphere_points: int = 64
    normal_radius_mm: float = 10.0
    oracle_anchors: int = 1

    def __post_init__(self):
        _check_positive(self, "anchor_leaf_mm", "top_anchors", "min_sphere_points",
                        "normal_radius_mm", "oracle_anchors")


@dataclass
class EvaluationSection:
    threshold_factor: float = 0.1

    def __post_init__(self):
        _check_positive(self, "threshold_factor")


@dataclass
class RunConfig:
    seed: int = 0
    threads: int = 0  # 0 -> every CPU this process may use
    keypoints: KeypointSection = field(default_factory=KeypointSection)
    labeling: LabelingSection = field(default_factory=LabelingSection)
    examples: ExampleSection = field(default_factory=ExampleSection)
    sampling: SamplingSection = field(default_factory=SamplingSection)
    augmentation: AugmentParams = field(default_factory=AugmentParams)
    network: NetworkSection = field(default_factory=NetworkSection)
    training: TrainConfig = field(default_factory=TrainConfig)
    voting: VotingParams = field(default_factory=VotingParams)
    icp: IcpSection = field(default_factory=IcpSection)
    verification: VerificationParams = field(default_factory=VerificationParams)
    detect: DetectSection = field(default_factory=DetectSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    synth: SynthParams = field(default_factory=SynthParams)

    def __post_init__(self):
        # numpy seeds and the dataset header's u64 take no negative seed
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be at least 0 and below 2**64")

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

    def train_config(self) -> TrainConfig:
        return replace(self.training, seed=self.seed)

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
            threads=self.threads,
            voting=replace(self.voting, subsample_seed=self.seed),
            verification=replace(self.verification),
        )


def _keys(cls) -> dict:
    """The fields of a dataclass (or of its instance) that are config keys."""
    return {f.name: f for f in dataclasses.fields(cls) if f.metadata.get("config", True)}


def _fits(tp, value) -> bool:
    """Whether a parsed JSON value fits a field's declared type: an int
    field takes no bool or str, a float field also takes an int, a list or
    tuple field takes an array, and no field takes null."""
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
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(_fits(a, v) for a, v in zip(args, value))
    raise TypeError(f"no JSON type check for {tp}")


def _checked(cls, name: str, value, key: str):
    """`value` if it fits the declared type of field `name` of `cls`; a
    tuple field gets a tuple."""
    tp = typing.get_type_hints(cls)[name]
    if not _fits(tp, value):
        expected = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
        raise ConfigError(f"{key}: expected {expected}, got {json.dumps(value)}")
    return tuple(value) if typing.get_origin(tp) is tuple else value


def _from_dict(cls, data, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    fields = _keys(cls)
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
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path.rstrip('.') or 'config'}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data)


def config_to_dict(config) -> dict:
    """The config keys of a config or section as JSON values, tuples as lists."""
    def plain(value):
        if dataclasses.is_dataclass(value):
            return config_to_dict(value)
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return value
    return {name: plain(getattr(config, name)) for name in _keys(config)}


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
    possible and falls back to a plain string. Only its type is checked: the
    sections' own checks run when the finished config is rebuilt through
    `config_from_dict`, so that values checked together (the loss weights)
    can be set one at a time."""
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
        if not dataclasses.is_dataclass(target) or part not in _keys(target):
            raise ConfigError(f"unknown config key: {key}")
        target = getattr(target, part)
    leaf = parts[-1]
    if not dataclasses.is_dataclass(target) or leaf not in _keys(target):
        raise ConfigError(f"unknown config key: {key}")
    if dataclasses.is_dataclass(getattr(target, leaf)):
        raise ConfigError(f"{key} is a section, not a value")
    setattr(target, leaf, _checked(type(target), leaf, value, key))
