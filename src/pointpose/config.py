"""Declarative run configuration: one JSON document drives every stage.

All defaults carried here match the pipeline's canonical values (25 mm
keypoint/anchor spacing, 10/20 mm labeling band, 2048-point spheres of
radius 0.6 x diameter, 20/20/10 sampling, 0.15/0.85 loss weights, batch
16, learning rate 0.001). Unknown keys are rejected.

Every section but `keypoints`, `network` and `evaluation` is a module
dataclass: its fields are the section's keys, apart from fields marked
`metadata={"config": False}`, which the run fills in (a seed, the thread
budget, other sections). The builders below fill those in with one
`replace`. The three sections here feed derived values, and take their
defaults from the module values they feed. Every section checks its
values when it loads (`network` by the checks of the NetworkConfig it
feeds), and so does the top level (the seed). A section's own
`__post_init__` check fails as a `ConfigError` naming the section.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field, replace
from typing import List

from .dataset import AugmentParams, LabelingParams, SamplingParams, SphereParams
from .errors import ConfigError
from .modelprep import DEFAULT_KEYPOINT_SPACING_MM
from .network import NetworkConfig, TrainConfig
from .pipeline import THRESHOLD_FACTOR, DetectParams, IcpParams
from .synth import SynthParams
from .verification import VerificationParams
from .voting import VotingParams


@dataclass
class KeypointSection:
    spacing_mm: float = DEFAULT_KEYPOINT_SPACING_MM

    def __post_init__(self):
        if not self.spacing_mm > 0:  # written so that NaN fails too
            raise ValueError("spacing_mm must be positive")


@dataclass
class NetworkSection:
    use_color: bool = False
    encoder: List[int] = field(default_factory=lambda: list(NetworkConfig.encoder))
    classifier: List[int] = field(default_factory=lambda: list(NetworkConfig.classifier))
    # the segmenter's hidden widths; its output width is k + 1
    segmenter_hidden: List[int] = field(
        default_factory=lambda: list(NetworkConfig.segmenter[:-1]))
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
class EvaluationSection:
    threshold_factor: float = THRESHOLD_FACTOR

    def __post_init__(self):
        if not self.threshold_factor > 0:  # written so that NaN fails too
            raise ValueError("threshold_factor must be positive")


@dataclass
class RunConfig:
    seed: int = 0
    threads: int = 0  # 0 -> every CPU this process may use
    keypoints: KeypointSection = field(default_factory=KeypointSection)
    labeling: LabelingParams = field(default_factory=LabelingParams)
    examples: SphereParams = field(default_factory=SphereParams)
    sampling: SamplingParams = field(default_factory=SamplingParams)
    augmentation: AugmentParams = field(default_factory=AugmentParams)
    network: NetworkSection = field(default_factory=NetworkSection)
    training: TrainConfig = field(default_factory=TrainConfig)
    voting: VotingParams = field(default_factory=VotingParams)
    icp: IcpParams = field(default_factory=IcpParams)
    verification: VerificationParams = field(default_factory=VerificationParams)
    detect: DetectParams = field(default_factory=DetectParams)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    synth: SynthParams = field(default_factory=SynthParams)

    def __post_init__(self):
        # numpy seeds and the dataset header's u64 take no negative seed
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be at least 0 and below 2**64")

    # -- builders for the module-level parameter objects ---------------------

    def sampling_params(self) -> SamplingParams:
        return replace(self.sampling, labeling=self.labeling, spheres=self.examples)

    def train_config(self) -> TrainConfig:
        return replace(self.training, seed=self.seed)

    def detect_params(self) -> DetectParams:
        return replace(self.detect, spheres=self.examples, icp=self.icp,
                       voting=replace(self.voting, subsample_seed=self.seed),
                       verification=self.verification, seed=self.seed,
                       threads=self.threads)


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
        if dataclasses.is_dataclass(f.default_factory):
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
