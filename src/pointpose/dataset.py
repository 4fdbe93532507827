"""Training-data generation from annotated scenes.

Per annotated object instance: label scene points against the posed model
(foreground <= 10 mm, discard band (10, 20] mm, background beyond), extract
2048-point spherical examples (20 positives, 20 easy negatives, 10 hard
negatives), augment by 60 more, jitter everything, and serialize to a
length-prefixed binary file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import IO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DatasetFormatError, EmptyNeighborhoodError,
                     InsufficientForegroundError, MissingChannelError)
from .geometry import NNIndex
from .modelprep import Keypoint, ObjectModel, nearest_keypoint_labels
from .pointcloud import PointCloud
from .pose import RigidPose

FOREGROUND_MM = 10.0
BACKGROUND_MM = 20.0
POINTS_PER_EXAMPLE = 2048
SPHERE_RADIUS_FACTOR = 0.6

DISCARD = -1
BACKGROUND = 0
JITTER_CHANNELS = ("xyz", "normal", "curvature", "rgb")


@dataclass
class SamplingParams:
    foreground_mm: float = FOREGROUND_MM
    background_mm: float = BACKGROUND_MM
    n_points: int = POINTS_PER_EXAMPLE
    radius_factor: float = SPHERE_RADIUS_FACTOR
    positives: int = 20
    easy_negatives: int = 20
    hard_negatives: int = 10
    hard_band: Tuple[float, float] = (0.6, 1.2)  # x diameter, from object centroid


@dataclass
class AugmentParams:
    balanced: bool = True  # 15/15/30 split instead of the literal 20/20/20
    background_swap_multiplier: int = 1
    jitter_sigma: float = 0.01
    jitter_channels: Tuple[str, ...] = JITTER_CHANNELS
    segment_drop_prob: float = 0.2
    max_segment_drop_fraction: float = 0.5
    object_shift_factor: float = 0.05    # x diameter, per axis
    background_shift_factor: float = 0.5  # x diameter, per axis

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("jitter_sigma", "object_shift_factor", "background_shift_factor",
                     "background_swap_multiplier"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be at least 0")
        for name in ("segment_drop_prob", "max_segment_drop_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be between 0 and 1")
        unknown = sorted(set(self.jitter_channels) - set(JITTER_CHANNELS))
        if unknown:
            raise ValueError(f"unknown jitter_channels {unknown}; known: "
                             + ", ".join(JITTER_CHANNELS))


@dataclass
class SceneLabels:
    """Per-point label: -1 discard, 0 background, 1..K nearest keypoint."""

    labels: np.ndarray

    @property
    def foreground_mask(self) -> np.ndarray:
        return self.labels > 0

    @property
    def background_mask(self) -> np.ndarray:
        return self.labels == BACKGROUND


@dataclass
class ExampleMeta:
    anchor_mm: Optional[np.ndarray] = None    # sphere center, scene/working frame
    centroid_mm: Optional[np.ndarray] = None  # subtracted centroid, same frame


@dataclass
class LabeledExample:
    """Centered 2048-point training example (float32 storage)."""

    positions: np.ndarray            # (N, 3) f32, centroid-subtracted
    normals: np.ndarray              # (N, 3) f32
    curvatures: np.ndarray           # (N,)  f32
    seg_labels: np.ndarray           # (N,)  u16, 0 = background
    class_label: int
    colors: Optional[np.ndarray] = None  # (N, 3) f32
    meta: ExampleMeta = field(default_factory=ExampleMeta)

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float32)
        self.normals = np.ascontiguousarray(self.normals, dtype=np.float32)
        self.curvatures = np.ascontiguousarray(self.curvatures, dtype=np.float32)
        self.seg_labels = np.ascontiguousarray(self.seg_labels, dtype=np.uint16)
        if self.colors is not None:
            self.colors = np.ascontiguousarray(self.colors, dtype=np.float32)
        if self.class_label not in (0, 1):
            raise ValueError(f"class_label must be 0 or 1, got {self.class_label}")

    def __len__(self) -> int:
        return len(self.positions)


def label_scene(scene: PointCloud, model: ObjectModel, gt: RigidPose,
                foreground_mm: float = FOREGROUND_MM,
                background_mm: float = BACKGROUND_MM) -> SceneLabels:
    """Label scene points by distance to the posed dense model cloud."""
    posed = model.cloud.transformed(gt)
    # points beyond the background band are all background: a bounded
    # search leaves them early instead of finding their nearest model point
    _, dist = NNIndex(posed.positions, max_dist=background_mm).nearest_batch(scene.positions)

    labels = np.zeros(len(scene), dtype=np.int32)
    labels[(dist > foreground_mm) & (dist <= background_mm)] = DISCARD
    fg = dist <= foreground_mm
    if fg.any():
        posed_kps = [replace_position(kp, gt) for kp in model.keypoints]
        fg_cloud = scene.select(np.nonzero(fg)[0])
        labels[fg] = nearest_keypoint_labels(fg_cloud, posed_kps)
    return SceneLabels(labels=labels)


def replace_position(kp: Keypoint, pose: RigidPose) -> Keypoint:
    """Keypoint moved by a rigid pose (normal rotated along)."""
    return Keypoint(position=pose.apply(kp.position),
                    normal=pose.rotation @ kp.normal)


def _sample_fill(ids: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from ids: without replacement when possible, else all + refill."""
    if len(ids) >= n:
        return ids[rng.choice(len(ids), size=n, replace=False)]
    extra = ids[rng.choice(len(ids), size=n - len(ids), replace=True)]
    return np.concatenate([ids, extra])


def extract_example(scene: PointCloud, labels: SceneLabels, center: np.ndarray,
                    model: ObjectModel, class_label: int, rng: np.random.Generator,
                    scene_index: Optional[NNIndex] = None,
                    n_points: int = POINTS_PER_EXAMPLE,
                    radius_factor: float = SPHERE_RADIUS_FACTOR) -> LabeledExample:
    """Uniformly sample a centered n-point sphere around `center`.

    Discard-band points are excluded. Fewer than n available points are
    topped up by sampling with replacement. The scene needs normals and
    curvatures (see `pipeline.ensure_channels`).
    """
    if scene.normals is None or scene.curvatures is None:
        raise MissingChannelError("a training example needs scene normals and curvatures")
    center = np.asarray(center, dtype=np.float64).reshape(3)
    index = scene_index if scene_index is not None else NNIndex(scene.positions)
    radius = radius_factor * model.diameter
    in_sphere = index.ball(center, radius)
    in_sphere = in_sphere[labels.labels[in_sphere] != DISCARD]
    if len(in_sphere) == 0:
        raise EmptyNeighborhoodError(f"no usable points within {radius:.1f} mm of {center}")

    chosen = _sample_fill(in_sphere, n_points, rng)
    positions = scene.positions[chosen]
    centroid = positions.mean(axis=0)
    seg = np.maximum(labels.labels[chosen], 0).astype(np.uint16)

    return LabeledExample(
        positions=positions - centroid,
        normals=scene.normals[chosen],
        curvatures=scene.curvatures[chosen],
        seg_labels=seg,
        class_label=class_label,
        colors=scene.colors[chosen] if scene.colors is not None else None,
        meta=ExampleMeta(anchor_mm=center, centroid_mm=centroid),
    )


@dataclass
class InstanceExamples:
    examples: List[LabeledExample]
    easy_shortfall: int = 0
    hard_shortfall: int = 0


def generate_instance_examples(scene: PointCloud, model: ObjectModel, gt: RigidPose,
                               rng: np.random.Generator,
                               params: SamplingParams = SamplingParams(),
                               labels: Optional[SceneLabels] = None) -> InstanceExamples:
    """20 positives, 20 easy negatives, 10 hard negatives for one instance.

    Positives center on random foreground points. Easy negatives center on
    background points whose sphere holds no foreground at all. Hard
    negatives center on background points near the object (sphere may hold
    foreground, class stays 0). Shortfalls are reported, not fatal.
    """
    if labels is None:
        labels = label_scene(scene, model, gt, params.foreground_mm, params.background_mm)
    index = NNIndex(scene.positions)
    radius = params.radius_factor * model.diameter

    fg_ids = np.nonzero(labels.foreground_mask)[0]
    bg_ids = np.nonzero(labels.background_mask)[0]
    if len(fg_ids) < params.positives:
        raise InsufficientForegroundError(
            f"{len(fg_ids)} foreground points < {params.positives} required")

    def extract(center, cls):
        return extract_example(scene, labels, center, model, cls, rng,
                               scene_index=index, n_points=params.n_points,
                               radius_factor=params.radius_factor)

    examples: List[LabeledExample] = []

    pos_centers = fg_ids[rng.choice(len(fg_ids), size=params.positives, replace=False)]
    for i in pos_centers:
        examples.append(extract(scene.positions[i], 1))

    # easy negatives: no foreground anywhere in the sphere
    easy_taken = 0
    if len(bg_ids) and len(fg_ids):
        fg_index = NNIndex(scene.positions[fg_ids], max_dist=radius)
        _, fg_dist = fg_index.nearest_batch(scene.positions[bg_ids])
        candidates = bg_ids[fg_dist > radius]
        for i in rng.permutation(len(candidates))[:params.easy_negatives]:
            examples.append(extract(scene.positions[candidates[i]], 0))
            easy_taken += 1

    # hard negatives: background centers in an annulus around the object
    hard_taken = 0
    if len(bg_ids):
        obj_centroid = gt.apply(model.cloud.positions).mean(axis=0)
        d_centroid = np.linalg.norm(scene.positions[bg_ids] - obj_centroid, axis=1)
        lo, hi = params.hard_band
        candidates = bg_ids[(d_centroid > lo * model.diameter) &
                            (d_centroid <= hi * model.diameter)]
        for i in rng.permutation(len(candidates))[:params.hard_negatives]:
            examples.append(extract(scene.positions[candidates[i]], 0))
            hard_taken += 1

    return InstanceExamples(
        examples=examples,
        easy_shortfall=params.easy_negatives - easy_taken,
        hard_shortfall=params.hard_negatives - hard_taken,
    )


# ---------------------------------------------------------------------------
# augmentation


def _is_easy_negative(e: LabeledExample) -> bool:
    return e.class_label == 0 and not np.any(e.seg_labels)


def _drop_segments(seg: np.ndarray, keep_mask: np.ndarray, rng: np.random.Generator,
                   params: AugmentParams) -> np.ndarray:
    """Randomly erase whole keypoint segments (at most half of those present)."""
    present = np.unique(seg[keep_mask])
    present = present[present > 0]
    if len(present) == 0:
        return keep_mask
    drop = present[rng.random(len(present)) < params.segment_drop_prob]
    cap = int(len(present) * params.max_segment_drop_fraction)
    drop = drop[:cap]
    if len(drop):
        keep_mask = keep_mask & ~np.isin(seg, drop)
    return keep_mask


def _assemble(parts, n_points: int, rng: np.random.Generator, cls: int,
              meta: ExampleMeta) -> LabeledExample:
    """Concatenate (positions, normals, curvatures, colors, seg) parts,
    sample/fill to n_points, and re-center."""
    positions = np.concatenate([p[0] for p in parts], axis=0)
    normals = np.concatenate([p[1] for p in parts], axis=0)
    curvatures = np.concatenate([p[2] for p in parts], axis=0)
    colors = None
    if all(p[3] is not None for p in parts):
        colors = np.concatenate([p[3] for p in parts], axis=0)
    seg = np.concatenate([p[4] for p in parts], axis=0)

    ids = _sample_fill(np.arange(len(positions)), n_points, rng)
    positions = positions[ids].astype(np.float64)
    centroid = positions.mean(axis=0)
    return LabeledExample(
        positions=positions - centroid,
        normals=normals[ids],
        curvatures=curvatures[ids],
        seg_labels=seg[ids],
        class_label=cls,
        colors=None if colors is None else colors[ids],
        meta=replace(meta, centroid_mm=centroid),
    )


def _parts_of(e: LabeledExample, mask: np.ndarray, offset: np.ndarray):
    return (e.positions[mask].astype(np.float64) + offset,
            e.normals[mask],
            e.curvatures[mask],
            None if e.colors is None else e.colors[mask],
            e.seg_labels[mask])


def _cut_sphere(part, center: np.ndarray, radius: float):
    keep = np.linalg.norm(part[0] - center, axis=1) <= radius
    return tuple(None if x is None else x[keep] for x in part)


def _swap_positive(pos: LabeledExample, easy: Optional[LabeledExample],
                   model: ObjectModel, rng: np.random.Generator,
                   params: AugmentParams, with_background: bool,
                   radius_factor: float) -> LabeledExample:
    """Background-swap (or object-only) augmented positive."""
    keep = pos.seg_labels > 0
    keep = _drop_segments(pos.seg_labels, keep, rng, params)
    if not keep.any():
        keep = pos.seg_labels > 0  # dropping everything would void the positive

    obj_offset = rng.uniform(-params.object_shift_factor, params.object_shift_factor, 3) \
        * model.diameter
    obj_part = _parts_of(pos, keep, obj_offset)

    anchor = np.zeros(3)
    if pos.meta.anchor_mm is not None and pos.meta.centroid_mm is not None:
        anchor = pos.meta.anchor_mm - pos.meta.centroid_mm
    cut_center = anchor + obj_offset
    radius = radius_factor * model.diameter

    parts = [obj_part]
    if with_background and easy is not None:
        bg_offset = rng.uniform(-params.background_shift_factor,
                                params.background_shift_factor, 3) * model.diameter
        bg_part = _parts_of(easy, np.ones(len(easy), bool), bg_offset)
        parts.append(_cut_sphere(bg_part, cut_center, radius))

    meta = ExampleMeta(anchor_mm=cut_center)
    return _assemble(parts, len(pos), rng, 1, meta)


def _mixed_negative(easies: Sequence[LabeledExample], model: ObjectModel,
                    rng: np.random.Generator, params: AugmentParams,
                    radius_factor: float) -> LabeledExample:
    """Negative composed from two shifted easy-negative backgrounds."""
    picks = rng.choice(len(easies), size=min(2, len(easies)), replace=False)
    radius = radius_factor * model.diameter
    parts = []
    for idx in picks:
        e = easies[idx]
        offset = rng.uniform(-params.background_shift_factor,
                             params.background_shift_factor, 3) * model.diameter
        part = _parts_of(e, np.ones(len(e), bool), offset)
        parts.append(_cut_sphere(part, np.zeros(3), radius))
    if all(len(p[0]) == 0 for p in parts):
        # neither shifted background reaches the sphere: take the first one
        # unshifted, cut alike. If it was extracted at this radius the cut is
        # not empty: its points lie within the radius of its anchor, so some
        # lie within it of their centroid, the origin.
        first = easies[picks[0]]
        parts = [_cut_sphere(_parts_of(first, np.ones(len(first), bool), np.zeros(3)),
                             np.zeros(3), radius)]
    else:
        parts = [p for p in parts if len(p[0])]
    meta = ExampleMeta(anchor_mm=np.zeros(3))
    return _assemble(parts, len(easies[picks[0]]), rng, 0, meta)


def jitter_example(e: LabeledExample, rng: np.random.Generator,
                   params: AugmentParams = AugmentParams()) -> LabeledExample:
    """Additive zero-mean Gaussian noise, sigma in each channel's native unit."""
    sigma = params.jitter_sigma
    chans = params.jitter_channels
    positions = e.positions.astype(np.float64)
    if "xyz" in chans:
        positions = positions + rng.normal(0.0, sigma, positions.shape)
    normals = e.normals.astype(np.float64)
    if "normal" in chans:
        normals = normals + rng.normal(0.0, sigma, normals.shape)
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        normals = np.where(norms > 1e-12, normals / np.maximum(norms, 1e-300), normals)
    curv = e.curvatures.astype(np.float64)
    if "curvature" in chans:
        curv = np.clip(curv + rng.normal(0.0, sigma, curv.shape), 0.0, 1.0)
    colors = e.colors
    if colors is not None and "rgb" in chans:
        colors = np.clip(colors.astype(np.float64) + rng.normal(0.0, sigma, colors.shape),
                         0.0, 1.0)
    return LabeledExample(positions=positions, normals=normals, curvatures=curv,
                          seg_labels=e.seg_labels.copy(), class_label=e.class_label,
                          colors=colors, meta=e.meta)


def augment(instance_examples: Sequence[LabeledExample], model: ObjectModel,
            rng: np.random.Generator,
            params: AugmentParams = AugmentParams(),
            radius_factor: float = SPHERE_RADIUS_FACTOR) -> List[LabeledExample]:
    """Create the 60 augmented examples for one instance (jitter applied).

    Backgrounds are cut to spheres of radius_factor x diameter, the radius
    the originals were extracted with.

    balanced=True emits 15 background-swap positives, 15 object-only
    positives and 30 mixed-background negatives (equal class split);
    balanced=False emits the literal 20/20/20. The caller is responsible
    for jittering the original examples (see build_instance_training_set).
    """
    positives = [e for e in instance_examples if e.class_label == 1]
    easies = [e for e in instance_examples if _is_easy_negative(e)]
    if not positives:
        raise ValueError("augmentation needs at least one positive example")

    m = params.background_swap_multiplier
    if params.balanced:
        n_swap, n_obj = 15 * m, 15
        n_mix = n_swap + n_obj
    else:
        n_swap, n_obj, n_mix = 20 * m, 20, 20

    out: List[LabeledExample] = []
    for i in range(n_swap):
        pos = positives[i % len(positives)]
        easy = easies[rng.integers(len(easies))] if easies else None
        out.append(_swap_positive(pos, easy, model, rng, params, with_background=True,
                                  radius_factor=radius_factor))
    for i in range(n_obj):
        pos = positives[i % len(positives)]
        out.append(_swap_positive(pos, None, model, rng, params, with_background=False,
                                  radius_factor=radius_factor))
    if easies:
        for _ in range(n_mix):
            out.append(_mixed_negative(easies, model, rng, params, radius_factor))

    return [jitter_example(e, rng, params) for e in out]


def build_instance_training_set(scene: PointCloud, model: ObjectModel, gt: RigidPose,
                                rng: np.random.Generator,
                                sampling: SamplingParams = SamplingParams(),
                                augmentation: AugmentParams = AugmentParams()
                                ) -> InstanceExamples:
    """Full per-instance recipe: 50 originals + 60 augmented, all jittered."""
    inst = generate_instance_examples(scene, model, gt, rng, sampling)
    augmented = augment(inst.examples, model, rng, augmentation, sampling.radius_factor)
    originals = [jitter_example(e, rng, augmentation) for e in inst.examples]
    return InstanceExamples(examples=originals + augmented,
                            easy_shortfall=inst.easy_shortfall,
                            hard_shortfall=inst.hard_shortfall)


# ---------------------------------------------------------------------------
# binary dataset file

_MAGIC = b"PVN1"
_HEADER = struct.Struct("<4sIBBQI")  # magic, K, flags, balanced, seed, count
_FLAG_RGB = 0x01


@dataclass(frozen=True)
class DatasetHeader:
    k: int
    has_rgb: bool
    balanced: bool
    seed: int
    count: int


def _record_dtype(has_rgb: bool) -> np.dtype:
    fields = [("pos", "<f4", 3), ("nrm", "<f4", 3), ("curv", "<f4")]
    if has_rgb:
        fields.append(("rgb", "<f4", 3))
    fields.append(("seg", "<u2"))
    return np.dtype(fields)


def write_dataset(path, examples: Sequence[LabeledExample], k: int,
                  balanced: bool = True, seed: int = 0) -> None:
    has_rgb = examples[0].colors is not None if examples else False
    dtype = _record_dtype(has_rgb)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, k, _FLAG_RGB if has_rgb else 0,
                             int(balanced), seed, len(examples)))
        for i, e in enumerate(examples):
            if (e.colors is not None) != has_rgb:
                raise ValueError(f"example {i}: inconsistent color layout")
            rec = np.empty(len(e), dtype=dtype)
            rec["pos"] = e.positions
            rec["nrm"] = e.normals
            rec["curv"] = e.curvatures
            if has_rgb:
                rec["rgb"] = e.colors
            rec["seg"] = e.seg_labels
            payload = rec.tobytes()
            f.write(struct.pack("<IB", 1 + len(payload), e.class_label))
            f.write(payload)


def read_dataset_header(f: IO[bytes]) -> DatasetHeader:
    raw = f.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise DatasetFormatError("file too short for header")
    magic, k, flags, balanced, seed, count = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r}")
    if k < 1:
        raise DatasetFormatError("header: keypoint count k must be at least 1")
    return DatasetHeader(k=k, has_rgb=bool(flags & _FLAG_RGB),
                         balanced=bool(balanced), seed=seed, count=count)


def iter_dataset(path) -> Iterator:
    """Yield DatasetHeader first, then one LabeledExample per record.

    Streaming: one record is materialized at a time. Each record is checked
    as it is read: a class byte of 0 or 1, at least 2 points and as many as
    record 0, finite values, and seg labels of at most the header's k.
    """
    with open(path, "rb") as f:
        header = read_dataset_header(f)
        yield header
        dtype = _record_dtype(header.has_rgb)
        for i in range(header.count):
            prefix = f.read(5)
            if len(prefix) < 5:
                raise DatasetFormatError(f"record {i}: truncated length prefix")
            length, cls = struct.unpack("<IB", prefix)
            payload = f.read(length - 1)
            if len(payload) != length - 1:
                raise DatasetFormatError(f"record {i}: truncated payload")
            if len(payload) % dtype.itemsize:
                raise DatasetFormatError(f"record {i}: payload not a whole number of points")
            rec = np.frombuffer(payload, dtype=dtype)
            if i == 0:
                n_points = len(rec)
            if cls > 1:
                raise DatasetFormatError(f"record {i}: class byte {cls}, expected 0 or 1")
            if len(rec) < 2 or len(rec) != n_points:
                raise DatasetFormatError(f"record {i}: {len(rec)} points, expected "
                                         + (f"{n_points}" if i else "at least 2"))
            example = LabeledExample(
                positions=rec["pos"], normals=rec["nrm"], curvatures=rec["curv"],
                seg_labels=rec["seg"], class_label=int(cls),
                colors=rec["rgb"] if header.has_rgb else None)
            channels = [example.positions, example.normals, example.curvatures]
            if header.has_rgb:
                channels.append(example.colors)
            if not all(np.isfinite(c).all() for c in channels):
                raise DatasetFormatError(f"record {i}: a NaN or infinite value")
            top = int(example.seg_labels.max())
            if top > header.k:
                raise DatasetFormatError(f"record {i}: seg label {top} above k = {header.k}")
            yield example
        if f.read(1):
            raise DatasetFormatError(f"trailing bytes after {header.count} records")


def read_dataset(path) -> Tuple[DatasetHeader, List[LabeledExample]]:
    it = iter_dataset(path)
    header = next(it)
    return header, list(it)
