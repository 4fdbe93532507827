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
from .modelprep import ObjectModel, nearest_keypoint_labels
from .pointcloud import PointCloud, concatenate_clouds
from .pose import RigidPose

DISCARD = -1
BACKGROUND = 0
JITTER_CHANNELS = ("xyz", "normal", "curvature", "rgb")


@dataclass
class LabelingParams:
    """The `labeling` section: scene points within foreground_mm of the
    posed model are foreground, those in (foreground_mm, background_mm] are
    discarded, and those beyond are background."""

    foreground_mm: float = 10.0
    background_mm: float = 20.0

    def __post_init__(self):
        if not 0 < self.foreground_mm < self.background_mm:
            raise ValueError("need 0 < foreground_mm < background_mm")


@dataclass
class SphereParams:
    """The `examples` section: the spheres of training examples and of
    detect's anchors alike hold n_points points within radius_factor x the
    model diameter of their center."""

    n_points: int = 2048
    radius_factor: float = 0.6

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2 (the network's point sets)")
        if not self.radius_factor > 0:  # written so that NaN fails too
            raise ValueError("radius_factor must be positive")


@dataclass
class SamplingParams:
    """The `sampling` section: the examples drawn per instance. `labeling`
    and `spheres` are the run's `labeling` and `examples` sections."""

    positives: int = 20
    easy_negatives: int = 20
    hard_negatives: int = 10
    # hard negative centers: [lo, hi] x diameter from the object centroid
    hard_band: List[float] = field(default_factory=lambda: [0.6, 1.2])
    labeling: LabelingParams = field(default_factory=LabelingParams,
                                     metadata={"config": False})
    spheres: SphereParams = field(default_factory=SphereParams, metadata={"config": False})

    def __post_init__(self):
        if self.positives < 1:  # augmentation swaps the backgrounds of positives
            raise ValueError("positives must be at least 1")
        for name in ("easy_negatives", "hard_negatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        if not (len(self.hard_band) == 2 and 0 < self.hard_band[0] < self.hard_band[1]):
            raise ValueError("hard_band must be [lo, hi] with 0 < lo < hi")


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
                labeling: LabelingParams = LabelingParams()) -> np.ndarray:
    """Per-point labels of the scene by distance to the posed dense model
    cloud, as an (N,) int32 array: -1 (DISCARD) within the band
    (foreground_mm, background_mm], 0 (BACKGROUND) beyond it, and 1..K, the
    nearest posed keypoint, within foreground_mm. Reads positions only."""
    foreground_mm, background_mm = labeling.foreground_mm, labeling.background_mm
    posed = gt.apply(model.cloud.positions)
    # points beyond the background band are all background: a bounded
    # search leaves them early instead of finding their nearest model point
    _, dist = NNIndex(posed, max_dist=background_mm).nearest_batch(scene.positions)

    labels = np.zeros(len(scene), dtype=np.int32)
    labels[(dist > foreground_mm) & (dist <= background_mm)] = DISCARD
    fg = dist <= foreground_mm
    if fg.any():
        posed_kps = np.array([gt.apply(kp.position) for kp in model.keypoints])
        labels[fg] = nearest_keypoint_labels(scene.positions[fg], posed_kps)
    return labels


def _sample_fill(ids: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from ids: without replacement when possible, else all + refill."""
    if len(ids) >= n:
        return ids[rng.choice(len(ids), size=n, replace=False)]
    extra = ids[rng.choice(len(ids), size=n - len(ids), replace=True)]
    return np.concatenate([ids, extra])


def extract_example(scene: PointCloud, labels: np.ndarray, center: np.ndarray,
                    model: ObjectModel, class_label: int, rng: np.random.Generator,
                    scene_index: Optional[NNIndex] = None,
                    spheres: SphereParams = SphereParams()) -> LabeledExample:
    """Uniformly sample a centered n-point sphere around `center`.

    `labels` is `label_scene`'s array: discard-band points are excluded,
    and each point's seg label is its keypoint label, 0 for background.
    Fewer than n available points are topped up by sampling with
    replacement. The scene needs normals and curvatures (see
    `pipeline.ensure_channels`).
    """
    if scene.normals is None or scene.curvatures is None:
        raise MissingChannelError("a training example needs scene normals and curvatures")
    center = np.asarray(center, dtype=np.float64).reshape(3)
    index = scene_index if scene_index is not None else NNIndex(scene.positions)
    radius = spheres.radius_factor * model.diameter
    in_sphere = index.ball(center, radius)
    in_sphere = in_sphere[labels[in_sphere] != DISCARD]
    if len(in_sphere) == 0:
        raise EmptyNeighborhoodError(f"no usable points within {radius:.1f} mm of {center}")

    chosen = _sample_fill(in_sphere, spheres.n_points, rng)
    positions = scene.positions[chosen]
    centroid = positions.mean(axis=0)
    seg = np.maximum(labels[chosen], 0).astype(np.uint16)

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
                               labels: Optional[np.ndarray] = None) -> InstanceExamples:
    """20 positives, 20 easy negatives, 10 hard negatives for one instance.

    Positives center on random foreground points. Easy negatives center on
    background points whose sphere holds no foreground at all. Hard
    negatives center on background points near the object (sphere may hold
    foreground, class stays 0). Shortfalls are reported, not fatal.
    """
    if labels is None:
        labels = label_scene(scene, model, gt, params.labeling)
    index = NNIndex(scene.positions)
    radius = params.spheres.radius_factor * model.diameter

    fg_ids = np.nonzero(labels > 0)[0]
    bg_ids = np.nonzero(labels == BACKGROUND)[0]
    if len(fg_ids) < params.positives:
        raise InsufficientForegroundError(
            f"{len(fg_ids)} foreground points < {params.positives} required")

    def extract(center, cls):
        return extract_example(scene, labels, center, model, cls, rng,
                               scene_index=index, spheres=params.spheres)

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
    """Join (PointCloud, seg labels) parts with `concatenate_clouds`, which
    keeps colours only when every part has them, sample/fill to n_points,
    and re-center."""
    cloud = concatenate_clouds([c for c, _ in parts])
    seg = np.concatenate([s for _, s in parts])
    ids = _sample_fill(np.arange(len(cloud)), n_points, rng)
    cloud, seg = cloud.select(ids), seg[ids]
    centroid = cloud.positions.mean(axis=0)
    return LabeledExample(positions=cloud.positions - centroid, normals=cloud.normals,
                          curvatures=cloud.curvatures, seg_labels=seg, class_label=cls,
                          colors=cloud.colors, meta=replace(meta, centroid_mm=centroid))


def _moved(e: LabeledExample, offset: np.ndarray) -> PointCloud:
    """The example's points as a cloud, its float64 positions plus offset."""
    return PointCloud(positions=e.positions.astype(np.float64) + offset, normals=e.normals,
                      curvatures=e.curvatures, colors=e.colors)


def _sphere_part(e: LabeledExample, offset: np.ndarray, center: np.ndarray, radius: float):
    """(cloud, seg labels) of the example's points, moved by offset, that lie
    within radius of center."""
    cloud = _moved(e, offset)
    keep = np.linalg.norm(cloud.positions - center, axis=1) <= radius
    return cloud.select(keep), e.seg_labels[keep]


def _swap_positive(pos: LabeledExample, easy: Optional[LabeledExample],
                   model: ObjectModel, rng: np.random.Generator,
                   params: AugmentParams, radius_factor: float) -> LabeledExample:
    """Augmented positive: the shifted object over a shifted background cut
    from `easy`, or over none when `easy` is None."""
    keep = pos.seg_labels > 0
    keep = _drop_segments(pos.seg_labels, keep, rng, params)
    if not keep.any():
        keep = pos.seg_labels > 0  # dropping everything would void the positive

    obj_offset = rng.uniform(-params.object_shift_factor, params.object_shift_factor, 3) \
        * model.diameter
    parts = [(_moved(pos, obj_offset).select(keep), pos.seg_labels[keep])]

    anchor = np.zeros(3)
    if pos.meta.anchor_mm is not None and pos.meta.centroid_mm is not None:
        anchor = pos.meta.anchor_mm - pos.meta.centroid_mm
    cut_center = anchor + obj_offset

    if easy is not None:
        bg_offset = rng.uniform(-params.background_shift_factor,
                                params.background_shift_factor, 3) * model.diameter
        parts.append(_sphere_part(easy, bg_offset, cut_center, radius_factor * model.diameter))

    return _assemble(parts, len(pos), rng, 1, ExampleMeta(anchor_mm=cut_center))


def _mixed_negative(easies: Sequence[LabeledExample], model: ObjectModel,
                    rng: np.random.Generator, params: AugmentParams,
                    radius_factor: float) -> LabeledExample:
    """Negative composed from two shifted easy-negative backgrounds."""
    picks = rng.choice(len(easies), size=min(2, len(easies)), replace=False)
    radius = radius_factor * model.diameter
    parts = []
    for idx in picks:
        offset = rng.uniform(-params.background_shift_factor,
                             params.background_shift_factor, 3) * model.diameter
        parts.append(_sphere_part(easies[idx], offset, np.zeros(3), radius))
    parts = [p for p in parts if len(p[1])]
    if not parts:
        # neither shifted background reaches the sphere: take the first one
        # unshifted, cut alike. If it was extracted at this radius the cut is
        # not empty: its points lie within the radius of its anchor, so some
        # lie within it of their centroid, the origin.
        parts = [_sphere_part(easies[picks[0]], np.zeros(3), np.zeros(3), radius)]
    return _assemble(parts, len(easies[picks[0]]), rng, 0, ExampleMeta(anchor_mm=np.zeros(3)))


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
            spheres: SphereParams = SphereParams()) -> List[LabeledExample]:
    """Create the 60 augmented examples for one instance (jitter applied).

    Backgrounds are cut to spheres of `spheres.radius_factor` x diameter,
    the radius the originals were extracted with.

    balanced=True emits 15 background-swap positives, 15 object-only
    positives and 30 mixed-background negatives (equal class split);
    balanced=False emits the literal 20/20/20. The caller is responsible
    for jittering the original examples (see build_instance_training_set).
    """
    positives = [e for e in instance_examples if e.class_label == 1]
    easies = [e for e in instance_examples if _is_easy_negative(e)]
    if not positives:
        raise ValueError("augmentation needs at least one positive example")

    radius_factor = spheres.radius_factor
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
        out.append(_swap_positive(pos, easy, model, rng, params, radius_factor))
    for i in range(n_obj):
        pos = positives[i % len(positives)]
        out.append(_swap_positive(pos, None, model, rng, params, radius_factor))
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
    augmented = augment(inst.examples, model, rng, augmentation, sampling.spheres)
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
    """Write the examples, which must all have colours or all have none;
    a mixed list raises ValueError before the file is opened."""
    has_rgb = examples[0].colors is not None if examples else False
    for i, e in enumerate(examples):
        if (e.colors is not None) != has_rgb:
            raise ValueError(f"example {i}: inconsistent color layout")
    dtype = _record_dtype(has_rgb)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, k, _FLAG_RGB if has_rgb else 0,
                             int(balanced), seed, len(examples)))
        for e in examples:
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
            if length < 1:
                raise DatasetFormatError(f"record {i}: length prefix 0 leaves no room "
                                         "for the class byte")
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
