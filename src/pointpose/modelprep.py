"""Object model preparation: keypoint sampling and symmetry reduction.

An object is represented by its dense surface cloud plus a small set of
keypoints sampled roughly every `spacing` mm on the surface. Segmentation
classes are 1..K for the keypoints, 0 for background.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .errors import ModelFormatError
from .geometry import NNIndex, voxel_downsample
from .ply import read_ply, write_ply
from .pointcloud import PointCloud, check_finite
from .pose import rotation_about_axis

DEFAULT_KEYPOINT_SPACING_MM = 25.0

# Greedy post-prune separation, as a fraction of the sampling spacing. Voxel
# cells clipped by a curved surface produce centroids much closer together
# than the leaf size; pruning below ~0.65x spacing keeps the keypoint count
# near surface_area / spacing^2 while guaranteeing the 0.5x spacing minimum.
MIN_SEPARATION_FACTOR = 0.65


@dataclass(frozen=True)
class SymmetryDescriptor:
    """Rotational symmetry of an object: none, n-fold cyclic, or revolution."""

    kind: str = "none"  # "none" | "cyclic" | "revolution"
    fold: Optional[int] = None
    axis: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("none", "cyclic", "revolution"):
            raise ValueError(f"unknown symmetry kind {self.kind!r}")
        if self.kind == "cyclic" and (self.fold is None or self.fold < 2):
            raise ValueError("cyclic symmetry needs fold >= 2")
        if self.kind != "none":
            if self.axis is None or self.center is None:
                raise ValueError(f"{self.kind} symmetry needs axis and center")
            axis = np.asarray(self.axis, dtype=np.float64).reshape(3)
            norm = np.linalg.norm(axis)
            if norm < 1e-12:
                raise ValueError("symmetry axis must be nonzero")
            object.__setattr__(self, "axis", axis / norm)
            object.__setattr__(self, "center",
                               np.asarray(self.center, dtype=np.float64).reshape(3))

    def to_dict(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        d = {"kind": self.kind, "axis": self.axis.tolist(), "center_mm": self.center.tolist()}
        if self.kind == "cyclic":
            d["fold"] = self.fold
        return d


@dataclass
class Keypoint:
    position: np.ndarray
    normal: np.ndarray


@dataclass
class ObjectModel:
    """Dense model cloud + K keypoints + diameter + symmetry."""

    cloud: PointCloud
    keypoints: List[Keypoint]
    diameter: float
    symmetry: SymmetryDescriptor = field(default_factory=SymmetryDescriptor)

    def __post_init__(self):
        if not self.keypoints:
            raise ValueError("model needs at least one keypoint")
        if self.diameter <= 0:
            raise ValueError("model diameter must be positive")

    @property
    def k(self) -> int:
        return len(self.keypoints)

    def keypoint_positions(self) -> np.ndarray:
        return np.array([kp.position for kp in self.keypoints])

    def keypoint_normals(self) -> np.ndarray:
        return np.array([kp.normal for kp in self.keypoints])


def model_diameter(cloud: PointCloud) -> float:
    """Diagonal length of the axis-aligned bounding box."""
    if len(cloud) == 0:
        raise ValueError("cannot measure an empty cloud")
    extent = cloud.positions.max(axis=0) - cloud.positions.min(axis=0)
    return float(np.linalg.norm(extent))


def snapped_voxel_ids(cloud: PointCloud, leaf: float) -> np.ndarray:
    """Sorted unique ids of the cloud points nearest to its voxel centroids.

    A uniform subset of real surface points: snapping puts each centroid
    back on the surface, with the point's own normal.
    """
    centroids = voxel_downsample(cloud, leaf)
    ids, _ = NNIndex(cloud.positions).nearest_batch(centroids)
    return np.unique(ids)


def sample_keypoints(model_cloud: PointCloud,
                     spacing: float = DEFAULT_KEYPOINT_SPACING_MM) -> List[Keypoint]:
    """Uniform surface keypoints: voxel centroids snapped to real surface points.

    Snapping keeps keypoint normals genuine surface normals. A greedy pass
    afterwards enforces a minimum pairwise separation (MIN_SEPARATION_FACTOR
    x spacing) so clipped voxels on curved surfaces do not oversample.
    """
    if len(model_cloud) == 0:
        raise ValueError("model cloud is empty")
    if model_cloud.normals is None:
        raise ValueError("model cloud needs normals before keypoint sampling")
    if spacing <= 0:
        raise ValueError("spacing must be positive")

    kept: List[int] = []
    min_dist = MIN_SEPARATION_FACTOR * spacing
    for i in snapped_voxel_ids(model_cloud, spacing):
        p = model_cloud.positions[i]
        if all(np.linalg.norm(p - model_cloud.positions[j]) >= min_dist for j in kept):
            kept.append(int(i))

    return [Keypoint(position=model_cloud.positions[i].copy(),
                     normal=model_cloud.normals[i].copy()) for i in kept]


def reduce_symmetric_keypoints(keypoints: List[Keypoint], symmetry: SymmetryDescriptor,
                               tol: float) -> List[Keypoint]:
    """Collapse keypoints equivalent under the object's rotational symmetry.

    cyclic(n): a keypoint is dropped when any of its n-1 nontrivial rotation
    images lands within `tol` of an already-kept keypoint (first member
    represents the group). revolution: keypoints are classed by (axial
    coordinate, radius); each class collapses to its footpoint on the axis,
    and coincident footpoints are merged, which makes the operation
    idempotent.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if symmetry.kind == "none" or not keypoints:
        return list(keypoints)

    if symmetry.kind == "cyclic":
        rotations = [rotation_about_axis(symmetry.axis, 2 * np.pi * k / symmetry.fold)
                     for k in range(1, symmetry.fold)]
        kept: List[Keypoint] = []
        for kp in keypoints:
            rel = kp.position - symmetry.center
            orbit = [r @ rel + symmetry.center for r in rotations]
            merged = any(np.linalg.norm(img - other.position) <= tol
                         for img in orbit for other in kept)
            if not merged:
                kept.append(kp)
        return kept

    # revolution: class key is (height along axis, radius from axis)
    axis, center = symmetry.axis, symmetry.center
    classes: List[dict] = []  # {"h", "r", "members"}
    for kp in keypoints:
        rel = kp.position - center
        h = float(rel @ axis)
        r = float(np.linalg.norm(rel - h * axis))
        for cls in classes:
            if np.hypot(h - cls["h"], r - cls["r"]) <= tol:
                cls["members"].append(kp)
                break
        else:
            classes.append({"h": h, "r": r, "members": [kp]})

    reduced: List[Keypoint] = []
    for cls in classes:
        footpoint = center + cls["h"] * axis
        if any(np.linalg.norm(footpoint - q.position) <= tol for q in reduced):
            continue  # distinct radii sharing a footpoint collapse together
        reduced.append(Keypoint(position=footpoint,
                                normal=_axis_point_normal(cls["members"], axis)))
    return reduced


def _axis_point_normal(members: List[Keypoint], axis: np.ndarray) -> np.ndarray:
    """Mean member normal, or the axis direction when the mean cancels out."""
    mean = np.mean([m.normal for m in members], axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-9:
        return axis.copy()
    return mean / norm


def nearest_keypoint_labels(points: np.ndarray, keypoint_positions: np.ndarray) -> np.ndarray:
    """Label each of the (N, 3) points 1..K by its nearest of the (K, 3)
    keypoint positions (ties: lowest index)."""
    if not len(keypoint_positions):
        raise ValueError("need at least one keypoint")
    kp = np.asarray(keypoint_positions, dtype=np.float64)
    n = len(points)
    labels = np.empty(n, dtype=np.int32)
    chunk = 65536
    for s in range(0, n, chunk):
        block = points[s:s + chunk]
        d2 = np.sum((block[:, None, :] - kp[None, :, :]) ** 2, axis=2)
        labels[s:s + chunk] = np.argmin(d2, axis=1) + 1
    return labels


def build_object_model(cloud: PointCloud, spacing: float = DEFAULT_KEYPOINT_SPACING_MM,
                       symmetry: Optional[SymmetryDescriptor] = None) -> ObjectModel:
    """Full preparation: sample keypoints, reduce symmetry, measure diameter."""
    symmetry = symmetry or SymmetryDescriptor()
    keypoints = sample_keypoints(cloud, spacing)
    keypoints = reduce_symmetric_keypoints(keypoints, symmetry, 0.5 * spacing)
    return ObjectModel(cloud=cloud, keypoints=keypoints,
                       diameter=model_diameter(cloud), symmetry=symmetry)


def save_object_model(stem, model: ObjectModel) -> None:
    """Write `<stem>.ply` (dense cloud) and `<stem>.json` (keypoints sidecar)."""
    stem = Path(stem)
    write_ply(stem.with_name(stem.name + ".ply"), model.cloud)
    sidecar = {
        "keypoints": [{"position_mm": kp.position.tolist(), "normal": kp.normal.tolist()}
                      for kp in model.keypoints],
        "diameter_mm": model.diameter,
        "symmetry": model.symmetry.to_dict(),
    }
    with open(stem.with_name(stem.name + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2)


def sidecar_array(value, shape, where: str, error) -> np.ndarray:
    """A JSON sidecar field as a float array of `shape`, or `error`."""
    try:
        arr = np.asarray(value)
    except ValueError:   # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf" or arr.shape != shape
            or not np.isfinite(arr).all()):
        what = f"{'x'.join(map(str, shape))} finite numbers" if shape else "a finite number"
        raise error(f"{where}: expected {what}")
    return arr.astype(np.float64)


def _read_symmetry(d, where: str) -> SymmetryDescriptor:
    if not isinstance(d, dict) or d.get("kind") not in ("none", "cyclic", "revolution"):
        raise ModelFormatError(f"{where}: expected an object of kind none, cyclic "
                               f"or revolution")
    if d["kind"] == "none":
        return SymmetryDescriptor()
    fold = d.get("fold")
    if d["kind"] == "cyclic" and not (type(fold) is int and fold >= 2):
        raise ModelFormatError(f"{where}.fold: expected an integer >= 2")
    axis = sidecar_array(d.get("axis"), (3,), f"{where}.axis", ModelFormatError)
    center = sidecar_array(d.get("center_mm"), (3,), f"{where}.center_mm", ModelFormatError)
    try:
        return SymmetryDescriptor(d["kind"], fold, axis, center)
    except ValueError as exc:   # a zero axis
        raise ModelFormatError(f"{where}: {exc}") from exc


def load_object_model(stem) -> ObjectModel:
    """Read `<stem>.ply` and its `<stem>.json` sidecar. Raises
    ModelFormatError on a PLY of no points or of a NaN or infinite
    coordinate, normal, curvature or colour, on invalid JSON, or on
    keypoints, a diameter or a symmetry of the wrong type, shape or value."""
    stem = Path(stem)
    ply, path = stem.with_name(stem.name + ".ply"), stem.with_name(stem.name + ".json")
    cloud = read_ply(ply)
    if len(cloud) == 0 or not np.isfinite(cloud.positions).all():
        raise ModelFormatError(f"{ply}: expected one or more points with finite coordinates")
    check_finite(cloud, ModelFormatError, f"points of {ply}")
    try:
        with open(path) as f:
            sidecar = json.load(f)
    except ValueError as exc:   # invalid JSON or not UTF-8
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(sidecar, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    entries = sidecar.get("keypoints")
    if not (isinstance(entries, list) and entries
            and all(isinstance(kp, dict) for kp in entries)):
        raise ModelFormatError(f"{path}: keypoints: expected a non-empty list of objects")
    keypoints = [Keypoint(position=sidecar_array(kp.get("position_mm"), (3,),
                                                 f"{path}: keypoints[{i}].position_mm",
                                                 ModelFormatError),
                          normal=sidecar_array(kp.get("normal"), (3,),
                                               f"{path}: keypoints[{i}].normal",
                                               ModelFormatError))
                 for i, kp in enumerate(entries)]
    diameter = float(sidecar_array(sidecar.get("diameter_mm"), (), f"{path}: diameter_mm",
                                   ModelFormatError))
    if diameter <= 0:
        raise ModelFormatError(f"{path}: diameter_mm: expected a positive number")
    return ObjectModel(cloud=cloud, keypoints=keypoints, diameter=diameter,
                       symmetry=_read_symmetry(sidecar.get("symmetry"), f"{path}: symmetry"))
