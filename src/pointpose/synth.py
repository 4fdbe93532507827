"""Synthetic desk-scale scenes with exact ground truth.

A virtual pinhole camera looks at a tilted table carrying the target
object and random clutter. Surfaces are point-sampled analytically
(normals exact, curvature 0), hidden points are removed with a depth
buffer, and optional Gaussian sensor noise is added last. Everything is
deterministic in the supplied generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import SceneFormatError
from .modelprep import (DEFAULT_KEYPOINT_SPACING_MM, ObjectModel, build_object_model,
                        sidecar_array)
from .ply import read_ply, write_ply
from .pointcloud import Intrinsics, PointCloud, concatenate_clouds
from .pose import RigidPose, pose_to_dict, random_rotation

DEFAULT_INTRINSICS = Intrinsics(fx=570.0, fy=570.0, cx=320.0, cy=240.0,
                                width=640, height=480)
# hidden-point removal: depth margin and splat radius of the depth buffer
HPR_MARGIN_MM = 6.0
HPR_SPLAT_PX = 1


@dataclass
class SynthParams:
    noise_sigma_mm: float = 0.0
    clutter_count: int = 3
    occluder_probability: float = 0.0
    table_size_mm: float = 500.0
    table_distance_mm: float = 900.0
    table_step_mm: float = 3.5

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("table_size_mm", "table_step_mm", "table_distance_mm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.noise_sigma_mm >= 0 or self.clutter_count < 0:
            raise ValueError("noise_sigma_mm and clutter_count must be at least 0")
        if not 0 <= self.occluder_probability <= 1:
            raise ValueError("occluder_probability must be between 0 and 1")


@dataclass
class SyntheticScene:
    cloud: PointCloud
    gt_pose: RigidPose
    params: SynthParams
    scene_id: Optional[str] = None


def _face_grid(origin, du, dv, nu, nv, step, normal):
    """Points + constant normal on a rectangle origin + a*du + b*dv."""
    a = (np.arange(nu) + 0.5) * step
    b = (np.arange(nv) + 0.5) * step
    aa, bb = np.meshgrid(a, b)
    pts = (origin[None, :] + aa.reshape(-1, 1) * du[None, :]
           + bb.reshape(-1, 1) * dv[None, :])
    normals = np.tile(normal, (len(pts), 1))
    return pts, normals


def _box_surface(dims: np.ndarray, step: float) -> Tuple[np.ndarray, np.ndarray]:
    """Surface sampling of an axis-aligned box [0, dims] in its own frame."""
    lx, ly, lz = dims
    pts_list, nrm_list = [], []
    faces = [
        (np.array([0.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), lx, ly,
         np.array([0.0, 0, -1])),
        (np.array([0.0, 0, lz]), np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), lx, ly,
         np.array([0.0, 0, 1])),
        (np.array([0.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0.0, 0, 1]), lx, lz,
         np.array([0.0, -1, 0])),
        (np.array([0.0, ly, 0]), np.array([1.0, 0, 0]), np.array([0.0, 0, 1]), lx, lz,
         np.array([0.0, 1, 0])),
        (np.array([0.0, 0, 0]), np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), ly, lz,
         np.array([-1.0, 0, 0])),
        (np.array([lx, 0, 0]), np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), ly, lz,
         np.array([1.0, 0, 0])),
    ]
    for origin, du, dv, la, lb, normal in faces:
        nu, nv = max(1, int(la / step)), max(1, int(lb / step))
        p, n = _face_grid(origin, du, dv, nu, nv, min(la / nu, lb / nv), normal)
        pts_list.append(p)
        nrm_list.append(n)
    return np.concatenate(pts_list), np.concatenate(nrm_list)


def _sphere_surface(radius: float, step: float,
                    rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    n = max(64, int(4 * np.pi * radius * radius / (step * step)))
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * radius, dirs


def make_test_object(n_points: int = 4500,
                     spacing: float = DEFAULT_KEYPOINT_SPACING_MM) -> ObjectModel:
    """Smooth asymmetric blob: a sphere with chiral radial lobes.

    Smoothness keeps segment-member normals coherent with their keypoint's
    normal (the voting construction relies on that), and the lobe pattern
    has no rotational symmetry, so ADD is unambiguous. Normals/curvature
    come from the same PCA estimator the pipeline uses on scenes; colors
    follow a positional gradient so the color loss is informative.
    """
    rng = np.random.default_rng(1234)
    u = rng.standard_normal((n_points, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ux, uy, uz = u[:, 0], u[:, 1], u[:, 2]
    bump = (0.22 * ux + 0.16 * ux * uy + 0.14 * uy * uz
            - 0.18 * uz * ux * ux + 0.12 * uz)
    r = 45.0 * (1.0 + bump)
    pts = u * r[:, None]
    pts -= (pts.max(axis=0) + pts.min(axis=0)) / 2

    from .geometry import estimate_normals
    cloud = estimate_normals(PointCloud(positions=pts), radius=8.0,
                             viewpoint=np.zeros(3))
    # orient outward (the blob is star-shaped around the origin)
    flip = np.einsum("ij,ij->i", cloud.normals, u) < 0
    cloud.normals[flip] *= -1.0
    cloud.colors = (u + 1.0) / 2.0
    return build_object_model(cloud, spacing=spacing)


def _rest_on_plane(cloud_positions: np.ndarray, rotation: np.ndarray,
                   anchor: np.ndarray, up: np.ndarray, gap: float) -> np.ndarray:
    """Translation making the rotated cloud rest `gap` above the anchor."""
    heights = (cloud_positions @ rotation.T) @ up
    return anchor + (gap - heights.min()) * up


def synth_scene(model: ObjectModel, rng: np.random.Generator,
                params: SynthParams = SynthParams(),
                scene_id: Optional[str] = None) -> SyntheticScene:
    """Assemble a table + object + clutter scene seen by a virtual camera."""
    intr = DEFAULT_INTRINSICS

    # tilted table, normal facing the camera
    normal = np.array([0.0, -1.0, -0.45])
    normal /= np.linalg.norm(normal)
    center = np.array([0.0, 130.0, params.table_distance_mm])
    u = np.array([1.0, 0.0, 0.0])
    v = np.cross(normal, u)
    v /= np.linalg.norm(v)
    if v[2] < 0:
        v = -v

    half = params.table_size_mm / 2
    n_grid = int(params.table_size_mm / params.table_step_mm)
    a = (rng.random(n_grid * n_grid) - 0.5) * params.table_size_mm
    b = (rng.random(n_grid * n_grid) - 0.5) * params.table_size_mm
    table_pts = center[None, :] + a[:, None] * u[None, :] + b[:, None] * v[None, :]
    table_nrm = np.tile(normal, (len(table_pts), 1))
    table_col = np.tile([0.45, 0.42, 0.4], (len(table_pts), 1)) \
        + rng.normal(0, 0.02, (len(table_pts), 3))
    table = PointCloud(positions=table_pts, normals=table_nrm,
                       curvatures=np.zeros(len(table_pts)),
                       colors=np.clip(table_col, 0, 1))

    # object resting on the table near its center
    rot = random_rotation(rng)
    anchor = center + rng.uniform(-0.3, 0.3) * half * u + rng.uniform(-0.3, 0.3) * half * v
    t = _rest_on_plane(model.cloud.positions, rot, anchor, normal, rng.uniform(0.5, 2.0))
    gt = RigidPose(rot, t)
    posed_model = model.cloud.transformed(gt)

    parts: List[PointCloud] = [table, posed_model]
    obj_radius = model.diameter / 2

    # clutter boxes/spheres resting elsewhere on the table
    for _ in range(params.clutter_count):
        for _attempt in range(20):
            spot = center + rng.uniform(-0.85, 0.85) * half * u \
                + rng.uniform(-0.85, 0.85) * half * v
            if np.linalg.norm(spot - anchor) > obj_radius + 60.0:
                break
        c_rot = random_rotation(rng)
        col = rng.uniform(0.1, 0.9, 3)
        if rng.random() < 0.5:
            dims = rng.uniform(30, 80, 3)
            p, n = _box_surface(dims, 4.0)
            p = p - dims / 2
        else:
            p, n = _sphere_surface(rng.uniform(15, 40), 4.0, rng)
        ct = _rest_on_plane(p, c_rot, spot, normal, rng.uniform(0.5, 2.0))
        parts.append(PointCloud(positions=p, normals=n, curvatures=np.zeros(len(p)),
                                colors=np.tile(col, (len(p), 1)))
                     .transformed(RigidPose(c_rot, ct)))

    # occluder between camera and object
    if rng.random() < params.occluder_probability:
        frac = rng.uniform(0.55, 0.75)
        dims = rng.uniform(40, 90, 3)
        p, n = _box_surface(dims, 4.0)
        o_rot = random_rotation(rng)
        parts.append(PointCloud(positions=p - dims / 2, normals=n, curvatures=np.zeros(len(p)),
                                colors=np.tile(rng.uniform(0.1, 0.9, 3), (len(p), 1)))
                     .transformed(RigidPose(o_rot, frac * t)))

    combined = concatenate_clouds(parts)
    combined.view_origin = np.zeros(3)
    combined.intrinsics = intr

    # orient normals toward the camera at the origin
    flip = np.einsum("ij,ij->i", combined.normals, combined.positions) > 0
    combined.normals[flip] *= -1.0

    # hidden-point removal using the shared depth-buffer machinery
    from .verification import VerificationParams, build_depth_buffer, remove_occluded
    vp = VerificationParams(occlusion_margin_mm=HPR_MARGIN_MM, splat_px=HPR_SPLAT_PX,
                            color=False)
    buf = build_depth_buffer(combined, HPR_SPLAT_PX)
    z = combined.positions[:, 2]
    with np.errstate(invalid="ignore"):
        xs = intr.fx * combined.positions[:, 0] / np.where(z > 0, z, 1.0) + intr.cx
        ys = intr.fy * combined.positions[:, 1] / np.where(z > 0, z, 1.0) + intr.cy
    in_frustum = (z > 0) & (xs >= 0) & (xs < intr.width) & (ys >= 0) & (ys < intr.height)
    keep = remove_occluded(combined.positions, combined, vp, depth_buffer=buf) & in_frustum

    visible = combined.select(np.nonzero(keep)[0])
    if params.noise_sigma_mm > 0:
        visible.positions = visible.positions \
            + rng.normal(0.0, params.noise_sigma_mm, visible.positions.shape)

    return SyntheticScene(cloud=visible, gt_pose=gt, params=params, scene_id=scene_id)


# ---------------------------------------------------------------------------
# scene files: PLY + JSON sidecar (pose, camera)


def save_scene(stem, scene: SyntheticScene) -> None:
    stem = Path(stem)
    write_ply(stem.with_name(stem.name + ".ply"), scene.cloud)
    intr = scene.cloud.intrinsics
    sidecar = {
        "pose": pose_to_dict(scene.gt_pose),
        "intrinsics": {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                       "width": intr.width, "height": intr.height},
        "view_origin_mm": scene.cloud.view_origin.tolist(),
        "noise_sigma_mm": scene.params.noise_sigma_mm,
    }
    with open(stem.with_name(stem.name + ".json"), "w") as f:
        json.dump(sidecar, f, indent=2)


def _is_number(value, types=(int, float)) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def read_scene_sidecar(path):
    """A scene sidecar's (ground-truth pose, intrinsics, view origin), each
    None when absent. Raises SceneFormatError on invalid JSON, on a field
    of the wrong type or shape, or on intrinsics that form no image."""
    try:
        with open(path) as f:
            sidecar = json.load(f)
    except ValueError as exc:   # invalid JSON or not UTF-8
        raise SceneFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(sidecar, dict):
        raise SceneFormatError(f"{path}: expected a JSON object")

    gt = intrinsics = view_origin = None
    if "pose" in sidecar:
        d = sidecar["pose"]
        if not isinstance(d, dict):
            raise SceneFormatError(f"{path}: pose: expected an object")
        rotation = sidecar_array(d.get("rotation"), (3, 3), f"{path}: pose.rotation",
                                 SceneFormatError)
        translation = sidecar_array(d.get("translation_mm"), (3,),
                                    f"{path}: pose.translation_mm", SceneFormatError)
        try:
            gt = RigidPose(rotation, translation)
        except ValueError as exc:   # not a proper rotation
            raise SceneFormatError(f"{path}: pose: {exc}") from exc
    if "intrinsics" in sidecar:
        d = sidecar["intrinsics"]
        if not (isinstance(d, dict)
                and all(_is_number(d.get(k)) for k in ("fx", "fy", "cx", "cy"))
                and all(_is_number(d.get(k), int) for k in ("width", "height"))):
            raise SceneFormatError(f"{path}: intrinsics: expected numbers fx, fy, cx, cy "
                                   f"and integers width, height")
        try:
            intrinsics = Intrinsics(fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
                                    width=d["width"], height=d["height"])
        except (ValueError, OverflowError) as exc:   # no image, or an int beyond float
            raise SceneFormatError(f"{path}: intrinsics: {exc}") from exc
    if "view_origin_mm" in sidecar:
        view_origin = sidecar_array(sidecar["view_origin_mm"], (3,),
                                    f"{path}: view_origin_mm", SceneFormatError)
    return gt, intrinsics, view_origin


def load_scene(stem) -> Tuple[PointCloud, Optional[RigidPose]]:
    """Read `<stem>.ply` (+ `<stem>.json` sidecar when present). A PLY of
    no points raises SceneFormatError: it is bad input, not a scene in which
    detection fails."""
    stem = Path(stem)
    ply, sidecar_path = stem.with_name(stem.name + ".ply"), stem.with_name(stem.name + ".json")
    cloud = read_ply(ply)
    if len(cloud) == 0:
        raise SceneFormatError(f"{ply}: the scene holds no points")
    gt = None
    if sidecar_path.exists():
        gt, intrinsics, view_origin = read_scene_sidecar(sidecar_path)
        if intrinsics is not None:
            cloud.intrinsics = intrinsics
        if view_origin is not None:
            cloud.view_origin = view_origin
    return cloud, gt
