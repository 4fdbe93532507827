"""Pose verification against the observed scene.

A hypothesis is scored by transforming the model into the scene, removing
the points that lie behind observed geometry along the viewing axis, and
combining the geometric RMS, the RGB RMS (when color is available), and
the voting density score into one localization loss:

    loss = geometric_rms * color_rms / density_score

Lower is better; the detection pipeline keeps the minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidHypothesisError
from .geometry import NNIndex
from .modelprep import ObjectModel
from .pointcloud import Intrinsics, PointCloud
from .voting import PoseHypothesis

INFINITE_LOSS = float("inf")


@dataclass
class VerificationParams:
    occlusion_margin_mm: float = 5.0
    splat_px: int = 2
    color: bool = True

    def __post_init__(self):
        if not self.occlusion_margin_mm >= 0 or self.splat_px < 0:  # NaN fails too
            raise ValueError("margin and splat radius must be non-negative")


@dataclass
class OcclusionResult:
    visible_mask: np.ndarray
    fallback: bool = False  # intrinsics missing: everything kept


def _project(points: np.ndarray, intr: Intrinsics):
    """Pixel indices and validity for camera-frame points (z > 0); u and v
    are -1 outside the image."""
    z = points[:, 2]
    valid = z > 0
    fu = np.full(len(points), -1.0)
    fv = np.full(len(points), -1.0)
    zz = np.where(valid, z, 1.0)
    fu[valid] = np.floor(intr.fx * points[valid, 0] / zz[valid] + intr.cx + 0.5)
    fv[valid] = np.floor(intr.fy * points[valid, 1] / zz[valid] + intr.cy + 0.5)
    # bounds in float first: a huge coordinate has no int64 value
    inside = valid & (fu >= 0) & (fu < intr.width) & (fv >= 0) & (fv < intr.height)
    u = np.where(inside, fu, -1.0).astype(np.int64)
    v = np.where(inside, fv, -1.0).astype(np.int64)
    return u, v, inside


def build_depth_buffer(scene: PointCloud, splat_px: int = 2) -> Optional[np.ndarray]:
    """Min-depth image of the scene; each point covers a (2s+1)^2 block.

    Returns None when the scene has no intrinsics.
    """
    intr = scene.intrinsics
    if intr is None:
        return None
    buf = np.full((intr.height, intr.width), np.inf, dtype=np.float64)
    u, v, inside = _project(scene.positions, intr)
    z = scene.positions[:, 2]
    # descending-depth writes make the final value per pixel the minimum
    order = np.argsort(-z[inside], kind="stable")
    ui, vi, zi = u[inside][order], v[inside][order], z[inside][order]
    for dv in range(-splat_px, splat_px + 1):
        for du in range(-splat_px, splat_px + 1):
            uu = ui + du
            vv = vi + dv
            ok = (uu >= 0) & (uu < intr.width) & (vv >= 0) & (vv < intr.height)
            buf[vv[ok], uu[ok]] = zi[ok]
    return buf


def remove_occluded(model_points: np.ndarray, scene: PointCloud,
                    params: VerificationParams = VerificationParams(),
                    depth_buffer: Optional[np.ndarray] = None) -> OcclusionResult:
    """Drop transformed model points lying behind the scene's depth buffer.

    A point is removed iff it projects onto a pixel with scene depth and
    sits more than the occlusion margin behind it. Points projecting
    outside the image, onto empty pixels, or behind the camera are kept.
    Missing intrinsics keep everything and set the fallback flag.
    """
    model_points = np.asarray(model_points, dtype=np.float64).reshape(-1, 3)
    if scene.intrinsics is None:
        return OcclusionResult(np.ones(len(model_points), dtype=bool), fallback=True)
    if depth_buffer is None:
        depth_buffer = build_depth_buffer(scene, params.splat_px)

    u, v, inside = _project(model_points, scene.intrinsics)
    visible = np.ones(len(model_points), dtype=bool)
    idx = np.nonzero(inside)[0]
    scene_depth = depth_buffer[v[idx], u[idx]]
    occluded = np.isfinite(scene_depth) & \
        (model_points[idx, 2] > scene_depth + params.occlusion_margin_mm)
    visible[idx[occluded]] = False
    return OcclusionResult(visible_mask=visible)


def color_loss(point_colors: Optional[np.ndarray],
               nn_colors: Optional[np.ndarray]) -> Tuple[float, bool]:
    """RMS RGB distance to the geometric nearest neighbors' colors.

    Either side lacking color returns (1.0, fallback=True): the
    multiplicative identity for the combined loss.
    """
    if point_colors is None or nn_colors is None:
        return 1.0, True
    point_colors = np.asarray(point_colors, dtype=np.float64).reshape(-1, 3)
    nn_colors = np.asarray(nn_colors, dtype=np.float64).reshape(-1, 3)
    if len(point_colors) == 0:
        return INFINITE_LOSS, False
    d2 = np.sum((point_colors - nn_colors) ** 2, axis=1)
    return float(np.sqrt(np.mean(d2))), False


def localization_loss(l_geometric: float, l_color: float, s_kde: float) -> float:
    """Combined verification loss: geometric * color / density score."""
    if s_kde <= 0:
        raise InvalidHypothesisError(f"density score must be positive, got {s_kde}")
    return l_geometric * l_color / s_kde


def verify(hypothesis: PoseHypothesis, model: ObjectModel, scene: PointCloud,
           params: VerificationParams = VerificationParams(),
           scene_index: Optional[NNIndex] = None,
           depth_buffer: Optional[np.ndarray] = None) -> PoseHypothesis:
    """Fill the hypothesis' losses against the scene.

    The scene NN index and depth buffer can be shared across the 16
    verifications of one detection.
    """
    if scene_index is None:
        scene_index = NNIndex(scene.positions)
    transformed = hypothesis.pose.apply(model.cloud.positions)
    occ = remove_occluded(transformed, scene, params, depth_buffer)
    visible = transformed[occ.visible_mask]

    if len(visible) == 0:
        return replace(hypothesis, l_geometric=INFINITE_LOSS, l_color=1.0,
                       l_loc=INFINITE_LOSS, color_fallback=True,
                       occlusion_fallback=occ.fallback, visible_count=0)

    ids, dists = scene_index.nearest_batch(visible)
    l_geo = float(np.sqrt(np.mean(dists * dists)))

    use_color = params.color and model.cloud.colors is not None and scene.colors is not None
    if use_color:
        l_col, fallback = color_loss(model.cloud.colors[occ.visible_mask], scene.colors[ids])
    else:
        l_col, fallback = 1.0, True

    return replace(hypothesis, l_geometric=l_geo, l_color=l_col,
                   l_loc=localization_loss(l_geo, l_col, hypothesis.s_kde),
                   color_fallback=fallback, occlusion_fallback=occ.fallback,
                   visible_count=int(len(visible)))
