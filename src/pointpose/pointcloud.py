"""Point cloud container and pinhole camera intrinsics.

All coordinates are in millimeters. Optional per-point channels (normals,
curvature, color) are stored column-wise: either every point has the
channel or none does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera model (pixels / mm depth) of an image of at least one
    pixel: finite focal lengths above 0 and a finite principal point."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError(f"image size {self.width} x {self.height}: width and height "
                             "must be at least 1")
        # math.isfinite raises OverflowError on an int beyond the float range
        if not (all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy))
                and self.fx > 0 and self.fy > 0):
            raise ValueError(f"fx {self.fx}, fy {self.fy}, cx {self.cx}, cy {self.cy}: "
                             "focal lengths must be finite and above 0, and the principal "
                             "point finite")


@dataclass
class PointCloud:
    """Unordered set of 3-D points with optional per-point channels.

    positions:  (N, 3) float64, mm
    normals:    (N, 3) unit vectors, or None
    curvatures: (N,) in [0, 1], or None
    colors:     (N, 3) RGB in [0, 1], or None
    view_origin: sensor position in the cloud's frame, or None
    intrinsics: pinhole camera, or None
    """

    positions: np.ndarray
    normals: Optional[np.ndarray] = None
    curvatures: Optional[np.ndarray] = None
    colors: Optional[np.ndarray] = None
    view_origin: Optional[np.ndarray] = None
    intrinsics: Optional[Intrinsics] = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        n = len(self.positions)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != n:
                raise ValueError("normals length does not match positions")
        if self.curvatures is not None:
            self.curvatures = np.asarray(self.curvatures, dtype=np.float64).reshape(-1)
            if len(self.curvatures) != n:
                raise ValueError("curvatures length does not match positions")
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
            if len(self.colors) != n:
                raise ValueError("colors length does not match positions")
        if self.view_origin is not None:
            self.view_origin = np.asarray(self.view_origin, dtype=np.float64).reshape(3)

    def __len__(self) -> int:
        return len(self.positions)

    def select(self, idx) -> "PointCloud":
        """New cloud holding the points at `idx` (fancy index or mask)."""
        return PointCloud(
            positions=self.positions[idx],
            normals=None if self.normals is None else self.normals[idx],
            curvatures=None if self.curvatures is None else self.curvatures[idx],
            colors=None if self.colors is None else self.colors[idx],
            view_origin=self.view_origin,
            intrinsics=self.intrinsics,
        )

    def transformed(self, pose) -> "PointCloud":
        """Cloud rigidly moved by `pose` (positions and normals)."""
        return PointCloud(
            positions=pose.apply(self.positions),
            normals=None if self.normals is None else self.normals @ pose.rotation.T,
            curvatures=None if self.curvatures is None else self.curvatures.copy(),
            colors=None if self.colors is None else self.colors.copy(),
            view_origin=self.view_origin,
            intrinsics=self.intrinsics,
        )


def concatenate_clouds(clouds: list) -> PointCloud:
    """Stack clouds; a channel survives only if every input carries it."""
    if not clouds:
        return PointCloud(positions=np.zeros((0, 3)))

    def cat(attr):
        cols = [getattr(c, attr) for c in clouds]
        if any(col is None for col in cols):
            return None
        return np.concatenate(cols, axis=0)

    return PointCloud(
        positions=np.concatenate([c.positions for c in clouds], axis=0),
        normals=cat("normals"),
        curvatures=cat("curvatures"),
        colors=cat("colors"),
        view_origin=clouds[0].view_origin,
        intrinsics=clouds[0].intrinsics,
    )


def check_finite(cloud: PointCloud, error: type, what: str) -> None:
    """Raise `error`("<count> of <len(cloud)> <what> have a NaN or infinite
    <channel>") for the first of the cloud's channels that holds one."""
    for name, channel in (("position", cloud.positions), ("normal", cloud.normals),
                          ("curvature", cloud.curvatures), ("colour", cloud.colors)):
        if channel is None:
            continue
        bad = ~np.isfinite(channel)
        if bad.any():
            count = int(bad.reshape(len(bad), -1).any(axis=1).sum())
            raise error(f"{count} of {len(cloud)} {what} have a NaN or infinite {name}")
