"""Rigid transforms on SE(3) and rotation helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class RigidPose:
    """Proper rigid transform: x -> rotation @ x + translation (mm)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))
        # a rotation's entries lie in [-1, 1]; larger ones would overflow below
        if not np.abs(self.rotation).max() <= 1.0 + _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal (an entry outside [-1, 1])")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > _ORTHO_TOL:
            raise ValueError(f"rotation is not orthonormal (max deviation {err:.3e})")
        det = np.linalg.det(self.rotation)
        if abs(det - 1.0) > _ORTHO_TOL:
            raise ValueError(f"rotation determinant {det:.12f} != 1 (improper rotation)")

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform (3,) or (N, 3) points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidPose":
        rt = self.rotation.T
        return RigidPose(rt, -rt @ self.translation)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    x, y, z = a
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array([
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ])


def rotation_geodesic(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in radians between two rotation matrices, in [0, pi]."""
    cos_t = (np.trace(np.asarray(a).T @ np.asarray(b)) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos_t, -1.0, 1.0)))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random proper rotation (QR of a Gaussian matrix, det fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def pose_to_dict(pose: RigidPose) -> dict:
    return {"rotation": pose.rotation.tolist(), "translation_mm": pose.translation.tolist()}


def pose_from_dict(d: dict) -> RigidPose:
    return RigidPose(np.array(d["rotation"], dtype=np.float64),
                     np.array(d["translation_mm"], dtype=np.float64))


def save_pose_json(path, pose: RigidPose) -> None:
    with open(path, "w") as f:
        json.dump(pose_to_dict(pose), f, indent=2)


def load_pose_json(path) -> RigidPose:
    with open(path) as f:
        return pose_from_dict(json.load(f))
