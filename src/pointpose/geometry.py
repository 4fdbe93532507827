"""Foundational point-cloud geometry.

Voxel downsampling, normal/curvature estimation, exact nearest-neighbor
index, Kabsch alignment, and coarse-to-fine ICP. Everything operates in
millimeters and is deterministic.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateCorrespondencesError, EmptyIndexError, NoOverlapError
from .pointcloud import PointCloud
from .pose import RigidPose


def voxel_downsample(cloud: PointCloud, leaf: float) -> np.ndarray:
    """The centroids (V, 3) of the cloud's points in each occupied voxel of
    side `leaf`, in ascending order of voxel index.

    Only positions are averaged: no caller reads a voxel's normal, curvature
    or colour. Voxel assignment is floor(position/leaf), so points exactly
    on a boundary belong to the higher-index voxel.
    """
    if leaf <= 0:
        raise ValueError(f"leaf must be positive, got {leaf}")
    if len(cloud) == 0:
        return np.zeros((0, 3))

    keys = np.floor(cloud.positions / leaf).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.empty((len(counts), 3))
    for c in range(3):
        sums[:, c] = np.bincount(inverse, weights=cloud.positions[:, c], minlength=len(counts))
    return sums / counts[:, None]


def estimate_normals(cloud: PointCloud, radius: float,
                     viewpoint: Optional[np.ndarray] = None) -> PointCloud:
    """Attach PCA normals and curvature from radius neighborhoods.

    The normal is the eigenvector of the neighborhood covariance with the
    smallest eigenvalue, sign-flipped toward `viewpoint`; curvature is
    l0/(l0+l1+l2). Points with fewer than 3 neighbors (self included) get
    the unit vector toward the viewpoint and curvature 0.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if viewpoint is None:
        viewpoint = cloud.view_origin if cloud.view_origin is not None else np.zeros(3)
    viewpoint = np.asarray(viewpoint, dtype=np.float64).reshape(3)

    n = len(cloud)
    if n == 0:
        return cloud.select(np.zeros(0, dtype=int))
    pts = cloud.positions

    tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    i, j = (pairs[:, 0], pairs[:, 1]) if len(pairs) else (np.zeros(0, int), np.zeros(0, int))

    counts = 1.0 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)

    def pair_sum(values: np.ndarray) -> np.ndarray:
        # sum over each point's neighborhood (self included) of `values`
        out = values.copy()
        for c in range(values.shape[1]):
            out[:, c] += np.bincount(i, weights=values[j, c], minlength=n)
            out[:, c] += np.bincount(j, weights=values[i, c], minlength=n)
        return out

    s1 = pair_sum(pts)
    xx = pts[:, :, None] * pts[:, None, :]
    s2 = pair_sum(xx.reshape(n, 9)).reshape(n, 3, 3)

    mean = s1 / counts[:, None]
    cov = s2 / counts[:, None, None] - mean[:, :, None] * mean[:, None, :]

    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    normals = eigvecs[:, :, 0]
    total = eigvals.sum(axis=1)
    curvature = np.where(total > 1e-12, eigvals[:, 0] / np.maximum(total, 1e-300), 0.0)
    curvature = np.clip(curvature, 0.0, 1.0)

    # orient toward the viewpoint
    flip = np.einsum("ij,ij->i", normals, viewpoint[None, :] - pts) < 0
    normals[flip] *= -1.0

    degenerate = (counts < 3) | (total <= 1e-12)
    if degenerate.any():
        to_vp = viewpoint[None, :] - pts[degenerate]
        norms = np.linalg.norm(to_vp, axis=1)
        fallback = np.where(norms[:, None] > 1e-12, to_vp / np.maximum(norms, 1e-300)[:, None],
                            np.array([0.0, 0.0, 1.0]))
        normals[degenerate] = fallback
        curvature[degenerate] = 0.0

    return PointCloud(
        positions=pts.copy(),
        normals=normals,
        curvatures=curvature,
        colors=None if cloud.colors is None else cloud.colors.copy(),
        view_origin=cloud.view_origin,
        intrinsics=cloud.intrinsics,
    )


class NearestBatch(tuple):
    """`(ids, dists)` of `NNIndex.nearest_batch`, with `second` alongside."""

    second: np.ndarray

    def __new__(cls, ids: np.ndarray, dists: np.ndarray, second: np.ndarray):
        out = super().__new__(cls, (ids, dists))
        out.second = second
        return out


class NNIndex:
    """k-d tree over point positions with brute-force-exact results.

    Queries return exactly what a linear scan would: the minimum distance,
    ties broken by the lowest point index. Read-only after construction.

    Nearest-point queries look no farther than `max_dist`: a query with no
    indexed point within it gets distance inf and id len(self). A finite
    bound ends the search of such queries early, which makes queries far
    from the indexed points cheap.
    """

    def __init__(self, positions: np.ndarray, max_dist: float = np.inf):
        self.positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        self.max_dist = max_dist
        self._tree = cKDTree(self.positions) if len(self.positions) else None

    def __len__(self) -> int:
        return len(self.positions)

    def _resolve_ties(self, queries: np.ndarray, ids: np.ndarray, dists: np.ndarray,
                      rows: np.ndarray) -> None:
        for r in rows:
            radius = dists[r] * (1 + 1e-9) + 1e-12
            cand = np.array(self._tree.query_ball_point(queries[r], radius), dtype=np.int64)
            d = np.linalg.norm(self.positions[cand] - queries[r], axis=1)
            dmin = d.min()
            ids[r] = cand[d == dmin].min()
            dists[r] = dmin

    def nearest_batch(self, queries: np.ndarray) -> NearestBatch:
        """(ids, distances) of the nearest indexed point for each query row.

        The result unpacks as `ids, dists` and also carries `second`: per
        row, the distance to the second-nearest indexed point, capped at the
        search bound and inf when the index holds one point. Every indexed
        point other than the returned one lies at least `second` away (on a
        tie, `second` equals the distance).
        """
        if self._tree is None:
            raise EmptyIndexError("nearest-neighbor query on an empty index")
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        k = min(2, len(self.positions))
        # the kd search leaves out points at exactly its bound
        upper = self.max_dist * (1 + 1e-9) + 1e-12
        dists, ids = self._tree.query(queries, k=k, distance_upper_bound=upper)
        if k == 1:
            best_d, best_i = dists.reshape(-1), ids.astype(np.int64).reshape(-1)
            second = np.full(len(queries), np.inf)
        else:
            best_d = dists[:, 0].copy()
            best_i = ids[:, 0].astype(np.int64)
            second = np.minimum(dists[:, 1], upper)
            tied = np.nonzero((dists[:, 0] == dists[:, 1]) & np.isfinite(dists[:, 0]))[0]
            if len(tied):
                self._resolve_ties(queries, best_i, best_d, tied)
        beyond = best_d > self.max_dist
        best_d[beyond] = np.inf
        best_i[beyond] = len(self.positions)
        return NearestBatch(best_i, best_d, second)

    def ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Sorted indices of points within `radius` of `center` (closed ball)."""
        if self._tree is None:
            return np.zeros(0, dtype=np.int64)
        ids = self._tree.query_ball_point(np.asarray(center, dtype=np.float64).reshape(3), radius)
        return np.sort(np.asarray(ids, dtype=np.int64))


def kabsch_align(src: np.ndarray, dst: np.ndarray) -> RigidPose:
    """Least-squares rigid transform T minimizing sum |T(src_i) - dst_i|^2.

    Uses the SVD of the centered cross-covariance with a determinant sign
    fix so the rotation is always proper.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if len(src) != len(dst):
        raise ValueError("src and dst must pair up one-to-one")
    if len(src) < 3:
        raise DegenerateCorrespondencesError(f"need at least 3 pairs, got {len(src)}")

    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    h = (src - c_src).T @ (dst - c_dst)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0 or s[1] <= s[0] * 1e-9:
        raise DegenerateCorrespondencesError("rank-deficient correspondences (collinear or coincident)")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = c_dst - rotation @ c_src
    return RigidPose(rotation, translation)


def check_icp_schedule(schedule: Sequence[Sequence[float]]) -> None:
    """Raise ValueError unless the schedule is one or more (gate, iterations)
    pairs, with positive, strictly decreasing gates and whole, positive
    iteration counts."""
    if not schedule:
        raise ValueError("schedule must not be empty")
    if any(len(level) != 2 for level in schedule):
        raise ValueError("each schedule level must be a [gate, iterations] pair")
    gates = [g for g, _ in schedule]
    if any(g <= 0 for g in gates) or any(b >= a for a, b in zip(gates, gates[1:])):
        raise ValueError("correspondence gates must be positive and strictly decreasing")
    if any(it < 1 or it != int(it) for _, it in schedule):
        raise ValueError("iterations must be whole numbers of at least 1")


class _TrackedNearest:
    """Nearest scene points of a moving point set, re-queried only where the
    certificate of `icp_refine` fails.

    Per point it keeps the nearest scene id, the position of its last query
    and that query's `second`. Certified rows take their distance from the
    same arithmetic as the kd-tree, so every result equals a full query bit
    for bit.
    """

    def __init__(self, scene: NNIndex, n: int):
        self.scene = scene
        self.ids = np.full(n, len(scene), dtype=np.int64)   # no point: never certified
        self.queried_at = np.zeros((n, 3))
        self.second = np.zeros(n)

    def nearest(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        scene = self.scene
        found = self.ids < len(scene)
        dists = np.full(len(points), np.inf)
        dists[found] = np.linalg.norm(scene.positions[self.ids[found]] - points[found], axis=1)
        moved = np.linalg.norm(points - self.queried_at, axis=1)
        # one query per call, even with no stale row: counted queries count iterations
        stale = np.flatnonzero(~((dists + moved) * (1 + 1e-9) + 1e-9 < self.second))
        result = scene.nearest_batch(points[stale])
        self.ids[stale], dists[stale] = result
        self.queried_at[stale] = points[stale]
        self.second[stale] = result.second
        ids = self.ids.copy()
        beyond = dists > scene.max_dist
        ids[beyond] = len(scene)
        dists[beyond] = np.inf
        return ids, dists


def icp_refine(model_points: np.ndarray, scene: NNIndex, init: RigidPose,
               schedule: Sequence[Sequence[float]],
               history_out: Optional[list] = None) -> RigidPose:
    """Coarse-to-fine ICP: shrinking correspondence gates, Kabsch re-solves.

    Per level of the schedule, a [gate, iterations] pair as
    `check_icp_schedule` takes it, alternate NN pairing (gated at gate)
    with a full re-solve until the RMS change drops below 1e-6 mm or the
    iterations are spent.
    An update that would increase the gated RMS is rejected and ends the
    level, so the per-level residual sequence is non-increasing. Raises
    NoOverlapError if no level ever finds 3 pairs.

    Each iteration makes one `scene.nearest_batch` call, over only the model
    points whose nearest scene point may have changed. A point last queried
    at p_q, with nearest scene point s1 and second-nearest distance `second`
    there, now at p: every other scene point lies at least
    `second - |p - p_q|` away, so s1 is still the unique nearest point while
    `|p - s1| + |p - p_q| < second` (checked with a rounding margin). Pairs,
    poses and history are those of querying every point each iteration.

    history_out, when given, receives one list of RMS values per level.
    """
    schedule = list(schedule)
    check_icp_schedule(schedule)

    model_points = np.asarray(model_points, dtype=np.float64).reshape(-1, 3)
    pose = init
    found_pairs = False
    tracked = _TrackedNearest(scene, len(model_points))

    for gate, max_iters in schedule:
        prev_rms = None
        level_hist: list = []
        for _ in range(int(max_iters)):
            transformed = pose.apply(model_points)
            ids, dists = tracked.nearest(transformed)
            keep = dists <= gate
            if keep.sum() < 3:
                break
            found_pairs = True
            src = model_points[keep]
            dst = scene.positions[ids[keep]]
            try:
                new_pose = kabsch_align(src, dst)
            except DegenerateCorrespondencesError:
                break
            residual = new_pose.apply(src) - dst
            rms = float(np.sqrt(np.mean(np.sum(residual * residual, axis=1))))
            if prev_rms is not None and rms > prev_rms:
                break  # keep the previous (better) pose
            pose = new_pose
            level_hist.append(rms)
            if prev_rms is not None and abs(prev_rms - rms) < 1e-6:
                break
            prev_rms = rms
        if history_out is not None:
            history_out.append(level_hist)

    if not found_pairs:
        raise NoOverlapError("no schedule level found 3 gated correspondences")
    return pose
