"""Pose hypotheses from segmentation output via correspondence voting.

Each scene point labeled with a model keypoint pins that keypoint to the
point and its normal to the scene normal, leaving one free rotation about
the scene normal. Sampling that angle yields a family of rigid-pose votes
per correspondence; a kernel density peak over all votes in SE(3) gives
the hypothesis, scored by the fraction of votes that support it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateCorrespondencesError, NoHypothesisError
from .geometry import kabsch_align
from .modelprep import ObjectModel
from .pose import RigidPose

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])


@dataclass
class VotingParams:
    n_theta: int = 36
    delta_t_mm: float = 10.0
    delta_r_deg: float = 12.0
    min_correspondences: int = 10
    max_correspondences: int = 500
    min_confidence: float = 0.0
    subsample_seed: int = field(default=0, metadata={"config": False})

    def __post_init__(self):
        if self.n_theta < 4:
            raise ValueError("n_theta must be at least 4")
        if not self.delta_t_mm > 0:  # written so that NaN fails too
            raise ValueError("delta_t_mm must be positive")
        # density_peak's hemisphere identity needs q_radius < sqrt(2)
        if not 0 < self.delta_r_deg < 180:
            raise ValueError("delta_r_deg must be above 0 and below 180")
        if not 1 <= self.min_correspondences <= self.max_correspondences:
            raise ValueError("min_correspondences must be at least 1 and at most "
                             "max_correspondences")
        if not 0 <= self.min_confidence <= 1:
            raise ValueError("min_confidence must be between 0 and 1")

    @property
    def delta_r_rad(self) -> float:
        return float(np.radians(self.delta_r_deg))


@dataclass
class Correspondences:
    """Column-wise store of scene-point -> model-keypoint matches."""

    scene_positions: np.ndarray    # (M, 3) mm, scene frame
    scene_normals: np.ndarray      # (M, 3) unit
    keypoint_positions: np.ndarray  # (M, 3) mm, model frame
    keypoint_normals: np.ndarray   # (M, 3) unit

    def __len__(self) -> int:
        return len(self.scene_positions)

    def subset(self, idx) -> "Correspondences":
        return Correspondences(self.scene_positions[idx], self.scene_normals[idx],
                               self.keypoint_positions[idx], self.keypoint_normals[idx])


@dataclass
class PoseHypothesis:
    pose: RigidPose
    s_kde: float
    vote_support: int
    l_geometric: Optional[float] = None
    l_color: Optional[float] = None
    l_loc: Optional[float] = None
    color_fallback: bool = False
    occlusion_fallback: bool = False
    visible_count: Optional[int] = None


@dataclass
class VoteSet:
    """Rigid-pose votes, one row each. A vote's rotation is its unit
    quaternion (x, y, z, w), whose sign is arbitrary: q and -q are the same
    rotation, and every test on rotations here is sign-blind."""

    quats: np.ndarray         # (V, 4) unit quaternions, scalar last
    translations: np.ndarray  # (V, 3)
    source: np.ndarray        # (V,) correspondence index

    def __len__(self) -> int:
        return len(self.source)


def segment_labels(seg_probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each point's argmax label and its probability, from (n, K+1) rows of
    probabilities with column 0 = background: what
    correspondences_from_segmentation reads of a segmentation."""
    seg_probs = np.asarray(seg_probs)
    labels = np.argmax(seg_probs, axis=1)
    return labels, seg_probs[np.arange(len(labels)), labels].astype(np.float64)


def correspondences_from_segmentation(scene_positions: np.ndarray,
                                      scene_normals: np.ndarray,
                                      labels: np.ndarray,
                                      confidences: np.ndarray,
                                      model: ObjectModel,
                                      min_confidence: float = 0.0) -> Correspondences:
    """Emit one correspondence per point labelled with a keypoint at a
    confidence of at least min_confidence.

    labels are per point, 0 = background and 1..K a keypoint, with their
    confidences (see segment_labels). Points keep their scene-frame
    (un-centered) positions.
    """
    labels = np.asarray(labels)
    if labels.size and not 0 <= labels.min() <= labels.max() <= model.k:
        raise ValueError(f"labels must lie in 0..{model.k}")
    keep = (labels > 0) & (np.asarray(confidences, dtype=np.float64) >= min_confidence)

    ids = labels[keep]
    return Correspondences(
        scene_positions=np.asarray(scene_positions, dtype=np.float64)[keep],
        scene_normals=np.asarray(scene_normals, dtype=np.float64)[keep],
        keypoint_positions=model.keypoint_positions()[ids - 1],
        keypoint_normals=model.keypoint_normals()[ids - 1],
    )


def quat_to_matrix(quats: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4), scalar last."""
    x, y, z, w = np.moveaxis(np.asarray(quats, dtype=np.float64), -1, 0)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    # entries written in place: no per-entry or per-row arrays to stack
    r = np.empty(x.shape + (3, 3))
    r[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    r[..., 0, 1] = 2.0 * (xy - wz)
    r[..., 0, 2] = 2.0 * (xz + wy)
    r[..., 1, 0] = 2.0 * (xy + wz)
    r[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    r[..., 1, 2] = 2.0 * (yz - wx)
    r[..., 2, 0] = 2.0 * (xz - wy)
    r[..., 2, 1] = 2.0 * (yz + wx)
    r[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return r


def _base_quats(kp_normals: np.ndarray, scene_normals: np.ndarray) -> np.ndarray:
    """Quaternions (M, 4) of the minimal rotations mapping each keypoint
    normal onto its scene normal.

    Anti-parallel pairs rotate by pi about normalize(scene_normal x x_hat),
    falling back to the y axis cross product when degenerate.
    """
    a, b = kp_normals, scene_normals
    cross = np.cross(a, b)
    sin = np.linalg.norm(cross, axis=1)
    cos = np.einsum("ij,ij->i", a, b)
    angles = np.arctan2(sin, cos)

    axes = np.zeros_like(a)
    regular = sin > 1e-12
    axes[regular] = cross[regular] / sin[regular, None]

    anti = (~regular) & (cos < 0)
    if anti.any():
        alt = np.cross(b[anti], _X)
        alt_norm = np.linalg.norm(alt, axis=1)
        bad = alt_norm < 1e-9
        if bad.any():
            alt[bad] = np.cross(b[anti][bad], _Y)
            alt_norm = np.linalg.norm(alt, axis=1)
        axes[anti] = alt / alt_norm[:, None]
        angles[anti] = np.pi

    parallel = (~regular) & (cos >= 0)
    axes[parallel] = _X  # angle ~ 0: axis is irrelevant
    angles[parallel] = 0.0
    half = angles / 2.0
    return np.hstack([np.sin(half)[:, None] * axes, np.cos(half)[:, None]])


def pose_votes(corr: Correspondences, n_theta: int = VotingParams.n_theta) -> VoteSet:
    """The 1-DoF pose family of each correspondence, sampled at n_theta angles.

    Every emitted vote maps the keypoint exactly onto the scene point and
    the keypoint normal exactly onto the scene normal. Correspondence m
    first turns its keypoint normal onto the scene normal n_m by the
    minimal rotation b_m, then spins by theta_t about n_m; as quaternions
    (scalar last) the vote is the Hamilton product
    q_mt = (sin(theta_t/2) n_m, cos(theta_t/2)) * b_m, which is linear in
    the half-angle's cosine and sine: q_mt = cos(theta_t/2) b_m +
    sin(theta_t/2) (n_m, 0) * b_m. Translations come from the same
    quaternions through their rotation matrices.
    """
    if n_theta < 4:
        raise ValueError("n_theta must be at least 4")
    m = len(corr)
    if m == 0:
        return VoteSet(np.zeros((0, 4)), np.zeros((0, 3)), np.zeros(0, dtype=np.int32))

    base = _base_quats(corr.keypoint_normals, corr.scene_normals)  # (M, 4)
    n, u, w = corr.scene_normals, base[:, :3], base[:, 3:]
    # (n, 0) * (u, w) = (w n + n x u, -n . u)
    turned = np.hstack([w * n + np.cross(n, u), -np.einsum("ij,ij->i", n, u)[:, None]])
    half = np.pi * np.arange(n_theta) / n_theta
    quats = (np.cos(half)[None, :, None] * base[:, None, :]
             + np.sin(half)[None, :, None] * turned[:, None, :]).reshape(-1, 4)
    kp = np.repeat(corr.keypoint_positions, n_theta, axis=0)
    translations = (np.repeat(corr.scene_positions, n_theta, axis=0)
                    - np.einsum("vij,vj->vi", quat_to_matrix(quats), kp))
    source = np.repeat(np.arange(m, dtype=np.int32), n_theta)
    return VoteSet(quats=quats, translations=translations, source=source)


def _mean_rotation(rotations: np.ndarray) -> np.ndarray:
    """Chordal mean: average matrix projected back onto SO(3)."""
    m = rotations.mean(axis=0)
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def density_peak(votes: VoteSet, delta_t_mm: float = VotingParams.delta_t_mm,
                 delta_r_rad: float = VotingParams().delta_r_rad
                 ) -> Tuple[PoseHypothesis, np.ndarray]:
    """Max-support vote under translation/rotation kernels, as
    (hypothesis, supporters): the winner's supporting vote indices, ascending.

    Support of a vote = number of votes within delta_t translation AND
    delta_r geodesic rotation distance. Ties break toward the smaller
    summed translation distance, then the lowest vote index. The returned
    pose is the mean translation and chordal-mean rotation over the
    winner's supporters, which come (and are summed) in ascending vote
    index; s_kde = support / |votes|.

    Rotations are compared as quaternions: two rotations are within
    delta_r exactly when |q . q'| >= cos(delta_r / 2), that is when q' or
    -q' lies within q_radius = sqrt(2 - 2 cos(delta_r / 2)) of q.

    The search is exact. Each vote's rotation-neighbour count bounds its
    support, and candidates are scored one at a time in descending-bound
    order until the bound falls below the best support; on clean votes
    that ends within a few candidates. Scoring one needs no translation
    tree: one matrix-vector product over every vote's translation keeps
    those within delta_t plus a rounding margin, and only they get the
    exact distance and rotation tests. The count is one kd-tree query of
    the votes, each with its quaternion on the w >= 0 hemisphere, against
    a tree of those quaternions plus sign-flipped copies of the votes with
    w <= q_radius. It equals counting q' and -q' separately:
    |q - q'|^2 + |q + q'|^2 = 4, so for q_radius < sqrt(2) at most one sign
    of a vote is near, and -q' can be near a w >= 0 quaternion only if q'
    has w <= q_radius.

    On clean votes those exact counts would be most of the search, so a
    cheaper bound prefilters them: a vote's box count, the rows in the
    3^4 cells around its own on a 4-D grid of side q_radius. The vote
    with the most rotation neighbours among the `_EXACT_FIRST` highest box
    counts is scored first; its support is a floor on the best. Only votes
    whose box count reaches the floor are counted exactly. The others
    keep their box count as the bound, and it is below the best support,
    so the winner and its supporters are those of the exact counts.

    If candidates above the best remain after the first `_EXACT_FIRST`
    (noise-like correspondences), the rest are also bounded in the joint
    space [t / delta_t, q / q_radius] over the same flipped set, where
    passing both kernel tests puts two votes within sqrt(2) of each other.
    Candidates under the tighter of the two bounds are counted in
    vectorised batches over their joint neighbours, one query of at most
    `_JOINT_CHUNK` candidates at a time, and every one whose count could
    tie or beat the best is re-scored exactly from its joint neighbours,
    which hold all its supporters, so the winner, its supporters and their
    order are the same on both paths.
    """
    if not delta_t_mm > 0:  # written so that NaN fails too
        raise ValueError(f"delta_t_mm must be positive, got {delta_t_mm}")
    # the hemisphere identity above needs q_radius < sqrt(2)
    if not 0 < delta_r_rad < np.pi:
        raise ValueError(f"delta_r_rad must be above 0 and below pi, got {delta_r_rad}")
    if len(votes) == 0:
        raise NoHypothesisError("no votes to cluster")
    (support, _, _), supporters = _peak_search(votes.translations, votes.quats,
                                               delta_t_mm, delta_r_rad)
    pose = RigidPose(_mean_rotation(quat_to_matrix(votes.quats[supporters])),
                     votes.translations[supporters].mean(axis=0))
    return PoseHypothesis(pose=pose, s_kde=support / len(votes),
                          vote_support=support), supporters


# candidates scored one at a time before a vote set counts as noise-like,
# and the highest box counts that pick the first of them: clean sets end
# within a handful, so they never build the joint tree
_EXACT_FIRST = 64
_SAMPLE_STRIDE = 16  # noise-like sets: every 16th candidate raises the best first
_BATCH_FIRST = 64    # first vectorised batch of the joint-bound pass; doubles
# candidates per joint query: a batch of 1,600 candidates held ~118,000
# neighbours as Python ints, a 15-18 MiB tracemalloc peak per call
_JOINT_CHUNK = 256
_SLACK = 1.0 + 1e-6  # keeps joint bounds, batch counts and joint lists above float rounding
_LEAFSIZE = 128      # kd-tree leaf size: the fastest of 16-128 on 18,000-vote sets
# box grid cells at most (1 MB of int32 counts): the default 12-degree kernel
# needs ~88,000 cells, but the count grows as delta_r^-4, so a 4-degree
# kernel would need 11 million
_BOX_CELLS = 1 << 18


def _hemisphere_rows(quats: np.ndarray, q_radius: float):
    """The rows of both rotation kd-trees and the vote of each row: every
    vote's quaternion on the w >= 0 hemisphere, then a sign-flipped copy of
    the votes with w <= q_radius, the only ones that can be within q_radius
    of a w >= 0 quaternion through -q."""
    canon = np.where(quats[:, 3:] < 0.0, -quats, quats)
    flip = np.nonzero(canon[:, 3] <= q_radius * _SLACK)[0]
    return np.vstack([canon, -canon[flip]]), np.concatenate([np.arange(len(quats)), flip])


def _rotation_bound(q_tree, ids: np.ndarray, q_radius: float) -> np.ndarray:
    """Rotation neighbours of the votes `ids`, each itself included: one
    query of their rows of `_hemisphere_rows` against the tree of all rows,
    issued in tree order so that queries near in space are near in memory."""
    wanted = np.zeros(q_tree.n, dtype=bool)
    wanted[ids] = True
    in_tree_order = q_tree.indices[wanted[q_tree.indices]]
    counts = np.zeros(q_tree.n, dtype=np.int64)
    counts[in_tree_order] = q_tree.query_ball_point(
        q_tree.data[in_tree_order], q_radius, return_length=True)
    return counts[ids]


def _box_bound(q_rows: np.ndarray, v: int, q_radius: float) -> np.ndarray:
    """An upper bound on `_rotation_bound` for each of the first v rows:
    the rows in the 3^4 cells around its cell, on a grid over the rows'
    range with a side of at least q_radius * _SLACK, so that a row within
    q_radius is at most one cell away on every axis. The side widens
    beyond that when the grid would exceed `_BOX_CELLS` cells."""
    lo = q_rows.min(axis=0)
    span = q_rows.max(axis=0) - lo
    side = max(q_radius * _SLACK, 1e-9)  # a zero kernel still gets a grid
    while np.prod(np.floor(span / side) + 1) > _BOX_CELLS:
        side *= 2
    shape = (span / side).astype(np.int64) + 1
    flat = np.zeros(len(q_rows), dtype=np.int64)  # cell of each row, built an axis at a time
    for axis in range(4):
        flat *= shape[axis]
        flat += ((q_rows[:, axis] - lo[axis]) / side).astype(np.int64)
    grid = np.bincount(flat, minlength=int(np.prod(shape))).astype(np.int32)
    grid = grid.reshape(tuple(shape))
    for axis in range(4):  # 3-wide sums along each axis, in place
        g = np.moveaxis(grid, axis, 0)
        own = g.copy()
        g[1:] += own[:-1]
        g[:-1] += own[1:]
    return grid.reshape(-1)[flat[:v]]


def _peak_search(trans: np.ndarray, quats: np.ndarray, delta_t_mm: float,
                 delta_r_rad: float):
    """density_peak's search: the winner's score (support, -sum_dist,
    -index) and its supporters, in ascending vote index."""
    from scipy.spatial import cKDTree
    v = len(trans)

    # |q_i . q_j| >= cos(delta_r/2) is the same boundary as the geodesic
    # trace test but needs 4 components per vote instead of 9
    q_gate = np.cos(delta_r_rad / 2.0)
    q_radius = np.sqrt(max(2.0 - 2.0 * q_gate, 0.0))  # |q - q'| for geodesic delta_r
    q_rows, vote_of = _hemisphere_rows(quats, q_radius)
    canon = q_rows[:v]

    # translation prefilter |t|^2 - 2 t.t_c + |t_c|^2 <= delta_t^2 + margin,
    # one GEMV per candidate: the expression is within ~10u (|t|^2 + |t_c|^2)
    # of |t - t_c|^2, and a row passing the norm test below is within
    # delta_t^2 (1 + ~12u) of t_c (u = eps / 2), so a margin of
    # 8 eps (delta_t^2 + 2 max |t|^2) keeps every row that test keeps
    sq = np.einsum("ij,ij->i", trans, trans)
    dt2 = delta_t_mm * delta_t_mm
    reach = dt2 + 8.0 * np.finfo(np.float64).eps * (dt2 + 2.0 * sq.max())

    def exact(c, nb):
        """c's score over the ascending vote ids nb, a superset of its supporters."""
        d = np.linalg.norm(trans[nb] - trans[c], axis=1)
        mask = (d <= delta_t_mm) & (np.abs(canon[nb] @ canon[c]) >= q_gate)
        return (int(mask.sum()), -float(d[mask].sum()), -int(c)), nb[mask]

    def score(c):
        d2 = sq - 2.0 * (trans @ trans[c]) + sq[c]
        return exact(c, np.nonzero(d2 <= reach)[0])

    # box counts bound every vote; the first candidate's support is a floor
    # on the best, and only box counts that reach it are made exact
    q_tree = cKDTree(q_rows, leafsize=_LEAFSIZE, balanced_tree=False)
    bound = _box_bound(q_rows, v, q_radius)
    top = np.argpartition(-bound, min(_EXACT_FIRST, v) - 1)[:_EXACT_FIRST]
    first = top[np.argmax(_rotation_bound(q_tree, top, q_radius))]
    best, best_supporters = score(first)  # best: (support, -sum_dist, -index), maximized
    live = np.nonzero(bound >= best[0])[0]
    bound[live] = _rotation_bound(q_tree, live, q_radius)
    live = live[bound[live] >= best[0]]
    live = live[np.argsort(-bound[live], kind="stable")]  # ties: lowest index first
    for c in live[:_EXACT_FIRST]:
        if bound[c] < best[0]:
            break
        s, sup = score(c)
        if s > best:
            best, best_supporters = s, sup
    rest = live[_EXACT_FIRST:]
    rest = rest[bound[rest] >= best[0]]
    if len(rest) == 0:
        return best, best_supporters

    scaled = np.hstack([trans[vote_of] / delta_t_mm, q_rows / q_radius])
    joint = cKDTree(scaled, leafsize=_LEAFSIZE, balanced_tree=False)
    radius = np.sqrt(2.0) * _SLACK

    def score_batch(cand):
        """Score the candidates `cand`, _JOINT_CHUNK at a time. Every
        candidate that could tie or beat the best is re-scored exactly, and
        the best is the maximum of a strict total order, so it does not
        depend on how the candidates are chunked."""
        for lo in range(0, len(cand), _JOINT_CHUNK):
            score_chunk(cand[lo:lo + _JOINT_CHUNK])

    def score_chunk(cand):
        nonlocal best, best_supporters
        lists = joint.query_ball_point(scaled[cand], radius, return_sorted=False)
        sizes = np.array([len(nb) for nb in lists], dtype=np.int64)
        ends = np.cumsum(sizes)
        owner = np.repeat(np.arange(len(cand)), sizes)
        nb = vote_of[np.concatenate(lists).astype(np.int64)]
        del lists
        d = np.linalg.norm(trans[nb] - trans[cand[owner]], axis=1)
        # both tests loosened, so a count is never below the exact support
        # and an equal count has the same supporters
        dots = np.einsum("ij,ij->i", canon[nb], canon[cand[owner]])
        near = (d <= delta_t_mm * _SLACK) & (np.abs(dots) >= q_gate - 1e-9)
        counts = np.bincount(owner[near], minlength=len(cand))
        sum_d = np.bincount(owner[near], weights=d[near], minlength=len(cand))
        # summed distances add in another order than score's: only a sum
        # beyond the best's by more than rounding settles a tie unscored
        for i in np.lexsort((cand, sum_d, -counts)):
            if counts[i] < best[0] or (counts[i] == best[0]
                                       and sum_d[i] > -best[1] * _SLACK + 1e-9):
                continue
            # a joint list holds every supporter (a vote may appear twice,
            # through its flipped row), so it is scored exactly in place
            s, sup = exact(cand[i], np.unique(nb[ends[i] - sizes[i]:ends[i]]))
            if s > best:
                best, best_supporters = s, sup

    sample = rest[::_SAMPLE_STRIDE]
    score_batch(sample)
    unscored = np.ones(v, dtype=bool)
    unscored[sample] = False
    rest = rest[(bound[rest] >= best[0]) & unscored[rest]]
    jbound = np.minimum(bound[rest], joint.query_ball_point(
        scaled[rest], radius, return_length=True))
    by_bound = np.lexsort((rest, -jbound))
    rest, jbound = rest[by_bound], jbound[by_bound]

    start, size = 0, _BATCH_FIRST
    while start < len(rest) and jbound[start] >= best[0]:
        cand = rest[start:start + size]
        score_batch(cand[jbound[start:start + size] >= best[0]])
        start += size
        size *= 2
    return best, best_supporters


def subsample_correspondences(corr: Correspondences, params: VotingParams) -> Correspondences:
    """The correspondences `estimate_pose` votes with: all of them, or
    `max_correspondences` drawn by `subsample_seed`, kept in their order."""
    if len(corr) <= params.max_correspondences:
        return corr
    rng = np.random.default_rng(params.subsample_seed)
    idx = np.sort(rng.choice(len(corr), size=params.max_correspondences, replace=False))
    return corr.subset(idx)


def estimate_pose(corr: Correspondences,
                  params: VotingParams = VotingParams()) -> PoseHypothesis:
    """Vote, find the density peak, and polish with least squares.

    The polish re-solves the rigid transform over the unique correspondences
    whose votes support the peak; fewer than 3 usable pairs keep the peak
    pose as-is.
    """
    if len(corr) < params.min_correspondences:
        raise NoHypothesisError(
            f"{len(corr)} correspondences < {params.min_correspondences} required")

    corr = subsample_correspondences(corr, params)
    votes = pose_votes(corr, params.n_theta)
    hyp, supporters = density_peak(votes, params.delta_t_mm, params.delta_r_rad)

    support_corr = np.unique(votes.source[supporters])
    if len(support_corr) >= 3:
        try:
            hyp.pose = kabsch_align(corr.keypoint_positions[support_corr],
                                    corr.scene_positions[support_corr])
        except DegenerateCorrespondencesError:
            pass
    return hyp
