"""Pose hypotheses from segmentation output via correspondence voting.

Each scene point labeled with a model keypoint pins that keypoint to the
point and its normal to the scene normal, leaving one free rotation about
the scene normal. Sampling that angle yields a family of rigid-pose votes
per correspondence; a kernel density peak over all votes in SE(3) gives
the hypothesis, scored by the fraction of votes that support it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    subsample_seed: int = 0
    # kd-tree query threads of density_peak (-1: every CPU). A run-time
    # budget the CLI derives from config.threads, not a config key
    workers: int = -1

    @property
    def delta_r_rad(self) -> float:
        return float(np.radians(self.delta_r_deg))


@dataclass
class Correspondences:
    """Column-wise store of scene-point -> model-keypoint matches."""

    scene_positions: np.ndarray    # (M, 3) mm, scene frame
    scene_normals: np.ndarray      # (M, 3) unit
    keypoint_ids: np.ndarray       # (M,) in 1..K
    keypoint_positions: np.ndarray  # (M, 3) mm, model frame
    keypoint_normals: np.ndarray   # (M, 3) unit
    confidences: np.ndarray        # (M,) in (0, 1]

    def __len__(self) -> int:
        return len(self.scene_positions)

    def subset(self, idx) -> "Correspondences":
        return Correspondences(self.scene_positions[idx], self.scene_normals[idx],
                               self.keypoint_ids[idx], self.keypoint_positions[idx],
                               self.keypoint_normals[idx], self.confidences[idx])


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
    rotations: np.ndarray     # (V, 3, 3)
    translations: np.ndarray  # (V, 3)
    source: np.ndarray        # (V,) correspondence index

    def __len__(self) -> int:
        return len(self.source)


def correspondences_from_segmentation(scene_positions: np.ndarray,
                                      scene_normals: np.ndarray,
                                      seg_probs: np.ndarray,
                                      model: ObjectModel,
                                      min_confidence: float = 0.0) -> Correspondences:
    """Emit one correspondence per point whose argmax label is a keypoint.

    seg_probs rows are (K+1) probabilities with column 0 = background.
    Points keep their scene-frame (un-centered) positions.
    """
    seg_probs = np.asarray(seg_probs)
    if seg_probs.shape[1] != model.k + 1:
        raise ValueError(f"seg_probs has {seg_probs.shape[1]} columns, expected {model.k + 1}")
    labels = np.argmax(seg_probs, axis=1)
    conf = seg_probs[np.arange(len(labels)), labels]
    keep = (labels > 0) & (conf >= min_confidence)

    ids = labels[keep]
    kp_pos = model.keypoint_positions()
    kp_nrm = model.keypoint_normals()
    return Correspondences(
        scene_positions=np.asarray(scene_positions, dtype=np.float64)[keep],
        scene_normals=np.asarray(scene_normals, dtype=np.float64)[keep],
        keypoint_ids=ids.astype(np.int32),
        keypoint_positions=kp_pos[ids - 1],
        keypoint_normals=kp_nrm[ids - 1],
        confidences=conf[keep].astype(np.float64),
    )


def _rodrigues_batch(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotation matrices for unit axes (..., 3) and angles (...)."""
    c = np.cos(angles)[..., None, None]
    s = np.sin(angles)[..., None, None]
    a = axes
    outer = a[..., :, None] * a[..., None, :]
    zeros = np.zeros_like(angles)
    skew = np.stack([
        np.stack([zeros, -a[..., 2], a[..., 1]], axis=-1),
        np.stack([a[..., 2], zeros, -a[..., 0]], axis=-1),
        np.stack([-a[..., 1], a[..., 0], zeros], axis=-1),
    ], axis=-2)
    eye = np.broadcast_to(np.eye(3), outer.shape)
    return c * eye + s * skew + (1.0 - c) * outer


def _base_rotations(kp_normals: np.ndarray, scene_normals: np.ndarray) -> np.ndarray:
    """Minimal rotations mapping each keypoint normal onto its scene normal.

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
    return _rodrigues_batch(axes, angles)


def pose_votes(corr: Correspondences, n_theta: int = 36) -> VoteSet:
    """The 1-DoF pose family of each correspondence, sampled at n_theta angles.

    Every emitted vote maps the keypoint exactly onto the scene point and
    the keypoint normal exactly onto the scene normal.
    """
    if n_theta < 4:
        raise ValueError("n_theta must be at least 4")
    m = len(corr)
    if m == 0:
        return VoteSet(np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros(0, dtype=np.int32))

    base = _base_rotations(corr.keypoint_normals, corr.scene_normals)  # (M, 3, 3)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    spin = _rodrigues_batch(
        np.broadcast_to(corr.scene_normals[:, None, :], (m, n_theta, 3)),
        np.broadcast_to(thetas[None, :], (m, n_theta)),
    )  # (M, T, 3, 3)
    rotations = np.einsum("mtij,mjk->mtik", spin, base)
    translations = corr.scene_positions[:, None, :] - np.einsum(
        "mtij,mj->mti", rotations, corr.keypoint_positions)
    source = np.repeat(np.arange(m, dtype=np.int32), n_theta)
    return VoteSet(rotations=rotations.reshape(-1, 3, 3),
                   translations=translations.reshape(-1, 3),
                   source=source)


def _mean_rotation(rotations: np.ndarray) -> np.ndarray:
    """Chordal mean: average matrix projected back onto SO(3)."""
    m = rotations.mean(axis=0)
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def density_peak(votes: VoteSet, delta_t_mm: float = 10.0,
                 delta_r_rad: float = 0.20943951023931953,
                 return_supporters: bool = False, workers: int = -1):
    """Max-support vote under translation/rotation kernels.

    Support of a vote = number of votes within delta_t translation AND
    delta_r geodesic rotation distance. Ties break toward the smaller
    summed translation distance, then the lowest vote index. The returned
    pose is the mean translation and chordal-mean rotation over the
    winner's supporters; s_kde = support / |votes|.

    The search is exact. Each vote's rotation-neighbour count bounds its
    support, and candidates are scored one at a time in descending-bound
    order until the bound falls below the best support; on clean votes
    that ends within a few candidates. If candidates above the best remain
    after the first `_EXACT_FIRST` (noise-like correspondences), the rest
    are also bounded in the joint space [t / delta_t, q / q_radius], where
    passing both kernel tests puts two votes within sqrt(2) of each other
    for one of the two signs of q. Candidates under the tighter of the two
    bounds are counted in vectorised batches over their joint neighbours,
    and every one whose count could tie or beat the best is re-scored one
    at a time, so the winner, its supporters and their order are the same
    on both paths. `workers` is the thread count of the kd-tree queries
    (-1: every CPU).
    """
    if len(votes) == 0:
        raise NoHypothesisError("no votes to cluster")
    (support, _, _), supporters = _peak_search(votes.translations, votes.rotations,
                                               delta_t_mm, delta_r_rad, workers)
    pose = RigidPose(_mean_rotation(votes.rotations[supporters]),
                     votes.translations[supporters].mean(axis=0))
    hyp = PoseHypothesis(pose=pose, s_kde=support / len(votes), vote_support=support)
    if return_supporters:
        return hyp, supporters
    return hyp


# candidates scored one at a time before a vote set counts as noise-like:
# clean sets end within a handful, so they never build the joint tree
_EXACT_FIRST = 64
_SAMPLE_STRIDE = 16  # noise-like sets: every 16th candidate raises the best first
_BATCH_FIRST = 64    # first vectorised batch of the joint-bound pass; doubles
_SLACK = 1.0 + 1e-6  # keeps the joint bound and batch counts above float rounding


def _peak_search(trans: np.ndarray, rots: np.ndarray, delta_t_mm: float,
                 delta_r_rad: float, workers: int):
    """density_peak's search: the winner's score (support, -sum_dist,
    -index) and its supporters, in the translation tree's order."""
    from scipy.spatial import cKDTree
    from scipy.spatial.transform import Rotation
    v = len(trans)

    # |q_i . q_j| >= cos(delta_r/2) is the same boundary as the geodesic
    # trace test but needs 4 components per vote instead of 9
    q_gate = np.cos(delta_r_rad / 2.0)
    quats_all = Rotation.from_matrix(rots).as_quat().astype(np.float64)
    if quats_all.ndim == 1:
        quats_all = quats_all[None, :]

    tree = cKDTree(trans)
    q_radius = np.sqrt(max(2.0 - 2.0 * q_gate, 0.0))  # |q - q'| for geodesic delta_r
    q_tree = cKDTree(quats_all, leafsize=64, balanced_tree=False)
    bound = q_tree.query_ball_point(quats_all, q_radius, return_length=True,
                                    workers=workers)
    bound = bound + q_tree.query_ball_point(-quats_all, q_radius,
                                            return_length=True, workers=workers)

    def score(c):
        nb = np.asarray(tree.query_ball_point(trans[c], delta_t_mm), dtype=np.int64)
        d = np.linalg.norm(trans[nb] - trans[c], axis=1)
        mask = (d <= delta_t_mm) & (np.abs(quats_all[nb] @ quats_all[c]) >= q_gate)
        return (int(mask.sum()), -float(d[mask].sum()), -int(c)), nb[mask]

    best = (0, -np.inf, -1)  # (support, -sum_dist, -original_index) maximized
    best_supporters = None
    order = np.lexsort((np.arange(v), -bound))
    for c in order[:_EXACT_FIRST]:
        if bound[c] < best[0]:
            break
        s, sup = score(c)
        if s > best:
            best, best_supporters = s, sup
    rest = order[_EXACT_FIRST:]
    rest = rest[bound[rest] >= best[0]]
    if len(rest) == 0:
        return best, best_supporters

    # The joint tree holds each vote once with its quaternion on the w >= 0
    # hemisphere, plus a sign-flipped copy of the votes with w <= q_radius:
    # only those can pass the rotation test through the other sign
    canon = np.where(quats_all[:, 3:] < 0.0, -quats_all, quats_all)
    scaled = np.hstack([trans / delta_t_mm, canon / q_radius])
    flip = np.nonzero(canon[:, 3] <= q_radius * _SLACK)[0]
    flipped = np.hstack([scaled[flip, :3], -scaled[flip, 3:]])
    joint = cKDTree(np.vstack([scaled, flipped]), leafsize=64, balanced_tree=False)
    vote_of = np.concatenate([np.arange(v), flip])
    radius = np.sqrt(2.0) * _SLACK

    def score_batch(cand):
        nonlocal best, best_supporters
        lists = joint.query_ball_point(scaled[cand], radius, workers=workers,
                                       return_sorted=False)
        owner = np.repeat(np.arange(len(cand)), [len(nb) for nb in lists])
        nb = vote_of[np.concatenate(lists).astype(np.int64)]
        d = np.linalg.norm(trans[nb] - trans[cand[owner]], axis=1)
        # both tests loosened, so a count is never below the exact support
        # and an equal count has the same supporters
        dots = np.einsum("ij,ij->i", quats_all[nb], quats_all[cand[owner]])
        near = (d <= delta_t_mm * _SLACK) & (np.abs(dots) >= q_gate - 1e-9)
        counts = np.bincount(owner[near], minlength=len(cand))
        sum_d = np.bincount(owner[near], weights=d[near], minlength=len(cand))
        # summed distances add in another order than score's: only a sum
        # beyond the best's by more than rounding settles a tie unscored
        for i in np.lexsort((cand, sum_d, -counts)):
            if counts[i] < best[0] or (counts[i] == best[0]
                                       and sum_d[i] > -best[1] * _SLACK + 1e-9):
                continue
            s, sup = score(cand[i])
            if s > best:
                best, best_supporters = s, sup

    sample = rest[::_SAMPLE_STRIDE]
    score_batch(sample)
    unscored = np.ones(v, dtype=bool)
    unscored[sample] = False
    rest = rest[(bound[rest] >= best[0]) & unscored[rest]]
    jbound = np.minimum(bound[rest], joint.query_ball_point(
        scaled[rest], radius, return_length=True, workers=workers))
    by_bound = np.lexsort((rest, -jbound))
    rest, jbound = rest[by_bound], jbound[by_bound]

    start, size = 0, _BATCH_FIRST
    while start < len(rest) and jbound[start] >= best[0]:
        cand = rest[start:start + size]
        score_batch(cand[jbound[start:start + size] >= best[0]])
        start += size
        size *= 2
    return best, best_supporters


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

    if len(corr) > params.max_correspondences:
        rng = np.random.default_rng(params.subsample_seed)
        idx = np.sort(rng.choice(len(corr), size=params.max_correspondences, replace=False))
        corr = corr.subset(idx)

    votes = pose_votes(corr, params.n_theta)
    hyp, supporters = density_peak(votes, params.delta_t_mm, params.delta_r_rad,
                                   return_supporters=True, workers=params.workers)

    support_corr = np.unique(votes.source[supporters])
    if len(support_corr) >= 3:
        try:
            hyp.pose = kabsch_align(corr.keypoint_positions[support_corr],
                                    corr.scene_positions[support_corr])
        except DegenerateCorrespondencesError:
            pass
    return hyp
