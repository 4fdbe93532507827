"""End-to-end inference and evaluation.

One stage chain runs on every scene: normals, anchor spheres and their
keypoint segmentation, then per segmented anchor correspondence voting,
coarse-to-fine ICP and multi-modal verification; the hypothesis minimizing
the localization loss wins. Only the segmentation source differs between
the two entry points. detect() takes anchors from a voxel grid, classifies
their 2048-point spheres for object presence and segments the 16 best with
the network. oracle_detect() labels spheres around random foreground points
from the ground-truth pose, to exercise the later stages in isolation.
Both fail the same way: a scene where no anchor sphere holds
`min_sphere_points` points, a scene of no points among them, segments no
anchor, and its DetectionResult is `failed` like one whose anchors all
vote in vain; neither raises.

detect() streams its spheres through the network: each is drawn inside
an encoder block loop from its own RNG stream, its block's features are
gathered at once, and the encoder runs over each sphere's distinct points
only (see _network_segmentation). Either source hands the later stages
each segmented anchor's scene ids and its points' labels and confidences,
not (n, K+1) probability arrays.

Two stages run on the thread budget `DetectParams.threads` (0: every CPU
this process may use): detect's anchor classification, whose spheres are
independent, and every segmented anchor's vote, ICP and verify stages.
Each is the calling thread plus a thread pool draining one work list
(_drain), with the same results at every budget, and each participant
holds a small, fixed working set: one encoder block and its buffers, or
one anchor's votes. Classification runs OpenBLAS on one thread per
participant. While a stage function is wrapped, as by a span tracer,
both run on the calling thread alone.

evaluate(), the one evaluation loop and the one behind `cli eval`, splits
the budget over a pool of forked processes, one scene at a time; each
worker reads its own scenes.
"""

from __future__ import annotations

import csv
import ctypes
import io
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dataset import SphereParams, draw_sphere, label_scene
from .errors import (MissingChannelError, NoHypothesisError, NonFiniteSceneError,
                     NoOverlapError, WeightsFormatError)
from .geometry import (NNIndex, check_icp_schedule, estimate_normals, icp_refine,
                       voxel_downsample)
from .modelprep import ObjectModel, snapped_voxel_ids
from .network import (BufferPool, Weights, classify, encode, encoder_block, forward,
                      softmax, write_features)
from .pointcloud import PointCloud, check_finite
from .pose import RigidPose
from .verification import (VerificationParams, build_depth_buffer,
                           remove_occluded, verify)
from .voting import (PoseHypothesis, VotingParams, correspondences_from_segmentation,
                     estimate_pose, pose_votes, segment_labels, subsample_correspondences)

STAGES = ("normals", "anchors", "classify", "segment", "vote", "icp", "verify")
THRESHOLD_FACTOR = 0.1  # success: ADD below this x the model diameter


@dataclass
class IcpParams:
    """The `icp` section: `icp_refine`'s [gate mm, iterations] levels, run
    on the model points snapped to a model_leaf_mm grid."""

    schedule: List[List[float]] = field(default_factory=lambda: [[50.0, 30], [25.0, 30],
                                                                 [10.0, 30]])
    model_leaf_mm: float = 5.0

    def __post_init__(self):
        check_icp_schedule(self.schedule)
        if not self.model_leaf_mm > 0:  # written so that NaN fails too
            raise ValueError("model_leaf_mm must be positive")


@dataclass
class DetectParams:
    """The `detect` section. The other fields are the run's `examples`,
    `icp`, `voting` and `verification` sections, its seed and its thread
    budget (0: every CPU this process may use)."""

    anchor_leaf_mm: float = 25.0
    top_anchors: int = 16
    min_sphere_points: int = 64
    normal_radius_mm: float = 10.0
    oracle_anchors: int = 1
    spheres: SphereParams = field(default_factory=SphereParams, metadata={"config": False})
    icp: IcpParams = field(default_factory=IcpParams, metadata={"config": False})
    voting: VotingParams = field(default_factory=VotingParams, metadata={"config": False})
    verification: VerificationParams = field(default_factory=VerificationParams,
                                             metadata={"config": False})
    seed: int = field(default=0, metadata={"config": False})
    threads: int = field(default=0, metadata={"config": False})

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("anchor_leaf_mm", "top_anchors", "min_sphere_points",
                     "normal_radius_mm", "oracle_anchors"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class DetectionResult:
    """Hypotheses ranked by localization loss, and where the time went.

    `timings_ms` holds milliseconds per name in STAGES. The anchors,
    classify, vote, icp and verify entries sum over the participants of
    their stage; when a stage runs on more than one thread these sums
    overlap, and can exceed the wall time.
    """

    ranked: List[PoseHypothesis]
    timings_ms: dict
    anchors_total: int = 0
    anchors_skipped: int = 0
    anchors_segmented: int = 0

    @property
    def best(self) -> Optional[PoseHypothesis]:
        return self.ranked[0] if self.ranked else None

    @property
    def failed(self) -> bool:
        return not self.ranked


class _StageClock:
    def __init__(self):
        self.timings = {s: 0.0 for s in STAGES}
        self._t = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self.timings[stage] += (now - self._t) * 1000.0
        self._t = now

    def merge(self, laps: List[dict], stages: Tuple[str, ...]):
        """Add the `stages` of every participant's timings in `laps`, and
        start the next lap now: the participants' sums hold the time since."""
        for timings in laps:
            for stage in stages:
                self.timings[stage] += timings[stage]
        self._t = time.perf_counter()


def ensure_channels(scene: PointCloud, normal_radius_mm: float) -> PointCloud:
    """The scene with the normal and curvature channels the network reads:
    PCA normals and curvatures from `normal_radius_mm` neighbourhoods when
    it has no normals, zero curvatures when it has normals alone. `detect`
    and `prepare` both check and complete a scene by this rule.

    Raises NonFiniteSceneError (see `pointcloud.check_finite`) when a
    channel the scene holds has a NaN or infinite value.
    """
    check_finite(scene, NonFiniteSceneError, "scene points")
    if scene.normals is None:
        scene = estimate_normals(scene, normal_radius_mm, scene.view_origin)
    if scene.curvatures is None:
        scene = replace(scene, curvatures=np.zeros(len(scene)))
    return scene


def _sphere_features(scene: PointCloud, ids: np.ndarray, weights: Weights,
                     out: np.ndarray) -> np.ndarray:
    """The network inputs of the spheres of scene ids (B, n) into `out`
    (B, n, C), centered as in training. One gather per channel serves the
    block; the batched mean adds in the order of each sphere's own
    `pos.mean(axis=0)`."""
    pos = scene.positions[ids]
    pos -= pos.mean(axis=1, keepdims=True)
    write_features(out.reshape(-1, out.shape[2]), pos.reshape(-1, 3),
                   scene.normals[ids].reshape(-1, 3), scene.curvatures[ids].reshape(-1),
                   scene.colors[ids].reshape(-1, 3) if out.shape[2] == 10 else None,
                   weights.input_scale_mm)
    return out


def _finish_anchor(scene: PointCloud, scene_index: NNIndex, model: ObjectModel,
                   ids: np.ndarray, labels: np.ndarray, confidences: np.ndarray,
                   icp_model: np.ndarray, params: DetectParams, depth_buffer,
                   clock: _StageClock) -> Optional[PoseHypothesis]:
    """Stages E-F for one anchor: vote, refine, verify."""
    corr = correspondences_from_segmentation(
        scene.positions[ids], scene.normals[ids], labels, confidences, model,
        params.voting.min_confidence)
    try:
        hyp = estimate_pose(corr, params.voting)
    except NoHypothesisError:
        clock.lap("vote")
        return None
    clock.lap("vote")

    # ICP on the model points predicted visible under the voted pose: the
    # hidden back surface would otherwise pair with foreground geometry and
    # drag the refinement
    icp_points = icp_model
    if depth_buffer is not None:
        visible = remove_occluded(hyp.pose.apply(icp_model), scene,
                                  params.verification, depth_buffer)
        if visible.sum() >= 16:
            icp_points = icp_model[visible]
    try:
        refined = icp_refine(icp_points, scene_index, hyp.pose, params.icp.schedule)
        hyp = replace(hyp, pose=refined)
    except NoOverlapError:
        pass  # keep the voted pose
    clock.lap("icp")

    hyp = verify(hyp, model, scene, params.verification,
                 scene_index=scene_index, depth_buffer=depth_buffer)
    clock.lap("verify")
    return hyp


def thread_budget(threads: int) -> int:
    """Threads a run may use: `threads`, or with 0 (any value below 1) the
    CPUs this process may use (all CPUs where the OS cannot say)."""
    if threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stages_wrapped() -> bool:
    """Whether a function that a stage runs on the thread budget is a
    wrapper, marked by the `__wrapped__` that `functools.wraps` sets.
    Instrumenting wrappers, such as span tracers, may keep one call stack
    for every thread."""
    return any(hasattr(fn, "__wrapped__")
               for fn in (encode, estimate_pose, remove_occluded, icp_refine, verify))


def _drain(n_items: int, threads: int, participant) -> List[dict]:
    """The calling thread plus a pool of `threads` - 1 drain one work list.

    Each participant runs `participant(items, clock)`: `items` yields
    indices from the shared list 0..n_items-1, each to one participant, in
    ascending order of taking, and `clock` is the participant's own
    _StageClock. Returns every participant's timings. An exception in a
    participant empties the list, so that the others stop after the item
    they hold, and reaches the caller.
    """
    lock = threading.Lock()
    taken = 0

    def items():
        nonlocal taken
        while True:
            with lock:
                if taken >= n_items:
                    return
                k = taken
                taken += 1
            yield k

    def run() -> dict:
        nonlocal taken
        clock = _StageClock()
        try:
            participant(items(), clock)
        except BaseException:
            with lock:
                taken = n_items  # the other participants stop after their item
            raise
        return clock.timings

    # the calling thread takes items too, instead of waiting on a pool of
    # n, so each of the n threads holds one participant's working set: one
    # submit per anchor to n workers raised detect's bench peak RSS from
    # 161-164 to 181 MB on 2 CPUs. With classify here too and the joint
    # votes in chunks, the anchor stages add ~5 MB to the RSS that
    # segmentation leaves, where they added ~40 MB.
    if threads == 1:
        return [run()]
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        futures = [pool.submit(run) for _ in range(threads - 1)]
        return [run()] + [f.result() for f in futures]


def _stage_threads(params: DetectParams, n_items: int) -> int:
    """Participants of a stage over n_items: min(budget, n_items), or the
    calling thread alone while a stage function is wrapped, since a
    wrapper need not be thread-safe."""
    if _stages_wrapped():
        return 1
    return max(1, min(thread_budget(params.threads), n_items))


def _finish_anchors(scene: PointCloud, scene_index: NNIndex, model: ObjectModel,
                    seg: "_Segmentation", icp_model: np.ndarray, params: DetectParams,
                    depth_buffer, clock: _StageClock) -> List[Optional[PoseHypothesis]]:
    """`_finish_anchor` for every segmented anchor, on the thread budget.

    The budget is `params.threads` (0: every CPU this process may use);
    `_drain` hands the anchors to its participants (_stage_threads).
    Anchors are independent (each vote subsample draws from its own RNG;
    the index, depth buffer and model are only read), and each result is
    stored at its anchor's index, so the results are the same at every
    budget. The vote, icp and verify laps of every participant are summed
    into `clock`.
    """
    n_anchors = len(seg.sphere_ids)
    results: List[Optional[PoseHypothesis]] = [None] * n_anchors

    def finish(items, own: _StageClock) -> None:
        for k in items:
            results[k] = _finish_anchor(scene, scene_index, model, seg.sphere_ids[k],
                                        seg.labels[k], seg.confidences[k], icp_model,
                                        params, depth_buffer, own)

    clock.merge(_drain(n_anchors, _stage_threads(params, n_anchors), finish),
                ("vote", "icp", "verify"))
    return results


def _write_debug_stages(debug_dir, scene: PointCloud, model: ObjectModel,
                        seg: _Segmentation, k: int, params: DetectParams,
                        result: DetectionResult) -> None:
    """Per-stage artifacts A-F mirroring the inference chain: every anchor
    (A), the anchors with a sphere coloured by class score (B), every
    segmented sphere (C), then segmented anchor k's points coloured by
    label (D) and its vote translations (E), and the ranked hypotheses
    with the timings (F). k is the anchor of the first ranked hypothesis,
    or the first segmented anchor when none gave one."""
    from .ply import write_ply
    from .pose import pose_to_dict
    import json as _json

    debug_dir = Path(debug_dir)
    debug_dir.mkdir(parents=True, exist_ok=True)
    write_ply(debug_dir / "A_anchors.ply", PointCloud(positions=seg.anchors))

    scored_pos, scored_probs = seg.scored
    heat = np.zeros((len(scored_pos), 3))
    heat[:, 0] = scored_probs
    heat[:, 2] = 1.0 - scored_probs
    write_ply(debug_dir / "B_scores.ply",
              PointCloud(positions=scored_pos, colors=heat))

    write_ply(debug_dir / "C_top_spheres.ply",
              PointCloud(positions=scene.positions[np.concatenate(seg.sphere_ids)]))

    # deterministic distinct-ish colours for labels 0..K, 0 = black
    label = np.arange(model.k + 1)
    palette = np.stack([label * 37 % 97 / 96.0, label * 59 % 83 / 82.0,
                        label * 17 % 71 / 70.0], axis=1)
    ids = seg.sphere_ids[k]
    write_ply(debug_dir / "D_segmentation.ply",
              PointCloud(positions=scene.positions[ids], colors=palette[seg.labels[k]]))

    corr = correspondences_from_segmentation(
        scene.positions[ids], scene.normals[ids], seg.labels[k], seg.confidences[k], model,
        params.voting.min_confidence)
    votes = pose_votes(subsample_correspondences(corr, params.voting), params.voting.n_theta)
    write_ply(debug_dir / "E_votes.ply", PointCloud(positions=votes.translations))

    payload = {"timings_ms": result.timings_ms,
               "anchors_total": result.anchors_total,
               "anchors_segmented": result.anchors_segmented,
               "hypotheses": []}
    for h in result.ranked:
        payload["hypotheses"].append({
            "pose": pose_to_dict(h.pose), "l_loc": h.l_loc, "s_kde": h.s_kde,
            "l_geometric": h.l_geometric, "l_color": h.l_color,
            "vote_support": h.vote_support, "visible_count": h.visible_count,
        })
    with open(debug_dir / "F_pose.json", "w") as f:
        _json.dump(payload, f, indent=2)


@dataclass
class _Segmentation:
    """What a segmentation source hands the rest of the chain: per segmented
    anchor, its scene ids and each point's label and confidence, which is
    what correspondences_from_segmentation reads."""

    anchors: np.ndarray                  # (anchors_total, 3)
    skipped: int                         # anchors_skipped
    scored: Tuple[np.ndarray, np.ndarray]  # anchors with a sphere, class scores
    sphere_ids: List[np.ndarray]         # scene indices per segmented anchor
    labels: List[np.ndarray]             # (n,) 0 = background, 1..K keypoint
    confidences: List[np.ndarray]        # (n,) the label's probability


def _network_segmentation(weights: Weights, scene: PointCloud, scene_index: NNIndex,
                          model: ObjectModel, params: DetectParams,
                          clock: _StageClock) -> _Segmentation:
    """Voxel-grid anchors, classified spheres, the best ones segmented.

    No (spheres, points, channels) array is held, nor any list of the
    spheres' ids. The anchors are classified on the thread budget in fixed
    blocks of `network.encoder_block(n_points)` consecutive anchor indices:
    each participant of `_drain` (_stage_threads) takes block numbers from
    one shared list, draws each usable anchor's sphere of the block from
    its own `[seed, ai]` stream, builds their features with one gather
    into a reused buffer, and encodes them in one `encode` call with its
    own `BufferPool`. `dataset.draw_sphere` draws a sphere's min(ball,
    n_points) distinct points first and only then repeats them, so
    `encode` runs each sphere's distinct rows alone. Each pooled row goes
    in at its anchor's index, and the pooled features of all spheres then
    go through the classifier head at once. So every sphere meets the same
    products at every budget, and the scores are the same bit for bit;
    they equal one `forward` over every full sphere to float rounding.
    OpenBLAS runs one thread per participant for the stage; where its
    thread count cannot be set, the stage runs on the calling thread.

    The classify buffers are freed before the segment stage. Each top
    sphere is drawn again from its stream and segmented by its own
    `forward`, and its softmax is reduced at once to its points' labels
    and confidences. Ball queries, sampling and feature building count as
    "anchors"; encoder blocks and the head as "classify".
    """
    anchors = voxel_downsample(scene, params.anchor_leaf_mm)
    radius = params.spheres.radius_factor * model.diameter
    n = params.spheres.n_points
    channels = weights.config.input_channels

    def sphere(ai: int):
        """Anchor ai's (ids, distinct count) from its own stream, or None."""
        return draw_sphere(scene_index, anchors[ai], radius, n,
                           np.random.default_rng([params.seed, ai]),
                           min_points=params.min_sphere_points)

    per_block = encoder_block(n)
    pooled = np.empty((len(anchors), weights.config.encoder[-1]), dtype=weights.dtype)
    has_sphere = np.zeros(len(anchors), dtype=bool)

    def classify_spheres(items, own: _StageClock) -> None:
        block_ids = np.empty((per_block, n), dtype=np.intp)
        counts = np.empty(per_block, dtype=np.intp)
        feats = np.empty((per_block, n, channels), dtype=np.float32)
        pool = BufferPool()
        for block in items:
            block_anchors = []
            for ai in range(block * per_block, min(len(anchors), (block + 1) * per_block)):
                drawn = sphere(ai)
                if drawn is not None:
                    block_ids[len(block_anchors)], counts[len(block_anchors)] = drawn
                    block_anchors.append(ai)
            m = len(block_anchors)
            if not m:
                continue
            has_sphere[block_anchors] = True
            _sphere_features(scene, block_ids[:m], weights, feats[:m])
            own.lap("anchors")
            pooled[block_anchors] = encode(weights, feats[:m], pool=pool, counts=counts[:m])[0]
            own.lap("classify")
        own.lap("anchors")

    clock.lap("anchors")
    blocks = -(-len(anchors) // per_block)
    threads = _stage_threads(params, blocks)
    # one BLAS thread per participant: BLAS threads of their own on these
    # small products would oversubscribe the CPUs
    blas = _numpy_openblas() if threads > 1 else None
    if blas is None:
        laps = _drain(blocks, 1, classify_spheres)
    else:
        blas_threads = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(1)
        try:
            laps = _drain(blocks, threads, classify_spheres)
        finally:
            blas.scipy_openblas_set_num_threads64_(blas_threads)
    clock.merge(laps, ("anchors", "classify"))
    usable = np.flatnonzero(has_sphere)
    if not len(usable):
        return _Segmentation(anchors=anchors, skipped=len(anchors),
                             scored=(anchors[:0], np.empty(0)), sphere_ids=[], labels=[],
                             confidences=[])
    probs = classify(weights, pooled[usable])[1].astype(np.float64)
    del pooled
    clock.lap("classify")

    # 16 highest scores; ties resolve to the lowest anchor index
    top = usable[np.lexsort((usable, -probs))[:params.top_anchors]].tolist()
    sphere_ids = [sphere(ai)[0] for ai in top]
    labels, confidences = [], []
    feats = np.empty((1, n, channels), np.float32)
    pool = BufferPool()
    for ids in sphere_ids:
        _sphere_features(scene, ids[None], weights, feats)
        logits = forward(weights, feats, want_seg=True, pool=pool).seg_logits[0]
        point_labels, conf = segment_labels(softmax(logits.astype(np.float64)))
        labels.append(point_labels)
        confidences.append(conf)
    clock.lap("segment")
    return _Segmentation(anchors=anchors, skipped=len(anchors) - len(usable),
                         scored=(anchors[usable], probs), sphere_ids=sphere_ids,
                         labels=labels, confidences=confidences)


def _oracle_segmentation(gt_pose: RigidPose, scene: PointCloud, scene_index: NNIndex,
                         model: ObjectModel, params: DetectParams,
                         clock: _StageClock) -> _Segmentation:
    """Ground-truth labels of spheres around random foreground points."""
    labels = label_scene(scene, model, gt_pose)
    fg = np.nonzero(labels > 0)[0]
    draws = params.oracle_anchors if len(fg) else 0
    rng = np.random.default_rng([params.seed, 0xFACE])
    radius = params.spheres.radius_factor * model.diameter
    certain = np.ones(params.spheres.n_points)

    anchors, kept, sphere_ids, point_labels = [], [], [], []
    for _ in range(draws):
        anchors.append(scene.positions[fg[rng.integers(len(fg))]])
        drawn = draw_sphere(scene_index, anchors[-1], radius, params.spheres.n_points, rng,
                            labels, params.min_sphere_points)
        if drawn is None:
            continue
        kept.append(anchors[-1])
        sphere_ids.append(drawn[0])
        point_labels.append(np.maximum(labels[drawn[0]], 0))
    clock.lap("segment")
    kept = np.reshape(kept, (-1, 3))
    return _Segmentation(anchors=np.reshape(anchors, (-1, 3)), skipped=draws - len(kept),
                         scored=(kept, np.ones(len(kept))), sphere_ids=sphere_ids,
                         labels=point_labels, confidences=[certain] * len(point_labels))


def _stage_chain(scene: PointCloud, model: ObjectModel, params: DetectParams,
                 segment, debug_dir, rgb_input: bool = False) -> DetectionResult:
    """Every stage but segmentation, which `segment` supplies."""
    if rgb_input and scene.colors is None:
        raise MissingChannelError("weights expect RGB input but the scene has no colors")
    clock = _StageClock()
    scene = ensure_channels(scene, params.normal_radius_mm)
    clock.lap("normals")
    scene_index = NNIndex(scene.positions)
    clock.lap("anchors")

    seg = segment(scene, scene_index, model, params, clock)

    # real surface points, so that a correct pose pairs at (near-)zero
    # distance instead of a centroid-offset floor
    icp_model = model.cloud.positions[snapped_voxel_ids(model.cloud, params.icp.model_leaf_mm)]
    clock.lap("icp")
    depth_buffer = build_depth_buffer(scene, params.verification.splat_px)
    clock.lap("verify")

    per_anchor = _finish_anchors(scene, scene_index, model, seg, icp_model, params,
                                 depth_buffer, clock)
    # the anchors with a hypothesis by localization loss, ties to the lower index
    order = sorted((k for k, hyp in enumerate(per_anchor) if hyp is not None),
                   key=lambda k: (per_anchor[k].l_loc, k))
    result = DetectionResult(ranked=[per_anchor[k] for k in order],
                             timings_ms=clock.timings, anchors_total=len(seg.anchors),
                             anchors_skipped=seg.skipped,
                             anchors_segmented=len(seg.sphere_ids))

    if debug_dir is not None and seg.sphere_ids:
        _write_debug_stages(debug_dir, scene, model, seg, order[0] if order else 0, params,
                            result)
    return result


def detect(scene: PointCloud, model: ObjectModel, weights: Weights,
           params: DetectParams = DetectParams(), debug_dir=None) -> DetectionResult:
    """Full pipeline on one scene; hypotheses ranked by localization loss."""
    if weights.config.k != model.k:
        raise WeightsFormatError(f"weights segment {weights.config.k} keypoints, "
                                 f"the model has {model.k}")
    return _stage_chain(scene, model, params, partial(_network_segmentation, weights),
                        debug_dir, rgb_input=weights.config.input_channels == 10)


def oracle_detect(scene: PointCloud, model: ObjectModel, gt_pose: RigidPose,
                  params: DetectParams = DetectParams(), debug_dir=None) -> DetectionResult:
    """The detect chain with ground-truth segmentation at random foreground anchors.

    Bypasses the network entirely: anchor spheres get their labels from
    the scene labeling at confidence 1, isolating voting + ICP +
    verification. The labeling uses `label_scene`'s fixed bands
    (foreground within 10 mm of the posed model, discard to 20 mm), not a
    run's `labeling` section.
    """
    return _stage_chain(scene, model, params, partial(_oracle_segmentation, gt_pose),
                        debug_dir)


# ---------------------------------------------------------------------------
# metrics


def add_metric(est: RigidPose, gt: RigidPose, model: ObjectModel) -> float:
    """Mean distance between model points under the two poses."""
    if len(model.cloud) == 0:
        raise ValueError("model cloud is empty")
    d = np.linalg.norm(est.apply(model.cloud.positions)
                       - gt.apply(model.cloud.positions), axis=1)
    return float(d.mean())


def adds_metric(est: RigidPose, gt: RigidPose, model: ObjectModel) -> float:
    """Symmetric variant: mean nearest-point distance to the gt-posed cloud."""
    if len(model.cloud) == 0:
        raise ValueError("model cloud is empty")
    gt_index = NNIndex(gt.apply(model.cloud.positions))
    _, d = gt_index.nearest_batch(est.apply(model.cloud.positions))
    return float(d.mean())


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class SceneRecord:
    scene_id: str
    add: float
    adds: float
    l_loc: float
    s_kde: float
    success: bool
    timings_ms: dict


@dataclass
class EvaluationReport:
    records: List[SceneRecord]
    threshold_factor: float
    diameter: float

    @property
    def success_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.success for r in self.records) / len(self.records)

    def to_csv(self, include_timings: bool = True) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        header = ["scene_id", "add_mm", "adds_mm", "l_loc", "s_kde", "success"]
        if include_timings:
            header += [f"{s}_ms" for s in STAGES]
        writer.writerow(header)
        for r in self.records:
            row = [r.scene_id, repr(r.add), repr(r.adds), repr(r.l_loc),
                   repr(r.s_kde), int(r.success)]
            if include_timings:
                row += [f"{r.timings_ms.get(s, 0.0):.3f}" for s in STAGES]
            writer.writerow(row)
        return out.getvalue()

    def summary(self) -> dict:
        """Counts and mean ADD as strict JSON values: `mean_add_mm` averages the
        scenes with a pose (a failed detection has none), None if none has."""
        adds = [r.add for r in self.records if np.isfinite(r.add)]
        return {
            "scenes": len(self.records),
            "successes": int(sum(r.success for r in self.records)),
            "success_fraction": self.success_fraction,
            "threshold_factor": self.threshold_factor,
            "threshold_mm": self.threshold_factor * self.diameter,
            "mean_add_mm": float(np.mean(adds)) if adds else None,
        }


def evaluate_scene(scene: PointCloud, gt: RigidPose, model: ObjectModel,
                   weights: Optional[Weights], params: DetectParams,
                   threshold_factor: float, scene_id: str = "scene",
                   use_oracle: bool = False) -> SceneRecord:
    """One scene's record from `oracle_detect` under `use_oracle`, else from
    `detect` with `weights`, which must then be given."""
    if use_oracle:
        result = oracle_detect(scene, model, gt, params)
    elif weights is None:
        raise ValueError("evaluate_scene needs weights unless use_oracle is set")
    else:
        result = detect(scene, model, weights, params)
    symmetric = model.symmetry.kind != "none"
    if result.failed:
        return SceneRecord(scene_id=scene_id, add=float("inf"), adds=float("inf"),
                           l_loc=float("inf"), s_kde=0.0, success=False,
                           timings_ms=result.timings_ms)
    best = result.best
    a = add_metric(best.pose, gt, model)
    s = adds_metric(best.pose, gt, model)
    err = s if symmetric else a
    return SceneRecord(scene_id=scene_id, add=a, adds=s, l_loc=best.l_loc,
                       s_kde=best.s_kde, success=bool(err < threshold_factor * model.diameter),
                       timings_ms=result.timings_ms)


_worker_run: tuple = ()   # a pool worker's evaluate() arguments, set when it starts


def _numpy_openblas():
    """numpy's bundled OpenBLAS (a wheel's `numpy.libs`) when it exports
    its thread-count setter and getter, else None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_") \
                and hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def _init_worker(run: tuple) -> None:
    """Keep a forked worker's arguments, and run its BLAS on the worker's
    share of the thread budget: otherwise each worker's BLAS would use
    every CPU, and the workers would oversubscribe them."""
    global _worker_run
    _worker_run = run
    blas = _numpy_openblas()
    if blas is not None:
        blas.scipy_openblas_set_num_threads64_(run[3].threads)


def _evaluate_one(i: int, run: tuple = ()) -> SceneRecord:
    """Scene i of `run`, or in a pool worker of the run it was started with."""
    scenes, model, weights, params, threshold_factor, use_oracle = run or _worker_run
    scene_id, cloud, gt = scenes[i]
    # a module global looked up at call time, so a wrapper installed on
    # `pipeline.evaluate_scene` before the pool forks runs in the workers too
    return evaluate_scene(cloud, gt, model, weights, params, threshold_factor,
                          scene_id, use_oracle)


def evaluate(scenes: Sequence[Tuple[str, PointCloud, RigidPose]], model: ObjectModel,
             weights: Optional[Weights], params: DetectParams = DetectParams(),
             threshold_factor: float = THRESHOLD_FACTOR,
             use_oracle: bool = False) -> EvaluationReport:
    """Detect on every (id, cloud, gt) scene; success = ADD (ADD-S when the
    model is symmetric) below threshold_factor x diameter.

    The thread budget `params.threads` (0: every CPU this process may use)
    runs min(budget, scenes) processes, with budget // processes threads
    for each scene's anchors; one process is the calling one. Forked
    workers get the arguments once, unpickled, and index `scenes`
    themselves, so a sequence that reads a scene when indexed keeps every
    cloud out of the calling process.
    Records are in scene order and the same at every budget.
    """
    budget = thread_budget(params.threads)
    n = max(1, min(budget, len(scenes)))
    params = replace(params, threads=max(1, budget // n))
    run = (scenes, model, weights, params, threshold_factor, use_oracle)
    if n == 1:
        records = [_evaluate_one(i, run) for i in range(len(scenes))]
    else:
        with ProcessPoolExecutor(n, multiprocessing.get_context("fork"),
                                 initializer=_init_worker, initargs=(run,)) as pool:
            records = list(pool.map(_evaluate_one, range(len(scenes))))
    return EvaluationReport(records=records, threshold_factor=threshold_factor,
                            diameter=model.diameter)
