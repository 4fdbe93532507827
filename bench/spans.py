"""Span tracing of `pointpose` layers from outside the package.

A `Tracer` replaces public functions with timing wrappers at every name
they are looked up by: each `pointpose.*` module global that is the
original function object is patched, so `pipeline.icp_refine` (bound by
`from .geometry import icp_refine`) is wrapped along with
`geometry.icp_refine`. `restore()` puts every original back.

Spans live in memory with a parent id. A layer's self time is its span's
duration minus its same-process child spans. Process-pool workers forked
by `cli eval` inherit the patched modules; their spans are appended to a
spool directory after each scene and merged by `collect()`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, attribute, layer name) of every function traced as a span
SPANS = (
    ("voting", "estimate_pose", "voting.estimate_pose"),
    ("voting", "pose_votes", "voting.pose_votes"),
    ("voting", "density_peak", "voting.density_peak"),
    ("network", "forward", "network.forward"),
    ("network", "backward", "network.backward"),
    ("network", "train", "network.train"),
    ("network", "init_weights", "network.init_weights"),
    ("geometry", "icp_refine", "geometry.icp_refine"),
    ("geometry", "voxel_downsample", "geometry.voxel_downsample"),
    ("geometry", "estimate_normals", "geometry.estimate_normals"),
    ("verification", "build_depth_buffer", "verification.build_depth_buffer"),
    ("verification", "remove_occluded", "verification.remove_occluded"),
    ("verification", "verify", "verification.verify"),
    ("dataset", "label_scene", "dataset.label_scene"),
    ("dataset", "build_instance_training_set", "dataset.build_instance_training_set"),
    ("dataset", "write_dataset", "dataset.write"),
    ("dataset", "read_dataset", "dataset.read"),
    ("ply", "read_ply", "ply.read"),
    ("ply", "write_ply", "ply.write"),
    ("modelprep", "load_object_model", "modelprep.load_object_model"),
    ("synth", "make_test_object", "synth.make_test_object"),
    ("synth", "synth_scene", "synth.synth_scene"),
    ("pipeline", "detect", "pipeline.detect"),
    ("pipeline", "oracle_detect", "pipeline.oracle_detect"),
    ("pipeline", "evaluate_scene", "pipeline.evaluate_scene"),
    ("cli", "main", "cli.main"),
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    pid: int = 0
    op: int = -1          # operation index; -1 = set-up
    counts: Dict[str, float] = field(default_factory=dict)


def forward_macs(config, b: int, n: int, want_seg: bool) -> int:
    """Multiply-adds of one `network.forward` call, from the layer widths."""
    enc = (config.input_channels,) + tuple(config.encoder)
    macs = b * n * sum(ci * co for ci, co in zip(enc[:-1], enc[1:]))
    cls = (config.encoder[-1],) + tuple(config.classifier)
    macs += b * sum(ci * co for ci, co in zip(cls[:-1], cls[1:]))
    if want_seg:
        seg = tuple(config.segmenter)
        skip_w, wide_w = config.encoder[1], config.encoder[-1]
        # first segmenter layer: per-point skip part + per-example pooled part
        macs += b * n * skip_w * seg[0] + b * wide_w * seg[0]
        macs += b * n * sum(ci * co for ci, co in zip(seg[:-1], seg[1:]))
    return macs


def backward_macs(config, b: int, n: int) -> int:
    """`network.backward` forms a weight gradient and an input gradient for
    every layer of the full forward, so it costs twice its multiply-adds
    (the forward pass it runs itself is traced as its own span)."""
    return 2 * forward_macs(config, b, n, want_seg=True)


def unique_rows_per_set(x: np.ndarray) -> int:
    """Sum over the batch of the distinct point rows in each point set."""
    b, n, c = x.shape
    words = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32).reshape(b, n, c)
    h = np.zeros((b, n), dtype=np.uint64)
    for j in range(c):
        h = h * np.uint64(0x100000001B3) + words[:, :, j].astype(np.uint64)
    h.sort(axis=1)
    return int(b + (np.diff(h, axis=1) != 0).sum())


class Tracer:
    def __init__(self, spool_dir: Optional[Path] = None):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patched: list = []   # (owner, attribute, original)
        self._next_id = 0
        self.op = -1
        self.main_pid = self.pid = os.getpid()
        self.spool_dir = spool_dir

    # -- span bookkeeping -------------------------------------------------

    def begin(self, name: str) -> Span:
        if os.getpid() != self.pid:   # forked worker: start a fresh record
            self.pid = os.getpid()
            self.spans, self._stack = [], []
        span = Span(id=self._next_id, name=name, start=time.perf_counter(),
                    parent=self._stack[-1].id if self._stack else None,
                    pid=self.pid, op=self.op)
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, on_call=None, on_result=None,
             on_error=None) -> Callable:
        """Span-timed `fn`. `on_call(span, args, kwargs)` may return new
        (args, kwargs); `on_result(span, result, args, kwargs)` records
        counts after the span ends; `on_error(span, exc)` sees exceptions."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            if on_call is not None:
                args, kwargs = on_call(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end(span)
                if on_error is not None:
                    on_error(span, exc)
                raise
            tracer.end(span)
            if on_result is not None:
                on_result(span, result, args, kwargs)
            if tracer.spool_dir is not None and os.getpid() != tracer.main_pid \
                    and not tracer._stack:
                tracer.spool()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Replace `original` at every `pointpose.*` module global bound to it."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("pointpose") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def patch_method(self, cls, attr: str, replacement: Callable) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- worker spool -----------------------------------------------------

    def spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """Drain this process' spans and every worker span spooled so far."""
        spans, self.spans = self.spans, []
        if self.spool_dir is not None:
            for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
                with open(path) as f:
                    spans.extend(Span(**json.loads(line)) for line in f)
                path.unlink()
        return spans


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; counts ride on the spans."""
    from pointpose import (cli, dataset, geometry, modelprep, network,  # noqa: F401
                           pipeline, ply, synth, verification, voting)
    from pointpose.errors import NoHypothesisError

    modules = {"voting": voting, "network": network, "geometry": geometry,
               "verification": verification, "dataset": dataset, "ply": ply,
               "modelprep": modelprep, "synth": synth, "pipeline": pipeline,
               "cli": cli}
    hooks = {}

    def estimate_call(span, args, kwargs):
        span.counts["correspondences"] = len(args[0])
        return args, kwargs

    def estimate_error(span, exc):
        if isinstance(exc, NoHypothesisError):
            span.counts["no_hypothesis"] = 1

    hooks["voting.estimate_pose"] = dict(on_call=estimate_call, on_error=estimate_error)
    hooks["voting.pose_votes"] = dict(
        on_result=lambda span, r, a, k: span.counts.__setitem__("votes", len(r)))

    def peak_result(span, r, args, kwargs):
        hyp = r[0] if isinstance(r, tuple) else r
        span.counts["support"] = hyp.vote_support

    hooks["voting.density_peak"] = dict(on_result=peak_result)

    def forward_result(span, r, args, kwargs):
        weights, x = args[0], np.asarray(args[1])
        want_seg = kwargs.get("want_seg", args[2] if len(args) > 2 else True)
        b, n = x.shape[:2]
        span.counts["points"] = b * n
        span.counts["gflop"] = 2e-9 * forward_macs(weights.config, b, n, want_seg)
        if not want_seg:   # a classify batch
            # a child span of the caller, so its self time excludes this count
            own = tracer.begin("trace.bookkeeping")
            span.counts["classify_rows"] = b * n
            span.counts["classify_unique_rows"] = unique_rows_per_set(x)
            tracer.end(own)

    hooks["network.forward"] = dict(on_result=forward_result)

    def backward_result(span, r, args, kwargs):
        weights, x = args[0], np.asarray(args[1])
        span.counts["gflop"] = 2e-9 * backward_macs(weights.config, *x.shape[:2])

    hooks["network.backward"] = dict(on_result=backward_result)

    def icp_call(span, args, kwargs):
        # count iterations through icp_refine's own history_out
        hist = args[4] if len(args) > 4 else kwargs.get("history_out")
        if hist is None:
            hist = []
            kwargs = dict(kwargs, history_out=hist)
        span.counts["_history"] = hist
        return args, kwargs

    def icp_done(span, *_):
        span.counts["iters"] = sum(len(level) for level in span.counts.pop("_history"))

    hooks["geometry.icp_refine"] = dict(on_call=icp_call, on_result=icp_done,
                                        on_error=icp_done)
    hooks["dataset.build_instance_training_set"] = dict(
        on_result=lambda span, r, a, k: span.counts.__setitem__("examples", len(r.examples)))
    hooks["dataset.write"] = dict(
        on_result=lambda span, r, a, k: span.counts.__setitem__(
            "bytes", os.path.getsize(a[0] if a else k["path"])))

    for mod_key, attr, name in SPANS:
        original = getattr(modules[mod_key], attr)
        tracer.patch_everywhere(original, tracer.wrap(name, original, **hooks.get(name, {})))

    # NNIndex is shared by class, so its methods are patched once on the class
    nn = geometry.NNIndex
    tracer.patch_method(nn, "__init__", tracer.wrap("geometry.nnindex_build", nn.__init__))
    nearest = nn.nearest_batch

    def counted_nearest(self, queries):
        if tracer._stack:
            counts = tracer._stack[-1].counts
            counts["nearest_batch_calls"] = counts.get("nearest_batch_calls", 0) + 1
        return nearest(self, queries)

    tracer.patch_method(nn, "nearest_batch", counted_nearest)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of same-process child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[(s.pid, s.parent)].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        last = s.start
        for c in sorted(children[(s.pid, s.id)], key=lambda c: c.start):
            lo, hi = max(c.start, last), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                last = hi
        out[(s.pid, s.id)] = (s.end - s.start) - covered
    return out


def layer_totals(spans: List[Span]) -> Dict[str, float]:
    """Per layer: self time (`_s`), inclusive time (`_wall_s`), calls
    (`_calls`), and every count as `layer.count`."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name + "_s"] += own[(s.pid, s.id)]
        totals[s.name + "_wall_s"] += s.end - s.start
        totals[s.name + "_calls"] += 1
        for key, value in s.counts.items():
            if not key.startswith("_"):
                totals[f"{s.name}.{key}"] += value
    return dict(totals)
