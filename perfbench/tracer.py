"""Spans around ssimkit's layer boundaries, installed from outside the package.

A traced run swaps each public function, as it is bound in the module that
calls it, for a wrapper that records a span: name, start, end, parent span
and the id of the benchmark operation it belongs to. ``VideoStream.__iter__``
gets a timing iterator, one ``media.decode`` span per frame. Spans stay in
memory and are written out when the run ends. Everything is restored when
the ``installed()`` context exits, whatever happens inside it.

Peak memory per span comes from ``tracemalloc``: a span resets the traced
peak when it starts and again when it ends, after folding its own peak into
its parent's. With worker threads the spans of both threads share one traced
peak, so ``peak_mib`` is approximate there.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans
    run_id: int = 0
    mem_start: int = 0
    mem_peak: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _stats_counts(args, result) -> dict:
    return {"windows": result.mu1.size, "pixels_in": math.prod(result.source_dims)}


def _volume_counts(args, result) -> dict:
    return {"windows": result.mu1.size}


def _downsample_counts(args, result) -> dict:
    plane = args[0]
    return {"pixels_in": math.prod(getattr(plane, "samples", plane).shape)}


def _bindings():
    """(owner, attribute, span name, counter) for every wrapped binding.

    Wrapping is per binding, not per function: pipeline's ``local_statistics``
    and ssim's are the same function bound twice, and both are wrapped.
    """
    from ssimkit import color, evaluation, media, multiscale, pipeline, spatiotemporal, ssim

    rows = [
        (pipeline, "run_score", "pipeline.run_score", None),
        (pipeline, "run_benchmark", "pipeline.run_benchmark", None),
        (pipeline, "open_stream", "pipeline.open_stream", None),
        (pipeline, "score_frame_pair", "pipeline.score_frame_pair", None),
        (pipeline, "read_y4m", "media.open", None),
        (pipeline, "read_planar_raw", "media.open", None),
        (pipeline, "read_pnm", "media.open", None),
        (pipeline, "box_downsample", "adaptation.box_downsample", _downsample_counts),
        (pipeline, "local_statistics", "stats.local_statistics", _stats_counts),
        (pipeline, "term_maps_from_stats", "ssim.term_maps", None),
        (pipeline, "mssim", "ssim.mssim", None),
        (pipeline, "msssim", "multiscale.msssim", None),
        (pipeline, "pool_spatial", "pooling.spatial", None),
        (pipeline, "pool_temporal", "pooling.temporal", None),
        (pipeline, "load_manifest", "evaluation.load_manifest", None),
        (pipeline, "fit_5pl", "evaluation.fit_5pl", None),
        (pipeline, "eval_5pl", "evaluation.eval_5pl", None),
        (pipeline, "correlations", "evaluation.correlations", None),
        (pipeline, "is_rank_preserving", "evaluation.is_rank_preserving", None),
        (pipeline, "pareto_front", "evaluation.pareto_front", None),
        (ssim, "local_statistics", "stats.local_statistics", _stats_counts),
        (ssim, "term_maps_from_stats", "ssim.term_maps", None),
        (multiscale, "ssim_map", "ssim.ssim_map", None),
        (multiscale, "mssim", "ssim.mssim", None),
        (multiscale, "dyadic_downsample", "multiscale.dyadic_downsample", None),
        (spatiotemporal, "term_maps_from_stats", "ssim.term_maps", None),
        (spatiotemporal, "mssim", "ssim.mssim", None),
        (spatiotemporal, "dyadic_downsample", "multiscale.dyadic_downsample", None),
        (spatiotemporal.RollingVolume, "push", "spatiotemporal.push", None),
        (spatiotemporal.RollingVolume, "local_statistics", "spatiotemporal.local_statistics", _volume_counts),
        (color, "ssim_map", "ssim.ssim_map", None),
        (color, "mssim", "ssim.mssim", None),
        (evaluation, "eval_5pl", "evaluation.eval_5pl", None),
    ]
    for model in ("channelwise_cssim", "fixed_weight_cssim", "qssim", "cmssim", "hssim"):
        rows.append((color, model, "color.model", None))
    for convert in ("rgb_to_ycbcr_bt709", "ycbcr_bt709_to_rgb", "upsample_chroma", "luma_of"):
        rows.append((color, convert, "color.convert", None))
    return rows, media.VideoStream


class Tracer:
    """Collects spans from every thread of one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._decoded = 0
        self._scored = 0
        self.max_frames_in_flight = 0

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            # A worker thread's outermost span belongs to the main thread's
            # innermost call, which handed it the work. A decode span is the
            # consumer pulling a frame, never the one handing out work.
            calls = [i for i in self._main_stack if self.spans[i].name != "media.decode"]
            parent = calls[-1] if calls else None
        mem = 0
        if tracemalloc.is_tracing():
            mem, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                p = self.spans[parent]
                p.mem_peak = max(p.mem_peak, peak)
            tracemalloc.reset_peak()
        span = Span(name, time.perf_counter(), parent=parent, run_id=self.run_id, mem_start=mem, mem_peak=mem)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, counts: Optional[dict] = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if tracemalloc.is_tracing():
            span.mem_peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                p = self.spans[span.parent]
                p.mem_peak = max(p.mem_peak, span.mem_peak)
            tracemalloc.reset_peak()
        if counts:
            span.counts = counts
        if span.name == "media.decode" and counts:
            self._progress(decoded=1)
        elif span.name == "pipeline.score_frame_pair":
            self._progress(scored=1)

    def _progress(self, decoded: int = 0, scored: int = 0) -> None:
        """Frame pairs decoded but not yet scored; ref and dist each decode one frame."""
        with self._lock:
            self._decoded += decoded
            self._scored += scored
            in_flight = self._decoded // 2 - self._scored
            self.max_frames_in_flight = max(self.max_frames_in_flight, in_flight)

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, counter(args, result) if counter and result is not None else None)

        return traced

    def wrap_iter(self, original: Callable) -> Callable:
        tracer = self

        def __iter__(stream) -> Iterator:
            frames = original(stream)
            while True:
                index = tracer.begin("media.decode")
                counts = None
                try:
                    frame = next(frames)
                    planes = getattr(frame, "channels", None) or (frame.samples,)
                    counts = {"frames": 1, "bytes": sum(p.nbytes for p in planes)}
                except StopIteration:
                    return
                finally:
                    tracer.end(index, counts)
                yield frame

        return __iter__

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding and trace memory for the duration of the block, then restore both."""
        rows, video_stream = _bindings()
        saved = []
        try:
            for owner, attr, name, counter in rows:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
            original_iter = video_stream.__dict__["__iter__"]
            saved.append((video_stream, "__iter__", original_iter))
            video_stream.__iter__ = self.wrap_iter(original_iter)
            tracemalloc.start()
            yield self
        finally:
            tracemalloc.stop()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span each."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "run_id": s.run_id, "peak_mib": (s.mem_peak - s.mem_start) / MIB, "counts": s.counts,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children of one span may overlap when they ran on different threads, so
    the covered part is the length of the union of their clipped intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


def outermost(spans: list[Span]) -> list[bool]:
    """True for spans with no ancestor of the same name.

    Inclusive busy time sums only these, so a layer that calls itself
    through another binding is not counted twice.
    """
    flags = []
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p is None)
    return flags
