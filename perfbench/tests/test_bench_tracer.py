"""Self time on a hand-built span tree, and wrappers that leave no trace."""

import numpy as np
import pytest

from tracer import Span, Tracer, _bindings, outermost, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a, as on another thread
        Span("a.child", 2.0, 3.0, parent=1),
        Span("c", 8.0, 12.0, parent=0),  # outlives its parent; clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0])


def test_busy_time_counts_only_the_outermost_span_of_a_name():
    spans = [
        Span("x", 0.0, 4.0),
        Span("y", 1.0, 3.0, parent=0),
        Span("x", 1.5, 2.5, parent=1),
        Span("y", 3.0, 3.5, parent=0),
    ]
    assert outermost(spans) == [True, True, False, True]


def test_every_span_name_is_reported():
    import run

    rows, _ = _bindings()
    assert {name for _, _, name, _ in rows} | {"media.decode"} == set(run.SPANS)


def _bound_objects():
    rows, video_stream = _bindings()
    owners = {id(owner): owner for owner, *_ in rows}
    owners[id(video_stream)] = video_stream
    return {(id(o), k): v for o in owners.values() for k, v in vars(o).items()}


def _tiny_clip(tmp_path, frames=3):
    from ssimkit.frames import LumaPlane
    from ssimkit.media import StreamHeader, write_y4m

    rng = np.random.default_rng(0)
    header = StreamHeader(48, 40, (30, 1), "mono", 8)
    ref = [rng.integers(0, 256, (40, 48)).astype(np.uint8) for _ in range(frames)]
    dist = [np.clip(r.astype(int) + rng.integers(-9, 10, r.shape), 0, 255).astype(np.uint8) for r in ref]
    paths = str(tmp_path / "ref.y4m"), str(tmp_path / "dist.y4m")
    write_y4m(paths[0], [LumaPlane(p) for p in ref], header)
    write_y4m(paths[1], [LumaPlane(p) for p in dist], header)
    return paths


def test_every_wrapper_is_restored(tmp_path):
    from dataclasses import replace

    from ssimkit import pipeline

    before = _bound_objects()
    paths = _tiny_clip(tmp_path)
    tracer = Tracer()
    with tracer.installed():
        plain = pipeline.run_score(*paths, pipeline.PipelineSpec())
        pipeline.run_score(*paths, replace(pipeline.PipelineSpec(), kt=2))
        pipeline.run_score(*paths, replace(pipeline.PipelineSpec(), workers=2))
    after = _bound_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"pipeline.run_score", "media.decode", "stats.local_statistics", "spatiotemporal.push"} <= names
    assert tracer.max_frames_in_flight >= 1
    assert pipeline.run_score(*paths, pipeline.PipelineSpec())["records"] == plain["records"]


def test_wrappers_are_restored_when_the_call_raises(tmp_path):
    from ssimkit import pipeline
    from ssimkit.errors import SsimkitError

    before = _bound_objects()
    with pytest.raises(SsimkitError):
        with Tracer().installed():
            pipeline.run_score(str(tmp_path / "missing.yuv"), str(tmp_path / "missing.yuv"), pipeline.PipelineSpec())
    after = _bound_objects()
    assert all(after[k] is before[k] for k in before)
