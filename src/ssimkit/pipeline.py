"""Batch scoring pipelines: media in, per-frame records and pooled summaries out.

A PipelineSpec resolves a configuration (possibly from a named preset) into a
deterministic scoring run. Reports are reproducible byte-for-byte on the same
inputs; only the timing fields vary between runs.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import color as colormod
from .adaptation import box_downsample, policy_factor
from .config import ColorModelSpec, ScalePolicy, SsimConfig, WindowSpec
from .errors import (
    DegenerateData,
    DimensionMismatch,
    SsimkitError,
    ValidationError,
    check_integer,
)
from .evaluation import (
    CostPerfPoint,
    LabeledDataset,
    Logistic5,
    _unit_subjective,
    correlations,
    eval_5pl,
    fit_5pl,
    is_rank_preserving,
    load_manifest,
    pareto_front,
)
from .frames import (
    ColorFrame,
    LumaPlane,
    ScoreSeries,
    owned,
    paired_frames as _stream_pairs,
    validate_color_pair,
    validate_frame_pair,
)
from .media import StreamHeader, VideoStream, read_pnm, read_planar_raw, read_y4m
from .multiscale import msssim
from .pooling import band_terms, parse_spatial, parse_temporal, pool_spatial, pool_temporal
from .spatiotemporal import RollingVolume
from .ssim import _band_sums, _statistics, frame_config
from .ssim import mssim, term_maps_from_stats  # noqa: F401  (perfbench traces these bindings)
from .stats import local_statistics  # noqa: F401  (perfbench traces this binding)

FrameType = Union[LumaPlane, ColorFrame]


class FrameScore(NamedTuple):
    """A frame pair's score, and its q, l and cs map means where they are pooled."""

    score: float
    am: Optional[float]
    l_mean: Optional[float]
    cs_mean: Optional[float]


#: Per-frame record schema, in report column order.
FRAME_FIELDS = ("frame", *FrameScore._fields)

BENCH_FIELDS = (
    "spec", "clips", "pcc", "srocc", "rmse", "fit_monotone",
    "user_seconds", "pareto", "note",
)


@dataclass(frozen=True)
class PipelineSpec:
    """A fully resolved scoring pipeline: config + temporal depth + reporting."""

    config: SsimConfig = field(default_factory=SsimConfig)
    kt: int = 1
    report_format: str = "jsonl"
    workers: int = 1

    def __post_init__(self):
        if self.report_format not in ("jsonl", "csv"):
            raise ValidationError(f"unknown report format {self.report_format!r}")
        check_integer(self.kt, "kt")
        if self.kt > 1 and self.config.color.model != "luma":
            raise ValidationError("spatio-temporal scoring operates on the luminance channel only")
        if self.kt > 1 and self.config.window.shape != "rect":
            raise ValidationError("spatio-temporal scoring needs a rectangular window")
        check_integer(self.workers, "workers")
        if self.kt > 1 and self.workers > 1:
            raise ValidationError("spatio-temporal scoring runs frames in order; it takes one worker")
        if parse_spatial(self.config.spatial_pool).kind != "am" and (
            self.config.multiscale.enabled or self.config.color.model != "luma"
        ):
            raise ValidationError(
                "multiscale and color models pool each map by its mean; spatial_pool must be am"
            )


def _enhanced_config() -> SsimConfig:
    return SsimConfig(
        window=WindowSpec.rectangular(11, stride=5),
        engine="auto",
        scaling=ScalePolicy.enhanced_dh(3.0),
        color=ColorModelSpec.luma(),
        spatial_pool="cov",
        temporal_pool="am",
    )


def preset_specs() -> dict[str, PipelineSpec]:
    """The named presets the CLI exposes."""
    return {
        "default": PipelineSpec(SsimConfig()),
        "enhanced": PipelineSpec(_enhanced_config()),
    }


def expand_preset(name: str) -> PipelineSpec:
    presets = preset_specs()
    if name not in presets:
        raise ValidationError(f"unknown preset {name!r} (have: {', '.join(sorted(presets))})")
    return presets[name]


# ---------------------------------------------------------------------------
# media plumbing
# ---------------------------------------------------------------------------

def open_stream(
    path: Union[str, os.PathLike],
    width: Optional[int] = None,
    height: Optional[int] = None,
    bit_depth: int = 8,
    chroma: str = "420",
) -> VideoStream:
    """Open any supported media file as a video stream (images become 1-frame
    streams). Raw planar input needs width/height from the caller."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".y4m":
        return read_y4m(path)
    if ext in (".pnm", ".pgm", ".ppm"):
        image = read_pnm(path)
        chroma = "mono" if isinstance(image, LumaPlane) else image.subsampling
        header = StreamHeader(image.width, image.height, (1, 1), chroma, image.bit_depth)
        return VideoStream(header, lambda: iter([image]))
    if width is None or height is None:
        raise ValidationError(f"{path}: raw planar input needs explicit --width and --height")
    return read_planar_raw(path, width, height, bit_depth, chroma)


# ---------------------------------------------------------------------------
# per-frame scoring: prepare -> score -> spatial pooling
# ---------------------------------------------------------------------------

def _scale_frame(frame: FrameType, factor: int) -> FrameType:
    if factor == 1:
        return frame
    if isinstance(frame, LumaPlane):
        return box_downsample(frame, factor)
    chans = tuple(owned(box_downsample(c, factor)) for c in frame.channels)
    return ColorFrame(chans, frame.space, frame.subsampling, frame.bit_depth)


def _prepare(
    ref: FrameType, dist: FrameType, config: SsimConfig
) -> tuple[FrameType, FrameType, SsimConfig]:
    """The pair as its scorer takes it: luma (or both colour frames), scaled
    per the scale policy, with constants for the pair's bit depth."""
    if not all(isinstance(frame, (LumaPlane, ColorFrame)) for frame in (ref, dist)):
        raise ValidationError("a frame pair is two LumaPlanes or two ColorFrames")
    if type(ref) is not type(dist):
        raise DimensionMismatch("one stream is luma-only, the other tri-channel")
    (validate_frame_pair if isinstance(ref, LumaPlane) else validate_color_pair)(ref, dist)
    model = config.color.model
    if model == "luma":
        ref, dist = colormod.luma_of(ref), colormod.luma_of(dist)
    elif isinstance(ref, LumaPlane):
        raise ValidationError(f"color model {model!r} needs tri-channel input, stream is luma-only")
    factor = policy_factor(config.scaling, ref.width, ref.height)
    ref, dist = _scale_frame(ref, factor), _scale_frame(dist, factor)
    return ref, dist, frame_config(config, ref, dist)


#: Each colour model's ``colormod`` scorer, by name; looked up per call, so a
#: wrapper installed on the module later is the one that runs.
_COLOR_SCORERS = {
    "cw": "channelwise_cssim",
    "fixed": "fixed_weight_cssim",
    "qssim": "qssim",
    "cmssim": "cmssim",
    "hssim": "hssim",
}


def score_frame_pair(
    ref: FrameType,
    dist: FrameType,
    config: SsimConfig,
    volumes: Optional[Sequence[RollingVolume]] = None,
) -> FrameScore:
    """Score one frame pair under a config.

    ``volumes`` (one rolling volume per pyramid level, so one unless
    multiscale is on) make scoring 3-D; the pair is pushed into them.
    Multiscale and colour scores are map means, so only luma SSIM maps go
    through the spatial pooler. The maps are pooled as their bands are
    formed (``ssim._band_sums``): no l or cs grid is ever whole, and q is
    only for a pooler that needs the whole map (``pooling.band_terms``).
    """
    ref, dist, config = _prepare(ref, dist, config)
    if config.color.model != "luma":
        scorer = getattr(colormod, _COLOR_SCORERS[config.color.model])
        return FrameScore(scorer(ref, dist, config), None, None, None)
    if config.multiscale.enabled:
        return FrameScore(msssim(ref, dist, config, volumes), None, None, None)
    stats = _statistics(ref, dist, config, None if volumes is None else volumes[0])
    pooler = parse_spatial(config.spatial_pool)
    terms, score = band_terms(pooler)
    q = None if score else np.empty(stats.grid_shape)
    sums, n = _band_sums(
        stats, config.c1, config.c2, lambda rows, mu1, l, cs, qb: (l, cs, *terms(qb, mu1)), (None, None, q)
    )
    pooled = score(sums[2:], n) if score else pool_spatial(q, pooler)
    return FrameScore(pooled, sums[2] / n, sums[0] / n, sums[1] / n)


# ---------------------------------------------------------------------------
# whole-run drivers
# ---------------------------------------------------------------------------

def _stopwatch() -> Callable[[], tuple[float, str]]:
    """Start a clock. The returned function gives the seconds since then and
    their source: "user" CPU time of the process, or "wall" time on a
    platform without ``resource``."""
    try:
        import resource
    except ImportError:
        start = time.perf_counter()
        return lambda: (time.perf_counter() - start, "wall")
    start = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    return lambda: (resource.getrusage(resource.RUSAGE_SELF).ru_utime - start, "user")


#: Worker threads by pool size, kept from one run to the next so that each
#: keeps its scratch arena (``stats._scratch``) warm between clips.
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        if workers not in _pools:
            _pools[workers] = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="ssimkit-worker")
        return _pools[workers]


def _score_pairs(
    pairs: Iterator[tuple[FrameType, FrameType]],
    config: SsimConfig,
    workers: int,
    volumes: Optional[Sequence[RollingVolume]] = None,
) -> list[FrameScore]:
    """Score frame pairs in order; errors name the frame they came from.

    Each worker pulls the next pair from ``pairs`` under a lock, prepares
    it (``_prepare``: luma, scaled) and drops the full-resolution frames
    before it scores the prepared pair, whose scale policy is then "none",
    so nothing is scaled twice. At most one decoded pair per worker is
    alive, however long the clip is. One worker runs in the caller's
    thread; more are kept from one call to the next (``_worker_pool``). A
    failure stops every worker at its next pull; the failure of the
    earliest frame is raised.
    """

    def named(i: int, call, *args):
        try:
            return call(*args)
        except SsimkitError as exc:
            raise type(exc)(f"frame {i}: {exc}") from exc

    unscaled = replace(config, scaling=ScalePolicy.none())
    lock, stop, pulled, scores, failures = threading.Lock(), threading.Event(), itertools.count(), {}, []

    def work() -> None:
        i = None
        try:
            while not stop.is_set():
                with lock:
                    i, pair = next(pulled), next(pairs, None)
                if pair is None:
                    return
                pair = named(i, _prepare, *pair, config)[:2]  # drops the decoded frames
                scores[i] = named(i, score_frame_pair, *pair, unscaled, volumes)
        except Exception as exc:
            failures.append((i, exc))
            stop.set()

    try:
        if workers == 1:
            work()
        else:
            for future in [_worker_pool(workers).submit(work) for _ in range(workers)]:
                future.result()
    finally:
        stop.set()  # an interrupted caller leaves no worker scoring the rest of the clip
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [scores[i] for i in range(len(scores))]


def run_score(
    ref_path: Union[str, os.PathLike],
    dist_path: Union[str, os.PathLike],
    spec: PipelineSpec,
    *,
    width: Optional[int] = None,
    height: Optional[int] = None,
    bit_depth: int = 8,
    chroma: str = "420",
) -> dict:
    """Score a reference/distorted pair of media files.

    Returns {"records": [per-frame dicts], "summary": {...}}; the records
    follow FRAME_FIELDS and the summary carries the pooled score and timing.
    """
    ref_stream = open_stream(ref_path, width, height, bit_depth, chroma)
    dist_stream = open_stream(dist_path, width, height, bit_depth, chroma)
    rh, dh = ref_stream.header, dist_stream.header
    if (rh.width, rh.height) != (dh.width, dh.height):
        raise DimensionMismatch(
            f"{ref_path} is {rh.width}x{rh.height}, {dist_path} is {dh.width}x{dh.height}"
        )
    if rh.bit_depth != dh.bit_depth or rh.chroma != dh.chroma:
        raise DimensionMismatch("streams differ in bit depth or chroma subsampling")

    config = spec.config
    elapsed = _stopwatch()

    volumes = None
    if spec.kt > 1:
        levels = config.multiscale.levels if config.multiscale.enabled else 1
        volumes = [RollingVolume(spec.kt) for _ in range(levels)]
    try:
        results = _score_pairs(_stream_pairs(ref_stream, dist_stream), config, spec.workers, volumes)
    except SsimkitError as exc:
        raise type(exc)(f"{ref_path} vs {dist_path}: {exc}") from exc
    if not results:
        raise ValidationError(f"{ref_path} vs {dist_path}: no frames to score")

    seconds, timing_source = elapsed()

    records = [{"frame": i, **r._asdict()} for i, r in enumerate(results)]
    series = ScoreSeries(np.array([r.score for r in results]))
    pooled = pool_temporal(series, parse_temporal(config.temporal_pool))
    summary = {
        "frames": len(results),
        "spatial_pool": config.spatial_pool,
        "temporal_pool": config.temporal_pool,
        "pooled_score": pooled,
        "mean_score": float(series.scores.mean()),
        "user_seconds": seconds,
        "timing_source": timing_source,
    }
    ams = [r.am for r in results if r.am is not None]
    if ams:
        summary["mean_am"] = float(np.mean(ams))
    if parse_spatial(config.spatial_pool).kind == "cov":
        summary["note"] = (
            "cov pooling maps a perfect (constant 1) quality map to 0; "
            "per-frame arithmetic means are reported in the 'am' field"
        )
    return {"records": records, "summary": summary}


class FitReport(NamedTuple):
    """A 5PL fit of subjective on objective scores, and how well it predicts them."""

    fit: Logistic5
    pcc: float
    srocc: float
    rmse: float
    monotone: bool


def fit_and_correlate(objective: Sequence[float], subjective: Sequence[float]) -> FitReport:
    """The 5PL fit; PCC, SROCC and RMSE of its predictions (so a decreasing,
    rank-preserving fit of dissimilarity-style scores gives a positive SROCC);
    and whether it preserves ranks over the objective range."""
    data = LabeledDataset.from_pairs(objective, subjective)
    fit = fit_5pl(data)
    pcc, srocc, rmse = correlations(np.asarray(eval_5pl(fit, data.objective)), data.subjective)
    lo, hi = float(data.objective.min()), float(data.objective.max())
    return FitReport(fit, pcc, srocc, rmse, is_rank_preserving(fit, lo, hi))


def run_benchmark(manifest_path: Union[str, os.PathLike], specs: dict[str, PipelineSpec]) -> list[dict]:
    """Correlate every spec's scores against a labeled manifest.

    Per spec: 5PL-linearized PCC, SROCC, RMSE, total user time, and a Pareto
    flag over (time, SROCC). Degenerate correlations are reported as NaN.
    """
    if not specs:
        raise ValidationError("no pipeline specs to benchmark")
    rows = load_manifest(str(manifest_path))
    subjective, _ = _unit_subjective([row["subjective_score"] for row in rows])
    results = []
    for name, spec in specs.items():
        elapsed = _stopwatch()
        scores = []
        for row_idx, row in enumerate(rows):
            try:
                out = run_score(
                    row["ref_path"],
                    row["dist_path"],
                    spec,
                    width=row.get("width"),
                    height=row.get("height"),
                    bit_depth=row.get("bit_depth", 8),
                    chroma=row.get("chroma", "420"),
                )
            except (SsimkitError, OSError) as exc:
                raise type(exc)(f"manifest row {row_idx + 2}: {exc}") from exc
            scores.append(out["summary"]["pooled_score"])
        seconds, _ = elapsed()
        note = ""
        try:
            _, pcc, srocc, rmse, monotone = fit_and_correlate(scores, subjective)
        except DegenerateData as exc:
            pcc = srocc = rmse = float("nan")
            monotone = False
            note = f"degenerate data: {exc}"
        results.append(
            {
                "spec": name,
                "clips": len(rows),
                "pcc": pcc,
                "srocc": srocc,
                "rmse": rmse,
                "fit_monotone": monotone,
                "user_seconds": seconds,
                "pareto": False,
                "note": note,
            }
        )
    scored = [r for r in results if r["srocc"] == r["srocc"]]
    points = [
        CostPerfPoint(r["spec"], max(r["user_seconds"], 1e-9), r["srocc"]) for r in scored
    ]
    front = {p.label for p in pareto_front(points)}
    for r in results:
        r["pareto"] = r["spec"] in front
    return results
