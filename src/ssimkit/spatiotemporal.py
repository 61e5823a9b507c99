"""Spatio-temporal SSIM over k x k x Kt neighborhoods with rolling sums.

Local statistics extend to a temporal depth of Kt frames. Keeping rolling
per-pixel sums of the last Kt frames (subtract the frame leaving the window,
add the one entering) makes the per-frame cost independent of Kt. A push
updates the five running sums BAND_ROWS rows at a time, so the products of
the entering and leaving frames take band-sized temporaries, as do those of
the buffered frames when float sums are rebuilt against drift. The
running sums go through the same band loop as a frame pair's planes,
:func:`~ssimkit.stats.window_statistics`, under the config's engine, so
their statistics are formed band by band when read, and must be read
before the next push changes the sums. Integer frames keep exact running
sums, which never drift and are never rebuilt, in the accumulator
``stats._accumulator`` gives Kt products of two samples of the frames'
peak (``stats._peak``, read once per push): uint32 while Kt * peak^2 <
2^32 (8- and 10-bit frames at any practical Kt, uint16 for 8-bit frames
at Kt = 1), where the subtract/add recursion wraps and comes back in
range, and int64 beyond (16-bit frames at Kt >= 2). No push or band reads
samples to choose a dtype. Their window sums are exact under
either engine, and SSIM is formed from them in integer algebra bounded by
the buffered frames' peak as pushed (``stats._exact_terms``), for 8- to
16-bit frames at k = 11 up to Kt = 8, so both engines give the same bits. Once a
float frame arrives, or an integer frame whose running sums could pass
int64 (Kt * max|sample|^2 >= 2^63), the sums turn float64 for good and
take the band rows of float64 summed-area tables, as 2-D float planes do:
the sums' dtype is the only record of whether they are exact. With Kt = 1
everything reduces exactly to frame-wise SSIM. Scorers take the window,
engine, constants and multiscale settings from their ``SsimConfig``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

import numpy as np

from .config import MultiscaleSpec, SsimConfig, WindowSpec
from .errors import (
    DimensionMismatch,
    GaussianNotSupported3D,
    ScaleMismatch,
    ValidationError,
    check_integer,
)
from .frames import PlaneLike, ScoreSeries, _freeze, paired_frames, plane_data, plane_scale, validate_frame_pair
from .multiscale import dyadic_downsample  # noqa: F401  (perfbench traces this binding)
from .multiscale import msssim
from .ssim import SsimTermMaps, _statistics, _term_mean, frame_config, term_maps_from_stats
from .ssim import mssim  # noqa: F401  (perfbench traces this binding)
from .stats import LocalStatsMaps, _accumulator, _pair_terms, _peak, _row_bands, window_statistics

#: Float64 rolling sums are rebuilt from the buffered frames this often, band
#: by band within the push, bounding floating-point drift from the
#: subtract/add recursion. Integer sums are exact and never drift, so they
#: are never rebuilt.
REFRESH_INTERVAL = 300


class RollingVolume:
    """Ring buffer of the last Kt frame pairs plus their five running sums.

    Single-owner and sequential: push frames in temporal order, then ask for
    maps. Before Kt frames arrive, statistics cover only the buffered depth.
    The sums are held in the accumulator ``_accumulator`` gives Kt
    products of two samples of the largest peak pushed: uint16, uint32 or
    int64 while they are exact, float64 after. Each buffered pair keeps its
    peak (``_peak``), which gives its products' dtype. The first push fixes
    ``scale``, the signal samples each sample sums, which divides the
    window sums; a frame of another scale raises ScaleMismatch.
    """

    def __init__(self, kt: int):
        check_integer(kt, "temporal window")
        self.kt = kt
        self.scale: Optional[int] = None  # signal samples per sample, fixed by the first push
        self._buffer: deque[tuple[np.ndarray, np.ndarray, float]] = deque()  # I1, I2, the pair's stats._peak
        self._sums: Optional[list[np.ndarray]] = None  # I1, I2, I1^2, I2^2, I1*I2
        self._pushes = 0

    @property
    def depth(self) -> int:
        """Number of frame pairs currently buffered (= min(pushes, Kt))."""
        return len(self._buffer)

    def push(self, ref: PlaneLike, dist: PlaneLike) -> "RollingVolume":
        """Advance the temporal window by one frame pair. A writable array is
        copied read-only first, so that a caller reusing its buffer does not
        change the frames the volume holds and later subtracts."""
        ref, dist = validate_frame_pair(ref, dist)
        a, b = _freeze(plane_data(ref)), _freeze(plane_data(dist))
        if self._buffer and a.shape != self._buffer[0][0].shape:
            raise DimensionMismatch(
                f"frame {a.shape[::-1]} pushed into a {self._buffer[0][0].shape[::-1]} volume"
            )
        if self.scale not in (None, plane_scale(ref)):
            raise ScaleMismatch(f"frame of scale {plane_scale(ref)} pushed into a volume of scale {self.scale}")
        self.scale = plane_scale(ref)
        peak = max(_peak(ref), _peak(dist))
        held = [] if self._sums is None else [self._sums[0].dtype]
        dtype = np.result_type(*held, _accumulator(self.kt * peak**2, ref, dist))
        if self._sums is not None and dtype != self._sums[0].dtype:
            self._sums = [s.astype(dtype) for s in self._sums]
        # The first push and Kt = 1 form the sums from the newest frame alone
        # (no recursion), and float sums are rebuilt every REFRESH_INTERVAL
        # pushes, bounding drift: from the frames buffered after this push,
        # oldest first, as direct_sums() adds them.
        rebuild = self._sums is None or self.kt == 1 or (dtype == np.float64 and (self._pushes + 1) % REFRESH_INTERVAL == 0)
        if self._sums is None:
            self._sums = [np.empty(a.shape, dtype) for _ in range(5)]
        full = len(self._buffer) == self.kt
        entering = (a, b, peak)
        window = [*list(self._buffer)[full:], entering]
        # Band by band, so the products of the entering, leaving and
        # buffered frames take band-sized temporaries, never whole planes.
        for rows, _, _ in _row_bands(a.shape[0]):
            sums = [s[rows] for s in self._sums]
            if rebuild:
                for s in sums:
                    s.fill(0)
            elif full:
                # T(k) = T(k-1) - I(k-Kt) + I(k), per plane; exact sums wrap
                # through their accumulator's modulus and come back in range.
                for s, old in zip(sums, _frame_terms(self._buffer[0], rows)):
                    np.subtract(s, old, out=s, casting="unsafe")
            for frame in window if rebuild else [entering]:
                for s, new in zip(sums, _frame_terms(frame, rows)):
                    np.add(s, new, out=s, casting="unsafe")
        if full:
            self._buffer.popleft()
        self._buffer.append(entering)
        self._pushes += 1
        return self

    def direct_sums(self) -> list[np.ndarray]:
        """Sums recomputed from scratch over the buffered frames (drift oracle)."""
        sums = [np.zeros_like(s) for s in self.temporal_sums()]
        for frame in self._buffer:
            for s, t in zip(sums, _frame_terms(frame, slice(None))):
                np.add(s, t, out=s, casting="unsafe")
        return sums

    def temporal_sums(self) -> list[np.ndarray]:
        """The five rolling sum planes (I1, I2, I1^2, I2^2, I1*I2 over the buffer)."""
        if self._sums is None:
            raise ValidationError("no frames buffered")
        return list(self._sums)

    def local_statistics(self, window: WindowSpec, engine: str = "auto") -> LocalStatsMaps:
        """Spatio-temporal local statistics over k x k x depth neighborhoods,
        formed band by band when read (:func:`~ssimkit.stats.window_statistics`);
        they must be read before the next push."""
        if window.shape != "rect":
            raise GaussianNotSupported3D("3-D statistics support rectangular windows only")
        sums, pushes = self.temporal_sums(), self._pushes
        if sums[0].dtype == np.int64 and all(x.dtype.kind == "u" for a, b, _ in self._buffer for x in (a, b)):
            # Exact sums of unsigned frames are non-negative: as uint64 they
            # take the unsigned box-sum accumulators their peak allows.
            sums = [s.view(np.uint64) for s in sums]

        def terms(rows):
            if self._pushes != pushes:
                raise ValidationError("a volume's statistics must be read before its next push")
            return (s[rows] for s in sums)

        peak = max(p for _, _, p in self._buffer) if sums[0].dtype.kind in "ui" else np.inf  # float sums are not exact
        return window_statistics(terms, sums[0].shape, window, engine, self.depth, self.scale, peak)


def _frame_terms(frame, rows):
    """The five planes (``stats._pair_terms``) of ``rows`` of a buffered
    pair (a, b, peak), products in the accumulator for peak^2."""
    a, b, peak = frame
    return _pair_terms(a[rows], b[rows], _accumulator(peak**2, a, b))


def ssim3d_map(vol: RollingVolume, config: SsimConfig = SsimConfig()) -> SsimTermMaps:
    """SSIM term maps over the volume's current temporal window, with
    ``config.window`` as the spatial window and ``config.engine`` summing
    it."""
    return term_maps_from_stats(vol.local_statistics(config.window, config.engine), config.c1, config.c2)


def ssim3d_series(
    ref_frames: Iterable[PlaneLike],
    dist_frames: Iterable[PlaneLike],
    kt: int,
    config: SsimConfig = SsimConfig(),
) -> ScoreSeries:
    """Frame-by-frame mean 3-D SSIM of two aligned luma streams, each
    pooled as its bands are formed (``mssim`` of :func:`ssim3d_map` bit for
    bit, with no whole map)."""
    vol = RollingVolume(kt)
    scores = []
    for ref, dist in paired_frames(ref_frames, dist_frames):
        frame = frame_config(config, ref, dist)
        scores.append(_term_mean(_statistics(ref, dist, frame, vol), frame, 3))
    return ScoreSeries(np.asarray(scores))


def msssim3d(
    ref_frames: Iterable[PlaneLike],
    dist_frames: Iterable[PlaneLike],
    kt: int,
    config: SsimConfig = SsimConfig(multiscale=MultiscaleSpec.product()),
) -> ScoreSeries:
    """Multiscale 3-D SSIM: :func:`~ssimkit.multiscale.msssim` with one rolling
    volume per spatial scale, so each frame's scales are scored over the last
    Kt frames of that scale."""
    volumes = [RollingVolume(kt) for _ in range(config.multiscale.levels)]
    scores = [msssim(r, d, config, volumes) for r, d in paired_frames(ref_frames, dist_frames)]
    return ScoreSeries(np.asarray(scores))
