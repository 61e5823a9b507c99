"""Spatio-temporal SSIM over k x k x Kt neighborhoods with rolling sums.

Local statistics extend to a temporal depth of Kt frames. Keeping rolling
per-pixel sums of the last Kt frames (subtract the frame leaving the window,
add the one entering) makes the per-frame cost independent of Kt. The
running sums go through the same :func:`~ssimkit.stats.window_statistics`
as a frame pair's planes, so spatial sums take the same routes. Integer
frames keep int64 running sums, which never drift, and their spatial window
sums come from the exact separable :func:`~ssimkit.stats.box_sums` (wrapping
uint32 while k^2 times the largest running sum fits in 32 bits, int64
beyond). Once a float frame arrives, or an integer frame whose running sums
could pass int64 (Kt * max|sample|^2 >= 2^63), the sums turn float64 for
good, and spatial sums come from float64 summed-area tables, as for 2-D
float planes: the sums' dtype is the only record of whether they are exact.
With Kt = 1 everything reduces exactly to frame-wise SSIM. Scorers take the
window, constants and multiscale settings from their ``SsimConfig``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

import numpy as np

from .config import MultiscaleSpec, SsimConfig, WindowSpec
from .errors import (
    DimensionMismatch,
    GaussianNotSupported3D,
    ValidationError,
)
from .frames import PlaneLike, ScoreSeries, paired_frames, plane_data, validate_frame_pair
from .multiscale import dyadic_downsample, msssim  # noqa: F401  (perfbench traces dyadic_downsample here)
from .ssim import SsimTermMaps, frame_config, mssim, term_maps_from_stats
from .stats import LocalStatsMaps, _exact_pair, _pair_terms, window_statistics

#: Rolling sums are rebuilt from the buffered frames this often, bounding
#: floating-point drift from the subtract/add recursion.
REFRESH_INTERVAL = 300


class RollingVolume:
    """Ring buffer of the last Kt frame pairs plus their five running sums.

    Single-owner and sequential: push frames in temporal order, then ask for
    maps. Before Kt frames arrive, statistics cover only the buffered depth.
    The sums are int64 while every pushed frame is integer and small enough
    for them to stay exact, float64 after.
    """

    def __init__(self, kt: int):
        if not isinstance(kt, int) or kt < 1:
            raise ValidationError(f"temporal window must be an integer >= 1, got {kt!r}")
        self.kt = kt
        self._buffer: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._sums: Optional[list[np.ndarray]] = None  # I1, I2, I1^2, I2^2, I1*I2
        self._pushes = 0

    @property
    def depth(self) -> int:
        """Number of frame pairs currently buffered (= min(pushes, Kt))."""
        return len(self._buffer)

    @property
    def buffer_planes(self) -> tuple[int, int]:
        """(buffered frame pairs, running sum planes) for memory accounting."""
        return len(self._buffer), 0 if self._sums is None else len(self._sums)

    def push(self, ref: PlaneLike, dist: PlaneLike) -> "RollingVolume":
        """Advance the temporal window by one frame pair."""
        ref, dist = validate_frame_pair(ref, dist)
        a, b = plane_data(ref), plane_data(dist)
        if self._buffer and a.shape != self._buffer[0][0].shape:
            raise DimensionMismatch(
                f"frame {a.shape[::-1]} pushed into a {self._buffer[0][0].shape[::-1]} volume"
            )
        exact = (self._sums is None or self._sums[0].dtype == np.int64) and _exact_pair(a, b, self.kt)
        if self._sums is not None and not exact:
            self._sums = [s.astype(np.float64, copy=False) for s in self._sums]
        terms = _pair_terms(a, b, exact)
        if self._sums is None or self.kt == 1:
            # Kt = 1 degenerates to the newest frame exactly; no recursion.
            self._sums = [np.array(t, dtype=np.int64 if exact else np.float64) for t in terms]
        elif len(self._buffer) == self.kt:
            # T(k) = T(k-1) - I(k-Kt) + I(k), per plane.
            for s, new, old in zip(self._sums, terms, _pair_terms(*self._buffer[0], exact)):
                s -= old
                s += new
        else:
            for s, new in zip(self._sums, terms):
                s += new
        if len(self._buffer) == self.kt:
            self._buffer.popleft()
        self._buffer.append((a, b))
        self._pushes += 1
        if self._pushes % REFRESH_INTERVAL == 0:
            self._sums = self.direct_sums()
        return self

    def direct_sums(self) -> list[np.ndarray]:
        """Sums recomputed from scratch over the buffered frames (drift oracle)."""
        sums = [np.zeros_like(s) for s in self.temporal_sums()]
        for a, b in self._buffer:
            for s, t in zip(sums, _pair_terms(a, b, sums[0].dtype == np.int64)):
                s += t
        return sums

    def temporal_sums(self) -> list[np.ndarray]:
        """The five rolling sum planes (I1, I2, I1^2, I2^2, I1*I2 over the buffer)."""
        if self._sums is None:
            raise ValidationError("no frames buffered")
        return list(self._sums)

    def local_statistics(self, window: WindowSpec) -> LocalStatsMaps:
        """Spatio-temporal local statistics over k x k x depth neighborhoods."""
        if window.shape != "rect":
            raise GaussianNotSupported3D("3-D statistics support rectangular windows only")
        sums = self.temporal_sums()
        return window_statistics(sums, sums[0].shape, window, depth=self.depth)


def ssim3d_map(vol: RollingVolume, config: SsimConfig = SsimConfig()) -> SsimTermMaps:
    """SSIM term maps over the volume's current temporal window, with
    ``config.window`` as the spatial window."""
    stats = vol.local_statistics(config.window)
    return term_maps_from_stats(stats, config.c1, config.c2)


def ssim3d_series(
    ref_frames: Iterable[PlaneLike],
    dist_frames: Iterable[PlaneLike],
    kt: int,
    config: SsimConfig = SsimConfig(),
) -> ScoreSeries:
    """Frame-by-frame mean 3-D SSIM of two aligned luma streams."""
    vol = RollingVolume(kt)
    scores = []
    for ref, dist in paired_frames(ref_frames, dist_frames):
        vol.push(ref, dist)
        scores.append(mssim(ssim3d_map(vol, frame_config(config, ref, dist))))
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
