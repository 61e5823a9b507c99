"""Spatio-temporal SSIM over k x k x Kt neighborhoods with rolling sums.

Local statistics extend to a temporal depth of Kt frames. Keeping rolling
per-pixel sums of the last Kt frames (subtract the frame leaving the window,
add the one entering) makes the per-frame cost independent of Kt. Integer
frames keep int64 running sums, which never drift, and their spatial window
sums come from the exact separable :func:`~ssimkit.stats.box_sums` (wrapping
uint32 while k^2 times the largest running sum fits in 32 bits, int64
beyond). Once a float frame arrives the sums turn float64 and spatial sums
come from float64 summed-area tables, as for 2-D float planes. With Kt = 1
everything reduces exactly to frame-wise SSIM.
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
from .frames import PlaneLike, ScoreSeries, plane_data, validate_frame_pair
from .multiscale import dyadic_downsample, msssim  # noqa: F401  (perfbench traces dyadic_downsample here)
from .ssim import SsimTermMaps, mssim, term_maps_from_stats
from .stats import LocalStatsMaps, _pair_terms, _window_sums, stats_from_sums

#: Rolling sums are rebuilt from the buffered frames this often, bounding
#: floating-point drift from the subtract/add recursion.
REFRESH_INTERVAL = 300


class RollingVolume:
    """Ring buffer of the last Kt frame pairs plus their five running sums.

    Single-owner and sequential: push frames in temporal order, then ask for
    maps. Before Kt frames arrive, statistics cover only the buffered depth.
    The sums are int64 while every pushed frame is integer, float64 after.
    """

    def __init__(self, kt: int, refresh_interval: int = REFRESH_INTERVAL):
        if not isinstance(kt, int) or kt < 1:
            raise ValidationError(f"temporal window must be an integer >= 1, got {kt!r}")
        self.kt = kt
        self.refresh_interval = refresh_interval
        self._buffer: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._sums: Optional[list[np.ndarray]] = None  # I1, I2, I1^2, I2^2, I1*I2
        self._integer = True
        self._pushes = 0
        self._dims: Optional[tuple[int, int]] = None

    @property
    def depth(self) -> int:
        """Number of frame pairs currently buffered (= min(pushes, Kt))."""
        return len(self._buffer)

    @property
    def buffer_planes(self) -> tuple[int, int]:
        """(buffered frame pairs, running sum planes) for memory accounting."""
        return len(self._buffer), 0 if self._sums is None else len(self._sums)

    @property
    def _sum_dtype(self) -> type:
        return np.int64 if self._integer else np.float64

    def push(self, ref: PlaneLike, dist: PlaneLike) -> "RollingVolume":
        """Advance the temporal window by one frame pair."""
        ref, dist = validate_frame_pair(ref, dist)
        a, b = plane_data(ref), plane_data(dist)
        if self._dims is None:
            self._dims = a.shape
        elif a.shape != self._dims:
            raise DimensionMismatch(
                f"frame {a.shape[::-1]} pushed into a {self._dims[::-1]} volume"
            )
        if self._integer and not (a.dtype.kind in "ui" and b.dtype.kind in "ui"):
            self._integer = False
            if self._sums is not None:
                self._sums = [s.astype(np.float64) for s in self._sums]
        terms = _pair_terms(a, b, self._integer)
        if self._sums is None or self.kt == 1:
            # Kt = 1 degenerates to the newest frame exactly; no recursion.
            self._sums = [np.array(t, dtype=self._sum_dtype) for t in terms]
        elif len(self._buffer) == self.kt:
            # T(k) = T(k-1) - I(k-Kt) + I(k), per plane.
            for s, new, old in zip(self._sums, terms, _pair_terms(*self._buffer[0], self._integer)):
                s -= old
                s += new
        else:
            for s, new in zip(self._sums, terms):
                s += new
        if len(self._buffer) == self.kt:
            self._buffer.popleft()
        self._buffer.append((a, b))
        self._pushes += 1
        if self.refresh_interval and self._pushes % self.refresh_interval == 0:
            self._refresh()
        return self

    def _refresh(self) -> None:
        """Recompute the running sums directly from the buffer."""
        self._sums = self.direct_sums()

    def direct_sums(self) -> list[np.ndarray]:
        """Sums recomputed from scratch over the buffered frames (drift oracle)."""
        if not self._buffer:
            raise ValidationError("no frames buffered")
        sums = [np.zeros(self._dims, dtype=self._sum_dtype) for _ in range(5)]
        for a, b in self._buffer:
            for s, t in zip(sums, _pair_terms(a, b, self._integer)):
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
        h, w = self._dims
        k, stride = window.k, window.stride
        if k > h or k > w:
            raise ValidationError(f"{k}x{k} window does not fit a {w}x{h} frame")
        grids = _window_sums(sums, k, stride, self._integer)
        area = float(k * k * self.depth)
        mu1, mu2, var1, var2, cov = stats_from_sums(*grids, area=area)
        return LocalStatsMaps(
            mu1=mu1, mu2=mu2, var1=var1, var2=var2, cov=cov,
            window_size=k, stride=stride, source_dims=(h, w),
        )


def push_frame(vol: RollingVolume, ref: PlaneLike, dist: PlaneLike) -> RollingVolume:
    """Functional alias for :meth:`RollingVolume.push`."""
    return vol.push(ref, dist)


def ssim3d_map(vol: RollingVolume, window: WindowSpec, config: SsimConfig = SsimConfig()) -> SsimTermMaps:
    """SSIM term maps over the volume's current temporal window."""
    stats = vol.local_statistics(window)
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
    for ref, dist in zip(ref_frames, dist_frames):
        vol.push(ref, dist)
        scores.append(mssim(ssim3d_map(vol, config.window, config)))
    return ScoreSeries(np.asarray(scores))


def msssim3d(
    ref_frames: Iterable[PlaneLike],
    dist_frames: Iterable[PlaneLike],
    kt: int,
    spec: MultiscaleSpec | None = None,
    config: SsimConfig = SsimConfig(),
) -> ScoreSeries:
    """Multiscale 3-D SSIM: :func:`~ssimkit.multiscale.msssim` with one rolling
    volume per spatial scale, so each frame's scales are scored over the last
    Kt frames of that scale."""
    spec = MultiscaleSpec.product() if spec is None else spec
    volumes = [RollingVolume(kt) for _ in range(spec.levels)]
    scores = [msssim(r, d, config, spec, volumes) for r, d in zip(ref_frames, dist_frames)]
    return ScoreSeries(np.asarray(scores))
