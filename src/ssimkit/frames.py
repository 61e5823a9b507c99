"""Pixel-data containers shared by every stage of the toolkit.

All containers are immutable after construction (arrays are marked read-only)
and validate their invariants up front, so downstream numerics never have to
re-check shapes or ranges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .errors import (
    BitDepthMismatch,
    DimensionMismatch,
    LengthMismatch,
    ValidationError,
    WrongSpace,
)

# Color spaces a ColorFrame may be tagged with.
SPACE_RGB = "rgb"
SPACE_YCBCR = "ycbcr-bt709"
COLOR_SPACES = (SPACE_RGB, SPACE_YCBCR)

CHROMA_444 = "444"
CHROMA_420 = "420"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LumaPlane:
    """Single-channel raster with samples in [0, 2**bit_depth - 1].

    Samples read from media keep their integer dtype; derived planes
    (downsampled, converted) may carry float64 samples in the same range.
    """

    samples: np.ndarray
    bit_depth: int = 8

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("plane samples must form a non-empty 2-D grid")
        if not isinstance(self.bit_depth, int) or not 8 <= self.bit_depth <= 16:
            raise ValidationError(f"bit depth must be an integer in [8, 16], got {self.bit_depth!r}")
        if arr.dtype.kind not in "uif":
            raise ValidationError(f"unsupported sample dtype {arr.dtype}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValidationError("plane samples must be finite")
        peak = (1 << self.bit_depth) - 1
        fits = arr.dtype.kind != "f" and np.iinfo(arr.dtype).min >= 0 and np.iinfo(arr.dtype).max <= peak
        if not fits:  # the dtype alone does not bound the samples: scan them
            lo, hi = arr.min(), arr.max()
            if lo < 0 or hi > peak:
                raise ValidationError(
                    f"samples outside [0, {peak}] for {self.bit_depth}-bit plane (min {lo}, max {hi})"
                )
        object.__setattr__(self, "samples", _freeze(arr))

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def peak(self) -> float:
        """Dynamic range L = 2**bit_depth - 1."""
        return float((1 << self.bit_depth) - 1)

    def as_float(self) -> np.ndarray:
        """Samples promoted to float64 (the boundary of all statistics)."""
        return np.asarray(self.samples, dtype=np.float64)


PlaneLike = Union[LumaPlane, np.ndarray]


def plane_data(plane: PlaneLike) -> np.ndarray:
    """Raw 2-D sample array behind a plane-like argument (no copy, no promote)."""
    if isinstance(plane, LumaPlane):
        return plane.samples
    arr = np.asarray(plane)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError("expected a non-empty 2-D sample array")
    return arr


@dataclass(frozen=True)
class ColorFrame:
    """Tri-channel frame with a color-space tag and chroma subsampling.

    Channels are plane-shaped arrays rather than LumaPlane instances: BT.709
    chroma may overshoot the nominal range by a fraction of a percent at full
    saturation.
    """

    channels: tuple[np.ndarray, np.ndarray, np.ndarray]
    space: str = SPACE_RGB
    subsampling: str = CHROMA_444
    bit_depth: int = 8

    def __post_init__(self):
        if self.space not in COLOR_SPACES:
            raise ValidationError(f"unknown color space {self.space!r}")
        if self.subsampling not in (CHROMA_444, CHROMA_420):
            raise ValidationError(f"unknown chroma subsampling {self.subsampling!r}")
        if not isinstance(self.bit_depth, int) or not 8 <= self.bit_depth <= 16:
            raise ValidationError(f"bit depth must be an integer in [8, 16], got {self.bit_depth!r}")
        chans = tuple(np.asarray(c) for c in self.channels)
        if len(chans) != 3 or any(c.ndim != 2 or c.size == 0 for c in chans):
            raise ValidationError("a color frame needs three non-empty 2-D channels")
        h, w = chans[0].shape
        if self.subsampling == CHROMA_444:
            want = (h, w)
        else:
            want = (-(-h // 2), -(-w // 2))  # ceil division
        for c in chans[1:]:
            if c.shape != want:
                raise ValidationError(
                    f"chroma plane {c.shape} does not match {want} for {self.subsampling} subsampling"
                )
        object.__setattr__(self, "channels", tuple(_freeze(c) for c in chans))

    @property
    def height(self) -> int:
        return self.channels[0].shape[0]

    @property
    def width(self) -> int:
        return self.channels[0].shape[1]

    @property
    def peak(self) -> float:
        return float((1 << self.bit_depth) - 1)

    def require_space(self, space: str) -> "ColorFrame":
        if self.space != space:
            raise WrongSpace(f"expected a {space} frame, got {self.space}")
        return self


@dataclass(frozen=True)
class QualityMap:
    """Grid of local quality values plus the geometry that produced it.

    ``origin_x``/``origin_y`` give the pixel anchor (top-left sample) of the
    first window; cell (r, c) covers the window anchored at
    (origin_y + r*stride, origin_x + c*stride) in the source image.
    """

    values: np.ndarray
    origin_x: int = 0
    origin_y: int = 0
    stride: int = 1
    source_dims: tuple[int, int] = (0, 0)  # (height, width) of the scored image

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("quality map must be a non-empty 2-D grid")
        if not np.isfinite(arr).all():
            raise ValidationError("quality map values must be finite")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if self.origin_x < 0 or self.origin_y < 0:
            raise ValidationError("map origin must be non-negative")
        object.__setattr__(self, "values", _freeze(arr))
        object.__setattr__(self, "source_dims", tuple(int(d) for d in self.source_dims))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class ScoreSeries:
    """Per-frame pooled scores in temporal order."""

    scores: np.ndarray
    frame_rate: Optional[float] = None

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if not np.isfinite(arr).all():
            raise ValidationError("scores must be finite (no missing entries)")
        if self.frame_rate is not None and self.frame_rate <= 0:
            raise ValidationError("frame rate must be positive")
        object.__setattr__(self, "scores", _freeze(arr))

    def __len__(self) -> int:
        return int(self.scores.size)


def validate_frame_pair(ref: PlaneLike, dist: PlaneLike) -> tuple[PlaneLike, PlaneLike]:
    """Check that a reference/distorted pair is comparable; return it unchanged."""
    a, b = plane_data(ref), plane_data(dist)
    if a.shape != b.shape:
        raise DimensionMismatch(f"reference is {a.shape[::-1]}, distorted is {b.shape[::-1]}")
    if isinstance(ref, LumaPlane) and isinstance(dist, LumaPlane) and ref.bit_depth != dist.bit_depth:
        raise BitDepthMismatch(f"reference is {ref.bit_depth}-bit, distorted is {dist.bit_depth}-bit")
    return ref, dist


def validate_color_pair(ref: ColorFrame, dist: ColorFrame) -> tuple[ColorFrame, ColorFrame]:
    """Pairwise checks for tri-channel frames (dims, depth, space, subsampling)."""
    if (ref.height, ref.width) != (dist.height, dist.width):
        raise DimensionMismatch(
            f"reference is {ref.width}x{ref.height}, distorted is {dist.width}x{dist.height}"
        )
    if ref.bit_depth != dist.bit_depth:
        raise BitDepthMismatch(f"reference is {ref.bit_depth}-bit, distorted is {dist.bit_depth}-bit")
    if ref.space != dist.space:
        raise WrongSpace(f"reference is {ref.space}, distorted is {dist.space}")
    if ref.subsampling != dist.subsampling:
        raise DimensionMismatch(
            f"reference is {ref.subsampling}, distorted is {dist.subsampling} chroma"
        )
    return ref, dist


def paired_frames(ref: Iterable, dist: Iterable) -> Iterator[tuple]:
    """The frames of two streams in pairs; LengthMismatch if one ends first."""
    end = object()
    for index, (a, b) in enumerate(itertools.zip_longest(ref, dist, fillvalue=end)):
        if a is end or b is end:
            raise LengthMismatch(f"streams differ in length (one ended at frame {index})")
        yield a, b
