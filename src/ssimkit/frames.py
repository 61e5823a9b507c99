"""Pixel-data containers shared by every stage of the toolkit.

All containers are immutable after construction (arrays are marked read-only)
and validate their invariants up front, so downstream numerics never have to
re-check shapes or ranges. A LumaPlane may hold sums of ``scale`` signal
samples per sample (box-downsampled luma keeps its exact block sums); a
reference/distorted pair must agree in scale as in size and bit depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import (
    BitDepthMismatch,
    DimensionMismatch,
    EmptyMap,
    LengthMismatch,
    ScaleMismatch,
    ValidationError,
    WrongSpace,
    check_bit_depth,
    check_integer,
)

# Color spaces a ColorFrame may be tagged with.
SPACE_RGB = "rgb"
SPACE_YCBCR = "ycbcr-bt709"
COLOR_SPACES = (SPACE_RGB, SPACE_YCBCR)

CHROMA_444 = "444"
CHROMA_420 = "420"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr)
    return owned(out.copy()) if out.flags.writeable else out


def owned(arr: np.ndarray) -> np.ndarray:
    """``arr``, which its caller has just made, marked read-only, so that
    LumaPlane, ColorFrame and QualityMap keep it without a copy."""
    arr.setflags(write=False)
    return arr


def _samples(values) -> np.ndarray:
    """``values`` as a non-empty 2-D grid of integer or float samples, judged
    by its shape and dtype alone (no sample is read); else ValidationError."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError("samples must form a non-empty 2-D grid")
    if arr.dtype.kind not in "uif":
        raise ValidationError(f"unsupported sample dtype {arr.dtype}")
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr``; ValidationError if it holds float samples that are not all
    finite. Integer samples, decoded frames among them, are not read."""
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValidationError("samples must be finite")
    return arr


@dataclass(frozen=True)
class LumaPlane:
    """Single-channel raster of ``bit_depth``-bit luma.

    Each sample is the sum of ``scale`` signal samples in
    [0, 2**bit_depth - 1], so it lies in [0, scale * (2**bit_depth - 1)],
    a bound that must stay below 2**63.
    Samples read from media keep their integer dtype with scale 1; a
    box-downsampled integer plane keeps its exact block sums, with the
    block's sample count as its scale; other derived planes (pyramid
    levels, luma converted from RGB) carry float64 means with scale 1.
    Statistics read the samples as they are and divide by the scale, so
    they come out in signal units whatever it is.
    """

    samples: np.ndarray
    bit_depth: int = 8
    scale: int = 1

    def __post_init__(self):
        arr = _samples(self.samples)
        check_bit_depth(self.bit_depth)
        check_integer(self.scale, "scale")
        _finite(arr)
        peak = self.scale * ((1 << self.bit_depth) - 1)
        if peak >= 1 << 63:  # past every exact accumulator (stats._accumulator)
            raise ValidationError(f"scale * (2^{self.bit_depth} - 1) must stay below 2^63, got scale {self.scale}")
        fits = arr.dtype.kind != "f" and np.iinfo(arr.dtype).min >= 0 and np.iinfo(arr.dtype).max <= peak
        if not fits:  # the dtype alone does not bound the samples: scan them
            lo, hi = arr.min(), arr.max()
            if lo < 0 or hi > peak:
                raise ValidationError(
                    f"samples outside [0, {peak}] for {self.bit_depth}-bit plane of scale {self.scale}"
                    f" (min {lo}, max {hi})"
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
        """Dynamic range L = 2**bit_depth - 1 of the signal (not of the scaled samples)."""
        return float((1 << self.bit_depth) - 1)

    def as_float(self) -> np.ndarray:
        """The signal values as a float64 copy: the samples divided by the
        scale. The statistics read integer samples as they are."""
        return np.divide(self.samples, self.scale, dtype=np.float64)


PlaneLike = Union[LumaPlane, np.ndarray]


def plane_scale(plane: PlaneLike) -> int:
    """Signal samples summed per sample: a LumaPlane's scale, 1 for a bare array."""
    return plane.scale if isinstance(plane, LumaPlane) else 1


def plane_data(plane: PlaneLike) -> np.ndarray:
    """Raw 2-D sample array behind a plane-like argument (no copy, no promote)."""
    return plane.samples if isinstance(plane, LumaPlane) else _samples(plane)


@dataclass(frozen=True)
class ColorFrame:
    """Tri-channel frame with a color-space tag and chroma subsampling.

    Channels are plane-shaped arrays of integer or finite float samples
    rather than LumaPlane instances: BT.709 chroma may overshoot the nominal
    range by a fraction of a percent at full saturation. Only YCbCr frames
    have chroma to subsample; RGB frames are 4:4:4.
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
        if self.space == SPACE_RGB and self.subsampling != CHROMA_444:
            raise ValidationError(f"an RGB frame is 4:4:4, got {self.subsampling} subsampling")
        check_bit_depth(self.bit_depth)
        chans = tuple(_samples(c) for c in self.channels)
        if len(chans) != 3:
            raise ValidationError("a color frame needs three channels")
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
        object.__setattr__(self, "channels", tuple(_freeze(_finite(c)) for c in chans))

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

    Cell (r, c) covers the window anchored at (r*stride, c*stride) in the
    source image.
    """

    values: np.ndarray
    stride: int = 1
    source_dims: tuple[int, int] = (0, 0)  # (height, width) of the scored image

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("quality map must be a non-empty 2-D grid")
        if not np.isfinite(arr).all():
            raise ValidationError("quality map values must be finite")
        check_integer(self.stride, "stride")
        object.__setattr__(self, "values", _freeze(arr))
        object.__setattr__(self, "source_dims", tuple(int(d) for d in self.source_dims))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def mean(self) -> float:
        return float(self.values.mean())


def _map_values(qmap: Union[QualityMap, np.ndarray]) -> np.ndarray:
    """The values of a QualityMap, or a bare map as float64 (no copy of a
    float64 array): EmptyMap for no values, ValidationError for a value
    that is not finite, as QualityMap rejects one."""
    if isinstance(qmap, QualityMap):
        return qmap.values
    arr = np.asarray(qmap, dtype=np.float64)
    if arr.size == 0:
        raise EmptyMap("empty quality map")
    if not np.isfinite(arr).all():
        raise ValidationError("quality map values must be finite")
    return arr


@dataclass(frozen=True)
class ScoreSeries:
    """Per-frame pooled scores in temporal order."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if not np.isfinite(arr).all():
            raise ValidationError("scores must be finite (no missing entries)")
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
    if plane_scale(ref) != plane_scale(dist):
        raise ScaleMismatch(f"reference sums {plane_scale(ref)} samples per sample, distorted {plane_scale(dist)}")
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
    """The frames of two streams in pairs; LengthMismatch if one ends first.

    No pair is kept once it is handed out, so a caller that drops a pair
    frees its frames (``zip`` and ``enumerate`` each keep their last result
    tuple, which held up to two decoded pairs past their use).
    """
    end = object()
    ref, dist = iter(ref), iter(dist)
    for index in itertools.count():
        pair = next(ref, end), next(dist, end)
        if pair[0] is end and pair[1] is end:
            return
        if pair[0] is end or pair[1] is end:
            raise LengthMismatch(f"streams differ in length (one ended at frame {index})")
        yield pair
        del pair
