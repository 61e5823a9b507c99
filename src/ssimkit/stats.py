"""Windowed local statistics (means, variances, covariance) for image pairs.

Two engines produce identical grids for rectangular windows: a direct one
that slides the window and accumulates weighted sums (any window shape; a
rectangular window is a uniform kernel), and a fast one whose cost per pixel
does not depend on k. Gaussian windows are separable, so outside the direct
engine they take two 1-D passes (:func:`separable_sums`), 2k multiply-adds
per sample instead of k^2. Only fully interior windows are evaluated (valid
region, no padding); the grid is sampled every ``stride`` pixels from anchor
(0, 0).

The fast engine's route depends on the sample type. Integer planes go through
:func:`box_sums`: two separable passes (a row-wise cumulative sum and its
k-apart difference, then a running-row recurrence down the columns) in
wrapping uint32 arithmetic. Modular differences are exact whenever the
largest true window sum fits in 32 bits, e.g. k^2 * peak^2 < 2^32 for the
product planes (k <= 257 at 8 bits, k <= 64 at 10 bits); past that bound the
same passes run in int64. The sums are exact integers either way, so the
grids equal the direct engine's bit for bit. Float planes (converted colour,
pyramid levels, box-downsampled frames) keep float64 summed-area tables with
the four-corner rule, whose rounding the published scores depend on.

One rule picks every exact integer accumulator in the package
(:func:`_exact_sum_dtype`, used by :func:`box_sums` and by the box and
dyadic downsamples): for sums of n samples it is uint32 while n * max < 2^32
for non-negative samples, int64 while n * max|sample| < 2^63, and float64
beyond that and for float planes. Sums in uint32 or int64 are exact, so
results built on them are bit-identical to the same arithmetic on exact
values. A pair of integer planes takes the exact route only when its product
sums fit int64 (k^2 * max|sample|^2 < 2^63); wider pairs are summed in
float64 like float planes, never wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import WindowSpec, default_gaussian_size
from .errors import (
    EngineShapeMismatch,
    NonPositiveSigma,
    ValidationError,
    WindowLargerThanImage,
)
from .frames import PlaneLike, plane_data, validate_frame_pair


def gaussian_kernel(sigma: float, k: int | None = None) -> np.ndarray:
    """Separable Gaussian sampled at integer offsets from center, sum 1.

    Size defaults to 2*ceil(3*sigma) + 1.
    """
    if sigma <= 0:
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    if k is None:
        k = default_gaussian_size(sigma)
    if k < 1:
        raise ValidationError(f"kernel size must be >= 1, got {k}")
    coords = np.arange(k, dtype=np.float64) - (k - 1) / 2.0
    g = np.exp(-(coords * coords) / (2.0 * sigma * sigma))
    kern = np.outer(g, g)
    return kern / kern.sum()


def gaussian_kernel_1d(sigma: float, k: int | None = None) -> np.ndarray:
    """The normalised centre row of :func:`gaussian_kernel`: the 1-D factor
    whose outer product with itself is the window, to rounding."""
    kern = gaussian_kernel(sigma, k)
    row = kern[(kern.shape[0] - 1) // 2]
    return row / row.sum()


def rect_equivalent(sigma: float, mode: str) -> int:
    """Rectangular window size equivalent to a Gaussian of the given sigma.

    ``same-size`` keeps the Gaussian's default size; ``same-variance`` matches
    second moments (half-width ceil(sigma*sqrt(3))); ``same-bandwidth``
    matches the 3 dB bandwidths (half-width ceil(1.602*sigma)). Returns the
    full window size 2K + 1.
    """
    if sigma <= 0:
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    if mode == "same-size":
        return default_gaussian_size(sigma)
    if mode == "same-variance":
        return 2 * math.ceil(sigma * math.sqrt(3.0)) + 1
    if mode == "same-bandwidth":
        return 2 * math.ceil(1.602 * sigma) + 1
    raise ValidationError(f"unknown equivalence mode {mode!r}")


def _sat(values: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero first row/column."""
    h, w = values.shape
    out = np.zeros((h + 1, w + 1), dtype=values.dtype)
    inner = out[1:, 1:]
    np.cumsum(values, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return out


def _grid_window_sums(table: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Window sums for every valid anchor on the stride grid.

    Strided basic slicing keeps the four corner grids as views, so this costs
    three elementwise passes over the output grid.
    """
    h, w = table.shape[0] - 1, table.shape[1] - 1
    top = slice(0, h - k + 1, stride)
    left = slice(0, w - k + 1, stride)
    bottom = slice(k, h + 1, stride)
    right = slice(k, w + 1, stride)
    out = np.add(table[bottom, right], table[top, left])
    return np.subtract(out, np.add(table[bottom, left], table[top, right]), out=out)


def _grid_shape(h: int, w: int, k: int, stride: int) -> tuple[int, int]:
    return (h - k) // stride + 1, (w - k) // stride + 1


def _exact_sum_dtype(plane: np.ndarray, count: int, degree: int = 1) -> type:
    """Accumulator in which sums of ``count`` terms of ``plane`` are exact.

    A term is one sample, or a product of ``degree`` samples. The result is
    uint32 while count * peak^degree < 2^32 for non-negative samples, int64
    while count * peak^degree < 2^63 (peak = max |sample|), and float64 for
    float planes and past both bounds. The dtype's range decides without
    reading the samples when it proves uint32, and for dtypes of 16 bits or
    less; otherwise the plane's min and max decide.
    """
    if plane.dtype.kind not in "ui":
        return np.float64

    def accumulator(lo: int, hi: int) -> type:
        peak = max(hi, -lo) ** degree
        if lo >= 0 and count * peak < 1 << 32:
            return np.uint32
        return np.int64 if count * peak < 1 << 63 else np.float64

    info = np.iinfo(plane.dtype)
    work = accumulator(int(info.min), int(info.max))
    if work is np.uint32 or plane.dtype.itemsize <= 2:
        return work
    lo = 0 if plane.dtype.kind == "u" else int(plane.min())
    return accumulator(lo, int(plane.max()))


def box_sums(plane: np.ndarray, k: int, stride: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Exact k x k window sums of an integer plane on the stride grid.

    A horizontal pass takes each row's cumulative sum and its k-apart
    difference h (at the grid's columns only); a vertical pass runs
    v[i] = v[i-1] - h[i-1] + h[i+k-1] down the rows in place. Both run in
    the accumulator :func:`_exact_sum_dtype` picks for k^2 samples: wrapping
    uint32 while the largest possible window sum fits in 32 bits, int64
    beyond, and float64 (no longer exact) only past int64. The sums are
    written into ``out`` when given (any dtype that holds them, e.g.
    float64), else returned in the working dtype.
    """
    h, w = plane.shape
    gw = _grid_shape(h, w, k, stride)[1]
    work = _exact_sum_dtype(plane, k * k)
    cum = np.empty((h, w + 1), dtype=work)
    cum[:, 0] = 0
    np.cumsum(plane, axis=1, dtype=work, out=cum[:, 1:])
    span = (gw - 1) * stride + 1
    # h[j] sits in row j + 1, so v[i] can overwrite h[i-1], its last use.
    rows = np.empty((h + 1, gw), dtype=work)
    np.subtract(cum[:, k : k + span : stride], cum[:, :span:stride], out=rows[1:])
    del cum
    rows[1 : k + 1].sum(axis=0, dtype=work, out=rows[0])
    views = list(rows)  # one view per row, made once: the loop allocates nothing
    for prev, cur, entering in zip(views, views[1:], views[k + 1 :]):
        np.subtract(prev, cur, out=cur)
        np.add(cur, entering, out=cur)
    sums = rows[: h - k + 1 : stride]
    if out is None:
        return np.ascontiguousarray(sums)
    out[...] = sums
    return out


def _exact_pair(a: np.ndarray, b: np.ndarray, count: int) -> bool:
    """Whether sums of ``count`` terms of each of I1, I2, I1^2, I2^2, I1*I2
    are exact in int64: both planes are integer and |I1*I2| <= max(I1^2, I2^2)."""
    return all(_exact_sum_dtype(x, count, degree=2) is not np.float64 for x in (a, b))


def _pair_terms(a: np.ndarray, b: np.ndarray, integer: bool):
    """The five planes I1, I2, I1^2, I2^2, I1*I2, one at a time.

    Integer products are exact in uint32 up to 16-bit unsigned samples and
    in int64 beyond (the caller checks :func:`_exact_pair`); anything else is
    promoted to float64.
    """
    if integer:
        small = all(x.dtype.kind == "u" and x.dtype.itemsize <= 2 for x in (a, b))
        dtype = np.uint32 if small else np.int64
    else:
        dtype = np.float64
        a, b = a.astype(dtype), b.astype(dtype)
    yield a
    yield b
    for x, y in ((a, a), (b, b), (a, b)):
        yield np.multiply(x, y, dtype=dtype, casting="unsafe")


def _window_sums(planes, k: int, stride: int, integer: bool) -> list[np.ndarray]:
    """Float64 k x k window sums of each plane on the stride grid.

    Integer planes take the exact :func:`box_sums`; float planes keep the
    float64 summed-area tables whose rounding published scores carry.
    """
    if not integer:
        return [_grid_window_sums(_sat(p), k, stride) for p in planes]
    return [box_sums(p, k, stride, np.empty(_grid_shape(*p.shape, k, stride))) for p in planes]


#: Grid rows per band in the folds below and in ssim.term_maps_from_stats: a
#: band's planes and scratch stay in cache between passes, instead of each
#: pass sweeping whole grids.
BAND_ROWS = 64


def _row_bands(gh: int, stride: int, k: int):
    """(grid rows, input rows, strided span) of each band of BAND_ROWS grid
    rows; the input rows are the ones the band's windows read."""
    for top in range(0, gh, BAND_ROWS):
        span = (min(BAND_ROWS, gh - top) - 1) * stride + 1
        yield slice(top, top + BAND_ROWS), slice(top * stride, top * stride + span + k - 1), span


def _sliding_weighted_sums(values: np.ndarray, weights: np.ndarray, stride: int) -> np.ndarray:
    """Direct weighted windowed sums for an arbitrary weight grid: the k^2
    taps are added in row-major order, band by band of grid rows.

    A uniform grid (a rectangular window's ones, or 1/k^2) scales each band
    of the plane once and adds shifted views of it: every product w * x
    rounds as it would per tap, so the sums are the same bit for bit.
    """
    k = weights.shape[0]
    gh, gw = _grid_shape(*values.shape, k, stride)
    cols = (gw - 1) * stride + 1
    out = np.zeros((gh, gw))
    uniform = bool(np.all(weights == weights.flat[0]))
    for rows, src, span in _row_bands(gh, stride, k):
        band = out[rows]
        plane = np.multiply(values[src], weights.flat[0], dtype=np.float64) if uniform else values[src]
        for m in range(k):
            for n in range(k):
                view = plane[m : m + span : stride, n : n + cols : stride]
                band += view if uniform else weights[m, n] * view
    return out


def separable_sums(values: np.ndarray, kern1d: np.ndarray, stride: int = 1) -> np.ndarray:
    """Windowed sums under the separable weights outer(kern1d, kern1d) over
    the last two axes, on the stride grid of valid anchors.

    Band by band of grid rows, a vertical 1-D pass runs on the grid's rows
    only, then a horizontal pass on the grid's columns; each adds its k taps
    in order, from zero. This costs 2k multiply-adds per sample where the
    direct loop costs k^2.
    """
    k = len(kern1d)
    *lead, h, w = values.shape
    gh, gw = _grid_shape(h, w, k, stride)
    cols = (gw - 1) * stride + 1
    out = np.zeros((*lead, gh, gw))
    for rows, src, span in _row_bands(gh, stride, k):
        band, plane = out[..., rows, :], values[..., src, :]
        vertical = np.zeros((*lead, band.shape[-2], w))
        for m, weight in enumerate(kern1d):
            vertical += weight * plane[..., m : m + span : stride, :]
        for n, weight in enumerate(kern1d):
            band += weight * vertical[..., n : n + cols : stride]
    return out


@dataclass(frozen=True)
class LocalStatsMaps:
    """Co-registered grids of mu1, mu2, var1, var2, cov for a frame pair."""

    mu1: np.ndarray
    mu2: np.ndarray
    var1: np.ndarray
    var2: np.ndarray
    cov: np.ndarray
    window_size: int
    stride: int
    source_dims: tuple[int, int]  # (height, width)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.mu1.shape


def stats_from_sums(
    s1: np.ndarray,
    s2: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    p12: np.ndarray,
    area: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Means/variances/covariance from raw window sums over ``area`` samples.

    Variances use E[X^2] - E[X]^2 with negative floating residue clamped to 0.
    The float64 sum grids are consumed: each result is written over its sum.
    """
    mu1 = np.divide(s1, area, out=s1)
    mu2 = np.divide(s2, area, out=s2)
    square = np.multiply(mu1, mu1)
    var1 = np.subtract(np.divide(q1, area, out=q1), square, out=q1)
    np.maximum(var1, 0.0, out=var1)
    np.multiply(mu2, mu2, out=square)
    var2 = np.subtract(np.divide(q2, area, out=q2), square, out=q2)
    np.maximum(var2, 0.0, out=var2)
    np.multiply(mu1, mu2, out=square)
    cov = np.subtract(np.divide(p12, area, out=p12), square, out=p12)
    return mu1, mu2, var1, var2, cov


def local_statistics(
    ref: PlaneLike,
    dist: PlaneLike,
    window: WindowSpec,
    engine: str = "auto",
) -> LocalStatsMaps:
    """Windowed local statistics of a frame pair under a window spec.

    ``engine`` selects the computation route: ``integral`` (rectangular
    windows only), ``naive`` (the direct k^2 loop, any shape), or ``auto``
    (integral for rectangular windows, two separable 1-D passes for
    Gaussian ones). Rectangular routes produce the same grids; the Gaussian
    passes round differently from the direct loop, within 1e-12 relative.
    """
    ref, dist = validate_frame_pair(ref, dist)
    a, b = plane_data(ref), plane_data(dist)
    h, w = a.shape
    k, stride = window.k, window.stride
    if k > h or k > w:
        raise WindowLargerThanImage(f"{k}x{k} window does not fit a {w}x{h} image")
    if engine not in ("auto", "naive", "integral"):
        raise ValidationError(f"unknown engine {engine!r}")
    rect = window.shape == "rect"
    if engine == "integral" and not rect:
        raise EngineShapeMismatch("the integral engine supports rectangular windows only")

    integer = engine != "naive" and rect and _exact_pair(a, b, k * k)
    terms = _pair_terms(a, b, integer)
    area = float(k * k) if rect else 1.0
    if engine == "naive":
        kern = np.ones((k, k)) if rect else gaussian_kernel(window.sigma, k)
        sums = [_sliding_weighted_sums(t, kern, stride) for t in terms]
    elif rect:
        sums = _window_sums(terms, k, stride, integer)
    else:
        kern1d = gaussian_kernel_1d(window.sigma, k)
        sums = [separable_sums(t, kern1d, stride) for t in terms]
    mu1, mu2, var1, var2, cov = stats_from_sums(*sums, area=area)

    return LocalStatsMaps(
        mu1=mu1, mu2=mu2, var1=var1, var2=var2, cov=cov,
        window_size=k, stride=stride, source_dims=(h, w),
    )
