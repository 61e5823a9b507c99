"""Windowed local statistics (means, variances, covariance) for image pairs.

Two engines produce identical grids for rectangular windows: ``naive``
slides the window and accumulates weighted sums (any window shape; a
rectangular window is a uniform kernel), and ``auto``'s cost per pixel does
not depend on k. Gaussian windows are separable, so under ``auto`` they take
two 1-D passes (:func:`separable_sums`), 2k multiply-adds per sample instead
of k^2. Only fully interior windows are evaluated (valid region, no
padding); the grid is sampled every ``stride`` pixels from anchor (0, 0).

Frames and spatio-temporal volumes share one path, :func:`window_statistics`:
it checks the window fits, picks the route, sums the five planes and turns
the sums into statistics. :func:`local_statistics` hands it a frame pair's
planes; ``RollingVolume`` its running sums over the last frames.

Scoring forms statistics band by band. :func:`banded_statistics` drives
either of them BAND_ROWS grid rows at a time: each band forms its
five planes from the input rows its windows read (the k - 1 rows below a
band are read again by the next), sums them in the thread's scratch arena
(:func:`_scratch`) and turns the sums into statistics, which
``ssim._band_sums`` turns into l, cs and q bands straight away. Scores pool
those bands as they are formed (:class:`BandedSum` adds them up as numpy
sums a whole grid), so a frame's working set is one band: whole l, cs and q
grids are made only for the public map functions, and a whole q grid for a
pooler that needs one. Box sums are exact, and the separable passes and the
direct loop add the same taps in the same order per grid row, so bands
equal whole grids bit for bit (bare integer arrays whose window sums pass
int64 aside, see :func:`banded_statistics`). Whole grids remain where
they are asked for (:func:`local_statistics` and
``RollingVolume.local_statistics`` called on their own, and
``ssim.term_maps_from_stats``) and on the one route whose rounding depends
on every row above: float64 summed-area tables.

Under ``auto`` the rectangular route follows each plane's dtype, the one
record of whether its values are exact. Integer planes go through
:func:`box_sums`: power-of-two doubling along the band's flattened rows,
then down its columns, log2 k + popcount k - 1 contiguous adds per axis (5
at k=11), with no scan and no loop over rows. Every partial sum is part of
a window sum, so uint16 holds them exactly whenever the largest true window
sum fits in 16 bits (8-bit sample planes at k <= 16) and uint32 whenever it
fits in 32 bits, e.g. k^2 * peak^2 < 2^32 for the product planes (k <= 257
at 8 bits, k <= 64 at 10 bits); past that bound the same passes run in
int64. The sums are exact integers either way, so the grids equal
the direct engine's bit for bit, and they are written exactly into the
float64 means. Doubling's cost grows with log2 k where a cumulative-sum
scan's does not: on a 64-row band of a 1080p plane doubling was the faster
up to k=32 (k=11: 0.38 against 0.75 ms) and the slower from k=63 (k=255:
4.71 against 2.59 ms). No preset uses k > 11, so it is the one route.
Box-downsampled luma is integer too: it keeps its exact block sums, and
its ``scale`` (signal samples per sample) divides the window sums, so the
statistics are in signal units (:func:`window_statistics`). Float planes
(luma converted from RGB, pyramid levels, downsampled colour channels) keep
float64 summed-area tables with the four-corner rule, whose rounding the
published scores depend on. The direct loop and the Gaussian passes read
integer planes as they are, with no float64 copy: each sample converts to
float64 exactly before its first multiply, so their grids equal those of
float64 copies bit for bit.

One rule picks every exact integer accumulator in the package
(:func:`_exact_sum_dtype`, used by :func:`box_sums`, by the product planes
of :func:`_pair_terms` and by the box and dyadic downsamples): for sums of
n samples it is uint16 while n * max < 2^16 and uint32 while n * max < 2^32
for non-negative samples, int64 while n * max|sample| < 2^63, and float64
beyond that and for float planes; a LumaPlane's max is
scale * (2^bit_depth - 1). Products of two samples follow it with n = 1:
uint16 for 8-bit samples, uint32 up to 16 bits. Sums in uint16, uint32 or
int64 are exact, so results built on them are bit-identical to the same
arithmetic on exact values. A pair of integer planes takes the exact route
only when its products fit int64 (max|sample|^2 < 2^63), with window sums
past int64 doubled in float64 band by band; wider pairs are summed in
float64 like float planes, never wrapped.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .config import ENGINES, WindowSpec, default_gaussian_size
from .errors import ValidationError, WindowLargerThanImage
from .frames import LumaPlane, PlaneLike, plane_data, plane_scale, validate_frame_pair


def gaussian_kernel(sigma: float, k: int | None = None) -> np.ndarray:
    """Separable Gaussian sampled at integer offsets from center, sum 1.

    Size defaults to 2*ceil(3*sigma) + 1.
    """
    size = default_gaussian_size(sigma)  # rejects a sigma no kernel can use
    k = size if k is None else k
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"kernel size must be an integer >= 1, got {k!r}")
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
    size = default_gaussian_size(sigma)  # rejects a sigma no window can use
    if mode == "same-size":
        return size
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


def _grid_window_sums(table: np.ndarray, k: int, stride: int, out: np.ndarray | None = None) -> np.ndarray:
    """Window sums for every valid anchor on the stride grid, into ``out``
    when given.

    Strided basic slicing keeps the four corner grids as views, so this costs
    three elementwise passes over the output grid.
    """
    h, w = table.shape[0] - 1, table.shape[1] - 1
    top = slice(0, h - k + 1, stride)
    left = slice(0, w - k + 1, stride)
    bottom = slice(k, h + 1, stride)
    right = slice(k, w + 1, stride)
    out = np.add(table[bottom, right], table[top, left], out=out)
    return np.subtract(out, np.add(table[bottom, left], table[top, right]), out=out)


def _grid_shape(h: int, w: int, k: int, stride: int) -> tuple[int, int]:
    return (h - k) // stride + 1, (w - k) // stride + 1


def _exact_sum_dtype(plane: PlaneLike, count: int, degree: int = 1) -> type:
    """Accumulator in which sums of ``count`` terms of ``plane`` are exact.

    A term is one sample, or a product of ``degree`` samples. For
    non-negative samples the result is uint16 while count * peak^degree <
    2^16 and uint32 while it is < 2^32; then int64 while count *
    peak^degree < 2^63 (peak = max |sample|), and float64 for float planes
    and past every bound. A LumaPlane's bit depth and scale bound its
    samples by scale * (2^bit_depth - 1); otherwise the dtype's range
    decides without reading the samples when it proves uint16 or uint32,
    and for dtypes of 16 bits or less, and the plane's min and max decide
    the rest.
    """
    data = plane_data(plane)
    if data.dtype.kind not in "ui":
        return np.float64

    def accumulator(lo: int, hi: int) -> type:
        bound = count * max(hi, -lo) ** degree
        if lo >= 0 and bound < 1 << 32:
            return np.uint16 if bound < 1 << 16 else np.uint32
        return np.int64 if bound < 1 << 63 else np.float64

    info = np.iinfo(data.dtype)
    if isinstance(plane, LumaPlane):
        return accumulator(0, min(int(info.max), plane.scale * ((1 << plane.bit_depth) - 1)))
    work = accumulator(int(info.min), int(info.max))
    if work in (np.uint16, np.uint32) or data.dtype.itemsize <= 2:
        return work
    lo = 0 if data.dtype.kind == "u" else int(data.min())
    return accumulator(lo, int(data.max()))


#: Grid rows per band: statistics and term maps are formed this many grid
#: rows at a time (see :func:`banded_statistics`), as are the rolling-sum
#: update, the hue plane and box downsampling's block rows, so a band's
#: planes and work buffers stay in cache between passes and a frame's
#: working set is one band.
BAND_ROWS = 64


def _row_bands(gh: int, stride: int = 1, k: int = 1):
    """(grid rows, input rows, strided span) of each band of BAND_ROWS grid
    rows; the input rows are the ones the band's windows read."""
    for top in range(0, gh, BAND_ROWS):
        span = (min(BAND_ROWS, gh - top) - 1) * stride + 1
        yield slice(top, top + BAND_ROWS), slice(top * stride, top * stride + span + k - 1), span


_arena = threading.local()  # the scratch arena: one byte buffer per role


def _scratch(role: str, shape: tuple, dtype=np.float64, band: bool = True) -> np.ndarray:
    """An uninitialised ``shape`` array of ``dtype`` for the band loops'
    work: the box sums' two buffers and then the squared means (``work``),
    the five band grids (``band``), box downsampling's block rows
    (``blocks``). It is carved from this thread's byte buffer for ``role``,
    grown when too small and kept, so every band of every frame reuses the
    same memory, no thread shares it, and it is valid until the thread's
    next request for ``role``. Work on more than a band (``band`` False)
    gets a new array, so neither whole planes nor results stay in it.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if not band:
        return np.empty(shape, dtype)
    buf = getattr(_arena, role, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, np.uint8)
        setattr(_arena, role, buf)
    return buf[:size].view(dtype).reshape(shape)


class BandedSum:
    """``np.add.reduce`` of ``n`` float64 values that arrive band by band,
    bit for bit: ``total() / n`` is their ``mean()``.

    numpy sums pairwise: a run of more than 128 values splits at half its
    length, rounded down to a multiple of 8 (Higham, SIAM J. Sci. Comput.
    1993). ``add`` sums the largest parts inside the band with
    ``np.add.reduce``, gathers a leaf that crosses a band edge in ``tail``,
    and adds each part to its sibling as soon as both are summed.
    """

    def __init__(self, n: int):
        self.n, self.done, self.held, self.tail, self.sums = n, 0, 0, np.empty(128), []

    def add(self, band: np.ndarray) -> None:
        self._walk(0, self.n, band.reshape(-1), self.done + self.held)

    def _walk(self, lo: int, size: int, values: np.ndarray, start: int) -> bool:
        """Sum the ``size`` values from ``lo`` that ``values`` (from ``start``) reach; whether all are."""
        hi, half, got = lo + size, size // 2 // 8 * 8, start + values.size
        if hi <= self.done:
            return True
        if size <= 128 and (lo < start or hi > got):  # a leaf across a band edge
            offset, copied = max(start - lo, 0), values[max(lo - start, 0) : hi - start]
            self.tail[offset : offset + copied.size] = copied
            if hi > got:
                self.done, self.held = lo, offset + copied.size
                return False
            part = self.tail[:size]
        elif lo >= start and hi <= got:
            part = values[lo - start : hi - start]
        elif self._walk(lo, half, values, start) and self._walk(lo + half, size - half, values, start):
            self.sums.append(self.sums.pop() + self.sums.pop())  # the part's two halves
            return True
        else:
            return False
        self.sums.append(np.add.reduce(part))
        return True

    def total(self) -> float:
        return float(self.sums[0])


def _run_sums(bufs: list[np.ndarray], i: int, n: int, k: int, step: int) -> tuple[int, int]:
    """Sums of k terms ``step`` apart along the first ``n`` elements x of
    the flat buffer ``bufs[i]``, y[j] = x[j] + x[j + step] + ... +
    x[j + (k-1) step], as (index of the buffer holding y, its length
    n - (k-1) step). Both buffers are overwritten.

    Power-of-two doubling: sums of 2p terms are two sums of p terms p steps
    apart, and y adds the sums whose widths are the set bits of k, lowest
    first, each shifted past the terms already covered. That is
    log2 k + popcount k - 1 contiguous adds, each over the whole array. A
    doubling runs in place (its reads run ahead of its writes) unless its
    sums are also y's, which then keep the other buffer.
    """
    pi, ti, width, done = i, None, 1, 0
    while True:
        if k & width:
            if ti is None:
                ti = pi
            else:
                m = n - (done + width - 1) * step
                np.add(bufs[ti][:m], bufs[pi][done * step : done * step + m], out=bufs[ti][:m])
            done += width
            if done == k:
                return ti, n - (k - 1) * step
        dst = pi if pi != ti else 1 - pi
        m = n - (2 * width - 1) * step
        np.add(bufs[pi][:m], bufs[pi][width * step : width * step + m], out=bufs[dst][:m])
        pi, width = dst, 2 * width


def box_sums(plane: np.ndarray, k: int, stride: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Exact k x k window sums of an integer plane on the stride grid.

    Two passes of power-of-two doubling (:func:`_run_sums`) over a copy of
    the plane's flattened rows: one along each row, then one down the
    columns, reading row sums a row's pitch apart; sums that would run off
    the end of a row land in columns no window reads. Each pass is
    log2 k + popcount k - 1 contiguous adds (5 at k=11), with no scan and
    no loop over rows. Both run in the accumulator :func:`_exact_sum_dtype`
    picks for k^2 samples: uint16 or uint32 while the largest possible
    window sum fits in 16 or 32 bits, int64 beyond, and float64 (no longer
    exact) only past int64. For a grid of at most BAND_ROWS rows the two
    work buffers are the thread's (:func:`_scratch`). The sums are written
    into ``out`` when given (any dtype that holds them, e.g. float64); else
    they are returned in the working dtype as a new array.
    """
    h, w = plane.shape
    gh, gw = _grid_shape(h, w, k, stride)
    bufs = _scratch("work", (2, h * w), _exact_sum_dtype(plane, k * k), band=gh <= BAND_ROWS)
    np.copyto(bufs[0].reshape(h, w), plane, casting="unsafe")
    i, n = _run_sums(bufs, 0, h * w, k, 1)
    pitch = w
    if stride > 1:  # only the grid's columns go down the columns
        pitch = gw
        grid_cols = bufs[i][: h * w].reshape(h, w)[:, : (gw - 1) * stride + 1 : stride]
        i, n = 1 - i, h * gw
        np.copyto(bufs[i][:n].reshape(h, gw), grid_cols)
    i, _ = _run_sums(bufs, i, n, k, pitch)
    sums = bufs[i][: (h - k + 1) * pitch].reshape(h - k + 1, pitch)[::stride, :gw]
    if out is None:
        return np.array(sums)
    out[...] = sums
    return out


def _product_dtype(a: PlaneLike, b: PlaneLike) -> np.dtype:
    """The dtype of a pair's products (:func:`_pair_terms`): the accumulator
    :func:`_exact_sum_dtype` picks for one product of two samples of either
    plane, so uint16 for 8-bit samples, uint32 up to 16 bits, int64 beyond,
    and float64 for float planes or where one product could pass int64."""
    return np.result_type(*(_exact_sum_dtype(x, 1, degree=2) for x in (a, b)))


def _pair_terms(a: np.ndarray, b: np.ndarray):
    """The five planes I1, I2, I1^2, I2^2, I1*I2, one at a time.

    The products are formed in :func:`_product_dtype`, so integer products
    are exact. Where that is float64, the planes are read as float64 too,
    with no copy of a plane that already is. An integer square is a copy in
    the product's dtype multiplied by itself, which is about twice as fast
    as numpy's buffered casting multiply; the cross product keeps the cast,
    which is faster than two copies.
    """
    dtype = _product_dtype(a, b)
    if dtype == np.float64:
        a, b = np.asarray(a, dtype), np.asarray(b, dtype)
    yield a
    yield b
    for x in (a, b):
        yield np.multiply(x, x) if dtype == np.float64 else _square(x, dtype)
    yield np.multiply(a, b, dtype=dtype, casting="unsafe")


def _square(x: np.ndarray, dtype) -> np.ndarray:
    """x^2 as a copy in ``dtype`` multiplied by itself (a function, so that
    no generator frame keeps the copy alive once its consumer drops it)."""
    x = x.astype(dtype)
    return np.multiply(x, x, out=x)


def _sliding_weighted_sums(values: np.ndarray, weights: np.ndarray, stride: int, out: np.ndarray | None = None):
    """Direct weighted windowed sums for an arbitrary weight grid, into
    ``out`` when given: the k^2 taps are added in row-major order, band by
    band of grid rows.

    A uniform grid (a rectangular window's ones, or 1/k^2) scales each band
    of the plane once and adds shifted views of it: every product w * x
    rounds as it would per tap, so the sums are the same bit for bit.
    """
    k = weights.shape[0]
    gh, gw = _grid_shape(*values.shape, k, stride)
    cols = (gw - 1) * stride + 1
    out = np.empty((gh, gw)) if out is None else out
    out.fill(0.0)
    uniform = bool(np.all(weights == weights.flat[0]))
    for rows, src, span in _row_bands(gh, stride, k):
        band = out[rows]
        plane = np.multiply(values[src], weights.flat[0], dtype=np.float64) if uniform else values[src]
        for m in range(k):
            for n in range(k):
                view = plane[m : m + span : stride, n : n + cols : stride]
                band += view if uniform else weights[m, n] * view
    return out


def separable_sums(values: np.ndarray, kern1d: np.ndarray, stride: int = 1, out: np.ndarray | None = None):
    """Windowed sums under the separable weights outer(kern1d, kern1d) over
    the last two axes, on the stride grid of valid anchors, into ``out``
    when given.

    Band by band of grid rows, a vertical 1-D pass runs on the grid's rows
    only, then a horizontal pass on the grid's columns; each adds its k taps
    in order, from zero. This costs 2k multiply-adds per sample where the
    direct loop costs k^2.
    """
    k = len(kern1d)
    *lead, h, w = values.shape
    gh, gw = _grid_shape(h, w, k, stride)
    cols = (gw - 1) * stride + 1
    out = np.empty((*lead, gh, gw)) if out is None else out
    out.fill(0.0)
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
    stride: int
    source_dims: tuple[int, int]  # (height, width)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.mu1.shape

    def bands(self):
        """(grid rows, (mu1, mu2, var1, var2, cov) of those rows) for each
        band of BAND_ROWS grid rows, as views."""
        grids = (self.mu1, self.mu2, self.var1, self.var2, self.cov)
        for rows, _, _ in _row_bands(self.grid_shape[0]):
            yield rows, tuple(g[rows] for g in grids)


def stats_from_means(
    mu1: np.ndarray,
    mu2: np.ndarray,
    e11: np.ndarray,
    e22: np.ndarray,
    e12: np.ndarray,
    square: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Means/variances/covariance from the window means of I1, I2, I1^2,
    I2^2 and I1*I2 (window sums divided by their sample count).

    Variances use E[X^2] - E[X]^2 with negative floating residue clamped to 0.
    The float64 grids of E[I1^2], E[I2^2] and E[I1*I2] are consumed: each
    result is written over its mean. ``square``, a float64 grid of the same
    shape, is the scratch for the squared means.
    """
    np.multiply(mu1, mu1, out=square)
    var1 = np.subtract(e11, square, out=e11)
    np.maximum(var1, 0.0, out=var1)
    np.multiply(mu2, mu2, out=square)
    var2 = np.subtract(e22, square, out=e22)
    np.maximum(var2, 0.0, out=var2)
    np.multiply(mu1, mu2, out=square)
    cov = np.subtract(e12, square, out=e12)
    return mu1, mu2, var1, var2, cov


def _check_fit(dims: tuple[int, int], window: WindowSpec) -> None:
    h, w = dims
    if window.k > h or window.k > w:
        raise WindowLargerThanImage(f"{window.k}x{window.k} window does not fit a {w}x{h} image")


def window_statistics(
    terms, dims: tuple[int, int], window: WindowSpec, engine: str = "auto", depth: int = 1, out=None, scale: int = 1,
) -> LocalStatsMaps:
    """Local statistics from the five planes I1, I2, I1^2, I2^2, I1*I2.

    ``terms`` yields the five ``dims``-shaped planes, summed one at a time;
    they may be sums over ``depth`` frames, of samples that are each the
    sum of ``scale`` signal samples. An integer plane holds exact values,
    which rectangular windows sum with :func:`box_sums` under ``auto``,
    written exactly into the float64 grids; a float plane takes the float64
    summed-area table. Window sums of I1 and I2 are divided by area * scale
    and those of the products by area * scale^2, each in one division, so
    the statistics are in signal units whatever the scale. ``out``, five float64 grids of the window
    grid's shape, receives the statistics (a band of the band loop's grids,
    say); by default they are new grids. On a grid of at most BAND_ROWS
    rows the box sums and then the squared means take the thread's ``work``
    buffer (:func:`_scratch`).
    """
    h, w = dims
    k, stride = window.k, window.stride
    _check_fit(dims, window)
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}")
    rect = window.shape == "rect"
    if engine == "naive":
        kern = np.ones((k, k)) if rect else gaussian_kernel(window.sigma, k)
    elif not rect:
        kern1d = gaussian_kernel_1d(window.sigma, k)
    grid = _grid_shape(h, w, k, stride)
    if out is not None and [(o.shape, o.dtype) for o in out] != [(grid, np.float64)] * 5:
        raise ValidationError(f"out needs five float64 grids of shape {grid}")
    # A Gaussian kernel sums to 1, so its window covers one sample per frame.
    area = (k * k if rect else 1) * depth
    divisors = [float(area * scale**degree) for degree in (1, 1, 2, 2, 2)]

    def window_means(t, s, divisor):
        if engine == "naive":
            sums = _sliding_weighted_sums(t, kern, stride, out=s)
        elif not rect:
            sums = separable_sums(t, kern1d, stride, out=s)
        elif t.dtype.kind in "ui":  # exact integer sums, divided in float64
            sums = box_sums(t, k, stride, out=np.empty(grid) if s is None else s)
        else:
            sums = _grid_window_sums(_sat(t), k, stride, out=s)
        return np.divide(sums, divisor, out=sums)

    # New grids are made one at a time, after their term's temporaries: five
    # made up front would sit below them, so the allocator would hand the
    # freed temporaries back to the OS and fault them in again every call.
    # Each term is dropped before the next is made, so one is held at a time.
    terms = iter(terms)
    means = [window_means(next(terms), s, d) for s, d in zip([None] * 5 if out is None else out, divisors)]
    # The box sums are spent by now, so their buffer holds the squared means.
    square = _scratch("work", grid, band=grid[0] <= BAND_ROWS)
    mu1, mu2, var1, var2, cov = stats_from_means(*means, square)
    return LocalStatsMaps(
        mu1=mu1, mu2=mu2, var1=var1, var2=var2, cov=cov, stride=stride, source_dims=(h, w),
    )


def banded_statistics(compute, dims: tuple[int, int], window: WindowSpec, engine: str, integer: bool):
    """The window grid's shape over a ``dims`` plane, and an iterator of
    (grid rows, (mu1, mu2, var1, var2, cov) of those rows) over its bands of
    BAND_ROWS grid rows.

    ``compute(rows, out)`` returns the LocalStatsMaps of the windows that
    read input ``rows``, written into ``out``. Each band takes its own input
    rows (the k - 1 rows below it are read again by the next band) and the
    thread's five ``band`` grids (:func:`_scratch`), which the next band
    overwrites. Box sums of ``integer`` planes, the separable passes and
    the direct loop add each window's taps in the same order wherever it
    lies, so every band equals the whole grid's rows bit for bit. (A bare
    integer pair whose window sums pass int64 is the exception: a band
    whose own sums fit int64 sums them exactly, where the whole plane
    would double them in float64.) A rectangular window under ``auto``
    sums float planes with float64 summed-area tables, whose rounding
    depends on every row above: that grid is computed whole (``rows``
    covers the plane, ``out`` is None) and handed out band by band.
    """
    _check_fit(dims, window)
    k, stride = window.k, window.stride
    gh, gw = _grid_shape(*dims, k, stride)
    if not (integer or window.shape != "rect" or engine == "naive"):
        return (gh, gw), compute(slice(None), None).bands()

    def bands():
        grids = _scratch("band", (5, min(BAND_ROWS, gh), gw))
        for rows, src, _ in _row_bands(gh, stride, k):
            stats = compute(src, list(grids[:, : min(BAND_ROWS, gh - rows.start)]))
            yield rows, (stats.mu1, stats.mu2, stats.var1, stats.var2, stats.cov)

    return (gh, gw), bands()


def local_statistics(
    ref: PlaneLike, dist: PlaneLike, window: WindowSpec, engine: str = "auto", out=None, scale: int | None = None,
) -> LocalStatsMaps:
    """Windowed local statistics of a frame pair under a window spec.

    ``engine`` selects the computation route: ``naive`` (the direct k^2
    loop, any shape) or ``auto`` (exact box sums or summed-area tables for
    rectangular windows, two separable 1-D passes for Gaussian ones).
    Rectangular routes produce the same grids; the Gaussian passes round
    differently from the direct loop, within 1e-12 relative. ``out`` is as
    for :func:`window_statistics`. ``scale`` is the number of signal
    samples each sample sums; by default the planes' own (1 for bare arrays).
    """
    ref, dist = validate_frame_pair(ref, dist)
    a, b = plane_data(ref), plane_data(dist)
    terms = _pair_terms(a, b)
    scale = plane_scale(ref) if scale is None else scale
    return window_statistics(terms, a.shape, window, engine, out=out, scale=scale)
