"""Windowed local statistics (means, variances, covariance) for image pairs.

Two engines produce identical grids for rectangular windows: ``naive``
slides the window and accumulates weighted sums (any window shape; a
rectangular window is a uniform kernel), and ``auto``'s cost per pixel does
not depend on k. Gaussian windows are separable, so under ``auto`` they take
two 1-D passes (:func:`separable_sums`), 2k multiply-adds per sample instead
of k^2. Only fully interior windows are evaluated (valid region, no
padding); the grid is sampled every ``stride`` pixels from anchor (0, 0).

Frames and spatio-temporal volumes share one band loop,
:func:`window_statistics`, fed a frame pair's planes by
:func:`local_statistics` and its running sums by ``RollingVolume``. Its
:class:`LocalStatsMaps` are formed BAND_ROWS grid rows at a time as they
are read: each band forms its five planes from the input rows its windows
read, sums them in the thread's scratch arena (:func:`_scratch`) and turns
the sums into the numerators and denominators of SSIM's l and cs, which
``ssim._band_sums`` divides and pools straight away (:class:`BandedSum`
adds them up as numpy sums a whole grid). So a frame's working set is one
band on every route, and bands equal whole grids bit for bit; whole
statistics grids are formed only when ``mu1`` ... ``cov`` are read.

Integer planes under a rectangular window have exact integer window sums
under either engine. ``auto`` forms them by :func:`box_sums`: power-of-two
doubling along the band's flattened rows, then down its columns, in an
accumulator that holds the largest true window sum and so every partial
sum. Doubling's cost grows with log2 k where a cumulative-sum scan's does
not: on a 64-row band of a 1080p plane doubling was the faster up to k=32
(k=11: 0.38 against 0.75 ms) and the slower from k=63 (k=255: 4.71 against
2.59 ms), and no preset uses k > 11. SSIM is formed from the sums of n
samples of peak P in integer algebra, held exactly in float64 while
2 (n P)^2 < 2^53 (:func:`_exact_terms`), with no float means, no
E[X^2] - E[X]^2 cancellation and no clamp. Box-downsampled luma is integer
too: it keeps its exact block sums, and its ``scale`` (signal samples per
sample) scales the constants, so the statistics are in signal units. Float
planes (luma converted from RGB, pyramid levels, downsampled colour
channels), Gaussian windows and integer sums past that bound take the
float route, window means and :func:`stats_from_means`, summing float planes
under ``auto`` by the four-corner rule on their band's rows of the float64
summed-area table (:func:`_table_sums`), whose rounding the published
scores depend on.

One rule picks every exact integer accumulator in the package
(:func:`_accumulator`), from the bound :func:`_peak` reads once per call:
sums of n samples of peak P take uint16 while n P < 2^16 and uint32 while
n P < 2^32 when no sample can be negative, int64 while n P < 2^63, and
float64 beyond that and for float planes; products take P^2 for P. No
band reads its samples to choose a dtype. Integer pairs whose products
pass int64 are summed in float64 like float planes, never wrapped.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .config import ENGINES, WindowSpec, default_gaussian_size
from .errors import ValidationError, WindowLargerThanImage, check_integer
from .frames import LumaPlane, PlaneLike, _freeze, owned, plane_data, plane_scale, validate_frame_pair


def gaussian_kernel(sigma: float, k: int | None = None) -> np.ndarray:
    """Separable Gaussian sampled at integer offsets from center, sum 1.

    Size defaults to 2*ceil(3*sigma) + 1.
    """
    size = default_gaussian_size(sigma)  # rejects a sigma no kernel can use
    k = size if k is None else k
    check_integer(k, "kernel size")
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


def _peak(plane: PlaneLike) -> float:
    """The largest |sample| of ``plane``, read once per call: a LumaPlane's
    scale * (2^bit_depth - 1) within its dtype's range, else that range up
    to 16 bits and the samples' own beyond; inf for a float plane."""
    data = plane_data(plane)
    if data.dtype.kind not in "ui":
        return math.inf
    info = np.iinfo(data.dtype)
    if isinstance(plane, LumaPlane):
        return min(int(info.max), plane.scale * ((1 << plane.bit_depth) - 1))
    if data.dtype.itemsize <= 2:
        return max(int(info.max), -int(info.min))
    return max(int(data.max()), -int(data.min()) if data.dtype.kind == "i" else 0)


def _accumulator(bound: float, *planes: PlaneLike) -> type:
    """The accumulator that holds every integer up to ``bound`` in magnitude
    exactly: uint16 below 2^16 and uint32 below 2^32 unless one of
    ``planes`` is a bare array of a signed dtype (a LumaPlane's samples are
    checked non-negative), int64 below 2^63, float64 past that and for a
    float plane's infinite bound."""
    signed = any(not isinstance(p, LumaPlane) and plane_data(p).dtype.kind == "i" for p in planes)
    if bound < 1 << 32 and not signed:
        return np.uint16 if bound < 1 << 16 else np.uint32
    return np.int64 if bound < 1 << 63 else np.float64


#: Grid rows per band: statistics and term maps are formed this many grid
#: rows at a time (see :func:`window_statistics`), as are the rolling-sum
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


def _scratch(role: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised ``shape`` array of ``dtype`` for the band loops'
    work: the box sums' two buffers or a float band's summed-area table,
    then one grid of results (``work``), the five band grids (``band``), box
    downsampling's block rows (``blocks``). It is carved from this thread's
    byte buffer for ``role``, grown when too small and kept, so every band
    of every frame reuses the same memory, no thread shares it, and it is
    valid until the thread's next request for ``role``.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
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


def box_sums(plane: np.ndarray, k: int, stride: int, work: type, out: np.ndarray) -> np.ndarray:
    """Exact k x k window sums of an integer plane on the stride grid, into
    ``out`` (any dtype that holds them, e.g. float64).

    Two passes of power-of-two doubling (:func:`_run_sums`) over a copy of
    the plane's flattened rows: one along each row, then one down the
    columns, reading row sums a row's pitch apart; sums that would run off
    the end of a row land in columns no window reads. Each pass is
    log2 k + popcount k - 1 contiguous adds (5 at k=11), with no scan and
    no loop over rows. Both run in ``work``, the caller's accumulator for
    the largest possible window sum (:func:`_accumulator`): uint16 or
    uint32 while it fits in 16 or 32 bits, int64 beyond, and float64 (no
    longer exact) only past int64. The two work buffers are the thread's
    (:func:`_scratch`).
    """
    h, w = plane.shape
    gh, gw = _grid_shape(h, w, k, stride)
    bufs = _scratch("work", (2, h * w), work)
    np.copyto(bufs[0].reshape(h, w), plane, casting="unsafe")
    i, n = _run_sums(bufs, 0, h * w, k, 1)
    pitch = w
    if stride > 1:  # only the grid's columns go down the columns
        pitch = gw
        grid_cols = bufs[i][: h * w].reshape(h, w)[:, : (gw - 1) * stride + 1 : stride]
        i, n = 1 - i, h * gw
        np.copyto(bufs[i][:n].reshape(h, gw), grid_cols)
    i, _ = _run_sums(bufs, i, n, k, pitch)
    out[...] = bufs[i][: (h - k + 1) * pitch].reshape(h - k + 1, pitch)[::stride, :gw]
    return out


def _pair_terms(a: np.ndarray, b: np.ndarray, dtype):
    """The five planes I1, I2, I1^2, I2^2, I1*I2, one at a time.

    The products are formed in ``dtype``, the caller's
    :func:`_accumulator` for one product of the planes' :func:`_peak`, so
    integer products are exact. Where that is float64, the planes are read
    as float64 too, with no copy of a plane that already is. An integer
    square is a copy in the product's dtype multiplied by itself, which is
    about twice as fast as numpy's buffered casting multiply; the cross
    product keeps the cast, which is faster than two copies.
    """
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


class LocalStatsMaps:
    """Co-registered grids of mu1, mu2, var1, var2, cov for a frame pair or
    a volume, formed band by band when they are read.

    ``form(whole, constants)`` yields (grid rows, five grids of those rows)
    BAND_ROWS grid rows at a time: the :meth:`bands` of ``constants`` = (C1,
    C2), or the statistics, into rows of ``whole``, which ``mu1`` ... ``cov``
    form on first read and keep read-only.
    """

    def __init__(self, grid_shape: tuple[int, int], stride: int, source_dims: tuple[int, int], form):
        self.grid_shape, self.stride, self.source_dims = grid_shape, stride, source_dims  # source: (height, width)
        self._form, self._whole = form, None

    def bands(self, c1: float, c2: float):
        """(grid rows, (mu1, l numerator, l denominator, cs numerator, cs
        denominator) under C1 and C2) of each band, in the thread's scratch,
        which the reader may overwrite and the next band does. Each is formed
        from the window sums, so no read of whole grids changes a bit."""
        return self._form(None, (c1, c2))

    def _grids(self) -> np.ndarray:
        if self._whole is None:
            whole = np.empty((5, *self.grid_shape))
            for _ in self._form(whole, None):
                pass
            self._whole = owned(whole)
        return self._whole

    mu1, mu2, var1, var2, cov = (property(lambda self, i=i: self._grids()[i]) for i in range(5))


def stats_from_means(mu1, mu2, e11, e22, e12, square: np.ndarray) -> tuple[np.ndarray, ...]:
    """Float-route means/variances/covariance from the window means of I1,
    I2, I1^2, I2^2 and I1*I2 (window sums over their sample count).

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


def _float_terms(mu1, mu2, var1, var2, cov, c1: float, c2: float):
    """(mu1, 2 mu1 mu2 + C1, mu1^2 + mu2^2 + C1, 2 cov + C2, var1 + var2 +
    C2): the terms of float statistics, over them and the ``work`` buffer."""
    work = _scratch("work", mu1.shape)
    np.multiply(2.0, cov, out=cov)
    cov += c2
    np.add(var1, var2, out=var1)
    var1 += c2
    np.multiply(mu1, mu1, out=var2)
    var2 += np.multiply(mu2, mu2, out=work)
    var2 += c1
    np.multiply(2.0, mu1, out=work)
    work *= mu2
    work += c1
    return mu1, work, var2, cov, var1


def _exact_statistics(sums, n: int, scale: int):
    """(S1, S2, n Q11 - S1^2, n Q22 - S2^2, n P12 - S1 S2) / (n scale)^(1
    or 2), each the one division of an exact integer, over the window sums
    ``sums`` of n samples (integers in float64)."""
    s1, s2, q11, q22, p12 = sums
    square = _scratch("work", s1.shape)
    for x, y, q in ((s1, s1, q11), (s2, s2, q22), (s1, s2, p12)):
        q *= n
        q -= np.multiply(x, y, out=square)
        q /= float((n * scale) ** 2)
    sums[:2] /= float(n * scale)
    return tuple(sums)


def _exact_terms(sums, n: int, scale: int, k1: float, k2: float):
    """(S1 / (n scale), 2 S1 S2 + K1, S1^2 + S2^2 + K1, 2 (n P12 - S1 S2) +
    K2, n (Q11 + Q22) - S1^2 - S2^2 + K2), K = (n scale)^2 C, over the
    window sums of n samples: integers in float64 that no step takes past
    2 (n peak)^2 < 2^53, so each value rounds once, as K is added."""
    s1, s2, q, t, p = sums
    q += t  # Q11 + Q22
    np.multiply(s1, s2, out=t)
    t += t  # 2 S1 S2
    s2 *= s2
    s2 += np.multiply(s1, s1, out=_scratch("work", s1.shape))  # S1^2 + S2^2
    q *= n
    q -= s2
    p *= 2 * n
    p -= t  # 2 (n P12 - S1 S2)
    s1 /= float(n * scale)
    for x, k in zip((t, s2, p, q), (k1, k1, k2, k2)):
        x += k
    return s1, t, s2, p, q


def _check_fit(dims: tuple[int, int], window: WindowSpec) -> None:
    h, w = dims
    if window.k > h or window.k > w:
        raise WindowLargerThanImage(f"{window.k}x{window.k} window does not fit a {w}x{h} image")


def _table_sums(values: np.ndarray, k: int, stride: int, carry, out: np.ndarray) -> np.ndarray:
    """k x k window sums of a band of a float plane on the stride grid, into
    ``out``, by the four-corner rule on the band's rows of the plane's
    float64 summed-area table, built in the thread's ``work`` buffer.

    ``carry`` holds the column sums of every plane row above the band (0.0
    above the first band); np.cumsum adds rows in order, so the table built on
    it equals those rows of the whole plane's table bit for bit, but for a
    -0.0 that starting from 0.0 makes +0.0 (a window sum x - y never keeps
    the sign of a zero it read). Returns the carry of the next band,
    BAND_ROWS * stride rows down.
    """
    h, w = values.shape
    table = _scratch("work", (h + 1, w + 1))
    table[:, 0] = 0.0
    cols = table[:, 1:]
    cols[0] = carry
    cols[1:] = values
    np.cumsum(cols, axis=0, out=cols)
    carry = cols[min(BAND_ROWS * stride, h)].copy()
    np.cumsum(cols, axis=1, out=cols)
    _grid_window_sums(table, k, stride, out=out)
    return carry


def window_statistics(
    terms, dims: tuple[int, int], window: WindowSpec, engine: str = "auto", depth: int = 1, scale: int = 1,
    peak: float = math.inf,
) -> LocalStatsMaps:
    """Local statistics from the five planes I1, I2, I1^2, I2^2, I1*I2 of a
    ``dims`` plane, formed band by band when read (:class:`LocalStatsMaps`).

    ``terms(rows)`` yields the five planes of input ``rows`` one at a time;
    they may be sums over ``depth`` frames of samples that each sum
    ``scale`` signal samples. A band reads the input rows its windows cover
    (with stride > k, on to the next band's first row). Under ``auto``,
    rectangular windows sum integer planes exactly (:func:`box_sums`) and
    float planes on their band of the summed-area table
    (:func:`_table_sums`). Every route adds each window's taps in the same
    order wherever it lies, so bands equal whole grids bit for bit.
    ``peak``, the largest |sample| the terms add (:func:`_peak`, read once
    by the caller; inf for float samples), bounds every integer sum: the
    box sums of the sample planes run in the :func:`_accumulator` for
    area * peak, those of the product planes for area * peak^2, so no band
    reads its samples to choose a dtype. While 2 (n peak)^2 < 2^53 for
    n = area, a rectangular window turns the sums straight into SSIM's
    terms (:func:`_exact_terms`) and statistics. The float route (float
    samples, Gaussian windows, larger sums) divides the sums by
    area * scale^(1 or 2) first. Either way the statistics are in signal
    units.
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
    gh, gw = _grid_shape(h, w, k, stride)
    # A Gaussian kernel sums to 1, so its window covers one sample per frame.
    area = (k * k if rect else 1) * depth

    def window_sums(i, t, s, carry):
        if engine == "naive":
            _sliding_weighted_sums(t, kern, stride, out=s)
        elif not rect:
            separable_sums(t, kern1d, stride, out=s)
        elif t.dtype.kind in "ui":
            box_sums(t, k, stride, _accumulator(area * peak ** (1 if i < 2 else 2), t), s)
        else:
            carry = _table_sums(t, k, stride, carry, s)
        return carry

    def form(whole, constants):
        ks = [float((area * scale) ** 2) * c for c in constants or ()]  # K1, K2 of _exact_terms
        exact = rect and area * peak < 1 << 26 and all(map(math.isfinite, ks))  # 2 (n peak)^2 < 2^53
        carries = [0.0] * 5  # column sums above the band: rows for float planes only
        for rows, src, _ in _row_bands(gh, stride, k):
            out = _scratch("band", (5, min(BAND_ROWS, gh - rows.start), gw)) if whole is None else whole[:, rows]
            planes = iter(terms(slice(src.start, max(src.stop, src.start + BAND_ROWS * stride))))
            # One plane is held at a time: each is dropped before the next is made.
            for i in range(5):
                carries[i] = window_sums(i, next(planes), out[i], carries[i])
            if exact:
                yield rows, _exact_terms(out, area, scale, *ks) if constants else _exact_statistics(out, area, scale)
                continue
            for i, s in enumerate(out):
                np.divide(s, float(area * scale ** (1 if i < 2 else 2)), out=s)
            # The sums are spent by now, so the work buffer holds the squared means.
            stats = stats_from_means(*out, _scratch("work", out[0].shape))
            yield rows, stats if constants is None else _float_terms(*stats, *constants)

    return LocalStatsMaps((gh, gw), stride, (h, w), form)


def local_statistics(ref: PlaneLike, dist: PlaneLike, window: WindowSpec, engine: str = "auto") -> LocalStatsMaps:
    """Windowed local statistics of a frame pair under a window spec,
    formed band by band when read (:func:`window_statistics`).

    ``engine`` selects the computation route: ``naive`` (the direct k^2
    loop, any shape) or ``auto`` (exact box sums or summed-area tables for
    rectangular windows, two separable 1-D passes for Gaussian ones).
    Rectangular routes produce the same grids; the Gaussian passes round
    differently from the direct loop, within 1e-12 relative. A writable
    array is copied read-only first, so later writes to it do not reach
    statistics not yet read. The pair's peak (:func:`_peak`) is read once:
    the products take its :func:`_accumulator` for the whole pair, as do
    the box sums of every band. The statistics are in signal units of the
    planes' scale (1 for bare arrays).
    """
    ref, dist = validate_frame_pair(ref, dist)
    a, b = _freeze(plane_data(ref)), _freeze(plane_data(dist))
    peak = max(_peak(ref), _peak(dist))
    dtype = _accumulator(peak**2, ref, dist)
    return window_statistics(
        lambda rows: _pair_terms(a[rows], b[rows], dtype), a.shape, window, engine, scale=plane_scale(ref), peak=peak
    )
