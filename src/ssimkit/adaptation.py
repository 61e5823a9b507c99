"""Resolution/viewing adaptation and scaled-score prediction.

Scale factors: the legacy 256-line rule, its viewing-distance generalization
(calibrated so D/H = 3.0 reproduces the legacy rule), and the viewing-geometry
transform, applied by box downsampling, which keeps integer luma as exact
block sums. Scaled-score prediction estimates the rendering-resolution mean
score from compression-resolution quality maps, either by periodic-reference
histogram matching or by the learning-free product of the scaling and
compression scores.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .config import ScalePolicy
from .errors import NoReferenceYet, ValidationError, check_integer
from .frames import LumaPlane, PlaneLike, QualityMap, _map_values, owned, plane_data
from .stats import _accumulator, _peak, _row_bands, _scratch


def round_half_away(x: float) -> int:
    """Round with halves away from zero (so 4.5 -> 5, not banker's 4)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def legacy_scale_factor(width: int, height: int, rounding: str = "round") -> int:
    """The 256-rule: max(1, round(min(W, H) / 256)), the viewing-distance
    rule at D/H = 3.0."""
    return enhanced_scale_factor(width, height, 3.0, rounding)


def enhanced_scale_factor(width: int, height: int, d_over_h: float, rounding: str = "round") -> int:
    """Viewing-distance-aware 256-rule: max(1, round((min/256) * (3 / (D/H)))).

    Calibrated so the default TV-viewing ratio D/H = 3.0 reproduces the
    legacy factor; larger viewing distances yield smaller factors. A factor
    past the frame's larger side averages the whole frame, as that side does,
    so it is clamped there before rounding.
    """
    if not all(0 < v < math.inf for v in (width, height, d_over_h)):
        raise ValidationError("dimensions and d/h ratio must be positive and finite")
    ratio = min((min(width, height) / 256.0) * (3.0 / d_over_h), max(width, height))
    scaled = math.ceil(ratio) if rounding == "ceil" else round_half_away(ratio)
    return max(1, scaled)


def viewing_geometry(display_height: float, distance: float, lines: int) -> tuple[float, float]:
    """Full-screen viewing angle (degrees) and the pixel-spacing frequency.

    alpha = 2*arctan(H / 2D); f_max = L / (2*alpha) cycles/degree for L lines.
    """
    if not all(0 < v < math.inf for v in (display_height, distance, lines)):
        raise ValidationError("geometry inputs must be positive and finite")
    alpha = 2.0 * math.degrees(math.atan(display_height / (2.0 * distance)))
    f_max = lines / (2.0 * alpha)
    return alpha, f_max


def sast_factor(
    display_height: float,
    display_width: float,
    distance: float,
    theta_h: float = 40.0,
    theta_w: float = 50.0,
) -> float:
    """Self-adaptive scale transform factor, clamped below at 1.

    Z = sqrt(H_I * W_I / (4 tan(theta_H/2) tan(theta_W/2) D^2)) with the
    common 40/50 degree viewing angles, taken as a product of one square
    root per side so that tiny angles do not underflow the denominator.
    """
    if not all(0 < v < math.inf for v in (display_height, display_width, distance)):
        raise ValidationError("geometry inputs must be positive and finite")
    if not (0 < theta_h < 180 and 0 < theta_w < 180):
        raise ValidationError("sast viewing angles must lie in (0, 180) degrees")
    z = 1.0
    for size, theta in ((display_height, theta_h), (display_width, theta_w)):
        half_tan = math.tan(math.radians(theta) / 2.0)
        if half_tan == 0.0:
            raise ValidationError(f"sast viewing angle {theta!r} is too small to take its tangent")
        z *= math.sqrt(size / distance / (2.0 * half_tan))
    return max(1.0, z)


def policy_factor(policy: ScalePolicy, width: int, height: int) -> int:
    """Integer downsampling factor a scale policy prescribes for a frame."""
    if policy.kind == "none":
        return 1
    if policy.kind in ("legacy", "dh"):  # legacy's d_over_h rests at 3.0
        return enhanced_scale_factor(width, height, policy.d_over_h, policy.rounding)
    z = sast_factor(height, width, policy.distance, policy.theta_h, policy.theta_w)
    return max(1, round_half_away(min(z, max(width, height))))  # clamped as enhanced_scale_factor's


def box_downsample(plane: PlaneLike, factor: int) -> PlaneLike:
    """Downsample by an integer factor: one sample per factor x factor
    block, trailing partial blocks over their actual size. Factor 1 is the
    identity.

    An integer LumaPlane comes back as its exact block sums, in the
    accumulator ``stats._accumulator`` gives ``scale`` times its peak
    (uint16 for 8-bit planes up to factor 16, uint32 for 16-bit ones up to
    256), with the plane's scale multiplied by the blocks' sample count. The
    sum of a partial block is multiplied up to the least common multiple
    of the block counts, so every sample sums the same number of samples:
    that multiple is the scale, and ``samples / scale`` equals averaging
    in float64 bit for bit. Bare arrays, float planes, and integer planes
    whose scaled sums would pass int64 come back as float64 block means.

    Block sums never pass through a float64 copy of the plane. Band by band
    of BAND_ROWS block rows, each block row is the sum of ``factor`` strided
    row slices, in the thread's reused ``blocks`` buffer (``stats._scratch``),
    then the sums of ``factor`` strided column slices go into the output.
    Integer sums are exact; float planes differ from averaging a float64
    copy only in summation order, which is the same in every band.
    """
    check_integer(factor, "factor")
    if factor == 1:
        return plane
    arr = np.asarray(plane_data(plane))
    h, w = arr.shape
    factor = min(factor, max(h, w))  # a larger block is the whole frame too
    row_edges = np.arange(0, h, factor)
    col_edges = np.arange(0, w, factor)
    row_counts = np.minimum(row_edges + factor, h) - row_edges
    col_counts = np.minimum(col_edges + factor, w) - col_edges
    # The lcm of the block counts r * c is lcm(r) * lcm(c), prime by prime.
    rows_lcm, cols_lcm = math.lcm(*row_counts.tolist()), math.lcm(*col_counts.tolist())
    scale = rows_lcm * cols_lcm
    peak = _peak(plane)
    exact = isinstance(plane, LumaPlane) and _accumulator(scale * peak) is not np.float64
    work = _accumulator((scale if exact else factor * factor) * peak, plane)
    out = np.empty((len(row_edges), len(col_edges)), work)
    for grid_rows, src, _ in _row_bands(len(row_edges), factor, factor):
        rows = _strided_sums(arr[src], factor, 0, _scratch("blocks", (len(out[grid_rows]), w), work))
        _strided_sums(rows, factor, 1, out[grid_rows])
    if not exact:
        out = out / np.outer(row_counts, col_counts)
    elif (row_counts[-1], col_counts[-1]) != (rows_lcm, cols_lcm):  # partial blocks: up to the common count
        out *= np.outer(rows_lcm // row_counts, cols_lcm // col_counts).astype(work)
    if not isinstance(plane, LumaPlane):
        return out
    return LumaPlane(owned(out), plane.bit_depth, plane.scale * scale if exact else plane.scale)


def _strided_sums(values: np.ndarray, factor: int, axis: int, out: np.ndarray) -> np.ndarray:
    """Sums of each run of ``factor`` entries of ``values`` along ``axis``
    (0 or 1), a trailing partial run over the entries it has, into ``out``
    in its dtype: the strided slices ``values[j::factor]`` added one by one,
    each a single elementwise add, which is faster than a reduction over
    runs this short."""
    lead = (slice(None),) * axis
    np.copyto(out, values[lead + (slice(None, None, factor),)], casting="unsafe")
    for j in range(1, min(factor, values.shape[axis])):
        part = values[lead + (slice(j, None, factor),)]
        head = out[lead + (slice(part.shape[axis]),)]
        np.add(head, part, out=head, dtype=out.dtype, casting="unsafe")
    return out


def scaled_ssim_product(f_scale: float, f_comp: float) -> float:
    """Learning-free prediction: product of the scaling and compression scores."""
    for name, v in (("f_scale", f_scale), ("f_comp", f_comp)):
        if not -1.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [-1, 1], got {v}")
    return f_scale * f_comp


class ProductPredictor:
    """The baseline predictor: ignores alpha/qp and multiplies the features."""

    def predict(
        self,
        f_scale: float,
        f_comp: float,
        alpha: Optional[float] = None,
        qp: Optional[float] = None,
    ) -> float:
        return scaled_ssim_product(f_scale, f_comp)


def compute_ratio(k: int, alpha: float, beta: float, gamma: float) -> float:
    """Compute-cost ratio of periodic-reference prediction vs full scoring.

    (1 - 1/k) * alpha^2 * (1 + beta + gamma) + (1/k) * (1 + beta); tends to
    alpha^2 * (1 + beta + gamma) as the refresh interval k grows.
    """
    check_integer(k, "refresh interval")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    return (1.0 - 1.0 / k) * alpha * alpha * (1.0 + beta + gamma) + (1.0 / k) * (1.0 + beta)


class HistogramMatcher:
    """Predicts rendering-resolution mean scores by histogram matching.

    Every ``refresh_interval``-th call must supply the true rendering-scale
    map, which becomes the reference histogram (and returns its exact mean).
    In between, each compression-scale map value is pushed through the
    monotone transform F_ref^-1(F_comp(.)) built from binned histograms, and
    the mean of the transformed values is returned. Mapping happens at each
    comp bin's mid-mass, and the transform is anchored by the exact reference
    mean so matching distributions reproduce it within rounding. The bins
    span SSIM's range, [-1, 1].
    """

    def __init__(self, refresh_interval: int = 5, bins: int = 201):
        check_integer(refresh_interval, "refresh interval")
        check_integer(bins, "bins", 2)
        self.refresh_interval = refresh_interval
        self.bins = bins
        self._edges = np.linspace(-1.0, 1.0, bins + 1)
        self._counts: Optional[np.ndarray] = None
        self._ref_mean = 0.0
        self._ref_binned_mean = 0.0
        self._calls = 0

    def _histogram(self, values: np.ndarray) -> np.ndarray:
        counts, _ = np.histogram(np.clip(values, -1.0, 1.0), bins=self._edges)
        return counts.astype(np.float64)

    def _binned_mean(self, counts: np.ndarray) -> float:
        centers = (self._edges[:-1] + self._edges[1:]) / 2.0
        return float((counts * centers).sum() / counts.sum())

    def _ref_quantile(self, mass: np.ndarray) -> np.ndarray:
        """Inverse of the piecewise-linear binned reference CDF at mass points.

        For 0 < mass < total the first bin whose cumulative count exceeds the
        mass is always occupied (empty bins share their predecessor's
        cumulative count), so interpolation within it is well defined.
        """
        cum = np.cumsum(self._counts)
        idx = np.minimum(np.searchsorted(cum, mass, side="right"), self.bins - 1)
        before = cum[idx] - self._counts[idx]
        denom = np.where(self._counts[idx] > 0, self._counts[idx], 1.0)
        frac = np.clip((mass - before) / denom, 0.0, 1.0)
        width = self._edges[1] - self._edges[0]
        return self._edges[idx] + frac * width

    def predict(
        self,
        comp_map: Union[QualityMap, np.ndarray],
        true_map: Optional[Union[QualityMap, np.ndarray]] = None,
    ) -> float:
        """Predicted mean rendering-scale score for one frame. Only a refresh
        call takes ``true_map`` (else ValidationError). Bare maps are
        checked as ``frames._map_values`` checks them."""
        # Only calls that return are counted, so a rejected call leaves the
        # schedule where it was; the first counted call always set a reference.
        if self._calls % self.refresh_interval == 0:
            if true_map is None:
                raise NoReferenceYet(
                    "this call must supply the rendering-scale map to (re)build the reference"
                )
            true = _map_values(true_map).reshape(-1)
            self._counts = self._histogram(true)
            self._ref_mean = float(true.mean())
            self._ref_binned_mean = self._binned_mean(self._counts)
            self._calls += 1
            return self._ref_mean
        if true_map is not None:
            raise ValidationError("only a refresh call takes the rendering-scale map")
        predicted = float(self.transform(comp_map).mean())
        self._calls += 1
        return predicted

    def transform(self, comp_map: Union[QualityMap, np.ndarray]) -> np.ndarray:
        """Per-value monotone transform (diagnostic; predict() averages it)."""
        if self._counts is None:
            raise NoReferenceYet("no reference map has been supplied yet")
        comp = _map_values(comp_map)
        flat = comp.reshape(-1)
        counts = self._histogram(flat)
        n = counts.sum()
        cum = np.cumsum(counts)
        bin_idx = np.clip(np.searchsorted(self._edges, flat, side="right") - 1, 0, self.bins - 1)
        mid_mass = (cum[bin_idx] - counts[bin_idx] / 2.0) / n * self._counts.sum()
        shift = self._ref_mean - self._ref_binned_mean
        return (self._ref_quantile(mid_mass) + shift).reshape(comp.shape)
