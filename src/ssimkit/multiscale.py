"""Multiscale SSIM over a dyadic pyramid.

Contrast-structure similarity is pooled at every scale; luminance enters only
at the coarsest scale (through the full per-window l*cs map). Scores combine
as an exponent-weighted product, a normalized weighted sum, or the fast
4-level product with renormalized exponents. The level count, exponents and
aggregation come from ``config.multiscale``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .config import MultiscaleSpec, SsimConfig
from .errors import TooManyLevels, TooSmall, ValidationError
from .frames import LumaPlane, PlaneLike, owned, plane_data, plane_scale, validate_frame_pair
from .ssim import _statistics, _term_mean, frame_config
from .ssim import mssim, ssim_map  # noqa: F401  (perfbench traces these bindings)
from .stats import _exact_sum_dtype

if TYPE_CHECKING:
    from .spatiotemporal import RollingVolume


def dyadic_downsample(plane: PlaneLike) -> PlaneLike:
    """Half-resolution plane by 2x2 average pooling; odd trailing row/column dropped.

    A LumaPlane comes back as a LumaPlane of float64 means (scale 1); a raw
    array comes back raw. Integer planes are summed in the exact accumulator
    :func:`~ssimkit.stats._exact_sum_dtype` picks for 4 samples, float
    planes in float64 in the same order, and each sum is divided once by 4
    times the plane's scale, so both equal averaging in float64 bit for bit.
    """
    arr = np.asarray(plane_data(plane))
    h, w = arr.shape
    if h < 2 or w < 2:
        raise TooSmall(f"cannot downsample a {w}x{h} plane")
    h2, w2 = h // 2, w // 2
    arr = arr[: 2 * h2, : 2 * w2]
    first = arr[0::2, 0::2].astype(_exact_sum_dtype(plane, 4), copy=False)
    pooled = (((first + arr[0::2, 1::2]) + arr[1::2, 0::2]) + arr[1::2, 1::2]) / (4.0 * plane_scale(plane))
    return LumaPlane(owned(pooled), plane.bit_depth) if isinstance(plane, LumaPlane) else pooled


def scale_scores(
    ref: PlaneLike,
    dist: PlaneLike,
    config: SsimConfig,
    volumes: Optional[Sequence["RollingVolume"]] = None,
) -> list[float]:
    """Per-scale scores over ``config.multiscale.levels`` scales: mean cs at
    scales 1..L-1, mean l*cs at the coarsest, each pooled as its bands are
    formed (``ssim._band_sums``).

    With ``volumes`` (one rolling volume per scale) each scale's pair is
    pushed into its volume and scored over the volume's temporal window.
    The constants follow the frames' bit depth (see ``ssim.frame_config``).
    """
    config = frame_config(config, ref, dist)
    levels = config.multiscale.levels
    if volumes is not None and len(volumes) != levels:
        raise ValidationError(f"{levels} scales need {levels} rolling volumes, got {len(volumes)}")
    k = config.window.k
    h, w = plane_data(ref).shape
    if min(h, w) // (1 << (levels - 1)) < k:
        raise TooManyLevels(
            f"a {k}x{k} window does not fit the coarsest of {levels} scales of a {w}x{h} image"
        )
    cur_ref, cur_dist = ref, dist
    scores: list[float] = []
    for level in range(levels):
        if level > 0:
            cur_ref = dyadic_downsample(cur_ref)
            cur_dist = dyadic_downsample(cur_dist)
        stats = _statistics(cur_ref, cur_dist, config, None if volumes is None else volumes[level])
        scores.append(_term_mean(stats, config, 3 if level == levels - 1 else 2))
    return scores


def combine_scale_scores(scores: list[float], spec: MultiscaleSpec) -> float:
    """Aggregate per-scale scores per the spec's exponents and mode."""
    exps = spec.effective_exponents()
    if len(scores) != len(exps):
        raise ValidationError(f"{len(scores)} scores for {len(exps)} exponents")
    if spec.aggregation == "sum":
        return float(sum(b * s for b, s in zip(exps, scores)))
    # product / fast4: negative means (possible on adversarial inputs) clamp
    # to 0 so fractional exponents stay real
    out = 1.0
    for b, s in zip(exps, scores):
        out *= max(s, 0.0) ** b
    return float(out)


def msssim(
    ref: PlaneLike,
    dist: PlaneLike,
    config: SsimConfig = SsimConfig(multiscale=MultiscaleSpec.product()),
    volumes: Optional[Sequence["RollingVolume"]] = None,
) -> float:
    """Multiscale SSIM score of a frame pair under ``config.multiscale``;
    ``volumes`` make it 3-D (see scale_scores)."""
    if not config.multiscale.enabled:
        raise ValidationError("multiscale aggregation is off; use ssim_score instead")
    validate_frame_pair(ref, dist)
    return combine_scale_scores(scale_scores(ref, dist, config, volumes), config.multiscale)
