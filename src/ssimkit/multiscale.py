"""Multiscale SSIM over a dyadic pyramid.

Contrast-structure similarity is pooled at every scale; luminance enters only
at the coarsest scale (through the full per-window l*cs map). Scores combine
as an exponent-weighted product, a normalized weighted sum, or the fast
4-level product with renormalized exponents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .config import MultiscaleSpec, SsimConfig
from .errors import TooManyLevels, TooSmall, ValidationError
from .frames import LumaPlane, PlaneLike, plane_data, validate_frame_pair
from .ssim import mssim, ssim_map, term_maps_from_stats

if TYPE_CHECKING:
    from .spatiotemporal import RollingVolume


def dyadic_downsample(plane: PlaneLike) -> PlaneLike:
    """Half-resolution plane by 2x2 average pooling; odd trailing row/column dropped.

    A LumaPlane comes back as a LumaPlane; a raw array comes back raw.
    """
    arr = np.asarray(plane_data(plane), dtype=np.float64)
    h, w = arr.shape
    if h < 2 or w < 2:
        raise TooSmall(f"cannot downsample a {w}x{h} plane")
    h2, w2 = h // 2, w // 2
    arr = arr[: 2 * h2, : 2 * w2]
    pooled = (arr[0::2, 0::2] + arr[0::2, 1::2] + arr[1::2, 0::2] + arr[1::2, 1::2]) / 4.0
    if isinstance(plane, LumaPlane):
        return LumaPlane(pooled, plane.bit_depth)
    return pooled


def scale_scores(
    ref: PlaneLike,
    dist: PlaneLike,
    config: SsimConfig,
    levels: int,
    volumes: Optional[Sequence["RollingVolume"]] = None,
) -> list[float]:
    """Per-scale scores: mean cs at scales 1..L-1, mean l*cs at the coarsest.

    With ``volumes`` (one rolling volume per scale) each scale's pair is
    pushed into its volume and scored over the volume's temporal window.
    """
    if levels < 1:
        raise ValidationError("need at least one scale")
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
        if volumes is None:
            maps = ssim_map(cur_ref, cur_dist, config)
        else:
            stats = volumes[level].push(cur_ref, cur_dist).local_statistics(config.window)
            maps = term_maps_from_stats(stats, config.c1, config.c2)
        if level == levels - 1:
            scores.append(mssim(maps.q_map))
        else:
            scores.append(mssim(maps.cs_map))
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
    config: SsimConfig = SsimConfig(),
    spec: MultiscaleSpec | None = None,
    volumes: Optional[Sequence["RollingVolume"]] = None,
) -> float:
    """Multiscale SSIM score of a frame pair; ``volumes`` make it 3-D (see scale_scores)."""
    if spec is None:
        spec = MultiscaleSpec.product()
    if not spec.enabled:
        raise ValidationError("multiscale aggregation is off; use ssim_score instead")
    validate_frame_pair(ref, dist)
    scores = scale_scores(ref, dist, config, spec.levels, volumes)
    return combine_scale_scores(scores, spec)
