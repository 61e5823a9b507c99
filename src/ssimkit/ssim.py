"""SSIM quality maps and the pooled mean score.

The luminance term compares local means; the combined contrast-structure term
compares local variances and covariance (the common C3 = C2/2 choice folds
contrast and structure into one ratio). The per-window quality value is their
product, and has a unique maximum of 1 at identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import SsimConfig
from .errors import EmptyMap
from .frames import LumaPlane, PlaneLike, QualityMap
from .stats import BAND_ROWS, LocalStatsMaps, local_statistics


@dataclass(frozen=True)
class SsimTermMaps:
    """Luminance, contrast-structure, and combined quality maps, co-registered."""

    l_map: QualityMap
    cs_map: QualityMap
    q_map: QualityMap


def term_maps_from_stats(stats: LocalStatsMaps, c1: float, c2: float) -> SsimTermMaps:
    """Build the l / cs / q maps from local statistics grids.

    l = (2 mu1 mu2 + C1) / (mu1^2 + mu2^2 + C1)
    cs = (2 cov + C2) / (var1 + var2 + C2)
    q = l * cs

    Evaluated in place, in the order written, band by band of rows into the
    three result grids plus one band of scratch; the statistics are left
    untouched.
    """
    shape = stats.mu1.shape
    l, cs, q = np.empty(shape), np.empty(shape), np.empty(shape)
    scratch = np.empty((min(BAND_ROWS, shape[0]), shape[1]))
    for top in range(0, shape[0], BAND_ROWS):
        rows = slice(top, top + BAND_ROWS)
        mu1, mu2, lb, csb, qb = stats.mu1[rows], stats.mu2[rows], l[rows], cs[rows], q[rows]
        den = scratch[: len(lb)]
        np.multiply(2.0, mu1, out=lb)
        lb *= mu2
        lb += c1
        np.multiply(mu1, mu1, out=den)
        den += np.multiply(mu2, mu2, out=qb)  # q's band is free until the last step
        den += c1
        lb /= den
        np.multiply(2.0, stats.cov[rows], out=csb)
        csb += c2
        np.add(stats.var1[rows], stats.var2[rows], out=den)
        den += c2
        csb /= den
        np.multiply(lb, csb, out=qb)
    geometry = dict(stride=stats.stride, source_dims=stats.source_dims)
    maps = []
    for values in (l, cs, q):
        values.setflags(write=False)  # QualityMap keeps read-only arrays without a copy
        maps.append(QualityMap(values, **geometry))
    return SsimTermMaps(*maps)


def frame_config(config: SsimConfig, ref: PlaneLike, dist: PlaneLike) -> SsimConfig:
    """``config`` with the bit depth of the pair's LumaPlanes; bare arrays keep ``config.bit_depth``."""
    depths = [plane.bit_depth for plane in (ref, dist) if isinstance(plane, LumaPlane)]
    return config.for_bit_depth(depths[0]) if depths else config


def ssim_map(ref: PlaneLike, dist: PlaneLike, config: SsimConfig = SsimConfig()) -> SsimTermMaps:
    """SSIM term maps of a frame pair, with constants for its bit depth (see frame_config)."""
    config = frame_config(config, ref, dist)
    stats = local_statistics(ref, dist, config.window, config.engine)
    return term_maps_from_stats(stats, config.c1, config.c2)


def mssim(maps: Union[SsimTermMaps, QualityMap, np.ndarray]) -> float:
    """Mean of the quality map: the conventional single score per image."""
    if isinstance(maps, SsimTermMaps):
        values = maps.q_map.values
    elif isinstance(maps, QualityMap):
        values = maps.values
    else:
        values = np.asarray(maps, dtype=np.float64)
    if values.size == 0:
        raise EmptyMap("cannot average an empty quality map")
    return float(values.mean())


def ssim_score(ref: PlaneLike, dist: PlaneLike, config: SsimConfig = SsimConfig()) -> float:
    """Convenience wrapper: mean SSIM of a frame pair."""
    return mssim(ssim_map(ref, dist, config))

