"""SSIM quality maps and the pooled mean score.

The luminance term compares local means; the combined contrast-structure term
compares local variances and covariance (the common C3 = C2/2 choice folds
contrast and structure into one ratio). The per-window quality value is their
product, and has a unique maximum of 1 at identical inputs.

The terms are formed band by band as the statistics' bands are
(:func:`_band_sums`). The public map functions write them into whole grids;
the scorers pool each band as it is formed, bit for bit as numpy pools a
whole grid, and keep none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import SsimConfig
from .frames import ColorFrame, LumaPlane, PlaneLike, QualityMap, _map_values, owned
from .stats import BandedSum, LocalStatsMaps, local_statistics


@dataclass(frozen=True)
class SsimTermMaps:
    """Luminance, contrast-structure, and combined quality maps, co-registered."""

    l_map: QualityMap
    cs_map: QualityMap
    q_map: QualityMap


def _band_sums(stats: LocalStatsMaps, c1: float, c2: float, terms, grids=(None, None, None)) -> tuple[list[float], int]:
    """Totals of the arrays ``terms(rows, mu1, l, cs, q)`` gives for each
    band of ``stats`` (``LocalStatsMaps.bands``) and its grid ``rows``, each
    numpy's sum of its whole grid bit for bit (stats.BandedSum), and the
    window count: the one way an SSIM map is pooled.

    Each band's l and cs are the quotients of the numerators and denominators
    every statistics route yields (``stats.window_statistics``), and q = l * cs,
    written into the rows of the whole ``grids`` given or, with no grid, over
    the band's l and cs numerators and l denominator.
    """
    n, sums = stats.grid_shape[0] * stats.grid_shape[1], None
    for rows, (mu1, l_num, l_den, cs_num, cs_den) in stats.bands(c1, c2):
        lb, csb, qb = (spent if g is None else g[rows] for g, spent in zip(grids, (l_num, cs_num, l_den)))
        np.divide(cs_num, cs_den, out=csb)
        np.divide(l_num, l_den, out=lb)
        np.multiply(lb, csb, out=qb)
        values = terms(rows, mu1, lb, csb, qb)
        sums = sums or [BandedSum(n) for _ in values]
        for total, x in zip(sums, values):
            total.add(x)
    return [total.total() for total in sums], n


def _term_mean(stats: LocalStatsMaps, config: SsimConfig, term: int) -> float:
    """The mean of the l (term 1), cs (2) or q (3) grid of ``stats``,
    pooled as its bands are formed."""
    (total,), n = _band_sums(stats, config.c1, config.c2, lambda rows, *band: (band[term],))
    return total / n


def term_maps_from_stats(stats: LocalStatsMaps, c1: float, c2: float) -> SsimTermMaps:
    """The whole l / cs / q maps of local statistics, formed band by band
    (see :func:`_band_sums`)."""
    grids = [np.empty(stats.grid_shape) for _ in range(3)]
    _band_sums(stats, c1, c2, lambda *band: (), grids)
    return SsimTermMaps(*(QualityMap(owned(values), stats.stride, stats.source_dims) for values in grids))


def frame_config(config: SsimConfig, ref: PlaneLike | ColorFrame, dist: PlaneLike | ColorFrame) -> SsimConfig:
    """``config`` with the bit depth of the pair's LumaPlanes or ColorFrames; bare arrays keep ``config.bit_depth``."""
    depths = [frame.bit_depth for frame in (ref, dist) if isinstance(frame, (LumaPlane, ColorFrame))]
    return config.for_bit_depth(depths[0]) if depths else config


def _statistics(ref: PlaneLike, dist: PlaneLike, config: SsimConfig, volume=None) -> LocalStatsMaps:
    """The local statistics of a frame pair under ``config``; with a
    ``RollingVolume``, those of its temporal window once the pair is pushed
    into it."""
    if volume is None:
        return local_statistics(ref, dist, config.window, config.engine)
    return volume.push(ref, dist).local_statistics(config.window, config.engine)


def ssim_map(ref: PlaneLike, dist: PlaneLike, config: SsimConfig = SsimConfig()) -> SsimTermMaps:
    """SSIM term maps of a frame pair, with constants for its bit depth (see frame_config)."""
    config = frame_config(config, ref, dist)
    return term_maps_from_stats(_statistics(ref, dist, config), config.c1, config.c2)


def mssim(maps: Union[SsimTermMaps, QualityMap, np.ndarray]) -> float:
    """Mean of the quality map: the conventional single score per image. A
    bare map is checked as ``frames._map_values`` checks it."""
    return float(_map_values(maps.q_map if isinstance(maps, SsimTermMaps) else maps).mean())


def ssim_score(ref: PlaneLike, dist: PlaneLike, config: SsimConfig = SsimConfig()) -> float:
    """Mean SSIM of a frame pair: ``mssim(ssim_map(...))`` bit for bit,
    pooled as the bands are formed, with no whole map."""
    config = frame_config(config, ref, dist)
    return _term_mean(_statistics(ref, dist, config), config, 3)

