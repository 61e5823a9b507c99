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
from .errors import EmptyMap
from .frames import ColorFrame, LumaPlane, PlaneLike, QualityMap, owned
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

    cs = (2 cov + C2) / (var1 + var2 + C2)
    l = (2 mu1 mu2 + C1) / (mu1^2 + mu2^2 + C1)
    q = l * cs

    Evaluated in place, cs and then l (its denominator first), into the
    rows of the whole ``grids`` given, with no other scratch: q's band holds
    each denominator until the last step, and l's band holds mu2^2 until
    l's denominator is formed. A term with no grid is formed over
    statistics it has spent (cs over cov, l over var2, q over var1), so no
    band is allocated for it and only mu1 survives.
    """
    n, sums = stats.grid_shape[0] * stats.grid_shape[1], None
    for rows, (mu1, mu2, var1, var2, cov) in stats.bands():
        lb, csb, den = (spent if g is None else g[rows] for g, spent in zip(grids, (var2, cov, var1)))
        np.multiply(2.0, cov, out=csb)
        csb += c2
        np.add(var1, var2, out=den)
        den += c2
        csb /= den
        np.multiply(mu1, mu1, out=den)
        den += np.multiply(mu2, mu2, out=lb)
        den += c1
        np.multiply(2.0, mu1, out=lb)
        lb *= mu2
        lb += c1
        lb /= den
        np.multiply(lb, csb, out=den)  # q
        values = terms(rows, mu1, lb, csb, den)
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
    """Mean SSIM of a frame pair: ``mssim(ssim_map(...))`` bit for bit,
    pooled as the bands are formed, with no whole map."""
    config = frame_config(config, ref, dist)
    return _term_mean(_statistics(ref, dist, config), config, 3)

