"""SSIM quality maps and the pooled mean score.

The luminance term compares local means; the combined contrast-structure term
compares local variances and covariance (the common C3 = C2/2 choice folds
contrast and structure into one ratio). The per-window quality value is their
product, and has a unique maximum of 1 at identical inputs.

The terms are formed band by band with the statistics (:func:`_band_sums`).
The public map functions write them into whole grids; the scorers pool each
band as it is formed, bit for bit as numpy pools a whole grid, and keep none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import SsimConfig
from .errors import EmptyMap
from .frames import LumaPlane, PlaneLike, QualityMap, plane_data, plane_scale, validate_frame_pair
from .stats import BandedSum, LocalStatsMaps, _product_dtype, banded_statistics, local_statistics


@dataclass(frozen=True)
class SsimTermMaps:
    """Luminance, contrast-structure, and combined quality maps, co-registered."""

    l_map: QualityMap
    cs_map: QualityMap
    q_map: QualityMap


def _band_sums(source, c1: float, c2: float, terms, grids=(None, None, None)) -> tuple[list[float], int]:
    """Totals of the arrays ``terms(mu1, l, cs, q)`` gives for each band of
    ``source`` (:func:`_frame_bands`), each numpy's sum of its whole grid bit
    for bit (stats.BandedSum), and the window count.

    cs = (2 cov + C2) / (var1 + var2 + C2)
    l = (2 mu1 mu2 + C1) / (mu1^2 + mu2^2 + C1)
    q = l * cs

    Evaluated in place, cs and then l (its denominator first), into the
    rows of the whole ``grids`` given, with no other scratch: q's band holds
    each denominator until the last step, and l's band holds mu2^2 until
    l's denominator is formed. A term with no grid is formed over
    statistics it has spent (cs over cov, l over var2, q over var1), so no
    band is allocated for it and only mu1 survives; with all three grids
    the statistics are untouched.
    """
    _, shape, bands = source
    n, sums = shape[0] * shape[1], None
    for rows, (mu1, mu2, var1, var2, cov) in bands:
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
        values = terms(mu1, lb, csb, den)
        sums = sums or [BandedSum(n) for _ in values]
        for total, x in zip(sums, values):
            total.add(x)
    return [total.total() for total in sums], n


def _term_maps(source, c1: float, c2: float) -> SsimTermMaps:
    """The whole l / cs / q maps of ``source``'s grid."""
    geometry, shape, _ = source
    grids = [np.empty(shape) for _ in range(3)]
    _band_sums(source, c1, c2, lambda *band: (), grids)
    for values in grids:
        values.setflags(write=False)  # QualityMap keeps read-only arrays without a copy
    return SsimTermMaps(*(QualityMap(values, **geometry) for values in grids))


def _term_mean(source, config: SsimConfig, term: int) -> float:
    """The mean of ``source``'s l (term 1), cs (2) or q (3) grid, pooled as
    its bands are formed."""
    (total,), n = _band_sums(source, config.c1, config.c2, lambda *band: (band[term],))
    return total / n


def term_maps_from_stats(stats: LocalStatsMaps, c1: float, c2: float) -> SsimTermMaps:
    """Build the l / cs / q maps from whole local statistics grids, band by
    band (see :func:`_band_sums`)."""
    geometry = dict(stride=stats.stride, source_dims=stats.source_dims)
    return _term_maps((geometry, stats.grid_shape, stats.bands()), c1, c2)


def frame_config(config: SsimConfig, ref: PlaneLike, dist: PlaneLike) -> SsimConfig:
    """``config`` with the bit depth of the pair's LumaPlanes; bare arrays keep ``config.bit_depth``."""
    depths = [plane.bit_depth for plane in (ref, dist) if isinstance(plane, LumaPlane)]
    return config.for_bit_depth(depths[0]) if depths else config


def ssim_map(ref: PlaneLike, dist: PlaneLike, config: SsimConfig = SsimConfig()) -> SsimTermMaps:
    """SSIM term maps of a frame pair, with constants for its bit depth (see frame_config)."""
    config = frame_config(config, ref, dist)
    return _term_maps(_frame_bands(ref, dist, config), config.c1, config.c2)


def _frame_bands(ref: PlaneLike, dist: PlaneLike, config: SsimConfig):
    """The map geometry, grid shape and statistics bands of a frame pair.

    Statistics are formed BAND_ROWS grid rows at a time (see
    :func:`~ssimkit.stats.banded_statistics`): each band's
    ``local_statistics`` reads only the rows its windows cover, so only
    float planes under rectangular windows (whose summed-area tables round
    over the whole plane), and integer pairs whose products could pass
    int64, ever hold whole statistics grids.
    """
    ref, dist = validate_frame_pair(ref, dist)
    a, b, scale = plane_data(ref), plane_data(dist), plane_scale(ref)

    def compute(rows, out):
        return local_statistics(a[rows], b[rows], config.window, config.engine, out, scale)

    integer = _product_dtype(ref, dist).kind in "ui"
    geometry = dict(stride=config.window.stride, source_dims=a.shape)
    return geometry, *banded_statistics(compute, a.shape, config.window, config.engine, integer)


def _volume_bands(vol, config: SsimConfig):
    """:func:`_frame_bands` of a ``RollingVolume``'s current temporal window
    (any object with its ``temporal_sums`` and ``local_statistics``), band
    by band of the running sums."""
    sums = vol.temporal_sums()

    def compute(rows, out):
        return vol.local_statistics(config.window, rows, out)

    geometry = dict(stride=config.window.stride, source_dims=sums[0].shape)
    return geometry, *banded_statistics(compute, sums[0].shape, config.window, "auto", sums[0].dtype.kind in "ui")


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
    return _term_mean(_frame_bands(ref, dist, config), config, 3)

