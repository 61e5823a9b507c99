"""SSIM quality maps and the pooled mean score.

The luminance term compares local means; the combined contrast-structure term
compares local variances and covariance (the common C3 = C2/2 choice folds
contrast and structure into one ratio). The per-window quality value is their
product, and has a unique maximum of 1 at identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import SsimConfig
from .errors import EmptyMap
from .frames import LumaPlane, PlaneLike, QualityMap, plane_data, validate_frame_pair
from .stats import LocalStatsMaps, _exact_pair, _exact_sums, banded_statistics, local_statistics


@dataclass(frozen=True)
class SsimTermMaps:
    """Luminance, contrast-structure, and combined quality maps, co-registered;
    ``mu1`` holds the reference's local means when they were asked for."""

    l_map: QualityMap
    cs_map: QualityMap
    q_map: QualityMap
    mu1: Optional[np.ndarray] = None


def _term_maps(bands, shape, geometry: dict, c1: float, c2: float, keep_mu1: bool = False) -> SsimTermMaps:
    """The l / cs / q maps (and the mu1 grid, if kept) of a ``shape`` grid
    from ``bands``: (grid rows, (mu1, mu2, var1, var2, cov) of those rows)
    pairs that cover it.

    l = (2 mu1 mu2 + C1) / (mu1^2 + mu2^2 + C1)
    cs = (2 cov + C2) / (var1 + var2 + C2)
    q = l * cs

    Evaluated in place, in the order written, band by band into the three
    result grids, with no other scratch: q's band holds each denominator
    until the last step, and cs's band holds mu2^2 until cs is formed. The
    statistics are left untouched.
    """
    l, cs, q = np.empty(shape), np.empty(shape), np.empty(shape)
    means = np.empty(shape) if keep_mu1 else None
    for rows, (mu1, mu2, var1, var2, cov) in bands:
        lb, csb, den = l[rows], cs[rows], q[rows]
        np.multiply(2.0, mu1, out=lb)
        lb *= mu2
        lb += c1
        np.multiply(mu1, mu1, out=den)
        den += np.multiply(mu2, mu2, out=csb)
        den += c1
        lb /= den
        np.multiply(2.0, cov, out=csb)
        csb += c2
        np.add(var1, var2, out=den)
        den += c2
        csb /= den
        np.multiply(lb, csb, out=den)  # q
        if means is not None:
            means[rows] = mu1
    maps = []
    for values in (l, cs, q):
        values.setflags(write=False)  # QualityMap keeps read-only arrays without a copy
        maps.append(QualityMap(values, **geometry))
    return SsimTermMaps(*maps, mu1=means)


def _banded_term_maps(compute, dims: tuple[int, int], engine: str, exact: bool, config: SsimConfig,
                      keep_mu1: bool) -> SsimTermMaps:
    """Term maps formed band by band with the statistics that
    ``compute(rows, out)`` gives under ``engine`` (see
    stats.banded_statistics), and the mu1 grid if ``keep_mu1``."""
    window = config.window
    shape, bands = banded_statistics(compute, dims, window, engine, exact)
    geometry = dict(stride=window.stride, source_dims=dims)
    return _term_maps(bands, shape, geometry, config.c1, config.c2, keep_mu1)


def term_maps_from_stats(stats: LocalStatsMaps, c1: float, c2: float) -> SsimTermMaps:
    """Build the l / cs / q maps from whole local statistics grids, band by
    band (see :func:`_term_maps`)."""
    geometry = dict(stride=stats.stride, source_dims=stats.source_dims)
    return _term_maps(stats.bands(), stats.grid_shape, geometry, c1, c2)


def frame_config(config: SsimConfig, ref: PlaneLike, dist: PlaneLike) -> SsimConfig:
    """``config`` with the bit depth of the pair's LumaPlanes; bare arrays keep ``config.bit_depth``."""
    depths = [plane.bit_depth for plane in (ref, dist) if isinstance(plane, LumaPlane)]
    return config.for_bit_depth(depths[0]) if depths else config


def ssim_map(ref: PlaneLike, dist: PlaneLike, config: SsimConfig = SsimConfig()) -> SsimTermMaps:
    """SSIM term maps of a frame pair, with constants for its bit depth (see frame_config)."""
    return _frame_term_maps(ref, dist, config)


def _frame_term_maps(ref: PlaneLike, dist: PlaneLike, config: SsimConfig, keep_mu1: bool = False) -> SsimTermMaps:
    """:func:`ssim_map`, with the reference's local means (``mu1``) if
    ``keep_mu1``.

    Statistics and maps are formed together, BAND_ROWS grid rows at a time
    (see :func:`~ssimkit.stats.banded_statistics`): each band's
    ``local_statistics`` reads only the rows its windows cover, so only
    float planes under rectangular windows (whose summed-area tables round
    over the whole plane) ever hold whole statistics grids.
    """
    config = frame_config(config, ref, dist)
    ref, dist = validate_frame_pair(ref, dist)
    a, b = plane_data(ref), plane_data(dist)

    def compute(rows, out):
        return local_statistics(a[rows], b[rows], config.window, config.engine, out)

    exact = _exact_pair(a, b, config.window.k**2)
    return _banded_term_maps(compute, a.shape, config.engine, exact, config, keep_mu1)


def _volume_term_maps(vol, config: SsimConfig, keep_mu1: bool = False) -> SsimTermMaps:
    """SSIM term maps over a ``RollingVolume``'s current temporal window
    (any object with its ``temporal_sums`` and ``local_statistics``), with
    ``config.window`` as the spatial window, formed band by band of the
    running sums as :func:`_frame_term_maps` forms a frame pair's, with
    the reference's local means (``mu1``) if ``keep_mu1``."""
    sums = vol.temporal_sums()

    def compute(rows, out):
        return vol.local_statistics(config.window, rows, out)

    exact = _exact_sums(sums, config.window.k**2)
    return _banded_term_maps(compute, sums[0].shape, "auto", exact, config, keep_mu1)


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

