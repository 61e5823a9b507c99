"""Spatial pooling of quality maps and temporal pooling of score series.

Spatial poolers collapse one quality map to a frame score; temporal poolers
collapse a per-frame score series to a sequence score. Minkowski-style
operators work on dissimilarity (1 - Q) since local quality can be negative;
geometric/harmonic means are temporal-only and clamp their inputs at a small
positive floor.

Both domains share one row per kind, read through the same
:class:`~ssimkit.config.KindTable` as every config part; dispatch passes the
kind's parameters, in row order, to its statistic. The am, mink, lw and dw
statistics are functions of sums over the map, so the scorer pools them as
the map's bands are formed (:func:`band_terms`); the others get a whole map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import REQUIRED, ConfigPart, KindTable, Param
from .errors import (
    EmptyMap,
    EmptySeries,
    MissingLumaForLW,
    ValidationError,
    ZeroMeanCoV,
)
from .frames import QualityMap, ScoreSeries

#: Floor applied to geometric/harmonic mean inputs.
MEAN_EPS = 1e-6


def _kind(*params: str, **defaults: float) -> tuple[Param, ...]:
    """A pooler kind's parameters, keyed by their field names and each also
    settable by position."""
    return tuple(Param(name, name, defaults.get(name), positional=True) for name in params)


#: Each pooler kind's parameters, shared by both domains. ``k`` is an
#: integer, the rest floats. The tables built from it drive validation,
#: parsing, ``selector()`` and dispatch alike.
_KINDS = {
    **{kind: _kind() for kind in ("am", "cov", "fns", "gm", "hm", "median")},
    "md": _kind("p", "o", p=2.0),
    "dw": _kind("p"),
    "mink": _kind("p"),
    "lw": _kind("a", "b"),
    "pp": _kind("ps", "rs"),
    **{kind: _kind("k", k=REQUIRED) for kind in ("wam", "wgm", "whm", "wcov")},
}

#: Other selector spellings of pp's parameters, in both domains.
_ALIASES = {"p": "ps", "pt": "ps", "r": "rs", "rt": "rs"}

#: What a parameter must satisfy, and the message when it does not.
_CHECKS = {
    "k": (lambda v: isinstance(v, int) and v >= 1, "an integer window k >= 1"),
    "p": (lambda v: v > 0, "p > 0"),
    "o": (lambda v: v > 0, "o > 0"),
    "b": (lambda v: v >= 0, "a ramp length b >= 0"),
    "ps": (lambda v: 0.0 <= v <= 100.0, "a percentile ps in [0, 100]"),
    "rs": (lambda v: v >= 1, "a divisor rs >= 1"),
}


class _Pooler(ConfigPart):
    def _check(self) -> None:
        for name, value in vars(self).items():
            if name in _CHECKS and not _CHECKS[name][0](value):
                raise ValidationError(f"{self.kind} pooling needs {_CHECKS[name][1]}")


@dataclass(frozen=True)
class SpatialPooler(_Pooler):
    kind: str
    p: Optional[float] = None   # md / dw / mink exponent; None: the kind's default
    o: Optional[float] = None   # md outer exponent
    a: Optional[float] = None   # lw lower luminance limit
    b: Optional[float] = None   # lw ramp length
    ps: Optional[float] = None  # pp percentile of lowest values
    rs: Optional[float] = None  # pp down-weighting divisor


@dataclass(frozen=True)
class TemporalPooler(_Pooler):
    kind: str
    k: Optional[int] = None     # window length for windowed forms; None: the kind's default
    p: Optional[float] = None
    o: Optional[float] = None
    ps: Optional[float] = None
    rs: Optional[float] = None


_SPATIAL = KindTable(
    "spatial pooler", SpatialPooler, "kind",
    rest=dict(p=1.0, o=1.0, a=0.0, b=0.0, ps=6.0, rs=1.0),
    kinds={kind: _KINDS[kind] for kind in ("am", "cov", "md", "fns", "dw", "mink", "lw", "pp")},
    aliases=_ALIASES,
)
_TEMPORAL = KindTable(
    "temporal pooler", TemporalPooler, "kind",
    rest=dict(k=1, p=1.0, o=1.0, ps=6.0, rs=1.0),
    kinds={kind: params for kind, params in _KINDS.items() if kind != "lw"},  # lw needs a luma map
    aliases=_ALIASES,
)


def parse_spatial(text: str) -> SpatialPooler:
    """Parse a spatial pooler selector, e.g. ``cov`` or ``md:p=2,o=3``."""
    return _SPATIAL.parse(text)


def parse_temporal(text: str) -> TemporalPooler:
    """Parse a temporal pooler selector, e.g. ``wam:k=3`` or ``pp:ps=6,rs=4000``."""
    return _TEMPORAL.parse(text)


# ---------------------------------------------------------------------------
# base statistics shared by spatial and temporal paths
# ---------------------------------------------------------------------------

def _cov_stat(v: np.ndarray) -> float:
    mean = v.mean()
    if mean == 0.0:
        raise ZeroMeanCoV("coefficient of variation is undefined for a zero-mean input")
    return float(v.std() / mean)


def _md_stat(v: np.ndarray, p: float, o: float) -> float:
    dev = np.abs(v - v.mean()) ** p
    return float((dev.mean() ** (1.0 / p)) ** o)


def _fns_stat(v: np.ndarray) -> float:
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    return float((v.min() + q1 + med + q3 + v.max()) / 5.0)


def _dw_terms(v: np.ndarray, mu, p: float) -> tuple:
    w = (1.0 - v) ** p
    return w, w * v


def _lw_terms(v: np.ndarray, mu: np.ndarray, a: float, b: float) -> tuple:
    w = (mu >= a).astype(np.float64) if b == 0.0 else np.clip((mu - a) / b, 0.0, 1.0)
    return (w * v,)


#: The kinds whose statistic is a function of sums, so that a map pools band by
#: band (:func:`band_terms`): the terms each sums besides the values v (mu: the
#: reference's local means), and its statistic of the sums (v's first), the
#: value count and its parameters. dw weighs uniformly when every v is 1.
_SUMMED = {
    "am": (lambda v, mu: (), lambda s, n: s[0] / n),
    "mink": (lambda v, mu, p: ((1.0 - v) ** p,), lambda s, n, p: s[1] / n),
    "lw": (_lw_terms, lambda s, n, a, b: s[1] / n),
    "dw": (_dw_terms, lambda s, n, p: s[0] / n if s[1] == 0.0 else s[2] / s[1]),
}


def _summed_stat(kind: str, v: np.ndarray, *params, mu=None) -> float:
    terms, stat = _SUMMED[kind]
    return float(stat([np.add.reduce(t) for t in (v, *terms(v, mu, *params))], v.size, *params))


def band_terms(pool: SpatialPooler):
    """``(terms, score)`` that pool a map band by band as :func:`pool_spatial`
    pools it whole, bit for bit: ``terms(v, mu)`` are the arrays to sum over
    a band's values and reference local means (v first), ``score(sums, n)``
    the score of their totals (``stats.BandedSum``) over all n values. The
    kinds that need the whole map (cov, md, fns, pp) sum v and have no score."""
    if pool.kind not in _SUMMED:
        return (lambda v, mu: (v,)), None
    terms, stat = _SUMMED[pool.kind]
    params = _SPATIAL.values(pool)
    return (lambda v, mu: (v, *terms(v, mu, *params))), (lambda sums, n: float(stat(sums, n, *params)))


def _pp_stat(v: np.ndarray, ps: float, rs: float) -> float:
    if ps <= 0.0 or rs == 1.0:
        return float(v.mean())
    cutoff = np.percentile(v, ps)
    scaled = np.where(v <= cutoff, v / rs, v)
    return float(scaled.mean())


def _gm_stat(v: np.ndarray) -> float:
    return float(np.exp(np.log(np.maximum(v, MEAN_EPS)).mean()))


def _hm_stat(v: np.ndarray) -> float:
    return float(1.0 / (1.0 / np.maximum(v, MEAN_EPS)).mean())


def _windowed(base):
    """Base statistic over every length-k sliding window, then the mean of the
    window statistics; short series collapse to one window."""

    def stat(v: np.ndarray, k: int) -> float:
        k = min(k, v.size)
        return float(np.mean([base(v[i : i + k]) for i in range(v.size - k + 1)]))

    return stat


#: Each kind's statistic; it takes the values and then the kind's parameters
#: in table order (lw, spatial only, also the reference's local means, mu=).
_STATS = {
    **{kind: functools.partial(_summed_stat, kind) for kind in _SUMMED},
    "gm": _gm_stat,
    "hm": _hm_stat,
    "median": lambda v: float(np.median(v)),
    "cov": _cov_stat,
    "md": _md_stat,
    "fns": _fns_stat,
    "pp": _pp_stat,
}
_STATS.update({"w" + kind: _windowed(_STATS[kind]) for kind in ("am", "gm", "hm", "cov")})


def pool_spatial(
    qmap: Union[QualityMap, np.ndarray],
    method: Union[SpatialPooler, str],
    ref_luma: Optional[Union[QualityMap, np.ndarray]] = None,
) -> float:
    """Collapse a quality map to one frame score.

    ``ref_luma`` is the reference image's local-mean map on the same window
    grid; it is required by (and only by) luminance-weighted pooling.
    """
    pool = parse_spatial(method) if isinstance(method, str) else method
    v = qmap.values if isinstance(qmap, QualityMap) else np.asarray(qmap, dtype=np.float64)
    if v.size == 0:
        raise EmptyMap("cannot pool an empty quality map")
    v = v.reshape(-1)
    if pool.kind != "lw":
        return _STATS[pool.kind](v, *_SPATIAL.values(pool))
    if ref_luma is None:
        raise MissingLumaForLW("lw pooling needs the reference mean-luminance map")
    mu = ref_luma.values if isinstance(ref_luma, QualityMap) else np.asarray(ref_luma, dtype=np.float64)
    mu = mu.reshape(-1)
    if mu.shape != v.shape:
        raise MissingLumaForLW("mean-luminance map is not co-registered with the quality map")
    return _STATS["lw"](v, pool.a, pool.b, mu=mu)


def pool_temporal(series: Union[ScoreSeries, np.ndarray], method: Union[TemporalPooler, str]) -> float:
    """Collapse a per-frame score series to one sequence score."""
    pool = parse_temporal(method) if isinstance(method, str) else method
    v = series.scores if isinstance(series, ScoreSeries) else np.asarray(series, dtype=np.float64)
    v = v.reshape(-1)
    if v.size == 0:
        raise EmptySeries("cannot pool an empty score series")
    return _STATS[pool.kind](v, *_TEMPORAL.values(pool))
