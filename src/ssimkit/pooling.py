"""Spatial pooling of quality maps and temporal pooling of score series.

Spatial poolers collapse one quality map to a frame score; temporal poolers
collapse a per-frame score series to a sequence score. Minkowski-style
operators work on dissimilarity (1 - Q) since local quality can be negative;
geometric/harmonic means are temporal-only and clamp their inputs at a small
positive floor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .config import _intval, _num, selector_args, split_selector
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

SPATIAL_KINDS = ("am", "cov", "md", "fns", "dw", "mink", "lw", "pp")
TEMPORAL_KINDS = (
    "am", "gm", "hm", "median", "cov",
    "wam", "wgm", "whm", "wcov",
    "md", "fns", "dw", "mink", "pp",
)

#: Each kind's parameters in positional order, with their selector defaults
#: (None: the selector must give it). ``k`` is an integer, the rest floats.
#: The table drives validation, parsing, ``selector()`` and dispatch alike.
_PARAMS: dict[str, tuple[tuple[str, Optional[float]], ...]] = {
    **{kind: () for kind in ("am", "cov", "fns", "gm", "hm", "median")},
    "md": (("p", 2.0), ("o", 1.0)),
    "dw": (("p", 1.0),),
    "mink": (("p", 1.0),),
    "lw": (("a", 0.0), ("b", 0.0)),
    "pp": (("ps", 6.0), ("rs", 1.0)),
    **{kind: (("k", None),) for kind in ("wam", "wgm", "whm", "wcov")},
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


def _check(pool, kinds: tuple[str, ...], domain: str) -> None:
    """Reject an unknown kind, a parameter out of range, and a field the kind
    does not read that is set away from its default."""
    if pool.kind not in kinds:
        raise ValidationError(f"unknown {domain} pooler {pool.kind!r}")
    read = [name for name, _ in _PARAMS[pool.kind]]
    for name in read:
        if name in _CHECKS and not _CHECKS[name][0](getattr(pool, name)):
            raise ValidationError(f"{pool.kind} pooling needs {_CHECKS[name][1]}")
    for f in fields(pool):
        if f.name not in read and f.name != "kind" and getattr(pool, f.name) != f.default:
            raise ValidationError(f"{pool.kind} pooling takes no {f.name}")


def _values(pool) -> list:
    """The pooler's parameter values, in the order its kind lists them."""
    return [getattr(pool, name) for name, _ in _PARAMS[pool.kind]]


def _selector(pool) -> str:
    args = [f"{n}={getattr(pool, n)}" if n == "k" else f"{n}={getattr(pool, n):g}" for n, _ in _PARAMS[pool.kind]]
    return f"{pool.kind}:{','.join(args)}" if args else pool.kind


@dataclass(frozen=True)
class SpatialPooler:
    kind: str
    p: float = 1.0        # md / dw / mink exponent
    o: float = 1.0        # md outer exponent
    a: float = 0.0        # lw lower luminance limit
    b: float = 0.0        # lw ramp length
    ps: float = 6.0       # pp percentile of lowest values
    rs: float = 1.0       # pp down-weighting divisor

    def __post_init__(self):
        _check(self, SPATIAL_KINDS, "spatial")

    def selector(self) -> str:
        return _selector(self)


@dataclass(frozen=True)
class TemporalPooler:
    kind: str
    k: int = 1            # window length for windowed forms
    p: float = 1.0
    o: float = 1.0
    ps: float = 6.0
    rs: float = 1.0

    def __post_init__(self):
        _check(self, TEMPORAL_KINDS, "temporal")

    def selector(self) -> str:
        return _selector(self)


def _parse(cls, kinds: tuple[str, ...], domain: str, text: str):
    """A pooler from its selector: positional values fill the kind's
    parameters in order, keywords name them; anything else is rejected."""
    name, pos, kw = split_selector(text)
    if name not in kinds:
        raise ValidationError(f"unknown {domain} pooler {name!r}")
    params = _PARAMS[name]
    args = selector_args(f"{name} pooling", pos, kw, [n for n, _ in params], len(params), _ALIASES)
    values = {}
    for param, default in params:
        if param in args:
            values[param] = _intval(args[param], name) if param == "k" else _num(args[param], name)
        elif default is None:
            raise ValidationError(f"{name} pooling needs {param}, e.g. {name}:{param}=10")
        else:
            values[param] = default
    return cls(name, **values)


def parse_spatial(text: str) -> SpatialPooler:
    """Parse a spatial pooler selector, e.g. ``cov`` or ``md:p=2,o=3``."""
    return _parse(SpatialPooler, SPATIAL_KINDS, "spatial", text)


def parse_temporal(text: str) -> TemporalPooler:
    """Parse a temporal pooler selector, e.g. ``wam:k=3`` or ``pp:ps=6,rs=4000``."""
    return _parse(TemporalPooler, TEMPORAL_KINDS, "temporal", text)


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


def _dw_stat(v: np.ndarray, p: float) -> float:
    w = (1.0 - v) ** p
    total = w.sum()
    if total == 0.0:
        return float(v.mean())  # all values exactly 1: uniform-weight fallback
    return float((w * v).sum() / total)


def _mink_stat(v: np.ndarray, p: float) -> float:
    return float(((1.0 - v) ** p).mean())


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
#: in table order. lw, which also needs the reference luma, is pool_spatial's.
_STATS = {
    "am": lambda v: float(v.mean()),
    "gm": _gm_stat,
    "hm": _hm_stat,
    "median": lambda v: float(np.median(v)),
    "cov": _cov_stat,
    "md": _md_stat,
    "fns": _fns_stat,
    "dw": _dw_stat,
    "mink": _mink_stat,
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
        return _STATS[pool.kind](v, *_values(pool))
    if ref_luma is None:
        raise MissingLumaForLW("lw pooling needs the reference mean-luminance map")
    mu = ref_luma.values if isinstance(ref_luma, QualityMap) else np.asarray(ref_luma, dtype=np.float64)
    mu = mu.reshape(-1)
    if mu.shape != v.shape:
        raise MissingLumaForLW("mean-luminance map is not co-registered with the quality map")
    if pool.b == 0.0:
        w = (mu >= pool.a).astype(np.float64)
    else:
        w = np.clip((mu - pool.a) / pool.b, 0.0, 1.0)
    return float((w * v).mean())


def pool_temporal(series: Union[ScoreSeries, np.ndarray], method: Union[TemporalPooler, str]) -> float:
    """Collapse a per-frame score series to one sequence score."""
    pool = parse_temporal(method) if isinstance(method, str) else method
    v = series.scores if isinstance(series, ScoreSeries) else np.asarray(series, dtype=np.float64)
    v = v.reshape(-1)
    if v.size == 0:
        raise EmptySeries("cannot pool an empty score series")
    return _STATS[pool.kind](v, *_values(pool))
