"""Scoring configuration: windows, scaling, color model, pooling, multiscale.

A fully populated :class:`SsimConfig` determines a scoring pipeline. Every
piece is expressible in a compact selector string (``rect:11``, ``dh:3.0``,
``cw:a=-0.3,b=-0.3``, ...) used by the CLI and round-trips bit-exactly through
JSON.

Each part that comes in kinds (window, scale policy, color model,
multiscale mode, and the poolers in :mod:`ssimkit.pooling`) has one
:class:`KindTable`, whose rows give each kind's fields, selector keys and
defaults. The rows fill and check the dataclass, parse the selector and
print ``selector()``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Any, NamedTuple, Optional

from .errors import DegenerateWeights, NonPositiveSigma, SsimkitError, ValidationError, check_integer

#: Standard per-scale exponents of the 5-level multiscale formulation. The
#: values are the canonical constants of that formulation, external to this
#: project.
STANDARD_EXPONENTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)

#: A parameter default meaning there is none: the spec or selector must give it.
REQUIRED = object()


class Param(NamedTuple):
    """A parameter a kind reads: its field, its selector key (None: set only
    by the constructor), its default (None: the field's resting value;
    REQUIRED; a value; or a callable of the spec, whose earlier parameters
    are set) and whether a selector may give it by position (only leading
    keyed parameters may)."""

    field: str
    key: Optional[str] = None
    default: Any = None
    positional: bool = False


class ConfigPart:
    """A config part with kinds, filled and printed by the :class:`KindTable`
    built for its class; ``_check`` holds the part's value checks."""

    def __post_init__(self):
        self._table.settle(self)

    def selector(self) -> str:
        """``kind:key=value,...`` with every keyed parameter; it parses back to this spec."""
        return self._table.selector(self)


@dataclass(frozen=True)
class KindTable:
    """The kinds of the config part ``cls``, bound to it as it is built.

    ``rest`` holds each field's resting value, which it keeps when its kind
    does not read it; ``kinds`` each kind's parameters; ``aliases`` other
    selector spellings of keys.
    """

    part: str
    cls: type
    kind_field: str
    rest: dict[str, Any]
    kinds: dict[str, tuple[Param, ...]]
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.cls._table = self

    def settle(self, spec) -> None:
        """Fill the unset (None) fields of a new ``spec`` from its kind's row,
        reject a float that is not finite in any field (or in a tuple field),
        run its ``_check``, then reject each field the kind does not read
        that is away from its resting value."""
        kind = getattr(spec, self.kind_field)
        if kind not in self.kinds:
            raise ValidationError(f"unknown {self.part} {kind!r}")
        read = {p.field: p for p in self.kinds[kind]}
        for name, rest in self.rest.items():
            if getattr(spec, name) is None:
                default = rest if name not in read or read[name].default is None else read[name].default
                if default is REQUIRED:
                    raise ValidationError(f"{kind} {self.part} needs {read[name].key or name}")
                object.__setattr__(spec, name, default(spec) if callable(default) else default)
            value = getattr(spec, name)
            items = value if isinstance(value, (tuple, list)) else (value,)
            if not all(math.isfinite(v) for v in items if isinstance(v, float)):
                raise ValidationError(f"{kind} {self.part} needs a finite {name}, got {value!r}")
        spec._check()
        for name, rest in self.rest.items():
            if name not in read and getattr(spec, name) != rest:
                raise ValidationError(f"{kind} {self.part} takes no {name}")

    def parse(self, text: str):
        """The spec a selector names. Positional values fill the kind's first
        keyed parameters in order, keywords name them; an unknown kind or
        key, an extra value or a parameter given twice raises ValidationError."""
        name, pos, kw = split_selector(text)
        if name not in self.kinds:
            raise ValidationError(f"unknown {self.part} {name!r}")
        params, what = self.kinds[name], f"{name} {self.part}"
        keyed = {p.key: p.field for p in params if p.key}
        positional = [p.key for p in params if p.positional]
        if len(pos) > len(positional):
            raise ValidationError(f"{what} takes at most {len(positional)} positional values, got {len(pos)}")
        args = dict(zip(positional, pos))
        for given, value in kw.items():
            key = given if given in keyed else self.aliases.get(given)
            if key not in keyed:
                raise ValidationError(f"unknown {what} option {given!r}")
            if key in args:
                raise ValidationError(f"{what} option {key!r} given twice")
            args[key] = value
        types = {f: type(v) if isinstance(v, (str, int)) else float for f, v in self.rest.items()}
        values = {keyed[key]: _cast(value, types[keyed[key]], what) for key, value in args.items()}
        return self.cls(**{self.kind_field: name}, **values)

    def selector(self, spec) -> str:
        kind = getattr(spec, self.kind_field)
        args = [f"{p.key}={_format(getattr(spec, p.field))}" for p in self.kinds[kind] if p.key]
        return f"{kind}:{','.join(args)}" if args else kind

    def values(self, spec) -> list:
        """The spec's parameter values, in the order its kind lists them."""
        return [getattr(spec, p.field) for p in self.kinds[getattr(spec, self.kind_field)]]


def _format(value) -> str:
    """A selector value: floats as %g unless that rounds them."""
    return f"{value:g}" if isinstance(value, float) and float(f"{value:g}") == value else str(value)


def default_gaussian_size(sigma: float) -> int:
    """Window size derived from sigma: 2*ceil(3*sigma) + 1 (so 1.5 -> 11).

    A sigma whose 3*sigma is not finite has no size, and one whose square is
    below the normal floats has no kernel: its exponents divide by zero.
    """
    if sigma <= 0:
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    if not (math.isfinite(3.0 * sigma) and sigma * sigma >= sys.float_info.min):
        raise ValidationError(f"gaussian sigma must be finite and not below about 1.5e-154, got {sigma!r}")
    return 2 * math.ceil(3.0 * sigma) + 1


@dataclass(frozen=True)
class WindowSpec(ConfigPart):
    """Shape, size, and stride of the local-statistics window."""

    shape: str  # rect | gauss; k None: the kind's default (see _WINDOW)
    k: Optional[int] = None
    sigma: Optional[float] = None
    stride: int = 1

    def _check(self) -> None:
        check_integer(self.k, "window size")
        check_integer(self.stride, "stride")
        if self.shape == "gauss":
            default_gaussian_size(self.sigma)  # rejects a sigma no Gaussian window can use
            if self.k < 3 or self.k % 2 == 0:
                raise ValidationError(f"gaussian window size must be odd and >= 3, got {self.k}")

    @classmethod
    def rectangular(cls, k: int, stride: int = 1) -> "WindowSpec":
        return cls("rect", k, None, stride)

    @classmethod
    def gaussian(cls, sigma: float, k: Optional[int] = None, stride: int = 1) -> "WindowSpec":
        return cls("gauss", k, float(sigma), stride)

    def with_stride(self, stride: int) -> "WindowSpec":
        return replace(self, stride=stride)


#: sigma comes first in ``rest``, so gauss's default k can read it. Both
#: kinds read k, so its resting value only gives the selector's type.
_WINDOW = KindTable(
    "window", WindowSpec, "shape",
    rest=dict(sigma=None, k=11, stride=1),
    kinds=dict(
        rect=(Param("k", "k", REQUIRED, positional=True), Param("stride", "stride")),
        gauss=(
            Param("sigma", "sigma", REQUIRED, positional=True),
            Param("k", "k", lambda spec: default_gaussian_size(spec.sigma)),
            Param("stride", "stride"),
        ),
    ),
)


@dataclass(frozen=True)
class MultiscaleSpec(ConfigPart):
    """Dyadic multiscale settings: level count, exponents, and aggregation."""

    aggregation: str = "off"  # off | product | sum | fast4
    levels: Optional[int] = None  # None: the kind's default (see _MULTISCALE)
    exponents: Optional[tuple[float, ...]] = None

    def _check(self) -> None:
        check_integer(self.levels, "levels")
        exps = tuple(float(e) for e in self.exponents)
        if len(exps) != self.levels:
            raise ValidationError(f"{self.levels} levels need {self.levels} exponents, got {len(exps)}")
        if any(e <= 0 for e in exps):
            raise ValidationError("multiscale exponents must be positive")
        if self.aggregation == "fast4" and self.levels != 4:
            raise ValidationError("fast4 aggregation uses exactly 4 levels")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def off(cls) -> "MultiscaleSpec":
        return cls("off")

    @classmethod
    def product(cls, levels: Optional[int] = None, exponents: Optional[tuple[float, ...]] = None) -> "MultiscaleSpec":
        return cls("product", levels, exponents)

    @classmethod
    def weighted_sum(cls, levels: Optional[int] = None, exponents: Optional[tuple[float, ...]] = None) -> "MultiscaleSpec":
        return cls("sum", levels, exponents)

    @classmethod
    def fast4(cls) -> "MultiscaleSpec":
        return cls("fast4")

    @property
    def enabled(self) -> bool:
        return self.aggregation != "off"

    def effective_exponents(self) -> tuple[float, ...]:
        """Exponents as used: renormalized to sum 1 for sum/fast4 modes."""
        if self.aggregation in ("sum", "fast4"):
            total = sum(self.exponents)
            return tuple(e / total for e in self.exponents)
        return self.exponents


#: The standard exponents of the first levels; past 5 levels they must be given.
_EXPONENTS = Param("exponents", None, lambda spec: STANDARD_EXPONENTS[: spec.levels] if isinstance(spec.levels, int) else ())
_MULTISCALE = KindTable(
    "multiscale mode", MultiscaleSpec, "aggregation",
    rest=dict(levels=5, exponents=STANDARD_EXPONENTS),
    kinds=dict(
        off=(),
        product=(Param("levels", "levels", positional=True), _EXPONENTS),
        sum=(Param("levels", "levels", positional=True), _EXPONENTS),
        fast4=(Param("levels", None, 4), _EXPONENTS),
    ),
)


@dataclass(frozen=True)
class ScalePolicy(ConfigPart):
    """Resolution-adaptation policy applied before scoring.

    ``legacy`` is the 256-line rule; ``sast`` derives the factor from viewing
    geometry (distance in the same units as the frame dimensions); ``dh``
    generalizes the legacy rule by the viewing-distance-to-height ratio. The
    resampler is always box averaging.
    """

    kind: str = "none"  # none | legacy | sast | dh; None below: the kind's default (see _SCALE)
    distance: Optional[float] = None  # sast: viewing distance
    theta_h: Optional[float] = None  # sast: horizontal view angle, degrees
    theta_w: Optional[float] = None  # sast: vertical view angle, degrees
    d_over_h: Optional[float] = None  # dh: viewing distance in display heights
    rounding: Optional[str] = None  # legacy, dh: round (half away from zero) | ceil

    def _check(self) -> None:
        if self.rounding not in ("round", "ceil"):
            raise ValidationError(f"unknown rounding mode {self.rounding!r}")
        if self.distance is not None and self.distance <= 0:
            raise ValidationError("sast policy needs a positive viewing distance")
        if not (0 < self.theta_h < 180 and 0 < self.theta_w < 180):
            raise ValidationError("sast viewing angles must lie in (0, 180) degrees")
        if self.d_over_h <= 0:
            raise ValidationError("d/h ratio must be positive")

    @classmethod
    def none(cls) -> "ScalePolicy":
        return cls("none")

    @classmethod
    def legacy256(cls, rounding: Optional[str] = None) -> "ScalePolicy":
        return cls("legacy", rounding=rounding)

    @classmethod
    def sast(cls, distance: float, theta_h: Optional[float] = None, theta_w: Optional[float] = None) -> "ScalePolicy":
        return cls("sast", distance=distance, theta_h=theta_h, theta_w=theta_w)

    @classmethod
    def enhanced_dh(cls, d_over_h: Optional[float] = None) -> "ScalePolicy":
        return cls("dh", d_over_h=d_over_h)


_SCALE = KindTable(
    "scale policy", ScalePolicy, "kind",
    rest=dict(distance=None, theta_h=40.0, theta_w=50.0, d_over_h=3.0, rounding="round"),
    kinds=dict(
        none=(),
        legacy=(Param("rounding", "rounding", positional=True),),
        sast=(Param("distance", "d", REQUIRED), Param("theta_h", "th"), Param("theta_w", "tw")),
        dh=(Param("d_over_h", "ratio", positional=True), Param("rounding", "rounding")),
    ),
)


@dataclass(frozen=True)
class ColorModelSpec(ConfigPart):
    """Which color model scores a frame, plus its hyperparameters."""

    model: str = "luma"  # luma | cw | fixed | qssim | cmssim | hssim; None below: the kind's default
    alpha: Optional[float] = None  # cw chroma weight (Cb)
    beta: Optional[float] = None  # cw chroma weight (Cr)
    weights: Optional[tuple[float, float, float]] = None  # fixed Y/Cb/Cr weights
    space: Optional[str] = None  # qssim embedding space: rgb | ycbcr | lab

    def _check(self) -> None:
        if abs(1.0 + self.alpha + self.beta) < 1e-12:
            raise DegenerateWeights("1 + alpha + beta must be nonzero")
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3:
            raise ValidationError("fixed model needs three channel weights")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValidationError(f"fixed channel weights must sum to 1, got {sum(w)!r}")
        if self.space not in ("rgb", "ycbcr", "lab"):
            raise ValidationError(f"unknown qssim embedding space {self.space!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def luma(cls) -> "ColorModelSpec":
        return cls("luma")

    def selector(self) -> str:
        if self.model == "fixed":  # three positional weights, no key
            return "fixed:" + ",".join(_format(w) for w in self.weights)
        return super().selector()


_COLOR = KindTable(
    "color model", ColorModelSpec, "model",
    rest=dict(alpha=-0.3, beta=-0.3, weights=(0.8, 0.1, 0.1), space="rgb"),
    kinds=dict(
        luma=(),
        cw=(Param("alpha", "a"), Param("beta", "b")),
        fixed=(Param("weights", None, REQUIRED),),
        qssim=(Param("space", "space", positional=True),),
        cmssim=(),
        hssim=(),
    ),
)


#: Window-sum engines: ``auto`` takes the fast route for the window and
#: sample type, ``naive`` the direct k^2 loop.
ENGINES = ("auto", "naive")


@dataclass(frozen=True)
class SsimConfig:
    """Everything needed to score a frame pair, as one immutable value."""

    k1: float = 0.01
    k2: float = 0.03
    bit_depth: int = 8
    window: WindowSpec = field(default_factory=lambda: WindowSpec.rectangular(11))
    engine: str = "auto"  # one of ENGINES
    scaling: ScalePolicy = field(default_factory=ScalePolicy.none)
    color: ColorModelSpec = field(default_factory=ColorModelSpec.luma)
    spatial_pool: str = "am"
    temporal_pool: str = "am"
    multiscale: MultiscaleSpec = field(default_factory=MultiscaleSpec.off)

    def __post_init__(self):
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValidationError(f"k1 and k2 must be positive and finite, got {self.k1!r} and {self.k2!r}")
        for name, k in (("k1", self.k1), ("k2", self.k2)):
            widest = k * 65535.0  # the peak of 16-bit samples, the widest for_bit_depth gives
            if not math.isfinite(widest * widest):
                raise ValidationError(f"{name}={k!r} makes its constant (k * 65535)^2 overflow")
        if not isinstance(self.bit_depth, int) or not 8 <= self.bit_depth <= 16:
            raise ValidationError(f"bit depth must be an integer in [8, 16], got {self.bit_depth!r}")
        if self.engine not in ENGINES:
            raise ValidationError(f"unknown engine {self.engine!r}")
        if self.window.shape != "rect" and self.color.model == "qssim":
            raise ValidationError("quaternion similarity uses rectangular windows")
        # Validate the pooling selectors eagerly so a config is always runnable.
        from . import pooling

        pooling.parse_spatial(self.spatial_pool)
        pooling.parse_temporal(self.temporal_pool)

    @property
    def peak(self) -> float:
        """Dynamic range L = 2**bit_depth - 1."""
        return float((1 << self.bit_depth) - 1)

    @property
    def c1(self) -> float:
        """Luminance saturation constant (k1 * L)**2."""
        return (self.k1 * self.peak) ** 2

    @property
    def c2(self) -> float:
        """Contrast saturation constant (k2 * L)**2."""
        return (self.k2 * self.peak) ** 2

    @property
    def c3(self) -> float:
        """Structure constant, always c2 / 2 (never stored independently)."""
        return self.c2 / 2.0

    def for_bit_depth(self, bit_depth: int) -> "SsimConfig":
        return self if bit_depth == self.bit_depth else replace(self, bit_depth=bit_depth)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SsimConfig":
        """The config ``to_dict`` gave; a missing part, an unknown key or a
        value of the wrong type raises ValidationError."""
        parts = dict(window=WindowSpec, scaling=ScalePolicy, color=ColorModelSpec, multiscale=MultiscaleSpec)
        try:
            return cls(**{**d, **{name: part(**d[name]) for name, part in parts.items()}})
        except SsimkitError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"not a config: {type(exc).__name__}: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SsimConfig":
        try:
            d = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"config is not JSON: {exc}") from None
        return cls.from_dict(d)


# ---------------------------------------------------------------------------
# Compact selector grammar: NAME[:ARGS] with ARGS = value or key=value pairs
# separated by commas. Shared by the CLI flags and the benchmark spec strings.
# ---------------------------------------------------------------------------

def split_selector(text: str) -> tuple[str, list[str], dict[str, str]]:
    """Split ``name:pos1,key=val`` into (name, positional, keyword) parts."""
    if not isinstance(text, str):
        raise ValidationError(f"a selector is a string, got {text!r}")
    text = text.strip()
    if not text:
        raise ValidationError("empty selector")
    name, _, argstr = text.partition(":")
    pos: list[str] = []
    kw: dict[str, str] = {}
    if argstr:
        for item in argstr.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" in item:
                key, _, val = item.partition("=")
                key = key.strip().lower()
                if key in kw:
                    raise ValidationError(f"option {key!r} given twice in selector {text!r}")
                kw[key] = val.strip()
            else:
                pos.append(item)
    return name.strip().lower(), pos, kw


def _cast(text: str, cast: type, what: str):
    try:
        return cast(text)
    except ValueError:
        raise ValidationError(f"bad {cast.__name__} {text!r} in {what} selector") from None


def parse_window(text: str) -> WindowSpec:
    """Parse ``rect:11``, ``rect:8,stride=4``, ``gauss:1.5`` or ``gauss:1.5,k=11``."""
    return _WINDOW.parse(text)


def parse_scale(text: str) -> ScalePolicy:
    """Parse ``none``, ``legacy[:ceil]``, ``sast:D=3000[,th=..,tw=..]`` or ``dh:3.0[,rounding=ceil]``."""
    return _SCALE.parse(text)


def parse_color(text: str) -> ColorModelSpec:
    """Parse ``luma``, ``cw:a=-0.3,b=-0.3``, ``fixed:0.8,0.1,0.1``, ``qssim[:space]``, ...."""
    name, pos, kw = split_selector(text)
    if name == "fixed" and pos and not kw:  # three positional weights, no key
        return ColorModelSpec("fixed", weights=tuple(_cast(p, float, "fixed color model") for p in pos))
    return _COLOR.parse(text)


def parse_multiscale(text: str) -> MultiscaleSpec:
    """Parse ``off``, ``product``, ``product:levels=3``, ``sum`` or ``fast4``."""
    return _MULTISCALE.parse(text)
