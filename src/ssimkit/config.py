"""Scoring configuration: windows, scaling, color model, pooling, multiscale.

A fully populated :class:`SsimConfig` determines a scoring pipeline. Every
piece is expressible in a compact selector string (``rect:11``, ``dh:3.0``,
``cw:a=-0.3,b=-0.3``, ...) used by the CLI and round-trips bit-exactly through
JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

from .errors import DegenerateWeights, NonPositiveSigma, SsimkitError, ValidationError

#: Standard per-scale exponents of the 5-level multiscale formulation. The
#: values are the canonical constants of that formulation, external to this
#: project.
STANDARD_EXPONENTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def default_gaussian_size(sigma: float) -> int:
    """Window size derived from sigma: 2*ceil(3*sigma) + 1 (so 1.5 -> 11)."""
    if sigma <= 0:
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    return 2 * math.ceil(3.0 * sigma) + 1


@dataclass(frozen=True)
class WindowSpec:
    """Shape, size, and stride of the local-statistics window."""

    shape: str  # "rect" | "gauss"
    k: int
    sigma: Optional[float] = None
    stride: int = 1

    def __post_init__(self):
        if self.shape not in ("rect", "gauss"):
            raise ValidationError(f"unknown window shape {self.shape!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ValidationError("window size must be an integer")
        if not isinstance(self.stride, int) or self.stride < 1:
            raise ValidationError(f"stride must be an integer >= 1, got {self.stride!r}")
        if self.shape == "rect":
            if self.k < 1:
                raise ValidationError(f"rectangular window size must be >= 1, got {self.k}")
            if self.sigma is not None:
                raise ValidationError("rectangular windows take no sigma")
        else:
            if self.sigma is None or self.sigma <= 0:
                raise NonPositiveSigma(f"gaussian window needs sigma > 0, got {self.sigma}")
            if self.k < 3 or self.k % 2 == 0:
                raise ValidationError(f"gaussian window size must be odd and >= 3, got {self.k}")

    @classmethod
    def rectangular(cls, k: int, stride: int = 1) -> "WindowSpec":
        return cls("rect", k, None, stride)

    @classmethod
    def gaussian(cls, sigma: float, k: Optional[int] = None, stride: int = 1) -> "WindowSpec":
        if k is None:
            k = default_gaussian_size(sigma)
        return cls("gauss", k, float(sigma), stride)

    def with_stride(self, stride: int) -> "WindowSpec":
        return replace(self, stride=stride)

    def selector(self) -> str:
        parts = [f"rect:{self.k}" if self.shape == "rect" else f"gauss:{self.sigma:g},k={self.k}"]
        if self.stride != 1:
            parts.append(f"stride={self.stride}")
        return ",".join(parts)


@dataclass(frozen=True)
class MultiscaleSpec:
    """Dyadic multiscale settings: level count, exponents, and aggregation."""

    aggregation: str = "off"  # off | product | sum | fast4
    levels: int = 5
    exponents: tuple[float, ...] = STANDARD_EXPONENTS

    def __post_init__(self):
        if self.aggregation not in ("off", "product", "sum", "fast4"):
            raise ValidationError(f"unknown multiscale aggregation {self.aggregation!r}")
        if not isinstance(self.levels, int) or self.levels < 1:
            raise ValidationError(f"levels must be an integer >= 1, got {self.levels!r}")
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
    def product(cls, levels: int = 5, exponents: Optional[tuple[float, ...]] = None) -> "MultiscaleSpec":
        return cls("product", levels, _default_exponents(levels, exponents))

    @classmethod
    def weighted_sum(cls, levels: int = 5, exponents: Optional[tuple[float, ...]] = None) -> "MultiscaleSpec":
        return cls("sum", levels, _default_exponents(levels, exponents))

    @classmethod
    def fast4(cls) -> "MultiscaleSpec":
        return cls("fast4", 4, STANDARD_EXPONENTS[:4])

    @property
    def enabled(self) -> bool:
        return self.aggregation != "off"

    def effective_exponents(self) -> tuple[float, ...]:
        """Exponents as used: renormalized to sum 1 for sum/fast4 modes."""
        if self.aggregation in ("sum", "fast4"):
            total = sum(self.exponents)
            return tuple(e / total for e in self.exponents)
        return self.exponents

    def selector(self) -> str:
        if self.aggregation == "off":
            return "off"
        sel = self.aggregation
        if self.aggregation != "fast4" and self.levels != 5:
            sel += f":levels={self.levels}"
        return sel


def _default_exponents(levels: int, exponents: Optional[tuple[float, ...]]) -> tuple[float, ...]:
    if exponents is not None:
        return tuple(exponents)
    if levels <= len(STANDARD_EXPONENTS):
        return STANDARD_EXPONENTS[:levels]
    raise ValidationError(f"no default exponents for {levels} levels; pass them explicitly")


@dataclass(frozen=True)
class ScalePolicy:
    """Resolution-adaptation policy applied before scoring.

    ``legacy`` is the 256-line rule; ``sast`` derives the factor from viewing
    geometry (distance in the same units as the frame dimensions); ``dh``
    generalizes the legacy rule by the viewing-distance-to-height ratio. The
    resampler is always box averaging.
    """

    kind: str = "none"  # none | legacy | sast | dh
    distance: Optional[float] = None  # sast: viewing distance
    theta_h: float = 40.0  # sast: horizontal view angle, degrees
    theta_w: float = 50.0  # sast: vertical view angle, degrees
    d_over_h: float = 3.0  # dh: viewing distance in display heights
    rounding: str = "round"  # round (half away from zero) | ceil

    def __post_init__(self):
        if self.kind not in ("none", "legacy", "sast", "dh"):
            raise ValidationError(f"unknown scale policy {self.kind!r}")
        if self.rounding not in ("round", "ceil"):
            raise ValidationError(f"unknown rounding mode {self.rounding!r}")
        if self.kind == "sast":
            if self.distance is None or self.distance <= 0:
                raise ValidationError("sast policy needs a positive viewing distance")
            if self.theta_h <= 0 or self.theta_w <= 0:
                raise ValidationError("sast viewing angles must be positive")
        if self.kind == "dh" and self.d_over_h <= 0:
            raise ValidationError("d/h ratio must be positive")

    @classmethod
    def none(cls) -> "ScalePolicy":
        return cls("none")

    @classmethod
    def legacy256(cls, rounding: str = "round") -> "ScalePolicy":
        return cls("legacy", rounding=rounding)

    @classmethod
    def sast(cls, distance: float, theta_h: float = 40.0, theta_w: float = 50.0) -> "ScalePolicy":
        return cls("sast", distance=distance, theta_h=theta_h, theta_w=theta_w)

    @classmethod
    def enhanced_dh(cls, d_over_h: float = 3.0) -> "ScalePolicy":
        return cls("dh", d_over_h=d_over_h)

    def selector(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "legacy":
            return "legacy" if self.rounding == "round" else "legacy:ceil"
        if self.kind == "sast":
            return f"sast:D={self.distance:g},th={self.theta_h:g},tw={self.theta_w:g}"
        return f"dh:{self.d_over_h:g}"


@dataclass(frozen=True)
class ColorModelSpec:
    """Which color model scores a frame, plus its hyperparameters."""

    model: str = "luma"  # luma | cw | fixed | qssim | cmssim | hssim
    alpha: float = -0.3  # cw chroma weight (Cb)
    beta: float = -0.3  # cw chroma weight (Cr)
    weights: tuple[float, float, float] = (0.8, 0.1, 0.1)  # fixed Y/Cb/Cr weights
    space: str = "rgb"  # qssim embedding space: rgb | ycbcr | lab

    def __post_init__(self):
        if self.model not in ("luma", "cw", "fixed", "qssim", "cmssim", "hssim"):
            raise ValidationError(f"unknown color model {self.model!r}")
        if self.model == "cw" and abs(1.0 + self.alpha + self.beta) < 1e-12:
            raise DegenerateWeights("1 + alpha + beta must be nonzero")
        w = tuple(float(x) for x in self.weights)
        if self.model == "fixed":
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
        if self.model == "cw":
            return f"cw:a={self.alpha:g},b={self.beta:g}"
        if self.model == "fixed":
            return "fixed:" + ",".join(f"{w:g}" for w in self.weights)
        if self.model == "qssim" and self.space != "rgb":
            return f"qssim:{self.space}"
        return self.model


@dataclass(frozen=True)
class SsimConfig:
    """Everything needed to score a frame pair, as one immutable value."""

    k1: float = 0.01
    k2: float = 0.03
    bit_depth: int = 8
    window: WindowSpec = field(default_factory=lambda: WindowSpec.rectangular(11))
    engine: str = "auto"  # auto | naive | integral
    scaling: ScalePolicy = field(default_factory=ScalePolicy.none)
    color: ColorModelSpec = field(default_factory=ColorModelSpec.luma)
    spatial_pool: str = "am"
    temporal_pool: str = "am"
    multiscale: MultiscaleSpec = field(default_factory=MultiscaleSpec.off)

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValidationError("k1 and k2 must be positive")
        if not isinstance(self.bit_depth, int) or not 8 <= self.bit_depth <= 16:
            raise ValidationError(f"bit depth must be an integer in [8, 16], got {self.bit_depth!r}")
        if self.engine not in ("auto", "naive", "integral"):
            raise ValidationError(f"unknown engine {self.engine!r}")
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
        except (KeyError, TypeError, ValueError) as exc:
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


def _num(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"bad number {text!r} in {what} selector") from None


def _intval(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"bad integer {text!r} in {what} selector") from None


def parse_window(text: str) -> WindowSpec:
    """Parse ``rect:11``, ``rect:8,stride=4``, ``gauss:1.5`` or ``gauss:1.5,k=11``."""
    name, pos, kw = split_selector(text)
    stride = _intval(kw.pop("stride", "1"), "window")
    if name == "rect":
        if len(pos) != 1:
            raise ValidationError("rect window needs a size, e.g. rect:11")
        spec = WindowSpec.rectangular(_intval(pos[0], "window"), stride)
    elif name == "gauss":
        if len(pos) != 1:
            raise ValidationError("gauss window needs a sigma, e.g. gauss:1.5")
        k = _intval(kw.pop("k"), "window") if "k" in kw else None
        spec = WindowSpec.gaussian(_num(pos[0], "window"), k, stride)
    else:
        raise ValidationError(f"unknown window {name!r} (expected rect or gauss)")
    if kw:
        raise ValidationError(f"unknown window options {sorted(kw)}")
    return spec


def selector_args(
    what: str,
    pos: list[str],
    kw: dict[str, str],
    names: Sequence[str] = (),
    positional: int = 0,
    aliases: Optional[dict[str, str]] = None,
) -> dict[str, str]:
    """A selector's argument strings by parameter name.

    Positional values fill the first ``positional`` of ``names`` in order;
    keywords name any of them, directly or through ``aliases``. An extra
    positional value, an unknown key or a parameter given twice raises
    ValidationError rather than being ignored.
    """
    if len(pos) > positional:
        raise ValidationError(f"{what} takes at most {positional} positional values, got {len(pos)}")
    args = dict(zip(names, pos))
    for key, value in kw.items():
        name = key if key in names else (aliases or {}).get(key)
        if name not in names:
            raise ValidationError(f"unknown {what} option {key!r}")
        if name in args:
            raise ValidationError(f"{what} option {name!r} given twice")
        args[name] = value
    return args


#: Per kind: its parameter names, and how many of them may be positional.
_SCALE_ARGS = dict(none=((), 0), legacy=(("rounding",), 1), sast=(("d", "th", "tw"), 0), dh=(("ratio",), 1))
_COLOR_ARGS = dict(luma=((), 0), cw=(("a", "b"), 0), qssim=(("space",), 1), cmssim=((), 0), hssim=((), 0))
_MULTISCALE_ARGS = dict(off=((), 0), fast4=((), 0), product=(("levels",), 1), sum=(("levels",), 1))


def parse_scale(text: str) -> ScalePolicy:
    """Parse ``none``, ``legacy``, ``legacy:ceil``, ``sast:D=3000`` or ``dh:3.0``."""
    name, pos, kw = split_selector(text)
    if name not in _SCALE_ARGS:
        raise ValidationError(f"unknown scale policy {name!r}")
    args = selector_args(f"{name} scale policy", pos, kw, *_SCALE_ARGS[name])
    if name == "none":
        return ScalePolicy.none()
    if name == "legacy":
        return ScalePolicy.legacy256(args.get("rounding", "round"))
    if name == "sast":
        if "d" not in args:
            raise ValidationError("sast policy needs D=<distance>")
        return ScalePolicy.sast(
            _num(args["d"], "scale"),
            _num(args.get("th", "40"), "scale"),
            _num(args.get("tw", "50"), "scale"),
        )
    return ScalePolicy.enhanced_dh(_num(args.get("ratio", "3.0"), "scale"))


def parse_color(text: str) -> ColorModelSpec:
    """Parse ``luma``, ``cw:a=-0.3,b=-0.3``, ``fixed:0.8,0.1,0.1``, ``qssim[:space]``, ...."""
    name, pos, kw = split_selector(text)
    if name == "fixed":
        if len(pos) != 3 or kw:
            raise ValidationError("fixed color model needs three weights, e.g. fixed:0.8,0.1,0.1")
        return ColorModelSpec("fixed", weights=tuple(_num(p, "color") for p in pos))
    if name not in _COLOR_ARGS:
        raise ValidationError(f"unknown color model {name!r}")
    args = selector_args(f"{name} color model", pos, kw, *_COLOR_ARGS[name])
    if name == "cw":
        return ColorModelSpec(
            "cw", alpha=_num(args.get("a", "-0.3"), "color"), beta=_num(args.get("b", "-0.3"), "color")
        )
    if name == "qssim":
        return ColorModelSpec("qssim", space=args.get("space", "rgb"))
    return ColorModelSpec(name)


def parse_multiscale(text: str) -> MultiscaleSpec:
    """Parse ``off``, ``product``, ``product:levels=3``, ``sum`` or ``fast4``."""
    name, pos, kw = split_selector(text)
    if name not in _MULTISCALE_ARGS:
        raise ValidationError(f"unknown multiscale mode {name!r}")
    args = selector_args(f"{name} multiscale", pos, kw, *_MULTISCALE_ARGS[name])
    if name == "off":
        return MultiscaleSpec.off()
    if name == "fast4":
        return MultiscaleSpec.fast4()
    levels = _intval(args.get("levels", "5"), "multiscale")
    return MultiscaleSpec(name, levels, _default_exponents(levels, None))
