"""Exception types raised across the toolkit, and the one check of an
integer setting.

Every error raised by ssimkit derives from :class:`SsimkitError`; the CLI maps
these to exit code 2 (bad input) except :class:`DegenerateData`, which maps to
exit code 3 (numeric degeneracy).
"""


class SsimkitError(Exception):
    """Base class for all ssimkit errors."""


class ValidationError(SsimkitError, ValueError):
    """A value violates a construction invariant."""


# -- frame / pair validation -------------------------------------------------

class DimensionMismatch(SsimkitError):
    """Reference and distorted inputs differ in width/height."""


class BitDepthMismatch(SsimkitError):
    """Reference and distorted inputs differ in bit depth."""


class ScaleMismatch(SsimkitError):
    """Reference and distorted planes sum different numbers of samples per sample."""


class WrongSpace(SsimkitError):
    """A color operation received a frame in the wrong color space."""


# -- media I/O ----------------------------------------------------------------

class BadMagic(SsimkitError):
    """Stream does not start with the expected magic token."""


class BadHeader(SsimkitError):
    """Header could not be parsed."""


class UnsupportedChroma(SsimkitError):
    """Chroma subsampling tag is not supported."""


class UnsupportedMaxval(SsimkitError):
    """PNM maxval is zero or exceeds 16-bit range."""


class TruncatedFrame(SsimkitError):
    """Frame payload is shorter than the declared plane sizes."""


class SizeNotMultiple(SsimkitError):
    """Raw file size is not a whole multiple of the frame size."""


# -- windows and local statistics ----------------------------------------------

class NonPositiveSigma(SsimkitError, ValueError):
    """Gaussian sigma must be positive."""


class WindowLargerThanImage(ValidationError):
    """Window does not fit inside the image."""


class GaussianNotSupported3D(SsimkitError):
    """Spatio-temporal statistics support rectangular windows only."""


# -- multiscale ----------------------------------------------------------------

class TooSmall(SsimkitError):
    """Input is too small for the requested operation."""


class TooManyLevels(SsimkitError):
    """Image cannot support a window at the coarsest requested scale."""


# -- pooling -------------------------------------------------------------------

class EmptyMap(SsimkitError):
    """Quality map has no cells to pool."""


class EmptySeries(SsimkitError):
    """Score series has no entries to pool."""


class ZeroMeanCoV(SsimkitError):
    """Coefficient of variation is undefined for a zero-mean map."""


class MissingLumaForLW(SsimkitError):
    """Luminance-weighted pooling needs a co-registered mean-luma map."""


class DegenerateWeights(SsimkitError):
    """Channel weights sum to zero, making the combination undefined."""


# -- adaptation ------------------------------------------------------------------

class NoReferenceYet(SsimkitError):
    """Histogram matcher was asked to predict before any reference map."""


# -- evaluation ------------------------------------------------------------------

class DegenerateData(SsimkitError):
    """Data cannot support the requested fit or correlation."""


class LengthMismatch(SsimkitError):
    """Paired sequences differ in length."""


class TooFew(SsimkitError):
    """Not enough samples for the requested statistic."""


def is_integer(value, lo: int) -> bool:
    """Whether ``value`` is an int of at least ``lo``; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= lo


def check_integer(value, what: str, lo: int = 1) -> None:
    """Raise ValidationError unless ``value`` is an integer setting of at least ``lo``."""
    if not is_integer(value, lo):
        raise ValidationError(f"{what} must be an integer >= {lo}, got {value!r}")
