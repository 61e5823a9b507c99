"""Color-space conversions and the four color similarity models.

Models: channel-wise weighting of per-channel scores in YCbCr (rational or
fixed weights), quaternion similarity on tristimulus pixels, the CIELAB
delta-E weighted map, and the hue-similarity blend. All return 1 on identical
frames. Every scorer takes ``(ref, dist, config)`` and reads each setting,
the model's own in ``config.color`` too, from the config alone.

Quaternion similarity and the hue plane run band by band, as statistics do
(``stats.BAND_ROWS`` grid or pixel rows at a time): each band reads the
input rows it needs as float64 and runs the whole-plane arithmetic on them,
operation for operation. The hue band goes into its rows of the plane;
qssim's band of values is summed as numpy sums the whole grid
(``stats.BandedSum``), so neither score moves by a bit. Channel and hue
scores are ``ssim.ssim_score``'s; cmssim weights and pools its luma map as
the bands form (``ssim._band_sums``). Conversions hand their new channels
over read-only (``frames.owned``), so ColorFrame keeps them without a copy.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .config import SsimConfig
from .errors import DegenerateWeights, ValidationError
from .frames import (
    CHROMA_444,
    SPACE_RGB,
    SPACE_YCBCR,
    ColorFrame,
    LumaPlane,
    owned,
    validate_color_pair,
)
from .stats import BandedSum, _check_fit, _grid_shape, _row_bands, _sliding_weighted_sums, gaussian_kernel_1d, separable_sums
from .ssim import _band_sums, _statistics, frame_config, ssim_score
from .ssim import mssim, ssim_map  # noqa: F401  (perfbench traces these bindings)

# BT.709 luma coefficients; the chroma scale factors put Cb/Cr in +-L/2 around
# an L/2 storage offset.
_KR, _KG, _KB = 0.213, 0.715, 0.072
_CB_SCALE, _CR_SCALE = 0.539, 0.635

# Linear RGB (BT.709 primaries) to CIE XYZ, D65 white.
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_D65 = (0.95047, 1.0, 1.08883)

# XYZ to the opponent (luminance, red-green, blue-yellow) working space and
# the published (rounded) inverse, used verbatim.
_XYZ_TO_Q = np.array(
    [
        [0.279, 0.72, -0.107],
        [-0.449, 0.29, -0.077],
        [0.086, -0.59, 0.501],
    ]
)
_Q_TO_XYZ = np.array(
    [
        [0.6204, -1.8704, -0.1553],
        [1.3661, 0.9316, 0.4339],
        [1.5013, 1.4176, 2.5331],
    ]
)

#: CIELAB difference at which a pixel's quality contribution is zeroed.
DELTA_E_FULL_MASK = 45.0


def rgb_to_ycbcr_bt709(frame: ColorFrame) -> ColorFrame:
    """BT.709 RGB -> YCbCr with chroma offset by L/2 for storage."""
    frame.require_space(SPACE_RGB)
    r, g, b = (np.asarray(c, dtype=np.float64) for c in frame.channels)
    offset = frame.peak / 2.0
    y = _bt709_luma(r, g, b)
    cb = _CB_SCALE * (b - y) + offset
    cr = _CR_SCALE * (r - y) + offset
    return ColorFrame((owned(y), owned(cb), owned(cr)), SPACE_YCBCR, frame.subsampling, frame.bit_depth)


def _bt709_luma(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BT.709 luma (Kr r + Kg g) + Kb b in float64, each channel read as
    float64 by its multiply (exactly, as a float64 copy would be)."""
    luma = np.multiply(r, _KR, dtype=np.float64)
    luma += np.multiply(g, _KG, dtype=np.float64)
    luma += np.multiply(b, _KB, dtype=np.float64)
    return luma


def ycbcr_bt709_to_rgb(frame: ColorFrame) -> ColorFrame:
    """Inverse BT.709 transform (4:4:4 only), clamped to the nominal range."""
    frame.require_space(SPACE_YCBCR)
    if frame.subsampling != CHROMA_444:
        frame = upsample_chroma(frame)
    y, cb, cr = (np.asarray(c, dtype=np.float64) for c in frame.channels)
    offset = frame.peak / 2.0
    b = (cb - offset) / _CB_SCALE + y
    r = (cr - offset) / _CR_SCALE + y
    g = (y - _KR * r - _KB * b) / _KG
    chans = tuple(owned(np.clip(c, 0.0, frame.peak)) for c in (r, g, b))
    return ColorFrame(chans, SPACE_RGB, CHROMA_444, frame.bit_depth)


def upsample_chroma(frame: ColorFrame) -> ColorFrame:
    """Nearest-neighbor 4:2:0 -> 4:4:4 so channels become co-sited."""
    if frame.subsampling == CHROMA_444:
        return frame
    h, w = frame.height, frame.width
    up = (owned(np.repeat(np.repeat(c, 2, axis=0), 2, axis=1)[:h, :w]) for c in frame.channels[1:])
    return ColorFrame((frame.channels[0], *up), frame.space, CHROMA_444, frame.bit_depth)


def luma_of(frame: Union[LumaPlane, ColorFrame]) -> LumaPlane:
    """Luminance plane of an RGB or YCbCr frame; a luma plane comes back unchanged."""
    if isinstance(frame, LumaPlane):
        return frame
    if frame.space == SPACE_YCBCR:
        return LumaPlane(frame.channels[0], frame.bit_depth)
    return LumaPlane(owned(_bt709_luma(*frame.channels)), frame.bit_depth)


def combine_channelwise(fy: float, fcb: float, fcr: float, alpha: float, beta: float) -> float:
    """(fY + alpha*fCb + beta*fCr) / (1 + alpha + beta)."""
    denom = 1.0 + alpha + beta
    if abs(denom) < 1e-12:
        raise DegenerateWeights("1 + alpha + beta must be nonzero")
    return (fy + alpha * fcb + beta * fcr) / denom


def channelwise_cssim(ref: ColorFrame, dist: ColorFrame, config: SsimConfig = SsimConfig()) -> float:
    """Per-channel scores in YCbCr combined with the chroma weights
    ``config.color.alpha`` (Cb) and ``config.color.beta`` (Cr).

    Channels are scored at their own resolution (4:2:0 chroma at chroma
    resolution). Negative chroma weights can push the result above 1.
    """
    fy, fcb, fcr = _channel_scores(ref, dist, config)
    return combine_channelwise(fy, fcb, fcr, config.color.alpha, config.color.beta)


def fixed_weight_cssim(ref: ColorFrame, dist: ColorFrame, config: SsimConfig = SsimConfig()) -> float:
    """Convex combination wY*fY + wCb*fCb + wCr*fCr of the weights
    ``config.color.weights`` (which must sum to 1)."""
    scores = _channel_scores(ref, dist, config)
    return float(sum(w * s for w, s in zip(config.color.weights, scores)))


def _pair_in(ref: ColorFrame, dist: ColorFrame, space: str) -> tuple[ColorFrame, ColorFrame]:
    """The validated pair in ``space`` (SPACE_RGB or SPACE_YCBCR), converted
    by the BT.709 transform where it is in the other space."""
    validate_color_pair(ref, dist)
    if ref.space == space:
        return ref, dist
    convert = rgb_to_ycbcr_bt709 if space == SPACE_YCBCR else ycbcr_bt709_to_rgb
    return convert(ref), convert(dist)


def _channel_scores(ref: ColorFrame, dist: ColorFrame, config: SsimConfig) -> tuple[float, float, float]:
    ref, dist = _pair_in(ref, dist, SPACE_YCBCR)
    config = frame_config(config, ref, dist)
    return tuple(ssim_score(a, b, config) for a, b in zip(ref.channels, dist.channels))


# ---------------------------------------------------------------------------
# Quaternion similarity
# ---------------------------------------------------------------------------

def _embedding_channels(frame: ColorFrame, space: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tristimulus channels to embed on the (i, j, k) axes, in storage order,
    of a 4:4:4 frame already in the embedding's space (RGB for ``lab``): the
    stored channels, which each band reads as float64, or the rescaled Lab
    planes."""
    if space != "lab":
        return frame.channels
    lab = _rgb_frame_to_lab(frame)
    # Lab is O(100)-scale; rescale to the frame's range so the saturation
    # constants keep their meaning.
    scale = frame.peak / 100.0
    return tuple(np.asarray(c, dtype=np.float64) * scale for c in lab)


def qssim(ref: ColorFrame, dist: ColorFrame, config: SsimConfig = SsimConfig()) -> float:
    """Quaternion color similarity over ``config.window``, averaged.

    Pixels embed as pure quaternions on (i, j, k); per window the mean-based
    factor |2 mu_r conj(mu_d) + C1| / (|mu_r|^2 + |mu_d|^2 + C1) multiplies
    the covariance-based factor |2 cov_rd + C2| / (var_r + var_d + C2), with
    the quaternion covariance cov_rd = E[q_r conj(q_d)] - mu_r conj(mu_d).
    Setting the window to the frame size recovers the whole-frame form. The
    embedding space is ``config.color.space``; YCbCr input is converted to
    RGB for the ``rgb`` and ``lab`` embeddings.
    """
    window, space = config.window, config.color.space
    if window.shape != "rect":
        raise ValidationError("quaternion similarity uses rectangular windows")
    ref, dist = _pair_in(ref, dist, SPACE_YCBCR if space == "ycbcr" else SPACE_RGB)
    ref, dist = upsample_chroma(ref), upsample_chroma(dist)
    channels = _embedding_channels(ref, space) + _embedding_channels(dist, space)
    config = frame_config(config, ref, dist)
    k, stride = window.k, window.stride
    kern = np.full((k, k), 1.0 / (k * k))
    _check_fit((ref.height, ref.width), window)
    gh, gw = _grid_shape(ref.height, ref.width, k, stride)
    total = BandedSum(gh * gw)
    for _, src, _ in _row_bands(gh, stride, k):
        band = (np.asarray(c[src], dtype=np.float64) for c in channels)
        total.add(_qssim_values(*band, kern, stride, config.c1, config.c2))
    return total.total() / total.n


def _qssim_values(r1, g1, b1, r2, g2, b2, kern: np.ndarray, stride: int, c1: float, c2: float) -> np.ndarray:
    """Per-window quaternion similarity of the float64 embedded channels; ``kern`` takes the window means."""

    def wmean(x):
        return _sliding_weighted_sums(x, kern, stride)

    # Windowed means of each vector component.
    m1 = [wmean(r1), wmean(g1), wmean(b1)]
    m2 = [wmean(r2), wmean(g2), wmean(b2)]

    # E[q1 conj(q2)]: per-pixel product of pure quaternions (0, v1)(0, -v2)
    # has real part v1.v2 and vector part -(v1 x v2).
    dot12 = r1 * r2 + g1 * g2 + b1 * b2
    cross_i = g1 * b2 - b1 * g2
    cross_j = b1 * r2 - r1 * b2
    cross_k = r1 * g2 - g1 * r2
    e_dot = wmean(dot12)
    e_cr_i, e_cr_j, e_cr_k = wmean(-cross_i), wmean(-cross_j), wmean(-cross_k)

    # E[|q|^2] for the variances.
    e_sq1 = wmean(r1 * r1 + g1 * g1 + b1 * b1)
    e_sq2 = wmean(r2 * r2 + g2 * g2 + b2 * b2)

    # mu1 conj(mu2): same pure-quaternion product on the windowed means.
    mdot = m1[0] * m2[0] + m1[1] * m2[1] + m1[2] * m2[2]
    mcr_i = -(m1[1] * m2[2] - m1[2] * m2[1])
    mcr_j = -(m1[2] * m2[0] - m1[0] * m2[2])
    mcr_k = -(m1[0] * m2[1] - m1[1] * m2[0])

    mu1_sq = m1[0] ** 2 + m1[1] ** 2 + m1[2] ** 2
    mu2_sq = m2[0] ** 2 + m2[1] ** 2 + m2[2] ** 2
    var1 = e_sq1 - mu1_sq
    var2 = e_sq2 - mu2_sq
    cov_w = e_dot - mdot
    cov_i = e_cr_i - mcr_i
    cov_j = e_cr_j - mcr_j
    cov_k = e_cr_k - mcr_k

    num1 = np.sqrt((2.0 * mdot + c1) ** 2 + (2.0 * mcr_i) ** 2 + (2.0 * mcr_j) ** 2 + (2.0 * mcr_k) ** 2)
    den1 = mu1_sq + mu2_sq + c1
    num2 = np.sqrt((2.0 * cov_w + c2) ** 2 + (2.0 * cov_i) ** 2 + (2.0 * cov_j) ** 2 + (2.0 * cov_k) ** 2)
    den2 = var1 + var2 + c2
    return (num1 / den1) * (num2 / den2)


# ---------------------------------------------------------------------------
# CIELAB delta-E weighted model
# ---------------------------------------------------------------------------

def _smooth(values: np.ndarray, sigma: float = 2.0, k: int = 13) -> np.ndarray:
    """Separable Gaussian smoothing with reflect padding (same-size output)."""
    return separable_sums(np.pad(values, (k - 1) // 2, mode="reflect"), gaussian_kernel_1d(sigma, k))


def _xyz_to_lab(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    def f(t):
        delta = 6.0 / 29.0
        return np.where(t > delta**3, np.cbrt(t), t / (3 * delta * delta) + 4.0 / 29.0)

    fx, fy, fz = f(x / _D65[0]), f(y / _D65[1]), f(z / _D65[2])
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


def _rgb_frame_to_lab(frame: ColorFrame, smooth_opponent: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RGB -> XYZ -> (optionally opponent-smoothed) -> CIELAB channels."""
    rgb = np.stack([np.asarray(c, dtype=np.float64) / frame.peak for c in frame.channels])
    flat = rgb.reshape(3, -1)
    xyz = _RGB_TO_XYZ @ flat
    if smooth_opponent:
        q = _XYZ_TO_Q @ xyz
        q = q.reshape(3, *rgb.shape[1:])
        q = np.stack([q[0], _smooth(q[1]), _smooth(q[2])])
        xyz = _Q_TO_XYZ @ q.reshape(3, -1)
    x, y, z = (c.reshape(rgb.shape[1:]) for c in xyz)
    return _xyz_to_lab(x, y, z)


def delta_e_map(ref: ColorFrame, dist: ColorFrame) -> np.ndarray:
    """Per-pixel CIELAB distance after the opponent-space chroma smoothing."""
    validate_color_pair(ref, dist)
    lab1 = _rgb_frame_to_lab(ref.require_space(SPACE_RGB), smooth_opponent=True)
    lab2 = _rgb_frame_to_lab(dist.require_space(SPACE_RGB), smooth_opponent=True)
    return np.sqrt(sum((a - b) ** 2 for a, b in zip(lab1, lab2)))


def cmssim(ref: ColorFrame, dist: ColorFrame, config: SsimConfig = SsimConfig()) -> float:
    """Luma SSIM map weighted down by the CIELAB difference of the pixels.

    Weight is clamp(1 - deltaE/45, 0, 1); deltaE is sampled at each window's
    center so the weight grid co-registers with the quality map, and each
    band of the map is weighted and pooled as it is formed.
    """
    ref, dist = _pair_in(ref, dist, SPACE_RGB)
    config = frame_config(config, ref, dist)
    k, s, c = config.window.k, config.window.stride, (config.window.k - 1) // 2
    gh, gw = _grid_shape(ref.height, ref.width, k, s)
    weight = np.clip(1.0 - delta_e_map(ref, dist)[c::s, c::s][:gh, :gw] / DELTA_E_FULL_MASK, 0.0, 1.0)
    stats = _statistics(luma_of(ref), luma_of(dist), config)
    (total,), n = _band_sums(stats, config.c1, config.c2, lambda rows, mu1, l, cs, q: (q * weight[rows],))
    return total / n


# ---------------------------------------------------------------------------
# Hue similarity model
# ---------------------------------------------------------------------------

def hue_plane(frame: ColorFrame) -> LumaPlane:
    """HSV hue rescaled to [0, L]; achromatic pixels get hue 0."""
    frame.require_space(SPACE_RGB)
    hue = np.empty((frame.height, frame.width))
    for rows, _, _ in _row_bands(frame.height):
        hue[rows] = _hue_band(*(np.asarray(c[rows], dtype=np.float64) for c in frame.channels), frame.peak)
    return LumaPlane(owned(hue), frame.bit_depth)


def _hue_band(r: np.ndarray, g: np.ndarray, b: np.ndarray, peak: float) -> np.ndarray:
    """Hue of float64 channel rows, rescaled to [0, peak]."""
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    delta = mx - mn
    safe = np.where(delta == 0.0, 1.0, delta)
    hue = np.where(
        delta == 0.0,
        0.0,
        np.where(
            mx == r,
            np.mod((g - b) / safe, 6.0),
            np.where(mx == g, (b - r) / safe + 2.0, (r - g) / safe + 4.0),
        ),
    )
    hue *= 60.0
    hue /= 360.0
    hue *= peak
    return hue


def hssim(ref: ColorFrame, dist: ColorFrame, config: SsimConfig = SsimConfig()) -> float:
    """(SSIM + 0.2 * hue-channel SSIM) / 1.2."""
    ref, dist = _pair_in(ref, dist, SPACE_RGB)
    luma_score = ssim_score(luma_of(ref), luma_of(dist), config)
    hue_score = ssim_score(hue_plane(ref), hue_plane(dist), config)
    return (luma_score + 0.2 * hue_score) / 1.2
