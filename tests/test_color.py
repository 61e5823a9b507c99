import math

import numpy as np
import pytest

from ssimkit import color
from ssimkit.color import (
    _smooth,
    channelwise_cssim,
    cmssim,
    combine_channelwise,
    delta_e_map,
    fixed_weight_cssim,
    hssim,
    hue_plane,
    luma_of,
    qssim,
    rgb_to_ycbcr_bt709,
    upsample_chroma,
    ycbcr_bt709_to_rgb,
)
from ssimkit.config import ColorModelSpec, ScalePolicy, SsimConfig, WindowSpec
from ssimkit.errors import DegenerateWeights, WrongSpace
from ssimkit.frames import ColorFrame, LumaPlane
from ssimkit.pipeline import score_frame_pair
from ssimkit.ssim import mssim, ssim_map, ssim_score
from ssimkit.stats import gaussian_kernel

from helpers import blur_plane, natural_plane, noisy_version, per_tap_sums, random_rgb


def cw(alpha, beta, **settings):
    """A config for the channel-wise model with chroma weights alpha, beta."""
    return SsimConfig(color=ColorModelSpec("cw", alpha, beta), **settings)


def rect(k):
    """A config with a k x k rectangular window."""
    return SsimConfig(window=WindowSpec.rectangular(k))


def flat_rgb(r, g, b, size=16):
    return ColorFrame(
        (
            np.full((size, size), r, dtype=np.uint8),
            np.full((size, size), g, dtype=np.uint8),
            np.full((size, size), b, dtype=np.uint8),
        )
    )


def natural_rgb(rng, height=48, width=48):
    chans = tuple(natural_plane(rng, height, width).samples for _ in range(3))
    return ColorFrame(chans)


class TestYCbCrConversion:
    def test_white_maps_to_peak_luma(self):
        out = rgb_to_ycbcr_bt709(flat_rgb(255, 255, 255))
        assert np.allclose(out.channels[0], 255.0, atol=1e-9)
        assert np.allclose(out.channels[1], 127.5, atol=1e-9)
        assert np.allclose(out.channels[2], 127.5, atol=1e-9)

    def test_black(self):
        out = rgb_to_ycbcr_bt709(flat_rgb(0, 0, 0))
        assert np.allclose(out.channels[0], 0.0)
        assert np.allclose(out.channels[1], 127.5)
        assert np.allclose(out.channels[2], 127.5)

    def test_pure_blue_direct_evaluation(self):
        # oracle: Y = 0.072 L; Cb - offset = 0.539 * (1 - 0.072) * L
        out = rgb_to_ycbcr_bt709(flat_rgb(0, 0, 255))
        assert np.allclose(out.channels[0], 18.36, atol=1e-9)
        assert np.allclose(out.channels[1] - 127.5, 127.54896, atol=1e-9)

    def test_requires_rgb(self, rng):
        frame = rgb_to_ycbcr_bt709(random_rgb(rng))
        with pytest.raises(WrongSpace):
            rgb_to_ycbcr_bt709(frame)

    def test_inverse_round_trip(self, rng):
        frame = random_rgb(rng, 12, 12)
        back = ycbcr_bt709_to_rgb(rgb_to_ycbcr_bt709(frame))
        for a, b in zip(frame.channels, back.channels):
            assert np.allclose(a.astype(float), b, atol=1e-9)

    def test_chroma_upsampling_dims(self):
        y = np.zeros((5, 7), dtype=np.uint8)
        c = np.zeros((3, 4), dtype=np.uint8)
        up = upsample_chroma(ColorFrame((y, c, c), "ycbcr-bt709", "420"))
        assert up.subsampling == "444"
        assert up.channels[1].shape == (5, 7)


class TestChannelwise:
    def test_combination_rule_direct_evaluation(self):
        # oracle: (0.9 - 0.3*0.8 - 0.3*0.7) / (1 - 0.3 - 0.3) = 0.45 / 0.4
        assert combine_channelwise(0.9, 0.8, 0.7, -0.3, -0.3) == pytest.approx(1.125, abs=1e-12)

    def test_zero_weights_collapse_to_luma(self, rng):
        ref = natural_rgb(rng)
        dist = ColorFrame(
            (noisy_version(rng, LumaPlane(ref.channels[0]), 20).samples,) + ref.channels[1:]
        )
        y1, y2 = rgb_to_ycbcr_bt709(ref), rgb_to_ycbcr_bt709(dist)
        luma_only = mssim(ssim_map(LumaPlane(y1.channels[0]), LumaPlane(y2.channels[0])))
        assert channelwise_cssim(y1, y2, cw(0.0, 0.0)) == pytest.approx(luma_only, abs=1e-12)

    def test_identical_frames_any_weights(self, rng):
        frame = rgb_to_ycbcr_bt709(natural_rgb(rng))
        for alpha, beta in [(0.1, 0.1), (-0.3, -0.3), (1.0, 2.0)]:
            assert channelwise_cssim(frame, frame, cw(alpha, beta)) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_weights(self, rng):
        frame = rgb_to_ycbcr_bt709(natural_rgb(rng))
        with pytest.raises(DegenerateWeights):
            channelwise_cssim(frame, frame, cw(-0.5, -0.5))
        # a config for another model leaves the weights to the scorer's check
        with pytest.raises(DegenerateWeights):
            channelwise_cssim(frame, frame, SsimConfig(color=ColorModelSpec("luma", -0.5, -0.5)))

    def test_fixed_weights_identity(self, rng):
        frame = rgb_to_ycbcr_bt709(natural_rgb(rng))
        assert fixed_weight_cssim(frame, frame) == pytest.approx(1.0, abs=1e-9)

    def test_fixed_luma_only_weights_equal_luma(self, rng):
        ref = rgb_to_ycbcr_bt709(natural_rgb(rng))
        dist_y = noisy_version(rng, LumaPlane(ref.channels[0]), 15).samples
        dist = ColorFrame((dist_y,) + ref.channels[1:], "ycbcr-bt709")
        luma_only = mssim(ssim_map(LumaPlane(ref.channels[0]), LumaPlane(dist_y)))
        assert fixed_weight_cssim(ref, dist, SsimConfig(color=ColorModelSpec("fixed", weights=(1.0, 0.0, 0.0)))) == luma_only

    def test_420_scores_chroma_at_chroma_resolution(self, rng):
        y = natural_plane(rng, 32, 32).samples
        c = natural_plane(rng, 16, 16).samples
        ref = ColorFrame((y, c, c), "ycbcr-bt709", "420")
        dist_c = noisy_version(rng, LumaPlane(c), 10).samples
        dist = ColorFrame((y, dist_c, dist_c), "ycbcr-bt709", "420")
        cfg = SsimConfig(window=WindowSpec.rectangular(5))
        score = channelwise_cssim(ref, dist, cw(0.5, 0.5, window=cfg.window))
        chroma_score = mssim(ssim_map(LumaPlane(c), LumaPlane(dist_c), cfg))
        assert score == pytest.approx((1.0 + 0.5 * chroma_score * 2) / 2.0, abs=1e-9)


class Quaternion:
    """Scalar quaternion for the brute-force oracle (Hamilton products)."""

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w, self.x, self.y, self.z = float(w), float(x), float(y), float(z)

    def __add__(self, o):
        return Quaternion(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o):
        return Quaternion(self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z)

    def __mul__(self, o):
        if isinstance(o, (int, float)):
            return Quaternion(self.w * o, self.x * o, self.y * o, self.z * o)
        return Quaternion(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )

    __rmul__ = __mul__

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)


def brute_force_qssim(ref, dist, k1=0.01, k2=0.03):
    """Whole-frame quaternion oracle with the same biased statistics."""
    h, w = ref.height, ref.width
    n = h * w
    peak = ref.peak
    c1, c2 = (k1 * peak) ** 2, (k2 * peak) ** 2
    q1 = [
        Quaternion(0, *(float(ref.channels[c][i, j]) for c in range(3)))
        for i in range(h)
        for j in range(w)
    ]
    q2 = [
        Quaternion(0, *(float(dist.channels[c][i, j]) for c in range(3)))
        for i in range(h)
        for j in range(w)
    ]
    mu1 = sum(q1, Quaternion()) * (1.0 / n)
    mu2 = sum(q2, Quaternion()) * (1.0 / n)
    e12 = sum((a * b.conj() for a, b in zip(q1, q2)), Quaternion()) * (1.0 / n)
    cov = e12 - mu1 * mu2.conj()
    var1 = sum(a.norm() ** 2 for a in q1) / n - mu1.norm() ** 2
    var2 = sum(b.norm() ** 2 for b in q2) / n - mu2.norm() ** 2
    f1 = (2.0 * (mu1 * mu2.conj()) + Quaternion(c1)).norm() / (mu1.norm() ** 2 + mu2.norm() ** 2 + c1)
    f2 = (2.0 * cov + Quaternion(c2)).norm() / (var1 + var2 + c2)
    return f1 * f2


class TestQssim:
    def test_identical_frames(self, rng):
        frame = random_rgb(rng, 16, 16)
        assert qssim(frame, frame) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric(self, rng):
        a, b = random_rgb(rng, 8, 8), random_rgb(rng, 8, 8)
        assert qssim(a, b, rect(5)) == qssim(b, a, rect(5))

    def test_grayscale_reduces_to_scalar_formula(self, rng):
        v1 = natural_plane(rng, 12, 12).samples
        v2 = noisy_version(rng, LumaPlane(v1), 20).samples
        gray1 = ColorFrame((v1, v1, v1))
        gray2 = ColorFrame((v2, v2, v2))
        k = 12
        got = qssim(gray1, gray2, rect(k))
        # oracle: scalar statistics of sqrt(3)-scaled samples in the same form
        s1 = np.sqrt(3.0) * v1.astype(float)
        s2 = np.sqrt(3.0) * v2.astype(float)
        c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
        mu1, mu2 = s1.mean(), s2.mean()
        var1, var2 = (s1 * s1).mean() - mu1**2, (s2 * s2).mean() - mu2**2
        cov = (s1 * s2).mean() - mu1 * mu2
        expected = abs(
            (2 * mu1 * mu2 + c1) / (mu1**2 + mu2**2 + c1)
        ) * abs((2 * cov + c2) / (var1 + var2 + c2))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_uniform_scaling_matches_brute_force_on_4x4(self, rng):
        base = rng.integers(40, 200, (4, 4)).astype(np.uint8)
        ref = ColorFrame((base, (base * 0.8).astype(np.uint8), (base * 0.6).astype(np.uint8)))
        dist = ColorFrame(tuple((c * 1.1).astype(np.uint8) for c in ref.channels))
        got = qssim(ref, dist, rect(4))
        expected = brute_force_qssim(ref, dist)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got < 1.0

    def test_random_pairs_match_brute_force_on_4x4(self, rng):
        for _ in range(5):
            ref, dist = random_rgb(rng, 4, 4), random_rgb(rng, 4, 4)
            got = qssim(ref, dist, rect(4))
            assert got == pytest.approx(brute_force_qssim(ref, dist), abs=1e-9)

    @pytest.mark.parametrize("space", ["rgb", "ycbcr", "lab"])
    @pytest.mark.parametrize("k,stride", [(11, 1), (8, 4), (7, 3)])
    def test_scores_equal_per_tap_window_means_bit_for_bit(self, rng, monkeypatch, space, k, stride):
        ref = natural_rgb(rng, 150, 90)
        dist = ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 20).samples for c in ref.channels))
        config = SsimConfig(window=WindowSpec.rectangular(k, stride), color=ColorModelSpec("qssim", space=space))
        fast = qssim(ref, dist, config)
        monkeypatch.setattr(color, "_sliding_weighted_sums", per_tap_sums)
        assert fast == qssim(ref, dist, config)

    def test_ycbcr_embedding_space(self, rng):
        frame = random_rgb(rng, 16, 16)
        assert qssim(frame, frame, SsimConfig(color=ColorModelSpec("qssim", space="ycbcr"))) == pytest.approx(1.0, abs=1e-9)


class TestSettingsFromConfig:
    """Each colour scorer takes every setting from the config it is given."""

    def test_cmssim_and_hssim_follow_the_config_window(self, rng):
        ref = natural_rgb(rng, 48, 48)
        dist = ColorFrame(tuple(blur_plane(LumaPlane(c), 2).samples for c in ref.channels))
        gauss = SsimConfig(window=WindowSpec.gaussian(1.5))
        luma = ssim_map(luma_of(ref), luma_of(dist), gauss)
        hue = mssim(ssim_map(hue_plane(ref), hue_plane(dist), gauss))
        assert hssim(ref, dist, config=gauss) == pytest.approx((mssim(luma) + 0.2 * hue) / 1.2, abs=1e-12)
        # the 11x11 window's centres sit 5 pixels in from each edge
        weight = np.clip(1.0 - delta_e_map(ref, dist) / 45.0, 0.0, 1.0)[5:-5, 5:-5]
        assert cmssim(ref, dist, config=gauss) == pytest.approx((luma.q_map.values * weight).mean(), abs=1e-12)
        assert cmssim(ref, dist, config=gauss) != cmssim(ref, dist)
        assert hssim(ref, dist, config=gauss) != hssim(ref, dist)

    def test_qssim_follows_the_config_constants(self, rng):
        ref, dist = random_rgb(rng, 4, 4), random_rgb(rng, 4, 4)
        config = SsimConfig(window=WindowSpec.rectangular(4), k1=0.05, k2=0.1)
        got = qssim(ref, dist, config=config)
        assert got == pytest.approx(brute_force_qssim(ref, dist, 0.05, 0.1), abs=1e-9)
        assert got != qssim(ref, dist, config=rect(4))

    def test_qssim_follows_the_config_embedding_space(self, rng):
        ref, dist = random_rgb(rng, 4, 4), random_rgb(rng, 4, 4)
        config = SsimConfig(window=WindowSpec.rectangular(4), color=ColorModelSpec("qssim", space="ycbcr"))
        expected = brute_force_qssim(rgb_to_ycbcr_bt709(ref), rgb_to_ycbcr_bt709(dist))
        assert qssim(ref, dist, config=config) == pytest.approx(expected, abs=1e-9)
        assert qssim(ref, dist, config=config) != qssim(ref, dist, config=rect(4))


def reference_lab(rgb_frame, q_roundtrip=False):
    """Independent per-pixel scalar CIELAB oracle.

    With ``q_roundtrip`` the XYZ values pass through the opponent space and
    back through the published (rounded) inverse matrix, as the weighted-map
    pipeline prescribes; on flat patches the chroma smoothing is the identity
    so this reproduces that pipeline exactly.
    """
    m = np.array(
        [
            [0.4124564, 0.3575761, 0.1804375],
            [0.2126729, 0.7151522, 0.0721750],
            [0.0193339, 0.1191920, 0.9503041],
        ]
    )
    to_q = np.array([[0.279, 0.72, -0.107], [-0.449, 0.29, -0.077], [0.086, -0.59, 0.501]])
    from_q = np.array(
        [[0.6204, -1.8704, -0.1553], [1.3661, 0.9316, 0.4339], [1.5013, 1.4176, 2.5331]]
    )
    white = (0.95047, 1.0, 1.08883)

    def f(t):
        return t ** (1 / 3) if t > (6 / 29) ** 3 else t / (3 * (6 / 29) ** 2) + 4 / 29

    h, w = rgb_frame.height, rgb_frame.width
    out = np.zeros((3, h, w))
    for i in range(h):
        for j in range(w):
            rgb = np.array([float(rgb_frame.channels[c][i, j]) / rgb_frame.peak for c in range(3)])
            xyz = m @ rgb
            if q_roundtrip:
                xyz = from_q @ (to_q @ xyz)
            fx, fy, fz = f(xyz[0] / white[0]), f(xyz[1] / white[1]), f(xyz[2] / white[2])
            out[:, i, j] = (116 * fy - 16, 500 * (fx - fy), 200 * (fy - fz))
    return out


def padding_loop_smooth(values, sigma=2.0, k=13):
    """The opponent-channel smoothing as a padding loop: reflect-pad the
    rows and filter down, then reflect-pad the columns and filter across."""
    kern1d = gaussian_kernel(sigma, k)[(k - 1) // 2]
    kern1d = kern1d / kern1d.sum()
    pad = (k - 1) // 2
    out = np.pad(values, ((pad, pad), (0, 0)), mode="reflect")
    out = sum(kern1d[m] * out[m : m + values.shape[0], :] for m in range(k))
    out = np.pad(out, ((0, 0), (pad, pad)), mode="reflect")
    return sum(kern1d[n] * out[:, n : n + values.shape[1]] for n in range(k))


class TestCmssim:
    def test_smoothing_equals_the_padding_loop_bit_for_bit(self, rng):
        for _ in range(30):
            h, w = (int(n) for n in rng.integers(2, 160, 2))
            values = rng.normal(size=(h, w)) * 10.0 ** int(rng.integers(-3, 4))
            values[::5, ::3] = -0.0
            assert _smooth(values).tobytes() == padding_loop_smooth(values).tobytes()

    def test_identical_frames(self, rng):
        frame = natural_rgb(rng, 32, 32)
        assert cmssim(frame, frame) == pytest.approx(1.0, abs=1e-9)

    def test_chroma_distortion_lowers_score_below_luma(self, rng):
        # luminance-identical pair: any deltaE > 0 must drag the score down
        y = natural_plane(rng, 32, 32).samples.astype(np.float64)
        ref = ColorFrame((y, y * 0.8, y * 0.5))
        dist = ColorFrame((y, y * 0.5, y * 0.8))
        luma_score = ssim_score(luma_of(ref), luma_of(dist))
        assert cmssim(ref, dist) < luma_score

    def test_flat_patch_weight_matches_lab_oracle(self):
        ref = flat_rgb(180, 60, 60)
        dist = flat_rgb(150, 80, 60)
        lab1 = reference_lab(ref, q_roundtrip=True)[:, 0, 0]
        lab2 = reference_lab(dist, q_roundtrip=True)[:, 0, 0]
        delta = float(np.sqrt(((lab1 - lab2) ** 2).sum()))
        weight = min(max(1.0 - delta / 45.0, 0.0), 1.0)
        assert 0.0 < weight < 1.0  # a visible but unsaturated color difference
        luma_score = mssim(ssim_map(luma_of(ref), luma_of(dist)))
        assert cmssim(ref, dist) == pytest.approx(weight * luma_score, abs=1e-9)

    def test_delta_e_zero_for_identical(self, rng):
        frame = natural_rgb(rng, 24, 24)
        assert np.allclose(delta_e_map(frame, frame), 0.0, atol=1e-12)

    def test_delta_e_matches_oracle_without_smoothing(self, rng):
        ref, dist = random_rgb(rng, 6, 6), random_rgb(rng, 6, 6)
        got = delta_e_map(ref, dist, smooth_opponent=False)
        lab1, lab2 = reference_lab(ref), reference_lab(dist)
        expected = np.sqrt(((lab1 - lab2) ** 2).sum(axis=0))
        assert np.allclose(got, expected, atol=1e-9)

    def test_never_exceeds_luma_mssim(self, rng):
        ref = natural_rgb(rng, 48, 48)
        blurred = tuple(blur_plane(LumaPlane(c), 2).samples for c in ref.channels)
        dist = ColorFrame(blurred)
        luma_score = mssim(ssim_map(luma_of(ref), luma_of(dist)))
        assert cmssim(ref, dist) <= luma_score + 1e-12


class TestHssim:
    def test_identical_frames(self, rng):
        frame = natural_rgb(rng)
        assert hssim(frame, frame) == pytest.approx(1.0, abs=1e-9)

    def test_hue_preserving_distortion(self, rng):
        # even-valued channels halve exactly, so hue (a ratio) is untouched
        chans = tuple(rng.integers(0, 128, (32, 32)).astype(np.uint8) * 2 for _ in range(3))
        ref = ColorFrame(chans)
        dist = ColorFrame(tuple(c // 2 for c in chans))
        hue1, hue2 = hue_plane(ref), hue_plane(dist)
        assert np.array_equal(hue1.samples, hue2.samples)
        luma_score = mssim(ssim_map(luma_of(ref), luma_of(dist)))
        assert hssim(ref, dist) == pytest.approx((luma_score + 0.2) / 1.2, abs=1e-9)

    def test_achromatic_hue_is_zero(self, rng):
        v = natural_plane(rng, 16, 16).samples
        gray = ColorFrame((v, v, v))
        assert np.all(hue_plane(gray).samples == 0.0)
        v2 = noisy_version(rng, LumaPlane(v), 30).samples
        gray2 = ColorFrame((v2, v2, v2))
        luma_score = mssim(ssim_map(luma_of(gray), luma_of(gray2)))
        assert hssim(gray, gray2) == pytest.approx((luma_score + 0.2) / 1.2, abs=1e-9)

    def test_hue_formula(self):
        frame = flat_rgb(255, 0, 0)
        assert np.all(hue_plane(frame).samples == 0.0)  # red sits at hue 0
        frame = flat_rgb(0, 255, 0)
        assert np.allclose(hue_plane(frame).samples, 120.0 / 360.0 * 255.0)
        frame = flat_rgb(0, 0, 255)
        assert np.allclose(hue_plane(frame).samples, 240.0 / 360.0 * 255.0)


def box_by_hand(frame, f):
    """Block means of each channel of a frame whose sides are multiples of f."""
    chans = []
    for c in frame.channels:
        h, w = c.shape
        chans.append(np.asarray(c, dtype=np.float64).reshape(h // f, f, w // f, f).mean(axis=(1, 3)))
    return ColorFrame(tuple(chans), frame.space, frame.subsampling, frame.bit_depth)


def ycbcr_420(rgb):
    """A 4:2:0 YCbCr frame: the BT.709 conversion of ``rgb`` with each 2x2
    block's chroma taken from its top-left sample."""
    y, cb, cr = rgb_to_ycbcr_bt709(rgb).channels
    return ColorFrame((y, cb[::2, ::2], cr[::2, ::2]), "ycbcr-bt709", "420")


class TestColourPaths:
    """Colour frames through scaling, the lab embedding and 4:2:0 YCbCr input."""

    def test_scaled_colour_frames_score_like_frames_downsampled_by_hand(self, rng):
        ref = natural_rgb(rng, 384, 392)  # the 256-line rule gives factor 2
        dist = ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 20).samples for c in ref.channels))
        config = SsimConfig(color=ColorModelSpec("cw", -0.3, -0.2), scaling=ScalePolicy.legacy256())
        got = score_frame_pair(ref, dist, config).score
        assert got == channelwise_cssim(box_by_hand(ref, 2), box_by_hand(dist, 2), config)
        assert got != channelwise_cssim(ref, dist, config)

    def test_qssim_lab_embedding_matches_brute_force_on_4x4(self, rng):
        config = SsimConfig(window=WindowSpec.rectangular(4), color=ColorModelSpec("qssim", space="lab"))
        for _ in range(3):
            ref, dist = random_rgb(rng, 4, 4), random_rgb(rng, 4, 4)
            lab1, lab2 = (ColorFrame(tuple(reference_lab(f) * (f.peak / 100.0))) for f in (ref, dist))
            assert qssim(ref, dist, config) == pytest.approx(brute_force_qssim(lab1, lab2), abs=1e-9)

    def test_420_ycbcr_input_scores_like_the_frames_converted_to_rgb(self, rng):
        ref = natural_rgb(rng, 32, 32)
        dist = ColorFrame(tuple(blur_plane(LumaPlane(c), 2).samples for c in ref.channels))
        ref_420, dist_420 = ycbcr_420(ref), ycbcr_420(dist)
        rgb_ref, rgb_dist = ycbcr_bt709_to_rgb(ref_420), ycbcr_bt709_to_rgb(dist_420)
        by_hand = ColorFrame(
            (ref_420.channels[0],) + tuple(np.repeat(np.repeat(c, 2, 0), 2, 1) for c in ref_420.channels[1:]),
            "ycbcr-bt709",
        )
        assert all(np.array_equal(a, b) for a, b in zip(rgb_ref.channels, ycbcr_bt709_to_rgb(by_hand).channels))
        for scorer, config in [
            (qssim, rect(8)),
            (qssim, SsimConfig(window=WindowSpec.rectangular(8), color=ColorModelSpec("qssim", space="lab"))),
            (cmssim, rect(8)),
            (hssim, rect(8)),
        ]:
            assert scorer(ref_420, dist_420, config) == scorer(rgb_ref, rgb_dist, config)
