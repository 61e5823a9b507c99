import math
import tracemalloc

import numpy as np
import pytest

from ssimkit import color
from ssimkit.color import (
    _rgb_frame_to_lab,
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
from ssimkit.frames import SPACE_RGB, SPACE_YCBCR, ColorFrame, LumaPlane
from ssimkit.pipeline import score_frame_pair
from ssimkit.ssim import mssim, ssim_map, ssim_score
from ssimkit.stats import BAND_ROWS, _sliding_weighted_sums, gaussian_kernel

from helpers import blur_plane, in_fresh_thread, natural_plane, noisy_version, per_tap_sums, random_rgb


def cw(alpha, beta, **settings):
    """A config for the channel-wise model with chroma weights alpha, beta."""
    return SsimConfig(color=ColorModelSpec("cw", alpha, beta), **settings)


def rect(k):
    """A config with a k x k rectangular window."""
    return SsimConfig(window=WindowSpec("rect", k=k))


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
        cfg = SsimConfig(window=WindowSpec("rect", k=5))
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
        config = SsimConfig(window=WindowSpec("rect", k=k, stride=stride), color=ColorModelSpec("qssim", space=space))
        fast = qssim(ref, dist, config)
        monkeypatch.setattr(color, "_sliding_weighted_sums", per_tap_sums)
        assert fast == qssim(ref, dist, config)

    def test_ycbcr_embedding_space(self, rng):
        frame = random_rgb(rng, 16, 16)
        assert qssim(frame, frame, SsimConfig(color=ColorModelSpec("qssim", space="ycbcr"))) == pytest.approx(1.0, abs=1e-9)


def whole_plane_qssim(ref, dist, config):
    """qssim with every window mean and product formed over whole planes,
    in the same arithmetic and order as each band of :func:`qssim`."""
    window, space = config.window, config.color.space
    ref, dist = color._pair_in(ref, dist, SPACE_YCBCR if space == "ycbcr" else SPACE_RGB)
    ref, dist = upsample_chroma(ref), upsample_chroma(dist)

    def embed(frame):
        if space != "lab":
            return tuple(np.asarray(c, dtype=np.float64) for c in frame.channels)
        return tuple(np.asarray(c, dtype=np.float64) * (frame.peak / 100.0) for c in color._rgb_frame_to_lab(frame))

    r1, g1, b1 = embed(ref)
    r2, g2, b2 = embed(dist)
    config = config.for_bit_depth(ref.bit_depth)
    c1, c2 = config.c1, config.c2
    k, stride = window.k, window.stride
    kern = np.full((k, k), 1.0 / (k * k))

    def wmean(x):
        return _sliding_weighted_sums(x, kern, stride)

    m1 = [wmean(r1), wmean(g1), wmean(b1)]
    m2 = [wmean(r2), wmean(g2), wmean(b2)]
    dot12 = r1 * r2 + g1 * g2 + b1 * b2
    cross_i = g1 * b2 - b1 * g2
    cross_j = b1 * r2 - r1 * b2
    cross_k = r1 * g2 - g1 * r2
    e_dot = wmean(dot12)
    e_cr_i, e_cr_j, e_cr_k = wmean(-cross_i), wmean(-cross_j), wmean(-cross_k)
    e_sq1 = wmean(r1 * r1 + g1 * g1 + b1 * b1)
    e_sq2 = wmean(r2 * r2 + g2 * g2 + b2 * b2)
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
    values = (num1 / den1) * (num2 / den2)
    return float(values.mean())


def qssim_config(k, stride, space):
    return SsimConfig(window=WindowSpec("rect", k=k, stride=stride), color=ColorModelSpec("qssim", space=space))


class TestBandedQssim:
    """qssim runs band by band and scores as the whole-plane arithmetic does."""

    @pytest.mark.parametrize("space", ["rgb", "ycbcr", "lab"])
    @pytest.mark.parametrize("k, stride", [(11, 1), (7, 3), (8, 5), (3, 1)])
    @pytest.mark.parametrize("grid_rows", [3 * BAND_ROWS - 1, 3 * BAND_ROWS, 3 * BAND_ROWS + 1])
    def test_scores_equal_the_whole_plane_oracle(self, rng, space, k, stride, grid_rows):
        # Three bands whose last ends one row before, on, or one row past a
        # band edge (a fourth band of one row).
        ref = natural_rgb(rng, (grid_rows - 1) * stride + k, 19)
        dist = ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 20).samples for c in ref.channels))
        config = qssim_config(k, stride, space)
        assert repr(qssim(ref, dist, config)) == repr(whole_plane_qssim(ref, dist, config))

    @pytest.mark.parametrize("space", ["rgb", "ycbcr", "lab"])
    @pytest.mark.parametrize("k, stride", [(11, 1), (7, 3), (8, 5), (3, 1)])
    def test_420_ycbcr_scores_equal_the_whole_plane_oracle(self, rng, space, k, stride):
        rgb = natural_rgb(rng, 2 * BAND_ROWS + 15, 23)
        ref = ycbcr_420(rgb)
        dist = ycbcr_420(ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 20).samples for c in rgb.channels)))
        config = qssim_config(k, stride, space)
        assert repr(qssim(ref, dist, config)) == repr(whole_plane_qssim(ref, dist, config))

    def test_peak_memory_is_bounded_by_bands(self, rng):
        # About thirty whole-plane float64 temporaries peaked at 58.0 MiB.
        ref, dist = random_rgb(rng, 384, 512), random_rgb(rng, 384, 512)
        tracemalloc.start()
        try:
            qssim(ref, dist, rect(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20


class TestPinnedColourScores:
    """Every colour scorer's value on one seeded pair, to the last bit."""

    SCORES = {
        "qssim/rgb": "0x1.c98bcae5dc7b3p-1",
        "qssim/ycbcr": "0x1.c5008adbb8376p-1",
        "qssim/lab": "0x1.c2f402ff9150fp-1",
        "hssim": "0x1.a55a0716a550ep-1",
        "cmssim": "0x1.810f19e132274p-1",
        "cw": "0x1.aa2ff77ddc385p-1",
    }

    def test_scores_are_pinned(self):
        rng = np.random.default_rng(150200)
        ref = ColorFrame(tuple(natural_plane(rng, 150, 200).samples for _ in range(3)))
        dist = ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 20).samples for c in ref.channels))
        got = {f"qssim/{space}": qssim(ref, dist, qssim_config(11, 1, space)) for space in ("rgb", "ycbcr", "lab")}
        got["hssim"] = hssim(ref, dist)
        got["cmssim"] = cmssim(ref, dist)
        got["cw"] = channelwise_cssim(ref, dist, cw(-0.3, -0.3))
        assert {name: score.hex() for name, score in got.items()} == self.SCORES


class TestColourWorkingSet:
    """Peaks of one score on a 512x384 8-bit RGB pair, traced on a fresh
    thread, with the score pinned to the last bit."""

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(512384)
        ref = ColorFrame(tuple(natural_plane(rng, 384, 512).samples for _ in range(3)))
        return ref, ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 20).samples for c in ref.channels))

    # cmssim: its whole l, cs and q maps (1.4 MiB each) and the luma planes
    # held while delta-E is formed do not fit under the bound. cw: a copy of
    # each channel the YCbCr conversion makes (1.5 MiB each) does not.
    @pytest.mark.parametrize("scorer, config, score, bound_mib", [
        (cmssim, SsimConfig(), "0x1.7879d8f872da7p-1", 30.0),
        (channelwise_cssim, cw(-0.3, -0.3), "0x1.b420f4187a3fdp-1", 15.5),
    ], ids=["cmssim", "cw"])
    def test_peak(self, pair, scorer, config, score, bound_mib):
        def traced():
            tracemalloc.start()
            try:
                return scorer(*pair, config), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        got, peak = in_fresh_thread(traced)
        assert got.hex() == score
        assert peak < bound_mib * 2**20


class TestSettingsFromConfig:
    """Each colour scorer takes every setting from the config it is given."""

    def test_cmssim_and_hssim_follow_the_config_window(self, rng):
        ref = natural_rgb(rng, 48, 48)
        dist = ColorFrame(tuple(blur_plane(LumaPlane(c), 2).samples for c in ref.channels))
        gauss = SsimConfig(window=WindowSpec("gauss", sigma=1.5))
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
        config = SsimConfig(window=WindowSpec("rect", k=4), k1=0.05, k2=0.1)
        got = qssim(ref, dist, config=config)
        assert got == pytest.approx(brute_force_qssim(ref, dist, 0.05, 0.1), abs=1e-9)
        assert got != qssim(ref, dist, config=rect(4))

    def test_qssim_follows_the_config_embedding_space(self, rng):
        ref, dist = random_rgb(rng, 4, 4), random_rgb(rng, 4, 4)
        config = SsimConfig(window=WindowSpec("rect", k=4), color=ColorModelSpec("qssim", space="ycbcr"))
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
        got = np.sqrt(sum((a - b) ** 2 for a, b in zip(_rgb_frame_to_lab(ref), _rgb_frame_to_lab(dist))))
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


class TestFreshPlanes:
    """Luma and hue planes are built once, read-only, and wrapped without a copy."""

    @pytest.mark.parametrize("dtype, peak", [(np.uint8, 255), (np.uint16, 1023), (np.float64, 255)])
    def test_rgb_luma_equals_the_float64_formula_byte_for_byte(self, rng, dtype, peak):
        chans = tuple(rng.integers(0, peak + 1, (37, 53)).astype(dtype) for _ in range(3))
        frame = ColorFrame(chans, bit_depth=8 if peak == 255 else 10)
        r, g, b = (c.astype(np.float64) for c in chans)
        luma = luma_of(frame).samples
        assert not luma.flags.writeable
        assert luma.tobytes() == (0.213 * r + 0.715 * g + 0.072 * b).tobytes()

    def test_rgb_luma_peaks_at_most_four_outputs(self, rng):
        # Float64 copies of the three channels and a copy of the result
        # took five outputs (7.50 MiB at 512x384).
        frame = random_rgb(rng, 384, 512)
        tracemalloc.start()
        try:
            luma = luma_of(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * luma.samples.nbytes

    def test_hue_plane_is_read_only(self, rng):
        assert not hue_plane(random_rgb(rng)).samples.flags.writeable

    @pytest.mark.parametrize("dtype, peak", [(np.uint8, 255), (np.uint16, 1023), (np.float64, 255)])
    def test_hue_plane_equals_the_whole_plane_formula_byte_for_byte(self, rng, dtype, peak):
        chans = tuple(rng.integers(0, peak + 1, (2 * BAND_ROWS + 1, 53)).astype(dtype) for _ in range(3))
        chans[1][:9] = chans[0][:9]  # ties between the largest channels
        chans[2][:5] = chans[0][:5]  # achromatic rows
        r, g, b = (c.astype(np.float64) for c in chans)
        mx, mn = np.maximum(np.maximum(r, g), b), np.minimum(np.minimum(r, g), b)
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
        frame = ColorFrame(chans, bit_depth=8 if peak == 255 else 10)
        assert hue_plane(frame).samples.tobytes() == hue.tobytes()

    def test_hue_plane_peaks_below_8_mib(self, rng):
        # Float64 copies of the channels and the nested np.where's
        # whole-plane temporaries peaked at 17.1 MiB at 512x384.
        frame = random_rgb(rng, 384, 512)
        tracemalloc.start()
        try:
            hue_plane(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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
        config = SsimConfig(color=ColorModelSpec("cw", -0.3, -0.2), scaling=ScalePolicy("legacy"))
        got = score_frame_pair(ref, dist, config).score
        assert got == channelwise_cssim(box_by_hand(ref, 2), box_by_hand(dist, 2), config)
        assert got != channelwise_cssim(ref, dist, config)

    def test_qssim_lab_embedding_matches_brute_force_on_4x4(self, rng):
        config = SsimConfig(window=WindowSpec("rect", k=4), color=ColorModelSpec("qssim", space="lab"))
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
            (qssim, SsimConfig(window=WindowSpec("rect", k=8), color=ColorModelSpec("qssim", space="lab"))),
            (cmssim, rect(8)),
            (hssim, rect(8)),
        ]:
            assert scorer(ref_420, dist_420, config) == scorer(rgb_ref, rgb_dist, config)
