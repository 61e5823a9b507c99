from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit.config import MultiscaleSpec, SsimConfig, WindowSpec
from ssimkit.errors import TooManyLevels, TooSmall, ValidationError
from ssimkit.frames import LumaPlane
from ssimkit.multiscale import dyadic_downsample, msssim, scale_scores
from ssimkit.ssim import mssim, ssim_map, ssim_score

from helpers import natural_plane, noisy_version, random_plane


def reshape_downsample(values):
    """Independent 2x2 block-mean oracle (reshape-based)."""
    h2, w2 = values.shape[0] // 2, values.shape[1] // 2
    trimmed = values[: 2 * h2, : 2 * w2].astype(np.float64)
    return trimmed.reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def float64_dyadic(values):
    """Oracle: 2x2 means from the four slices of a float64 copy, added in order."""
    arr = np.asarray(values, dtype=np.float64)
    h2, w2 = arr.shape[0] // 2, arr.shape[1] // 2
    arr = arr[: 2 * h2, : 2 * w2]
    return (arr[0::2, 0::2] + arr[0::2, 1::2] + arr[1::2, 0::2] + arr[1::2, 1::2]) / 4.0


@st.composite
def pyramid_planes(draw):
    """uint8, 10- and 16-bit uint16, int32 or float64 samples, odd sizes included."""
    kind = draw(st.sampled_from(["u8", "u10", "u16", "i32", "f64"]))
    h, w = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "f64":
        return rng.uniform(0, 255, (h, w))
    dtype, lo, hi = {
        "u8": (np.uint8, 0, 255), "u10": (np.uint16, 0, 1023),
        "u16": (np.uint16, 0, 65535), "i32": (np.int32, -(2**31), 2**31 - 1),
    }[kind]
    return rng.integers(lo, hi, (h, w), endpoint=True).astype(dtype)


class TestDyadicDownsample:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(pyramid_planes())
    def test_equals_float64_pooling_byte_for_byte(self, values):
        out = dyadic_downsample(values)
        expected = float64_dyadic(values)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_two_by_two_block_mean(self):
        plane = LumaPlane(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        out = dyadic_downsample(plane)
        assert out.samples.shape == (1, 1)
        assert out.samples[0, 0] == 2.5

    def test_constant_stays_constant(self):
        plane = LumaPlane(np.full((8, 6), 77, dtype=np.uint8))
        out = dyadic_downsample(plane)
        assert out.samples.shape == (4, 3)
        assert np.all(out.samples == 77.0)

    def test_odd_trailing_dropped(self, rng):
        plane = random_plane(rng, 5, 5)
        assert dyadic_downsample(plane).samples.shape == (2, 2)

    def test_matches_reshape_oracle(self, rng):
        plane = random_plane(rng, 21, 34)
        out = dyadic_downsample(plane)
        assert np.array_equal(out.samples, reshape_downsample(plane.samples))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            dyadic_downsample(LumaPlane(np.zeros((1, 8), dtype=np.uint8)))


SMALL_WINDOW = SsimConfig(window=WindowSpec.rectangular(5))


def ms(spec):
    """SMALL_WINDOW with the given multiscale settings."""
    return replace(SMALL_WINDOW, multiscale=spec)


class TestMsssim:
    @pytest.mark.parametrize(
        "spec",
        [MultiscaleSpec.product(3), MultiscaleSpec.weighted_sum(3), MultiscaleSpec.fast4()],
    )
    def test_identical_inputs(self, rng, spec):
        a = random_plane(rng, 96, 96)
        assert msssim(a, a, ms(spec)) == pytest.approx(1.0, abs=1e-12)

    def test_single_level_unit_exponent_equals_mssim(self, rng):
        a = random_plane(rng, 48, 48)
        b = noisy_version(rng, a)
        spec = MultiscaleSpec("product", 1, (1.0,))
        assert msssim(a, b, ms(spec)) == pytest.approx(
            ssim_score(a, b, SMALL_WINDOW), abs=1e-12
        )

    def test_product_matches_step_by_step_oracle(self, rng):
        a = natural_plane(rng, 128, 128)
        b = noisy_version(rng, a, 20)
        exponents = (0.3, 0.5, 0.2)
        spec = MultiscaleSpec("product", 3, exponents)
        # oracle: explicitly build each scale with the reshape downsampler and
        # multiply powered means of the cs maps (l*cs at the coarsest)
        cur_a, cur_b = a.samples.astype(float), b.samples.astype(float)
        expected = 1.0
        for level in range(3):
            if level > 0:
                cur_a, cur_b = reshape_downsample(cur_a), reshape_downsample(cur_b)
            maps = ssim_map(LumaPlane(cur_a), LumaPlane(cur_b), SMALL_WINDOW)
            score = maps.cs_map.values.mean() if level < 2 else maps.q_map.values.mean()
            expected *= max(score, 0.0) ** exponents[level]
        assert msssim(a, b, ms(spec)) == pytest.approx(expected, abs=1e-9)

    def test_sum_mode_matches_oracle(self, rng):
        a = natural_plane(rng, 96, 96)
        b = noisy_version(rng, a, 15)
        spec = MultiscaleSpec("sum", 3, (0.2, 0.3, 0.5))
        scores = scale_scores(a, b, ms(spec))
        assert msssim(a, b, ms(spec)) == pytest.approx(
            0.2 * scores[0] + 0.3 * scores[1] + 0.5 * scores[2], abs=1e-12
        )

    def test_monotone_under_increasing_noise(self, rng):
        a = natural_plane(rng, 192, 192)
        spec = MultiscaleSpec.product(5)
        cfg = SsimConfig(window=WindowSpec.rectangular(5))
        scores = []
        for amplitude in (0, 4, 12, 28, 60):
            b = noisy_version(rng, a, amplitude) if amplitude else a
            scores.append(msssim(a, b, replace(cfg, multiscale=spec)))
        diffs = np.diff(scores)
        assert np.all(diffs <= 1e-6)

    def test_product_le_sum_with_equal_exponents(self, rng):
        # AM-GM: equal-weight product of scores in (0, 1] never beats the mean
        a = natural_plane(rng, 96, 96)
        for amplitude in (5, 25, 50):
            b = noisy_version(rng, a, amplitude)
            scores = scale_scores(a, b, ms(MultiscaleSpec.product(3)))
            assert all(0.0 < s <= 1.0 for s in scores)
            prod = msssim(a, b, ms(MultiscaleSpec("product", 3, (1 / 3, 1 / 3, 1 / 3))))
            sm = msssim(a, b, ms(MultiscaleSpec("sum", 3, (1 / 3, 1 / 3, 1 / 3))))
            assert prod <= sm

    def test_recursion_across_levels(self, rng):
        a = natural_plane(rng, 96, 96)
        b = noisy_version(rng, a, 18)
        exps = (0.25, 0.35, 0.4)
        full = msssim(a, b, ms(MultiscaleSpec("product", 3, exps)))
        finest_cs = mssim(ssim_map(a, b, SMALL_WINDOW).cs_map)
        tail = msssim(
            dyadic_downsample(a),
            dyadic_downsample(b),
            ms(MultiscaleSpec("product", 2, exps[1:])),
        )
        assert full == pytest.approx(max(finest_cs, 0.0) ** exps[0] * tail, abs=1e-9)

    def test_follows_the_config_multiscale_spec(self, rng):
        # 128x96 fits an 11x11 window at 3 scales, not at the 5 of the default
        a = natural_plane(rng, 96, 128)
        b = noisy_version(rng, a, 15)
        config = SsimConfig(multiscale=MultiscaleSpec.weighted_sum(3))
        exps = config.multiscale.effective_exponents()
        cur_a, cur_b, expected = a, b, 0.0
        for level in range(3):
            if level > 0:
                cur_a, cur_b = dyadic_downsample(cur_a), dyadic_downsample(cur_b)
            maps = ssim_map(cur_a, cur_b, config)
            expected += exps[level] * mssim(maps.cs_map if level < 2 else maps.q_map)
        assert msssim(a, b, config) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(TooManyLevels):
            msssim(a, b)

    def test_default_config_is_the_five_level_product(self, rng):
        a = natural_plane(rng, 192, 192)
        b = noisy_version(rng, a, 15)
        assert msssim(a, b) == msssim(a, b, SsimConfig(multiscale=MultiscaleSpec.product()))

    def test_too_many_levels(self, rng):
        a = random_plane(rng, 32, 32)
        with pytest.raises(TooManyLevels):
            msssim(a, a, ms(MultiscaleSpec.product(4)))  # 32 / 8 = 4 < 5

    def test_off_mode_rejected(self, rng):
        a = random_plane(rng, 64, 64)
        with pytest.raises(ValidationError):
            msssim(a, a, ms(MultiscaleSpec.off()))

    def test_fast4_uses_renormalized_first_four(self, rng):
        a = natural_plane(rng, 96, 96)
        b = noisy_version(rng, a, 10)
        scores = scale_scores(a, b, ms(MultiscaleSpec.fast4()))
        exps = MultiscaleSpec.fast4().effective_exponents()
        expected = 1.0
        for s, e in zip(scores, exps):
            expected *= max(s, 0.0) ** e
        assert msssim(a, b, ms(MultiscaleSpec.fast4())) == pytest.approx(
            expected, abs=1e-12
        )
