import os
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit.adaptation import box_downsample, policy_factor
from ssimkit.config import MultiscaleSpec, ScalePolicy, SsimConfig, WindowSpec
from ssimkit.errors import EmptyMap
from ssimkit.frames import ColorFrame, LumaPlane
from ssimkit.media import StreamHeader, write_planar_raw, write_y4m
from ssimkit.multiscale import msssim
from ssimkit.pipeline import PipelineSpec, run_score, score_frame_pair
from ssimkit.pooling import pool_spatial
from ssimkit.spatiotemporal import RollingVolume, msssim3d, ssim3d_series
from ssimkit.ssim import mssim, ssim_map, ssim_score
from ssimkit.stats import BAND_ROWS, local_statistics

from helpers import in_fresh_thread, natural_plane, noisy_version, random_plane

# Direct evaluation of the zero-variance closed form for means (100, 110),
# 8-bit, K1 = 0.01: (2*100*110 + 6.5025) / (100^2 + 110^2 + 6.5025).
CONSTANT_PAIR_L = 0.9954764440915066


class TestSsimMap:
    def test_identical_inputs_give_unity_map(self, rng):
        a = random_plane(rng, 40, 40)
        maps = ssim_map(a, a)
        assert np.all(np.abs(maps.q_map.values - 1.0) < 1e-12)
        assert np.all(np.abs(maps.l_map.values - 1.0) < 1e-12)
        assert np.all(np.abs(maps.cs_map.values - 1.0) < 1e-12)

    def test_constant_pair_closed_form(self):
        a = LumaPlane(np.full((20, 20), 100, dtype=np.uint8))
        b = LumaPlane(np.full((20, 20), 110, dtype=np.uint8))
        maps = ssim_map(a, b)
        assert np.allclose(maps.l_map.values, CONSTANT_PAIR_L, atol=1e-12)
        assert np.allclose(maps.cs_map.values, 1.0, atol=1e-12)
        assert np.allclose(maps.q_map.values, CONSTANT_PAIR_L, atol=1e-12)

    @pytest.mark.parametrize("engine", ["auto", "naive"])
    def test_symmetry_exact(self, rng, engine):
        cfg = SsimConfig(engine=engine)
        a = random_plane(rng, 32, 32)
        b = noisy_version(rng, a, 25)
        fwd = ssim_map(a, b, cfg)
        rev = ssim_map(b, a, cfg)
        assert np.array_equal(fwd.q_map.values, rev.q_map.values)
        assert np.array_equal(fwd.l_map.values, rev.l_map.values)
        assert np.array_equal(fwd.cs_map.values, rev.cs_map.values)

    def test_q_is_product_of_terms(self, rng):
        a = random_plane(rng, 32, 32)
        b = noisy_version(rng, a)
        maps = ssim_map(a, b)
        assert np.all(
            np.abs(maps.q_map.values - maps.l_map.values * maps.cs_map.values) < 1e-12
        )

    def test_boundedness(self, rng):
        for _ in range(30):
            a, b = random_plane(rng, 24, 24), random_plane(rng, 24, 24)
            maps = ssim_map(a, b)
            assert np.all(np.abs(maps.q_map.values) <= 1.0 + 1e-9)

    def test_luminance_term_bounded_by_one(self, rng):
        a, b = random_plane(rng, 24, 24), random_plane(rng, 24, 24)
        maps = ssim_map(a, b)
        assert np.all(maps.l_map.values > 0.0)
        assert np.all(maps.l_map.values <= 1.0 + 1e-12)

    def test_unique_maximum(self, rng):
        a = random_plane(rng, 24, 24)
        for _ in range(5):
            samples = a.samples.copy()
            i = int(rng.integers(0, 24))
            j = int(rng.integers(0, 24))
            samples[i, j] = samples[i, j] + 1 if samples[i, j] < 255 else samples[i, j] - 1
            perturbed = LumaPlane(samples)
            assert ssim_score(a, perturbed) < 1.0 - 1e-9

    def test_gaussian_window_config(self, rng):
        a = random_plane(rng, 32, 32)
        b = noisy_version(rng, a)
        cfg = SsimConfig(window=WindowSpec.gaussian(1.5))
        score = ssim_score(a, b, cfg)
        assert 0.0 < score < 1.0

    def test_three_term_form_reachable_from_stats(self, rng):
        # the separate contrast and structure ratios, built from the raw
        # statistics with C3 = C2/2, multiply back into the combined cs term
        from ssimkit.stats import local_statistics

        cfg = SsimConfig()
        a = random_plane(rng, 32, 32)
        b = noisy_version(rng, a, 30)
        stats = local_statistics(a, b, cfg.window, cfg.engine)
        sig1 = np.sqrt(stats.var1)
        sig2 = np.sqrt(stats.var2)
        contrast = (2.0 * sig1 * sig2 + cfg.c2) / (stats.var1 + stats.var2 + cfg.c2)
        structure = (stats.cov + cfg.c3) / (sig1 * sig2 + cfg.c3)
        maps = ssim_map(a, b, cfg)
        assert np.allclose(contrast * structure, maps.cs_map.values, atol=1e-12)


def weber_luminance_term(mu1: float, luminance_shift: float, c1_over_mu1sq: float) -> float:
    """Luminance term as a function of the relative luminance change.

    For mu2 = mu1 * (1 + shift) the luminance ratio reduces to
    (2 (1 + shift) + c) / (1 + (1 + shift)^2 + c) with c = C1 / mu1^2, which
    no longer depends on mu1 when c -> 0. Serves as the closed-form oracle
    for luminance-masking behavior.
    """
    if mu1 <= 0:
        raise ValueError(f"mu1 must be positive, got {mu1}")
    lam = luminance_shift
    c = c1_over_mu1sq
    return (2.0 * (1.0 + lam) + c) / (1.0 + (1.0 + lam) ** 2 + c)


def weber_contrast_term(contrast_shift: float, c2_over_var1: float) -> float:
    """Contrast-masking analogue: the c term under sigma2 = (1 + shift) sigma1."""
    s = contrast_shift
    c = c2_over_var1
    return (2.0 * (1.0 + s) + c) / (1.0 + (1.0 + s) ** 2 + c)


class TestWeberBehavior:
    def test_no_shift_is_unity(self):
        assert weber_luminance_term(50.0, 0.0, 0.3) == 1.0

    def test_direct_evaluation(self):
        # oracle: 2.2 / 2.21 for a 10% luminance shift with no stabilizer
        assert weber_luminance_term(50.0, 0.1, 0.0) == pytest.approx(
            0.9954751131221721, abs=1e-15
        )

    def test_independent_of_mu_when_c_is_zero(self):
        values = {weber_luminance_term(mu, 0.2, 0.0) for mu in (1.0, 10.0, 200.0)}
        assert len(values) == 1

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            weber_luminance_term(0.0, 0.1, 0.0)

    def test_map_l_matches_weber_for_constant_pairs(self):
        cfg = SsimConfig()
        for lam in (0.05, 0.1, 0.25):
            mu1 = 120.0
            a = LumaPlane(np.full((16, 16), mu1))
            b = LumaPlane(np.full((16, 16), mu1 * (1.0 + lam)))
            maps = ssim_map(a, b, cfg)
            expected = weber_luminance_term(mu1, lam, cfg.c1 / mu1**2)
            assert np.allclose(maps.l_map.values, expected, atol=1e-12)

    def test_cs_matches_contrast_masking_form(self, rng):
        # scaling a signal by (1 + shift) scales its deviation the same way,
        # so cs reduces to the relative-contrast closed form per window
        cfg = SsimConfig()
        base = rng.uniform(40.0, 190.0, (24, 24))
        for shift in (0.1, 0.3):
            scaled = base * (1.0 + shift)  # stays within range: 190 * 1.3 < 255
            a = LumaPlane(base)
            b = LumaPlane(scaled)
            maps = ssim_map(a, b, cfg)
            from ssimkit.stats import local_statistics

            stats = local_statistics(a, b, cfg.window, cfg.engine)
            expected = np.array(
                [
                    [
                        weber_contrast_term(shift, cfg.c2 / v) if v > 0 else 1.0
                        for v in row
                    ]
                    for row in stats.var1
                ]
            )
            assert np.allclose(maps.cs_map.values, expected, atol=1e-6)


class TestMssim:
    def test_unity(self, rng):
        a = random_plane(rng)
        assert mssim(ssim_map(a, a)) == pytest.approx(1.0, abs=1e-12)

    def test_mean_definition(self):
        assert mssim(np.array([[0.5, 1.0]])) == 0.75

    def test_equals_am_pooling(self, rng):
        a = random_plane(rng)
        b = noisy_version(rng, a)
        maps = ssim_map(a, b)
        assert mssim(maps) == pool_spatial(maps.q_map, "am")

    def test_empty_map_rejected(self):
        with pytest.raises(EmptyMap):
            mssim(np.zeros((0, 4)))


class TestOneRuler:
    """Every direct entry point gives what the pipeline gives for the same pair."""

    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_direct_entry_points_take_constants_from_the_frames(self, rng, bit_depth):
        a = random_plane(rng, 64, 64, bit_depth=bit_depth)
        b = noisy_version(rng, a, 5 << (bit_depth - 8))
        plain = SsimConfig()
        ms = SsimConfig(window=WindowSpec.rectangular(4), multiscale=MultiscaleSpec.product(3))
        want, want_ms = score_frame_pair(a, b, plain).score, score_frame_pair(a, b, ms).score
        assert ssim_score(a, b) == want
        assert mssim(ssim_map(a, b, plain)) == want
        assert msssim(a, b, ms) == want_ms
        assert ssim3d_series([a], [b], 1).scores[0] == want
        assert msssim3d([a], [b], 1, ms).scores[0] == want_ms
        # bare arrays carry no depth: config.bit_depth sets the constants
        assert ssim_score(a.samples, b.samples, SsimConfig(bit_depth=bit_depth)) == want

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        window=st.one_of(
            st.builds(WindowSpec.rectangular, st.integers(2, 7), st.integers(1, 3)),
            st.builds(WindowSpec.gaussian, st.sampled_from([0.8, 1.5]), st.sampled_from([5, 7]), st.integers(1, 3)),
        ),
        bit_depth=st.sampled_from([8, 10]),
        scaling=st.sampled_from([
            ScalePolicy.none(), ScalePolicy.legacy256(), ScalePolicy.enhanced_dh(0.5), ScalePolicy.sast(50.0),
        ]),
        multiscale=st.sampled_from([MultiscaleSpec.off(), MultiscaleSpec.product(2), MultiscaleSpec.weighted_sum(2)]),
        size=st.sampled_from([(64, 96), (67, 101)]),
        seed=st.integers(0, 2**16),
    )
    def test_every_route_gives_identical_floats(self, window, bit_depth, scaling, multiscale, size, seed):
        rng = np.random.default_rng(seed)
        height, width = size
        a = natural_plane(rng, height, width, bit_depth)
        b = noisy_version(rng, a, 5 << (bit_depth - 8))
        config = SsimConfig(window=window, scaling=scaling, multiscale=multiscale)
        want = score_frame_pair(a, b, config).score

        # direct calls, with the scale policy applied by hand
        factor = policy_factor(scaling, width, height)
        sa, sb = box_downsample(a, factor), box_downsample(b, factor)
        direct = replace(config, scaling=ScalePolicy.none())
        if multiscale.enabled:
            assert msssim(sa, sb, direct) == want
        else:
            assert ssim_score(sa, sb, direct) == want
        if window.shape == "rect":
            series = msssim3d if multiscale.enabled else ssim3d_series
            assert series([sa], [sb], 1, direct).scores[0] == want

        # whole runs on written files, luma with random chroma around it
        chroma_shape = (-(-height // 2), -(-width // 2))
        dtype = a.samples.dtype
        frames = [
            ColorFrame((p.samples, *(rng.integers(0, 256, chroma_shape).astype(dtype) for _ in "uv")),
                       "ycbcr-bt709", "420", bit_depth)
            for p in (a, b)
        ]
        spec = PipelineSpec(config)
        with tempfile.TemporaryDirectory() as tmp:
            ref, dist = os.path.join(tmp, "ref.yuv"), os.path.join(tmp, "dist.yuv")
            write_planar_raw(ref, [frames[0]], bit_depth)
            write_planar_raw(dist, [frames[1]], bit_depth)
            out = run_score(ref, dist, spec, width=width, height=height, bit_depth=bit_depth)
            assert out["records"][0]["score"] == want
            if bit_depth == 8:
                header = StreamHeader(width, height, (30, 1), "420", 8)
                ref, dist = os.path.join(tmp, "ref.y4m"), os.path.join(tmp, "dist.y4m")
                write_y4m(ref, [frames[0]], header)
                write_y4m(dist, [frames[1]], header)
                assert run_score(ref, dist, spec)["records"][0]["score"] == want


class TestWorkingSet:
    def test_frame_pair_peak_is_its_three_maps_and_a_band(self, rng):
        # The l, cs and q grids take 2.95 float64 planes of a 1080p pair;
        # whole statistics grids (five more) do not fit under 3.5.
        shape = (1080, 1920)
        a = LumaPlane(rng.integers(0, 256, shape, dtype=np.uint8))
        b = LumaPlane(rng.integers(0, 256, shape, dtype=np.uint8))
        tracemalloc.start()
        try:
            score_frame_pair(a, b, SsimConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * shape[0] * shape[1] * 8

    @pytest.mark.parametrize("frames", ["8-bit", "float64", "float64 kt=3"])
    def test_frame_pair_pooled_as_its_bands_form_peaks_below_one_plane(self, rng, frames):
        # Under am no l, cs or q grid is whole, nor any statistics grid or
        # summed-area table: what stays is the thread's arena, a few bands
        # wide, which a fresh thread has to allocate.
        shape = (1080, 1920)
        if frames == "8-bit":
            a, b = (LumaPlane(rng.integers(0, 256, shape, dtype=np.uint8)) for _ in range(2))
        else:
            a, b = (LumaPlane(rng.uniform(0.0, 255.0, shape)) for _ in range(2))
        volumes = None
        if frames.endswith("kt=3"):
            volumes = [RollingVolume(3)]
            for _ in range(3):
                volumes[0].push(a, b)

        def traced_peak():
            tracemalloc.start()
            try:
                score_frame_pair(a, b, SsimConfig(spatial_pool="am"), volumes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert in_fresh_thread(traced_peak) < shape[0] * shape[1] * 8

    @pytest.mark.parametrize("pool", ["lw:a=60,b=80", "lw:a=100", "am", "mink:p=3", "dw:p=2"])
    def test_streamed_scores_equal_whole_map_pooling(self, rng, pool):
        # 140 grid rows: three bands, the last one short.
        a = natural_plane(rng, 150, 60)
        b = noisy_version(rng, a)
        config = SsimConfig(spatial_pool=pool)
        mu1 = local_statistics(a, b, config.window).mu1
        want = pool_spatial(ssim_map(a, b, config).q_map, pool, ref_luma=mu1)
        assert score_frame_pair(a, b, config).score.hex() == want.hex()


class TestThreads:
    def test_concurrent_maps_of_different_shapes_get_the_serial_bytes(self, rng):
        # Each thread's band loop has its own arena, so threads forming bands
        # of different widths at once never write each other's buffers. More
        # threads than cores, switching often.
        shapes = [(2 * BAND_ROWS + 30, 71), (3 * BAND_ROWS + 17, 133), (BAND_ROWS + 20, 40), (2 * BAND_ROWS, 97)]
        pairs = [(random_plane(rng, *shape), random_plane(rng, *shape)) for shape in shapes]

        def map_bytes(a, b):
            maps = ssim_map(a, b)
            return [m.values.tobytes() for m in (maps.l_map, maps.cs_map, maps.q_map)]

        serial = [map_bytes(a, b) for a, b in pairs]
        start = threading.Barrier(len(pairs))

        def repeatedly(pair):
            start.wait(timeout=30)
            return [map_bytes(*pair) for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
                runs = [f.result(timeout=120) for f in [pool.submit(repeatedly, pair) for pair in pairs]]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, runs):
            assert all(bytes_ == want for bytes_ in got)
