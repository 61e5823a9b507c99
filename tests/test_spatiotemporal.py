from dataclasses import replace

import numpy as np
import pytest

from ssimkit.config import MultiscaleSpec, SsimConfig, WindowSpec
from ssimkit.errors import DimensionMismatch, GaussianNotSupported3D, LengthMismatch
from ssimkit.frames import LumaPlane
from ssimkit.multiscale import msssim
from ssimkit.spatiotemporal import (
    RollingVolume,
    msssim3d,
    ssim3d_map,
    ssim3d_series,
)
from ssimkit.ssim import mssim, ssim_map

from helpers import natural_plane, noisy_version, random_plane

CFG5 = SsimConfig(window=WindowSpec.rectangular(5))


def frame_pairs(rng, count, height=16, width=16, noise=12):
    refs = [natural_plane(rng, height, width) for _ in range(count)]
    dists = [noisy_version(rng, r, noise) for r in refs]
    return refs, dists


def brute_force_3d_stats(refs, dists, k, kt, i, j):
    """Triple-loop statistics over the last kt frames' k x k windows."""
    ref_cube = np.stack([r.samples.astype(float) for r in refs[-kt:]])
    dist_cube = np.stack([d.samples.astype(float) for d in dists[-kt:]])
    wa = ref_cube[:, i : i + k, j : j + k]
    wb = dist_cube[:, i : i + k, j : j + k]
    n = wa.size
    mu1, mu2 = wa.sum() / n, wb.sum() / n
    var1 = (wa * wa).sum() / n - mu1 * mu1
    var2 = (wb * wb).sum() / n - mu2 * mu2
    cov = (wa * wb).sum() / n - mu1 * mu2
    return mu1, mu2, max(var1, 0.0), max(var2, 0.0), cov


class TestRollingSums:
    def test_constant_frames_accumulate(self):
        vol = RollingVolume(4)
        a = LumaPlane(np.full((8, 8), 7, dtype=np.uint8))
        b = LumaPlane(np.full((8, 8), 3, dtype=np.uint8))
        for _ in range(4):
            vol.push(a, b)
        sums = vol.temporal_sums()
        assert np.all(sums[0] == 28.0)
        assert np.all(sums[1] == 12.0)
        assert np.all(sums[4] == 4 * 21.0)

    def test_rolling_equals_direct_after_turnover(self, rng):
        refs, dists = frame_pairs(rng, 7)
        vol = RollingVolume(4)
        for r, d in zip(refs, dists):
            vol.push(r, d)
        for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
            assert np.allclose(rolled, direct, atol=1e-6)

    def test_kt_one_is_newest_frame_exactly(self, rng):
        vol = RollingVolume(1)
        for _ in range(4):
            a, b = random_plane(rng, 8, 8), random_plane(rng, 8, 8)
            vol.push(a, b)
        sums = vol.temporal_sums()
        assert np.array_equal(sums[0], a.samples.astype(float))
        assert np.array_equal(sums[1], b.samples.astype(float))

    def test_warmup_covers_buffered_depth_only(self, rng):
        vol = RollingVolume(5)
        a, b = random_plane(rng, 8, 8), random_plane(rng, 8, 8)
        vol.push(a, b)
        assert vol.depth == 1
        assert np.array_equal(vol.temporal_sums()[0], a.samples.astype(float))

    def test_buffer_accounting(self, rng):
        vol = RollingVolume(3)
        for i in range(5):
            plane = random_plane(rng, 8, 8)
            vol.push(plane, plane)
            assert vol.buffer_planes == (min(i + 1, 3), 5)

    def test_drift_bounded_by_periodic_refresh(self, rng):
        vol = RollingVolume(4)
        shape = (12, 12)
        for _ in range(1000):
            a = LumaPlane(rng.uniform(0.0, 255.0, shape))
            b = LumaPlane(rng.uniform(0.0, 255.0, shape))
            vol.push(a, b)
        worst = max(
            np.abs(r - d).max() for r, d in zip(vol.temporal_sums(), vol.direct_sums())
        )
        assert worst < 1e-3

    @pytest.mark.parametrize("bits", [8, 10])
    def test_integer_frames_keep_exact_sums(self, rng, bits):
        vol = RollingVolume(3)
        for _ in range(40):
            vol.push(random_plane(rng, 9, 11, bits), random_plane(rng, 9, 11, bits))
            for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
                assert rolled.dtype == np.int64
                assert np.array_equal(rolled, direct)

    def test_float_frame_turns_integer_sums_float(self, rng):
        vol = RollingVolume(2)
        a, b = random_plane(rng, 8, 8), random_plane(rng, 8, 8)
        vol.push(a, b)
        vol.push(a.as_float() / 2, b.as_float())
        for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
            assert rolled.dtype == np.float64
            assert np.array_equal(rolled, direct)
        assert np.array_equal(vol.temporal_sums()[0], a.samples * 1.5)

    def test_frame_whose_sums_could_wrap_turns_sums_float(self, rng):
        vol = RollingVolume(2)
        small = [rng.integers(0, 256, (10, 11)).astype(np.uint32) for _ in range(2)]
        vol.push(*small)
        assert vol.temporal_sums()[0].dtype == np.int64
        # 2 * (2^32 - 1)^2 >= 2^63: int64 running sums of these products wrap.
        wide = [rng.integers(0, 2**32, (10, 11)).astype(np.uint32) for _ in range(2)]
        wide[0][0, 0] = 2**32 - 1
        vol.push(*wide)
        for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
            assert rolled.dtype == np.float64
            assert np.array_equal(rolled, direct)
        stats = vol.local_statistics(WindowSpec.rectangular(5))
        ref_cube = np.stack([small[0], wide[0]]).astype(np.float64)
        dist_cube = np.stack([small[1], wide[1]]).astype(np.float64)
        for i, j in ((0, 0), (3, 4), (5, 6)):
            wa, wb = ref_cube[:, i : i + 5, j : j + 5], dist_cube[:, i : i + 5, j : j + 5]
            mu1, mu2 = wa.mean(), wb.mean()
            assert stats.mu1[i, j] == pytest.approx(mu1, rel=1e-12)
            assert stats.var1[i, j] == pytest.approx((wa * wa).mean() - mu1 * mu1, rel=1e-9)
            assert stats.cov[i, j] == pytest.approx((wa * wb).mean() - mu1 * mu2, rel=1e-9)

    def test_dimension_mismatch(self, rng):
        vol = RollingVolume(2)
        vol.push(random_plane(rng, 8, 8), random_plane(rng, 8, 8))
        with pytest.raises(DimensionMismatch):
            vol.push(random_plane(rng, 8, 10), random_plane(rng, 8, 10))


class TestSsim3dMap:
    def test_kt_one_equals_framewise_exactly(self, rng):
        a, b = random_plane(rng, 24, 24), random_plane(rng, 24, 24)
        vol = RollingVolume(1)
        vol.push(a, b)
        maps3d = ssim3d_map(vol, CFG5)
        maps2d = ssim_map(a, b, CFG5)
        assert np.array_equal(maps3d.q_map.values, maps2d.q_map.values)
        assert np.array_equal(maps3d.l_map.values, maps2d.l_map.values)
        assert np.array_equal(maps3d.cs_map.values, maps2d.cs_map.values)

    @pytest.mark.parametrize("bits,stride", [(8, 3), (10, 1), (10, 4)])
    def test_kt_one_equals_framewise_bit_for_bit(self, rng, bits, stride):
        config = SsimConfig(bit_depth=bits, window=WindowSpec.rectangular(7, stride=stride))
        vol = RollingVolume(1)
        for _ in range(3):
            a, b = random_plane(rng, 30, 26, bits), random_plane(rng, 30, 26, bits)
            vol.push(a, b)
            maps3d = ssim3d_map(vol, config)
            maps2d = ssim_map(a, b, config)
            for name in ("l_map", "cs_map", "q_map"):
                assert np.array_equal(getattr(maps3d, name).values, getattr(maps2d, name).values)

    def test_static_video_equals_single_frame(self, rng):
        a, b = random_plane(rng, 20, 20), random_plane(rng, 20, 20)
        vol = RollingVolume(4)
        for _ in range(6):
            vol.push(a, b)
        maps3d = ssim3d_map(vol, CFG5)
        maps2d = ssim_map(a, b, CFG5)
        assert np.allclose(maps3d.q_map.values, maps2d.q_map.values, atol=1e-9)

    def test_matches_triple_loop_oracle(self, rng):
        refs, dists = frame_pairs(rng, 3, 16, 16)
        vol = RollingVolume(3)
        for r, d in zip(refs, dists):
            vol.push(r, d)
        cfg = SsimConfig(window=WindowSpec.rectangular(5))
        maps = ssim3d_map(vol, cfg)
        for i in range(0, 12, 3):
            for j in range(0, 12, 3):
                mu1, mu2, var1, var2, cov = brute_force_3d_stats(refs, dists, 5, 3, i, j)
                l = (2 * mu1 * mu2 + cfg.c1) / (mu1**2 + mu2**2 + cfg.c1)
                cs = (2 * cov + cfg.c2) / (var1 + var2 + cfg.c2)
                assert maps.q_map.values[i // 1, j // 1] == pytest.approx(l * cs, abs=1e-6)

    def test_gaussian_rejected(self, rng):
        vol = RollingVolume(2)
        vol.push(random_plane(rng, 16, 16), random_plane(rng, 16, 16))
        with pytest.raises(GaussianNotSupported3D):
            ssim3d_map(vol, replace(CFG5, window=WindowSpec.gaussian(1.5)))

    def test_stride_subsampling(self, rng):
        refs, dists = frame_pairs(rng, 4, 32, 32)
        vol = RollingVolume(3)
        for r, d in zip(refs, dists):
            vol.push(r, d)
        dense = ssim3d_map(vol, replace(CFG5, window=WindowSpec.rectangular(5)))
        strided = ssim3d_map(vol, replace(CFG5, window=WindowSpec.rectangular(5, stride=4)))
        assert np.array_equal(strided.q_map.values, dense.q_map.values[::4, ::4])


class TestSeries:
    def test_identical_streams_score_one(self, rng):
        refs, _ = frame_pairs(rng, 4, 32, 32)
        series = ssim3d_series(refs, refs, kt=3, config=CFG5)
        assert np.allclose(series.scores, 1.0, atol=1e-12)

    def test_streams_of_different_lengths_are_rejected(self, rng):
        refs, dists = frame_pairs(rng, 3, 64, 64)
        with pytest.raises(LengthMismatch):
            ssim3d_series(refs, dists[:2], 2, CFG5)
        with pytest.raises(LengthMismatch):
            msssim3d(refs, dists[:1], 2, replace(CFG5, multiscale=MultiscaleSpec.product(2)))
        with pytest.raises(LengthMismatch):
            msssim3d(refs[:1], dists, 2, replace(CFG5, multiscale=MultiscaleSpec.product(2)))

    def test_msssim3d_identical_streams(self, rng):
        refs, _ = frame_pairs(rng, 4, 64, 64)
        series = msssim3d(refs, refs, 3, replace(CFG5, multiscale=MultiscaleSpec.product(2)))
        assert np.allclose(series.scores, 1.0, atol=1e-12)

    def test_msssim3d_kt_one_equals_framewise(self, rng):
        refs, dists = frame_pairs(rng, 4, 64, 64, noise=18)
        config = replace(CFG5, multiscale=MultiscaleSpec.product(2))
        series = msssim3d(refs, dists, 1, config)
        framewise = [msssim(r, d, config) for r, d in zip(refs, dists)]
        assert np.array_equal(series.scores, np.array(framewise))

    def test_msssim3d_matches_scale_by_scale_recomputation(self, rng):
        refs, dists = frame_pairs(rng, 4, 64, 64, noise=15)
        kt = 3
        spec = MultiscaleSpec("product", 2, (0.4, 0.6))
        series = msssim3d(refs, dists, kt, replace(CFG5, multiscale=spec))
        # oracle: per frame, per scale, recompute stats with the triple loop
        from ssimkit.multiscale import dyadic_downsample

        for t in range(4):
            per_scale = []
            for level in range(2):
                r_scale = [refs[u] for u in range(max(0, t - kt + 1), t + 1)]
                d_scale = [dists[u] for u in range(max(0, t - kt + 1), t + 1)]
                for _ in range(level):
                    r_scale = [dyadic_downsample(p) for p in r_scale]
                    d_scale = [dyadic_downsample(p) for p in d_scale]
                depth = len(r_scale)
                h, w = r_scale[0].samples.shape
                grid_l = np.zeros((h - 4, w - 4))
                grid_cs = np.zeros((h - 4, w - 4))
                for i in range(h - 4):
                    for j in range(w - 4):
                        mu1, mu2, var1, var2, cov = brute_force_3d_stats(
                            r_scale, d_scale, 5, depth, i, j
                        )
                        grid_l[i, j] = (2 * mu1 * mu2 + CFG5.c1) / (mu1**2 + mu2**2 + CFG5.c1)
                        grid_cs[i, j] = (2 * cov + CFG5.c2) / (var1 + var2 + CFG5.c2)
                score = (grid_l * grid_cs).mean() if level == 1 else grid_cs.mean()
                per_scale.append(score)
            expected = max(per_scale[0], 0.0) ** 0.4 * max(per_scale[1], 0.0) ** 0.6
            assert series.scores[t] == pytest.approx(expected, abs=1e-6)
