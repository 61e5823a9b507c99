import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ssimkit import spatiotemporal, stats
from ssimkit.adaptation import box_downsample
from ssimkit.config import MultiscaleSpec, SsimConfig, WindowSpec
from ssimkit.errors import DimensionMismatch, GaussianNotSupported3D, LengthMismatch, ScaleMismatch
from ssimkit.frames import LumaPlane
from ssimkit.multiscale import msssim
from ssimkit.spatiotemporal import (
    RollingVolume,
    msssim3d,
    ssim3d_map,
    ssim3d_series,
)
from ssimkit.ssim import mssim, ssim_map
from ssimkit.stats import BAND_ROWS

from helpers import in_fresh_thread, natural_plane, noisy_version, random_plane

CFG5 = SsimConfig(window=WindowSpec.rectangular(5))


def float_plane(rng, height, width, bit_depth):
    return LumaPlane(rng.uniform(0.0, (1 << bit_depth) - 1, (height, width)), bit_depth)


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
                assert rolled.dtype == np.uint32  # 3 * 1023^2 < 2^32
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
        assert vol.temporal_sums()[0].dtype == np.uint32  # 2 * 255^2 < 2^32
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

    @pytest.mark.parametrize("bits, dtype", [(8, np.uint32), (10, np.uint32), (16, np.int64)])
    def test_sums_take_the_narrowest_exact_accumulator(self, rng, bits, dtype):
        # kt * peak^2: 5 * 1023^2 < 2^32 <= 5 * 65535^2 < 2^63. The plane's
        # bit depth bounds its uint16 samples.
        vol = RollingVolume(5)
        for _ in range(7):
            vol.push(random_plane(rng, 9, 11, bits), random_plane(rng, 9, 11, bits))
            for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
                assert rolled.dtype == direct.dtype == dtype
                assert np.array_equal(rolled, direct)

    def test_wider_frame_widens_the_sums(self, rng):
        vol = RollingVolume(3)
        first = [random_plane(rng, 9, 11, 10) for _ in range(4)]
        vol.push(*first[:2]).push(*first[2:])
        assert vol.temporal_sums()[0].dtype == np.uint32
        vol.push(random_plane(rng, 9, 11, 16), random_plane(rng, 9, 11, 16))
        for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
            assert rolled.dtype == np.int64
            assert np.array_equal(rolled, direct)

    @pytest.mark.parametrize("bits, dtype", [(8, np.uint32), (10, np.uint32), (16, np.int64)])
    @pytest.mark.parametrize("height", [BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1, 2 * BAND_ROWS + 1])
    def test_banded_update_equals_direct_sums(self, rng, bits, dtype, height):
        # Pushes past kt update the sums band by band, rows on either side of
        # a band edge; the float frames then turn them float64 for good. Up
        # to the first float frame both sides round once at most, the same
        # way; after it the recurrence rounds its own way.
        vol = RollingVolume(3)
        for t in range(9):
            if t < 6:
                a, b = random_plane(rng, height, 13, bits), random_plane(rng, height, 13, bits)
            else:
                a, b = float_plane(rng, height, 13, bits), float_plane(rng, height, 13, bits)
            vol.push(a, b)
            for rolled, direct in zip(vol._sums, vol.direct_sums()):
                assert rolled.dtype == direct.dtype == (dtype if t < 6 else np.float64)
                if t <= 6:
                    assert rolled.tobytes() == direct.tobytes()
                else:
                    np.testing.assert_allclose(rolled, direct, rtol=1e-13, atol=1e-13 * np.abs(direct).max())

    def test_push_into_a_full_volume_takes_band_sized_temporaries(self, rng):
        # One 1080p 10-bit plane's products in uint32 take 7.9 MiB; pushing
        # whole-plane products of the entering and leaving frames took 31.7.
        shape = (1080, 1920)
        frames = [LumaPlane(rng.integers(0, 1024, shape, dtype=np.uint16), 10) for _ in range(7)]
        vol = RollingVolume(5)
        for t in range(5):
            vol.push(frames[t], frames[t + 1])
        tracemalloc.start()
        try:
            vol.push(frames[5], frames[6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
            assert np.array_equal(rolled, direct)

    @pytest.mark.parametrize("bits, dtype, rebuilds", [(8, np.uint32, 0), (16, np.int64, 0), (None, np.float64, 3)])
    def test_only_float_sums_are_rebuilt(self, rng, monkeypatch, bits, dtype, rebuilds):
        # Integer sums never drift; rebuilding them every REFRESH_INTERVAL
        # pushes only costs the products of every buffered frame. A full
        # push forms the products of two frames (leaving and entering), a
        # rebuild those of all kt buffered frames.
        calls = []
        pair_terms = spatiotemporal._pair_terms
        monkeypatch.setattr(spatiotemporal, "REFRESH_INTERVAL", 4)
        monkeypatch.setattr(spatiotemporal, "_pair_terms", lambda *args: calls.append(None) or pair_terms(*args))
        vol = RollingVolume(3)
        rebuilt = 0
        for _ in range(12):  # the last push is the third rebuild of float sums
            calls.clear()
            if bits is None:
                vol.push(float_plane(rng, 9, 11, 8), float_plane(rng, 9, 11, 8))
            else:
                vol.push(random_plane(rng, 9, 11, bits), random_plane(rng, 9, 11, bits))
            rebuilt += len(calls) >= vol.kt
        assert rebuilt == rebuilds
        for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
            assert rolled.dtype == direct.dtype == dtype
            assert rolled.tobytes() == direct.tobytes()

    def test_float_sums_are_rebuilt_band_by_band(self, rng, monkeypatch):
        # Rebuilding from whole-plane products of the five buffered 1080p
        # float frames and five new sum planes peaked at 117 MiB traced.
        monkeypatch.setattr(spatiotemporal, "REFRESH_INTERVAL", 4)
        shape = (1080, 1920)
        frames = [LumaPlane(rng.uniform(0.0, 255.0, shape)) for _ in range(3)]
        vol = RollingVolume(5)

        def pushes():
            peaks = []
            for t in range(8):  # pushes 4 and 8 rebuild, the second into a full volume
                tracemalloc.start()
                try:
                    vol.push(frames[t % 3], frames[(t + 1) % 3])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks

        peaks = in_fresh_thread(pushes)
        assert max(peaks[3], peaks[7]) < 4 * 2**20, peaks
        for rolled, direct in zip(vol.temporal_sums(), vol.direct_sums()):
            assert rolled.dtype == direct.dtype == np.float64
            assert rolled.tobytes() == direct.tobytes()

    def test_dimension_mismatch(self, rng):
        vol = RollingVolume(2)
        vol.push(random_plane(rng, 8, 8), random_plane(rng, 8, 8))
        with pytest.raises(DimensionMismatch):
            vol.push(random_plane(rng, 8, 10), random_plane(rng, 8, 10))

    def test_scale_is_fixed_at_the_first_push(self, rng):
        planes = [random_plane(rng, 16, 16) for _ in range(2)]
        sums = [box_downsample(LumaPlane(np.repeat(np.repeat(p.samples, 2, 0), 2, 1)), 2) for p in planes]
        assert [s.scale for s in sums] == [4, 4]
        vol = RollingVolume(2).push(*sums)
        assert vol.scale == 4
        with pytest.raises(ScaleMismatch):
            vol.push(*planes)
        assert vol.depth == 1
        # The sums of four equal samples score as those samples do.
        config = SsimConfig(window=WindowSpec.rectangular(5))
        plain = ssim3d_map(RollingVolume(2).push(*planes), config)
        scaled = ssim3d_map(vol, config)
        assert scaled.q_map.values.tobytes() == plain.q_map.values.tobytes()
        with pytest.raises(ScaleMismatch):
            RollingVolume(2).push(sums[0], planes[1])


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
        # Integer planes take the exact box sums, float64 ones the summed-area tables.
        config = SsimConfig(bit_depth=bits, window=WindowSpec.rectangular(7, stride=stride))
        for make in (random_plane, float_plane):
            vol = RollingVolume(1)
            for _ in range(3):
                a, b = make(rng, 30, 26, bits), make(rng, 30, 26, bits)
                vol.push(a, b)
                maps3d = ssim3d_map(vol, config)
                maps2d = ssim_map(a, b, config)
                for name in ("l_map", "cs_map", "q_map"):
                    assert np.array_equal(getattr(maps3d, name).values, getattr(maps2d, name).values)

    @pytest.mark.parametrize("source", ["10-bit", "8-bit downsampled"])
    def test_kt_one_is_bounded_by_its_planes_as_pushed(self, rng, source):
        # uint16 samples whose bit depth or scale bounds them far below the
        # dtype's 65,535: at k = 33 (n = 1089) only that bound keeps the
        # frame pair on the exact route, and the volume must keep it too,
        # also once a 16-bit frame has left its buffer.
        def plane(bits):
            if source == "10-bit":
                return random_plane(rng, 40, 36, bits)
            return box_downsample(random_plane(rng, 80, 72, bits), 2)

        config = SsimConfig(bit_depth=10 if source == "10-bit" else 8, window=WindowSpec.rectangular(33))
        vol = RollingVolume(1)
        vol.push(plane(16), plane(16))
        for _ in range(2):
            a, b = plane(config.bit_depth), plane(config.bit_depth)
            vol.push(a, b)
            local3d, local2d = vol.local_statistics(config.window), stats.local_statistics(a, b, config.window)
            for name in ("mu1", "mu2", "var1", "var2", "cov"):
                assert getattr(local3d, name).tobytes() == getattr(local2d, name).tobytes()
            maps3d, maps2d = ssim3d_map(vol, config), ssim_map(a, b, config)
            for name in ("l_map", "cs_map", "q_map"):
                assert getattr(maps3d, name).values.tobytes() == getattr(maps2d, name).values.tobytes()

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


class TestEngine:
    @pytest.mark.parametrize("bits", [8, 10])
    def test_a_naive_volume_runs_the_direct_loop_and_equals_auto_bit_for_bit(self, monkeypatch, rng, bits):
        # Integer running sums stay below 2^53, so the direct loop reads them exactly.
        refs = [random_plane(rng, BAND_ROWS + 30, 40, bits) for _ in range(4)]
        dists = [noisy_version(rng, r) for r in refs]
        cfg = SsimConfig(bit_depth=bits, window=WindowSpec.rectangular(11))
        naive = replace(cfg, engine="naive")
        calls = []
        counted = stats._sliding_weighted_sums
        monkeypatch.setattr(stats, "_sliding_weighted_sums", lambda *args, **kw: calls.append(None) or counted(*args, **kw))
        auto_scores = ssim3d_series(refs, dists, 3, cfg).scores
        assert calls == []
        naive_scores = ssim3d_series(refs, dists, 3, naive).scores
        assert len(calls) == 4 * 2 * 5  # five planes in each of two bands of each frame
        assert naive_scores.tobytes() == auto_scores.tobytes()
        vol = RollingVolume(3)
        for r, d in zip(refs, dists):
            vol.push(r, d)
        for got, want in zip(ssim3d_map(vol, naive).__dict__.values(), ssim3d_map(vol, cfg).__dict__.values()):
            assert got.values.tobytes() == want.values.tobytes()
        levels = replace(cfg, multiscale=MultiscaleSpec.product(2, (0.4, 0.6)))
        assert msssim3d(refs, dists, 3, replace(levels, engine="naive")).scores.tobytes() == msssim3d(refs, dists, 3, levels).scores.tobytes()


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
