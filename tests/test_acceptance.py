"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 10 needs the external subjective databases and is skipped unless
SSIMKIT_LIVE_IQA_MANIFEST points at a manifest CSV for LIVE IQA (it then runs
at minutes scale). Everything else is self-contained and fast.
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from ssimkit.adaptation import HistogramMatcher, compute_ratio, scaled_ssim_product
from ssimkit.color import channelwise_cssim, cmssim, hssim, luma_of, qssim, rgb_to_ycbcr_bt709
from ssimkit.config import MultiscaleSpec, SsimConfig, WindowSpec
from ssimkit.evaluation import (
    CostPerfPoint,
    LabeledDataset,
    Logistic5,
    correlations,
    cross_apply,
    eval_5pl,
    fit_5pl,
    pareto_front,
)
from ssimkit.frames import ColorFrame, LumaPlane
from ssimkit.multiscale import dyadic_downsample, msssim
from ssimkit.pooling import pool_spatial, pool_temporal
from ssimkit.spatiotemporal import RollingVolume, ssim3d_map
from ssimkit.ssim import mssim, ssim_map, ssim_score
from ssimkit.stats import local_statistics

from helpers import blur_plane, natural_plane, noisy_version, random_plane
from test_color import brute_force_qssim, cw
from test_evaluation import brute_force_srocc


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_01_integral_oracle_equivalence():
    """The auto engine's fast path equals the direct path on 200 random pairs."""
    rng = np.random.default_rng(101)
    sizes = [k for k in (3, 8, 11, 16)]
    start = time.perf_counter()
    pairs = 0
    for _ in range(200):
        h = int(rng.integers(16, 65))
        w = int(rng.integers(16, 65))
        a, b = random_plane(rng, h, w), random_plane(rng, h, w)
        for k in sizes:
            if k > min(h, w):
                continue
            window = WindowSpec("rect", k=k)
            cfg_f = SsimConfig(window=window, engine="auto")
            cfg_s = SsimConfig(window=window, engine="naive")
            fast = ssim_map(a, b, cfg_f)
            slow = ssim_map(a, b, cfg_s)
            for attr in ("l_map", "cs_map", "q_map"):
                x = getattr(fast, attr).values
                y = getattr(slow, attr).values
                assert np.allclose(x, y, rtol=1e-8, atol=1e-10), f"k={k} {attr}"
        pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 200
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    report(1, f"auto == naive on 200 pairs x k in {sizes} in {elapsed:.2f}s")


def test_criterion_02_ssim_axioms():
    """Symmetry, boundedness, and the unique maximum over 100 random images."""
    rng = np.random.default_rng(202)
    cfg = SsimConfig(window=WindowSpec("rect", k=8))
    for _ in range(100):
        h = int(rng.integers(12, 48))
        w = int(rng.integers(12, 48))
        a = random_plane(rng, h, w)
        b = random_plane(rng, h, w)
        fwd, rev = ssim_map(a, b, cfg), ssim_map(b, a, cfg)
        assert np.array_equal(fwd.q_map.values, rev.q_map.values)  # symmetry, exact
        assert np.all(np.abs(fwd.q_map.values) <= 1.0 + 1e-9)  # boundedness
        assert abs(mssim(ssim_map(a, a, cfg)) - 1.0) < 1e-12  # unique maximum at self
        samples = a.samples.copy()
        i, j = int(rng.integers(0, h)), int(rng.integers(0, w))
        v = int(samples[i, j])
        samples[i, j] = v + 1 if v < 255 else v - 1
        assert mssim(ssim_map(a, LumaPlane(samples), cfg)) < 1.0 - 1e-9
    report(2, "symmetry exact, |Q| <= 1+1e-9, mssim(I,I)=1, perturbations detected (100 images)")


def test_criterion_03_stride_consistency():
    """Strided maps subsample the dense grid exactly; MSSIM barely moves."""
    rng = np.random.default_rng(303)
    for engine, window in [
        ("auto", WindowSpec("rect", k=11)),
        ("naive", WindowSpec("gauss", sigma=1.5)),
    ]:
        for s in (2, 3, 5):
            a, b = random_plane(rng, 56, 48), random_plane(rng, 56, 48)
            dense = local_statistics(a, b, window, engine)
            strided = local_statistics(a, b, replace(window, stride=s), engine)
            for name in ("mu1", "mu2", "var1", "var2", "cov"):
                assert np.array_equal(getattr(strided, name), getattr(dense, name)[::s, ::s])
    worst = 0.0
    for seed in range(20):
        img_rng = np.random.default_rng(5000 + seed)
        ref = natural_plane(img_rng, 128, 128)
        dist = blur_plane(ref, 2) if seed % 2 else noisy_version(img_rng, ref, 14)
        dense_cfg = SsimConfig(window=WindowSpec("rect", k=11, stride=1))
        strided_cfg = SsimConfig(window=WindowSpec("rect", k=11, stride=5))
        gap = abs(ssim_score(ref, dist, strided_cfg) - ssim_score(ref, dist, dense_cfg))
        worst = max(worst, gap)
    assert worst < 0.02
    report(3, f"stride subsampling exact; max |MSSIM(s=5) - MSSIM(s=1)| = {worst:.4f} < 0.02")


def test_criterion_04_spatiotemporal_reduction_and_cost():
    """Kt=1 equals frame-wise SSIM; rolling sums stay exact; cost is flat in Kt."""
    rng = np.random.default_rng(404)
    cfg = SsimConfig(window=WindowSpec("rect", k=11))

    a, b = random_plane(rng, 48, 48), random_plane(rng, 48, 48)
    vol = RollingVolume(1)
    vol.push(a, b)
    maps3d = ssim3d_map(vol, cfg)
    maps2d = ssim_map(a, b, cfg)
    assert np.array_equal(maps3d.q_map.values, maps2d.q_map.values)

    vol = RollingVolume(5)
    for _ in range(100):
        vol.push(random_plane(rng, 24, 24), random_plane(rng, 24, 24))
    drift = max(np.abs(r - d).max() for r, d in zip(vol.temporal_sums(), vol.direct_sums()))
    assert drift < 1e-6

    # time the two depths interleaved frame-by-frame so both sample the same
    # allocator/cache state; back-to-back blocks can differ 3x from warm-up
    # effects alone, swamping the quantity under test
    def timed_step(volume, r, d) -> float:
        t0 = time.perf_counter()
        volume.push(r, d)
        mssim(ssim3d_map(volume, cfg))
        return time.perf_counter() - t0

    frames = [(random_plane(rng, 256, 256), random_plane(rng, 256, 256)) for _ in range(34)]
    vol_slow, vol_fast = RollingVolume(10), RollingVolume(2)
    for r, d in frames[:12]:  # fill both buffers and warm the code paths
        vol_slow.push(r, d)
        vol_fast.push(r, d)
    mssim(ssim3d_map(vol_slow, cfg))
    mssim(ssim3d_map(vol_fast, cfg))
    slow_times, fast_times = [], []
    for r, d in frames[12:]:
        slow_times.append(timed_step(vol_slow, r, d))
        fast_times.append(timed_step(vol_fast, r, d))
    ratio = float(np.median(slow_times) / np.median(fast_times))
    assert ratio < 1.5, f"Kt=10 cost is {ratio:.2f}x Kt=2"
    report(4, f"Kt=1 exact, rolling drift {drift:.1e} < 1e-6, Kt=10/Kt=2 cost ratio {ratio:.2f}")


def test_criterion_05_pooling_identities():
    """The pooling operators agree with their defining identities."""
    rng = np.random.default_rng(505)
    ref = natural_plane(rng, 64, 64)
    dist = noisy_version(rng, ref, 18)
    maps = ssim_map(ref, dist)
    q = maps.q_map

    assert pool_spatial(q, "am") == mssim(maps)  # definitional bridge

    series = rng.uniform(0.05, 1.0, 200)
    hm = pool_temporal(series, "hm")
    gm = pool_temporal(series, "gm")
    am = pool_temporal(series, "am")
    assert hm <= gm <= am
    example = np.array([0.25, 1.0])
    assert pool_temporal(example, "am") == 0.625
    assert pool_temporal(example, "gm") == pytest.approx(0.5, abs=1e-12)
    assert pool_temporal(example, "hm") == pytest.approx(0.4, abs=1e-12)

    assert pool_spatial(q, "mink:p=1") == pytest.approx(1.0 - q.values.mean(), abs=1e-12)
    mu1 = local_statistics(ref, dist, SsimConfig().window, "auto").mu1
    assert pool_spatial(q, "lw:a=0,b=0", ref_luma=mu1) == pool_spatial(q, "am")
    assert pool_spatial(q, "pp:ps=6,rs=1") == pool_spatial(q, "am")
    std = np.sqrt(((q.values - q.values.mean()) ** 2).mean())
    assert pool_spatial(q, "md:p=2,o=1") == pytest.approx(std, abs=1e-9)
    five = np.array([[0.0, 0.25, 0.5, 0.75, 1.0]])
    assert pool_spatial(five, "fns") == pytest.approx(0.5, abs=1e-15)
    report(5, "AM=mssim, HM<=GM<=AM, Mink(1)=1-AM, LW(0,0)=AM, PP(r=1)=AM, MD(2,1)=std, FNS=0.5")


def test_criterion_06_multiscale():
    """Identity inputs, the step-by-step oracle, and the recursion property."""
    rng = np.random.default_rng(606)
    cfg = SsimConfig(window=WindowSpec("rect", k=5))
    a = natural_plane(rng, 128, 128)
    for spec in (MultiscaleSpec("product", levels=3), MultiscaleSpec("sum", levels=3), MultiscaleSpec("fast4")):
        assert msssim(a, a, replace(cfg, multiscale=spec)) == pytest.approx(1.0, abs=1e-12)

    b = noisy_version(rng, a, 16)
    exps = (0.2, 0.45, 0.35)
    got = msssim(a, b, replace(cfg, multiscale=MultiscaleSpec("product", 3, exps)))
    cur_a, cur_b = a, b
    expected = 1.0
    for level in range(3):
        if level > 0:
            cur_a, cur_b = dyadic_downsample(cur_a), dyadic_downsample(cur_b)
        maps = ssim_map(cur_a, cur_b, cfg)
        value = mssim(maps.cs_map) if level < 2 else mssim(maps.q_map)
        expected *= max(value, 0.0) ** exps[level]
    assert got == pytest.approx(expected, abs=1e-9)

    finest_cs = mssim(ssim_map(a, b, cfg).cs_map)
    tail = msssim(
        dyadic_downsample(a), dyadic_downsample(b), replace(cfg, multiscale=MultiscaleSpec("product", 2, exps[1:]))
    )
    assert got == pytest.approx(max(finest_cs, 0.0) ** exps[0] * tail, abs=1e-9)
    report(6, "product/sum/fast4 saturate at 1; 3-level product matches oracle; recursion holds")


def test_criterion_07_color_models():
    """All color models saturate at 1, reduce to luma, and match the oracle."""
    rng = np.random.default_rng(707)
    chans = tuple(natural_plane(rng, 32, 32).samples for _ in range(3))
    frame = ColorFrame(chans)
    rect11 = SsimConfig(window=WindowSpec("rect", k=11))
    ycc = rgb_to_ycbcr_bt709(frame)
    assert qssim(frame, frame, rect11) == pytest.approx(1.0, abs=1e-9)
    assert cmssim(frame, frame, rect11) == pytest.approx(1.0, abs=1e-9)
    assert hssim(frame, frame, rect11) == pytest.approx(1.0, abs=1e-9)
    assert channelwise_cssim(ycc, ycc, cw(-0.3, -0.3)) == pytest.approx(1.0, abs=1e-9)

    dist_y = noisy_version(rng, LumaPlane(ycc.channels[0].astype(np.uint8)), 12).samples
    dist = ColorFrame((dist_y, ycc.channels[1], ycc.channels[2]), "ycbcr-bt709")
    luma_score = mssim(ssim_map(LumaPlane(ycc.channels[0]), LumaPlane(dist_y)))
    assert channelwise_cssim(ycc, dist, cw(0.0, 0.0)) == pytest.approx(luma_score, abs=1e-12)

    blurred = ColorFrame(tuple(blur_plane(LumaPlane(c), 2).samples for c in chans))
    assert cmssim(frame, blurred, rect11) <= mssim(
        ssim_map(luma_of(frame), luma_of(blurred))
    ) + 1e-12

    for _ in range(4):
        r4 = ColorFrame(tuple(rng.integers(0, 256, (4, 4)).astype(np.uint8) for _ in range(3)))
        d4 = ColorFrame(tuple(rng.integers(0, 256, (4, 4)).astype(np.uint8) for _ in range(3)))
        got = qssim(r4, d4, SsimConfig(window=WindowSpec("rect", k=4)))
        assert got == pytest.approx(brute_force_qssim(r4, d4), abs=1e-9)
    report(7, "all models saturate at 1; cw(0,0)=luma; cmssim <= luma; qssim matches oracle")


def test_criterion_08_evaluation():
    """5PL self-consistency, tied-rank SROCC, the identity curve, Pareto."""
    rng = np.random.default_rng(808)
    true = Logistic5(0.8, 9.0, 0.5, 0.15, 0.05)
    x = rng.uniform(0.05, 0.95, 120)
    y = np.asarray(eval_5pl(true, x))
    y = (y - y.min()) / (y.max() - y.min())
    fit = fit_5pl(LabeledDataset.from_pairs(x, y))
    assert cross_apply(fit, LabeledDataset.from_pairs(x, y)) <= 1e-6

    for _ in range(50):
        n = int(rng.integers(3, 11))
        a = rng.integers(0, 5, n).astype(float)
        b = rng.integers(0, 5, n).astype(float)
        if np.unique(a).size < 2 or np.unique(b).size < 2:
            continue
        assert correlations(a, b)[1] == pytest.approx(brute_force_srocc(a, b), abs=1e-12)

    identity = Logistic5(0.0, 1.0, 0.5, 1.0, 0.0)
    grid = np.linspace(-2.0, 2.0, 41)
    assert np.array_equal(np.asarray(eval_5pl(identity, grid)), grid)

    grid_points = [(c, p) for c in (1.0, 2.0, 3.0) for p in (0.2, 0.6, 0.9)]
    for combo in itertools.combinations_with_replacement(grid_points, 4):
        pts = [CostPerfPoint(str(i), c, p) for i, (c, p) in enumerate(combo)]
        expected = [
            p
            for p in pts
            if not any(
                q.perf >= p.perf and q.cost <= p.cost and (q.perf > p.perf or q.cost < p.cost)
                for q in pts
            )
        ]
        assert pareto_front(pts) == expected
    report(8, "5PL refit <= 1e-6, SROCC matches brute force with ties, identity exact, Pareto exact")


def test_criterion_09_scaled_prediction():
    """Histogram matching, the compute-ratio closed forms, the product model."""
    rng = np.random.default_rng(909)
    matcher = HistogramMatcher(5, bins=201)
    ref = rng.normal(0.88, 0.03, 8000).clip(-1, 1)
    matcher.predict(ref, ref)
    assert matcher.predict(ref) == pytest.approx(ref.mean(), abs=1.0 / 201)
    same_shape = rng.normal(0.88, 0.03, 8000).clip(-1, 1)
    assert matcher.predict(same_shape) == pytest.approx(ref.mean(), abs=1.0 / 201)

    beta, gamma = 0.17, 0.29
    assert compute_ratio(1, 0.5, beta, gamma) == 1.0 + beta
    limit = 0.5 * 0.5 * (1.0 + beta + gamma)
    assert compute_ratio(10**12, 0.5, beta, gamma) == pytest.approx(limit, abs=1e-9)

    assert scaled_ssim_product(0.9, 0.8) == pytest.approx(0.72, abs=1e-15)
    report(9, "histogram prediction exact within 1/bins; ratio closed forms; product = 0.72")


LIVE_IQA_ENV = "SSIMKIT_LIVE_IQA_MANIFEST"


@pytest.mark.skipif(
    not os.environ.get(LIVE_IQA_ENV),
    reason=f"set {LIVE_IQA_ENV} to a LIVE IQA manifest CSV to run the dataset-gated check",
)
def test_criterion_10_live_iqa_reproduction():
    """Dataset-gated SROCC reproduction on LIVE IQA (minutes-scale)."""
    from ssimkit.pipeline import expand_preset, run_benchmark

    manifest = os.environ[LIVE_IQA_ENV]
    rows = run_benchmark(
        manifest, {"enhanced": expand_preset("enhanced"), "default": expand_preset("default")}
    )
    by_name = {r["spec"]: r for r in rows}
    enhanced = by_name["enhanced"]["srocc"]
    default = by_name["default"]["srocc"]
    assert abs(enhanced - 0.9377) <= 0.02, f"enhanced SROCC {enhanced:.4f} vs 0.9377 +/- 0.02"
    assert abs(default - 0.93) <= 0.02, f"default SROCC {default:.4f} vs 0.93-class +/- 0.02"
    report(10, f"LIVE IQA: enhanced SROCC {enhanced:.4f}, default {default:.4f}")
