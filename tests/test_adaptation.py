import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit import stats
from ssimkit.adaptation import (
    HistogramMatcher,
    ProductPredictor,
    box_downsample,
    compute_ratio,
    enhanced_scale_factor,
    legacy_scale_factor,
    policy_factor,
    round_half_away,
    sast_factor,
    scaled_ssim_product,
    viewing_geometry,
)
from ssimkit.config import ScalePolicy
from ssimkit.errors import NoReferenceYet, ValidationError
from ssimkit.frames import LumaPlane
from ssimkit.stats import BAND_ROWS, _accumulator, _peak

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=200)

#: (dtype, lowest, highest sample) of the integer planes the downsample properties draw.
INTEGER_KINDS = {
    "u8": (np.uint8, 0, 255),
    "u10": (np.uint16, 0, 1023),
    "u16": (np.uint16, 0, 65535),
    "i32": (np.int32, -(2**31), 2**31 - 1),
}


def reduceat_downsample(plane, factor):
    """Oracle: block means from two reduceat passes over a float64 copy of the plane."""
    arr = np.asarray(plane, dtype=np.float64)
    h, w = arr.shape
    row_edges = np.arange(0, h, factor)
    col_edges = np.arange(0, w, factor)
    sums = np.add.reduceat(np.add.reduceat(arr, row_edges, axis=0), col_edges, axis=1)
    row_counts = np.minimum(row_edges + factor, h) - row_edges
    col_counts = np.minimum(col_edges + factor, w) - col_edges
    return sums / np.outer(row_counts, col_counts)


@st.composite
def downsample_cases(draw):
    """An integer or float plane (partial trailing blocks included) and a
    factor from 1 to 13 or up to 5 past the plane's larger side."""
    kind = draw(st.sampled_from([*INTEGER_KINDS, "f64"]))
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    factor = draw(st.one_of(st.integers(1, 13), st.integers(max(h, w), max(h, w) + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "f64":
        return rng.uniform(0, 255, (h, w)), factor
    dtype, lo, hi = INTEGER_KINDS[kind]
    return rng.integers(lo, hi, (h, w), endpoint=True).astype(dtype), factor


class TestScaleFactors:
    def test_legacy_hd(self):
        assert legacy_scale_factor(1920, 1080) == 4  # round(1080/256) = round(4.218)

    def test_legacy_boundary_and_clamp(self):
        assert legacy_scale_factor(256, 256) == 1
        assert legacy_scale_factor(100, 100) == 1

    def test_legacy_ceil_switch(self):
        assert legacy_scale_factor(1920, 1080, "ceil") == 5
        assert legacy_scale_factor(256, 256, "ceil") == 1

    def test_legacy_monotone_in_min_dimension(self):
        factors = [legacy_scale_factor(4096, h) for h in range(64, 2200, 8)]
        assert all(b >= a for a, b in zip(factors, factors[1:]))

    def test_round_half_away(self):
        assert round_half_away(4.5) == 5
        assert round_half_away(3.4999) == 3
        assert round_half_away(-4.5) == -5

    def test_enhanced_matches_legacy_at_default_ratio(self):
        for w, h in [(1920, 1080), (1280, 720), (640, 480), (4096, 2160), (100, 90)]:
            assert enhanced_scale_factor(w, h, 3.0) == legacy_scale_factor(w, h)

    def test_enhanced_larger_distance_smaller_factor(self):
        assert enhanced_scale_factor(1920, 1080, 6.0) == 2  # round(4.218 / 2)
        assert enhanced_scale_factor(1920, 1080, 1e9) == 1

    def test_policy_factor_dispatch(self):
        assert policy_factor(ScalePolicy.none(), 1920, 1080) == 1
        assert policy_factor(ScalePolicy.legacy256(), 1920, 1080) == 4
        assert policy_factor(ScalePolicy.enhanced_dh(6.0), 1920, 1080) == 2
        sast = ScalePolicy.sast(distance=1.0)
        assert policy_factor(sast, 1, 1) == 1  # z = 1.21 rounds to 1

    def test_factors_past_the_larger_side_clamp_to_it(self):
        # Any factor that large averages the whole frame; rounding never sees inf.
        assert policy_factor(ScalePolicy.enhanced_dh(1e-9), 3840, 2160) == 3840
        assert policy_factor(ScalePolicy("dh", d_over_h=1e-300, rounding="ceil"), 64, 48) == 64
        assert policy_factor(ScalePolicy.sast(distance=1e-300), 64, 48) == 64

    def test_two_tiny_view_angles_clamp_like_one(self):
        # 4 tan(th/2) tan(tw/2) underflows to 0 here; one square root per side does not.
        assert policy_factor(ScalePolicy.sast(3000.0, 1e-300, 1e-300), 64, 48) == 64
        assert policy_factor(ScalePolicy.sast(3000.0, 1e-300, 40.0), 64, 48) == 64
        assert sast_factor(48, 64, 3000.0, 1e-300, 1e-300) > 1e290

    def test_angle_whose_tangent_underflows_is_a_validation_error(self):
        # 5e-324 degrees is 0 radians: no factor can be formed from it.
        with pytest.raises(ValidationError, match="too small"):
            policy_factor(ScalePolicy.sast(3000.0, 5e-324, 40.0), 64, 48)

    @pytest.mark.parametrize("fn, args", [
        (enhanced_scale_factor, (1920, 1080, math.nan)),
        (enhanced_scale_factor, (1920, 1080, math.inf)),
        (enhanced_scale_factor, (math.inf, 1080, 3.0)),
        (sast_factor, (1.0, 1.0, math.nan)),
        (sast_factor, (math.inf, 1.0, 1.0)),
        (sast_factor, (1.0, 1.0, 1.0, math.nan)),
        (sast_factor, (1.0, 1.0, 1.0, 40.0, 180.0)),
        (viewing_geometry, (math.nan, 3.0, 1080)),
        (viewing_geometry, (1.0, math.inf, 1080)),
    ], ids=lambda v: getattr(v, "__name__", None) or repr(v))
    def test_non_finite_geometry_is_a_validation_error(self, fn, args):
        with pytest.raises(ValidationError):
            fn(*args)


class TestViewingGeometry:
    def test_three_heights_distance(self):
        alpha, _ = viewing_geometry(1.0, 3.0, 1080)
        assert alpha == pytest.approx(18.924644416051233, abs=1e-12)

    def test_unit_distance(self):
        alpha, _ = viewing_geometry(1.0, 1.0, 1080)
        assert alpha == pytest.approx(53.13010235415598, abs=1e-12)

    def test_fmax_linear_in_lines(self):
        _, f1 = viewing_geometry(1.0, 3.0, 1080)
        _, f2 = viewing_geometry(1.0, 3.0, 2160)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    def test_fmax_definition(self):
        alpha, fmax = viewing_geometry(0.5, 2.0, 720)
        assert fmax == pytest.approx(720 / (2 * alpha), rel=1e-12)


class TestSast:
    def test_exact_fill_is_unity(self):
        d = 10.0
        h = 2.0 * d * math.tan(math.radians(20.0))
        w = 2.0 * d * math.tan(math.radians(25.0))
        assert sast_factor(h, w, d) == pytest.approx(1.0, abs=1e-12)

    def test_unit_cube_value(self):
        assert sast_factor(1.0, 1.0, 1.0) == pytest.approx(1.2136705009973034, abs=1e-12)

    def test_homogeneous_in_display_size(self):
        base = sast_factor(2.0, 2.0, 1.0)
        assert sast_factor(4.0, 4.0, 1.0) == pytest.approx(2.0 * base, rel=1e-12)

    def test_clamped_below_at_one(self):
        assert sast_factor(0.01, 0.01, 100.0) == 1.0


@st.composite
def scaled_downsample_cases(draw):
    """An 8-, 10- or 16-bit LumaPlane, at full scale or not, of a shape that
    leaves partial trailing blocks or not, and a factor from 2 to 17 or past
    the plane's larger side."""
    bits = draw(st.sampled_from([8, 10, 16]))
    h, w = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    factor = draw(st.one_of(st.integers(2, 17), st.integers(max(h, w, 2), max(h, w) + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    peak = (1 << bits) - 1
    samples = np.full((h, w), peak) if draw(st.booleans()) else rng.integers(0, peak, (h, w), endpoint=True)
    return LumaPlane(samples.astype(np.uint8 if bits == 8 else np.uint16), bits), factor


class TestBoxDownsample:
    def test_identity_factor(self, rng):
        plane = LumaPlane(rng.integers(0, 256, (6, 6), dtype=np.uint8))
        assert box_downsample(plane, 1) is plane

    @pytest.mark.parametrize("factor", [True, False, 2.0, 2.5, "2", 0, -1])
    def test_rejects_a_factor_that_is_not_a_positive_integer(self, rng, factor):
        plane = LumaPlane(rng.integers(0, 256, (6, 6), dtype=np.uint8))
        with pytest.raises(ValidationError, match="factor"):
            box_downsample(plane, factor)

    def test_block_mean(self):
        plane = LumaPlane(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        out = box_downsample(plane, 2)
        assert out.samples.shape == (1, 1)
        assert out.samples[0, 0] / out.scale == 2.5

    def test_huge_factor_is_the_whole_frame_mean(self, rng):
        arr = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        out = box_downsample(arr, 10**12)
        assert out.shape == (1, 1) and out[0, 0] == arr.sum() / arr.size

    def test_partial_trailing_blocks(self):
        row = LumaPlane(np.arange(7, dtype=np.uint8).reshape(1, 7), 8)
        out = box_downsample(row, 3)
        assert out.samples.shape == (1, 3)
        assert out.samples[0, 0] / out.scale == pytest.approx(1.0)  # mean(0, 1, 2)
        assert out.samples[0, 1] / out.scale == pytest.approx(4.0)  # mean(3, 4, 5)
        assert out.samples[0, 2] / out.scale == pytest.approx(6.0)  # single trailing sample

    def test_matches_block_loop(self, rng):
        arr = rng.uniform(0, 255, (11, 7))
        out = box_downsample(arr, 4)
        for bi in range(out.shape[0]):
            for bj in range(out.shape[1]):
                block = arr[bi * 4 : (bi + 1) * 4, bj * 4 : (bj + 1) * 4]
                assert out[bi, bj] == pytest.approx(block.mean(), abs=1e-12)

    @DERANDOMIZED
    @given(downsample_cases())
    def test_integer_planes_equal_float64_reduceat_byte_for_byte(self, case):
        arr, factor = case
        out = box_downsample(arr, factor)
        if factor == 1:
            assert out is arr
            return
        expected = reduceat_downsample(arr, factor)
        if arr.dtype.kind == "f":
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)
        else:
            assert out.dtype == expected.dtype and out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    @DERANDOMIZED
    @given(scaled_downsample_cases())
    def test_luma_planes_keep_block_sums_whose_means_equal_float64_reduceat(self, case):
        plane, factor = case
        out = box_downsample(plane, factor)
        h, w = plane.samples.shape
        counts = {min(factor, h - r) * min(factor, w - c) for r in range(0, h, factor) for c in range(0, w, factor)}
        assert out.scale == math.lcm(*counts) and out.bit_depth == plane.bit_depth
        assert out.samples.dtype == _accumulator(out.scale * _peak(plane), plane)
        means = out.samples / out.scale
        assert means.tobytes() == reduceat_downsample(plane.samples, factor).tobytes()

    def test_a_scaled_plane_downsamples_to_sums_of_its_sums(self, rng):
        # Partial blocks both times: 37 x 29 -> 19 x 15 (scale 2 * 2) -> 7 x 5 (scale 3 * 3).
        plane = LumaPlane(rng.integers(0, 1024, (37, 29)).astype(np.uint16), 10)
        twice = box_downsample(box_downsample(plane, 2), 3)
        assert twice.scale == 36 and twice.samples.dtype == np.uint16  # 36 * 1023 < 2^16
        oracle = reduceat_downsample(reduceat_downsample(plane.samples, 2), 3)  # exact quarter means first
        assert (twice.samples / twice.scale).tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("factor", [256, 257])
    def test_full_scale_16_bit_either_side_of_the_uint32_bound(self, rng, factor):
        # 256^2 * 65535 < 2^32 <= 257^2 * 65535: uint32 sums, then int64 sums.
        full = np.full((factor + 3, 2 * factor + 1), 65535, dtype=np.uint16)
        noisy = rng.integers(0, 65536, full.shape).astype(np.uint16)
        noisy[0, 0] = 65535
        assert (_accumulator(factor * factor * _peak(full), full) is np.uint32) == (factor == 256)
        for arr in (full, noisy):
            out = box_downsample(LumaPlane(arr, 16), factor)
            assert (out.samples / out.scale).tobytes() == reduceat_downsample(arr, factor).tobytes()
        assert np.all(box_downsample(full, factor) == 65535.0)

    def test_peak_memory_below_a_quarter_of_a_float64_copy(self, rng):
        # The 2160p plane the enhanced preset downsamples by 8; a float64
        # copy of it alone is 63 MiB, its 270 block rows in uint32 4 MiB.
        plane = LumaPlane(rng.integers(0, 256, (2160, 3840), dtype=np.uint8))
        tracemalloc.start()
        try:
            out = box_downsample(plane, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.samples.shape == (270, 480)
        assert peak < plane.samples.size * 8 / 4
        # The output plane plus one band of block rows, counted as float64.
        assert peak <= out.samples.nbytes + BAND_ROWS * plane.width * 8

    @pytest.mark.parametrize("kind", ["u8", "u10", "f64"])
    @pytest.mark.parametrize("factor, shape", [
        (2, (2 * BAND_ROWS * 2 + 3, 37)),  # two bands and a partial third of block rows
        (3, (BAND_ROWS * 3 - 1, 50)),  # one band, its last block partial
        (8, (BAND_ROWS * 8 + 9, 41)),  # a band edge, then two block rows
        (8, (BAND_ROWS * 8 * 2 + 8, 16)),  # a band of one block row after two full ones
        (300, (5, 700)),  # a factor taller than the frame
        (50, (3, 2)),  # a factor past both sides: the whole-frame mean
    ])
    def test_bands_equal_one_band(self, monkeypatch, rng, kind, factor, shape):
        if kind == "f64":
            arr = rng.uniform(0.0, 255.0, shape)
        else:
            arr = rng.integers(0, 256 if kind == "u8" else 1024, shape).astype(np.uint8 if kind == "u8" else np.uint16)
        banded = box_downsample(arr, factor)
        with monkeypatch.context() as patch:
            patch.setattr(stats, "BAND_ROWS", 10**9)
            whole = box_downsample(arr, factor)
        assert banded.dtype == whole.dtype == np.float64
        assert banded.shape == whole.shape == (-(-shape[0] // factor), -(-shape[1] // factor))
        assert banded.tobytes() == whole.tobytes()


class TestScaledPrediction:
    def test_product_model(self):
        assert scaled_ssim_product(1.0, 0.77) == 0.77
        assert scaled_ssim_product(0.9, 0.8) == pytest.approx(0.72, abs=1e-15)
        assert scaled_ssim_product(0.63, 1.0) == 0.63

    def test_product_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            scaled_ssim_product(1.2, 0.5)

    def test_predictor_interface(self):
        assert ProductPredictor().predict(0.9, 0.8, alpha=0.5, qp=30) == pytest.approx(0.72)

    def test_compute_ratio_unit_interval(self):
        assert compute_ratio(1, 0.5, 0.1, 0.2) == pytest.approx(1.1, abs=1e-12)

    def test_compute_ratio_limit(self):
        limit = 0.5**2 * (1 + 0.1 + 0.2)
        assert compute_ratio(10**9, 0.5, 0.1, 0.2) == pytest.approx(limit, abs=1e-6)

    def test_compute_ratio_example(self):
        assert compute_ratio(5, 0.5, 0.1, 0.1) == pytest.approx(0.46, abs=1e-12)

    def test_compute_ratio_decreasing_in_k(self):
        values = [compute_ratio(k, 0.5, 0.1, 0.1) for k in range(1, 30)]
        assert all(b <= a for a, b in zip(values, values[1:]))


def binned_quantile_oracle(values, q, bins=201, lo=-1.0, hi=1.0):
    """Independent quantile of the binned distribution of ``values``."""
    counts, edges = np.histogram(np.clip(values, lo, hi), bins=bins, range=(lo, hi))
    target = q * counts.sum()
    cum = 0.0
    for b, c in enumerate(counts):
        if cum + c > target:
            frac = (target - cum) / c
            return edges[b] + frac * (edges[1] - edges[0])
        cum += c
    return edges[-1]


class TestHistogramMatcher:
    @pytest.mark.parametrize("kwargs", [
        dict(bins=2.5), dict(bins=201.0), dict(bins=True), dict(bins=1),
    ], ids=repr)
    def test_rejects_bad_histogram_settings(self, kwargs):
        with pytest.raises(ValidationError):
            HistogramMatcher(5, **kwargs)

    def test_first_call_needs_reference(self, rng):
        matcher = HistogramMatcher(5)
        with pytest.raises(NoReferenceYet):
            matcher.predict(rng.uniform(0.5, 1.0, 100))

    def test_reference_call_returns_exact_mean(self, rng):
        matcher = HistogramMatcher(5)
        true_map = rng.uniform(0.6, 1.0, 400)
        assert matcher.predict(true_map, true_map) == true_map.mean()

    def test_identical_multiset_is_exact(self, rng):
        matcher = HistogramMatcher(5)
        ref = rng.normal(0.9, 0.02, 4000).clip(-1, 1)
        matcher.predict(ref, ref)
        assert matcher.predict(ref) == pytest.approx(ref.mean(), abs=1e-12)

    def test_identical_distribution_within_bin(self, rng):
        matcher = HistogramMatcher(5, bins=201)
        ref = rng.normal(0.85, 0.03, 6000).clip(-1, 1)
        comp = rng.normal(0.85, 0.03, 6000).clip(-1, 1)
        matcher.predict(ref, ref)
        assert matcher.predict(comp) == pytest.approx(ref.mean(), abs=1.0 / 201)

    def test_constant_map_lands_on_reference_median(self, rng):
        matcher = HistogramMatcher(5, bins=201)
        ref = rng.normal(0.9, 0.02, 5000).clip(-1, 1)
        matcher.predict(ref, ref)
        predicted = matcher.predict(np.full(256, 0.8))
        oracle_median = binned_quantile_oracle(ref, 0.5)
        assert predicted == pytest.approx(oracle_median, abs=2.0 / 201)

    def test_transform_is_monotone(self, rng):
        matcher = HistogramMatcher(5)
        ref = rng.uniform(0.3, 1.0, 3000)
        matcher.predict(ref, ref)
        comp = rng.uniform(0.3, 1.0, 500)
        mapped = matcher.transform(np.sort(comp))
        assert np.all(np.diff(mapped) >= 0.0)

    def test_refresh_schedule(self, rng):
        matcher = HistogramMatcher(3)
        ref = rng.uniform(0.4, 1.0, 300)
        matcher.predict(ref, ref)          # call 0: refresh
        matcher.predict(rng.uniform(0.4, 1.0, 300))  # call 1
        matcher.predict(rng.uniform(0.4, 1.0, 300))  # call 2
        with pytest.raises(NoReferenceYet):
            matcher.predict(rng.uniform(0.4, 1.0, 300))  # call 3: refresh due

    def test_rejected_call_leaves_the_schedule(self, rng):
        matcher = HistogramMatcher(5)
        values = rng.uniform(0.4, 1.0, 300)
        with pytest.raises(NoReferenceYet):
            matcher.predict(values)  # call 0 must refresh
        assert matcher.predict(values, values) == values.mean()  # the retry is call 0
        for _ in range(4):
            matcher.predict(values)  # calls 1-4 map without a reference
        with pytest.raises(NoReferenceYet):
            matcher.predict(values)  # call 5: refresh due again

    @pytest.mark.parametrize("bins", [11, 201, 1001])
    def test_prediction_is_the_mean_of_the_transform(self, rng, bins):
        # predict's definition, bit for bit, on every call between refreshes
        matcher = HistogramMatcher(4, bins=bins)
        ref = rng.beta(8, 1.5, (30, 40)) * 2 - 1
        matcher.predict(ref, ref)
        for shape in ((30, 40), (7, 9), (1, 1)):
            comp = np.clip(rng.beta(5, 2, shape) * 2.2 - 1.1, -1.05, 1.0)
            expected = matcher.transform(comp).mean()
            assert matcher.predict(comp) == expected

    def test_prediction_depends_on_comp_mass_structure(self, rng):
        # the transform carries the comp map's rank/mass structure onto the
        # reference distribution: a point mass lands on the reference median,
        # a spread-out map reproduces the whole reference (mean)
        matcher = HistogramMatcher(5)
        ref = (1.0 - rng.exponential(0.08, 6000)).clip(-1, 1)  # skewed: mean < median
        matcher.predict(ref, ref)
        spread = matcher.predict(rng.uniform(0.2, 1.0, 6000))
        point = matcher.predict(np.full(512, 0.7))
        assert spread == pytest.approx(ref.mean(), abs=1.0 / 201)
        oracle_median = binned_quantile_oracle(ref, 0.5)
        assert abs(ref.mean() - oracle_median) > 3.0 / 201  # skew is visible
        assert point > spread  # median above mean for this skew


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=64, max_value=4096), st.integers(min_value=64, max_value=4096))
def test_legacy_factor_monotone_property(w, h):
    smaller = legacy_scale_factor(min(w, h), min(w, h))
    larger = legacy_scale_factor(max(w, h), max(w, h))
    assert larger >= smaller
