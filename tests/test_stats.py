import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit import pipeline, ssim, stats
from ssimkit.adaptation import box_downsample
from ssimkit.color import qssim
from ssimkit.config import ENGINES, ColorModelSpec, MultiscaleSpec, SsimConfig, WindowSpec
from ssimkit.errors import (
    NonPositiveSigma,
    ValidationError,
    WindowLargerThanImage,
)
from ssimkit.frames import LumaPlane
from ssimkit.multiscale import dyadic_downsample, scale_scores
from ssimkit.pipeline import score_frame_pair
from ssimkit.spatiotemporal import RollingVolume, ssim3d_map, ssim3d_series
from ssimkit.stats import (
    _accumulator,
    _grid_shape,
    _grid_window_sums,
    _pair_terms,
    _sliding_weighted_sums,
    box_sums,
    gaussian_kernel,
    gaussian_kernel_1d,
    local_statistics,
    rect_equivalent,
    separable_sums,
    stats_from_means,
    window_statistics,
)

from helpers import in_fresh_thread, per_tap_sums, random_plane, random_rgb

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _sat(values: np.ndarray) -> np.ndarray:
    """Summed-area table of a whole plane with a zero first row/column: the
    oracle for the band tables of window_statistics."""
    h, w = values.shape
    out = np.zeros((h + 1, w + 1), dtype=values.dtype)
    inner = out[1:, 1:]
    np.cumsum(values, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return out


def rows_of(planes):
    """A ``terms`` function for window_statistics over whole ``planes``."""
    return lambda rows: (t[rows] for t in planes)


def brute_force_prefix_sum(values, i, j):
    return values[: i + 1, : j + 1].sum()


def brute_force_local_stats(a, b, weights, i, j):
    """Direct evaluation of the windowed statistics at one anchor."""
    k = weights.shape[0]
    wa = a[i : i + k, j : j + k].astype(np.float64)
    wb = b[i : i + k, j : j + k].astype(np.float64)
    mu1 = (weights * wa).sum()
    mu2 = (weights * wb).sum()
    var1 = (weights * wa * wa).sum() - mu1 * mu1
    var2 = (weights * wb * wb).sum() - mu2 * mu2
    cov = (weights * wa * wb).sum() - mu1 * mu2
    return mu1, mu2, var1, var2, cov


class TestGaussianKernel:
    def test_default_size_for_sigma_1_5(self):
        assert gaussian_kernel(1.5).shape == (11, 11)

    def test_normalization(self, rng):
        for sigma in [0.5, 1.5, 2.7, 6.0]:
            assert abs(gaussian_kernel(sigma).sum() - 1.0) < 1e-12

    def test_center_weight_matches_direct_evaluation(self):
        # oracle: direct double-loop evaluation of exp(-(i^2+j^2)/2s^2) / Z
        kern = gaussian_kernel(1.5, 11)
        z = sum(
            math.exp(-(i * i + j * j) / (2 * 1.5 * 1.5))
            for i in range(-5, 6)
            for j in range(-5, 6)
        )
        assert kern[5, 5] == pytest.approx(1.0 / z, abs=1e-15)
        assert kern[5, 5] == pytest.approx(0.07076223776394697, abs=1e-15)

    def test_rejects_bad_sigma(self):
        with pytest.raises(NonPositiveSigma):
            gaussian_kernel(0.0)
        with pytest.raises(NonPositiveSigma):
            gaussian_kernel(-1.5)
        for sigma in (math.nan, math.inf, 1e308, 1e-300):  # no finite size, or a kernel that divides by 0
            with pytest.raises(ValidationError):
                gaussian_kernel(sigma)
            with pytest.raises(ValidationError):
                gaussian_kernel(sigma, 11)

    @pytest.mark.parametrize("k", [2.5, 11.0, True, "11", 0, -3])
    def test_rejects_a_size_that_is_not_a_positive_integer(self, k):
        with pytest.raises(ValidationError, match="kernel size"):
            gaussian_kernel(1.5, k)

    def test_separable(self):
        kern = gaussian_kernel(2.0, 13)
        row = kern[6] / kern[6].sum()
        assert np.array_equal(gaussian_kernel_1d(2.0, 13), row)
        assert np.allclose(np.outer(row, row), kern / kern.sum(), atol=1e-15)


class TestRectEquivalent:
    def test_same_variance(self):
        # half-width ceil(1.5*sqrt(3)) = 3, full size 7
        assert rect_equivalent(1.5, "same-variance") == 7

    def test_same_bandwidth(self):
        # half-width ceil(1.602*1.5) = 3, full size 7
        assert rect_equivalent(1.5, "same-bandwidth") == 7

    def test_same_size_passthrough(self):
        assert rect_equivalent(1.5, "same-size") == 11

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonPositiveSigma):
            rect_equivalent(0.0, "same-size")
        with pytest.raises(ValidationError):
            rect_equivalent(1.5, "same-everything")
        for mode in ("same-size", "same-variance", "same-bandwidth"):
            for sigma in (math.nan, math.inf):
                with pytest.raises(ValidationError):
                    rect_equivalent(sigma, mode)


def uniform_sums(values, k, stride):
    """Direct k x k window sums: the naive engine's rect route."""
    return _sliding_weighted_sums(values, np.ones((k, k)), stride)


def float_terms(a, b):
    """The five float64 planes I1, I2, I1^2, I2^2, I1*I2 of a frame pair."""
    return list(_pair_terms(a.samples.astype(np.float64), b.samples.astype(np.float64), np.float64))


class TestIntegralSet:
    """The float64 summed-area tables that float planes take."""

    def test_two_by_two_total(self):
        a = LumaPlane(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert _sat(float_terms(a, a)[0])[2, 2] == 10

    def test_identical_planes_share_product_table(self, rng):
        a = random_plane(rng, 6, 9)
        terms = float_terms(a, a)
        assert np.array_equal(_sat(terms[4]), _sat(terms[2]))

    def test_matches_brute_force_prefix_sums(self, rng):
        a = random_plane(rng, 7, 5)
        b = random_plane(rng, 7, 5)
        for values in float_terms(a, b):
            table = _sat(values)
            assert table.dtype == np.float64
            assert np.all(table[0, :] == 0) and np.all(table[:, 0] == 0)
            for i in range(7):
                for j in range(5):
                    assert table[i + 1, j + 1] == brute_force_prefix_sum(values, i, j)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (300, 211)])
    def test_in_place_table_equals_the_cumsum_formula_bit_for_bit(self, rng, shape):
        values = rng.normal(size=shape) * 1e3
        expected = np.zeros((shape[0] + 1, shape[1] + 1))
        expected[1:, 1:] = values.cumsum(axis=0).cumsum(axis=1)
        assert _sat(values).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k,stride", [(1, 1), (5, 1), (8, 4), (11, 3)])
    def test_window_sums_equal_the_four_corner_formula_bit_for_bit(self, rng, k, stride):
        table = _sat(rng.normal(size=(90, 70)) * 1e3)
        h, w = 90, 70
        top, left = slice(0, h - k + 1, stride), slice(0, w - k + 1, stride)
        bottom, right = slice(k, h + 1, stride), slice(k, w + 1, stride)
        expected = (table[bottom, right] + table[top, left]) - (table[bottom, left] + table[top, right])
        assert _grid_window_sums(table, k, stride).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k,stride", [(1, 3), (11, 1), (7, 2), (3, 13)])
    def test_band_tables_equal_the_whole_table_bit_for_bit(self, rng, k, stride):
        # Three bands, each carrying the column sums of the rows above it.
        # The -0.0 rows on top are +0.0 in a band table, which starts from
        # 0.0; no window sum keeps the difference.
        h = (2 * BAND + 10 - 1) * stride + k
        planes = [rng.normal(size=(h, 41)) * 1e3 for _ in range(5)]
        for t in planes:
            t[:2] = -0.0
        got = window_statistics(rows_of(planes), (h, 41), WindowSpec("rect", k=k, stride=stride))
        sums = [_grid_window_sums(_sat(t), k, stride) / float(k * k) for t in planes]
        want = stats_from_means(*sums, np.empty(sums[0].shape))
        for x, y in zip((got.mu1, got.mu2, got.var1, got.var2, got.cov), want):
            assert x.tobytes() == y.tobytes()

    def test_recurrence(self, rng):
        a, b = random_plane(rng, 8, 8), random_plane(rng, 8, 8)
        f = float_terms(a, b)[0]
        t = _sat(f)
        for i in range(1, 9):
            for j in range(1, 9):
                assert t[i, j] == t[i - 1, j] + t[i, j - 1] - t[i - 1, j - 1] + f[i - 1, j - 1]


class TestWindowSum:
    """Window sums of float planes from their summed-area tables."""

    def test_whole_image_window(self):
        a = LumaPlane(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert _grid_window_sums(_sat(float_terms(a, a)[0]), 2, 1).tolist() == [[10.0]]

    def test_single_sample_window(self, rng):
        a = random_plane(rng, 5, 5)
        sums = _grid_window_sums(_sat(float_terms(a, a)[0]), 1, 1)
        assert np.array_equal(sums, a.samples)

    def test_matches_direct_loop(self, rng):
        a, b = random_plane(rng, 16, 16), random_plane(rng, 16, 16)
        sums = _grid_window_sums(_sat(float_terms(a, b)[4]), 5, 1)
        prod = a.samples.astype(np.int64) * b.samples.astype(np.int64)
        assert sums.shape == (12, 12)
        for i in range(12):
            for j in range(12):
                assert sums[i, j] == prod[i : i + 5, j : j + 5].sum()


class TestDirectSums:
    """The direct loop, against a per-tap loop kept here as its oracle."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 4, 11])
    @pytest.mark.parametrize("kernel", ["ones", "mean"])
    def test_uniform_fold_equals_per_tap_loop_bit_for_bit(self, rng, kernel, k, stride):
        # 400 rows make several bands of grid rows at every stride.
        values = rng.normal(size=(400, 37)) * 1e3
        values[::7, ::3] = -0.0
        values[::5, 1::4] = 0.0
        weights = np.ones((k, k)) if kernel == "ones" else np.full((k, k), 1.0 / (k * k))
        got = _sliding_weighted_sums(values, weights, stride)
        assert got.tobytes() == per_tap_sums(values, weights, stride).tobytes()

    def test_gaussian_weights_equal_per_tap_loop_bit_for_bit(self, rng):
        values = rng.normal(size=(40, 33)) * 1e3
        weights = gaussian_kernel(1.5, 7)
        assert _sliding_weighted_sums(values, weights, 2).tobytes() == per_tap_sums(values, weights, 2).tobytes()


class TestSeparableSums:
    @pytest.mark.parametrize("stride", [1, 2, 5])
    def test_leading_axes_are_independent_planes(self, rng, stride):
        planes = rng.normal(size=(3, 150, 41)) * 1e3
        kern1d = gaussian_kernel_1d(1.5, 11)
        stacked = separable_sums(planes, kern1d, stride)
        for plane, got in zip(planes, stacked):
            assert got.tobytes() == separable_sums(plane, kern1d, stride).tobytes()

    def test_matches_brute_force_windows(self, rng):
        values = rng.normal(size=(20, 17))
        kern1d = gaussian_kernel_1d(1.0, 5)
        got = separable_sums(values, kern1d, 3)
        weights = np.outer(kern1d, kern1d)
        for i in range(got.shape[0]):
            for j in range(got.shape[1]):
                window = values[3 * i : 3 * i + 5, 3 * j : 3 * j + 5]
                assert got[i, j] == pytest.approx((weights * window).sum(), rel=1e-13, abs=1e-13)


@st.composite
def gaussian_cases(draw):
    """A 8- or 10-bit plane pair with a Gaussian window (sigma, odd k, stride) that fits it."""
    bits = draw(st.sampled_from([8, 10]))
    h, w = draw(st.integers(3, 80)), draw(st.integers(3, 40))
    k = 2 * draw(st.integers(1, (min(h, w) - 1) // 2)) + 1
    sigma = draw(st.floats(0.2, 6.0))
    stride = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = np.uint8 if bits == 8 else np.uint16
    a, b = (LumaPlane(rng.integers(0, 1 << bits, (h, w)).astype(dtype), bits) for _ in range(2))
    return a, b, WindowSpec("gauss", sigma=sigma, k=k, stride=stride)


class TestGaussianRoute:
    @DERANDOMIZED
    @given(gaussian_cases())
    def test_separable_statistics_within_1e_12_of_the_direct_loop(self, case):
        # Tolerances are relative to the data's scale: var and cov are
        # differences of second moments, so they are compared against peak^2.
        a, b, window = case
        fast = local_statistics(a, b, window, "auto")
        slow = local_statistics(a, b, window, "naive")
        peak = float(a.peak)
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            scale = peak if name.startswith("mu") else peak * peak
            np.testing.assert_allclose(getattr(fast, name), getattr(slow, name), rtol=1e-12, atol=1e-12 * scale)


@st.composite
def integer_planes(draw):
    """A uint8 or 10-bit uint16 plane with a window size and stride that fit it."""
    bits = draw(st.sampled_from([8, 10]))
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    k = draw(st.one_of(st.just(min(h, w)), st.integers(1, min(h, w))))
    stride = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plane = rng.integers(0, 1 << bits, (h, w)).astype(np.uint8 if bits == 8 else np.uint16)
    return plane, k, stride


def rule_box_sums(plane, k, stride, peak=None, out=None):
    """box_sums in the accumulator the rule gives k^2 samples of ``peak``
    (by default the plane's own), into ``out`` or a new array of that dtype."""
    work = _accumulator(k * k * (stats._peak(plane) if peak is None else peak), plane)
    out = np.empty(_grid_shape(*plane.shape, k, stride), work) if out is None else out
    return box_sums(plane, k, stride, work, out)


def cumsum_box_sums(plane, k, stride):
    """The scan route box sums took before doubling, kept as an oracle: a
    row-wise cumulative sum and its k-apart difference, then the running-row
    recurrence v[i] = v[i-1] - h[i-1] + h[i+k-1] down the columns, in the
    same accumulator."""
    h, w = plane.shape
    gw = _grid_shape(h, w, k, stride)[1]
    work = _accumulator(k * k * stats._peak(plane), plane)
    cum = np.empty((h, w + 1), dtype=work)
    cum[:, 0] = 0
    np.cumsum(plane, axis=1, dtype=work, out=cum[:, 1:])
    span = (gw - 1) * stride + 1
    rows = np.empty((h + 1, gw), dtype=work)
    np.subtract(cum[:, k : k + span : stride], cum[:, :span:stride], out=rows[1:])
    rows[1 : k + 1].sum(axis=0, dtype=work, out=rows[0])
    views = list(rows)
    for prev, cur, entering in zip(views, views[1:], views[k + 1 :]):
        np.subtract(prev, cur, out=cur)
        np.add(cur, entering, out=cur)
    return np.ascontiguousarray(rows[: h - k + 1 : stride])


#: Box-sum planes per accumulator: (dtype, low, high) of their samples. Sums
#: of one sample (k = 1) of the uint16 plane fit in its own dtype.
ACCUMULATOR_PLANES = {
    "uint32": (np.uint16, 0, 1023),  # 10-bit samples: k^2 * 1023 < 2^32 for every k here
    "int64": (np.int64, -(2**40), 2**40),  # signed samples
    "float64": (np.int64, 2**60, 2**62),  # k^2 * max >= 2^63 from k = 2
}


@st.composite
def box_planes(draw):
    """A plane of up to 33 x 33 samples for one of the three accumulators,
    C-ordered or a view that is not C-contiguous."""
    kind = draw(st.sampled_from(sorted(ACCUMULATOR_PLANES)))
    dtype, lo, hi = ACCUMULATOR_PLANES[kind]
    h, w = draw(st.integers(1, 33)), draw(st.integers(1, 33))
    layout = draw(st.sampled_from(["C", "F", "reversed", "every-other-column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plane = rng.integers(lo, hi, (h, 2 * w if layout == "every-other-column" else w), endpoint=True).astype(dtype)
    plane = {
        "C": plane, "F": np.asfortranarray(plane), "reversed": plane[::-1, ::-1], "every-other-column": plane[:, ::2],
    }[layout]
    return kind, plane


class TestBoxSums:
    @DERANDOMIZED
    @given(box_planes())
    def test_equals_the_cumsum_oracle_for_every_k_and_stride(self, case):
        # Every k that fits (powers of two and 2^m - 1 among them), strides
        # 1-5: exact accumulators give the oracle's bytes, float64 sums
        # (past int64) its values within 1e-14.
        kind, plane = case
        for k in range(1, min(plane.shape) + 1):
            for stride in range(1, 6):
                want = cumsum_box_sums(plane, k, stride)
                got = rule_box_sums(plane, k, stride)
                assert got.dtype == want.dtype and got.shape == want.shape, (k, stride)
                if want.dtype == np.float64:
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
                else:
                    assert got.tobytes() == want.tobytes(), (k, stride)
        assert kind == "float64" or want.dtype == np.dtype("uint16" if (kind, k) == ("uint32", 1) else kind)

    def test_scratch_is_reused_across_calls(self, rng):
        # A band's grid (64 rows) takes its work buffers from the thread's
        # arena; the second call of the same shape finds them there.
        plane = rng.integers(0, 1024, (74, 1920)).astype(np.uint16) ** 2

        def twice():
            first = rule_box_sums(plane, 11, 1)
            buffer = stats._arena.work
            address = buffer.ctypes.data
            again = np.empty_like(first)
            tracemalloc.start()
            try:
                rule_box_sums(plane, 11, 1, out=again)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert stats._arena.work is buffer and buffer.ctypes.data == address
            return first, again, peak

        first, again, peak = in_fresh_thread(twice)
        assert again.tobytes() == first.tobytes() == cumsum_box_sums(plane, 11, 1).tobytes()
        assert peak < 64 * 1024  # views and bookkeeping, not a plane

    def test_whole_plane_work_never_stays_in_the_arena(self, rng):
        shape = (1080, 1920)
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        b = rng.integers(0, 256, shape, dtype=np.uint8)

        def whole():
            got = local_statistics(a, b, WindowSpec("rect", k=11))
            got.mu1  # forms the whole grids in this thread
            return got, {role: buf.nbytes for role, buf in vars(stats._arena).items()}

        got, arena = in_fresh_thread(whole)
        assert got.mu1.shape == (1070, 1910)
        assert sum(arena.values()) < shape[0] * shape[1], arena  # less than one uint8 plane

    @settings(max_examples=150, deadline=None)
    @given(integer_planes())
    def test_equals_direct_sums_exactly(self, case):
        plane, k, stride = case
        for values in (plane, plane.astype(np.uint32) ** 2):
            expected = uniform_sums(values, k, stride)
            assert np.array_equal(rule_box_sums(values, k, stride), expected)
            out = rule_box_sums(values, k, stride, out=np.empty(expected.shape))
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("bits,k,work", [
        (8, 257, np.uint32), (8, 259, np.int64), (10, 64, np.uint32), (10, 65, np.int64),
    ])
    def test_uint32_holds_up_to_the_bound_int64_past_it(self, rng, bits, k, work):
        # Squared samples are the largest planes the statistics sum: at full
        # scale every window sum is k^2 * peak^2, just under or over 2^32.
        peak = (1 << bits) - 1
        full = np.full((k + 2, k + 3), peak * peak, dtype=np.uint32)
        noisy = rng.integers(0, peak + 1, full.shape).astype(np.uint32) ** 2
        noisy[0, 0] = peak * peak
        for values in (full, noisy):
            sums = rule_box_sums(values, k, 1)
            assert sums.dtype == work
            assert np.array_equal(sums, uniform_sums(values, k, 1))
        assert (work is np.uint32) == (k * k * peak * peak < 2**32)

    def test_float64_past_int64(self):
        values = np.full((4, 5), 2**61, dtype=np.int64)
        values[1, 2] = 2**61 + 12345
        sums = rule_box_sums(values, 3, 1)
        assert sums.dtype == np.float64
        expected = uniform_sums(values.astype(np.float64), 3, 1)
        np.testing.assert_allclose(sums, expected, rtol=1e-14, atol=0)

    def test_signed_input_uses_int64(self):
        values = np.array([[-3, 4, 5], [6, -7, 8]], dtype=np.int16)
        sums = rule_box_sums(values, 2, 1)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, [[0, 10]])

    @settings(max_examples=60, deadline=None)
    @given(integer_planes(), st.integers(0, 2**32 - 1))
    def test_integer_statistics_equal_naive_bit_for_bit(self, case, seed):
        plane, k, stride = case
        rng = np.random.default_rng(seed)
        other = rng.integers(0, int(plane.max()) + 1, plane.shape).astype(plane.dtype)
        window = WindowSpec("rect", k=k, stride=stride)
        fast = local_statistics(plane, other, window, "auto")
        slow = local_statistics(plane, other, window, "naive")
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))


@st.composite
def typed_pairs(draw):
    """A uint8, 10-bit or int32 plane pair with a rectangular or Gaussian window that fits it."""
    dtype, lo, hi = draw(st.sampled_from([(np.uint8, 0, 256), (np.uint16, 0, 1024), (np.int32, -(2**20), 2**20)]))
    h, w = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    k = 2 * draw(st.integers(1, (min(h, w) - 1) // 2)) + 1
    stride = draw(st.integers(1, 4))
    window = draw(st.sampled_from(
        [WindowSpec("rect", k=k, stride=stride), WindowSpec("gauss", sigma=1.5, k=k, stride=stride)]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = (rng.integers(lo, hi, (h, w)).astype(dtype) for _ in range(2))
    return a, b, window


#: Sample planes for the product rule: (dtype, lowest, highest sample). The
#: int64 peaks sit either side of 3_037_000_499.98..., the sample whose
#: square is 2^63.
PRODUCT_PLANES = [
    (np.uint8, 0, 255), (np.uint16, 0, 1023), (np.uint16, 0, 65535), (np.dtype(">u2"), 0, 65535),
    (np.int8, -128, 127), (np.int16, -(2**15), 2**15 - 1), (np.int32, -(2**31), 2**31 - 1),
    (np.int64, 0, 2**20), (np.int64, 0, 3_037_000_499), (np.int64, -3_037_000_499, 0),
    (np.int64, 0, 3_037_000_500), (np.int64, -(2**40), 2**40),
]


def product_dtype(x):
    """The accumulator for one product of two samples of ``x``: the dtype's
    range decides up to 16 bits, the samples beyond; a signed dtype never
    takes an unsigned accumulator."""
    info = np.iinfo(x.dtype)
    lo, hi = (int(info.min), int(info.max)) if x.dtype.itemsize <= 2 else (int(x.min()), int(x.max()))
    peak = max(hi, -lo) ** 2
    for dtype, bound in ((np.uint16, 2**16), (np.uint32, 2**32)):
        if x.dtype.kind == "u" and peak < bound:
            return dtype
    return np.int64 if peak < 2**63 else np.float64


def rule_pair_terms(a, b):
    """The five planes of a bare pair, products in the accumulator the rule
    gives the square of the pair's peak."""
    return list(_pair_terms(a, b, _accumulator(max(stats._peak(a), stats._peak(b)) ** 2, a, b)))


@st.composite
def product_planes(draw):
    """An integer plane whose extreme samples are drawn too, so the bounds are reached."""
    dtype, lo, hi = draw(st.sampled_from(PRODUCT_PLANES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(lo, hi, (5, 6), endpoint=True)
    x[0, 0], x[-1, -1] = draw(st.sampled_from([lo, hi])), draw(st.sampled_from([lo, hi]))
    return x.astype(dtype)


class TestPairTerms:
    @DERANDOMIZED
    @given(product_planes(), product_planes())
    def test_products_take_the_rule_dtype_and_are_exact(self, a, b):
        want = np.result_type(product_dtype(a), product_dtype(b))
        terms = rule_pair_terms(a, b)
        if want == np.float64:
            x, y = a.astype(np.float64), b.astype(np.float64)
            products = [x * x, y * y, x * y]
            assert all(t.dtype == np.float64 for t in terms)
            assert [t.tobytes() for t in terms] == [t.tobytes() for t in (x, y, *products)]
        else:
            assert terms[0] is a and terms[1] is b
            x, y = a.astype(object), b.astype(object)  # Python integers: exact
            products = [x * x, y * y, x * y]
            for term, exact in zip(terms[2:], products):
                assert term.dtype == want and (term.astype(object) == exact).all()


class TestRouteFromPlanes:
    @DERANDOMIZED
    @given(typed_pairs(), st.sampled_from(ENGINES))
    def test_window_statistics_picks_its_route_from_the_planes(self, case, engine):
        self.check_route(*case, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("peak", [554_618, 554_619])  # 121 * peak either side of 2^26
    def test_the_exact_route_ends_at_its_bound(self, engine, peak):
        rng = np.random.default_rng(peak)
        a, b = (rng.integers(-peak, peak + 1, (15, 16)).astype(np.int32) for _ in range(2))
        a[0, 0] = peak
        self.check_route(a, b, WindowSpec("rect", k=11), engine)

    @staticmethod
    def check_route(a, b, window, engine):
        terms = rule_pair_terms(a, b)
        assert all(t.dtype.kind in "ui" for t in terms)
        n, grid = window.k**2, _grid_shape(*a.shape, window.k, window.stride)
        peak = max(np.iinfo(a.dtype).max if a.dtype.itemsize <= 2 else int(np.abs(x).max()) for x in (a, b))
        assert peak == max(stats._peak(a), stats._peak(b))
        got = window_statistics(rows_of(terms), a.shape, window, engine, peak=peak)
        if window.shape == "gauss":
            # the Gaussian passes read integer planes as their float64 copies
            floats = [t.astype(np.float64) for t in terms]
            want = window_statistics(rows_of(floats), a.shape, window, engine)
            want = (want.mu1, want.mu2, want.var1, want.var2, want.cov)
        elif 2 * (n * peak) ** 2 < 2**53:
            # either engine: exact integer sums, each statistic one division of an exact integer
            s1, s2, q11, q22, p12 = (rule_box_sums(t, window.k, window.stride).astype(np.int64) for t in terms)
            want = [s / float(n) for s in (s1, s2)]
            want += [(n * q - x * y) / float(n * n) for q, x, y in ((q11, s1, s1), (q22, s2, s2), (p12, s1, s2))]
        else:
            # past 2^53 the float route: the same sums' means, E[X^2] - E[X]^2,
            # each summed in the accumulator for n peak or n peak^2
            sums = [
                rule_box_sums(t, window.k, window.stride, peak ** (1 if i < 2 else 2), np.empty(grid))
                for i, t in enumerate(terms)
            ]
            want = stats_from_means(*(s / float(n) for s in sums), np.empty(grid))
        for x, y in zip((got.mu1, got.mu2, got.var1, got.var2, got.cov), want):
            assert x.dtype == y.dtype == np.float64 and x.tobytes() == y.tobytes()


def sample_reads(call):
    """``call()`` and the shapes of the integer arrays whose min or max it
    read, in order: ndarray.min and max run numpy's ``_amin`` and ``_amax``,
    which a profile hook sees with the array."""
    reads = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("_amin", "_amax"):
            a = frame.f_locals.get("a")
            if isinstance(a, np.ndarray) and a.dtype.kind in "ui":
                reads.append(a.shape)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, reads


def accumulator_for(plane, count, degree=1):
    """The rule's accumulator for sums of ``count`` products of ``degree``
    samples of ``plane``, from its peak."""
    return _accumulator(count * stats._peak(plane) ** degree, plane)


class TestAccumulator:
    @pytest.mark.parametrize("dtype,count,work", [
        (np.uint8, 257, np.uint16), (np.uint8, 258, np.uint32),
        (np.uint8, 4104**2, np.uint32), (np.uint8, 4105**2, np.int64),
        (np.uint16, 256**2, np.uint32), (np.uint16, 257**2, np.int64),
        (np.int16, 4, np.int64), (np.float32, 4, np.float64), (np.float64, 1, np.float64),
    ])
    def test_dtype_range_decides_up_to_16_bits(self, dtype, count, work):
        plane = np.zeros((2, 2), dtype=dtype)
        assert sample_reads(lambda: accumulator_for(plane, count)) == (work, [])  # the range alone

    def test_wider_dtypes_read_the_samples_once(self):
        small = np.array([[0, 255]], dtype=np.uint32)
        assert accumulator_for(small, 64) is np.uint16  # 64 * 255 < 2^16
        assert accumulator_for(small, 258) is np.uint32  # 258 * 255 >= 2^16
        assert accumulator_for(small - np.int64(1), 64) is np.int64
        assert accumulator_for(np.array([[2**40]], dtype=np.uint64), 2**22) is np.int64
        assert accumulator_for(np.array([[2**40]], dtype=np.uint64), 2**23) is np.float64
        assert accumulator_for(np.array([[-(2**40)]], dtype=np.int64), 2**23) is np.float64
        # The peak reads the samples once, their max; the rule takes it and reads nothing.
        peak, reads = sample_reads(lambda: stats._peak(small))
        assert (peak, reads) == (255, [small.shape])
        assert sample_reads(lambda: _accumulator(64 * peak, small)) == (np.uint16, [])

    def test_only_a_bare_signed_array_may_be_negative(self):
        # Non-negative int64 samples still take int64; a LumaPlane of a
        # signed dtype is checked non-negative, so it takes uint16.
        assert accumulator_for(np.array([[0, 255]], dtype=np.int64), 64) is np.int64
        assert accumulator_for(LumaPlane(np.array([[0, 255]], dtype=np.int16)), 64) is np.uint16

    @pytest.mark.parametrize("bits, scale, count, work", [
        (8, 64, 4, np.uint16), (8, 64, 5, np.uint32),  # 4 * 64 * 255 < 2^16 <= 5 * 64 * 255
        (8, 64, 263_172, np.uint32), (8, 64, 263_173, np.int64),  # either side of 2^32
        (16, 4, 35_184_908_967_936, np.int64), (16, 4, 35_184_908_967_937, np.float64),  # of 2^63
    ])
    def test_a_luma_plane_is_bounded_by_scale_times_peak(self, bits, scale, count, work):
        # The dtype (uint32) does not bound these samples; the bit depth and
        # scale do, so nothing is read.
        plane = LumaPlane(np.zeros((2, 2), np.uint32), bits, scale)
        assert sample_reads(lambda: accumulator_for(plane, count)) == (work, [])
        assert accumulator_for(LumaPlane(np.zeros((2, 2), np.uint32), bits), count * scale) is work

    def test_products_raise_the_sample_peak_to_the_degree(self):
        plane = np.zeros((2, 2), dtype=np.uint8)
        assert accumulator_for(plane, 257**2, degree=2) is np.uint32
        assert accumulator_for(plane, 258**2, degree=2) is np.int64
        wide = np.array([[2**31]], dtype=np.uint32)
        assert accumulator_for(wide, 1, degree=2) is np.int64
        assert accumulator_for(wide, 2, degree=2) is np.float64


class TestWideIntegerStatistics:
    @pytest.mark.parametrize("dtype,peak", [
        (np.uint32, 2**32 - 1), (np.int64, 2**40), (np.uint64, 2**40), (np.int64, -(2**40)),
    ])
    def test_integral_matches_naive_when_products_could_wrap(self, rng, dtype, peak):
        lo, hi = sorted((0, peak))
        a = rng.integers(lo, hi, (20, 23), endpoint=True).astype(dtype)
        b = rng.integers(lo, hi, (20, 23), endpoint=True).astype(dtype)
        window = WindowSpec("rect", k=7)
        fast = local_statistics(a, b, window, "auto")
        slow = local_statistics(a, b, window, "naive")
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            np.testing.assert_allclose(getattr(fast, name), getattr(slow, name), rtol=1e-9, atol=0)

    def test_wide_pair_within_the_bound_stays_exact(self, rng):
        # 49 * (2^20)^2 < 2^63: the exact route holds, bit for bit.
        a = rng.integers(0, 2**20, (12, 13)).astype(np.uint32)
        b = rng.integers(0, 2**20, (12, 13)).astype(np.uint32)
        window = WindowSpec("rect", k=7)
        fast = local_statistics(a, b, window, "auto")
        slow = local_statistics(a, b, window, "naive")
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))

    def test_products_within_int64_sum_in_float64_band_by_band_past_int64_window_sums(self, monkeypatch):
        # 3e9^2 < 2^63 <= 121 * 3e9^2: exact int64 products, whose window
        # sums, bounded by the pair's peak rather than a band's samples,
        # double in float64 in every band, band by band rather than over
        # the whole plane.
        rng = np.random.default_rng(11)
        shape = (3 * BAND - 20 + 10, 37)  # 3 * BAND - 20 grid rows at k=11: three bands
        a = rng.integers(0, 3 * 10**9, shape, endpoint=True, dtype=np.int64)
        b = np.clip(a + rng.integers(-3 * 10**8, 3 * 10**8, shape), 0, 3 * 10**9)
        cfg = SsimConfig(window=WindowSpec("rect", k=11))
        calls = []
        counted = stats._pair_terms
        monkeypatch.setattr(stats, "_pair_terms", lambda *args: calls.append(None) or counted(*args))
        banded = ssim.ssim_map(a, b, cfg)
        assert len(calls) == 3
        whole = ssim.term_maps_from_stats(local_statistics(a, b, cfg.window), cfg.c1, cfg.c2)
        assert map_bytes(banded) == map_bytes(whole)
        naive = ssim.ssim_map(a, b, SsimConfig(window=cfg.window, engine="naive"))
        for got, want in zip((banded.l_map, banded.cs_map, banded.q_map), (naive.l_map, naive.cs_map, naive.q_map)):
            np.testing.assert_allclose(got.values, want.values, rtol=5e-14, atol=0)


class TestLocalStatistics:
    def test_constant_pair(self):
        a = LumaPlane(np.full((16, 16), 100, dtype=np.uint8))
        b = LumaPlane(np.full((16, 16), 110, dtype=np.uint8))
        for engine in ("naive", "auto"):
            stats = local_statistics(a, b, WindowSpec("rect", k=5), engine)
            assert np.allclose(stats.mu1, 100.0, atol=1e-10)
            assert np.allclose(stats.mu2, 110.0, atol=1e-10)
            assert np.all(stats.var1 == 0.0)
            assert np.all(stats.var2 == 0.0)
            assert np.allclose(stats.cov, 0.0, atol=1e-9)

    def test_self_statistics(self, rng):
        a = random_plane(rng, 20, 20)
        stats = local_statistics(a, a, WindowSpec("rect", k=7), "auto")
        assert np.array_equal(stats.var1, stats.var2)
        assert np.allclose(stats.var1, stats.cov, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 8, 11, 16])
    def test_integral_equals_naive(self, rng, k):
        for _ in range(4):
            h = int(rng.integers(k, 65))
            w = int(rng.integers(k, 65))
            a, b = random_plane(rng, h, w), random_plane(rng, h, w)
            window = WindowSpec("rect", k=k)
            fast = local_statistics(a, b, window, "auto")
            slow = local_statistics(a, b, window, "naive")
            for name in ("mu1", "mu2", "var1", "var2", "cov"):
                x, y = getattr(fast, name), getattr(slow, name)
                assert np.allclose(x, y, rtol=1e-8, atol=1e-8)

    def test_matches_brute_force_windows(self, rng):
        a, b = random_plane(rng, 12, 14), random_plane(rng, 12, 14)
        k = 4
        weights = np.full((k, k), 1.0 / (k * k))
        stats = local_statistics(a, b, WindowSpec("rect", k=k), "auto")
        for i in range(stats.grid_shape[0]):
            for j in range(stats.grid_shape[1]):
                mu1, mu2, var1, var2, cov = brute_force_local_stats(
                    a.samples, b.samples, weights, i, j
                )
                assert stats.mu1[i, j] == pytest.approx(mu1, abs=1e-9)
                assert stats.var1[i, j] == pytest.approx(max(var1, 0.0), abs=1e-7)
                assert stats.cov[i, j] == pytest.approx(cov, abs=1e-7)

    def test_gaussian_matches_brute_force(self, rng):
        a, b = random_plane(rng, 15, 15), random_plane(rng, 15, 15)
        window = WindowSpec("gauss", sigma=1.0, k=7)
        weights = gaussian_kernel(1.0, 7)
        stats = local_statistics(a, b, window, "naive")
        for i in range(0, stats.grid_shape[0], 3):
            for j in range(0, stats.grid_shape[1], 3):
                mu1, _, var1, _, cov = brute_force_local_stats(a.samples, b.samples, weights, i, j)
                assert stats.mu1[i, j] == pytest.approx(mu1, abs=1e-9)
                assert stats.var1[i, j] == pytest.approx(max(var1, 0.0), abs=1e-7)
                assert stats.cov[i, j] == pytest.approx(cov, abs=1e-7)

    @pytest.mark.parametrize("engine,window", [
        ("auto", WindowSpec("rect", k=11, stride=5)),
        ("naive", WindowSpec("rect", k=11, stride=3)),
        ("naive", WindowSpec("gauss", sigma=1.5, stride=4)),
        ("auto", WindowSpec("gauss", sigma=1.5, stride=3)),
    ])
    def test_stride_equals_subsampled_stride_one(self, rng, engine, window):
        a, b = random_plane(rng, 48, 40), random_plane(rng, 48, 40)
        s = window.stride
        strided = local_statistics(a, b, window, engine)
        dense = local_statistics(a, b, replace(window, stride=1), engine)
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            assert np.array_equal(getattr(strided, name), getattr(dense, name)[::s, ::s])

    def test_grid_shape_formula(self, rng):
        a, b = random_plane(rng, 37, 23), random_plane(rng, 37, 23)
        for k, s in [(5, 1), (5, 3), (8, 4), (11, 5)]:
            stats = local_statistics(a, b, WindowSpec("rect", k=k, stride=s), "auto")
            expected = ((37 - k) // s + 1, (23 - k) // s + 1)
            assert stats.grid_shape == expected

    def test_cauchy_schwarz(self, rng):
        eps = 1e-6 * 255.0**2
        for _ in range(20):
            a, b = random_plane(rng, 24, 24), random_plane(rng, 24, 24)
            stats = local_statistics(a, b, WindowSpec("rect", k=7), "auto")
            bound = np.sqrt(stats.var1 * stats.var2) + eps
            assert np.all(np.abs(stats.cov) <= bound)

    def test_delta_kernel_reproduces_input(self, rng):
        # sigma small enough that off-center weights underflow to exactly 0
        a, b = random_plane(rng, 12, 12), random_plane(rng, 12, 12)
        window = WindowSpec("gauss", sigma=0.01)
        assert window.k == 3
        stats = local_statistics(a, b, window, "naive")
        assert np.array_equal(stats.mu1, a.samples[1:-1, 1:-1].astype(float))
        assert np.array_equal(stats.mu2, b.samples[1:-1, 1:-1].astype(float))

    def test_window_larger_than_image(self, rng):
        a = random_plane(rng, 8, 8)
        with pytest.raises(WindowLargerThanImage):
            local_statistics(a, a, WindowSpec("rect", k=11), "auto")

    @pytest.mark.parametrize("score", [
        lambda rng, config: local_statistics(random_plane(rng, 8, 12), random_plane(rng, 8, 12), config.window),
        lambda rng, config: RollingVolume(2).push(random_plane(rng, 8, 12), random_plane(rng, 8, 12))
        .local_statistics(config.window),
        lambda rng, config: qssim(random_rgb(rng, 8, 12), random_rgb(rng, 8, 12), config),
    ], ids=["frame", "volume", "qssim"])
    def test_one_window_fit_error_for_frames_volumes_and_qssim(self, rng, score):
        config = SsimConfig(window=WindowSpec("rect", k=11), color=ColorModelSpec("qssim"))
        with pytest.raises(WindowLargerThanImage, match="11x11 window does not fit a 12x8 image"):
            score(rng, config)
        assert issubclass(WindowLargerThanImage, ValidationError)

    def test_variances_never_negative(self, rng):
        for _ in range(10):
            a, b = random_plane(rng, 16, 16), random_plane(rng, 16, 16)
            stats = local_statistics(a, b, WindowSpec("rect", k=3), "auto")
            assert stats.var1.min() >= 0.0
            assert stats.var2.min() >= 0.0


#: One band of the statistics and term-map loops.
BAND = stats.BAND_ROWS


def one_band(monkeypatch, call):
    """``call()`` with a band taller than any grid: the whole-grid oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(stats, "BAND_ROWS", 10**9)
        return call()


def map_bytes(maps):
    return [m.values.tobytes() for m in (maps.l_map, maps.cs_map, maps.q_map)]


def streamed_means(local, cfg):
    """The l, cs and q means pooled as the bands of statistics ``local`` are formed."""
    sums, n = ssim._band_sums(local, cfg.c1, cfg.c2, lambda rows, mu1, l, cs, q: (l, cs, q))
    return [total / n for total in sums]


def map_means(maps):
    return [float(m.values.mean()) for m in (maps.l_map, maps.cs_map, maps.q_map)]


#: Plane kinds of the band-edge cases: (make plane, bit depth).
BAND_PLANES = {
    "u8": (lambda rng, shape: rng.integers(0, 256, shape, dtype=np.uint8), 8),
    "u10": (lambda rng, shape: rng.integers(0, 1024, shape, dtype=np.uint16), 10),
    "f64": (lambda rng, shape: rng.uniform(0.0, 255.0, shape), 8),
}


#: Grid shapes of the BandedSum checks: runs of fewer than 8 values, one
#: leaf of 128 and the first split at 129, single rows and columns, and
#: several bands of rows.
SUM_SHAPES = (
    [(1, n) for n in range(1, 8)] + [(n, 1) for n in range(1, 8)]
    + [(1, 128), (128, 1), (1, 129), (129, 1), (1, 3001), (1000, 1), (BAND + 1, 97), (3 * BAND + 5, 211)]
)


class TestBandedSum:
    """BandedSum rebuilds numpy's pairwise sum of a grid from its bands bit
    for bit; this guards it against a change in how numpy reduces."""

    @pytest.mark.parametrize("zeros", [0.2, 1.0])
    @pytest.mark.parametrize("shape", SUM_SHAPES)
    def test_bands_sum_as_numpy_sums_the_whole(self, shape, zeros):
        rng = np.random.default_rng([*shape, int(zeros * 10)])
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)
        values[rng.random(shape) < zeros] = -0.0
        whole, mean = float(np.add.reduce(values.reshape(-1))).hex(), float(values.mean()).hex()
        for rows in range(1, BAND + 2):
            total = stats.BandedSum(values.size)
            for top in range(0, shape[0], rows):
                total.add(values[top : top + rows])
            assert (total.total().hex(), (total.total() / values.size).hex()) == (whole, mean), rows


class TestBandEdges:
    """Banded statistics and term maps equal the one-band computation byte
    for byte, at grid heights on either side of a band edge."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("grid_rows", [BAND - 1, BAND, BAND + 1, 2 * BAND + 1])
    def test_frame_maps_equal_one_band(self, monkeypatch, grid_rows, stride):
        rng = np.random.default_rng(grid_rows * 10 + stride)
        windows = [WindowSpec("rect", k=k, stride=stride) for k in (1, 7, 11, BAND + 6)]
        windows.append(WindowSpec("gauss", sigma=1.5, stride=stride))
        calls = []
        counted = stats._pair_terms

        def counting(*args, **kwargs):
            calls.append(None)
            return counted(*args, **kwargs)

        monkeypatch.setattr(stats, "_pair_terms", counting)
        for window in windows:
            shape = ((grid_rows - 1) * stride + window.k, 2 * stride + window.k)
            for kind, (make, bits) in BAND_PLANES.items():
                a, b = make(rng, shape), make(rng, shape)
                for engine in ENGINES:
                    if engine == "naive" and window.k > BAND and stride > 1:
                        continue  # k^2 taps a band; stride 1 covers this route
                    cfg = SsimConfig(bit_depth=bits, window=window, engine=engine)
                    calls.clear()
                    banded = ssim.ssim_map(a, b, cfg)
                    bands = len(calls)
                    whole = one_band(monkeypatch, lambda: ssim.ssim_map(a, b, cfg))
                    assert map_bytes(banded) == map_bytes(whole), (window, kind, engine)
                    assert bands == -(-grid_rows // BAND)
                    assert streamed_means(local_statistics(a, b, window, engine), cfg) == map_means(whole)

    @pytest.mark.parametrize("kt", [1, 3, 5])
    @pytest.mark.parametrize("grid_rows", [BAND - 1, BAND, BAND + 1, 2 * BAND + 1])
    def test_volume_maps_equal_one_band(self, monkeypatch, kt, grid_rows):
        rng = np.random.default_rng(grid_rows * 10 + kt)
        windows = [WindowSpec("rect", k=7), WindowSpec("rect", k=11, stride=3), WindowSpec("rect", k=BAND + 6)]
        vols = {w: RollingVolume(kt) for w in windows}
        for t in range(kt + 2):
            for window, vol in vols.items():
                shape = ((grid_rows - 1) * window.stride + window.k, window.k + 9)
                if t == kt:  # a float frame turns the running sums float64 for good
                    a, b = (LumaPlane(rng.uniform(0.0, 1023.0, shape), 10) for _ in range(2))
                else:
                    a, b = (LumaPlane(rng.integers(0, 1024, shape, dtype=np.uint16), 10) for _ in range(2))
                vol.push(a, b)
                assert vol.temporal_sums()[0].dtype == (np.uint32 if t < kt else np.float64)
                for engine in ENGINES:
                    cfg = SsimConfig(bit_depth=10, window=window, engine=engine)
                    banded = ssim3d_map(vol, cfg)
                    whole = one_band(monkeypatch, lambda: ssim3d_map(vol, cfg))
                    assert map_bytes(banded) == map_bytes(whole), (window, t, engine)
                    assert streamed_means(vol.local_statistics(window, engine), cfg) == map_means(whole)

    def test_16_bit_volume_maps_equal_one_band(self, monkeypatch, rng):
        window = WindowSpec("rect", k=7, stride=2)
        shape = (2 * BAND * 2 + window.k, 20)
        vol = RollingVolume(3)
        for _ in range(4):
            vol.push(*(LumaPlane(rng.integers(0, 65536, shape, dtype=np.uint16), 16) for _ in range(2)))
        assert vol.temporal_sums()[0].dtype == np.int64
        cfg = SsimConfig(bit_depth=16, window=window)
        banded = ssim3d_map(vol, cfg)
        assert map_bytes(banded) == map_bytes(one_band(monkeypatch, lambda: ssim3d_map(vol, cfg)))
        assert streamed_means(vol.local_statistics(window), cfg) == map_means(banded)

    def test_multiscale_volume_scores_equal_whole_statistics(self, monkeypatch, rng):
        # Level 0 has 2 * BAND + 1 grid rows, level 1 BAND - 2.
        window = WindowSpec("rect", k=7)
        cfg = SsimConfig(bit_depth=10, window=window, multiscale=MultiscaleSpec("product", levels=2, exponents=(0.4, 0.6)))
        shape = (2 * BAND + window.k, 30)
        frames = [[LumaPlane(rng.integers(0, 1024, shape, dtype=np.uint16), 10) for _ in range(2)] for _ in range(4)]
        counted = RollingVolume.local_statistics
        calls = []

        def counting(vol, *args, **kwargs):
            calls.append(None)
            return counted(vol, *args, **kwargs)

        banded, whole = [RollingVolume(3), RollingVolume(3)], [RollingVolume(3), RollingVolume(3)]
        for a, b in frames:
            with monkeypatch.context() as patch:
                patch.setattr(RollingVolume, "local_statistics", counting)
                calls.clear()
                got = scale_scores(a, b, cfg, banded)
                assert len(calls) == 2  # once per level
            want = []
            for level, vol in enumerate(whole):
                if level:
                    a, b = dyadic_downsample(a), dyadic_downsample(b)
                maps = ssim.term_maps_from_stats(vol.push(a, b).local_statistics(window), cfg.c1, cfg.c2)
                want.append(ssim.mssim(maps.q_map if level else maps.cs_map))
            assert got == want

    def test_no_band_reads_samples_to_choose_a_dtype(self, rng):
        # A 10-bit pair and a 10-bit Kt = 3 volume under auto, three bands
        # each: their peak (1023, from the bit depth) picks every
        # accumulator, so no band reads the min or max of a term plane or a
        # running sum, and the scores equal the naive engine's bit for bit.
        shape = (2 * BAND + 20, 40)
        frames = [[LumaPlane(rng.integers(0, 1024, shape, dtype=np.uint16), 10) for _ in range(2)] for _ in range(3)]
        refs, dists = [r for r, _ in frames], [d for _, d in frames]
        auto = SsimConfig(bit_depth=10, window=WindowSpec("rect", k=11))
        naive = SsimConfig(bit_depth=10, window=auto.window, engine="naive")
        score, reads = sample_reads(lambda: ssim.ssim_score(refs[0], dists[0], auto))
        assert reads == [] and score == ssim.ssim_score(refs[0], dists[0], naive)
        series, reads = sample_reads(lambda: ssim3d_series(refs, dists, 3, auto))
        assert reads == [] and series.scores.tobytes() == ssim3d_series(refs, dists, 3, naive).scores.tobytes()

    @pytest.mark.parametrize("frames, kt", [
        (lambda rng: rng.integers(0, 256, (20, 9), dtype=np.uint8), 2),  # uint32 sums
        (lambda rng: rng.integers(0, 65536, (20, 9), dtype=np.uint16), 2),  # int64 sums of unsigned frames
        (lambda rng: rng.integers(0, 2**31, (20, 9), dtype=np.int64), 1),  # int64 sums, window sums past int64
        (lambda rng: rng.uniform(0.0, 255.0, (20, 9)), 2),  # float64 sums: summed-area table bands
    ], ids=["uint8", "uint16", "int64", "float64"])
    def test_volume_statistics_read_no_running_sum(self, rng, frames, kt):
        # A push reads a bare frame's samples for its peak; the statistics
        # of the running sums read none.
        vol = RollingVolume(kt)
        for _ in range(kt):
            vol.push(frames(rng), frames(rng))
        local, reads = sample_reads(lambda: vol.local_statistics(WindowSpec("rect", k=7)).mu1)
        assert local.shape == (14, 3) and reads == []


    def test_16_bit_volume_sample_sums_take_uint32(self, monkeypatch, rng):
        # Kt = 2 keeps 16-bit frames in int64 running sums. Unsigned frames
        # make them non-negative, so the sample planes' window sums
        # (49 * 2 * 65535 < 2^32) take uint32 and only the products int64.
        vol = RollingVolume(2)
        for _ in range(2):
            vol.push(*(LumaPlane(rng.integers(0, 65536, (20, 9), dtype=np.uint16), 16) for _ in range(2)))
        assert vol.temporal_sums()[0].dtype == np.int64
        works = []
        summed = stats.box_sums
        monkeypatch.setattr(stats, "box_sums", lambda *args: works.append(args[3]) or summed(*args))
        vol.local_statistics(WindowSpec("rect", k=7)).mu1
        assert works == [np.uint32, np.uint32, np.int64, np.int64, np.int64]
        assert vol.temporal_sums()[0].dtype == np.int64


class TestStreamedStatistics:
    """Statistics are formed when read: what they read must not change first."""

    def test_bare_int64_pair_past_int64_in_every_band_maps_as_its_statistics(self):
        # Rows 0-99 stay below 10^8, rows 100-149 reach 3e9: the pair's
        # peak, read once, puts every band's product sums past int64, so
        # every band sums them in float64. The map and the statistics take
        # the same bands, so they agree byte for byte.
        rng = np.random.default_rng(150)
        a = np.vstack([rng.integers(0, 10**8, (100, 40)), rng.integers(0, 3 * 10**9, (50, 40), endpoint=True)])
        b = np.clip(a + rng.integers(-10**7, 10**7, a.shape), 0, 3 * 10**9)
        cfg = SsimConfig(window=WindowSpec("rect", k=11))
        whole = ssim.term_maps_from_stats(local_statistics(a, b, cfg.window), cfg.c1, cfg.c2)
        assert map_bytes(ssim.ssim_map(a, b, cfg)) == map_bytes(whole)

    def test_writes_after_the_call_do_not_reach_unread_statistics(self, rng):
        a, b = (rng.integers(0, 256, (BAND + 20, 30)).astype(np.uint8) for _ in range(2))
        window = WindowSpec("rect", k=7)
        want = local_statistics(a.copy(), b.copy(), window).cov.tobytes()
        local = local_statistics(a, b, window)
        a[:] = 0
        b[:] = 255
        assert local.cov.tobytes() == want

    def test_only_writable_arrays_are_copied(self, monkeypatch, rng):
        frame = random_rgb(rng, 20, 30)
        planes = [random_plane(rng, 20, 30).samples, frame.channels[0], rng.integers(0, 256, (20, 30))]
        copied = []
        freeze = stats._freeze

        def counting(arr):
            out = freeze(arr)
            copied.append(out is not arr)
            return out

        monkeypatch.setattr(stats, "_freeze", counting)
        for plane in planes:
            local_statistics(plane, plane, WindowSpec("rect", k=7))
        assert copied == [False, False, False, False, True, True]  # LumaPlanes and ColorFrame channels are read-only

    def test_a_volume_read_after_its_next_push_is_refused(self, rng):
        vol = RollingVolume(2).push(random_plane(rng, 20, 20), random_plane(rng, 20, 20))
        kept = vol.local_statistics(WindowSpec("rect", k=7))
        read = vol.local_statistics(WindowSpec("rect", k=7))
        read.mu1  # formed now, before the push
        vol.push(random_plane(rng, 20, 20), random_plane(rng, 20, 20))
        with pytest.raises(ValidationError, match="before its next push"):
            kept.mu1
        assert read.mu1.shape == (14, 14)  # formed before the push

    @pytest.mark.parametrize("kind", BAND_PLANES)
    def test_carried_column_sums_are_made_for_float_planes_only(self, monkeypatch, kind):
        make, bits = BAND_PLANES[kind]
        rng = np.random.default_rng(3)
        a, b = make(rng, (2 * BAND + 20, 17)), make(rng, (2 * BAND + 20, 17))  # three bands at k=11
        calls = []
        counted = stats._table_sums
        monkeypatch.setattr(stats, "_table_sums", lambda *args: calls.append(args[3]) or counted(*args))
        local_statistics(a, b, WindowSpec("rect", k=11)).mu1
        if kind == "f64":  # five planes in each of three bands, carried rows from the second on
            assert [np.ndim(c) for c in calls] == [0] * 5 + [1] * 10
        else:
            assert calls == []


def rational_terms(refs, dists, k, scale, c1, c2):
    """The exact mu1, mu2, var1, var2, cov, l, cs and q of every k x k x
    len(refs) window, as Fractions from the integer samples of the frames
    ``refs`` and ``dists`` (each sample the sum of ``scale`` signal
    samples): the statistics in signal units and their SSIM, with the float
    constants ``c1`` and ``c2`` read exactly."""
    n, c1, c2 = k * k * len(refs), Fraction(c1), Fraction(c2)
    refs, dists = [x.astype(np.int64) for x in refs], [y.astype(np.int64) for y in dists]
    planes = (sum(refs), sum(dists), sum(x * x for x in refs), sum(y * y for y in dists),
              sum(map(np.multiply, refs, dists)))
    s1, s2, q11, q22, p12 = (uniform_int_sums(t, k) for t in planes)
    out = np.empty((8, *s1.shape), dtype=object)
    for i, j in np.ndindex(s1.shape):
        mu1, mu2 = Fraction(int(s1[i, j]), n * scale), Fraction(int(s2[i, j]), n * scale)
        var1 = Fraction(int(q11[i, j]), n * scale * scale) - mu1 * mu1
        var2 = Fraction(int(q22[i, j]), n * scale * scale) - mu2 * mu2
        cov = Fraction(int(p12[i, j]), n * scale * scale) - mu1 * mu2
        l = (2 * mu1 * mu2 + c1) / (mu1 * mu1 + mu2 * mu2 + c1)
        cs = (2 * cov + c2) / (var1 + var2 + c2)
        out[:, i, j] = mu1, mu2, var1, var2, cov, l, cs, l * cs
    return out


def uniform_int_sums(values, k):
    """Exact k x k window sums of an int64 plane, by the direct loop."""
    gh, gw = values.shape[0] - k + 1, values.shape[1] - k + 1
    return sum(values[m : m + gh, c : c + gw] for m in range(k) for c in range(k))


@st.composite
def exact_route_cases(draw):
    """Frames of a 26x30 patch (8, 10 or 16 bits; near-flat, or a ramp with
    texture, with a distorted copy or its negative), and the route that
    scores them: a frame pair, a kt = 1 or 3 volume, or a 2x box-downsampled
    pair."""
    bits = draw(st.sampled_from([8, 10, 16]))
    route = draw(st.sampled_from(["pair", "kt1", "kt3", "scaled"]))
    engine = draw(st.sampled_from(ENGINES))
    flat, negative = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    peak = (1 << bits) - 1
    size = (52, 60) if route == "scaled" else (26, 30)
    frames = []
    for _ in range(3 if route == "kt3" else 1):
        if flat:
            ref = rng.integers(0, peak - 3, (1, 1)) + rng.integers(0, 3, size)
            dist = ref + rng.integers(0, 2, size)
        else:
            ref = np.linspace(0, peak * 0.6, size[1]) + rng.uniform(0, peak * 0.4, size)
            dist = np.clip(ref + rng.normal(0, peak / 20, size), 0, peak)
        if negative:  # negative covariance: cs numerators below zero
            dist = peak - dist
        dtype = np.uint8 if bits == 8 else np.uint16
        frames.append([LumaPlane(np.round(x).astype(dtype), bits) for x in (ref, dist)])
    return route, engine, frames


def within_ulps(got: np.ndarray, exact: np.ndarray, ulps: int) -> bool:
    return all(
        abs(Fraction(g) - e) <= ulps * Fraction(math.ulp(float(e))) for g, e in zip(got.reshape(-1), exact.reshape(-1))
    )


class TestExactIntegerSsim:
    """Integer window sums give SSIM's numerators and denominators exactly,
    so every route that sums integer samples rounds each once."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(exact_route_cases())
    def test_every_window_is_within_4_ulp_of_the_rational_ssim(self, case):
        route, engine, frames = case
        config = SsimConfig(bit_depth=frames[0][0].bit_depth, engine=engine)
        if route == "scaled":
            frames = [[box_downsample(x, 2) for x in pair] for pair in frames]
        if route in ("kt1", "kt3"):
            vol = RollingVolume(len(frames))
            for a, b in frames:
                vol.push(a, b)
            maps, local = ssim3d_map(vol, config), vol.local_statistics(config.window, engine)
        else:
            maps, local = ssim.ssim_map(*frames[0], config), local_statistics(*frames[0], config.window, engine)
        refs, dists = ([pair[i].samples for pair in frames] for i in (0, 1))
        exact = rational_terms(refs, dists, config.window.k, frames[0][0].scale, config.c1, config.c2)
        for got, want in zip((maps.l_map, maps.cs_map, maps.q_map), exact[5:]):
            assert within_ulps(got.values, want, 4)
        for got, want in zip((local.mu1, local.mu2, local.var1, local.var2, local.cov), exact):
            assert within_ulps(got, want, 1)  # one division of exact integers

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bits, shift", [(8, 17), (10, 300), (16, 40_000)])
    def test_a_shifted_pair_has_equal_variances_and_covariance(self, engine, bits, shift):
        rng = np.random.default_rng(bits)
        dtype = np.uint8 if bits == 8 else np.uint16
        a = rng.integers(0, (1 << bits) - shift, (BAND + 20, 33)).astype(dtype)
        ref, dist = LumaPlane(a, bits), LumaPlane(a + dtype(shift), bits)
        config = SsimConfig(bit_depth=bits, window=WindowSpec("rect", k=11), engine=engine)
        local = local_statistics(ref, dist, config.window, engine)
        assert local.var1.tobytes() == local.var2.tobytes() == local.cov.tobytes()
        assert (ssim.ssim_map(ref, dist, config).cs_map.values == 1.0).all()
        vol = RollingVolume(3)
        for _ in range(3):
            vol.push(ref, dist)
        assert (ssim3d_map(vol, config).cs_map.values == 1.0).all()

    @pytest.mark.parametrize("kind", ["u8", "u10", "f64", "kt3"])
    def test_reading_the_statistics_first_changes_no_bit(self, monkeypatch, kind):
        make, bits = BAND_PLANES["u10" if kind == "kt3" else kind]
        rng = np.random.default_rng(list(kind.encode()))
        frames = [[LumaPlane(make(rng, (2 * BAND + 15, 40)), bits) for _ in range(2)] for _ in range(4)]
        config = SsimConfig(bit_depth=bits)
        read = pipeline._statistics

        def read_first(*args):
            local = read(*args)
            assert local.mu1.size  # as a tracer counting windows does
            return local

        got = {}
        for first in (False, True):
            volumes = [RollingVolume(3)] if kind == "kt3" else None
            with monkeypatch.context() as patch:
                if first:
                    patch.setattr(pipeline, "_statistics", read_first)
                records = [score_frame_pair(a, b, config, volumes) for a, b in frames]
            volume = RollingVolume(3) if kind == "kt3" else None
            means = []
            for a, b in frames:
                local = ssim._statistics(a, b, config, volume)
                if first:
                    assert local.mu1.size
                means.append(ssim._term_mean(local, config, 3).hex())
            got[first] = [(r.score.hex(), r.am.hex(), r.l_mean.hex(), r.cs_mean.hex()) for r in records], means
        assert got[True] == got[False]
