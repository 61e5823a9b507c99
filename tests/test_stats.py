import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit.config import WindowSpec
from ssimkit.errors import (
    EngineShapeMismatch,
    NonPositiveSigma,
    ValidationError,
    WindowLargerThanImage,
)
from ssimkit.frames import LumaPlane
from ssimkit.stats import (
    _exact_sum_dtype,
    _pair_terms,
    _sat,
    _sliding_weighted_sums,
    _window_sums,
    box_sums,
    gaussian_kernel,
    local_statistics,
    rect_equivalent,
)

from conftest import random_plane


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

    def test_separable(self):
        kern = gaussian_kernel(2.0, 13)
        row = kern[6] / kern[6].sum()
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


def uniform_sums(values, k, stride):
    """Direct k x k window sums: the naive engine's rect route."""
    return _sliding_weighted_sums(values, np.ones((k, k)), stride)


def float_terms(a, b):
    """The five float64 planes I1, I2, I1^2, I2^2, I1*I2 of a frame pair."""
    return list(_pair_terms(a.samples, b.samples, integer=False))


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
        assert _window_sums(float_terms(a, a)[:1], 2, 1, integer=False)[0].tolist() == [[10.0]]

    def test_single_sample_window(self, rng):
        a = random_plane(rng, 5, 5)
        sums = _window_sums(float_terms(a, a)[:1], 1, 1, integer=False)[0]
        assert np.array_equal(sums, a.samples)

    def test_matches_direct_loop(self, rng):
        a, b = random_plane(rng, 16, 16), random_plane(rng, 16, 16)
        sums = _window_sums(float_terms(a, b)[4:], 5, 1, integer=False)[0]
        prod = a.samples.astype(np.int64) * b.samples.astype(np.int64)
        assert sums.shape == (12, 12)
        for i in range(12):
            for j in range(12):
                assert sums[i, j] == prod[i : i + 5, j : j + 5].sum()


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


class TestBoxSums:
    @settings(max_examples=150, deadline=None)
    @given(integer_planes())
    def test_equals_direct_sums_exactly(self, case):
        plane, k, stride = case
        for values in (plane, plane.astype(np.uint32) ** 2):
            expected = uniform_sums(values, k, stride)
            assert np.array_equal(box_sums(values, k, stride), expected)
            out = box_sums(values, k, stride, np.empty(expected.shape))
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
            sums = box_sums(values, k, 1)
            assert sums.dtype == work
            assert np.array_equal(sums, uniform_sums(values, k, 1))
        assert (work is np.uint32) == (k * k * peak * peak < 2**32)

    def test_float64_past_int64(self):
        values = np.full((4, 5), 2**61, dtype=np.int64)
        values[1, 2] = 2**61 + 12345
        sums = box_sums(values, 3, 1)
        assert sums.dtype == np.float64
        expected = uniform_sums(values.astype(np.float64), 3, 1)
        np.testing.assert_allclose(sums, expected, rtol=1e-14, atol=0)

    def test_signed_input_uses_int64(self):
        values = np.array([[-3, 4, 5], [6, -7, 8]], dtype=np.int16)
        sums = box_sums(values, 2, 1)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, [[0, 10]])

    @settings(max_examples=60, deadline=None)
    @given(integer_planes(), st.integers(0, 2**32 - 1))
    def test_integer_statistics_equal_naive_bit_for_bit(self, case, seed):
        plane, k, stride = case
        rng = np.random.default_rng(seed)
        other = rng.integers(0, int(plane.max()) + 1, plane.shape).astype(plane.dtype)
        window = WindowSpec.rectangular(k, stride=stride)
        fast = local_statistics(plane, other, window, "integral")
        slow = local_statistics(plane, other, window, "naive")
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))


class TestExactSumDtype:
    @pytest.mark.parametrize("dtype,count,work", [
        (np.uint8, 4104**2, np.uint32), (np.uint8, 4105**2, np.int64),
        (np.uint16, 256**2, np.uint32), (np.uint16, 257**2, np.int64),
        (np.int16, 4, np.int64), (np.float32, 4, np.float64), (np.float64, 1, np.float64),
    ])
    def test_dtype_range_decides_up_to_16_bits(self, dtype, count, work):
        assert _exact_sum_dtype(np.zeros((2, 2), dtype=dtype), count) is work

    def test_wider_dtypes_read_the_samples(self):
        small = np.array([[0, 255]], dtype=np.uint32)
        assert _exact_sum_dtype(small, 64) is np.uint32
        assert _exact_sum_dtype(small - np.int64(1), 64) is np.int64
        assert _exact_sum_dtype(np.array([[2**40]], dtype=np.uint64), 2**22) is np.int64
        assert _exact_sum_dtype(np.array([[2**40]], dtype=np.uint64), 2**23) is np.float64
        assert _exact_sum_dtype(np.array([[-(2**40)]], dtype=np.int64), 2**23) is np.float64

    def test_products_raise_the_sample_peak_to_the_degree(self):
        plane = np.zeros((2, 2), dtype=np.uint8)
        assert _exact_sum_dtype(plane, 257**2, degree=2) is np.uint32
        assert _exact_sum_dtype(plane, 258**2, degree=2) is np.int64
        wide = np.array([[2**31]], dtype=np.uint32)
        assert _exact_sum_dtype(wide, 1, degree=2) is np.int64
        assert _exact_sum_dtype(wide, 2, degree=2) is np.float64


class TestWideIntegerStatistics:
    @pytest.mark.parametrize("dtype,peak", [
        (np.uint32, 2**32 - 1), (np.int64, 2**40), (np.uint64, 2**40), (np.int64, -(2**40)),
    ])
    def test_integral_matches_naive_when_products_could_wrap(self, rng, dtype, peak):
        lo, hi = sorted((0, peak))
        a = rng.integers(lo, hi, (20, 23), endpoint=True).astype(dtype)
        b = rng.integers(lo, hi, (20, 23), endpoint=True).astype(dtype)
        window = WindowSpec.rectangular(7)
        fast = local_statistics(a, b, window, "integral")
        slow = local_statistics(a, b, window, "naive")
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            np.testing.assert_allclose(getattr(fast, name), getattr(slow, name), rtol=1e-9, atol=0)

    def test_wide_pair_within_the_bound_stays_exact(self, rng):
        # 49 * (2^20)^2 < 2^63: the exact route holds, bit for bit.
        a = rng.integers(0, 2**20, (12, 13)).astype(np.uint32)
        b = rng.integers(0, 2**20, (12, 13)).astype(np.uint32)
        window = WindowSpec.rectangular(7)
        fast = local_statistics(a, b, window, "integral")
        slow = local_statistics(a, b, window, "naive")
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))


class TestLocalStatistics:
    def test_constant_pair(self):
        a = LumaPlane(np.full((16, 16), 100, dtype=np.uint8))
        b = LumaPlane(np.full((16, 16), 110, dtype=np.uint8))
        for engine in ("naive", "integral"):
            stats = local_statistics(a, b, WindowSpec.rectangular(5), engine)
            assert np.allclose(stats.mu1, 100.0, atol=1e-10)
            assert np.allclose(stats.mu2, 110.0, atol=1e-10)
            assert np.all(stats.var1 == 0.0)
            assert np.all(stats.var2 == 0.0)
            assert np.allclose(stats.cov, 0.0, atol=1e-9)

    def test_self_statistics(self, rng):
        a = random_plane(rng, 20, 20)
        stats = local_statistics(a, a, WindowSpec.rectangular(7), "integral")
        assert np.array_equal(stats.var1, stats.var2)
        assert np.allclose(stats.var1, stats.cov, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 8, 11, 16])
    def test_integral_equals_naive(self, rng, k):
        for _ in range(4):
            h = int(rng.integers(k, 65))
            w = int(rng.integers(k, 65))
            a, b = random_plane(rng, h, w), random_plane(rng, h, w)
            window = WindowSpec.rectangular(k)
            fast = local_statistics(a, b, window, "integral")
            slow = local_statistics(a, b, window, "naive")
            for name in ("mu1", "mu2", "var1", "var2", "cov"):
                x, y = getattr(fast, name), getattr(slow, name)
                assert np.allclose(x, y, rtol=1e-8, atol=1e-8)

    def test_matches_brute_force_windows(self, rng):
        a, b = random_plane(rng, 12, 14), random_plane(rng, 12, 14)
        k = 4
        weights = np.full((k, k), 1.0 / (k * k))
        stats = local_statistics(a, b, WindowSpec.rectangular(k), "integral")
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
        window = WindowSpec.gaussian(1.0, k=7)
        weights = gaussian_kernel(1.0, 7)
        stats = local_statistics(a, b, window, "naive")
        for i in range(0, stats.grid_shape[0], 3):
            for j in range(0, stats.grid_shape[1], 3):
                mu1, _, var1, _, cov = brute_force_local_stats(a.samples, b.samples, weights, i, j)
                assert stats.mu1[i, j] == pytest.approx(mu1, abs=1e-9)
                assert stats.var1[i, j] == pytest.approx(max(var1, 0.0), abs=1e-7)
                assert stats.cov[i, j] == pytest.approx(cov, abs=1e-7)

    @pytest.mark.parametrize("engine,window", [
        ("integral", WindowSpec.rectangular(11, stride=5)),
        ("naive", WindowSpec.rectangular(11, stride=3)),
        ("naive", WindowSpec.gaussian(1.5, stride=4)),
    ])
    def test_stride_equals_subsampled_stride_one(self, rng, engine, window):
        a, b = random_plane(rng, 48, 40), random_plane(rng, 48, 40)
        s = window.stride
        strided = local_statistics(a, b, window, engine)
        dense = local_statistics(a, b, window.with_stride(1), engine)
        for name in ("mu1", "mu2", "var1", "var2", "cov"):
            assert np.array_equal(getattr(strided, name), getattr(dense, name)[::s, ::s])

    def test_grid_shape_formula(self, rng):
        a, b = random_plane(rng, 37, 23), random_plane(rng, 37, 23)
        for k, s in [(5, 1), (5, 3), (8, 4), (11, 5)]:
            stats = local_statistics(a, b, WindowSpec.rectangular(k, stride=s), "integral")
            expected = ((37 - k) // s + 1, (23 - k) // s + 1)
            assert stats.grid_shape == expected

    def test_cauchy_schwarz(self, rng):
        eps = 1e-6 * 255.0**2
        for _ in range(20):
            a, b = random_plane(rng, 24, 24), random_plane(rng, 24, 24)
            stats = local_statistics(a, b, WindowSpec.rectangular(7), "integral")
            bound = np.sqrt(stats.var1 * stats.var2) + eps
            assert np.all(np.abs(stats.cov) <= bound)

    def test_delta_kernel_reproduces_input(self, rng):
        # sigma small enough that off-center weights underflow to exactly 0
        a, b = random_plane(rng, 12, 12), random_plane(rng, 12, 12)
        window = WindowSpec.gaussian(0.01)
        assert window.k == 3
        stats = local_statistics(a, b, window, "naive")
        assert np.array_equal(stats.mu1, a.samples[1:-1, 1:-1].astype(float))
        assert np.array_equal(stats.mu2, b.samples[1:-1, 1:-1].astype(float))

    def test_engine_shape_mismatch(self, rng):
        a = random_plane(rng, 16, 16)
        with pytest.raises(EngineShapeMismatch):
            local_statistics(a, a, WindowSpec.gaussian(1.5), "integral")

    def test_window_larger_than_image(self, rng):
        a = random_plane(rng, 8, 8)
        with pytest.raises(WindowLargerThanImage):
            local_statistics(a, a, WindowSpec.rectangular(11), "integral")

    def test_variances_never_negative(self, rng):
        for _ in range(10):
            a, b = random_plane(rng, 16, 16), random_plane(rng, 16, 16)
            stats = local_statistics(a, b, WindowSpec.rectangular(3), "integral")
            assert stats.var1.min() >= 0.0
            assert stats.var2.min() >= 0.0
