import json

import numpy as np
import pytest

from ssimkit.adaptation import policy_factor
from ssimkit.config import (
    ColorModelSpec,
    MultiscaleSpec,
    ScalePolicy,
    SsimConfig,
    WindowSpec,
    parse_color,
    parse_multiscale,
    parse_scale,
    parse_window,
)
from ssimkit.errors import (
    BitDepthMismatch,
    DegenerateWeights,
    DimensionMismatch,
    NonPositiveSigma,
    ScaleMismatch,
    ValidationError,
)
from ssimkit.frames import (
    ColorFrame,
    LumaPlane,
    QualityMap,
    ScoreSeries,
    validate_frame_pair,
)
from ssimkit.pipeline import score_frame_pair
from ssimkit.stats import local_statistics

from helpers import random_plane


class TestLumaPlane:
    def test_basic_properties(self, rng):
        plane = random_plane(rng, 24, 48)
        assert (plane.height, plane.width) == (24, 48)
        assert plane.peak == 255.0
        assert plane.as_float().dtype == np.float64

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            LumaPlane(np.zeros(16, dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            LumaPlane(np.full((4, 4), 300.0), bit_depth=8)
        with pytest.raises(ValidationError):
            LumaPlane(np.full((4, 4), -1.0), bit_depth=8)

    @pytest.mark.parametrize("scale", [0, -4, 2.0, True, np.int64(4), None])
    def test_rejects_a_scale_that_is_not_a_positive_int(self, scale):
        with pytest.raises(ValidationError, match="scale"):
            LumaPlane(np.zeros((4, 4), dtype=np.uint16), 8, scale)

    def test_scaled_samples_are_bounded_by_scale_times_peak(self):
        sums = np.full((4, 4), 4 * 255, dtype=np.uint16)
        plane = LumaPlane(sums, 8, 4)
        assert plane.peak == 255.0 and plane.scale == 4
        assert plane.as_float().tobytes() == np.full((4, 4), 255.0).tobytes()
        with pytest.raises(ValidationError, match="scale 4"):
            LumaPlane(sums + 1, 8, 4)
        with pytest.raises(ValidationError):
            LumaPlane(sums, 8, 3)
        with pytest.raises(ValidationError):
            LumaPlane(np.full((4, 4), 4 * 255 + 0.5), 8, 4)

    def test_rejects_bad_bit_depth(self):
        with pytest.raises(ValidationError):
            LumaPlane(np.zeros((4, 4), dtype=np.uint8), bit_depth=7)

    def test_ten_bit_range(self):
        plane = LumaPlane(np.full((4, 4), 1023, dtype=np.uint16), bit_depth=10)
        assert plane.peak == 1023.0
        with pytest.raises(ValidationError):
            LumaPlane(np.full((4, 4), 1024, dtype=np.uint16), bit_depth=10)

    @pytest.mark.parametrize("dtype, bit_depth", [
        (np.uint8, 8), (np.uint8, 12), (np.uint16, 16),
    ])
    def test_dtype_within_range_accepts_every_sample(self, dtype, bit_depth):
        full = np.iinfo(dtype).max
        plane = LumaPlane(np.array([[0, full]], dtype=dtype), bit_depth)
        assert plane.samples.max() == full

    @pytest.mark.parametrize("samples, bit_depth", [
        (np.array([[0, -1]], dtype=np.int8), 8),
        (np.array([[0, 1024]], dtype=np.uint16), 10),
        (np.array([[0, 256]], dtype=np.int16), 8),
        (np.array([[0, 70000]], dtype=np.int64), 16),
    ])
    def test_dtype_wider_than_range_is_scanned(self, samples, bit_depth):
        with pytest.raises(ValidationError, match="samples outside"):
            LumaPlane(samples, bit_depth)

    def test_immutable(self, rng):
        plane = random_plane(rng)
        with pytest.raises(ValueError):
            plane.samples[0, 0] = 1


class TestColorFrame:
    def test_420_chroma_dims(self):
        y = np.zeros((5, 5), dtype=np.uint8)
        c = np.zeros((3, 3), dtype=np.uint8)  # ceil(5/2) = 3
        frame = ColorFrame((y, c, c), "ycbcr-bt709", "420")
        assert frame.height == frame.width == 5

    def test_420_rejects_wrong_chroma_dims(self):
        y = np.zeros((6, 6), dtype=np.uint8)
        c = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ValidationError):
            ColorFrame((y, c, c), "ycbcr-bt709", "420")

    def test_444_needs_matching_dims(self):
        y = np.zeros((4, 4), dtype=np.uint8)
        c = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ValidationError):
            ColorFrame((y, c, c), "rgb", "444")

    def test_unknown_space_rejected(self):
        y = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValidationError):
            ColorFrame((y, y, y), "cmyk")

    def test_rgb_is_444(self):
        # Every colour scorer and conversion reads RGB channels co-sited.
        y = np.zeros((6, 6), dtype=np.uint8)
        c = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ValidationError, match="4:4:4"):
            ColorFrame((y, c, c), "rgb", "420")


#: Sample grids of dtypes that are neither integer nor float.
NOT_NUMERIC = {
    "str": np.full((16, 16), "1"),
    "complex": np.ones((16, 16), complex),
    "bool": np.ones((16, 16), bool),
    "object": np.ones((16, 16), object),
}


class TestNumericGrids:
    """One rule for every plane: integer or float samples, judged by dtype."""

    @pytest.mark.parametrize("kind", sorted(NOT_NUMERIC))
    def test_bare_arrays_are_rejected(self, kind):
        grid = NOT_NUMERIC[kind]
        with pytest.raises(ValidationError, match="dtype"):
            local_statistics(grid, grid, WindowSpec.rectangular(3))

    @pytest.mark.parametrize("kind", sorted(NOT_NUMERIC))
    def test_colour_channels_are_rejected(self, kind):
        with pytest.raises(ValidationError, match="dtype"):
            ColorFrame((np.zeros((16, 16), np.uint8), np.zeros((16, 16), np.uint8), NOT_NUMERIC[kind]))

    @pytest.mark.parametrize("ref, dist", [
        (np.ones((20, 20)), np.ones((20, 20))),
        (LumaPlane(np.ones((20, 20), np.uint8)), np.ones((20, 20), np.uint8)),
    ], ids=["arrays", "plane and array"])
    def test_a_frame_pair_is_two_planes_or_two_colour_frames(self, ref, dist):
        with pytest.raises(ValidationError, match="two LumaPlanes or two ColorFrames"):
            score_frame_pair(ref, dist, SsimConfig())


class TestValidateFramePair:
    def test_matching_pair_passes(self, rng):
        a, b = random_plane(rng, 64, 64), random_plane(rng, 64, 64)
        assert validate_frame_pair(a, b) == (a, b)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            validate_frame_pair(random_plane(rng, 64, 64), random_plane(rng, 48, 64))

    def test_bit_depth_mismatch(self, rng):
        a = random_plane(rng, 8, 8, 8)
        b = LumaPlane(a.samples.astype(np.uint16), 10)
        with pytest.raises(BitDepthMismatch):
            validate_frame_pair(a, b)

    def test_scale_mismatch(self, rng):
        a = random_plane(rng, 8, 8)
        sums = LumaPlane(a.samples.astype(np.uint16) * 4, 8, 4)
        assert validate_frame_pair(sums, sums) == (sums, sums)
        for pair in ((a, sums), (sums, a), (sums, a.samples), (a.samples, sums)):
            with pytest.raises(ScaleMismatch):
                validate_frame_pair(*pair)


class TestQualityMapAndSeries:
    def test_map_rejects_empty_and_nan(self):
        with pytest.raises(ValidationError):
            QualityMap(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            QualityMap(np.array([[np.nan]]))

    def test_map_grid_metadata(self):
        qm = QualityMap(np.ones((3, 4)), stride=2, source_dims=(10, 12))
        assert qm.shape == (3, 4)
        assert qm.stride == 2
        assert qm.mean() == 1.0

    def test_series_rejects_nan(self):
        with pytest.raises(ValidationError):
            ScoreSeries(np.array([0.5, np.nan]))

    def test_series_length(self):
        assert len(ScoreSeries(np.array([1.0, 0.5, 0.25]))) == 3


class TestSsimConfig:
    def test_constants_derived_from_bit_depth(self):
        cfg = SsimConfig()
        assert cfg.peak == 255.0
        assert cfg.c1 == pytest.approx((0.01 * 255) ** 2)
        assert cfg.c2 == pytest.approx((0.03 * 255) ** 2)
        assert cfg.c3 == cfg.c2 / 2.0
        ten = cfg.for_bit_depth(10)
        assert ten.c1 == pytest.approx((0.01 * 1023) ** 2)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValidationError):
            SsimConfig(k1=0.0)
        with pytest.raises(ValidationError):
            SsimConfig(k2=-0.03)

    @pytest.mark.parametrize("settings", [{"spatial_pool": "nope"}, {"spatial_pool": 3}, {"temporal_pool": None}],
                             ids=["unknown", "int", "none"])
    def test_rejects_bad_pool_selector(self, settings):
        with pytest.raises(ValidationError):
            SsimConfig(**settings)

    @pytest.mark.parametrize(
        "config",
        [
            SsimConfig(),
            SsimConfig(
                k1=0.02,
                k2=0.05,
                bit_depth=10,
                window=WindowSpec.gaussian(1.5),
                engine="naive",
                scaling=ScalePolicy.sast(distance=1000.0),
                color=ColorModelSpec("cw", alpha=-0.3, beta=-0.3),
                spatial_pool="md:p=2,o=3",
                temporal_pool="pp:ps=6,rs=4000",
                multiscale=MultiscaleSpec.product(4),
            ),
            SsimConfig(
                window=WindowSpec.rectangular(8, stride=4),
                scaling=ScalePolicy.enhanced_dh(3.0),
                color=ColorModelSpec("fixed", weights=(0.8, 0.1, 0.1)),
                multiscale=MultiscaleSpec.fast4(),
            ),
        ],
    )
    def test_round_trips_bit_exactly(self, config):
        assert SsimConfig.from_json(config.to_json()) == config
        assert SsimConfig.from_json(config.to_json()).to_json() == config.to_json()

    @pytest.mark.parametrize("text", [
        "{}",
        SsimConfig().to_json()[:-1] + ', "extra": 1}',
        SsimConfig().to_json().replace('"k": 11', '"k": 11, "size": 3'),
        SsimConfig().to_json().replace('"k1": 0.01', '"k1": "big"'),
        SsimConfig().to_json().replace('"window": {"k": 11, "shape": "rect", "sigma": null, "stride": 1}', '"window": 11'),
        SsimConfig().to_json().replace('"spatial_pool": "am"', '"spatial_pool": 3'),
        SsimConfig().to_json().replace('"temporal_pool": "am"', '"temporal_pool": null'),
        SsimConfig().to_json().replace('"k1": 0.01', '"k1": 1' + "0" * 400),
        "[1, 2]",
        "not json",
        SsimConfig().to_json()[:-1],
    ])
    def test_malformed_json_is_a_validation_error(self, text):
        with pytest.raises(ValidationError):
            SsimConfig.from_json(text)


class TestSpecValidation:
    def test_window_spec_gaussian_defaults(self):
        spec = WindowSpec.gaussian(1.5)
        assert spec.k == 11
        with pytest.raises(NonPositiveSigma):
            WindowSpec.gaussian(0.0)
        with pytest.raises(ValidationError):
            WindowSpec.gaussian(1.5, k=10)  # even size
        with pytest.raises(ValidationError):
            WindowSpec.rectangular(11, stride=0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_gaussian_window_with_its_size_given_still_checks_sigma(self, sigma):
        with pytest.raises(NonPositiveSigma):
            WindowSpec("gauss", 11, sigma)

    def test_rect_even_size_allowed(self):
        assert WindowSpec.rectangular(8, stride=4).k == 8

    def test_multiscale_spec_validation(self):
        with pytest.raises(ValidationError):
            MultiscaleSpec("product", 3, (0.5, 0.5))  # exponent count mismatch
        with pytest.raises(ValidationError):
            MultiscaleSpec("product", 2, (0.5, -0.5))
        with pytest.raises(ValidationError):
            MultiscaleSpec("fast4", 5)
        renorm = MultiscaleSpec.fast4().effective_exponents()
        assert sum(renorm) == pytest.approx(1.0)

    def test_channelwise_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            ColorModelSpec("cw", alpha=-0.5, beta=-0.5)

    def test_fixed_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ColorModelSpec("fixed", weights=(0.5, 0.2, 0.2))


class TestSelectorGrammar:
    def test_windows(self):
        assert parse_window("rect:11") == WindowSpec.rectangular(11)
        assert parse_window("rect:8,stride=4") == WindowSpec.rectangular(8, stride=4)
        assert parse_window("gauss:1.5") == WindowSpec.gaussian(1.5)
        assert parse_window("gauss:1.5,k=13") == WindowSpec.gaussian(1.5, k=13)
        with pytest.raises(ValidationError):
            parse_window("hex:5")

    def test_scales(self):
        assert parse_scale("none").kind == "none"
        assert parse_scale("legacy").kind == "legacy"
        assert parse_scale("legacy:ceil").rounding == "ceil"
        sast = parse_scale("sast:D=3000")
        assert (sast.kind, sast.distance) == ("sast", 3000.0)
        assert parse_scale("dh:6.0").d_over_h == 6.0
        with pytest.raises(ValidationError):
            parse_scale("sast")  # missing distance

    def test_colors(self):
        assert parse_color("luma").model == "luma"
        cw = parse_color("cw:a=-0.3,b=-0.2")
        assert (cw.alpha, cw.beta) == (-0.3, -0.2)
        fixed = parse_color("fixed:0.8,0.1,0.1")
        assert fixed.weights == (0.8, 0.1, 0.1)
        assert parse_color("qssim:ycbcr").space == "ycbcr"
        assert parse_color("cmssim").model == "cmssim"

    def test_multiscale(self):
        assert not parse_multiscale("off").enabled
        assert parse_multiscale("product").levels == 5
        assert parse_multiscale("product:levels=3").levels == 3
        assert parse_multiscale("fast4").levels == 4

    @pytest.mark.parametrize("parse, text", [
        (parse_multiscale, "fast4:levels=9"),
        (parse_multiscale, "off:2"),
        (parse_multiscale, "product:3,levels=4"),
        (parse_scale, "sast:D=3000,theta=10"),
        (parse_scale, "none:7"),
        (parse_scale, "dh:3,4"),
        (parse_color, "qssim:lab,foo"),
        (parse_color, "cw:a=0.1,c=2"),
        (parse_color, "hssim:a=1"),
        (parse_color, "fixed:0.8,0.1,0.1,w=1"),
        (parse_window, "rect:11,stride=2,stride=3"),
    ])
    def test_unknown_options_and_extra_values_rejected(self, parse, text):
        with pytest.raises(ValidationError):
            parse(text)

    def test_selector_round_trip(self):
        for text in ["rect:11", "rect:8,stride=4", "gauss:1.5,k=11"]:
            spec = parse_window(text)
            assert parse_window(spec.selector()) == spec
        for text in ["none", "legacy", "sast:D=3000", "dh:3.0"]:
            policy = parse_scale(text)
            assert parse_scale(policy.selector()) == policy


class TestEverySettingIsRead:
    """A field its kind does not read is rejected, not ignored, and each
    setting has one default."""

    @pytest.mark.parametrize("part, cls, settings", [
        ("color", ColorModelSpec, dict(model="cmssim", alpha=2.0)),
        ("scaling", ScalePolicy, dict(kind="none", d_over_h=5.0)),
        ("scaling", ScalePolicy, dict(kind="sast", distance=3000.0, rounding="ceil")),
        ("multiscale", MultiscaleSpec, dict(aggregation="off", levels=3, exponents=(1.0, 1.0, 1.0))),
    ])
    def test_unread_settings_are_rejected_directly_and_from_json(self, part, cls, settings):
        with pytest.raises(ValidationError):
            cls(**settings)
        config = json.loads(SsimConfig().to_json())
        config[part].update(settings)
        with pytest.raises(ValidationError):
            SsimConfig.from_json(json.dumps(config))

    def test_dh_rounding_round_trips_through_its_selector(self):
        policy = ScalePolicy("dh", d_over_h=2.0, rounding="ceil")
        assert policy_factor(policy, 1920, 1080) == 7
        assert parse_scale(policy.selector()) == policy
        assert parse_scale("dh:2,rounding=ceil") == policy
