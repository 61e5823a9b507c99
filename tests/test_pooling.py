import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit.errors import (
    EmptyMap,
    EmptySeries,
    MissingLumaForLW,
    ValidationError,
    ZeroMeanCoV,
)
from ssimkit.pooling import (
    SpatialPooler,
    TemporalPooler,
    parse_spatial,
    parse_temporal,
    pool_spatial,
    pool_temporal,
)


class TestConstantMap:
    @pytest.mark.parametrize("c", [0.3, 0.9])
    def test_degenerate_spread(self, c):
        v = np.full((5, 5), c)
        assert pool_spatial(v, "am") == pytest.approx(c)
        assert pool_spatial(v, "cov") == 0.0
        assert pool_spatial(v, "md:p=2,o=1") == 0.0
        assert pool_spatial(v, "md:p=3,o=2") == 0.0
        assert pool_spatial(v, "fns") == pytest.approx(c)
        assert pool_spatial(v, "dw:p=1") == pytest.approx(c)
        assert pool_spatial(v, "dw:p=4") == pytest.approx(c)
        assert pool_spatial(v, "mink:p=2") == pytest.approx((1 - c) ** 2)

    def test_dw_all_ones_uniform_fallback(self):
        assert pool_spatial(np.ones((4, 4)), "dw:p=2") == 1.0


class TestSpatialFormulas:
    def test_fns_symmetric_five_point_map(self):
        # linear-interpolation quantiles: (0 + 0.25 + 0.5 + 0.75 + 1) / 5
        v = np.array([[0.0, 0.25, 0.5, 0.75, 1.0]])
        assert pool_spatial(v, "fns") == pytest.approx(0.5, abs=1e-15)

    def test_pp_reweighting_rule(self):
        # lowest half divided by 2: mean(0.25, 1.0)
        v = np.array([[0.5, 1.0]])
        assert pool_spatial(v, "pp:ps=50,rs=2") == pytest.approx(0.625, abs=1e-15)

    def test_pp_identities(self, rng):
        v = rng.uniform(0.2, 1.0, (10, 10))
        am = v.mean()
        assert pool_spatial(v, "pp:ps=6,rs=1") == am
        assert pool_spatial(v, "pp:ps=0,rs=4000") == am
        assert pool_spatial(v, "pp:ps=6,rs=4000") < am

    def test_dw_brute_force(self, rng):
        v = rng.uniform(-0.2, 1.0, 100)
        w = (1.0 - v) ** 1
        expected = (w * v).sum() / w.sum()
        assert pool_spatial(v.reshape(10, 10), "dw:p=1") == pytest.approx(expected, abs=1e-12)

    def test_mink_identity(self, rng):
        v = rng.uniform(0.0, 1.0, (8, 8))
        assert pool_spatial(v, "mink:p=1") == pytest.approx(1.0 - v.mean(), abs=1e-12)

    def test_md_2_1_is_population_std(self, rng):
        v = rng.uniform(0.0, 1.0, (12, 12))
        mu = v.mean()
        two_pass = np.sqrt(((v - mu) ** 2).sum() / v.size)
        assert pool_spatial(v, "md:p=2,o=1") == pytest.approx(two_pass, abs=1e-9)

    def test_cov_definition(self, rng):
        v = rng.uniform(0.5, 1.0, (9, 9))
        assert pool_spatial(v, "cov") == pytest.approx(v.std() / v.mean(), abs=1e-12)

    def test_cov_zero_mean_rejected(self):
        v = np.array([[1.0, -1.0]])
        with pytest.raises(ZeroMeanCoV):
            pool_spatial(v, "cov")

    def test_lw_weighting(self, rng):
        v = rng.uniform(0.0, 1.0, (6, 6))
        mu = rng.uniform(0.0, 255.0, (6, 6))
        a, b = 50.0, 100.0
        w = np.clip((mu - a) / b, 0.0, 1.0)
        expected = (w * v).mean()
        assert pool_spatial(v, "lw:a=50,b=100", ref_luma=mu) == pytest.approx(expected, abs=1e-12)

    def test_lw_zero_params_is_am(self, rng):
        v = rng.uniform(0.0, 1.0, (6, 6))
        mu = rng.uniform(0.0, 255.0, (6, 6))
        assert pool_spatial(v, "lw:a=0,b=0", ref_luma=mu) == v.mean()

    def test_lw_needs_luma(self, rng):
        with pytest.raises(MissingLumaForLW):
            pool_spatial(np.ones((4, 4)), "lw:a=0,b=0")
        with pytest.raises(MissingLumaForLW):
            pool_spatial(np.ones((4, 4)), "lw:a=0,b=0", ref_luma=np.ones((3, 3)))

    def test_empty_map(self):
        with pytest.raises(EmptyMap):
            pool_spatial(np.zeros((0, 2)), "am")


class TestTemporal:
    def test_constant_series(self):
        s = np.full(7, 0.8)
        for sel in ("am", "gm", "hm", "median"):
            assert pool_temporal(s, sel) == pytest.approx(0.8, abs=1e-12)
        assert pool_temporal(s, "cov") == pytest.approx(0.0, abs=1e-12)

    def test_pythagorean_example(self):
        s = np.array([0.25, 1.0])
        assert pool_temporal(s, "am") == 0.625
        assert pool_temporal(s, "gm") == pytest.approx(0.5, abs=1e-12)
        assert pool_temporal(s, "hm") == pytest.approx(0.4, abs=1e-12)

    def test_pythagorean_ordering(self, rng):
        for _ in range(25):
            s = rng.uniform(0.05, 1.0, int(rng.integers(3, 60)))
            hm = pool_temporal(s, "hm")
            gm = pool_temporal(s, "gm")
            am = pool_temporal(s, "am")
            assert hm <= gm <= am

    def test_windowed_am_brute_force(self, rng):
        s = rng.uniform(0.2, 1.0, 10)
        expected = np.mean([s[i : i + 3].mean() for i in range(8)])
        assert pool_temporal(s, "wam:k=3") == pytest.approx(expected, abs=1e-12)

    def test_windowed_cov_brute_force(self, rng):
        s = rng.uniform(0.2, 1.0, 12)
        expected = np.mean([s[i : i + 4].std() / s[i : i + 4].mean() for i in range(9)])
        assert pool_temporal(s, "wcov:k=4") == pytest.approx(expected, abs=1e-12)

    def test_windowed_collapses(self, rng):
        s = rng.uniform(0.2, 1.0, 9)
        assert pool_temporal(s, "wam:k=1") == pytest.approx(pool_temporal(s, "am"), abs=1e-12)
        assert pool_temporal(s, "wam:k=9") == pool_temporal(s, "am")
        assert pool_temporal(s, "wam:k=50") == pool_temporal(s, "am")  # short series
        assert pool_temporal(s, "wgm:k=9") == pool_temporal(s, "gm")
        assert pool_temporal(s, "whm:k=9") == pool_temporal(s, "hm")

    def test_gm_hm_clamp_nonpositive(self):
        s = np.array([0.0, 0.5])
        assert pool_temporal(s, "gm") > 0.0
        assert pool_temporal(s, "hm") > 0.0

    def test_temporal_md_fns_dw_match_spatial(self, rng):
        s = rng.uniform(0.0, 1.0, 40)
        grid = s.reshape(5, 8)
        for sel in ("md:p=2,o=3", "fns", "dw:p=2", "mink:p=4", "pp:ps=10,rs=3"):
            assert pool_temporal(s, sel) == pool_spatial(grid, sel)

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            pool_temporal(np.array([]), "am")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-0.5, max_value=1.0, allow_nan=False), min_size=2, max_size=40),
    st.randoms(use_true_random=False),
)
def test_spatial_poolers_are_permutation_invariant(values, shuffler):
    v = np.array(values)
    shuffled = v.copy()
    shuffler.shuffle(shuffled)
    for sel in ("am", "md:p=2,o=1", "fns", "dw:p=2", "mink:p=2", "pp:ps=25,rs=2"):
        a = pool_spatial(v.reshape(1, -1), sel)
        b = pool_spatial(shuffled.reshape(1, -1), sel)
        assert a == pytest.approx(b, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=2, max_size=30))
def test_temporal_mean_ordering_property(values):
    s = np.array(values)
    assert pool_temporal(s, "hm") <= pool_temporal(s, "gm") + 1e-12
    assert pool_temporal(s, "gm") <= pool_temporal(s, "am") + 1e-12


class TestSelectors:
    def test_spatial_parse_and_format(self):
        for text, kind in [
            ("am", "am"), ("cov", "cov"), ("md:p=2,o=3", "md"), ("fns", "fns"),
            ("dw:p=0.25", "dw"), ("mink:p=4", "mink"), ("lw:a=10,b=40", "lw"),
            ("pp:ps=6,rs=4000", "pp"),
        ]:
            pool = parse_spatial(text)
            assert pool.kind == kind
            assert parse_spatial(pool.selector()) == pool

    def test_temporal_parse_and_format(self):
        for text in ["am", "gm", "hm", "median", "cov", "wam:k=3", "wgm:k=50",
                     "whm:k=80", "wcov:k=10", "md:p=2,o=3", "fns", "dw:p=2",
                     "mink:p=0.5", "pp:ps=6,rs=4000"]:
            pool = parse_temporal(text)
            assert parse_temporal(pool.selector()) == pool

    def test_pp_temporal_aliases(self):
        pool = parse_temporal("pp:pt=6,rt=4000")
        assert (pool.ps, pool.rs) == (6.0, 4000.0)

    def test_pp_aliases_agree_across_domains(self, rng):
        s = rng.uniform(0.2, 1.0, 50)
        assert pool_temporal(s, "pp:p=10,r=3") == pool_temporal(s, "pp:ps=10,rs=3")
        assert pool_temporal(s, "pp:p=10,r=3") != pool_temporal(s, "am")
        assert parse_spatial("pp:pt=10,rt=3") == parse_spatial("pp:ps=10,rs=3")

    def test_positional_values_fill_parameters_in_order(self):
        assert parse_spatial("lw:10,40") == parse_spatial("lw:a=10,b=40")
        assert parse_spatial("md:3,2") == parse_spatial("md:p=3,o=2")
        assert parse_temporal("pp:10,3") == parse_temporal("pp:ps=10,rs=3")
        assert parse_temporal("wam:4") == parse_temporal("wam:k=4")

    @pytest.mark.parametrize("parse, text", [
        (parse_spatial, "am:p=9"),
        (parse_spatial, "md:2,3,4"),
        (parse_spatial, "mink:p=2,x=5"),
        (parse_spatial, "pp:p=10,ps=6"),
        (parse_spatial, "md:p=2,p=3"),
        (parse_temporal, "am:k=5"),
        (parse_temporal, "wam:3,k=3"),
    ])
    def test_unknown_keys_and_extra_values_rejected(self, parse, text):
        with pytest.raises(ValidationError):
            parse(text)

    def test_validation(self):
        with pytest.raises(ValidationError):
            parse_spatial("md:p=0")
        with pytest.raises(ValidationError):
            parse_spatial("pp:ps=120,rs=2")
        with pytest.raises(ValidationError):
            parse_spatial("pp:ps=6,rs=0.5")
        with pytest.raises(ValidationError):
            parse_temporal("wam")
        with pytest.raises(ValidationError):
            parse_temporal("bogus")
        with pytest.raises(ValidationError):
            SpatialPooler("md", p=-1.0)
        with pytest.raises(ValidationError):
            TemporalPooler("wam", k=0)

    @pytest.mark.parametrize("make", [
        lambda: SpatialPooler("am", p=5),
        lambda: SpatialPooler("am", ps=50.0),
        lambda: SpatialPooler("md", a=10.0),
        lambda: SpatialPooler("lw", a=10.0, rs=2.0),
        lambda: TemporalPooler("am", k=0),
        lambda: TemporalPooler("wam", k=3, p=2.0),
        lambda: TemporalPooler("pp", o=2.0),
    ])
    def test_fields_the_kind_does_not_read_are_rejected(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_unread_fields_at_their_defaults_are_accepted(self):
        assert SpatialPooler("md", p=2.0, o=3.0).selector() == "md:p=2,o=3"
        assert SpatialPooler("lw", a=10.0, b=40.0) == parse_spatial("lw:a=10,b=40")
        assert TemporalPooler("wam", k=3) == parse_temporal("wam:k=3")
        assert TemporalPooler("am", k=1, p=1.0) == parse_temporal("am")

    def test_constructor_and_selector_share_each_default(self, rng):
        assert SpatialPooler("md") == parse_spatial("md")
        assert TemporalPooler("md") == parse_temporal("md")
        v = rng.uniform(0.2, 1.0, 64)
        assert pool_spatial(v, SpatialPooler("md")) == pool_spatial(v, "md:p=2,o=1")
