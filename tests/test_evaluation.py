import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit.errors import DegenerateData, LengthMismatch, TooFew, ValidationError
from ssimkit.evaluation import (
    CostPerfPoint,
    LabeledDataset,
    Logistic5,
    correlations,
    cross_apply,
    dominates,
    eval_5pl,
    fit_5pl,
    is_rank_preserving,
    normalize_scores,
    pareto_front,
    rank_with_ties,
)


def non_decreasing(params, x_lo, x_hi, points=1000, slack=1e-12):
    """Oracle: the curve never steps down on a grid over [x_lo, x_hi]."""
    vals = np.asarray(eval_5pl(params, np.linspace(x_lo, x_hi, points)))
    return bool(np.all(np.diff(vals) >= -slack))


def brute_force_ranks(values):
    """O(n^2) average ranks with ties."""
    v = list(values)
    ranks = []
    for x in v:
        less = sum(1 for y in v if y < x)
        equal = sum(1 for y in v if y == x)
        ranks.append(less + (equal + 1) / 2.0)
    return np.array(ranks)


def brute_force_srocc(a, b):
    ra, rb = brute_force_ranks(a), brute_force_ranks(b)
    da, db = ra - ra.mean(), rb - rb.mean()
    return float((da * db).sum() / np.sqrt((da * da).sum() * (db * db).sum()))


class TestEval5pl:
    def test_identity_configuration(self):
        params = Logistic5(0.0, 1.0, 0.5, 1.0, 0.0)
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.array_equal(np.asarray(eval_5pl(params, xs)), xs)

    def test_logistic_term_vanishes_at_center(self):
        params = Logistic5(3.0, 2.0, 0.7, 0.5, 0.1)
        assert eval_5pl(params, 0.7) == pytest.approx(0.5 * 0.7 + 0.1, abs=1e-15)

    def test_symmetric_zero(self):
        params = Logistic5(2.0, 1.0, 0.0, 0.0, 0.0)
        assert eval_5pl(params, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_callable_form(self):
        params = Logistic5(1.0, 5.0, 0.5, 0.2, 0.1)
        assert params(0.3) == eval_5pl(params, 0.3)

    def test_extreme_arguments_do_not_overflow(self):
        params = Logistic5(1.0, 50.0, 0.0, 0.1, 0.0)
        assert np.isfinite(eval_5pl(params, 1e6))
        assert np.isfinite(eval_5pl(params, -1e6))


class TestFit5pl:
    def test_noiseless_self_consistency(self, rng):
        true = Logistic5(0.9, 7.0, 0.55, 0.3, 0.1)
        x = rng.uniform(0.2, 1.0, 80)
        y = np.asarray(eval_5pl(true, x))
        y = (y - y.min()) / (y.max() - y.min())
        data = LabeledDataset.from_pairs(x, y)
        fit = fit_5pl(data)
        assert cross_apply(fit, data) <= 1e-6

    def test_linear_data(self, rng):
        x = np.linspace(0.1, 1.0, 25)
        y = 0.6 * x + 0.2
        data = LabeledDataset.from_pairs(x, y)
        fit = fit_5pl(data)
        assert cross_apply(fit, data) <= 1e-8

    def test_degenerate_all_equal(self):
        with pytest.raises(DegenerateData):
            fit_5pl(LabeledDataset.from_pairs([0.5] * 10, np.linspace(0, 1, 10)))

    def test_degenerate_too_few_distinct(self):
        x = [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]
        with pytest.raises(DegenerateData):
            fit_5pl(LabeledDataset.from_pairs(x, np.linspace(0, 1, 6)))

    def test_rmse_never_increases(self, rng):
        x = rng.uniform(0.0, 1.0, 40)
        y = np.clip(0.8 * x + rng.normal(0.0, 0.05, 40) + 0.1, 0.0, 1.0)
        trace = []
        fit_5pl(LabeledDataset.from_pairs(x, y), trace=trace)
        assert len(trace) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_fit_is_deterministic(self, rng):
        x = rng.uniform(0.0, 1.0, 30)
        y = np.clip(x**2, 0.0, 1.0)
        data = LabeledDataset.from_pairs(x, y)
        assert fit_5pl(data) == fit_5pl(data)

    def test_monotone_check(self):
        increasing = Logistic5(1.0, 8.0, 0.5, 0.2, 0.0)
        assert non_decreasing(increasing, 0.0, 1.0)
        wiggly = Logistic5(-2.0, 12.0, 0.5, 0.3, 0.5)
        assert not non_decreasing(wiggly, 0.0, 1.0)
        decreasing = Logistic5(-1.0, 8.0, 0.5, -0.2, 1.0)
        assert not non_decreasing(decreasing, 0.0, 1.0)
        assert is_rank_preserving(increasing, 0.0, 1.0)
        assert not is_rank_preserving(wiggly, 0.0, 1.0)
        assert is_rank_preserving(decreasing, 0.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(max_iter=2.5), dict(max_iter=True), dict(max_iter=-1), dict(max_iter="500"),
        dict(tol=float("nan")), dict(tol=-1e-10),
    ], ids=repr)
    def test_rejects_bad_loop_settings(self, kwargs):
        x = np.linspace(0.1, 1.0, 12)
        with pytest.raises(ValidationError):
            fit_5pl(LabeledDataset.from_pairs(x, 0.6 * x + 0.2), **kwargs)

    @pytest.mark.parametrize("points", [2.5, 1000.0, True, 1, 0])
    def test_rank_check_rejects_a_grid_that_is_not_an_integer_of_two_or_more(self, points):
        with pytest.raises(ValidationError, match="points"):
            is_rank_preserving(Logistic5(1.0, 8.0, 0.5, 0.2, 0.0), 0.0, 1.0, points=points)

    def test_monotone_whenever_b1b2_and_b4_nonnegative(self, rng):
        # sufficient condition: beta1*beta2 >= 0 and beta4 >= 0
        for _ in range(50):
            b1 = float(rng.uniform(0.0, 3.0))
            b2 = float(rng.uniform(0.0, 20.0))
            if rng.uniform() < 0.5:
                b1, b2 = -b1, -b2  # product stays non-negative
            params = Logistic5(b1, b2, float(rng.uniform(-1, 1)), float(rng.uniform(0, 2)),
                               float(rng.uniform(-1, 1)))
            assert non_decreasing(params, -2.0, 2.0)


class TestCorrelations:
    def test_perfect_agreement(self):
        x = np.linspace(0.0, 1.0, 10)
        assert correlations(x, x) == (1.0, 1.0, 0.0)

    def test_monotone_transform_gives_unit_srocc(self, rng):
        subj = rng.uniform(0.0, 1.0, 25)
        pred = np.exp(3.0 * subj) - 0.5
        _, srocc, _ = correlations(pred, subj)
        assert srocc == 1.0

    def test_rank_invariance_under_monotone_maps(self, rng):
        a = rng.uniform(0.0, 1.0, 20)
        b = rng.uniform(0.0, 1.0, 20)
        base = correlations(a, b)[1]
        for transform in (lambda v: v**3 + 2 * v, np.exp, lambda v: 5 * v - 1):
            assert correlations(transform(a), b)[1] == pytest.approx(base, abs=1e-12)
            assert correlations(a, transform(b))[1] == pytest.approx(base, abs=1e-12)

    def test_ties_match_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 11))
            a = rng.integers(0, 4, n).astype(float)  # heavy ties
            b = rng.integers(0, 4, n).astype(float)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            _, srocc, _ = correlations(a, b)
            assert srocc == pytest.approx(brute_force_srocc(a, b), abs=1e-12)

    def test_rank_with_ties_mean_rank(self):
        assert np.array_equal(rank_with_ties([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])
        assert np.array_equal(rank_with_ties([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])

    def test_zero_variance_is_nan(self):
        pcc, srocc, rmse = correlations([1.0, 1.0, 1.0], [0.1, 0.5, 0.9])
        assert np.isnan(pcc) and np.isnan(srocc)
        assert rmse > 0.0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            correlations([1.0, 2.0], [1.0])
        with pytest.raises(TooFew):
            correlations([1.0], [1.0])

    @pytest.mark.parametrize("pred, subj", [
        ([1.0, float("nan")], [1.0, 2.0]),
        ([1.0, 2.0], [float("nan"), 2.0]),
        ([1.0, float("inf"), 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, 2.0, -float("inf")]),
    ], ids=repr)
    def test_non_finite_scores_are_rejected(self, pred, subj):
        with pytest.raises(ValidationError, match="finite"):
            correlations(pred, subj)

    def test_rmse_definition(self, rng):
        a, b = rng.uniform(0, 1, 12), rng.uniform(0, 1, 12)
        _, _, rmse = correlations(a, b)
        assert rmse == pytest.approx(np.sqrt(np.mean((a - b) ** 2)), abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=2, max_size=30),
    st.floats(min_value=0.25, max_value=5.0),
)
def test_srocc_invariant_under_affine_scaling(values, scale):
    # integer-valued inputs keep the affine map strictly order-preserving in
    # floating point (no absorption of tiny gaps)
    a = np.array(values, dtype=float)
    b = np.linspace(0.0, 1.0, a.size)
    base = correlations(a, b)[1]
    scaled = correlations(scale * a + 1.0, b)[1]
    if np.isnan(base):
        assert np.isnan(scaled)
    else:
        assert scaled == pytest.approx(base, abs=1e-9)


class TestPareto:
    def test_dominance_example(self):
        pts = [CostPerfPoint("a", 1, 0.90), CostPerfPoint("b", 2, 0.95), CostPerfPoint("c", 3, 0.94)]
        assert [p.label for p in pareto_front(pts)] == ["a", "b"]

    def test_single_point(self):
        pts = [CostPerfPoint("only", 2.0, 0.5)]
        assert pareto_front(pts) == pts

    def test_identical_points_all_kept(self):
        pts = [CostPerfPoint(str(i), 1.0, 0.8) for i in range(4)]
        assert pareto_front(pts) == pts

    def test_exhaustive_four_point_cases(self):
        # every 4-point multiset over a 3x3 cost/perf grid, against a direct
        # dominance filter
        grid = [(c, p) for c in (1.0, 2.0, 3.0) for p in (0.1, 0.5, 0.9)]
        for combo in itertools.combinations_with_replacement(grid, 4):
            pts = [CostPerfPoint(str(i), c, p) for i, (c, p) in enumerate(combo)]
            expected = [
                p for p in pts
                if not any(
                    q.perf >= p.perf and q.cost <= p.cost and (q.perf > p.perf or q.cost < p.cost)
                    for q in pts
                )
            ]
            assert pareto_front(pts) == expected

    def test_dominates_definition(self):
        a, b = CostPerfPoint("a", 1.0, 0.9), CostPerfPoint("b", 2.0, 0.9)
        assert dominates(a, b) and not dominates(b, a)
        assert not dominates(a, a)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CostPerfPoint("bad", 0.0, 0.5)
        with pytest.raises(ValidationError):
            CostPerfPoint("bad", 1.0, 1.5)


class TestCrossApply:
    def test_identity_fit_on_identical_pairs(self):
        identity = Logistic5(0.0, 1.0, 0.5, 1.0, 0.0)
        x = np.linspace(0.0, 1.0, 9)
        data = LabeledDataset.from_pairs(x, x)
        assert cross_apply(identity, data) == 0.0

    def test_synthetic_cross_database(self, rng):
        # noiseless generation: the refit curve transfers exactly; the true
        # curve stays inside [0, 1] on the sampled range so nothing clips
        true = Logistic5(0.4, 6.0, 0.5, 0.3, 0.2)
        x1 = rng.uniform(0.1, 1.0, 60)
        x2 = rng.uniform(0.1, 1.0, 60)

        def make(x, noise):
            y = np.asarray(eval_5pl(true, x)) + rng.normal(0.0, noise, x.size)
            assert y.min() >= -3 * noise and y.max() <= 1.0 + 3 * noise
            return LabeledDataset.from_pairs(x, np.clip(y, 0.0, 1.0))

        fit = fit_5pl(make(x1, 0.0))
        assert cross_apply(fit, make(x2, 0.0)) <= 1e-6
        # with noise, the transferred error stays on the order of the noise
        noisy_fit = fit_5pl(make(x1, 1e-3))
        assert cross_apply(noisy_fit, make(x2, 1e-3)) <= 0.05


class TestLabeledDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            LabeledDataset(("a", "a"), np.array([0.1, 0.2]), np.array([0.3, 0.4]))

    def test_subjective_range_enforced(self):
        with pytest.raises(ValidationError):
            LabeledDataset.from_pairs([0.1, 0.2], [0.5, 1.5])

    def test_normalize_scores(self):
        out = normalize_scores([10.0, 30.0, 50.0])
        assert np.array_equal(out, [0.0, 0.5, 1.0])
        with pytest.raises(DegenerateData):
            normalize_scores([3.0, 3.0])

    @pytest.mark.parametrize("raw", [[], (), np.empty(0), np.empty((3, 0))], ids=repr)
    def test_normalize_scores_rejects_an_empty_set(self, raw):
        with pytest.raises(ValidationError, match="empty"):
            normalize_scores(raw)
