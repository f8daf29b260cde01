import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialcoh.errors import DataError, NumericError
from dialcoh.models import evaluate_rated, evaluate_selection
from dialcoh.swapgen import Candidate, RankingInstance, RatedInstance
from dialcoh.metrics import (
    dcg,
    expected_random_mrr,
    graded_pairwise_accuracy,
    harmonic,
    leave_one_out_correlation,
    ndcg,
    pearson,
    pessimistic_order,
    quadratic_weighted_kappa,
    random_baseline,
    recall_at_k,
    reciprocal_rank,
)

from conftest import FixedScorer, evaluate_reference, seg, turn


def ranked_gains(scores, gains) -> list[float]:
    """gains rearranged into the pessimistic predicted order."""
    return [gains[i] for i in pessimistic_order(scores, gains)]


# Few distinct values, so that scores tie often, top ratings tie and some
# instances have a single rating throughout.
TIED_SCORES = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.5, 1.0])
RATINGS = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0])


def _candidates(n: int, ratings=None) -> tuple:
    ratings = ratings or [None] * n
    return tuple(
        Candidate(turn("A", seg("sd", text=f"c{i}")), "original" if i == 0 else "external",
                  mean_rating=r)
        for i, r in enumerate(ratings)
    )


class TestPairwiseAccuracy:
    """Selection accuracy: graded accuracy on binary gains counts exactly the
    (positive, negative) pairs."""

    def test_tie_counts_as_error(self):
        assert graded_pairwise_accuracy([0.8, 0.1, 0.9, 0.8], [1, 0, 0, 0]) == (1 / 3, 3)

    def test_clear_win(self):
        assert graded_pairwise_accuracy([1.0, 0.0], [1, 0]) == (1.0, 1)

    def test_all_ties_zero(self):
        assert graded_pairwise_accuracy([0.5, 0.5, 0.5, 0.5], [0, 0, 1, 0]) == (0.0, 3)

    def test_needs_negatives(self):
        assert graded_pairwise_accuracy([1.0], [1]) == (0.0, 0)
        lone = RankingInstance("d", 0, (), _candidates(1), positive_position=0)
        with pytest.raises(DataError):
            evaluate_selection(FixedScorer([[1.0]]), [lone])


class TestReciprocalRank:
    def test_rank_one(self):
        assert reciprocal_rank([1, 0, 0]) == 1.0

    def test_rank_three_of_ten(self):
        rel = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        assert reciprocal_rank(rel) == pytest.approx(1 / 3)

    def test_no_relevant_is_error(self):
        with pytest.raises(DataError):
            reciprocal_rank([0, 0])

    def test_pessimistic_tie_ordering(self):
        # positive tied at 0.5 with one negative, another negative at 0.9
        scores = [0.5, 0.5, 0.9]
        gains = [1.0, 0.0, 0.0]
        assert ranked_gains(scores, gains) == [0.0, 0.0, 1.0]
        assert reciprocal_rank(ranked_gains(scores, gains)) == pytest.approx(1 / 3)

    def test_expected_random_matches_closed_form(self):
        # Monte Carlo oracle for E[1/rank] with 1 relevant among 10.
        rng = np.random.default_rng(0)
        n, trials = 10, 200_000
        positions = rng.integers(0, n, size=trials)
        estimate = (1.0 / (positions + 1)).mean()
        closed = expected_random_mrr(n)
        assert closed == pytest.approx(harmonic(10) / 10)
        assert closed == pytest.approx(0.2929, abs=5e-4)  # the tabulated 0.293
        assert estimate == pytest.approx(closed, abs=3e-3)


class TestRecallAtK:
    def test_rank_two(self):
        rel = ranked_gains([0.4, 0.6], [1.0, 0.0])
        assert recall_at_k(rel, 1) == 0.0
        assert recall_at_k(rel, 2) == 1.0

    def test_k_equals_n_always_hits(self):
        rel = [0, 0, 0, 1]
        assert recall_at_k(rel, 4) == 1.0

    def test_k_out_of_range(self):
        with pytest.raises(DataError):
            recall_at_k([1, 0], 3)


class TestNdcg:
    def test_worked_example(self):
        # gains in predicted order [3, 1, 2]:
        # DCG = 3 + 1/log2(3) + 2/2, IDCG = 3 + 2/log2(3) + 1/2
        value = ndcg([3, 1, 2])
        assert dcg([3, 1, 2]) == pytest.approx(4.63093, abs=5e-6)
        assert dcg([3, 2, 1]) == pytest.approx(4.76186, abs=5e-6)
        assert value == pytest.approx(0.97250, abs=5e-6)

    def test_ideal_order_is_one(self):
        assert ndcg([3, 2, 1]) == pytest.approx(1.0)

    def test_reversed_two_items(self):
        expected = (1 + 3 / math.log2(3)) / (3 + 1 / math.log2(3))
        assert ndcg([1, 3]) == pytest.approx(expected, abs=1e-12)

    def test_all_zero_gains_error(self):
        with pytest.raises(DataError):
            ndcg([0, 0, 0])

    def test_scores_with_tie_rule(self):
        # equal scores: higher gain goes later, so nDCG drops below 1
        value = ndcg(ranked_gains([0.5, 0.5], [1.0, 3.0]))
        assert value == pytest.approx((1 + 3 / math.log2(3)) / (3 + 1 / math.log2(3)))

    @given(
        gains=st.lists(st.integers(0, 3), min_size=2, max_size=8).filter(lambda g: any(g)),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_one(self, gains, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(gains)
        rng.shuffle(shuffled)
        assert ndcg(shuffled) <= 1.0 + 1e-12


class TestLastAxis:
    @given(
        rows=st.integers(1, 6),
        n=st.integers(1, 12),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_one_dimensional_calls_bit_for_bit(self, rows, n, seed, k):
        rng = np.random.default_rng(seed)
        # Few distinct gains, so top gains tie; every row has a positive one.
        gains = rng.choice([0.0, 1.0, 1.5, 2.0, 3.0], size=(rows, n))
        gains[:, rng.integers(0, n)] = 3.0
        k = min(k, n)
        for metric in (reciprocal_rank, lambda g: recall_at_k(g, k), ndcg):
            stacked = metric(gains)
            assert stacked.shape == (rows,)
            assert [v.tobytes() for v in stacked] == [metric(row).tobytes() for row in gains]
        # Few distinct scores too, so the tie rule decides orders and pairs.
        scores = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(rows, n))
        order = pessimistic_order(scores, gains)
        assert order.shape == (rows, n)
        assert [r.tobytes() for r in order] == [
            pessimistic_order(s, g).tobytes() for s, g in zip(scores, gains)]
        accuracy, pairs = graded_pairwise_accuracy(scores, gains)
        assert accuracy.shape == pairs.shape == (rows,)
        one_by_one = [graded_pairwise_accuracy(s, g) for s, g in zip(scores, gains)]
        assert [v.tobytes() for v in accuracy] == [a.tobytes() for a, _ in one_by_one]
        assert [v.tobytes() for v in pairs] == [p.tobytes() for _, p in one_by_one]


class TestDynamicRelevance:
    """On rated rankings the relevant candidates are those reaching the top
    gain (the best mean rating)."""

    def test_ties_at_max_all_relevant(self):
        assert reciprocal_rank([1.0, 2.6, 2.6]) == 0.5
        assert recall_at_k([2.6, 1.0, 2.6], 1) == 1.0

    def test_strictly_decreasing_single_relevant(self):
        assert reciprocal_rank([2.0, 1.0, 3.0]) == pytest.approx(1 / 3)
        assert recall_at_k([2.0, 1.0, 3.0], 2) == 0.0

    def test_graded_accuracy_excludes_identical_rating_pairs(self):
        # ratings [2, 2, 1]: only pairs (0,2) and (1,2) are counted.
        accuracy, n_pairs = graded_pairwise_accuracy([0.9, 0.1, 0.5], [2.0, 2.0, 1.0])
        assert n_pairs == 2
        assert accuracy == pytest.approx(0.5)

    def test_graded_accuracy_tie_scores_wrong(self):
        accuracy, n_pairs = graded_pairwise_accuracy([0.4, 0.4], [3.0, 1.0])
        assert (accuracy, n_pairs) == (0.0, 1)


class TestRandomBaseline:
    def test_mrr_matches_closed_form_within_three_se(self):
        for n in (2, 5, 7, 10):
            out = random_baseline(n, "mrr", trials=100_000, seed=n)
            assert abs(out["estimate"] - out["closed_form"]) < 3 * out["standard_error"]
            assert out["closed_form"] == pytest.approx(expected_random_mrr(n))

    def test_recall_at_two_of_ten(self):
        out = random_baseline(10, "recall", trials=50_000, seed=1, k=2)
        assert out["closed_form"] == pytest.approx(0.2)
        assert out["estimate"] == pytest.approx(0.2, abs=0.01)

    def test_recall_at_one_of_ten(self):
        out = random_baseline(10, "recall", trials=50_000, seed=2, k=1)
        assert out["estimate"] == pytest.approx(0.1, abs=0.008)  # tabulated 0.099

    def test_accuracy_half(self):
        out = random_baseline(10, "accuracy", trials=20_000, seed=3)
        assert out["closed_form"] == 0.5
        assert out["estimate"] == pytest.approx(0.5, abs=0.01)

    def test_ndcg_requires_gains_and_is_below_one(self):
        out = random_baseline(7, "ndcg", relevance=[2.6, 1.8, 1.8, 1.8, 1.4, 1.4, 1.4],
                              trials=20_000, seed=4)
        assert 0.5 < out["estimate"] < 1.0

    def test_mrr_deterministic_given_seed(self):
        a = random_baseline(10, "mrr", trials=10_000, seed=9)
        b = random_baseline(10, "mrr", trials=10_000, seed=9)
        assert a == b


def spreadsheet_qwk(a, b, categories=(1, 2, 3)):
    """Independent direct evaluation of the weighted-kappa formula."""
    K = len(categories)
    idx = {c: i for i, c in enumerate(categories)}
    O = np.zeros((K, K))
    for x, y in zip(a, b):
        O[idx[x], idx[y]] += 1
    E = np.outer(O.sum(1), O.sum(0)) / O.sum()
    num = den = 0.0
    for i in range(K):
        for j in range(K):
            w = (i - j) ** 2 / (K - 1) ** 2
            num += w * O[i, j]
            den += w * E[i, j]
    return 1 - num / den


class TestQuadraticWeightedKappa:
    def test_perfect_agreement(self):
        a = [1, 2, 3, 2, 1, 3]
        assert quadratic_weighted_kappa(a, a) == pytest.approx(1.0)

    def test_inverted_raters_match_direct_formula(self):
        a = [1, 1, 3, 3]
        b = [3, 3, 1, 1]
        value = quadratic_weighted_kappa(a, b)
        assert value == pytest.approx(spreadsheet_qwk(a, b))
        assert value == pytest.approx(-1.0)

    def test_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(11)
        a = rng.integers(1, 4, size=200)
        b = np.clip(a + rng.integers(-1, 2, size=200), 1, 3)
        ours = quadratic_weighted_kappa(list(a), list(b))
        theirs = sklearn_metrics.cohen_kappa_score(a, b, weights="quadratic")
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_independent_raters_near_zero(self):
        rng = np.random.default_rng(5)
        a = rng.integers(1, 4, size=10_000)
        b = rng.integers(1, 4, size=10_000)
        assert abs(quadratic_weighted_kappa(list(a), list(b))) < 0.05

    def test_both_constant_same_value(self):
        assert quadratic_weighted_kappa([2, 2, 2], [2, 2, 2]) == 1.0

    def test_both_constant_different_values(self):
        assert quadratic_weighted_kappa([1, 1], [3, 3]) == pytest.approx(0.0)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=40
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        try:
            left = quadratic_weighted_kappa(a, b)
            right = quadratic_weighted_kappa(b, a)
        except NumericError:
            return
        assert left == pytest.approx(right, abs=1e-12)

    def test_unknown_category(self):
        with pytest.raises(DataError):
            quadratic_weighted_kappa([1, 5], [1, 2])


class TestLeaveOneOut:
    def test_identical_raters(self):
        col = np.array([1, 2, 3, 2, 1], dtype=float)
        matrix = np.stack([col, col, col], axis=1)
        report = leave_one_out_correlation(matrix)
        assert report.per_rater == pytest.approx((1.0, 1.0, 1.0))
        assert report.mean == pytest.approx(1.0)

    def test_negation_rater(self):
        consensus = np.array([1, 3, 2, 1, 3], dtype=float)
        flipped = 4 - consensus
        matrix = np.stack([consensus, consensus, consensus, flipped], axis=1)
        report = leave_one_out_correlation(matrix)
        assert report.per_rater[3] == pytest.approx(-1.0)

    def test_missing_entries_allowed(self):
        matrix = np.array(
            [[1, 1, np.nan], [2, 2, 2], [3, 3, 3], [1, np.nan, 1], [2, 2, 3]], dtype=float
        )
        report = leave_one_out_correlation(matrix)
        assert len(report.per_rater) == 3
        assert all(np.isfinite(report.per_rater))

    def test_zero_variance_rater(self):
        matrix = np.stack(
            [np.array([2, 2, 2, 2]), np.array([1, 2, 3, 1])], axis=1
        ).astype(float)
        with pytest.raises(NumericError):
            leave_one_out_correlation(matrix)

    def test_needs_two_raters(self):
        with pytest.raises(DataError):
            leave_one_out_correlation(np.zeros((4, 1)))


class TestRankInvariance:
    @given(
        seed=st.integers(0, 500),
        n=st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_metrics_invariant_under_monotone_transforms(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        relevance = np.zeros(n)
        relevance[rng.integers(0, n)] = 1.0
        base = ranked_gains(scores, relevance)
        transformed = ranked_gains(np.tanh(scores) * 5 + 2, relevance)
        assert base == transformed
        assert reciprocal_rank(base) == reciprocal_rank(transformed)

    def test_pessimistic_order_is_deterministic(self):
        scores = [0.5, 0.5, 0.5]
        relevance = [0.0, 1.0, 0.0]
        assert pessimistic_order(scores, relevance).tolist() == [0, 2, 1]


def test_pearson_basic():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    with pytest.raises(NumericError):
        pearson([1, 1, 1], [1, 2, 3])


@st.composite
def scored_selection_sets(draw):
    instances, scores = [], []
    for j in range(draw(st.integers(1, 5))):
        n = draw(st.integers(2, 10))
        scores.append(draw(st.lists(TIED_SCORES, min_size=n, max_size=n)))
        instances.append(RankingInstance(
            dialogue_id=f"d{j}", point_index=0, context=(), candidates=_candidates(n),
            positive_position=draw(st.integers(0, n - 1)),
        ))
    return instances, scores


@st.composite
def scored_rated_sets(draw):
    instances, scores = [], []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 10))
        scores.append(draw(st.lists(TIED_SCORES, min_size=n, max_size=n)))
        if draw(st.booleans()):
            ratings = [draw(RATINGS)] * n
        else:
            ratings = draw(st.lists(RATINGS, min_size=n, max_size=n))
        instances.append(RatedInstance(context=(), candidates=_candidates(n, ratings)))
    return instances, scores


class TestEvaluationMatchesReference:
    """Selection is rated evaluation with binary gains: both evaluators must
    report what the two separate loops of `evaluate_reference` report, key
    order included, under heavy score ties."""

    @given(scored_selection_sets())
    @settings(max_examples=300, deadline=None)
    def test_selection(self, case):
        instances, scores = case
        report = evaluate_selection(FixedScorer(scores), instances)
        expected = evaluate_reference(FixedScorer(scores), instances)
        assert list(report.items()) == list(expected.items())

    @given(scored_rated_sets())
    @settings(max_examples=300, deadline=None)
    def test_rated(self, case):
        instances, scores = case
        report = evaluate_rated(FixedScorer(scores), instances)
        expected = evaluate_reference(FixedScorer(scores), instances)
        assert list(report.items()) == list(expected.items())

    def test_a_rated_instance_without_candidates_is_a_data_error(self):
        with pytest.raises(DataError):
            evaluate_rated(FixedScorer([[]]), [RatedInstance(context=(), candidates=())])
