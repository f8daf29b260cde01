"""Ranking and agreement metrics with pessimistic tie handling.

Whenever a model assigns two candidates the same score, the model is assumed
to be wrong: higher-gain candidates are ordered after tied others, and tied
pairs count as errors in pairwise accuracy. The ranking metrics read gains in
predicted order along the last axis, so one call scores one ranking (1-D) or
a stack of equally long rankings (2-D, one value per row). A candidate is
relevant when its gain reaches the ranking's top gain and that gain is
positive. All per-ranking metrics lie in [0, 1]; corpus-level values are
arithmetic means over instances, taken by the caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError


def pessimistic_order(scores, gains) -> np.ndarray:
    """Indices in predicted rank order along the last axis: descending score,
    then ascending gain (higher-gain candidates last), then index."""
    scores = np.asarray(scores, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    if scores.shape != gains.shape:
        raise DataError("scores and gains must align")
    return np.lexsort((gains, -scores), axis=-1)


def graded_pairwise_accuracy(scores, gains) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy over candidate pairs with distinct gains, along the last
    axis: a pair is correct when the higher-gain candidate scores strictly
    higher, so a tie is an error. Returns (accuracy, number of evaluated
    pairs) per ranking, accuracy 0.0 where there is no such pair. One
    candidate at a time meets all others, so memory stays linear in them."""
    scores = np.asarray(scores, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    if scores.shape != gains.shape:
        raise DataError("scores and gains must align")
    correct, total = np.zeros((2, *scores.shape[:-1]), dtype=np.int64)
    floor = gains.min(axis=-1, initial=np.inf)
    for i in range(scores.shape[-1]):
        if not (gains[..., i] > floor).any():
            continue  # no row has a candidate below candidate i
        lower = gains[..., i, None] > gains
        total += lower.sum(axis=-1)
        correct += (lower & (scores[..., i, None] > scores)).sum(axis=-1)
    return correct / np.maximum(total, 1), total


def _relevant(gains_in_order) -> np.ndarray:
    """Mask of the relevant candidates: positive gain equal to the top gain.
    A ranking without one has no defined rank or recall."""
    gains = np.asarray(gains_in_order, dtype=np.float64)
    relevant = (gains > 0) & (gains == gains.max(axis=-1, keepdims=True, initial=0.0))
    if not relevant.any(axis=-1).all():
        raise DataError("no relevant candidate in ranking")
    return relevant


def reciprocal_rank(gains_in_order) -> np.ndarray:
    """1 / rank of the first relevant candidate."""
    return 1.0 / (np.argmax(_relevant(gains_in_order), axis=-1) + 1.0)


def recall_at_k(gains_in_order, k: int) -> np.ndarray:
    """1.0 where a relevant candidate appears within the top k positions."""
    relevant = _relevant(gains_in_order)
    n = relevant.shape[-1]
    if not 1 <= k <= n:
        raise DataError(f"k={k} outside [1, {n}]")
    return relevant[..., :k].any(axis=-1).astype(np.float64)


def dcg(gains_in_order) -> np.ndarray:
    gains = np.asarray(gains_in_order, dtype=np.float64)
    return (gains / np.log2(np.arange(2, gains.shape[-1] + 2))).sum(axis=-1)


def ndcg(gains_in_order) -> np.ndarray:
    """Normalized discounted cumulative gain with linear gains: DCG of the
    predicted order over DCG of the gain-sorted ideal order."""
    gains = np.asarray(gains_in_order, dtype=np.float64)
    if not (gains > 0).any(axis=-1).all():
        raise DataError("nDCG requires at least one positive gain")
    return dcg(gains) / dcg(np.sort(gains, axis=-1)[..., ::-1])


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


def expected_random_mrr(n_candidates: int) -> float:
    """Closed form for a single relevant candidate: H(n) / n."""
    if n_candidates < 1:
        raise DataError("need at least one candidate")
    return harmonic(n_candidates) / n_candidates


def random_baseline(
    n_candidates: int,
    metric: str,
    relevance: Sequence[float] | None = None,
    trials: int = 100_000,
    seed: int = 0,
    k: int = 1,
) -> dict:
    """Monte Carlo estimate of a metric under uniformly random scores, one
    draw per candidate and trial, read by every metric.

    relevance defaults to a single relevant candidate. It is the gain vector
    for ndcg; mrr and recall count each positive entry as relevant; accuracy
    counts the pairs with distinct relevance, as `eval-rating` does. Every
    metric refuses a profile without a relevant candidate: for accuracy, one
    without two distinct values. Returns the estimate, its standard error
    (None for a single trial), and a closed form when one is known (accuracy,
    single-relevant MRR and R@k).
    """
    if trials < 1:
        raise DataError("trials must be >= 1")
    if n_candidates < 1:
        raise DataError("need at least one candidate")
    rng = np.random.default_rng(seed)
    if relevance is None:
        relevance = np.zeros(n_candidates)
        relevance[0] = 1.0
    rel = np.asarray(relevance, dtype=np.float64)
    if rel.size != n_candidates:
        raise DataError("relevance profile length must equal n_candidates")
    if not np.isfinite(rel).all():
        raise DataError(f"relevance profile values must be finite, got {rel.tolist()}")

    single_relevant = int((rel > 0).sum()) == 1
    closed_form = None
    draws = rng.random((trials, n_candidates))
    if metric == "accuracy":
        values, pairs = graded_pairwise_accuracy(draws, np.broadcast_to(rel, draws.shape))
        if not pairs.any():
            raise DataError(
                f"accuracy baseline needs two distinct relevance values, got {rel.tolist()}"
            )
        # Continuous random scores are tie-free almost surely, so each pair
        # is ordered correctly with probability 1/2.
        closed_form = 0.5
    else:
        # A uniformly random permutation of the profile per trial.
        arranged = rel[np.argsort(draws, axis=1)]
        if metric == "mrr":
            values = reciprocal_rank(arranged > 0)
            if single_relevant:
                closed_form = expected_random_mrr(n_candidates)
        elif metric == "recall":
            values = recall_at_k(arranged > 0, k)
            if single_relevant:
                closed_form = k / n_candidates
        elif metric == "ndcg":
            values = ndcg(arranged)
        else:
            raise DataError(f"unknown metric {metric!r}")

    estimate = float(values.mean())
    # One trial has no spread to estimate: null, since JSON has no NaN.
    se = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None
    out = {
        "metric": metric,
        "n_candidates": n_candidates,
        "trials": trials,
        "seed": seed,
        "estimate": estimate,
        "standard_error": se,
    }
    if metric == "recall":
        out["k"] = k
    if closed_form is not None:
        out["closed_form"] = closed_form
    return out


# -- agreement ----------------------------------------------------------------


def quadratic_weighted_kappa(
    a: Sequence[int], b: Sequence[int], categories: Sequence[int] = (1, 2, 3)
) -> float:
    """Chance-corrected ordinal agreement with (i-j)^2 disagreement weights:
    kappa = 1 - sum(w * O) / sum(w * E) with E the marginal outer product."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise DataError("paired ratings must have equal length")
    if not a:
        raise DataError("need at least one rating pair")
    cats = list(categories)
    cat_index = {c: i for i, c in enumerate(cats)}
    K = len(cats)
    observed = np.zeros((K, K), dtype=np.float64)
    for x, y in zip(a, b):
        if x not in cat_index or y not in cat_index:
            raise DataError(f"rating outside categories {cats}: ({x}, {y})")
        observed[cat_index[x], cat_index[y]] += 1.0
    n = observed.sum()
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / n
    idx = np.arange(K, dtype=np.float64)
    weights = (idx[:, None] - idx[None, :]) ** 2 / (K - 1) ** 2
    expected_disagreement = float((weights * expected).sum())
    observed_disagreement = float((weights * observed).sum())
    if expected_disagreement == 0.0:
        # Both raters constant; agreement is perfect iff all mass is diagonal.
        if observed_disagreement == 0.0:
            return 1.0
        raise NumericError("zero expected disagreement with observed disagreement")
    return 1.0 - observed_disagreement / expected_disagreement


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise DataError("paired sequences must have equal length")
    if x.size < 2:
        raise DataError("correlation needs at least two pairs")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise NumericError("zero variance in correlation input")
    return float((xc * yc).sum() / denom)


@dataclass(frozen=True)
class LeaveOneOutReport:
    per_rater: tuple[float, ...]
    mean: float


def leave_one_out_correlation(matrix: np.ndarray) -> LeaveOneOutReport:
    """Per-rater Pearson correlation with the item-wise mean of all other
    raters, and the average over raters.

    matrix is (items, raters) with NaN for missing ratings; each rater must
    share at least two items with the others' mean and have nonzero variance.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 2:
        raise DataError("rating matrix must be (items, >=2 raters)")
    correlations = []
    for r in range(m.shape[1]):
        own = m[:, r]
        others = np.delete(m, r, axis=1)
        with np.errstate(invalid="ignore"):
            others_mean = np.nanmean(others, axis=1)
        mask = ~np.isnan(own) & ~np.isnan(others_mean)
        if mask.sum() < 2:
            raise DataError(f"rater {r} shares fewer than 2 items with the others")
        correlations.append(pearson(own[mask], others_mean[mask]))
    return LeaveOneOutReport(
        per_rater=tuple(correlations), mean=float(np.mean(correlations))
    )
