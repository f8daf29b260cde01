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


def pessimistic_order(scores: Sequence[float], gains: Sequence[float]) -> list[int]:
    """Indices in predicted rank order: descending score, ties broken by
    ascending gain (higher-gain candidates last), then by index."""
    scores = [float(s) for s in scores]
    gains = [float(g) for g in gains]
    if len(scores) != len(gains):
        raise DataError("scores and gains must align")
    return sorted(range(len(scores)), key=lambda i: (-scores[i], gains[i], i))


def graded_pairwise_accuracy(
    scores: Sequence[float], gains: Sequence[float]
) -> tuple[float, int]:
    """Accuracy over candidate pairs with distinct gains: a pair is correct
    when the higher-gain candidate scores strictly higher, so a tie is an
    error. Returns (accuracy, number of evaluated pairs); accuracy is 0.0
    when no pair with distinct gains exists."""
    scores = [float(s) for s in scores]
    gains = [float(g) for g in gains]
    correct = 0
    total = 0
    for i in range(len(scores)):
        for j in range(i + 1, len(scores)):
            if gains[i] == gains[j]:
                continue
            total += 1
            hi, lo = (i, j) if gains[i] > gains[j] else (j, i)
            if scores[hi] > scores[lo]:
                correct += 1
    return (correct / total if total else 0.0), total


def _relevant(gains_in_order) -> np.ndarray:
    """Mask of the relevant candidates: positive gain equal to the top gain."""
    gains = np.asarray(gains_in_order, dtype=np.float64)
    return (gains > 0) & (gains == gains.max(axis=-1, keepdims=True, initial=0.0))


def reciprocal_rank(gains_in_order) -> np.ndarray:
    """1 / rank of the first relevant candidate."""
    relevant = _relevant(gains_in_order)
    if not relevant.any(axis=-1).all():
        raise DataError("no relevant candidate in ranking")
    return 1.0 / (np.argmax(relevant, axis=-1) + 1.0)


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
    """Monte Carlo estimate of a metric under uniformly random orderings.

    relevance defaults to a single relevant candidate. It is the gain vector
    for ndcg; mrr and recall count each positive entry as relevant. Returns
    the estimate, its standard error (None for a single trial), and a closed
    form when one is known (single-relevant MRR and R@k).
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

    single_relevant = int((rel > 0).sum()) == 1 and metric != "ndcg"
    closed_form = None

    if metric == "accuracy":
        # Random continuous scores are tie-free almost surely: P(pos > neg) = 1/2.
        scores = rng.random((trials, n_candidates))
        pos = int(np.argmax(rel))
        neg = [i for i in range(n_candidates) if i != pos]
        if not neg:
            raise DataError("accuracy baseline needs at least two candidates")
        wins = (scores[:, [pos]] > scores[:, neg]).mean(axis=1)
        values = wins
        closed_form = 0.5
    else:
        # Random permutation of the relevance profile per trial.
        keys = rng.random((trials, n_candidates))
        perm = np.argsort(keys, axis=1)
        arranged = rel[perm]
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
