"""Ranking under the pessimistic tie rule, of one request's candidates and
of every instance of an evaluation set, each by `pessimistic_order`.

A request ranks its candidates by score, and by relevance (the mean rating,
else 1 for the original and 0 for others) under equal scores. A set is one
rated evaluation, whose instances of each candidate count are ranked in one
call: a rated instance's gains are its mean ratings, a selection instance's
1.0 at the positive and 0.0 elsewhere. MRR and R@k find the candidates
reaching the top gain, nDCG (rating only) reads the ranked gains, and
accuracy counts the pairs with distinct gains, which for selection are the
(positive, negative) pairs. Corpus metrics are means of per-instance values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from ..corpus import Turn
from ..errors import DataError, NumericError
from ..metrics import (
    graded_pairwise_accuracy,
    ndcg,
    pessimistic_order,
    recall_at_k,
    reciprocal_rank,
)
from ..swapgen import Candidate, RankingInstance, RatedInstance


class Scorer(Protocol):
    def score_candidates(
        self, pairs: Sequence[tuple[Sequence[Turn], Sequence[Turn]]]
    ) -> list[np.ndarray]:
        """The scores of each (context, candidates) pair's candidates, one
        array per pair. Evaluation passes a whole set in one call, so a
        scorer may batch across pairs, but a score must not depend on the
        other pairs or candidates in the call."""
        ...


@dataclass(frozen=True)
class RankedCandidate:
    rank: int  # 1-based
    index: int  # position in the input candidate list
    score: float
    candidate: Candidate


def candidate_relevance(c: Candidate) -> float:
    """Tie-breaking relevance: the mean rating when present, otherwise 1 for
    the original candidate and 0 for adversarial ones."""
    if c.mean_rating is not None:
        return c.mean_rating
    return 1.0 if c.provenance == "original" else 0.0


def check_finite(scores: np.ndarray, where: str) -> None:
    """Raise NumericError naming where and the first candidate whose score
    is not finite: no order, and so no metric, is defined over it."""
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        i = int(bad[0])
        raise NumericError(f"{where}: candidates[{i}] scored {float(scores[i])} (not finite)")


def rank_candidates(
    context: Sequence[Turn], candidates: Sequence[Candidate], model: Scorer
) -> list[RankedCandidate]:
    """Score and order candidates, descending; under equal scores the more
    relevant candidate (original, or higher rated) is ranked after the others.
    The ordering is invariant under any strictly increasing score transform.
    A score that is not finite raises NumericError.
    """
    [scores] = model.score_candidates([(context, [c.turn for c in candidates])])
    check_finite(scores, "ranking")
    order = pessimistic_order(scores, [candidate_relevance(c) for c in candidates])
    return [
        RankedCandidate(rank=r + 1, index=i, score=float(scores[i]), candidate=candidates[i])
        for r, i in enumerate(order.tolist())
    ]


def evaluate_selection(model: Scorer, instances: Sequence[RankingInstance]) -> dict:
    """Accuracy, MRR, R@1, R@2 on a response-selection dataset."""
    if any(len(inst.candidates) < 2 for inst in instances):
        raise DataError("selection needs at least one negative candidate per instance")
    gains = [[float(i == inst.positive_position) for i in range(len(inst.candidates))]
             for inst in instances]
    report, pairs = _evaluate(model, instances, "selection", gains,
                              r_at_2=lambda g: recall_at_k(g, 2))
    return {**report, "instances": len(instances), "pairs": pairs}


def evaluate_rated(model: Scorer, instances: Sequence[RatedInstance]) -> dict:
    """Accuracy, MRR, R@1, nDCG on a rated turn-coherence test set."""
    if any(c.mean_rating is None for inst in instances for c in inst.candidates):
        raise DataError("rated evaluation requires a mean rating per candidate")
    gains = [[c.mean_rating for c in inst.candidates] for inst in instances]
    report, pairs = _evaluate(model, instances, "rating", gains, ndcg=ndcg)
    return {**report, "instances": len(instances), "accuracy_pairs": pairs}


def _evaluate(
    model: Scorer, instances, stage: str, gains: list[list[float]],
    **metrics: Callable[[np.ndarray], np.ndarray],
) -> tuple[dict[str, float], int]:
    """The mean pairwise accuracy over the instances with a pair of distinct
    gains (0.0 if none), MRR, R@1 and each further metric's mean over the
    ranked gains, and the number of accuracy pairs. A score that is not
    finite raises NumericError naming the stage and the instance."""
    if not instances:
        raise DataError("no instances to evaluate")
    scores = model.score_candidates(
        [(inst.context, [c.turn for c in inst.candidates]) for inst in instances]
    )
    for n, instance_scores in enumerate(scores):
        check_finite(instance_scores, f"{stage} evaluation, instance {n}")
    lengths = np.array([len(g) for g in gains])
    accuracy = np.empty(len(instances))
    pairs = np.empty(len(instances), dtype=np.int64)
    metrics = {"mrr": reciprocal_rank, "r_at_1": lambda g: recall_at_k(g, 1), **metrics}
    values = {name: np.empty(len(instances)) for name in metrics}
    # Each candidate count is ranked in one call; the values go back in
    # instance order before the means are taken, so the means keep their bits.
    for n in set(lengths.tolist()):
        rows = np.flatnonzero(lengths == n)
        group_scores = np.array([scores[i] for i in rows], dtype=np.float64)
        group_gains = np.array([gains[i] for i in rows], dtype=np.float64)
        accuracy[rows], pairs[rows] = graded_pairwise_accuracy(group_scores, group_gains)
        order = pessimistic_order(group_scores, group_gains)
        ranked = np.take_along_axis(group_gains, order, axis=-1)
        for name, metric in metrics.items():
            values[name][rows] = metric(ranked)
    paired = accuracy[pairs > 0]
    report = {"accuracy": float(np.mean(paired)) if paired.size else 0.0}
    report.update((name, float(np.mean(v))) for name, v in values.items())
    return report, int(pairs.sum())


def summarize_runs(reports: Sequence[dict], metric_keys: Sequence[str]) -> dict:
    """Mean and per-run values over repeated evaluations (multi-seed runs)."""
    if not reports:
        raise DataError("no runs to summarize")
    summary: dict = {"runs": len(reports), "per_run": list(reports)}
    for key in metric_keys:
        summary[key] = float(np.mean([r[key] for r in reports]))
    return summary


def report_tsv(report: dict) -> str:
    keys = [k for k in report if isinstance(report[k], (int, float))]
    lines = ["metric\tvalue"]
    for k in keys:
        lines.append(f"{k}\t{report[k]!r}")
    return "\n".join(lines) + "\n"
