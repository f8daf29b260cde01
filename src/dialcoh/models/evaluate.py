"""Dataset-level evaluation: response selection and graded coherence rating.

Corpus metrics are arithmetic means of per-instance values. Response
selection uses the binary positive label; rated evaluation uses dynamic
relevance (the candidates reaching the instance's best mean rating) for MRR
and R@1, pairs with distinct ratings for accuracy, and mean ratings as nDCG
gains.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DataError
from ..metrics import (
    dynamic_relevance,
    graded_pairwise_accuracy,
    ndcg_from_scores,
    pairwise_accuracy,
    ranked_relevance,
    recall_at_k,
    reciprocal_rank,
)
from ..swapgen import RankingInstance, RatedInstance
from .ranking import Scorer


def evaluate_selection(model: Scorer, instances: Sequence[RankingInstance]) -> dict:
    """Accuracy, MRR, R@1, R@2 on a response-selection dataset."""
    if not instances:
        raise DataError("no instances to evaluate")
    acc, mrr, r1, r2 = [], [], [], []
    pairs = 0
    for inst, scores in zip(instances, _scores(model, instances)):
        pos = inst.positive_position
        negs = [s for i, s in enumerate(scores) if i != pos]
        acc.append(pairwise_accuracy(scores[pos], negs))
        pairs += len(negs)
        relevance = [1.0 if i == pos else 0.0 for i in range(len(scores))]
        in_order = ranked_relevance(scores, relevance)
        mrr.append(reciprocal_rank(in_order))
        r1.append(recall_at_k(in_order, 1))
        r2.append(recall_at_k(in_order, min(2, len(in_order))))
    return {
        "accuracy": float(np.mean(acc)),
        "mrr": float(np.mean(mrr)),
        "r_at_1": float(np.mean(r1)),
        "r_at_2": float(np.mean(r2)),
        "instances": len(instances),
        "pairs": pairs,
    }


def evaluate_rated(model: Scorer, instances: Sequence[RatedInstance]) -> dict:
    """Accuracy, MRR, R@1, nDCG on a rated turn-coherence test set."""
    if not instances:
        raise DataError("no instances to evaluate")
    if any(c.mean_rating is None for inst in instances for c in inst.candidates):
        raise DataError("rated evaluation requires a mean rating per candidate")
    acc, mrr, r1, ndcgs = [], [], [], []
    acc_pairs = 0
    for inst, scores in zip(instances, _scores(model, instances)):
        ratings = [c.mean_rating for c in inst.candidates]
        instance_acc, n_pairs = graded_pairwise_accuracy(scores, ratings)
        if n_pairs:
            acc.append(instance_acc)
            acc_pairs += n_pairs
        relevance = dynamic_relevance(ratings)
        in_order = ranked_relevance(scores, relevance)
        mrr.append(reciprocal_rank(in_order))
        r1.append(recall_at_k(in_order, 1))
        ndcgs.append(ndcg_from_scores(scores, ratings))
    return {
        "accuracy": float(np.mean(acc)) if acc else 0.0,
        "mrr": float(np.mean(mrr)),
        "r_at_1": float(np.mean(r1)),
        "ndcg": float(np.mean(ndcgs)),
        "instances": len(instances),
        "accuracy_pairs": acc_pairs,
    }


def _scores(model: Scorer, instances) -> list[np.ndarray]:
    """Every instance's candidate scores, from one call for the whole set."""
    return model.score_candidates(
        [(inst.context, [c.turn for c in inst.candidates]) for inst in instances]
    )


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
