"""Dataset-level evaluation: response selection and graded coherence rating.

Both are one rated evaluation. A rated instance's gains are its candidates'
mean ratings; a selection instance's gains are 1.0 at the positive position
and 0.0 elsewhere. Each instance is ranked once under the pessimistic tie
rule. MRR and R@k find the candidates reaching the top gain in that order,
nDCG (rating only) reads the ranked gains, and accuracy counts the pairs
with distinct gains, which for selection are the (positive, negative)
pairs. Corpus metrics are arithmetic means of per-instance values.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DataError
from ..metrics import (
    graded_pairwise_accuracy,
    ndcg,
    pessimistic_order,
    recall_at_k,
    reciprocal_rank,
)
from ..swapgen import RankingInstance, RatedInstance
from .ranking import Scorer, check_finite


def evaluate_selection(model: Scorer, instances: Sequence[RankingInstance]) -> dict:
    """Accuracy, MRR, R@1, R@2 on a response-selection dataset."""
    if any(len(inst.candidates) < 2 for inst in instances):
        raise DataError("selection needs at least one negative candidate per instance")
    ranked, accuracy, pairs = _rank(model, instances, "selection", [
        [float(i == inst.positive_position) for i in range(len(inst.candidates))]
        for inst in instances
    ])
    return {
        "accuracy": float(np.mean(accuracy)),
        "mrr": _mean(reciprocal_rank, ranked),
        "r_at_1": _mean(lambda g: recall_at_k(g, 1), ranked),
        "r_at_2": _mean(lambda g: recall_at_k(g, min(2, g.shape[-1])), ranked),
        "instances": len(instances),
        "pairs": pairs,
    }


def evaluate_rated(model: Scorer, instances: Sequence[RatedInstance]) -> dict:
    """Accuracy, MRR, R@1, nDCG on a rated turn-coherence test set."""
    if any(c.mean_rating is None for inst in instances for c in inst.candidates):
        raise DataError("rated evaluation requires a mean rating per candidate")
    ranked, accuracy, pairs = _rank(
        model, instances, "rating",
        [[c.mean_rating for c in inst.candidates] for inst in instances],
    )
    return {
        "accuracy": float(np.mean(accuracy)) if accuracy else 0.0,
        "mrr": _mean(reciprocal_rank, ranked),
        "r_at_1": _mean(lambda g: recall_at_k(g, 1), ranked),
        "ndcg": _mean(ndcg, ranked),
        "instances": len(instances),
        "accuracy_pairs": pairs,
    }


def _rank(
    model: Scorer, instances, stage: str, gains: list[list[float]]
) -> tuple[list[list[float]], list[float], int]:
    """Each instance's gains in pessimistic rank order, the pairwise accuracy
    of each instance with a pair of distinct gains, and the number of those
    pairs, from one scoring call for the whole set. A score that is not
    finite raises NumericError naming the stage and the instance."""
    if not instances:
        raise DataError("no instances to evaluate")
    all_scores = model.score_candidates(
        [(inst.context, [c.turn for c in inst.candidates]) for inst in instances]
    )
    ranked, accuracy, pairs = [], [], 0
    for n, (g, scores) in enumerate(zip(gains, all_scores)):
        check_finite(scores, f"{stage} evaluation, instance {n}")
        ranked.append([g[i] for i in pessimistic_order(scores, g)])
        instance_accuracy, n_pairs = graded_pairwise_accuracy(scores, g)
        if n_pairs:
            accuracy.append(instance_accuracy)
            pairs += n_pairs
    return ranked, accuracy, pairs


def _mean(metric: Callable[[np.ndarray], np.ndarray], ranked: list[list[float]]) -> float:
    """The mean of a last-axis metric over the ranked gains, with the
    rankings of each length scored in one call."""
    values = np.empty(len(ranked))
    for n in {len(g) for g in ranked}:
        rows = [i for i, g in enumerate(ranked) if len(g) == n]
        values[rows] = metric(np.array([ranked[i] for i in rows]))
    return float(np.mean(values))


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
