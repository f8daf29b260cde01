"""Candidate ranking with the pessimistic tie rule."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..corpus import Turn
from ..errors import NumericError
from ..metrics import pessimistic_order
from ..swapgen import Candidate


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
    relevance = [candidate_relevance(c) for c in candidates]
    order = pessimistic_order(scores, relevance)
    return [
        RankedCandidate(rank=r + 1, index=i, score=float(scores[i]), candidate=candidates[i])
        for r, i in enumerate(order)
    ]
