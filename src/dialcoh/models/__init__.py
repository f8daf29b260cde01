"""Coherence scorers: the biGRU ranker, the linear grid-feature ranker, and
their shared ranking, evaluation, and checkpoint machinery."""

from .checkpoint import load_checkpoint, save_checkpoint
from .evaluate import (
    RankedCandidate,
    evaluate_rated,
    evaluate_selection,
    rank_candidates,
    summarize_runs,
)
from .linear import (
    LinearRanker,
    LinearRankerConfig,
    build_pair_features,
    ranking_accuracy,
    train_linear_ranker,
)
from .neural import (
    NeuralConfig,
    NeuralScorer,
    TrainHistory,
    forward_scores,
    train_neural,
)

__all__ = [
    "LinearRanker",
    "LinearRankerConfig",
    "NeuralConfig",
    "NeuralScorer",
    "RankedCandidate",
    "TrainHistory",
    "build_pair_features",
    "evaluate_rated",
    "evaluate_selection",
    "forward_scores",
    "load_checkpoint",
    "rank_candidates",
    "ranking_accuracy",
    "save_checkpoint",
    "summarize_runs",
    "train_linear_ranker",
    "train_neural",
]
