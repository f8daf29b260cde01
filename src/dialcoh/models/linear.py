"""Linear pairwise ranker over grid transition features.

The preference-ranking objective is the linear RankSVM one: for each
(positive, negative) feature pair minimize

    sum_i max(0, 1 - w . (pos_i - neg_i)) + l2 * ||w||^2

by seeded stochastic subgradient descent. There is no bias term; it cancels
in the difference. Candidates are scored by w . features(context + candidate),
where `extract_features` computes the features of all candidates of one
context at once and counts the context's windows a single time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus import Turn, Vocabularies
from ..errors import DataError
from ..grid import ROLE_SYMBOLS, TransitionConfig, da_features, entity_features
from ..swapgen import RankingInstance

FEATURE_SETS = ("entity", "da", "joint")


@dataclass(frozen=True)
class LinearRankerConfig:
    features: str = "joint"  # entity | da | joint
    k: int = 2
    saliency: int = 1
    l2: float = 1e-4
    lr: float = 0.1
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.features not in FEATURE_SETS:
            raise DataError(f"unknown feature set {self.features!r}")
        TransitionConfig(k=self.k, saliency=self.saliency)  # raises on k < 2, saliency < 1

    def to_dict(self) -> dict:
        return {
            "features": self.features,
            "k": self.k,
            "saliency": self.saliency,
            "l2": self.l2,
            "lr": self.lr,
            "epochs": self.epochs,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "LinearRankerConfig":
        return cls(**obj)


class LinearRanker:
    """Grid-feature scorer with a learned weight vector (float32 storage so
    checkpoints round-trip bit-exactly)."""

    def __init__(self, config: LinearRankerConfig, vocabularies: Vocabularies, weights: np.ndarray):
        self.config = config
        self.vocabularies = vocabularies
        self.weights = np.asarray(weights, dtype=np.float32)
        expected = feature_dim(config, vocabularies)
        if self.weights.shape != (expected,):
            raise DataError(
                f"weight vector has shape {self.weights.shape}, expected ({expected},)"
            )
        self.manifest: dict = {}

    def score_candidates(
        self, pairs: Sequence[tuple[Sequence[Turn], Sequence[Turn]]]
    ) -> list[np.ndarray]:
        """Scores of each (context, candidates) pair's candidates; features
        are extracted per pair and each score is its own float32 product, so
        a score does not depend on its batch."""
        out = []
        for context, candidates in pairs:
            features = extract_features(context, candidates, self.config, self.vocabularies)
            out.append(np.asarray(
                [float(self.weights @ f) for f in features.astype(np.float32)], dtype=np.float64
            ))
        return out

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights}


def feature_dim(config: LinearRankerConfig, vocabularies: Vocabularies) -> int:
    ent = len(ROLE_SYMBOLS) ** config.k
    da = len(vocabularies.da) ** config.k
    return {"entity": ent, "da": da, "joint": ent + da}[config.features]


def extract_features(
    context: Sequence[Turn],
    candidates: Sequence[Turn],
    config: LinearRankerConfig,
    vocabularies: Vocabularies,
) -> np.ndarray:
    """The configured transition-frequency vector of each sequence
    `[*context, candidate]`, one row per candidate: joint features are the
    entity block followed by the DA block."""
    tcfg = TransitionConfig(k=config.k, saliency=config.saliency)
    blocks = []
    if config.features != "da":
        blocks.append(entity_features(context, candidates, tcfg))
    if config.features != "entity":
        blocks.append(da_features(context, candidates, tcfg, vocabularies.da))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def build_pair_features(
    instances: Sequence[RankingInstance],
    config: LinearRankerConfig,
    vocabularies: Vocabularies,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (positive, negative) feature pair per adversarial candidate."""
    pairs = []
    for inst in instances:
        vectors = extract_features(
            inst.context, [cand.turn for cand in inst.candidates], config, vocabularies
        )
        pos = vectors[inst.positive_position]
        pairs.extend((pos, vec) for i, vec in enumerate(vectors) if i != inst.positive_position)
    return pairs


def train_linear_ranker(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    l2: float = 1e-4,
    lr: float = 0.1,
    epochs: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Seeded subgradient descent on the pairwise hinge objective.

    Returns the weight vector in float64; wrap it in a LinearRanker for
    scoring. The l2 shrink is applied per step at 1/len(pairs) of the full
    regularizer so one epoch matches one pass of the batch gradient.
    """
    if not pairs:
        raise DataError("no training pairs")
    dims = {p.shape for pair in pairs for p in pair}
    if len(dims) != 1:
        raise DataError(f"inconsistent feature dimensions: {sorted(dims)}")
    diffs = np.stack([np.asarray(pos, dtype=np.float64) - np.asarray(neg, dtype=np.float64)
                      for pos, neg in pairs])
    rows = list(zip(diffs, lr * diffs))  # row views, each step scaled once
    w = np.zeros(diffs.shape[1], dtype=np.float64)
    rng = np.random.default_rng(seed)
    shrink = max(0.0, 1.0 - 2.0 * lr * l2 / len(pairs))
    for _ in range(epochs):
        for i in rng.permutation(len(rows)).tolist():
            d, step = rows[i]
            if w @ d < 1.0:
                w += step
            w *= shrink
    return w


def ranking_accuracy(w: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Fraction of pairs where the positive scores strictly higher (ties are
    counted as wrong)."""
    if not pairs:
        raise DataError("no pairs to evaluate")
    wins = sum(1 for pos, neg in pairs if w @ pos > w @ neg)
    return wins / len(pairs)
