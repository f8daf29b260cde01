"""Entity grids and transition-probability features.

A dialogue becomes a turn-by-entity grid of grammatical roles (Barzilay &
Lapata 2008, "Modeling Local Coherence: An Entity-based Approach"). Counting
the length-k windows down each kept column (roles) or along the flat DA
sequence yields normalized transition-frequency vectors, the classic grid
features: plain float64 arrays indexed lexicographically over the symbol
alphabet, e.g. "SS", "SO", ..., "--" for k = 2. Every window's index is built
with k array slices and all of them are counted by one np.bincount.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Dialogue, Vocab
from .errors import DataError

# Fixed symbol order for role-transition indexing; "-" marks an absent entity.
ROLE_SYMBOLS = ("S", "O", "X", "-")
ABSENT = len(ROLE_SYMBOLS) - 1
_ROLE_CODE = {r: i for i, r in enumerate(ROLE_SYMBOLS)}


@dataclass(frozen=True)
class TransitionConfig:
    """k is the transition window length (history h = k - 1); saliency is the
    minimum mention count for an entity column to be kept."""

    k: int = 2
    saliency: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise DataError("transition length k must be >= 2")
        if self.saliency < 1:
            raise DataError("saliency must be >= 1")


@dataclass(frozen=True)
class EntityGrid:
    """Rows are turns, columns are distinct entity heads, cells are role codes."""

    heads: tuple[str, ...]
    cells: np.ndarray  # (n_turns, n_entities) int8 codes into ROLE_SYMBOLS


def build_grid(d: Dialogue) -> EntityGrid:
    """Construct the entity grid; a multi-mention turn keeps the highest role
    under precedence S > O > X. A dialogue without entities gives 0 columns."""
    heads: list[str] = []
    col: dict[str, int] = {}
    for turn in d.turns:
        for m in turn.mentions():
            if m.head not in col:
                col[m.head] = len(heads)
                heads.append(m.head)
    cells = np.full((len(d.turns), len(heads)), ABSENT, dtype=np.int8)
    for t, turn in enumerate(d.turns):
        for m in turn.mentions():
            code = _ROLE_CODE[m.role]
            e = col[m.head]
            if code < cells[t, e]:
                cells[t, e] = code
    return EntityGrid(heads=tuple(heads), cells=cells)


def _window_frequencies(codes: np.ndarray, k: int, base: int) -> np.ndarray:
    """Frequencies of every length-k window along the rows of a (rows, n)
    code array, pooled over rows: counts divided by rows * (n - k + 1), or
    all zeros when there is no window."""
    rows, n = codes.shape
    if rows == 0 or n < k:
        return np.zeros(base**k, dtype=np.float64)
    windows = n - k + 1
    idx = codes[:, :windows].astype(np.int64)
    for j in range(1, k):
        idx = idx * base + codes[:, j : j + windows]
    return np.bincount(idx.ravel(), minlength=base**k) / (rows * windows)


def entity_transition_features(g: EntityGrid, cfg: TransitionConfig) -> np.ndarray:
    """Frequencies of role windows down the grid columns.

    Columns mentioned fewer than cfg.saliency times are dropped; counts are
    divided by the total window count m * (n - k + 1) so the vector sums to 1
    whenever at least one window exists.
    """
    kept = (g.cells != ABSENT).sum(axis=0) >= cfg.saliency
    return _window_frequencies(g.cells.T[kept], cfg.k, len(ROLE_SYMBOLS))


def da_sequence(d: Dialogue) -> list[str]:
    """The dialogue's DA labels, segment order within turn order."""
    return [seg.da for turn in d.turns for seg in turn.segments]


def da_transition_features(seq: Sequence[str], cfg: TransitionConfig, vocab: Vocab) -> np.ndarray:
    """Frequencies of DA windows along the sequence, divided by n - k + 1."""
    codes = np.array([[vocab.id(t) for t in seq]], dtype=np.int64)
    return _window_frequencies(codes, cfg.k, len(vocab))
