"""Entity grids and transition-probability features.

A dialogue becomes a turn-by-entity grid of grammatical roles. Counting the
length-k windows down each column (roles) or along the flat DA sequence
yields normalized transition-frequency vectors, the classic grid features.
"""
from __future__ import annotations

import itertools
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

    @property
    def n_turns(self) -> int:
        return self.cells.shape[0]

    @property
    def n_entities(self) -> int:
        return self.cells.shape[1]

    def column(self, e: int) -> np.ndarray:
        return self.cells[:, e]

    def role_at(self, t: int, e: int) -> str:
        return ROLE_SYMBOLS[self.cells[t, e]]


@dataclass(frozen=True)
class TransitionVector:
    """Normalized frequencies of every length-k symbol window, in fixed
    lexicographic index order over the symbol alphabet."""

    values: np.ndarray
    symbols: tuple[str, ...]
    k: int


def transition_labels(symbols: Sequence[str], k: int, sep: str = "") -> tuple[str, ...]:
    """Window names in index order, e.g. ("SS", "SO", ..., "--")."""
    return tuple(sep.join(combo) for combo in itertools.product(symbols, repeat=k))


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


def _kept_columns(g: EntityGrid, saliency: int) -> list[np.ndarray]:
    cols = []
    for e in range(g.n_entities):
        column = g.column(e)
        if int((column != ABSENT).sum()) >= saliency:
            cols.append(column.astype(np.int64))
    return cols


def _window_index(codes: np.ndarray, start: int, k: int, base: int) -> int:
    idx = 0
    for j in range(k):
        idx = idx * base + int(codes[start + j])
    return idx


def entity_transition_features(g: EntityGrid, cfg: TransitionConfig) -> TransitionVector:
    """Frequencies of role windows down the grid columns.

    Columns mentioned fewer than cfg.saliency times are dropped; counts are
    divided by the total window count m * (n - k + 1) so the vector sums to 1
    whenever at least one window exists.
    """
    base = len(ROLE_SYMBOLS)
    values = np.zeros(base**cfg.k, dtype=np.float64)
    cols = _kept_columns(g, cfg.saliency)
    n = g.n_turns
    if not cols or n < cfg.k:
        return TransitionVector(values=values, symbols=ROLE_SYMBOLS, k=cfg.k)
    for column in cols:
        for t in range(n - cfg.k + 1):
            values[_window_index(column, t, cfg.k, base)] += 1.0
    values /= len(cols) * (n - cfg.k + 1)
    return TransitionVector(values=values, symbols=ROLE_SYMBOLS, k=cfg.k)


def da_sequence(d: Dialogue) -> list[str]:
    """The dialogue's DA labels, segment order within turn order."""
    return [seg.da for turn in d.turns for seg in turn.segments]


def da_transition_features(
    seq: Sequence[str], cfg: TransitionConfig, vocab: Vocab
) -> TransitionVector:
    """Frequencies of DA windows along the sequence, divided by n - k + 1."""
    base = len(vocab)
    values = np.zeros(base**cfg.k, dtype=np.float64)
    codes = np.array([vocab.id(t) for t in seq], dtype=np.int64)
    n = len(codes)
    if n >= cfg.k:
        for t in range(n - cfg.k + 1):
            values[_window_index(codes, t, cfg.k, base)] += 1.0
        values /= n - cfg.k + 1
    return TransitionVector(values=values, symbols=tuple(vocab.tokens), k=cfg.k)


def joint_features(ev: TransitionVector, dv: TransitionVector) -> np.ndarray:
    """Concatenate entity and DA transition vectors, entity block first."""
    if ev.k != dv.k:
        raise DataError(f"transition length mismatch: {ev.k} vs {dv.k}")
    return np.concatenate([ev.values, dv.values])
