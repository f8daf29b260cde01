"""Entity grids and transition-probability features, counted per context.

A dialogue becomes a turn-by-entity grid of grammatical roles (Barzilay &
Lapata 2008, "Modeling Local Coherence: An Entity-based Approach"). Counting
the length-k windows down each kept column (roles) or along the flat DA
sequence yields normalized transition-frequency vectors, the classic grid
features: plain float64 arrays indexed lexicographically over the symbol
alphabet, e.g. "SS", "SO", ..., "--" for k = 2.

Every candidate next turn of an instance shares the instance's context, so
the features of all sequences `[*context, candidate]` are computed together.
The context's windows are counted once: per entity column as integer
histograms, and once along the DA sequence. Each candidate then adds only
the windows that end in its row (or reach into its DA segments); a
candidate's mentions decide which columns reach `saliency` and are kept.
Counts are integers, so each row equals the frequencies of its sequence
counted on its own, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Turn, Vocab
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


def build_grid(turns: Sequence[Turn]) -> EntityGrid:
    """Construct the entity grid; a multi-mention turn keeps the highest role
    under precedence S > O > X. Turns without entities give 0 columns."""
    col: dict[str, int] = {}  # head -> column, in order of first mention
    best: dict[tuple[int, int], int] = {}  # (turn, column) -> highest role code
    for t, turn in enumerate(turns):
        for m in turn.mentions():
            cell = (t, col.setdefault(m.head, len(col)))
            code = _ROLE_CODE[m.role]
            if code < best.get(cell, ABSENT):
                best[cell] = code
    cells = np.full((len(turns), len(col)), ABSENT, dtype=np.int8)
    if best:
        cells[tuple(zip(*best))] = list(best.values())
    return EntityGrid(heads=tuple(col), cells=cells)


def _window_index(codes: np.ndarray, k: int, base: int) -> np.ndarray:
    """Index of every length-k window along the rows of a (rows, n) code
    array: a (rows, n - k + 1) int64 array, built with k slices."""
    windows = codes.shape[1] - k + 1
    idx = codes[:, :windows].astype(np.int64)
    for j in range(1, k):
        idx = idx * base + codes[:, j : j + windows]
    return idx


def _histograms(idx: np.ndarray, dim: int, keep: np.ndarray | None = None) -> np.ndarray:
    """Integer (rows, dim) histograms of the window indices in each row of a
    2-d index array (only where `keep` is true), counted by one np.bincount
    with row offsets."""
    offsets = idx + np.arange(idx.shape[0], dtype=np.int64)[:, None] * dim
    if keep is not None:
        offsets = offsets[keep]
    return np.bincount(offsets.ravel(), minlength=idx.shape[0] * dim).reshape(-1, dim)


def _frequencies(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Counts divided row-wise by their integer window totals; a row without
    windows has zero counts and stays zero."""
    return counts / np.maximum(totals, 1)[:, None]


def entity_features(
    context: Sequence[Turn], candidates: Sequence[Turn], cfg: TransitionConfig
) -> np.ndarray:
    """(len(candidates), 4**k) frequencies of role windows down the columns
    of each `[*context, candidate]` grid.

    Columns mentioned fewer than cfg.saliency times are dropped; counts are
    divided by the kept window count m * (n - k + 1), so a row sums to 1
    whenever it has at least one window.
    """
    base, k = len(ROLE_SYMBOLS), cfg.k
    dim = base**k
    c = len(context)
    # One grid whose first c rows are the context and whose row c + j is
    # candidate j: a head that only candidates mention has an absent context.
    cells = build_grid([*context, *candidates]).cells
    ctx, rows = cells[:c], cells[c:]
    kept = (ctx != ABSENT).sum(axis=0) + (rows != ABSENT) >= cfg.saliency  # (J, E)
    windows = c + 2 - k  # per column of a (c + 1)-row grid
    if windows < 1:
        return np.zeros((len(candidates), dim), dtype=np.float64)
    # Each column's last window: the context's last k - 1 roles, then the candidate's.
    prefix = _window_index(ctx[c + 1 - k :].T, k - 1, base)[:, 0]
    counts = _histograms(prefix * base + rows, dim, kept)
    # The context's own windows, counted once per column.
    counts += kept.astype(np.int64) @ _histograms(_window_index(ctx.T, k, base), dim)
    return _frequencies(counts, kept.sum(axis=1) * windows)


def da_features(
    context: Sequence[Turn], candidates: Sequence[Turn], cfg: TransitionConfig, vocab: Vocab
) -> np.ndarray:
    """(len(candidates), len(vocab)**k) frequencies of DA windows along each
    `[*context, candidate]` sequence (segment order within turn order),
    divided by its window count n - k + 1."""
    base, k = len(vocab), cfg.k
    dim = base**k
    ctx = [vocab.id(seg.da) for turn in context for seg in turn.segments]
    # A candidate's new windows run over the context's last k - 1 tags and its own.
    tail = ctx[max(0, len(ctx) + 1 - k) :]
    seqs = [tail + [vocab.id(da) for da in cand.da_labels()] for cand in candidates]
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    counts = np.zeros((len(seqs), dim), dtype=np.int64)
    width = int(lengths.max(initial=0))
    if width >= k:
        padded = np.zeros((len(seqs), width), dtype=np.int64)
        padded[np.arange(width) < lengths[:, None]] = [code for s in seqs for code in s]
        inside = np.arange(width + 1 - k) + k <= lengths[:, None]
        counts += _histograms(_window_index(padded, k, base), dim, inside)
    if len(ctx) >= k:  # the context's own windows, counted once
        counts += _histograms(_window_index(np.array([ctx], dtype=np.int64), k, base), dim)
    return _frequencies(counts, len(ctx) - len(tail) + lengths + 1 - k)
