"""Shared corpus builders and reference implementations for the test suite."""
from __future__ import annotations

import json
from typing import Sequence

import numpy as np
import pytest

from dialcoh.corpus import (
    Dialogue,
    EntityMention,
    Segment,
    Turn,
    Vocab,
    Vocabularies,
    derive_vocabularies,
    turn_to_dict,
)
from dialcoh.engine.rnn import GruCellParams
from dialcoh.grid import ABSENT, ROLE_SYMBOLS, EntityGrid, TransitionConfig
from dialcoh.models.linear import LinearRankerConfig
from dialcoh.swapgen import RankingInstance, RatedInstance

DA_TAGS = ("b", "qy", "sd")
HEADS = ("movie", "iowa", "hands", "crafts", "california", "utah", "midwest", "hobbies")


def turn(speaker: str, *segments: Segment) -> Turn:
    return Turn(speaker, tuple(segments))


def seg(da: str, entities=(), text=None) -> Segment:
    return Segment(da, tuple(EntityMention(h, r) for h, r in entities), text)


def simple_dialogue() -> Dialogue:
    """Three turns, one recurring entity."""
    return Dialogue(
        id="d1",
        turns=(
            turn("A", seg("sd", [("movie", "O")], "I saw a movie")),
            turn("B", seg("qy", [], "really?")),
            turn("A", seg("sd", [("movie", "S")], "the movie was great")),
        ),
    )


def synthetic_dialogue(i: int, n_turns: int, rng: np.random.Generator | None = None) -> Dialogue:
    """A dialogue with unique per-turn text and light entity/DA annotation."""
    rng = rng or np.random.default_rng(i)
    turns = []
    for t in range(n_turns):
        n_ents = int(rng.integers(0, 3))
        entities = tuple(
            EntityMention(str(rng.choice(HEADS)), str(rng.choice(("S", "O", "X"))))
            for _ in range(n_ents)
        )
        turns.append(
            Turn(
                "A" if t % 2 == 0 else "B",
                (Segment(str(rng.choice(DA_TAGS)), entities, f"dialogue {i} turn {t}"),),
            )
        )
    return Dialogue(id=f"syn{i:04d}", turns=tuple(turns))


def synthetic_corpus(n_dialogues: int, n_turns: int = 12, seed: int = 0) -> list[Dialogue]:
    rng = np.random.default_rng(seed)
    return [synthetic_dialogue(i, n_turns, rng) for i in range(n_dialogues)]


@pytest.fixture
def corpus():
    return synthetic_corpus(6, 12, seed=42)


@pytest.fixture
def vocabs(corpus):
    return derive_vocabularies(corpus)


def turn_fingerprint(turn: Turn) -> str:
    """Content identity of a turn (speaker excluded) as sorted-key JSON of its
    DA labels, mentions and text: the oracle that equality of `Turn.segments`
    must agree with."""
    payload = [
        {
            "da": seg.da,
            "entities": [[m.head, m.role] for m in seg.entities],
            "text": seg.text,
        }
        for seg in turn.segments
    ]
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"), sort_keys=True)


def instance_to_dict(inst: RankingInstance) -> dict:
    """The dict of one dataset record: the oracle of `swapgen.save_instances`,
    which writes it as compact JSON with ensure_ascii=False."""
    return {
        "dialogue_id": inst.dialogue_id,
        "point_index": inst.point_index,
        "context": [turn_to_dict(t) for t in inst.context],
        "candidates": [
            {"provenance": c.provenance, "turn": turn_to_dict(c.turn)} for c in inst.candidates
        ],
        "positive_position": inst.positive_position,
    }


def rated_instance_to_dict(inst: RatedInstance) -> dict:
    """The dict of one rated record: the oracle of `swapgen.save_rated_testset`."""
    obj: dict = {}
    if inst.instance_id is not None:
        obj["id"] = inst.instance_id
    obj["context"] = [turn_to_dict(t) for t in inst.context]
    cands = []
    for c in inst.candidates:
        rec: dict = {"provenance": c.provenance, "turn": turn_to_dict(c.turn)}
        if c.ratings is not None:
            rec["ratings"] = list(c.ratings)
        else:
            rec["mean_rating"] = c.mean_rating
        cands.append(rec)
    obj["candidates"] = cands
    return obj


def oracle_jsonl(records) -> bytes:
    """Compact non-ASCII JSON lines of record dicts, as the writers must emit."""
    return "".join(
        json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n" for r in records
    ).encode("utf-8")


def logistic_reference(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) computed separately on each sign's elements: the
    oracle the branch-free `autodiff.logistic` must equal bit for bit."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_reference(x: np.ndarray, p: GruCellParams, reverse: bool = False) -> np.ndarray:
    """The GRU formulas scanned one step at a time from a zero state, in the
    dtype of x: the oracle the fused `run_gru` is checked against."""
    w = {name: t.data for name, t in vars(p).items()}
    h = np.zeros((x.shape[0], p.hidden_size), dtype=x.dtype)
    out = np.empty(x.shape[:2] + (p.hidden_size,), dtype=x.dtype)
    for t in range(x.shape[1])[::-1] if reverse else range(x.shape[1]):
        r = logistic_reference(x[:, t] @ w["w_r"].T + h @ w["u_r"].T + w["b_r"])
        z = logistic_reference(x[:, t] @ w["w_z"].T + h @ w["u_z"].T + w["b_z"])
        c = np.tanh(x[:, t] @ w["w_h"].T + (r * h) @ w["u_h"].T + w["b_h"])
        h = (1.0 - z) * h + z * c
        out[:, t] = h
    return out


def reference_grid(turns: Sequence[Turn]) -> EntityGrid:
    """The entity grid built cell by cell, keeping the highest role of a
    turn's mentions (S > O > X): the oracle for `grid.build_grid`."""
    heads: list[str] = []
    for turn in turns:
        for m in turn.mentions():
            if m.head not in heads:
                heads.append(m.head)
    cells = np.full((len(turns), len(heads)), ABSENT, dtype=np.int8)
    for t, turn in enumerate(turns):
        for m in turn.mentions():
            e = heads.index(m.head)
            cells[t, e] = min(cells[t, e], ROLE_SYMBOLS.index(m.role))
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
    """Frequencies of role windows down the kept columns of one whole grid:
    the per-sequence oracle for `grid.entity_features`."""
    kept = (g.cells != ABSENT).sum(axis=0) >= cfg.saliency
    return _window_frequencies(g.cells.T[kept], cfg.k, len(ROLE_SYMBOLS))


def da_sequence(d: Dialogue) -> list[str]:
    """The dialogue's DA labels, segment order within turn order."""
    return [seg.da for turn in d.turns for seg in turn.segments]


def da_transition_features(seq: Sequence[str], cfg: TransitionConfig, vocab: Vocab) -> np.ndarray:
    """Frequencies of DA windows along one whole sequence, divided by
    n - k + 1: the per-sequence oracle for `grid.da_features`."""
    codes = np.array([[vocab.id(t) for t in seq]], dtype=np.int64)
    return _window_frequencies(codes, cfg.k, len(vocab))


def sequence_features(
    turns: Sequence[Turn], config: LinearRankerConfig, vocabularies: Vocabularies
) -> np.ndarray:
    """The configured feature vector of one turn sequence, counted on its
    own: the oracle each row of `linear.extract_features` must equal."""
    tcfg = TransitionConfig(k=config.k, saliency=config.saliency)
    blocks = []
    if config.features != "da":
        blocks.append(entity_transition_features(reference_grid(turns), tcfg))
    if config.features != "entity":
        blocks.append(
            da_transition_features(da_sequence(Dialogue(id="_", turns=tuple(turns))), tcfg,
                                   vocabularies.da)
        )
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
