"""Shared corpus builders for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from dialcoh.corpus import (
    Dialogue,
    EntityMention,
    Segment,
    Turn,
    derive_vocabularies,
)
from dialcoh.engine.autodiff import logistic
from dialcoh.engine.rnn import GruCellParams

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


def gru_reference(x: np.ndarray, p: GruCellParams, reverse: bool = False) -> np.ndarray:
    """The GRU formulas scanned one step at a time from a zero state, in the
    dtype of x: the oracle the fused `run_gru` is checked against."""
    w = {name: t.data for name, t in vars(p).items()}
    h = np.zeros((x.shape[0], p.hidden_size), dtype=x.dtype)
    out = np.empty(x.shape[:2] + (p.hidden_size,), dtype=x.dtype)
    for t in range(x.shape[1])[::-1] if reverse else range(x.shape[1]):
        r = logistic(x[:, t] @ w["w_r"].T + h @ w["u_r"].T + w["b_r"])
        z = logistic(x[:, t] @ w["w_z"].T + h @ w["u_z"].T + w["b_z"])
        c = np.tanh(x[:, t] @ w["w_h"].T + (r * h) @ w["u_h"].T + w["b_h"])
        h = (1.0 - z) * h + z * c
        out[:, t] = h
    return out
