"""Flat sequential encodings of dialogue structure for the neural scorers.

A dialogue (optionally with a candidate next turn appended) is linearized
into aligned id channels:

- entities mode: one position per entity mention in appearance order; a turn
  without mentions contributes a single <no_ent> position.
- DA mode: one position per DA label.
- entities+DA mode: mention positions ordered within each segment, with the
  DA channel in IOB2 over segments (B- on a segment's first position); an
  empty segment contributes one <no_ent> position carrying its B- tag.

The optional turn channel is IOB2 over turns (B-A/I-A/B-B/I-B); every turn's
first position carries a B tag. All emitted channels share the same length.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import NO_ENT, Turn, Vocab, Vocabularies
from .errors import DataError

CHANNELS = ("word", "role", "da", "turn")


@dataclass(frozen=True)
class EncodingConfig:
    use_word: bool
    use_role: bool
    use_da: bool
    use_turn: bool
    vocabularies: Vocabularies

    def __post_init__(self):
        if not (self.use_word or self.use_role or self.use_da):
            raise ValueError("at least one of word/role/da channels must be enabled")

    @property
    def mode(self) -> str:
        if self.use_da and (self.use_word or self.use_role):
            return "entities_da"
        if self.use_da:
            return "da"
        return "entities"

    @property
    def channels(self) -> tuple[str, ...]:
        on = {
            "word": self.use_word,
            "role": self.use_role,
            "da": self.use_da,
            "turn": self.use_turn,
        }
        return tuple(c for c in CHANNELS if on[c])

    def da_vocab(self) -> Vocab:
        """The vocabulary the da channel indexes into (IOB2-expanded when
        entities and DAs are combined)."""
        v = self.vocabularies
        return v.iob_da() if self.mode == "entities_da" else v.da


@dataclass(frozen=True)
class TokenStream:
    """Aligned parallel id channels; absent channels are None."""

    length: int
    word_ids: np.ndarray | None = None
    role_ids: np.ndarray | None = None
    da_ids: np.ndarray | None = None
    turn_ids: np.ndarray | None = None

    def channel(self, name: str) -> np.ndarray | None:
        return getattr(self, f"{name}_ids")


def _turn_tag_id(vocab: Vocab, speaker: str, first: bool) -> int:
    prefix = "B" if first else "I"
    tag = f"{prefix}-{speaker}"
    tid = vocab.get(tag)
    if tid is None:
        raise DataError(f"turn tag {tag!r} not in turn vocabulary")
    return tid


def linearize(turns: Sequence[Turn], cfg: EncodingConfig) -> TokenStream:
    """Encode a turn sequence into aligned id channels per the configured mode.

    Unknown heads fall back to <unk>; an unknown role or DA label is an error.
    """
    if not turns:
        raise DataError("cannot linearize an empty turn sequence")
    v = cfg.vocabularies
    mode = cfg.mode
    no_ent_word = v.words.id(NO_ENT)
    no_ent_role = v.roles.id(NO_ENT)

    words: list[int] = []
    roles: list[int] = []
    das: list[int] = []
    tags: list[int] = []

    def emit(head: str | None, role: str | None, da_id: int | None):
        if cfg.use_word:
            words.append(no_ent_word if head is None else v.word_id(head))
        if cfg.use_role:
            roles.append(no_ent_role if role is None else v.roles.id(role))
        if da_id is not None:
            das.append(da_id)

    if mode == "entities":
        for turn in turns:
            start = max(len(words), len(roles))
            mentions = turn.mentions()
            if mentions:
                for m in mentions:
                    emit(m.head, m.role, None)
            else:
                emit(None, None, None)
            if cfg.use_turn:
                end = max(len(words), len(roles))
                for pos in range(start, end):
                    tags.append(_turn_tag_id(v.turn, turn.speaker, pos == start))
    elif mode == "da":
        base = v.da
        for turn in turns:
            for si, seg in enumerate(turn.segments):
                das.append(base.id(seg.da))
                if cfg.use_turn:
                    tags.append(_turn_tag_id(v.turn, turn.speaker, si == 0))
    else:  # entities_da
        iob = cfg.da_vocab()
        for turn in turns:
            turn_start = len(das)
            for seg in turn.segments:
                b_id = iob.id(f"B-{seg.da}")
                i_id = iob.id(f"I-{seg.da}")
                if seg.entities:
                    for mi, m in enumerate(seg.entities):
                        emit(m.head, m.role, b_id if mi == 0 else i_id)
                else:
                    emit(None, None, b_id)
            if cfg.use_turn:
                for pos in range(turn_start, len(das)):
                    tags.append(_turn_tag_id(v.turn, turn.speaker, pos == turn_start))

    lengths = {len(c) for c in (words, roles, das, tags) if c}
    if not lengths:
        raise DataError("no positions emitted (turns without segments?)")
    if len(lengths) != 1:
        raise DataError(f"channel lengths diverged: {sorted(lengths)}")
    (length,) = lengths

    def arr(xs: list[int]) -> np.ndarray | None:
        return np.array(xs, dtype=np.int64) if xs else None

    return TokenStream(
        length=length,
        word_ids=arr(words),
        role_ids=arr(roles),
        da_ids=arr(das),
        turn_ids=arr(tags),
    )


def encode_pairwise_inputs(
    context: Sequence[Turn], candidate: Turn, cfg: EncodingConfig
) -> TokenStream:
    """Linearize the context with the candidate appended as the final turn."""
    if not context:
        raise DataError("pairwise encoding requires a nonempty context")
    return linearize([*context, candidate], cfg)


def stream_rows(stream: TokenStream, cfg: EncodingConfig) -> list[tuple[str, ...]]:
    """Decode a stream back to token strings, one tuple per position."""
    v = cfg.vocabularies
    lookups = {
        "word": v.words,
        "role": v.roles,
        "da": cfg.da_vocab(),
        "turn": v.turn,
    }
    rows = []
    for pos in range(stream.length):
        row = []
        for name in cfg.channels:
            ids = stream.channel(name)
            row.append(lookups[name].token(int(ids[pos])))
        rows.append(tuple(row))
    return rows

