"""Flat sequential encodings of dialogue structure for the neural scorers.

A dialogue (optionally with a candidate next turn appended) is linearized
turn by turn into aligned id channels. Each turn gives a run of positions,
each a (mention or None, DA token or None), by the encoding's mode:

- entities mode: one position per entity mention in appearance order; a turn
  without mentions gives a single <no_ent> position.
- DA mode: one position per segment's DA label.
- entities+DA mode: one position per mention, segment by segment, with the
  DA token in IOB2 over segments (B- on a segment's first position); an
  empty segment gives one <no_ent> position carrying its B- tag.

The word and role channels read a position's mention (<no_ent> for None),
the da channel its DA token, and the turn channel tags the run in IOB2 over
turns: B-<speaker> at a turn's first position and I-<speaker> after it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import NO_ENT, EntityMention, Turn, Vocab, Vocabularies
from .errors import DataError

CHANNELS = ("word", "role", "da", "turn")


@dataclass(frozen=True)
class EncodingConfig:
    """The channels a stream carries and the vocabularies they index."""

    channels: tuple[str, ...]
    vocabularies: Vocabularies

    @property
    def mode(self) -> str:
        if "da" not in self.channels:
            return "entities"
        return "entities_da" if {"word", "role"} & set(self.channels) else "da"

    @cached_property
    def _da_vocab(self) -> Vocab:
        v = self.vocabularies
        return v.iob_da() if self.mode == "entities_da" else v.da

    def vocab(self, channel: str) -> Vocab:
        """The vocabulary a channel indexes into (the da channel's is
        IOB2-expanded when entities and DAs are combined, built once per
        config)."""
        if channel == "da":
            return self._da_vocab
        v = self.vocabularies
        return {"word": v.words, "role": v.roles, "turn": v.turn}[channel]


@dataclass(frozen=True)
class TokenStream:
    """Aligned parallel id channels, each `length` long."""

    length: int
    ids: dict[str, np.ndarray]


def _positions(turn: Turn, mode: str) -> list[tuple[EntityMention | None, str | None]]:
    """A turn's positions in the given mode: (mention, DA token) each."""
    if mode == "entities":
        return [(m, None) for m in turn.mentions()] or [(None, None)]
    if mode == "da":
        return [(None, seg.da) for seg in turn.segments]
    return [
        (m, f"{'I' if i else 'B'}-{seg.da}")
        for seg in turn.segments
        for i, m in enumerate(seg.entities or (None,))
    ]


def linearize(turns: Sequence[Turn], cfg: EncodingConfig) -> TokenStream:
    """Encode a turn sequence into aligned id channels per the configured mode.

    Unknown heads fall back to <unk>; an unknown role or DA label is an error.
    """
    if not turns:
        raise DataError("cannot linearize an empty turn sequence")
    mode = cfg.mode
    mentions, das, tags = [], [], []
    for turn in turns:
        for i, (mention, da) in enumerate(_positions(turn, mode)):
            mentions.append(mention)
            das.append(da)
            tags.append(f"{'I' if i else 'B'}-{turn.speaker}")
    if not tags:
        raise DataError("no positions emitted (turns without segments?)")
    v = cfg.vocabularies

    def column(ch: str) -> list[int]:
        if ch == "word":
            no_ent = v.words.id(NO_ENT)
            return [no_ent if m is None else v.word_id(m.head) for m in mentions]
        if ch == "role":
            return [v.roles.id(NO_ENT if m is None else m.role) for m in mentions]
        index = cfg.vocab(ch).id
        return [index(t) for t in (das if ch == "da" else tags)]

    ids = {ch: np.array(column(ch), dtype=np.int64) for ch in cfg.channels}
    return TokenStream(len(tags), ids)


def encode_pairwise_inputs(
    context: Sequence[Turn],
    candidate: Turn,
    cfg: EncodingConfig,
    head: TokenStream | None = None,
) -> TokenStream:
    """Linearize the context with the candidate appended as the final turn.

    Linearization is per turn, so this is the context's stream followed by
    the candidate's. `head` is linearize(context, cfg) when the caller has
    it, so that a context shared by several candidates is linearized once.
    A context or a candidate without positions is an error, as a turn
    without segments is to every loader."""
    if not context:
        raise DataError("pairwise encoding requires a nonempty context")
    head = linearize(context, cfg) if head is None else head
    tail = linearize((candidate,), cfg)
    ids = {ch: np.concatenate((head.ids[ch], tail.ids[ch])) for ch in cfg.channels}
    return TokenStream(head.length + tail.length, ids)
