from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dialcoh.corpus import NO_ENT, UNK, derive_vocabularies
from dialcoh.errors import DataError
from dialcoh.linearize import CHANNELS, EncodingConfig, encode_pairwise_inputs, linearize
from dialcoh.models import NeuralConfig

from conftest import (
    linearize_reference,
    seg,
    stream_rows,
    synthetic_corpus,
    synthetic_dialogue,
    turn,
)

# Module-level vocabularies for hypothesis tests (fixtures are not reset
# between generated examples; these are read-only anyway).
VOCABS = derive_vocabularies(synthetic_corpus(6, 12, seed=42))


@pytest.fixture
def two_turn():
    """Turn A: movie/O under sd; turn B: no entities under qy."""
    return (
        turn("A", seg("sd", [("movie", "O")])),
        turn("B", seg("qy")),
    )


def enc(vocabs, word=False, role=False, da=False, turn=False):
    on = (word, role, da, turn)
    return EncodingConfig(tuple(c for c, use in zip(CHANNELS, on) if use), vocabs)


# Every channel subset NeuralConfig accepts: at least one of word/role/da.
CHANNEL_SETS = [
    chans
    for n in range(1, len(CHANNELS) + 1)
    for chans in combinations(CHANNELS, n)
    if chans != ("turn",)
]


class TestModes:
    def test_entities_mode_with_no_ent(self, vocabs, two_turn):
        cfg = enc(vocabs, word=True, role=True, turn=True)
        rows = stream_rows(linearize(two_turn, cfg), cfg)
        assert rows == [("movie", "O", "B-A"), (NO_ENT, NO_ENT, "B-B")]

    def test_da_mode(self, vocabs, two_turn):
        cfg = enc(vocabs, da=True, turn=True)
        rows = stream_rows(linearize(two_turn, cfg), cfg)
        assert rows == [("sd", "B-A"), ("qy", "B-B")]

    def test_entities_da_iob(self, vocabs):
        turns = (turn("A", seg("sd", [("iowa", "X"), ("hands", "X")])),)
        cfg = enc(vocabs, word=True, da=True, turn=True)
        rows = stream_rows(linearize(turns, cfg), cfg)
        assert rows == [("iowa", "B-sd", "B-A"), ("hands", "I-sd", "I-A")]

    def test_da_vocab_is_built_once_per_config(self, vocabs):
        cfg = enc(vocabs, word=True, da=True)
        iob = cfg.vocab("da")
        assert iob.tokens == vocabs.iob_da().tokens
        assert cfg.vocab("da") is iob
        plain = enc(vocabs, da=True)
        assert plain.vocab("da") is vocabs.da

    def test_entities_da_empty_segment_emits_no_ent(self, vocabs, two_turn):
        cfg = enc(vocabs, word=True, role=True, da=True)
        rows = stream_rows(linearize(two_turn, cfg), cfg)
        assert rows == [("movie", "O", "B-sd"), (NO_ENT, NO_ENT, "B-qy")]

    def test_multi_segment_turn_iob(self, vocabs):
        turns = (
            turn("A", seg("sd", [("movie", "S")]), seg("qy", [("hands", "O"), ("iowa", "X")])),
        )
        cfg = enc(vocabs, word=True, da=True, turn=True)
        rows = stream_rows(linearize(turns, cfg), cfg)
        assert rows == [
            ("movie", "B-sd", "B-A"),
            ("hands", "B-qy", "I-A"),
            ("iowa", "I-qy", "I-A"),
        ]

    def test_da_mode_multi_segment_turn_tags(self, vocabs):
        turns = (turn("A", seg("sd"), seg("qy")), turn("B", seg("b")))
        cfg = enc(vocabs, da=True, turn=True)
        rows = stream_rows(linearize(turns, cfg), cfg)
        assert rows == [("sd", "B-A"), ("qy", "I-A"), ("b", "B-B")]

    def test_unknown_head_falls_back_to_unk(self, vocabs):
        turns = (turn("A", seg("sd", [("zebra", "S")])),)
        cfg = enc(vocabs, word=True)
        assert stream_rows(linearize(turns, cfg), cfg) == [(UNK,)]

    def test_unknown_da_is_error(self, vocabs):
        turns = (turn("A", seg("zzz")),)
        cfg = enc(vocabs, da=True)
        with pytest.raises(DataError):
            linearize(turns, cfg)

    def test_empty_input_is_error(self, vocabs):
        with pytest.raises(DataError):
            linearize((), enc(vocabs, word=True))

    def test_config_requires_content_channel(self):
        with pytest.raises(DataError, match="at least one of word/role/da"):
            NeuralConfig(channels=("turn",))


class TestPairwiseEncoding:
    def test_covers_context_plus_candidate(self, vocabs, two_turn):
        cfg = enc(vocabs, word=True, turn=True)
        stream = encode_pairwise_inputs(two_turn, turn("A", seg("sd", [("movie", "S")])), cfg)
        assert stream.length == 3

    def test_candidate_changes_only_suffix(self, vocabs, two_turn):
        cfg = enc(vocabs, word=True, role=True, turn=True)
        a = encode_pairwise_inputs(two_turn, turn("A", seg("sd", [("movie", "S")])), cfg)
        b = encode_pairwise_inputs(two_turn, turn("A", seg("sd", [("hands", "O")])), cfg)
        np.testing.assert_array_equal(a.ids["word"][:2], b.ids["word"][:2])
        assert a.ids["word"][2] != b.ids["word"][2]

    def test_true_next_turn_matches_full_dialogue(self, vocabs):
        d = synthetic_dialogue(3, 6)
        cfg = enc(vocabs, word=True, role=True, turn=True)
        stream = encode_pairwise_inputs(d.turns[:4], d.turns[4], cfg)
        full = linearize(d.turns[:5], cfg)
        assert stream.length == full.length
        np.testing.assert_array_equal(stream.ids["word"], full.ids["word"])

    def test_empty_context_is_error(self, vocabs, two_turn):
        with pytest.raises(DataError):
            encode_pairwise_inputs((), two_turn[0], enc(vocabs, word=True))


@st.composite
def dialogues(draw):
    n_turns = draw(st.integers(1, 6))
    ds = []
    for t in range(n_turns):
        n_segs = draw(st.integers(1, 3))
        segs = []
        for _ in range(n_segs):
            n_ents = draw(st.integers(0, 3))
            ents = [
                (draw(st.sampled_from(["movie", "iowa", "hands", "unknowable"])),
                 draw(st.sampled_from(["S", "O", "X"])))
                for _ in range(n_ents)
            ]
            segs.append(seg(draw(st.sampled_from(["b", "qy", "sd"])), ents))
        ds.append(turn(draw(st.sampled_from(["A", "B"])), *segs))
    return tuple(ds)


class TestInvariants:
    @given(turns=dialogues(), channels=st.sampled_from(CHANNEL_SETS))
    @settings(max_examples=80, deadline=None)
    def test_channel_alignment(self, turns, channels):
        cfg = EncodingConfig(channels, VOCABS)
        stream = linearize(turns, cfg)
        assert set(stream.ids) == set(cfg.channels)
        for ids in stream.ids.values():
            assert ids.shape == (stream.length,)

    @given(turns=dialogues(), channels=st.sampled_from(CHANNEL_SETS))
    @settings(max_examples=80, deadline=None)
    def test_turn_channel_well_formed(self, turns, channels):
        cfg = EncodingConfig(channels, VOCABS)
        if "turn" not in cfg.channels:
            return
        tags = [VOCABS.turn.token(int(i)) for i in linearize(turns, cfg).ids["turn"]]
        assert tags[0].startswith("B-")
        for prev, cur in zip(tags, tags[1:]):
            if cur.startswith("I-"):
                assert prev[2:] == cur[2:]

    @given(turns=dialogues())
    @settings(max_examples=40, deadline=None)
    def test_length_lower_bounds(self, turns):
        n_segments = sum(len(t.segments) for t in turns)
        ent_cfg = enc(VOCABS, word=True, role=True)
        assert linearize(turns, ent_cfg).length >= len(turns)
        both_cfg = enc(VOCABS, word=True, da=True)
        assert linearize(turns, both_cfg).length >= n_segments

    @given(turns=dialogues(), channels=st.sampled_from(CHANNEL_SETS))
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, turns, channels):
        cfg = EncodingConfig(channels, VOCABS)
        a = linearize(turns, cfg)
        b = linearize(turns, cfg)
        for name in cfg.channels:
            np.testing.assert_array_equal(a.ids[name], b.ids[name])


def outcome(encode, turns, cfg):
    """The stream an encoder returns, or the type of the exception it raises."""
    try:
        return encode(turns, cfg)
    except Exception as exc:  # the type is what is compared
        return type(exc)


def assert_same_outcome(turns, cfg):
    got, want = outcome(linearize, turns, cfg), outcome(linearize_reference, turns, cfg)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert got.length == want.length
    assert set(got.ids) == set(want.ids) == set(cfg.channels)
    for ch in cfg.channels:
        assert got.ids[ch].dtype == want.ids[ch].dtype == np.int64
        assert got.ids[ch].tobytes() == want.ids[ch].tobytes(), ch


@st.composite
def rough_dialogues(draw):
    """Turn sequences that are sometimes bad: no turns, turns without
    segments, an unknown DA label, role or speaker."""
    turns = []
    for _ in range(draw(st.integers(0, 5))):
        segs = []
        for _ in range(draw(st.integers(0, 3))):
            ents = [
                (draw(st.sampled_from(["movie", "iowa", "unknowable"])),
                 draw(st.sampled_from(["S", "O", "X"] * 6 + ["Q"])))
                for _ in range(draw(st.integers(0, 3)))
            ]
            segs.append(seg(draw(st.sampled_from(["b", "qy", "sd"] * 6 + ["zzz"])), ents))
        turns.append(turn(draw(st.sampled_from(["A", "B"] * 9 + ["C"])), *segs))
    return tuple(turns)


class TestMatchesReference:
    """`linearize` equals the mode-by-mode reference on every channel subset:
    the same length and id bytes, or the same exception type."""

    @pytest.mark.parametrize("channels", CHANNEL_SETS, ids="+".join)
    def test_every_context_prefix(self, channels):
        cfg = EncodingConfig(channels, VOCABS)
        for d in synthetic_corpus(4, 10, seed=7):
            for n in range(len(d.turns) + 1):
                assert_same_outcome(d.turns[:n], cfg)

    @given(turns=rough_dialogues(), channels=st.sampled_from(CHANNEL_SETS))
    @settings(max_examples=200, deadline=None)
    def test_rough_dialogues(self, turns, channels):
        assert_same_outcome(turns, EncodingConfig(channels, VOCABS))

    @given(turns=rough_dialogues(), channels=st.sampled_from(CHANNEL_SETS))
    @settings(max_examples=200, deadline=None)
    def test_pairwise_stream_is_the_context_stream_then_the_candidate(self, turns, channels):
        """Linearization is per turn: the context's stream, linearized once,
        followed by the candidate's is the whole sequence linearized; and a
        context or candidate that linearizes to an error, or to no positions,
        is a DataError."""
        assume(len(turns) >= 2)
        cfg = EncodingConfig(channels, VOCABS)
        context, candidate = turns[:-1], turns[-1]
        parts = [outcome(linearize, part, cfg) for part in (context, (candidate,))]
        if any(isinstance(part, type) for part in parts):
            with pytest.raises(DataError):
                encode_pairwise_inputs(context, candidate, cfg)
            return
        got = encode_pairwise_inputs(context, candidate, cfg, parts[0])
        want = linearize(turns, cfg)
        assert got.length == want.length
        for ch in cfg.channels:
            assert got.ids[ch].tobytes() == want.ids[ch].tobytes(), ch

    @pytest.mark.parametrize("channels", CHANNEL_SETS, ids="+".join)
    def test_bad_input_raises_the_same_type(self, channels):
        cfg = EncodingConfig(channels, VOCABS)
        bad = [()]
        if "da" in channels:  # a DA label is only looked up when the stream carries it
            bad.append((turn("A", seg("zzz", [("movie", "S")])),))
        for turns in bad:
            assert outcome(linearize, turns, cfg) is DataError
            assert_same_outcome(turns, cfg)

