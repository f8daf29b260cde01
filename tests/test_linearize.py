import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialcoh.corpus import NO_ENT, UNK, derive_vocabularies
from dialcoh.errors import DataError
from dialcoh.linearize import (
    EncodingConfig,
    encode_pairwise_inputs,
    linearize,
    stream_rows,
)

from conftest import seg, synthetic_corpus, synthetic_dialogue, turn

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
    return EncodingConfig(word, role, da, turn, vocabs)


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

    def test_config_requires_content_channel(self, vocabs):
        with pytest.raises(ValueError):
            EncodingConfig(False, False, False, True, vocabs)


class TestPairwiseEncoding:
    def test_covers_context_plus_candidate(self, vocabs, two_turn):
        cfg = enc(vocabs, word=True, turn=True)
        stream = encode_pairwise_inputs(two_turn, turn("A", seg("sd", [("movie", "S")])), cfg)
        assert stream.length == 3

    def test_candidate_changes_only_suffix(self, vocabs, two_turn):
        cfg = enc(vocabs, word=True, role=True, turn=True)
        a = encode_pairwise_inputs(two_turn, turn("A", seg("sd", [("movie", "S")])), cfg)
        b = encode_pairwise_inputs(two_turn, turn("A", seg("sd", [("hands", "O")])), cfg)
        np.testing.assert_array_equal(a.word_ids[:2], b.word_ids[:2])
        assert a.word_ids[2] != b.word_ids[2]

    def test_true_next_turn_matches_full_dialogue(self, vocabs):
        d = synthetic_dialogue(3, 6)
        cfg = enc(vocabs, word=True, role=True, turn=True)
        stream = encode_pairwise_inputs(d.turns[:4], d.turns[4], cfg)
        full = linearize(d.turns[:5], cfg)
        assert stream.length == full.length
        np.testing.assert_array_equal(stream.word_ids, full.word_ids)

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


CONFIG_FLAGS = [
    (True, False, False, False),
    (True, True, False, True),
    (False, False, True, True),
    (True, False, True, True),
    (True, True, True, True),
]


class TestInvariants:
    @given(turns=dialogues(), flags=st.sampled_from(CONFIG_FLAGS))
    @settings(max_examples=80, deadline=None)
    def test_channel_alignment(self, turns, flags):
        cfg = EncodingConfig(*flags, vocabularies=VOCABS)
        stream = linearize(turns, cfg)
        for name in cfg.channels:
            assert len(stream.channel(name)) == stream.length
        for name in set(("word", "role", "da", "turn")) - set(cfg.channels):
            assert stream.channel(name) is None

    @given(turns=dialogues(), flags=st.sampled_from(CONFIG_FLAGS))
    @settings(max_examples=80, deadline=None)
    def test_turn_channel_well_formed(self, turns, flags):
        cfg = EncodingConfig(*flags, vocabularies=VOCABS)
        if not cfg.use_turn:
            return
        tags = [VOCABS.turn.token(int(i)) for i in linearize(turns, cfg).turn_ids]
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

    @given(turns=dialogues(), flags=st.sampled_from(CONFIG_FLAGS))
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, turns, flags):
        cfg = EncodingConfig(*flags, vocabularies=VOCABS)
        a = linearize(turns, cfg)
        b = linearize(turns, cfg)
        for name in cfg.channels:
            np.testing.assert_array_equal(a.channel(name), b.channel(name))

