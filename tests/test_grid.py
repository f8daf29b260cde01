import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialcoh.corpus import Dialogue, Vocab, derive_vocabularies
from dialcoh.errors import DataError
from dialcoh.grid import ROLE_SYMBOLS, EntityGrid, TransitionConfig, build_grid
from dialcoh.models.linear import FEATURE_SETS, LinearRankerConfig, extract_features, feature_dim

from conftest import (
    DA_TAGS,
    da_sequence,
    da_transition_features,
    entity_transition_features,
    reference_grid,
    seg,
    sequence_features,
    turn,
)


def grid_from_columns(columns: dict[str, list[str]]) -> EntityGrid:
    """Build a grid directly from per-entity role columns ('-' = absent)."""
    heads = tuple(columns)
    n = len(next(iter(columns.values())))
    code = {r: i for i, r in enumerate(ROLE_SYMBOLS)}
    cells = np.array(
        [[code[columns[h][t]] for h in heads] for t in range(n)], dtype=np.int8
    )
    return EntityGrid(heads=heads, cells=cells)


def label_map(values: np.ndarray, symbols, k: int) -> dict[str, float]:
    """Window names ("S|O", ...) in index order, mapped to their values."""
    names = ("|".join(w) for w in itertools.product(symbols, repeat=k))
    return dict(zip(names, values))


def roles(g: EntityGrid, e: int) -> list[str]:
    return [ROLE_SYMBOLS[c] for c in g.cells[:, e]]


def brute_force_window_freqs(columns: list[list[str]], k: int) -> dict[tuple, float]:
    """Independent window enumerator: count every length-k window down each
    column, divide by the total number of windows."""
    counts: dict[tuple, float] = {}
    total = 0
    for col in columns:
        for t in range(len(col) - k + 1):
            window = tuple(col[t : t + k])
            counts[window] = counts.get(window, 0) + 1
            total += 1
    return {w: c / total for w, c in counts.items()} if total else {}


# Heads the context draws from, and heads only candidates can mention.
CONTEXT_HEADS = ("movie", "iowa", "hands")
CANDIDATE_HEADS = CONTEXT_HEADS + ("utah", "crafts")
VOCABS = derive_vocabularies(
    [Dialogue(id="v", turns=tuple(turn("A", seg(da)) for da in DA_TAGS))]
)


def turn_strategy(heads, min_segments=0):
    """Turns of up to two segments, each with up to three mentions; one head
    may recur with different roles in the same turn."""
    mention = st.tuples(st.sampled_from(heads), st.sampled_from(ROLE_SYMBOLS[:-1]))
    segment = st.builds(seg, st.sampled_from(DA_TAGS), st.lists(mention, max_size=3))
    return st.builds(lambda segs: turn("A", *segs),
                     st.lists(segment, min_size=min_segments, max_size=2))


class TestBuildGrid:
    def test_direct_construction(self):
        d = Dialogue(
            id="d",
            turns=(
                turn("A", seg("sd", [("movie", "O")])),
                turn("B", seg("qy")),
                turn("A", seg("sd", [("movie", "S")])),
            ),
        )
        g = build_grid(d.turns)
        assert g.heads == ("movie",)
        assert roles(g, 0) == ["O", "-", "S"]

    def test_role_precedence(self):
        d = Dialogue(
            id="d",
            turns=(turn("A", seg("sd", [("movie", "X"), ("movie", "S")])),),
        )
        g = build_grid(d.turns)
        assert roles(g, 0) == ["S"]

    @given(turns=st.lists(turn_strategy(CANDIDATE_HEADS), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_cell_by_cell_reference(self, turns):
        got, expected = build_grid(turns), reference_grid(turns)
        assert got.heads == expected.heads
        np.testing.assert_array_equal(got.cells, expected.cells)
        assert got.cells.dtype == np.int8

    def test_no_entities(self):
        d = Dialogue(id="d", turns=(turn("A", seg("sd")),))
        g = build_grid(d.turns)
        assert g.cells.shape == (1, 0)


class TestEntityTransitionFeatures:
    def test_two_column_hand_enumeration(self):
        # columns [O,-,S] and [-,X,-], k=2: windows O-, -S, -X, X-, each 1/4
        g = grid_from_columns({"a": ["O", "-", "S"], "b": ["-", "X", "-"]})
        vec = entity_transition_features(g, TransitionConfig(k=2, saliency=1))
        m = label_map(vec, ROLE_SYMBOLS, 2)
        assert m["O|-"] == pytest.approx(0.25)
        assert m["-|S"] == pytest.approx(0.25)
        assert m["-|X"] == pytest.approx(0.25)
        assert m["X|-"] == pytest.approx(0.25)
        assert np.count_nonzero(vec) == 4
        assert vec.shape == (16,)

    def test_single_repeating_column(self):
        g = grid_from_columns({"a": ["S", "S"]})
        vec = entity_transition_features(g, TransitionConfig(k=2))
        assert label_map(vec, ROLE_SYMBOLS, 2)["S|S"] == pytest.approx(1.0)

    def test_saliency_drops_all_columns(self):
        g = grid_from_columns({"a": ["S", "-"], "b": ["-", "O"]})
        vec = entity_transition_features(g, TransitionConfig(k=2, saliency=2))
        assert not vec.any()

    def test_short_dialogue_zero_vector(self):
        g = grid_from_columns({"a": ["S"]})
        vec = entity_transition_features(g, TransitionConfig(k=2))
        assert not vec.any()

    @given(
        n_turns=st.integers(1, 5),
        n_ents=st.integers(1, 5),
        k=st.integers(2, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_enumerator(self, n_turns, n_ents, k, seed):
        rng = np.random.default_rng(seed)
        columns = {}
        for e in range(n_ents):
            col = [str(rng.choice(ROLE_SYMBOLS)) for _ in range(n_turns)]
            if all(c == "-" for c in col):
                col[int(rng.integers(n_turns))] = "S"
            columns[f"e{e}"] = col
        g = grid_from_columns(columns)
        vec = entity_transition_features(g, TransitionConfig(k=k, saliency=1))
        expected = brute_force_window_freqs(list(columns.values()), k)
        windows = list(itertools.product(ROLE_SYMBOLS, repeat=k))
        # Counts are integers, so the frequencies are exactly the enumerator's.
        assert dict(zip(windows, vec.tolist())) == {w: expected.get(w, 0.0) for w in windows}
        if expected:
            assert vec.sum() == pytest.approx(1.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_column_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        cols = {f"e{e}": [str(rng.choice(ROLE_SYMBOLS[:-1]))] + [
            str(rng.choice(ROLE_SYMBOLS)) for _ in range(3)
        ] for e in range(4)}
        cfg = TransitionConfig(k=2)
        base = entity_transition_features(grid_from_columns(cols), cfg)
        names = list(cols)
        rng.shuffle(names)
        permuted = entity_transition_features(
            grid_from_columns({n: cols[n] for n in names}), cfg
        )
        np.testing.assert_allclose(base, permuted)


class TestDaFeatures:
    def test_da_sequence_order(self):
        d = Dialogue(
            id="d",
            turns=(turn("A", seg("sd")), turn("B", seg("qy"), seg("b"))),
        )
        assert da_sequence(d) == ["sd", "qy", "b"]

    def test_single_segment(self):
        d = Dialogue(id="d", turns=(turn("A", seg("sd")),))
        assert da_sequence(d) == ["sd"]

    def test_hand_counted_bigrams(self):
        vocab = Vocab(("qy", "sd"))
        vec = da_transition_features(["sd", "qy", "sd", "qy"], TransitionConfig(k=2), vocab)
        m = label_map(vec, vocab.tokens, 2)
        assert m["sd|qy"] == pytest.approx(2 / 3)
        assert m["qy|sd"] == pytest.approx(1 / 3)
        assert vec.sum() == pytest.approx(1.0)

    def test_too_short_is_zero(self):
        vec = da_transition_features(["sd"], TransitionConfig(k=2), Vocab(("qy", "sd")))
        assert not vec.any()

    def test_uniform_sequence(self):
        vec = da_transition_features(["b", "b", "b"], TransitionConfig(k=2), Vocab(("b",)))
        assert vec[0] == pytest.approx(1.0)

    @given(
        seq=st.lists(st.sampled_from(["b", "qy", "sd"]), max_size=8),
        k=st.integers(2, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_enumerator(self, seq, k):
        vocab = Vocab(("b", "qy", "sd"))
        vec = da_transition_features(seq, TransitionConfig(k=k), vocab)
        expected = brute_force_window_freqs([seq], k)
        windows = list(itertools.product(vocab.tokens, repeat=k))
        assert dict(zip(windows, vec.tolist())) == {w: expected.get(w, 0.0) for w in windows}

    def test_unknown_tag(self):
        with pytest.raises(DataError):
            da_transition_features(["zz"], TransitionConfig(k=2), Vocab(("b",)))


class TestJointFeatures:
    """extract_features: per candidate, the entity block, the DA block, or
    both in that order."""

    TURNS = (
        turn("A", seg("sd", [("movie", "S")])),
        turn("B", seg("qy", [("movie", "O")]), seg("sd")),
        turn("A", seg("b", [("iowa", "X")])),
    )

    def test_lengths_concatenate(self):
        vocabs = derive_vocabularies([Dialogue(id="v", turns=self.TURNS)])
        d = Dialogue(id="d", turns=self.TURNS)
        for k in (2, 3):
            ev = entity_transition_features(build_grid(d.turns), TransitionConfig(k=k))
            dv = da_transition_features(da_sequence(d), TransitionConfig(k=k), vocabs.da)
            for features, expected in (("entity", ev), ("da", dv),
                                       ("joint", np.concatenate([ev, dv]))):
                config = LinearRankerConfig(features=features, k=k)
                got = extract_features(self.TURNS[:-1], self.TURNS[-1:], config, vocabs)
                assert got.shape == (1, feature_dim(config, vocabs))
                np.testing.assert_array_equal(got[0], expected)

    def test_zero_blocks(self):
        vocabs = derive_vocabularies([Dialogue(id="v", turns=self.TURNS)])
        got = extract_features((), self.TURNS[:1], LinearRankerConfig(), vocabs)
        assert got.shape == (1, feature_dim(LinearRankerConfig(), vocabs)) and not got.any()


def assert_rows_match_oracle(context, candidates, k, saliency, features):
    config = LinearRankerConfig(features=features, k=k, saliency=saliency)
    got = extract_features(context, candidates, config, VOCABS)
    assert got.shape == (len(candidates), feature_dim(config, VOCABS))
    for row, cand in zip(got, candidates):
        assert row.tobytes() == sequence_features([*context, cand], config, VOCABS).tobytes()


class TestPerContextFeatures:
    """Each row of extract_features(context, candidates) is bytewise the
    per-sequence oracle on [*context, candidate]."""

    @given(
        context=st.lists(turn_strategy(CONTEXT_HEADS, min_segments=1), max_size=6),
        candidates=st.lists(turn_strategy(CANDIDATE_HEADS), min_size=1, max_size=5),
        k=st.sampled_from((2, 3, 4)),
        saliency=st.sampled_from((1, 2, 3)),
        features=st.sampled_from(FEATURE_SETS),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, context, candidates, k, saliency, features):
        assert_rows_match_oracle(context, candidates, k, saliency, features)

    CONTEXT = (
        turn("A", seg("sd", [("movie", "S")])),
        turn("B", seg("qy", [("movie", "O"), ("iowa", "X")]), seg("b")),
        turn("A", seg("sd", [("iowa", "S")])),
        turn("B", seg("b")),
    )
    EDGES = {
        "context_shorter_than_k_minus_1": (CONTEXT[:1], [turn("B", seg("sd", [("movie", "O")]))]),
        "candidates_without_entities": (CONTEXT, [turn("B", seg("b")), turn("A", seg("qy"))]),
        "all_entities_new": (CONTEXT, [turn("B", seg("sd", [("utah", "S"), ("crafts", "O")])),
                                       turn("A", seg("b", [("utah", "X")]))]),
        "repeated_head_with_roles": (CONTEXT, [
            turn("B", seg("sd", [("movie", "X"), ("movie", "O")]),
                 seg("qy", [("movie", "S"), ("utah", "X")])),
            turn("A", seg("b", [("iowa", "X"), ("iowa", "X")])),
        ]),
        "single_candidate": (CONTEXT, [turn("B", seg("qy", [("iowa", "O")]))]),
        "candidate_without_segments": (CONTEXT, [turn("B"), turn("A", seg("sd"))]),
        "empty_context": ((), [turn("B", seg("sd", [("movie", "S")]), seg("b"))]),
    }

    @pytest.mark.parametrize("name", sorted(EDGES))
    def test_edges(self, name):
        context, candidates = self.EDGES[name]
        for k, saliency, features in itertools.product((2, 3, 4), (1, 2, 3), FEATURE_SETS):
            assert_rows_match_oracle(context, candidates, k, saliency, features)
