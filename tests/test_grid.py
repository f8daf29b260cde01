import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialcoh.corpus import Dialogue, EntityMention, Segment, Turn, Vocab
from dialcoh.errors import DataError
from dialcoh.grid import (
    ROLE_SYMBOLS,
    EntityGrid,
    TransitionConfig,
    build_grid,
    da_sequence,
    da_transition_features,
    entity_transition_features,
    joint_features,
    transition_labels,
)

from conftest import seg, turn


def grid_from_columns(columns: dict[str, list[str]]) -> EntityGrid:
    """Build a grid directly from per-entity role columns ('-' = absent)."""
    heads = tuple(columns)
    n = len(next(iter(columns.values())))
    code = {r: i for i, r in enumerate(ROLE_SYMBOLS)}
    cells = np.array(
        [[code[columns[h][t]] for h in heads] for t in range(n)], dtype=np.int8
    )
    return EntityGrid(heads=heads, cells=cells)


def label_map(vec):
    return dict(zip(transition_labels(vec.symbols, vec.k, sep="|"), vec.values))


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
        g = build_grid(d)
        assert g.heads == ("movie",)
        assert [g.role_at(t, 0) for t in range(3)] == ["O", "-", "S"]

    def test_role_precedence(self):
        d = Dialogue(
            id="d",
            turns=(turn("A", seg("sd", [("movie", "X"), ("movie", "S")])),),
        )
        g = build_grid(d)
        assert g.role_at(0, 0) == "S"

    def test_no_entities(self):
        d = Dialogue(id="d", turns=(turn("A", seg("sd")),))
        g = build_grid(d)
        assert g.n_entities == 0
        assert g.n_turns == 1


class TestEntityTransitionFeatures:
    def test_two_column_hand_enumeration(self):
        # columns [O,-,S] and [-,X,-], k=2: windows O-, -S, -X, X-, each 1/4
        g = grid_from_columns({"a": ["O", "-", "S"], "b": ["-", "X", "-"]})
        vec = entity_transition_features(g, TransitionConfig(k=2, saliency=1))
        m = label_map(vec)
        assert m["O|-"] == pytest.approx(0.25)
        assert m["-|S"] == pytest.approx(0.25)
        assert m["-|X"] == pytest.approx(0.25)
        assert m["X|-"] == pytest.approx(0.25)
        assert sum(1 for v in vec.values if v != 0) == 4
        assert len(vec.values) == 16

    def test_single_repeating_column(self):
        g = grid_from_columns({"a": ["S", "S"]})
        vec = entity_transition_features(g, TransitionConfig(k=2))
        assert label_map(vec)["S|S"] == pytest.approx(1.0)

    def test_saliency_drops_all_columns(self):
        g = grid_from_columns({"a": ["S", "-"], "b": ["-", "O"]})
        vec = entity_transition_features(g, TransitionConfig(k=2, saliency=2))
        assert not vec.values.any()

    def test_short_dialogue_zero_vector(self):
        g = grid_from_columns({"a": ["S"]})
        vec = entity_transition_features(g, TransitionConfig(k=2))
        assert not vec.values.any()

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
        m = dict(zip(itertools.product(ROLE_SYMBOLS, repeat=k), vec.values))
        for window, freq in m.items():
            assert freq == pytest.approx(expected.get(window, 0.0), abs=1e-12)
        if expected:
            assert vec.values.sum() == pytest.approx(1.0)

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
        np.testing.assert_allclose(base.values, permuted.values)


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
        m = label_map(vec)
        assert m["sd|qy"] == pytest.approx(2 / 3)
        assert m["qy|sd"] == pytest.approx(1 / 3)
        assert vec.values.sum() == pytest.approx(1.0)

    def test_too_short_is_zero(self):
        vec = da_transition_features(["sd"], TransitionConfig(k=2), Vocab(("qy", "sd")))
        assert not vec.values.any()

    def test_uniform_sequence(self):
        vec = da_transition_features(["b", "b", "b"], TransitionConfig(k=2), Vocab(("b",)))
        assert vec.values[0] == pytest.approx(1.0)

    def test_unknown_tag(self):
        with pytest.raises(DataError):
            da_transition_features(["zz"], TransitionConfig(k=2), Vocab(("b",)))


class TestJointFeatures:
    def test_lengths_concatenate(self):
        vocab = Vocab(("qy", "sd"))
        cfg = TransitionConfig(k=2)
        ev = entity_transition_features(grid_from_columns({"a": ["S", "O"]}), cfg)
        dv = da_transition_features(["sd", "qy"], cfg, vocab)
        joint = joint_features(ev, dv)
        assert len(joint) == 16 + 4
        np.testing.assert_allclose(joint[:16], ev.values)
        np.testing.assert_allclose(joint[16:], dv.values)

    def test_zero_blocks(self):
        vocab = Vocab(("qy", "sd"))
        cfg = TransitionConfig(k=2)
        ev = entity_transition_features(grid_from_columns({"a": ["S"]}), cfg)
        dv = da_transition_features(["sd"], cfg, vocab)
        assert not joint_features(ev, dv).any()

    def test_k_mismatch(self):
        ev = entity_transition_features(grid_from_columns({"a": ["S", "O"]}), TransitionConfig(k=2))
        dv = da_transition_features(["sd", "qy"], TransitionConfig(k=3), Vocab(("qy", "sd")))
        with pytest.raises(DataError):
            joint_features(ev, dv)
