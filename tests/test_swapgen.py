import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialcoh.cli import main
from dialcoh.corpus import Dialogue, EntityMention, Segment, Turn, save_corpus
from dialcoh.errors import CorpusFormatError, DataError, InsufficientPoolError
from dialcoh.swapgen import (
    PROVENANCES,
    Candidate,
    RankingInstance,
    RatedInstance,
    RecordCache,
    _context_lengths,
    _interned,
    _negatives,
    build_selection_dataset,
    instance_from_dict,
    load_instances,
    load_rated_testset,
    rated_instance_from_dict,
    save_instances,
    save_rated_testset,
)

from conftest import (
    instance_to_dict,
    oracle_jsonl,
    rated_instance_to_dict,
    seg,
    synthetic_corpus,
    synthetic_dialogue,
    turn,
    turn_fingerprint,
)


def unique_dialogue(i: int, n_turns: int) -> Dialogue:
    """Every turn textually unique (so fingerprints never collide)."""
    return Dialogue(
        id=f"u{i:03d}",
        turns=tuple(
            turn("A" if t % 2 == 0 else "B", seg("sd", [], f"dlg {i} turn {t}"))
            for t in range(n_turns)
        ),
    )


def flat(split):
    """The split's (dialogue id, turn) pairs in corpus order, as
    `build_selection_dataset` hands them to `_negatives`."""
    return [(d.id, t) for d in split for t in d.turns]


class TestInsertionPoints:
    def test_unbounded_sampling(self):
        d = unique_dialogue(0, 12)
        lengths = _context_lengths(d, 10, None, np.random.default_rng(7))
        assert len(lengths) == 10
        assert lengths == sorted(set(lengths))
        assert all(1 <= c <= 11 for c in lengths)

    def test_exhaustion_returns_all(self):
        d = unique_dialogue(0, 2)
        assert _context_lengths(d, 10, None, np.random.default_rng(3)) == [1]
        assert _context_lengths(unique_dialogue(0, 5), 10, None, np.random.default_rng(3)) == [
            1, 2, 3, 4]

    def test_ctx_range_cap(self):
        d = unique_dialogue(0, 30)
        lengths = _context_lengths(d, 10, (1, 10), np.random.default_rng(11))
        assert lengths == list(range(1, 11))
        lengths = _context_lengths(d, 5, (3, 12), np.random.default_rng(11))
        assert len(lengths) == 5 and all(3 <= c <= 12 for c in lengths)

    def test_too_short_dialogue(self):
        d = unique_dialogue(0, 1)
        with pytest.raises(DataError, match="no admissible"):
            _context_lengths(d, 1, None, np.random.default_rng(0))
        with pytest.raises(DataError, match="no admissible"):
            build_selection_dataset([unique_dialogue(1, 6), d], points_per_dialogue=1, n_neg=1)

    def test_deterministic_given_seed(self):
        d = unique_dialogue(0, 40)
        a = _context_lengths(d, 10, None, np.random.default_rng(5))
        b = _context_lengths(d, 10, None, np.random.default_rng(5))
        assert a == b


class TestSampleNegatives:
    def test_internal_strictly_after_positive(self):
        d = unique_dialogue(0, 12)
        negs = _negatives(d, 5, "internal", 3, flat([d]), np.random.default_rng(1))
        assert len(negs) == 3
        later = {turn_fingerprint(t) for t in d.turns[6:]}
        fps = [turn_fingerprint(t) for t in negs]
        assert len(set(fps)) == 3
        assert all(fp in later for fp in fps)

    def test_internal_insufficient_pool(self):
        d = unique_dialogue(0, 6)
        with pytest.raises(InsufficientPoolError):
            _negatives(d, 4, "internal", 3, flat([d]), np.random.default_rng(1))

    def test_external_excludes_source_dialogue(self):
        split = [unique_dialogue(i, 8) for i in range(4)]
        negs = _negatives(split[0], 3, "external", 5, flat(split), np.random.default_rng(9))
        assert len(negs) == 5
        own = {turn_fingerprint(t) for t in split[0].turns}
        assert all(turn_fingerprint(t) not in own for t in negs)

    def test_external_needs_other_dialogue(self):
        d = unique_dialogue(0, 8)
        with pytest.raises(InsufficientPoolError, match="at least one other dialogue"):
            build_selection_dataset([d], points_per_dialogue=1, n_neg=1, mode="external")

    def test_never_returns_turn_identical_to_positive(self):
        # Other dialogues consist entirely of copies of the positive turn.
        base = unique_dialogue(0, 6)
        positive = base.turns[2]
        clone = Dialogue(id="clones", turns=tuple([positive] * 6))
        with pytest.raises(InsufficientPoolError):
            _negatives(base, 2, "external", 1, flat([base, clone]), np.random.default_rng(0))

    def test_mixed_pool_skips_positive_clones(self):
        base = unique_dialogue(0, 6)
        positive = base.turns[2]
        other = Dialogue(
            id="mix",
            turns=(positive, unique_dialogue(9, 2).turns[0], positive, positive),
        )
        negs = _negatives(base, 2, "external", 1, flat([base, other]), np.random.default_rng(4))
        assert turn_fingerprint(negs[0]) != turn_fingerprint(positive)


class TestBuildDataset:
    @pytest.mark.parametrize("split, kwargs, error, message", [
        ([], {}, DataError, "empty split"),
        ([unique_dialogue(0, 6)] * 2, {}, DataError, "duplicate dialogue ids"),
        (None, {"points_per_dialogue": 0}, DataError, "number of insertion points must be >= 1"),
        (None, {"mode": "bogus"}, DataError, "unknown sampling mode 'bogus'"),
        (None, {"n_neg": 0}, DataError, "negative count must be >= 1"),
        ([unique_dialogue(0, 30)], {"mode": "external"}, InsufficientPoolError,
         "at least one other dialogue"),
    ], ids=["empty", "duplicate-ids", "no-points", "mode", "no-negatives", "external-alone"])
    def test_arguments_are_checked_on_entry(self, split, kwargs, error, message):
        if split is None:
            split = [unique_dialogue(i, 30) for i in range(2)]
        with pytest.raises(error, match=message):
            build_selection_dataset(split, **{"n_neg": 1, **kwargs})
    def test_pair_count_identity(self):
        split = [unique_dialogue(i, 21) for i in range(4)]
        for mode in ("internal", "external"):
            instances, manifest = build_selection_dataset(
                split, points_per_dialogue=10, n_neg=9, mode=mode, seed=5, ctx_range=(1, 10)
            )
            assert manifest["insertion_points"] == 40
            assert manifest["pairs"] == 360
            assert all(len(i.candidates) == 10 for i in instances)

    @given(seed=st.integers(0, 1000), mode=st.sampled_from(["internal", "external"]))
    @settings(max_examples=20, deadline=None)
    def test_invariants_across_seeds(self, seed, mode):
        split = [unique_dialogue(i, 15) for i in range(3)]
        instances, manifest = build_selection_dataset(
            split, points_per_dialogue=3, n_neg=2, mode=mode, seed=seed, ctx_range=(1, 5)
        )
        assert manifest["pairs"] == manifest["insertion_points"] * 2
        by_id = {d.id: d for d in split}
        for inst in instances:
            d = by_id[inst.dialogue_id]
            assert inst.context == d.turns[: len(inst.context)]
            positive = inst.candidates[inst.positive_position]
            assert positive.provenance == "original"
            assert turn_fingerprint(positive.turn) == turn_fingerprint(d.turns[len(inst.context)])
            for c in inst.candidates:
                if c.provenance == "original":
                    continue
                fp = turn_fingerprint(c.turn)
                if mode == "internal":
                    later = [turn_fingerprint(t) for t in d.turns[len(inst.context) + 1 :]]
                    assert fp in later
                else:
                    own = {turn_fingerprint(t) for t in d.turns}
                    assert fp not in own

    def test_canonical_order_independent_of_input_order(self):
        split = [unique_dialogue(i, 12) for i in range(4)]
        a, _ = build_selection_dataset(
            split, points_per_dialogue=2, n_neg=2, seed=3, ctx_range=(1, 9)
        )
        b, _ = build_selection_dataset(
            split[::-1], points_per_dialogue=2, n_neg=2, seed=3, ctx_range=(1, 9)
        )
        assert a == b

    def test_same_seed_byte_identical_files(self, tmp_path):
        split = [unique_dialogue(i, 14) for i in range(3)]
        digests = []
        for run in range(2):
            instances, _ = build_selection_dataset(
                split, points_per_dialogue=4, n_neg=3, mode="internal", seed=11,
                ctx_range=(1, 10),
            )
            path = tmp_path / f"ds{run}.jsonl"
            save_instances(instances, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_different_seeds_differ(self):
        split = [unique_dialogue(i, 30) for i in range(2)]
        a, _ = build_selection_dataset(
            split, points_per_dialogue=5, n_neg=2, seed=1, ctx_range=(1, 20)
        )
        b, _ = build_selection_dataset(
            split, points_per_dialogue=5, n_neg=2, seed=2, ctx_range=(1, 20)
        )
        assert a != b

    def test_round_trip(self, tmp_path):
        split = [synthetic_dialogue(i, 10) for i in range(3)]
        instances, _ = build_selection_dataset(
            split, points_per_dialogue=2, n_neg=2, seed=0, ctx_range=(1, 7)
        )
        path = tmp_path / "ds.jsonl"
        save_instances(instances, path)
        reloaded = load_instances(path)
        assert len(reloaded) == len(instances)
        assert reloaded[0].positive_position == instances[0].positive_position
        assert reloaded[0].context == instances[0].context


class TestRatedTestset:
    def make_record(self, candidates):
        ctx = [{"speaker": "A", "segments": [{"da": "sd", "entities": []}]}]
        return {"context": ctx, "candidates": candidates}

    def cand(self, prov="original", **extra):
        base = {
            "provenance": prov,
            "turn": {"speaker": "B", "segments": [{"da": "b", "entities": []}]},
        }
        base.update(extra)
        return base

    def test_mean_from_worker_scores(self):
        rec = self.make_record([self.cand(ratings=[3, 3, 2, 3, 2])])
        inst = rated_instance_from_dict(rec)
        assert inst.candidates[0].mean_rating == pytest.approx(2.6)

    def test_rating_outside_scale(self):
        rec = self.make_record([self.cand(ratings=[3, 4])])
        with pytest.raises(CorpusFormatError, match="outside"):
            rated_instance_from_dict(rec)

    def test_mean_rating_accepted(self):
        rec = self.make_record([self.cand(mean_rating=1.8)])
        assert rated_instance_from_dict(rec).candidates[0].mean_rating == pytest.approx(1.8)

    def test_missing_rating_fields(self):
        rec = self.make_record([self.cand()])
        with pytest.raises(CorpusFormatError, match="ratings"):
            rated_instance_from_dict(rec)

    def test_strict_candidate_count(self, tmp_path):
        candidates = [self.cand("original", mean_rating=2.6)] + [
            self.cand("internal", mean_rating=1.8) for _ in range(3)
        ] + [self.cand("external", mean_rating=1.4) for _ in range(3)]
        good = self.make_record(candidates)
        path = tmp_path / "rated.jsonl"
        path.write_text(json.dumps(good) + "\n", encoding="utf-8")
        assert len(load_rated_testset(path, strict_swbd=True)) == 1

        bad = self.make_record(candidates[:5])
        path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="7 candidates"):
            load_rated_testset(path, strict_swbd=True)
        assert len(load_rated_testset(path, strict_swbd=False)) == 1


# Few distinct values, so that equal segments are drawn often; the text
# characters cover non-ASCII, quotes, backslashes and control characters.
CHARS = ("a", "é", "日", "\U0001f600", '"', "\\", "\x00", "\n", "\x1f", "\u2028", " ")
texts = st.text(alphabet=st.sampled_from(CHARS), max_size=2)
mentions = st.builds(
    EntityMention, st.sampled_from(("movie", "Movie", "ÉTÉ", 'a"b')), st.sampled_from("SOX")
)
segments = st.builds(
    Segment,
    st.sampled_from(("sd", "Sd", "qý")),
    st.lists(mentions, max_size=2).map(tuple),  # often no entities
    st.none() | texts,
)
turns = st.builds(Turn, st.sampled_from("AB"), st.lists(segments, max_size=2).map(tuple))


def rebuilt(t: Turn, speaker: str) -> Turn:
    """An equal-content copy of t made of new objects, with the given speaker."""
    return Turn(speaker, tuple(
        Segment(s.da, tuple(EntityMention(m.head, m.role) for m in s.entities), s.text)
        for s in t.segments
    ))


class TestContentIdentity:
    @given(a=turns, b=turns, copy=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_segments_equal_exactly_when_fingerprints_equal(self, a, b, copy):
        if copy:
            b = rebuilt(a, b.speaker)
        assert (a.segments == b.segments) == (turn_fingerprint(a) == turn_fingerprint(b))
        if copy:
            assert a.segments == b.segments


@st.composite
def ranking_instances(draw):
    """Instances whose turns repeat across contexts and candidates, as in a
    generated dataset, and also come as equal but distinct objects."""
    pool = draw(st.lists(turns, min_size=1, max_size=4))
    pool += [rebuilt(t, t.speaker) for t in pool]
    shared = st.sampled_from(pool)
    return [
        RankingInstance(
            dialogue_id=draw(st.text(alphabet=st.sampled_from(CHARS), max_size=3)),
            point_index=draw(st.integers(0, 2**40)),
            context=tuple(draw(st.lists(shared, min_size=1, max_size=3))),
            candidates=tuple(
                draw(st.lists(st.builds(Candidate, shared | turns, st.sampled_from(PROVENANCES)),
                              min_size=1, max_size=4))
            ),
            positive_position=draw(st.integers(0, 3)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]


@st.composite
def rated_instances(draw):
    return [
        RatedInstance(
            context=inst.context,
            candidates=tuple(
                dataclasses.replace(
                    c,
                    ratings=draw(st.none() | st.lists(st.sampled_from((1, 2, 3)), min_size=1,
                                                      max_size=3).map(tuple)),
                    mean_rating=draw(st.none() | st.floats(1, 3)),
                )
                for c in inst.candidates
            ),
            instance_id=draw(st.none() | texts),
        )
        for inst in draw(ranking_instances())
    ]


class TestWriters:
    """The writers encode each distinct turn once and splice lines together;
    the bytes must be those of json.dumps on the record dicts."""

    @given(instances=ranking_instances())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_save_instances_bytes_match_the_oracle(self, tmp_path, instances):
        path = tmp_path / "ds.jsonl"
        save_instances(instances, path)
        assert path.read_bytes() == oracle_jsonl(map(instance_to_dict, instances))

    @given(instances=rated_instances())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_save_rated_testset_bytes_match_the_oracle(self, tmp_path, instances):
        path = tmp_path / "rated.jsonl"
        save_rated_testset(instances, path)
        assert path.read_bytes() == oracle_jsonl(map(rated_instance_to_dict, instances))


def assert_equal_parts_are_one_object(instances):
    """Equal turns, and equal candidates, of the instances are one object."""
    by_value: dict = {}
    for inst in instances:
        for part in (*inst.context, *inst.candidates, *(c.turn for c in inst.candidates)):
            assert by_value.setdefault(part, part) is part


# Valid turns (lower-case heads, a DA label, at least one segment) from a
# small space, so that equal turns and equal segments under both speakers recur.
valid_turns = st.builds(
    Turn,
    st.sampled_from("AB"),
    st.lists(
        st.builds(
            Segment,
            st.sampled_from(("sd", "qý")),
            st.lists(st.builds(EntityMention, st.sampled_from(("movie", "été", 'a"b')),
                               st.sampled_from("SO")), max_size=1).map(tuple),
            st.none() | st.sampled_from(("", "é\n", '"\\')),
        ),
        min_size=1, max_size=2,
    ).map(tuple),
)


class TestLoadInterning:
    """A loader parses each distinct turn and candidate of a file once and
    shares the Turn and the Candidate."""

    @given(pool=st.lists(valid_turns, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_equals_an_uncached_parse(self, tmp_path, pool, data):
        shared = st.sampled_from(pool)
        instances = [
            RankingInstance(
                dialogue_id=data.draw(st.sampled_from(("d", "dé"))),
                point_index=n,
                context=tuple(data.draw(st.lists(shared, min_size=1, max_size=3))),
                candidates=(Candidate(data.draw(shared), "original"),
                            Candidate(data.draw(shared), data.draw(st.sampled_from(PROVENANCES[1:])))),
                positive_position=0,
            )
            for n in range(data.draw(st.integers(1, 4)))
        ]
        path = tmp_path / "ds.jsonl"
        save_instances(instances, path)
        loaded = load_instances(path)
        uncached = [instance_from_dict(json.loads(ln)) for ln in path.read_text("utf-8").splitlines()]
        assert loaded == uncached == instances
        assert_equal_parts_are_one_object(loaded)

    def test_rated_testset_equals_an_uncached_parse(self, tmp_path):
        split = synthetic_corpus(3, 10, seed=4)
        instances, _ = build_selection_dataset(split, points_per_dialogue=3, n_neg=2, seed=5,
                                               ctx_range=(1, 7))
        rated = [
            RatedInstance(i.context, tuple(
                dataclasses.replace(c, ratings=(1 + k % 3, 2), mean_rating=(1 + k % 3 + 2) / 2)
                for k, c in enumerate(i.candidates)), instance_id=f"r{n}")
            for n, i in enumerate(instances)
        ]
        path = tmp_path / "rated.jsonl"
        save_rated_testset(rated, path)
        loaded = load_rated_testset(path)
        uncached = [rated_instance_from_dict(json.loads(ln))
                    for ln in path.read_text("utf-8").splitlines()]
        assert loaded == uncached == rated
        assert_equal_parts_are_one_object(loaded)

    def test_objects_that_differ_only_in_type_or_zero_sign_are_distinct(self):
        """Equal under ==, distinct as decoded JSON: each is its own entry,
        and every lookup returns what a parse of that very object gives."""
        objects = [1, 1.0, True, "1", -0.0, 0.0, [1], [1.0], [True], [-0.0], [0.0],
                   {"a": 1, "b": 2}, {"b": 2, "a": 1}]
        cache: dict = {}

        def parse(obj):
            return type(obj).__name__, repr(obj)

        for _ in range(2):
            assert [_interned(cache, obj, parse) for obj in objects] == [
                parse(obj) for obj in objects]
        assert len(cache) == len(objects)

    def test_near_equal_records_load_as_parsed_one_by_one(self, tmp_path):
        """Candidates that differ only by 1 / 1.0 in their ratings or 2 / 2.0
        in their mean rating, and one turn repeated with its keys in another
        order, load as an uncached parse gives them, int and float kept
        apart (repr shows what == does not)."""
        said = {"da": "sd", "entities": [{"head": "movie", "role": "S"}], "text": "hi"}
        first = {"speaker": "A", "segments": [said]}
        reordered = {"segments": [dict(reversed(said.items()))], "speaker": "A"}
        reply = {"speaker": "B", "segments": [{"da": "sv", "entities": []}]}
        other = {"speaker": "B", "segments": [{"da": "qy", "entities": []}]}
        rated_int = {"turn": reply, "provenance": "original", "ratings": [1, 2]}
        rated_float = {"turn": reply, "provenance": "original", "ratings": [1.0, 2]}
        mean_int = {"turn": other, "provenance": "internal", "mean_rating": 2}
        mean_float = {"turn": other, "provenance": "internal", "mean_rating": 2.0}
        records = [
            {"context": [first], "candidates": [rated_int, mean_int]},
            {"context": [reordered], "candidates": [rated_float, mean_float]},
            {"context": [first, reordered], "candidates": [rated_float, rated_int, mean_float]},
        ]
        path = tmp_path / "rated.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        loaded = load_rated_testset(path)
        uncached = [rated_instance_from_dict(json.loads(ln))
                    for ln in path.read_text("utf-8").splitlines()]
        assert loaded == uncached
        assert repr(loaded) == repr(uncached)
        assert loaded[0].candidates[0].ratings == (1, 2)
        assert [type(r) for r in loaded[1].candidates[0].ratings] == [float, int]
        cache = RecordCache()
        for r in records:
            rated_instance_from_dict(json.loads(json.dumps(r)), cache)
        assert (len(cache.turns), len(cache.candidates)) == (4, 4)


def _pin_corpus() -> list[Dialogue]:
    """synthetic_corpus(8, 12, seed=7) with the text dropped from the odd
    dialogues, so that content-identical turns occur and are rejected, and
    with a non-ASCII id and non-ASCII text, quotes, a backslash and a tab in
    the first dialogue."""
    out = []
    for i, d in enumerate(synthetic_corpus(8, 12, seed=7)):
        if i % 2:
            d = Dialogue(d.id, tuple(
                Turn(t.speaker, tuple(dataclasses.replace(s, text=None) for s in t.segments))
                for t in d.turns))
        elif i == 0:
            d = Dialogue("séé", tuple(
                Turn(t.speaker, tuple(
                    dataclasses.replace(s, text=f'«{s.text}» "q" \\ \t') for s in t.segments))
                for t in d.turns))
        out.append(d)
    return out


# SHA-256 of gen-dataset's outputs on `_pin_corpus()`. They pin the dataset
# generator and format: a change to these bytes changes the dataset that a
# corpus and seed produce.
PINNED_DIGESTS = {
    "internal": {
        "dataset.jsonl": "1c3fe75ca8604d918ab506e095227cadcc5191c76bcf3e58d566276546e048e3",
        "manifest.json": "d881314666188086f5161428c61e4c597187ed548f94e6bdd027ebe11c654aeb",
    },
    "external": {
        "dataset.jsonl": "c3dc75e874e8adb4e21bd9832254b1e07755fb3153a7b712086f339bfdd9e19e",
        "manifest.json": "85fd925234f00980f5f422497aa5e620cc1d02dd35652d6a55d6f14c5b0c9ced",
    },
}


@pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
def test_gen_dataset_bytes_are_pinned(tmp_path, mode):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(_pin_corpus(), corpus_path)
    out = tmp_path / "out"
    assert main([
        "gen-dataset", str(corpus_path), "--mode", mode, "--points", "3", "--negatives", "3",
        "--seed", "21", "--ctx-min", "1", "--ctx-max", "6", "--out", str(out),
    ]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED_DIGESTS[mode]}
    assert digests == PINNED_DIGESTS[mode]
