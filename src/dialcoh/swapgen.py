"""Weakly supervised response-selection dataset generation.

`build_selection_dataset` is the one way to generate a dataset. It checks
its arguments once, then walks the split: each insertion point splits a
dialogue into a context (the history so far) and the true next turn, the
positive candidate. Adversarial candidates are drawn either from strictly
later turns of the same dialogue (internal swap) or from other dialogues of
the same split (external swap). Sampling is without replacement and rejects
turns content-identical to the positive. A turn's content identity is its
`Turn.segments` (DA labels, mentions and text; the speaker is left out),
compared by value with no encoding. Generation is fully reproducible: all
randomness flows from one root seed through per-dialogue and per-point
substreams of numpy's default PCG64 generator, and output order is canonical
(dialogue id, then point index), so the dataset is a pure function of
(dialogue set, seed).

Selection datasets, graded turn-coherence test sets and `rate` requests share
one record schema, parsed by `parse_record`::

    {"context": [turn, ...],
     "candidates": [{"turn": turn,
                     "provenance": "original"|"internal"|"external",
                     "ratings": [int in 1..3, ...]?,
                     "mean_rating": number in [1, 3]?}]}

A record holds at least one context turn and at least one candidate. Turns
use the corpus turn format and invariants. `ratings` and `mean_rating` are
validated whenever present; per-worker ratings are averaged on load and take
precedence over a mean_rating. A dataset record adds
`dialogue_id`, `point_index` and `positive_position` (the one original
candidate). A rated record may add an `id` and needs a rating on every
candidate. In a `rate` request `provenance` is optional and defaults to
external.

A dataset repeats each turn in the context of every later insertion point,
and most candidates in several records, so loading and saving work per
distinct part: a file's loader parses and validates each distinct turn
object and each distinct candidate object once, and a writer encodes each
distinct `Turn` object once per file.
"""
from __future__ import annotations

import hashlib
import json
import marshal
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import (
    REQUIRED,
    CorpusFormatError,
    Dialogue,
    Turn,
    expect_object,
    load_records,
    turn_from_dict,
    turn_problems,
    turn_to_dict,
    typed_field,
)
from .errors import DataError, InsufficientPoolError

PROVENANCES = ("original", "internal", "external")
RATING_SCALE = (1, 2, 3)

GENERATOR_NAME = "numpy.random.default_rng (PCG64), SeedSequence([seed, sha256(dialogue_id)[:8], point])"


@dataclass(frozen=True)
class Candidate:
    turn: Turn
    provenance: str  # original | internal | external
    ratings: tuple[int, ...] | None = None
    mean_rating: float | None = None


@dataclass(frozen=True)
class RankingInstance:
    """A context with one original and n_neg adversarial next-turn candidates."""

    dialogue_id: str
    point_index: int
    context: tuple[Turn, ...]
    candidates: tuple[Candidate, ...]
    positive_position: int

    @property
    def n_pairs(self) -> int:
        return len(self.candidates) - 1


@dataclass(frozen=True)
class RatedInstance:
    """A context with candidates carrying mean human coherence ratings in [1, 3]."""

    context: tuple[Turn, ...]
    candidates: tuple[Candidate, ...]
    instance_id: str | None = None


def _id_entropy(dialogue_id: str) -> int:
    return int.from_bytes(hashlib.sha256(dialogue_id.encode("utf-8")).digest()[:8], "big")


def point_rng(seed: int, dialogue_id: str, stream: int) -> np.random.Generator:
    """Deterministic substream: stream 0 picks insertion points, stream 1+j
    drives negatives and candidate shuffling for point j."""
    return np.random.default_rng(np.random.SeedSequence([seed, _id_entropy(dialogue_id), stream]))


def _context_lengths(
    d: Dialogue, n: int, ctx_range: tuple[int, int] | None, gen: np.random.Generator
) -> list[int]:
    """Up to n distinct context lengths, uniform over the admissible ones
    (clipped by ctx_range when given), ascending; all of them when n or
    fewer are admissible. The positive is the turn at the context length."""
    lo, hi = 1, len(d.turns) - 1
    if ctx_range is not None:
        lo = max(lo, ctx_range[0])
        hi = min(hi, ctx_range[1])
    if hi < lo:
        raise DataError(
            f"dialogue {d.id!r} has no admissible insertion point "
            f"({len(d.turns)} turns, ctx_range={ctx_range})"
        )
    admissible = np.arange(lo, hi + 1)
    if len(admissible) > n:
        admissible = gen.choice(admissible, size=n, replace=False)
    return [int(c) for c in sorted(admissible)]


def _negatives(
    d: Dialogue,
    positive_idx: int,
    mode: str,
    count: int,
    split_turns: Sequence[tuple[str, Turn]],
    gen: np.random.Generator,
) -> list[Turn]:
    """count adversarial turns for the point of d whose positive is turn
    positive_idx, without replacement. internal: uniform over the turns
    strictly after the positive. external: uniform over split_turns (the
    split's (dialogue id, turn) pairs in corpus order) outside d. Turns
    content-identical to the positive are never returned."""
    positive = d.turns[positive_idx].segments
    if mode == "internal":
        pool = [t for t in d.turns[positive_idx + 1 :] if t.segments != positive]
        if len(pool) < count:
            raise InsufficientPoolError(
                f"internal pool after turn {positive_idx} of "
                f"{d.id!r} has {len(pool)} usable turns, need {count}"
            )
        return [pool[i] for i in gen.choice(len(pool), size=count, replace=False)]

    total = len(split_turns)
    if total - len(d.turns) < count:
        raise InsufficientPoolError(
            f"external pool for dialogue {d.id!r} has only "
            f"{total - len(d.turns)} turns, need {count}"
        )
    # Rejection sampling over the flat list is distribution-identical to
    # uniform sampling without replacement from the filtered pool.
    picked: dict[int, Turn] = {}
    for _ in range(200 * count + 1000):
        if len(picked) == count:
            break
        i = int(gen.integers(0, total))
        source, t = split_turns[i]
        if i not in picked and source != d.id and t.segments != positive:
            picked[i] = t
    if len(picked) == count:
        return list(picked.values())
    # Degenerate data (mostly duplicates of the positive): fall back to the
    # exact filtered pool.
    pool = [t for source, t in split_turns if source != d.id and t.segments != positive]
    if len(pool) < count:
        raise InsufficientPoolError(
            f"external pool for dialogue {d.id!r} has only "
            f"{len(pool)} usable turns, need {count}"
        )
    return [pool[i] for i in gen.choice(len(pool), size=count, replace=False)]


def build_selection_dataset(
    split: Sequence[Dialogue],
    points_per_dialogue: int = 10,
    n_neg: int = 9,
    mode: str = "internal",
    seed: int = 0,
    ctx_range: tuple[int, int] | None = None,
) -> tuple[list[RankingInstance], dict]:
    """Generate the response-selection dataset for one corpus split.

    Returns the instances in canonical order plus a manifest recording the
    generator, seed, and counts. Every instance has 1 original and n_neg
    adversarial candidates, shuffled with the point's own substream.
    """
    if not split:
        raise DataError("empty split")
    ids = [d.id for d in split]
    if len(set(ids)) != len(ids):
        raise DataError("split contains duplicate dialogue ids")
    if points_per_dialogue < 1:
        raise DataError("number of insertion points must be >= 1")
    if mode not in ("internal", "external"):
        raise DataError(f"unknown sampling mode {mode!r}")
    if n_neg < 1:
        raise DataError("negative count must be >= 1")
    if mode == "external" and len(split) < 2:
        raise InsufficientPoolError("external swap needs at least one other dialogue")
    split_turns = [(d.id, t) for d in split for t in d.turns]
    instances: list[RankingInstance] = []
    for d in sorted(split, key=lambda x: x.id):
        lengths = _context_lengths(d, points_per_dialogue, ctx_range, point_rng(seed, d.id, 0))
        for j, c in enumerate(lengths):
            gen = point_rng(seed, d.id, 1 + j)
            negatives = _negatives(d, c, mode, n_neg, split_turns, gen)
            cands = [Candidate(d.turns[c], "original")] + [Candidate(t, mode) for t in negatives]
            perm = gen.permutation(len(cands))
            instances.append(
                RankingInstance(
                    dialogue_id=d.id,
                    point_index=j,
                    context=d.turns[:c],
                    candidates=tuple(cands[i] for i in perm),
                    positive_position=int(np.nonzero(perm == 0)[0][0]),
                )
            )
    manifest = {
        "generator": GENERATOR_NAME,
        "seed": seed,
        "mode": mode,
        "points_per_dialogue": points_per_dialogue,
        "n_neg": n_neg,
        "ctx_range": list(ctx_range) if ctx_range is not None else None,
        "dialogues": len(split),
        "insertion_points": len(instances),
        "pairs": sum(inst.n_pairs for inst in instances),
    }
    return instances, manifest


# -- records ---------------------------------------------------------------------


@dataclass
class RecordCache:
    """One file's parsed turns and candidates, each under the
    `marshal.dumps(obj, 2)` bytes of its decoded object, in two dicts: a
    candidate object that happens to be a valid turn object must not hit a
    cached Turn. Version 2 writes no back-references, so the key depends only
    on the object's content and types; it is exact on decoded JSON (True, 1,
    1.0 and "1" differ, and so do -0.0 and 0.0) and cheaper than repr."""

    turns: dict = field(default_factory=dict)
    candidates: dict = field(default_factory=dict)


def _interned(cache: dict | None, obj, parse: Callable, *args):
    """parse(obj, *args), through a cache of the valid objects met so far:
    each distinct object is parsed and validated once, and equal objects
    share one result. parse raises on an invalid object, which is never
    stored, so every occurrence raises."""
    if cache is None:
        return parse(obj, *args)
    try:
        key = marshal.dumps(obj, 2)
    except (ValueError, RecursionError):
        return parse(obj, *args)  # too deep to key: parse it uncached, which rejects it
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = parse(obj, *args)
    return hit


def _turn(obj, where: str) -> Turn:
    """The valid Turn of a decoded turn object."""
    turn = turn_from_dict(obj, where)
    problems = turn_problems(turn, where)
    if problems:
        raise CorpusFormatError(problems[0])
    return turn


def _candidate(obj, where: str, default_provenance, turns: dict | None) -> Candidate:
    obj = expect_object(obj, where)
    turn = _interned(turns, typed_field(obj, "turn", dict, where), _turn, f"{where}.turn")
    provenance = typed_field(obj, "provenance", str, where, default_provenance)
    if provenance not in PROVENANCES:
        raise CorpusFormatError(f"{where}: unknown provenance {provenance!r}")
    mean = typed_field(obj, "mean_rating", (int, float), where, None)
    if mean is not None and not RATING_SCALE[0] <= mean <= RATING_SCALE[-1]:
        raise CorpusFormatError(f"{where}.mean_rating: {mean} outside [1, 3]")
    ratings = typed_field(obj, "ratings", list, where, None)
    if ratings is not None:
        if not ratings:
            raise CorpusFormatError(f"{where}.ratings: expected nonempty list")
        for r in ratings:
            if isinstance(r, bool) or r not in RATING_SCALE:
                raise CorpusFormatError(f"{where}.ratings: rating {r!r} outside {{1,2,3}}")
        ratings = tuple(ratings)
        mean = sum(ratings) / len(ratings)
    return Candidate(turn, provenance, ratings, None if mean is None else float(mean))


def parse_record(
    obj, default_provenance=REQUIRED, cache: RecordCache | None = None
) -> tuple[tuple[Turn, ...], tuple[Candidate, ...]]:
    """The type-checked context and candidates of one record (see the module
    docstring), each with at least one entry; a candidate without a
    provenance takes default_provenance, which by default is required. cache
    is the file's RecordCache, or None to parse every turn and candidate."""
    obj = expect_object(obj, "record")
    turns, candidates = (None, None) if cache is None else (cache.turns, cache.candidates)
    context = tuple(
        _interned(turns, t, _turn, f"context[{i}]")
        for i, t in enumerate(typed_field(obj, "context", list, "record"))
    )
    if not context:
        raise CorpusFormatError("record.context: expected at least one turn")
    parsed = tuple(
        _interned(candidates, c, _candidate, f"candidates[{i}]", default_provenance, turns)
        for i, c in enumerate(typed_field(obj, "candidates", list, "record"))
    )
    if not parsed:
        raise CorpusFormatError("record.candidates: expected at least one candidate")
    return context, parsed


def instance_from_dict(obj, cache: RecordCache | None = None) -> RankingInstance:
    context, candidates = parse_record(obj, cache=cache)
    position = typed_field(obj, "positive_position", int, "record")
    if not 0 <= position < len(candidates):
        raise CorpusFormatError(
            f"record.positive_position: {position} outside the {len(candidates)} candidates"
        )
    n_orig = sum(1 for c in candidates if c.provenance == "original")
    if n_orig != 1 or candidates[position].provenance != "original":
        raise CorpusFormatError(
            f"instance has {n_orig} original candidates; the positive must be the only one"
        )
    return RankingInstance(
        dialogue_id=typed_field(obj, "dialogue_id", str, "record"),
        point_index=typed_field(obj, "point_index", int, "record", 0),
        context=context,
        candidates=candidates,
        positive_position=position,
    )


def rated_instance_from_dict(obj, cache: RecordCache | None = None) -> RatedInstance:
    context, candidates = parse_record(obj, cache=cache)
    for i, c in enumerate(candidates):
        if c.mean_rating is None:
            raise CorpusFormatError(f"candidates[{i}]: needs either 'ratings' or 'mean_rating'")
    return RatedInstance(context, candidates, instance_id=typed_field(obj, "id", str, "record", None))


def load_instances(path) -> list[RankingInstance]:
    """Load a selection dataset. Each distinct turn and candidate of the
    file is parsed and validated once; an error still names the first bad
    line."""
    cache = RecordCache()
    return load_records(path, lambda obj: instance_from_dict(obj, cache), "dataset")


def load_rated_testset(path, strict_swbd: bool = False) -> list[RatedInstance]:
    """Load a graded turn-coherence test set, each distinct turn and
    candidate parsed once as in `load_instances`.

    With strict_swbd=True every instance must follow the 7-candidate format
    (1 original, 3 internal, 3 external).
    """
    cache = RecordCache()

    def parse(obj) -> RatedInstance:
        inst = rated_instance_from_dict(obj, cache)
        if strict_swbd:
            counts = {p: sum(1 for c in inst.candidates if c.provenance == p) for p in PROVENANCES}
            if counts != {"original": 1, "internal": 3, "external": 3}:
                raise CorpusFormatError(
                    f"expected 7 candidates (1 original, 3 internal, 3 external), got {counts}"
                )
        return inst

    return load_records(path, parse, "rated test set")


# -- serialization -----------------------------------------------------------


class _RecordEncoder:
    """Encodes the parts of a record as
    json.dumps(part, ensure_ascii=False, separators=(",", ":")) does, and
    each distinct Turn object and candidate opening only once."""

    def __init__(self):
        self.value = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
        self._turns: dict[int, tuple[Turn, str]] = {}  # id -> (turn kept alive, JSON)
        self._openings: dict[str, str] = {}  # provenance -> '{"provenance":...,"turn":'

    def turn(self, turn: Turn) -> str:
        hit = self._turns.get(id(turn))
        if hit is None:
            hit = self._turns[id(turn)] = (turn, self.value(turn_to_dict(turn)))
        return hit[1]

    def context(self, turns: Sequence[Turn]) -> str:
        return "[" + ",".join(map(self.turn, turns)) + "]"

    def candidate(self, c: Candidate) -> str:
        """The candidate object without its closing brace."""
        opening = self._openings.get(c.provenance)
        if opening is None:
            opening = self._openings[c.provenance] = (
                '{"provenance":' + self.value(c.provenance) + ',"turn":')
        return opening + self.turn(c.turn)


def save_instances(instances: Sequence[RankingInstance], path) -> None:
    """One line per instance, keys in the order dialogue_id, point_index,
    context, candidates (provenance, turn), positive_position."""
    enc = _RecordEncoder()
    with open(path, "w", encoding="utf-8") as f:
        for inst in instances:
            candidates = ",".join(enc.candidate(c) + "}" for c in inst.candidates)
            f.write(
                f'{{"dialogue_id":{enc.value(inst.dialogue_id)},'
                f'"point_index":{enc.value(inst.point_index)},'
                f'"context":{enc.context(inst.context)},"candidates":[{candidates}],'
                f'"positive_position":{enc.value(inst.positive_position)}}}\n'
            )


def save_rated_testset(instances: Sequence[RatedInstance], path) -> None:
    """One line per instance, keys in the order id (when set), context,
    candidates (provenance, turn, then ratings or else mean_rating)."""
    enc = _RecordEncoder()
    with open(path, "w", encoding="utf-8") as f:
        for inst in instances:
            candidates = ",".join(
                enc.candidate(c)
                + (f',"ratings":{enc.value(list(c.ratings))}}}' if c.ratings is not None
                   else f',"mean_rating":{enc.value(c.mean_rating)}}}')
                for c in inst.candidates
            )
            opening = "{" if inst.instance_id is None else f'{{"id":{enc.value(inst.instance_id)},'
            f.write(f'{opening}"context":{enc.context(inst.context)},"candidates":[{candidates}]}}\n')
