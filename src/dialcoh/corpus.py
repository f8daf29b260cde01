"""Canonical data model for annotated dialogues.

Dialogues arrive pre-annotated: every utterance segment carries a dialogue-act
(DA) label and the entity mentions (NP heads with grammatical roles) observed
in it. This module owns the JSONL corpus format, record validation, and
vocabulary derivation. It does no tagging or parsing of its own; raw-text
processing happens upstream.

Corpus format, one dialogue per line::

    {"id": str,
     "turns": [{"speaker": "A"|"B",
                "segments": [{"da": str,
                              "entities": [{"head": str, "role": "S"|"O"|"X"}],
                              "text": str?}]}]}

Entity heads are case-folded at ingestion so grid columns unify "Movie" and
"movie". All corpus values are immutable after construction.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence, TypeVar

from .errors import CorpusFormatError, DataError

SPEAKERS = ("A", "B")
MENTION_ROLES = ("S", "O", "X")

# Reserved vocabulary tokens. <pad>/<unk> only exist in the word vocabulary;
# <no_ent> fills positions for turns or segments without entity mentions.
PAD = "<pad>"
UNK = "<unk>"
NO_ENT = "<no_ent>"

TURN_TAGS = ("B-A", "B-B", "I-A", "I-B")

T = TypeVar("T")


@dataclass(frozen=True)
class EntityMention:
    """One entity occurrence: a lowercased NP head and its grammatical role."""

    head: str
    role: str  # "S" | "O" | "X"


@dataclass(frozen=True)
class Segment:
    """An utterance segment: one DA label plus its mentions in appearance order."""

    da: str
    entities: tuple[EntityMention, ...] = ()
    text: str | None = None


@dataclass(frozen=True)
class Turn:
    speaker: str  # "A" | "B"
    segments: tuple[Segment, ...] = ()

    def da_labels(self) -> tuple[str, ...]:
        return tuple(seg.da for seg in self.segments)

    def mentions(self) -> tuple[EntityMention, ...]:
        return tuple(m for seg in self.segments for m in seg.entities)


@dataclass(frozen=True)
class Dialogue:
    id: str
    turns: tuple[Turn, ...] = ()


Corpus = list[Dialogue]


# -- parsing --------------------------------------------------------------


REQUIRED = object()  # typed_field default: the field must be present


def typed_field(obj: dict, key: str, kind, where: str, default=REQUIRED):
    """obj[key], type-checked against kind (bool never counts as a number).
    Without a default the field is required; with one, an absent or null
    field gives the default."""
    value = obj.get(key)
    if type(value) is kind:
        return value
    if value is None:
        if default is not REQUIRED:
            return default
        if key not in obj:
            raise CorpusFormatError(f"{where}: missing field '{key}'")
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = kind.__name__ if isinstance(kind, type) else "number"
        raise CorpusFormatError(f"{where}.{key}: expected {expected}, got {type(value).__name__}")
    return value


def str_list_field(obj: dict, key: str, where: str) -> list[str]:
    """obj[key], which must be a list of str."""
    items = typed_field(obj, key, list, where)
    for i, item in enumerate(items):
        if type(item) is not str:
            raise CorpusFormatError(f"{where}.{key}[{i}]: expected str, got {type(item).__name__}")
    return items


def expect_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def mention_from_dict(obj, where: str) -> EntityMention:
    obj = expect_object(obj, where)
    head = typed_field(obj, "head", str, where)
    return EntityMention(head=head.lower(), role=typed_field(obj, "role", str, where))


def segment_from_dict(obj, where: str) -> Segment:
    obj = expect_object(obj, where)
    da = typed_field(obj, "da", str, where)
    entities = tuple(
        mention_from_dict(e, f"{where}.entities[{i}]")
        for i, e in enumerate(typed_field(obj, "entities", list, where, []))
    )
    return Segment(da=da, entities=entities, text=typed_field(obj, "text", str, where, None))


def turn_from_dict(obj, where: str) -> Turn:
    obj = expect_object(obj, where)
    speaker = typed_field(obj, "speaker", str, where)
    segments = tuple(
        segment_from_dict(s, f"{where}.segments[{i}]")
        for i, s in enumerate(typed_field(obj, "segments", list, where))
    )
    return Turn(speaker=speaker, segments=segments)


def dialogue_from_dict(obj) -> Dialogue:
    """Parse one JSON record structurally; enum values are checked by validate_dialogue."""
    obj = expect_object(obj, "record")
    did = typed_field(obj, "id", str, "record")
    if not did:
        raise CorpusFormatError("record.id: expected nonempty string")
    turns = tuple(
        turn_from_dict(t, f"turns[{i}]")
        for i, t in enumerate(typed_field(obj, "turns", list, "record"))
    )
    return Dialogue(id=did, turns=turns)


def turn_to_dict(turn: Turn) -> dict:
    """Canonical dict form of a turn: fixed key order, text omitted when absent."""
    segments = []
    for seg in turn.segments:
        s: dict = {
            "da": seg.da,
            "entities": [{"head": m.head, "role": m.role} for m in seg.entities],
        }
        if seg.text is not None:
            s["text"] = seg.text
        segments.append(s)
    return {"speaker": turn.speaker, "segments": segments}


def dialogue_to_dict(d: Dialogue) -> dict:
    return {"id": d.id, "turns": [turn_to_dict(t) for t in d.turns]}


def canonical_json(d: Dialogue) -> str:
    return json.dumps(dialogue_to_dict(d), ensure_ascii=False, separators=(",", ":"))


# -- validation ------------------------------------------------------------


def turn_problems(turn: Turn, where: str) -> list[str]:
    """Enum and content invariants of one turn; empty when valid."""
    problems: list[str] = []
    if turn.speaker not in SPEAKERS:
        problems.append(f"{where}.speaker: invalid speaker {turn.speaker!r}")
    if not turn.segments:
        problems.append(f"{where}.segments: turn has no segments")
    for si, seg in enumerate(turn.segments):
        if not seg.da:
            problems.append(f"{where}.segments[{si}].da: empty DA label")
        for ei, m in enumerate(seg.entities):
            at = f"{where}.segments[{si}].entities[{ei}]"
            if not m.head:
                problems.append(f"{at}.head: empty head")
            elif m.head.split() != [m.head]:
                problems.append(f"{at}.head: head contains whitespace ({m.head!r})")
            if m.role not in MENTION_ROLES:
                problems.append(f"{at}.role: invalid role {m.role!r}")
    return problems


def validate_dialogue(
    d: Dialogue, seen_ids: set[str] | None = None, tagset: Collection[str] | None = None
) -> list[str]:
    """Every violation of one corpus record, empty when valid: the type
    invariants; with seen_ids (the ids of the records before it, to which
    d's id is added) a duplicate id; with a tagset each DA label outside it."""
    problems: list[str] = []
    if not d.id:
        problems.append("id: empty")
    if not d.turns:
        problems.append("turns: empty turn list")
    for ti, turn in enumerate(d.turns):
        problems.extend(turn_problems(turn, f"turns[{ti}]"))
    if seen_ids is not None:
        if d.id in seen_ids:
            problems.append(f"duplicate dialogue id {d.id!r}")
        seen_ids.add(d.id)
    if tagset is not None:
        for ti, turn in enumerate(d.turns):
            for si, seg in enumerate(turn.segments):
                if seg.da not in tagset:
                    problems.append(f"turns[{ti}].segments[{si}].da: unknown DA tag {seg.da!r}")
    return problems


def parse_json(data: str | bytes, source, line: int | None = None):
    """The JSON value of `data` (text, or bytes taken as UTF-8), read from
    `source` (a file name), at `line` of it for a JSONL record. Undecodable
    input, or input nested too deeply to decode, is a CorpusFormatError (a
    DataError) naming both."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        if isinstance(exc, RecursionError):
            reason = "nested too deeply"
        else:
            reason = getattr(exc, "msg", str(exc))
        where = source if line is None else f"{source} line {line}"
        raise CorpusFormatError(f"{where}: invalid JSON ({reason})") from exc


def iter_text_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line_number, line) for every line of a UTF-8 text file, as
    file iteration splits them; text that is not UTF-8 is a DataError naming
    the file and the last line read."""
    line_no = 0
    with open(path, encoding="utf-8") as f:
        try:
            for line_no, line in enumerate(f, start=1):
                yield line_no, line
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text after line {line_no} ({exc.reason})") from exc


def iter_corpus_records(path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, parsed_json) for every nonblank line."""
    for line_no, line in iter_text_lines(path):
        stripped = line.strip()
        if stripped:
            yield line_no, parse_json(stripped, path, line_no)


def load_records(path, parse: Callable[[object], T], what: str) -> list[T]:
    """Parse every JSONL record with `parse`, tagging any CorpusFormatError
    with its line number. A file without records is an error."""
    records = []
    for line_no, obj in iter_corpus_records(path):
        try:
            records.append(parse(obj))
        except CorpusFormatError as exc:
            raise CorpusFormatError(str(exc), line=line_no) from exc
    if not records:
        raise DataError(f"empty {what}: {path}")
    return records


def read_lines(path) -> list[str]:
    """The nonblank lines of a UTF-8 text file, stripped; text that is not
    UTF-8 is a DataError naming the file."""
    # Split at "\n" only, as file iteration does (read_text has already
    # turned "\r\n" and "\r" into "\n"): str.splitlines() would also break
    # at \v, \f, \x1c-\x1e, \x85 and \u2028-\u2029, which a corpus's DA
    # labels and dialogue ids may hold.
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return [ln for ln in (raw.strip() for raw in text.split("\n")) if ln]


def load_tagset(path) -> tuple[str, ...]:
    """Read a newline-separated DA tagset file."""
    labels = read_lines(path)
    if not labels:
        raise DataError(f"empty tagset file: {path}")
    return tuple(labels)


def load_corpus(path, tagset: Sequence[str] | None = None) -> Corpus:
    """Load and validate a JSONL corpus.

    Raises CorpusFormatError naming the offending line on a parse error or
    on the record's first `validate_dialogue` problem: an invariant
    violation, duplicate dialogue id, or (when a tagset is given) unknown DA
    label. An empty file is an error.
    """
    seen_ids: set[str] = set()
    allowed = set(tagset) if tagset is not None else None

    def parse(obj) -> Dialogue:
        d = dialogue_from_dict(obj)
        problems = validate_dialogue(d, seen_ids, allowed)
        if problems:
            raise CorpusFormatError(problems[0])
        return d

    return load_records(path, parse, "corpus")


def save_corpus(corpus: Iterable[Dialogue], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for d in corpus:
            f.write(canonical_json(d) + "\n")


# -- vocabularies ----------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """An ordered token list; a token's index is its position."""

    tokens: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {t: i for i, t in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise DataError(f"token not in vocabulary: {token!r}") from None

    def get(self, token: str, default: int | None = None) -> int | None:
        return self._index.get(token, default)

    def token(self, idx: int) -> str:
        return self.tokens[idx]


@dataclass(frozen=True)
class Vocabularies:
    """Frozen token/index maps for the four input channels.

    words: entity heads with reserved <pad>, <unk>, <no_ent> up front.
    roles: <no_ent> plus the three mention roles.
    da:    base DA labels (IOB2 expansion derived on demand).
    turn:  the four speaker-boundary tags B-A/B-B/I-A/I-B.
    """

    words: Vocab
    roles: Vocab
    da: Vocab
    turn: Vocab

    def iob_da(self) -> Vocab:
        """IOB2-expanded DA vocabulary: B-/I- variants of every base label."""
        return Vocab(tuple(f"{p}-{t}" for t in self.da.tokens for p in ("B", "I")))

    def word_id(self, head: str) -> int:
        wid = self.words.get(head)
        return wid if wid is not None else self.words.id(UNK)

    def to_dict(self) -> dict:
        return {
            "words": list(self.words.tokens),
            "roles": list(self.roles.tokens),
            "da": list(self.da.tokens),
            "turn": list(self.turn.tokens),
        }

    @classmethod
    def from_dict(cls, obj) -> "Vocabularies":
        obj = expect_object(obj, "vocabularies")
        vocabs = {}
        for name in ("words", "roles", "da", "turn"):
            vocabs[name] = Vocab(tuple(str_list_field(obj, name, "vocabularies")))
        return cls(**vocabs)


def derive_vocabularies(
    corpus: Sequence[Dialogue],
    min_word_count: int = 1,
    tagset: Sequence[str] | None = None,
) -> Vocabularies:
    """Build deterministic vocabularies from a corpus.

    Heads occurring fewer than min_word_count times are excluded (they map to
    <unk> at encode time). Content tokens are inserted in sorted order, so two
    runs over the same corpus produce identical index maps. When a tagset is
    supplied it defines the DA vocabulary; otherwise the observed labels do.
    """
    if not corpus:
        raise DataError("cannot derive vocabularies from an empty corpus")
    if min_word_count < 0:
        raise DataError("min_word_count must be >= 0")
    head_counts: Counter[str] = Counter()
    observed_das: set[str] = set()
    for d in corpus:
        for turn in d.turns:
            for seg in turn.segments:
                observed_das.add(seg.da)
                for m in seg.entities:
                    head_counts[m.head] += 1
    kept = sorted(h for h, c in head_counts.items() if c >= min_word_count)
    da_labels = sorted(tagset) if tagset is not None else sorted(observed_das)
    return Vocabularies(
        words=Vocab((PAD, UNK, NO_ENT, *kept)),
        roles=Vocab((NO_ENT, *sorted(MENTION_ROLES))),
        da=Vocab(tuple(da_labels)),
        turn=Vocab(TURN_TAGS),
    )


def save_vocabularies(vocabs: Vocabularies, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(vocabs.to_dict(), f, ensure_ascii=False, indent=2, sort_keys=True)
        f.write("\n")


def load_vocabularies(path) -> Vocabularies:
    return Vocabularies.from_dict(parse_json(Path(path).read_bytes(), path))
