"""Seeded synthetic inputs for the benchmark workloads.

Everything here is derived from the workload seed alone, so the same seed
gives byte-identical files. The program under test only ever sees the files
written here: a JSONL corpus in the documented corpus format, `rate` request
payloads, and (for the evaluation workload) an untrained checkpoint.

The corpus generator varies the properties the program's cost depends on:
dialogue count and turns per dialogue per workload, and within every corpus
segments (DA labels) per turn and entity mentions per turn. The DA tag set
and the entity-head vocabulary are the same for every workload. Turn text
is unique per dialogue and position, so no two turns share a fingerprint and
swap generation never runs short of distinct negatives.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROLES = ("S", "O", "X")
MAX_ENTITIES = 2  # entity mentions per turn, 0..max in equal shares
MAX_SEGMENTS = 2  # segments (DA labels) per turn, 1..max in equal shares
DA_TAGS = 12
HEADS = 300  # distinct entity heads


@dataclass(frozen=True)
class CorpusSpec:
    dialogues: int
    turns: int  # turns per dialogue


def _rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stream.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _balanced(rng: np.random.Generator, lo: int, hi: int, n: int) -> np.ndarray:
    """n values covering lo..hi in equal shares (as far as n allows), in
    random order."""
    values = np.resize(np.arange(lo, hi + 1), n)
    return values[rng.permutation(n)]


def make_corpus(spec: CorpusSpec, seed: int, prefix: str) -> list[dict]:
    """Dialogue records for one split; `prefix` keeps split ids disjoint.

    The seed draws the content (entity heads, roles, DA labels). The shape
    (segments and entity mentions per turn, which fix the encoded stream
    lengths) comes from the spec alone, so every seed asks the program for
    the same amount of work and runs with different seeds compare."""
    rng = _rng(seed, prefix)
    shape = _rng(0, f"{prefix}shape")
    das = [f"da{i:02d}" for i in range(DA_TAGS)]
    heads = [f"ent{i:03d}" for i in range(HEADS)]
    dialogues = []
    for i in range(spec.dialogues):
        did = f"{prefix}{i:04d}"
        n_segs = _balanced(shape, 1, MAX_SEGMENTS, spec.turns)
        n_ents = _balanced(shape, 0, MAX_ENTITIES, spec.turns)
        turns = []
        for t in range(spec.turns):
            owner = shape.integers(0, n_segs[t], size=n_ents[t])
            segments = []
            for s in range(n_segs[t]):
                entities = [
                    {"head": str(rng.choice(heads)), "role": str(rng.choice(ROLES))}
                    for _ in range(int((owner == s).sum()))
                ]
                segments.append({
                    "da": str(rng.choice(das)),
                    "entities": entities,
                    "text": f"{did} turn {t} segment {s}",
                })
            turns.append({"speaker": "AB"[t % 2], "segments": segments})
        dialogues.append({"id": did, "turns": turns})
    return dialogues


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r, separators=(",", ":")) + "\n")


def make_rate_payloads(
    corpus: list[dict], seed: int, count: int, ctx_range: tuple[int, int], candidates: int
) -> list[dict]:
    """`rate` requests: a dialogue prefix plus its true next turn and
    turns drawn from other dialogues, in shuffled order. Context lengths
    step through `ctx_range` in turn."""
    rng = _rng(seed, "rate")
    payloads = []
    for j in range(count):
        d = int(rng.integers(0, len(corpus)))
        turns = corpus[d]["turns"]
        ctx = ctx_range[0] + j % (ctx_range[1] - ctx_range[0] + 1)
        cands = [{"provenance": "original", "turn": turns[ctx]}]
        while len(cands) < candidates:
            other = int(rng.integers(0, len(corpus)))
            if other == d:
                continue
            pool = corpus[other]["turns"]
            cands.append({"provenance": "external", "turn": pool[int(rng.integers(0, len(pool)))]})
        order = rng.permutation(len(cands))
        payloads.append({"context": turns[:ctx], "candidates": [cands[i] for i in order]})
    return payloads


def write_untrained_checkpoint(vocab_path, path, seed: int, dims: dict) -> None:
    """A seeded, untrained biGRU checkpoint written through the program's
    own checkpoint format."""
    from dialcoh.corpus import load_vocabularies
    from dialcoh.models import NeuralConfig, NeuralScorer, checkpoint

    config = NeuralConfig(seed=seed, **dims)
    scorer = NeuralScorer.initialize(config, load_vocabularies(vocab_path))
    checkpoint.save_checkpoint(scorer, Path(path))
