"""Shared corpus builders and reference implementations for the test suite."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
import pytest

import dialcoh
from dialcoh.corpus import (
    Dialogue,
    NO_ENT,
    EntityMention,
    Segment,
    Turn,
    Vocab,
    Vocabularies,
    derive_vocabularies,
    turn_to_dict,
)
from dialcoh.analysis import FEATURE_GROUPS, default_tagset, extract_turn_features, fit_ols
from dialcoh.engine.optim import AdamState, adam_step
from dialcoh.engine.rnn import run_gru, rzh_rows
from dialcoh.errors import DataError, NumericError
from dialcoh.grid import ABSENT, ROLE_SYMBOLS, EntityGrid, TransitionConfig
from dialcoh.linearize import EncodingConfig, TokenStream
from dialcoh.models.linear import LinearRankerConfig
from dialcoh.models.neural import (
    NeuralConfig,
    NeuralScorer,
    _backward,
    _stack_streams,
    embed_channels,
    forward_scores,
    layout_size,
    mean_pool,
    pairwise_hinge,
    param_layout,
    param_views,
    score_head,
)
from dialcoh.swapgen import RankingInstance, RatedInstance

DA_TAGS = ("b", "qy", "sd")
HEADS = ("movie", "iowa", "hands", "crafts", "california", "utah", "midwest", "hobbies")


def turn(speaker: str, *segments: Segment) -> Turn:
    return Turn(speaker, tuple(segments))


def seg(da: str, entities=(), text=None) -> Segment:
    return Segment(da, tuple(EntityMention(h, r) for h, r in entities), text)


def simple_dialogue() -> Dialogue:
    """Three turns, one recurring entity."""
    return Dialogue(
        id="d1",
        turns=(
            turn("A", seg("sd", [("movie", "O")], "I saw a movie")),
            turn("B", seg("qy", [], "really?")),
            turn("A", seg("sd", [("movie", "S")], "the movie was great")),
        ),
    )


def synthetic_dialogue(i: int, n_turns: int, rng: np.random.Generator | None = None) -> Dialogue:
    """A dialogue with unique per-turn text and light entity/DA annotation."""
    rng = rng or np.random.default_rng(i)
    turns = []
    for t in range(n_turns):
        n_ents = int(rng.integers(0, 3))
        entities = tuple(
            EntityMention(str(rng.choice(HEADS)), str(rng.choice(("S", "O", "X"))))
            for _ in range(n_ents)
        )
        turns.append(
            Turn(
                "A" if t % 2 == 0 else "B",
                (Segment(str(rng.choice(DA_TAGS)), entities, f"dialogue {i} turn {t}"),),
            )
        )
    return Dialogue(id=f"syn{i:04d}", turns=tuple(turns))


def synthetic_corpus(n_dialogues: int, n_turns: int = 12, seed: int = 0) -> list[Dialogue]:
    rng = np.random.default_rng(seed)
    return [synthetic_dialogue(i, n_turns, rng) for i in range(n_dialogues)]


@pytest.fixture
def corpus():
    return synthetic_corpus(6, 12, seed=42)


@pytest.fixture
def vocabs(corpus):
    return derive_vocabularies(corpus)


def turn_fingerprint(turn: Turn) -> str:
    """Content identity of a turn (speaker excluded) as sorted-key JSON of its
    DA labels, mentions and text: the oracle that equality of `Turn.segments`
    must agree with."""
    payload = [
        {
            "da": seg.da,
            "entities": [[m.head, m.role] for m in seg.entities],
            "text": seg.text,
        }
        for seg in turn.segments
    ]
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"), sort_keys=True)


def run_fresh_python(script: str, *args, cwd=None) -> subprocess.CompletedProcess:
    """Run `script` with `args` in a new interpreter that imports dialcoh from
    the same source tree, so no module an earlier test imported can hide an
    import."""
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(dialcoh.__file__).resolve().parents[1])},
    )


def instance_to_dict(inst: RankingInstance) -> dict:
    """The dict of one dataset record: the oracle of `swapgen.save_instances`,
    which writes it as compact JSON with ensure_ascii=False."""
    return {
        "dialogue_id": inst.dialogue_id,
        "point_index": inst.point_index,
        "context": [turn_to_dict(t) for t in inst.context],
        "candidates": [
            {"provenance": c.provenance, "turn": turn_to_dict(c.turn)} for c in inst.candidates
        ],
        "positive_position": inst.positive_position,
    }


def rated_instance_to_dict(inst: RatedInstance) -> dict:
    """The dict of one rated record: the oracle of `swapgen.save_rated_testset`."""
    obj: dict = {}
    if inst.instance_id is not None:
        obj["id"] = inst.instance_id
    obj["context"] = [turn_to_dict(t) for t in inst.context]
    cands = []
    for c in inst.candidates:
        rec: dict = {"provenance": c.provenance, "turn": turn_to_dict(c.turn)}
        if c.ratings is not None:
            rec["ratings"] = list(c.ratings)
        else:
            rec["mean_rating"] = c.mean_rating
        cands.append(rec)
    obj["candidates"] = cands
    return obj


def oracle_jsonl(records) -> bytes:
    """Compact non-ASCII JSON lines of record dicts, as the writers must emit."""
    return "".join(
        json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n" for r in records
    ).encode("utf-8")


def _turn_tag_id(vocab: Vocab, speaker: str, first: bool) -> int:
    prefix = "B" if first else "I"
    tag = f"{prefix}-{speaker}"
    tid = vocab.get(tag)
    if tid is None:
        raise DataError(f"turn tag {tag!r} not in turn vocabulary")
    return tid


def linearize_reference(turns: Sequence[Turn], cfg: EncodingConfig) -> TokenStream:
    """The linearizer written out mode by mode, each mode with its own copy
    of the turn-tag rule: the oracle `linearize` must match bit for bit."""
    use_word, use_role, use_turn = (c in cfg.channels for c in ("word", "role", "turn"))
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
        if use_word:
            words.append(no_ent_word if head is None else v.word_id(head))
        if use_role:
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
            if use_turn:
                end = max(len(words), len(roles))
                for pos in range(start, end):
                    tags.append(_turn_tag_id(v.turn, turn.speaker, pos == start))
    elif mode == "da":
        base = v.da
        for turn in turns:
            for si, seg in enumerate(turn.segments):
                das.append(base.id(seg.da))
                if use_turn:
                    tags.append(_turn_tag_id(v.turn, turn.speaker, si == 0))
    else:  # entities_da
        iob = cfg.vocab("da")
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
            if use_turn:
                for pos in range(turn_start, len(das)):
                    tags.append(_turn_tag_id(v.turn, turn.speaker, pos == turn_start))

    lengths = {len(c) for c in (words, roles, das, tags) if c}
    if not lengths:
        raise DataError("no positions emitted (turns without segments?)")
    if len(lengths) != 1:
        raise DataError(f"channel lengths diverged: {sorted(lengths)}")
    (length,) = lengths
    columns = {"word": words, "role": roles, "da": das, "turn": tags}
    return TokenStream(
        length, {ch: np.array(xs, dtype=np.int64) for ch, xs in columns.items() if xs}
    )


def stream_rows(stream: TokenStream, cfg: EncodingConfig) -> list[tuple[str, ...]]:
    """Decode a stream back to token strings, one tuple per position."""
    vocabs = [(cfg.vocab(ch), stream.ids[ch]) for ch in cfg.channels]
    return [
        tuple(vocab.token(int(ids[pos])) for vocab, ids in vocabs) for pos in range(stream.length)
    ]


def mcc_report_reference(instances: Sequence[RatedInstance], groups=FEATURE_GROUPS) -> dict:
    """The regression study with each group building its own design, every
    candidate's features extracted once per group: the oracle `mcc_report`
    must match bit for bit."""
    tagset = default_tagset(instances)
    report = {}
    for group in groups:
        rows, y = [], []
        for inst in instances:
            for cand in inst.candidates:
                feats = extract_turn_features(inst.context, cand.turn, tagset)
                ent = [float(feats.overlap_entities), float(feats.novel_entities)]
                das = [float(x) for x in feats.da_indicators]
                rows.append(np.asarray({"entities": ent, "das": das, "all": ent + das}[group]))
                y.append(cand.mean_rating)
        X = np.vstack(rows)
        names = {
            "entities": ["overlap_entities", "novel_entities"],
            "das": [f"da:{t}" for t in tagset],
            "all": ["overlap_entities", "novel_entities"] + [f"da:{t}" for t in tagset],
        }[group]
        keep = [j for j in range(X.shape[1]) if np.ptp(X[:, j]) > 0]
        report[group] = fit_ols(X[:, keep], np.asarray(y), names=[names[j] for j in keep])
    return report


def logistic_reference(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) computed separately on each sign's elements: the
    oracle the branch-free `autodiff.logistic` must equal bit for bit."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_reference(
    x: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    b: np.ndarray,
    reverse: bool = False,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """The GRU formulas scanned one step at a time from a zero state, in the
    dtype of x, as `run_gru` computed them before its rows shrank: every step
    runs all rows through h @ U^T products, with the gates stacked r, z, h,
    and np.where masks freeze each row past its length (in any row order)
    and zero its outputs there. The oracle `run_gru` must match: within
    float64 rounding, and bit for bit on float32 rows sorted longest first."""
    w_h, w_r, w_z = np.split(w, 3)
    u_h, u_r, u_z = np.split(u, 3)
    b_h, b_r, b_z = np.split(b, 3)
    batch, steps, _ = x.shape
    hid = u.shape[1]
    lengths = np.full(batch, steps) if lengths is None else lengths
    xw = (x.reshape(batch * steps, -1) @ np.concatenate([w_r, w_z, w_h]).T)
    xw = xw.reshape(batch, steps, 3 * hid)
    u_rz = np.concatenate([u_r, u_z])
    out = np.empty((batch, steps, hid), dtype=x.dtype)
    h = np.zeros((batch, hid), dtype=x.dtype)
    for t in range(steps)[::-1] if reverse else range(steps):
        hu = h @ u_rz.T
        r = logistic_reference(xw[:, t, :hid] + hu[:, :hid] + b_r)
        z = logistic_reference(xw[:, t, hid : 2 * hid] + hu[:, hid:] + b_z)
        c = np.tanh(xw[:, t, 2 * hid :] + (r * h) @ u_h.T + b_h)
        h_next = (1.0 - z) * h + z * c
        live = (t < lengths)[:, None]
        h = np.where(live, h_next, h)
        out[:, t] = np.where(live, h_next, 0.0)
    return out


def gru_gradients(bptt, g: np.ndarray, w: np.ndarray, lengths: Sequence[int]) -> tuple:
    """(dx, dw, du, db) of a recorded `run_gru` scan for output gradient g:
    the weight gradients summed over the runs of rows of one length."""
    dx, reduce = bptt(g, rzh_rows(w))
    starts = [0, *(np.flatnonzero(np.diff(lengths)) + 1)]
    ends = [*starts[1:], len(lengths)]
    parts = [reduce(slice(lo, hi), np.empty_like(w)) for lo, hi in zip(starts, ends)]
    return (dx, *(sum(p[i] for p in parts) for i in range(3)))


def batch_step_reference(scorer: NeuralScorer, streams, chunk,
                         state: AdamState) -> tuple[float, np.ndarray]:
    """`_batch_step` as it was with one recording pass per exact stream
    length, ascending, each pass's backward run on its own and adding into
    a whole gradient buffer in that order, from which Adam then updates the
    whole parameter buffer: the oracle whose loss, gradient and trained
    weights the merged pass must equal bit for bit. Returns the loss and
    the gradient.

    A pass's backward hands on its own totals, so the embeddings' sums
    associate differently here: a pass's `np.add.at` starts from zero, the
    merged walk's from the sum of the shorter lengths. Their gradients are
    checked close to those of one joint backward of all the passes, which
    adds group by group as the merged walk does, and are taken from it."""
    groups: dict[int, list[int]] = {}
    for sid in dict.fromkeys(sid for pair in chunk for sid in pair):
        groups.setdefault(streams[sid].length, []).append(sid)
    grad = np.zeros_like(scorer.flat)
    grads = param_views(grad, scorer.layout)
    passes, order = [], []
    for _, group in sorted(groups.items()):
        ids, _ = _stack_streams([streams[s] for s in group], scorer.config.channels)
        passes.append(forward_scores(ids, scorer.params, scorer.config, record=True))
        order.extend(group)
    scores = np.concatenate([p.data for p in passes])
    slot = {sid: i for i, sid in enumerate(order)}
    pos_idx = np.array([slot[p] for p, _ in chunk])
    neg_idx = np.array([slot[n] for _, n in chunk])
    loss, d_pos, d_neg = pairwise_hinge(scores[pos_idx], scores[neg_idx],
                                        margin=scorer.config.margin)
    d_scores = np.zeros_like(scores)
    np.add.at(d_scores, pos_idx, d_pos)
    np.add.at(d_scores, neg_idx, d_neg)
    def add(name: str, g: np.ndarray) -> None:
        grads[name] += g

    at = 0
    for p in passes:
        p.backward(d_scores[at : at + len(p.data)], add)
        at += len(p.data)
    joint = {}
    _backward([p.tape for p in passes], d_scores, joint.__setitem__)
    for name in (name for name in grads if name.startswith("emb_")):
        np.testing.assert_allclose(grads[name], joint[name], rtol=1e-4,
                                   atol=1e-6 * np.abs(joint[name]).max())
        np.copyto(grads[name], joint[name])
    state.step += 1
    adam_step(scorer.flat, grad, state.m, state.v, state.step, scorer.config.lr)
    return loss, grad


class AdamRecorder:
    """Stands in for `neural.adam_step`: gathers the gradients a step hands
    to Adam into one buffer per step count, laid out like the parameter
    buffer `flat`, counts the updates of each element per step, and then
    runs the update unless `update` is False."""

    def __init__(self, flat: np.ndarray, update: bool = True):
        self.flat, self.update = flat, update
        self.grads: dict[int, np.ndarray] = {}
        self.updates: dict[int, np.ndarray] = {}
        self.calls = 0

    def __call__(self, params, grads, m, v, step, lr) -> None:
        if not np.shares_memory(params, self.flat):
            raise ValueError("adam_step was handed an array outside the parameter buffer")
        at = (params.ctypes.data - self.flat.ctypes.data) // self.flat.itemsize
        span = slice(at, at + params.size)
        self.grads.setdefault(step, np.zeros_like(self.flat))[span] = grads.reshape(-1)
        self.updates.setdefault(step, np.zeros(self.flat.size, dtype=np.int64))[span] += 1
        self.calls += 1
        if self.update:
            adam_step(params, grads, m, v, step, lr)


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    worst: tuple[str, int]  # parameter name, flat coordinate
    per_param: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(
    loss: Callable[[Mapping[str, np.ndarray]], float],
    params: Mapping[str, np.ndarray],
    analytic: Mapping[str, np.ndarray],
    h: float = 1e-5,
    tol: float = 1e-4,
    floor: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients, one per parameter, with central
    differences of `loss` (named float64 arrays -> scalar) around `params`.

    Relative error per coordinate is |a - n| / max(|a|, |n|, floor); the check
    passes when the maximum over all coordinates is below tol. It is only
    meaningful where the loss is twice differentiable, so callers keep away
    from kinks such as the hinge's."""
    if h <= 0:
        raise NumericError("finite-difference step h must be > 0")
    if analytic.keys() != params.keys():
        raise ValueError(f"gradients of {sorted(analytic)} for parameters {sorted(params)}")
    arrays = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    def evaluate() -> float:
        value = float(loss(arrays))
        if not np.isfinite(value):
            raise NumericError("non-finite evaluation during gradient check")
        return value

    evaluate()
    per_param: dict[str, float] = {}
    worst = ("", -1)
    max_rel = 0.0
    for name, base in arrays.items():
        flat = base.reshape(-1)
        a_flat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        param_max = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = evaluate()
            flat[i] = orig - h
            down = evaluate()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            param_max = max(param_max, rel)
            if rel > max_rel:
                max_rel = rel
                worst = (name, i)
        per_param[name] = param_max
    return GradCheckReport(max_rel_error=max_rel, tol=tol, worst=worst, per_param=per_param)


@dataclass
class AdamReference:
    """Per-array moments and the step counter of `adam_reference`."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray]) -> "AdamReference":
        return cls({n: np.zeros_like(p) for n, p in params.items()},
                   {n: np.zeros_like(p) for n, p in params.items()})


def adam_reference(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamReference,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam, in place, one named array at a time, with no
    blocks: the oracle the blocked update must equal bit for bit."""
    state.step += 1
    c1 = 1.0 - beta1**state.step
    c2 = 1.0 - beta2**state.step
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def init_params_reference(
    config: NeuralConfig, vocabularies: Vocabularies, dtype=np.float32
) -> np.ndarray:
    """`init_params` as one float64 draw per 2-D array, in param_layout's
    order: the oracle its row-blocked draws must equal bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    layout = param_layout(config, vocabularies)
    flat = np.zeros(layout_size(layout), dtype=dtype)
    for name, (at, shape) in layout.items():
        if len(shape) == 1:
            continue
        if name.startswith("emb_"):
            bound = 0.1
        elif name.startswith("gru"):
            bound = 1.0 / math.sqrt(config.gru_hidden)
        else:
            bound = 1.0 / math.sqrt(shape[1])
        flat[at : at + math.prod(shape)].reshape(shape)[...] = rng.uniform(-bound, bound, shape)
    return flat


def _linear_loss(out: np.ndarray, weights: np.ndarray) -> float:
    return float((out * weights).sum())


def gradient_blocks(rng: np.random.Generator) -> dict[str, tuple]:
    """One float64 case per block of the scorer's backward pass, at a random
    point: name -> (loss, params, analytic gradients) for `grad_check`. Each
    loss is a fixed random weighting of the block's output, so every output
    element's gradient counts, and the analytic gradients are what the
    block's backward gives for those weights."""
    blocks: dict[str, tuple] = {}

    ids = {"word": np.array([[0, 2, 0], [4, 2, 2]]), "da": np.array([[1, 1, 3], [0, 3, 1]])}
    tables = {"emb_word": rng.normal(size=(5, 3)), "emb_da": rng.normal(size=(4, 2))}
    weights = rng.normal(size=(2, 3, 5))
    _, backward = embed_channels(ids, tables, ("word", "da"))
    grads = {k: np.zeros_like(a) for k, a in tables.items()}
    backward(weights, grads)
    blocks["embedding gather, repeated ids"] = (
        lambda p, w=weights: _linear_loss(embed_channels(ids, p, ("word", "da"))[0], w),
        tables, grads,
    )

    for reverse in (False, True):
        cell = {"x": rng.normal(size=(3, 5, 3)), "w": rng.uniform(-0.5, 0.5, (12, 3)),
                "u": rng.uniform(-0.5, 0.5, (12, 4)), "b": rng.uniform(-0.5, 0.5, 12)}
        weights = rng.normal(size=(3, 5, 4))
        _, bptt = run_gru(cell["x"], cell["w"], cell["u"], cell["b"], reverse, record=True)
        blocks[f"GRU layer, reverse={reverse}"] = (
            lambda p, w=weights, r=reverse: _linear_loss(
                run_gru(p["x"], p["w"], p["u"], p["b"], r), w),
            cell, dict(zip("xwub", gru_gradients(bptt, weights, cell["w"], [5, 5, 5]))),
        )

    for kind, lengths in (("full", np.array([4, 4, 4])), ("ragged", np.array([4, 2, 1]))):
        states = {"states": rng.normal(size=(3, 4, 2))}
        weights = rng.normal(size=(3, 2))
        _, backward = mean_pool(states["states"], lengths)
        blocks[f"pooling, {kind} lengths"] = (
            lambda p, w=weights, n=lengths: _linear_loss(mean_pool(p["states"], n)[0], w),
            states, {"states": backward(weights)},
        )

    head = {"pooled": rng.normal(size=(5, 6)), "head.w1": rng.normal(size=(4, 6)),
            "head.b1": rng.normal(size=4), "head.w2": rng.normal(size=(1, 4)),
            "head.b2": rng.normal(size=1)}
    weights = rng.normal(size=5)
    _, backward = score_head(head["pooled"], head)
    grads = {k: np.zeros_like(a) for k, a in head.items() if k != "pooled"}
    grads["pooled"], add = backward(weights)
    add(grads)
    blocks["head"] = (
        lambda p, w=weights: _linear_loss(score_head(p["pooled"], p)[0], w), head, grads,
    )

    # Score differences 0.5 to 1.5 either side of the margin: off the kink.
    s_neg = rng.normal(size=6)
    offset = rng.uniform(0.5, 1.5, 6) * rng.choice([-1.0, 1.0], 6)
    scores = {"s_pos": s_neg + 0.5 + offset, "s_neg": s_neg}
    _, d_pos, d_neg = pairwise_hinge(scores["s_pos"], scores["s_neg"], margin=0.5)
    blocks["hinge, off the kink"] = (
        lambda p: pairwise_hinge(p["s_pos"], p["s_neg"], margin=0.5)[0],
        scores, {"s_pos": d_pos, "s_neg": d_neg},
    )
    return blocks


def reference_grid(turns: Sequence[Turn]) -> EntityGrid:
    """The entity grid built cell by cell, keeping the highest role of a
    turn's mentions (S > O > X): the oracle for `grid.build_grid`."""
    heads: list[str] = []
    for turn in turns:
        for m in turn.mentions():
            if m.head not in heads:
                heads.append(m.head)
    cells = np.full((len(turns), len(heads)), ABSENT, dtype=np.int8)
    for t, turn in enumerate(turns):
        for m in turn.mentions():
            e = heads.index(m.head)
            cells[t, e] = min(cells[t, e], ROLE_SYMBOLS.index(m.role))
    return EntityGrid(heads=tuple(heads), cells=cells)


def _window_frequencies(codes: np.ndarray, k: int, base: int) -> np.ndarray:
    """Frequencies of every length-k window along the rows of a (rows, n)
    code array, pooled over rows: counts divided by rows * (n - k + 1), or
    all zeros when there is no window."""
    rows, n = codes.shape
    if rows == 0 or n < k:
        return np.zeros(base**k, dtype=np.float64)
    windows = n - k + 1
    idx = codes[:, :windows].astype(np.int64)
    for j in range(1, k):
        idx = idx * base + codes[:, j : j + windows]
    return np.bincount(idx.ravel(), minlength=base**k) / (rows * windows)


def entity_transition_features(g: EntityGrid, cfg: TransitionConfig) -> np.ndarray:
    """Frequencies of role windows down the kept columns of one whole grid:
    the per-sequence oracle for `grid.entity_features`."""
    kept = (g.cells != ABSENT).sum(axis=0) >= cfg.saliency
    return _window_frequencies(g.cells.T[kept], cfg.k, len(ROLE_SYMBOLS))


def da_sequence(d: Dialogue) -> list[str]:
    """The dialogue's DA labels, segment order within turn order."""
    return [seg.da for turn in d.turns for seg in turn.segments]


def da_transition_features(seq: Sequence[str], cfg: TransitionConfig, vocab: Vocab) -> np.ndarray:
    """Frequencies of DA windows along one whole sequence, divided by
    n - k + 1: the per-sequence oracle for `grid.da_features`."""
    codes = np.array([[vocab.id(t) for t in seq]], dtype=np.int64)
    return _window_frequencies(codes, cfg.k, len(vocab))


def sequence_features(
    turns: Sequence[Turn], config: LinearRankerConfig, vocabularies: Vocabularies
) -> np.ndarray:
    """The configured feature vector of one turn sequence, counted on its
    own: the oracle each row of `linear.extract_features` must equal."""
    tcfg = TransitionConfig(k=config.k, saliency=config.saliency)
    blocks = []
    if config.features != "da":
        blocks.append(entity_transition_features(reference_grid(turns), tcfg))
    if config.features != "entity":
        blocks.append(
            da_transition_features(da_sequence(Dialogue(id="_", turns=tuple(turns))), tcfg,
                                   vocabularies.da)
        )
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


# -- evaluation oracle ------------------------------------------------------------


def _ranked_relevance(scores, relevance) -> np.ndarray:
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), float(relevance[i]), i))
    return np.asarray([relevance[i] for i in order], dtype=np.float64)


def _pairwise_accuracy(pos_score: float, neg_scores) -> float:
    neg_scores = list(neg_scores)
    if not neg_scores:
        raise DataError("pairwise accuracy needs at least one negative score")
    return sum(1 for s in neg_scores if pos_score > s) / len(neg_scores)


def _reciprocal_rank(relevance_in_order) -> float:
    for i, rel in enumerate(relevance_in_order):
        if rel > 0:
            return 1.0 / (i + 1)
    raise DataError("no relevant candidate in ranking")


def _recall_at_k(relevance_in_order, k: int) -> float:
    return 1.0 if any(r > 0 for r in relevance_in_order[:k]) else 0.0


def _dcg(gains: np.ndarray) -> float:
    return float((gains / np.log2(np.arange(2, len(gains) + 2))).sum())


def _ndcg_from_scores(scores, gains) -> float:
    in_order = _ranked_relevance(scores, gains)
    if not (in_order > 0).any():
        raise DataError("nDCG requires at least one positive gain")
    return _dcg(in_order) / _dcg(np.sort(in_order)[::-1])


def _graded_pairwise_accuracy(scores, ratings) -> tuple[float, int]:
    correct = total = 0
    for i in range(len(scores)):
        for j in range(i + 1, len(scores)):
            if ratings[i] == ratings[j]:
                continue
            total += 1
            hi, lo = (i, j) if ratings[i] > ratings[j] else (j, i)
            correct += float(scores[hi]) > float(scores[lo])
    return (correct / total if total else 0.0), total


def evaluate_reference(model, instances) -> dict:
    """Selection or rated evaluation as two separate loops, each instance
    sorted once per relevance notion: the binary positive label for a
    `RankingInstance` set, and for a `RatedInstance` set dynamic relevance
    (reaching the best mean rating) for MRR and R@1, then again on the mean
    ratings for nDCG. The oracle `evaluate_selection` and `evaluate_rated`
    must equal with `==`."""
    if not instances:
        raise DataError("no instances to evaluate")
    rated = isinstance(instances[0], RatedInstance)
    if rated and any(c.mean_rating is None for inst in instances for c in inst.candidates):
        raise DataError("rated evaluation requires a mean rating per candidate")
    all_scores = model.score_candidates(
        [(inst.context, [c.turn for c in inst.candidates]) for inst in instances]
    )
    acc, mrr, r1, r2, ndcgs = [], [], [], [], []
    pairs = 0
    for inst, scores in zip(instances, all_scores):
        if rated:
            ratings = [c.mean_rating for c in inst.candidates]
            if not ratings:
                raise DataError("empty rating list")
            instance_acc, n_pairs = _graded_pairwise_accuracy(scores, ratings)
            if n_pairs:
                acc.append(instance_acc)
                pairs += n_pairs
            relevance = [float(r == max(ratings)) for r in ratings]
            ndcgs.append(_ndcg_from_scores(scores, ratings))
        else:
            pos = inst.positive_position
            negs = [s for i, s in enumerate(scores) if i != pos]
            acc.append(_pairwise_accuracy(scores[pos], negs))
            pairs += len(negs)
            relevance = [1.0 if i == pos else 0.0 for i in range(len(scores))]
        in_order = _ranked_relevance(scores, relevance)
        mrr.append(_reciprocal_rank(in_order))
        r1.append(_recall_at_k(in_order, 1))
        r2.append(_recall_at_k(in_order, min(2, len(in_order))))
    if rated:
        return {
            "accuracy": float(np.mean(acc)) if acc else 0.0,
            "mrr": float(np.mean(mrr)),
            "r_at_1": float(np.mean(r1)),
            "ndcg": float(np.mean(ndcgs)),
            "instances": len(instances),
            "accuracy_pairs": pairs,
        }
    return {
        "accuracy": float(np.mean(acc)),
        "mrr": float(np.mean(mrr)),
        "r_at_1": float(np.mean(r1)),
        "r_at_2": float(np.mean(r2)),
        "instances": len(instances),
        "pairs": pairs,
    }


class FixedScorer:
    """A `Scorer` that returns preset scores: the i-th pair of a call gets
    scores[i]."""

    def __init__(self, scores: Sequence[Sequence[float]]):
        self.scores = [np.asarray(s, dtype=np.float64) for s in scores]

    def score_candidates(self, pairs):
        if len(pairs) != len(self.scores):
            raise ValueError("one score list per pair")
        return list(self.scores)
