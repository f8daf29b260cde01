"""Bidirectional-GRU coherence scorer and its response-selection trainer.

Per-position channel embeddings are looked up for a whole (batch, length)
block of ids and concatenated into one (batch, length, input) array, passed
through stacked bidirectional GRU layers (forward and backward states
concatenated per layer), mean-pooled over positions, and mapped to a scalar
score by a one-hidden-layer ReLU head. `forward_scores` writes this pass out
over plain numpy arrays; with `record` set it keeps what its backward pass
needs and returns the scores with that backward pass (`_backward`), written
by hand in the reverse order: head, pooling, each GRU layer's
backpropagation through time (`run_gru`), then a scatter-add into the
embedding tables. Training
minimizes the margin-ranking loss over original/adversarial score pairs
(`pairwise_hinge`, with its gradient) with Adam, early-stopping on
development MRR.

All parameters live in one buffer laid out as a checkpoint's payload is:
the arrays a checkpoint names ("emb_word", "gru0f.w_r", "head.w1", ...),
sorted by name, back to back. `param_layout` is the one place that knows
each name's offset and shape. Sorted names put each GRU layer and
direction's h, r and z arrays of one kind side by side, so the stacked
"gru{layer}{f|b}.w", ".u" and ".b" that `run_gru` takes (gate rows h, r, z;
see `engine/rnn.py`) are single spans of the buffer (`param_views`), and a
loaded checkpoint's payload is the buffer itself. Adam's moments are two
more buffers with that layout. No gradient buffer exists: the backward pass
hands each parameter's gradient to Adam as soon as it is final, and Adam
updates that parameter's views of the three buffers (`_batch_step`).

Scoring is batch-invariant: a stream's score is bit-identical whichever
other streams share its pass. `_buckets` plans every scoring block: it sorts
streams longest first, the row order `run_gru` requires, and cuts them into
buckets of at most BUCKET_ROWS (64) rows, zero-padded to the block length
and to at least MIN_ROWS rows; `run_gru` masks each row to its own length,
pooling divides by it, and every product then gives each row the same bits
at any row count from MIN_ROWS up to BUCKET_ROWS, and in the input
projections at the larger counts that a bucket's rows times its steps reach
(the head's one-output product is a row-wise sum: BLAS's matrix-vector
product gives a row different bits depending on how many rows share the
call).

Training uses the same property. A step's streams fall into groups of one
length; `_batch_step` runs every group of MIN_ROWS or more rows in one
masked pass, longest first, and each smaller group in a pass of its own.
Gradients with respect to inputs are taken for a whole pass, but a
parameter's gradient sums over rows, so `_backward` takes it per length
group, from the group's own rows over its own length: it lists the step's
groups once, in ascending length over all the passes, and the head, every
GRU layer and direction, and the embeddings add their gradients walking
that list. The gradient, and so the trained weights, are then bit for bit
those of one pass per length.

Every candidate of a context starts with the context's positions, and the
layer-0 forward states over them depend on nothing after them, so
`score_candidates` linearizes each context once and runs that direction
over up to BUCKET_ROWS contexts at a time as the rows of one masked scan,
then scores those contexts' candidates; the context states held at once
are thus no larger than a bucket's. In each bucket a candidate's row
copies its context's states and continues the scan over its own positions
from the context's last state (`run_gru`'s h0). The backward direction
starts at the candidate's end, and layer 1 reads it, so both run per
candidate.
Scores keep their bits, because each row's products give it the bits it
gets in any other block. Streams with no shared context are the same
algorithm with a context of no positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..corpus import Turn, Vocabularies, iter_text_lines
from ..engine.autodiff import Tensor
from ..engine.optim import AdamState, adam_step
from ..engine.rnn import GATES, MIN_ROWS, run_gru, rzh_rows
from ..errors import DataError, NumericError
from ..linearize import CHANNELS, EncodingConfig, TokenStream, encode_pairwise_inputs, linearize
from ..swapgen import RankingInstance
from .evaluate import evaluate_selection


@dataclass(frozen=True)
class NeuralConfig:
    """Scorer hyperparameters; gru_hidden counts units per direction."""

    channels: tuple[str, ...]
    emb_dim_word: int = 300
    emb_dim_other: int = 50
    gru_layers: int = 2
    gru_hidden: int = 512
    head_hidden: int = 256
    lr: float = 0.0005
    batch_size: int = 32
    max_epochs: int = 30
    margin: float = 0.5
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        chans = tuple(c for c in CHANNELS if c in self.channels)
        unknown = set(self.channels) - set(CHANNELS)
        if unknown:
            raise DataError(f"unknown channels {sorted(unknown)}")
        if not set(chans) & {"word", "role", "da"}:
            raise DataError("at least one of word/role/da channels is required")
        object.__setattr__(self, "channels", chans)
        for name in ("emb_dim_word", "emb_dim_other", "gru_layers", "gru_hidden",
                     "head_hidden", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")


def _channel_dims(config: NeuralConfig, enc: EncodingConfig) -> dict[str, tuple[int, int]]:
    """(vocab_size, embedding_dim) per active channel."""
    return {
        ch: (len(enc.vocab(ch)), config.emb_dim_word if ch == "word" else config.emb_dim_other)
        for ch in config.channels
    }


def param_layout(
    config: NeuralConfig, vocabularies: Vocabularies
) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Where each array a checkpoint names lies in the parameter buffer:
    name -> (offset in elements, shape). The buffer holds the arrays back to
    back in sorted-name order, which is the order of a checkpoint's payload,
    and that puts each GRU layer and direction's h, r and z arrays of one
    kind side by side in GATES order. The dict lists the arrays in the order
    init_params draws them: embeddings, GRU layers (each direction's gates r,
    z, h, each as w, u, b), head."""
    dims = _channel_dims(config, EncodingConfig(config.channels, vocabularies))
    shapes: dict[str, tuple[int, ...]] = {f"emb_{ch}": dims[ch] for ch in config.channels}
    input_dim = sum(dim for _, dim in dims.values())
    hid = config.gru_hidden
    for layer in range(config.gru_layers):
        for direction in ("f", "b"):
            prefix = f"gru{layer}{direction}"
            for gate in ("r", "z", "h"):
                shapes[f"{prefix}.w_{gate}"] = (hid, input_dim)
                shapes[f"{prefix}.u_{gate}"] = (hid, hid)
                shapes[f"{prefix}.b_{gate}"] = (hid,)
        input_dim = 2 * hid
    shapes["head.w1"] = (config.head_hidden, 2 * hid)
    shapes["head.b1"] = (config.head_hidden,)
    shapes["head.w2"] = (1, config.head_hidden)
    shapes["head.b2"] = (1,)
    offsets, at = {}, 0
    for name in sorted(shapes):
        offsets[name] = at
        at += math.prod(shapes[name])
    return {name: (offsets[name], shape) for name, shape in shapes.items()}


def layout_size(layout: Mapping[str, tuple[int, tuple[int, ...]]]) -> int:
    """Elements in a buffer laid out by param_layout."""
    return sum(math.prod(shape) for _, shape in layout.values())


def param_views(
    flat: np.ndarray, layout: Mapping[str, tuple[int, tuple[int, ...]]]
) -> dict[str, np.ndarray]:
    """The arrays the scorer reads, as views of a buffer laid out by
    param_layout (the parameters, or Adam's moments): each GRU layer and
    direction's stacked "w", "u" and "b" (gate rows h, r, z), each the span
    of its three gate arrays, and every other array under its checkpoint
    name."""
    views = {}
    for name, (at, shape) in layout.items():
        if name.startswith("gru"):
            name, gate = name.rsplit("_", 1)
            if gate != GATES[0]:
                continue
            shape = (3 * shape[0],) + shape[1:]
        views[name] = flat[at : at + math.prod(shape)].reshape(shape)
    return views


_INIT_BLOCK = 1 << 16  # elements drawn at a time: a 512 KiB float64 block


def init_params(
    config: NeuralConfig, vocabularies: Vocabularies, dtype=np.float32
) -> np.ndarray:
    """The seeded parameter buffer, laid out by param_layout: embeddings
    uniform in [-0.1, 0.1], GRU weights uniform in [-1/sqrt(hidden),
    1/sqrt(hidden)], head weights uniform in [-1/sqrt(fan_in),
    1/sqrt(fan_in)], zero biases. Draws follow param_layout's order, for
    reproducibility, each straight into its view of the buffer in blocks of
    rows. The generator's stream is sequential, so the values are those of
    one draw per array, without its float64 temporary."""
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
        view = flat[at : at + math.prod(shape)].reshape(shape)
        rows = max(1, _INIT_BLOCK // shape[1])
        for lo in range(0, shape[0], rows):
            block = view[lo : lo + rows]
            block[...] = rng.uniform(-bound, bound, block.shape)
    return flat


def load_word_vectors(path, vocabularies: Vocabularies, params: Mapping[str, np.ndarray]) -> int:
    """Overwrite word-embedding rows from a UTF-8 text file of "token v1 ...
    vd" lines; tokens outside the vocabulary are skipped, and a vocabulary
    token with other than d values, or with a value that is not a finite
    number in the embedding's precision, is a DataError, as is text that is
    not UTF-8. Returns the number of rows filled."""
    emb = params.get("emb_word")
    if emb is None:
        raise DataError("model has no word channel to load vectors into")
    dim = emb.shape[1]
    found = 0
    for line_no, line in iter_text_lines(path):
        parts = line.rstrip("\n").split(" ")
        wid = vocabularies.words.get(parts[0])
        if wid is None:
            continue
        if len(parts) != dim + 1:
            raise DataError(
                f"{path} line {line_no}: {parts[0]!r} has {len(parts) - 1} values, "
                f"expected {dim} (the word embedding size)"
            )
        try:
            with np.errstate(over="ignore"):
                vector = np.asarray([float(x) for x in parts[1:]], dtype=emb.dtype)
        except ValueError as exc:
            raise DataError(f"{path} line {line_no}: non-numeric vector value ({exc})") from exc
        if not np.isfinite(vector).all():
            raise DataError(f"{path} line {line_no}: {parts[0]!r} has a non-finite value")
        emb[wid] = vector
        found += 1
    return found


def embed_channels(
    ids_by_channel: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    channels: Sequence[str],
):
    """The (batch, length, input) embeddings of (batch, length) ids, the
    channels' rows side by side; and their backward, which scatter-adds a
    gradient of them into each table's entry of a gradient dict: that of the
    given rows over their first `steps` positions (default all of both)."""
    x = np.concatenate([params[f"emb_{ch}"][ids_by_channel[ch]] for ch in channels], axis=-1)

    def backward(d_x: np.ndarray, grads: dict[str, np.ndarray], rows: slice = slice(None),
                 steps: int | None = None) -> None:
        at = 0
        for ch in channels:
            name = f"emb_{ch}"
            dim = params[name].shape[1]
            np.add.at(grads[name], ids_by_channel[ch][rows, :steps],
                      d_x[rows, :steps, at : at + dim])
            at += dim

    return x, backward


def mean_pool(states: np.ndarray, lengths: np.ndarray):
    """Mean of (batch, time, dim) states over each row's own length: the sum
    over time divided by the length, so states past it must be zero (as
    `run_gru` leaves them); and its backward."""
    k = lengths.astype(states.dtype)[:, None]
    pooled = states.sum(axis=1)
    pooled /= k
    shape = states.shape
    return pooled, lambda d_pooled: np.broadcast_to((d_pooled / k)[:, None], shape)


def score_head(pooled: np.ndarray, params: Mapping[str, np.ndarray]):
    """(batch,) scores of pooled states through a ReLU layer and one output,
    and the backward that maps the scores' gradient to the pooled states'
    and to add(grads, rows), which adds the head's gradients from the given
    rows (default all) into a dict. The output is a row-wise multiply-sum:
    BLAS's matrix-vector product gives a row different bits depending on how
    many rows share the call, and a score must not depend on its batch."""
    w1, w2 = params["head.w1"], params["head.w2"]
    hidden = np.maximum(pooled @ w1.T + params["head.b1"], 0)
    scores = (hidden * w2).sum(axis=1) + params["head.b2"]

    def backward(d_scores: np.ndarray):
        g2 = d_scores.reshape(-1, 1)
        g1 = (g2 @ w2) * (hidden > 0)

        def add(grads: dict[str, np.ndarray], rows: slice = slice(None)) -> None:
            grads["head.w2"] += g2[rows].T @ hidden[rows]
            grads["head.b2"] += g2[rows].sum(axis=0)
            grads["head.w1"] += g1[rows].T @ pooled[rows]
            grads["head.b1"] += g1[rows].sum(axis=0)

        return g1 @ w1, add

    return scores, backward


def forward_scores(
    ids_by_channel: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    config: NeuralConfig,
    lengths: np.ndarray | None = None,
    record: bool = False,
    head_states: Sequence[np.ndarray] | None = None,
) -> Tensor:
    """Score a block of streams; ids are (batch, length) arrays per channel.
    `lengths` gives each row's own length, non-increasing, its ids past it
    being padding (default: every row fills the block). Returns the (batch,)
    scores; with `record`, their `backward` hands each parameter's gradient
    to a callable as soon as it is final (`_backward`). When scoring,
    `head_states` may give each row's layer-0 forward states over its first
    positions, (their count, hidden); that direction's scan then covers only
    the rest of each row."""
    batch, steps = next(iter(ids_by_channel.values())).shape
    if lengths is None:
        lengths = np.full(batch, steps)
    x, embed_backward = embed_channels(ids_by_channel, params, config.channels)
    bptts = []  # per layer, each direction's when recording
    for layer in range(config.gru_layers):
        states = []
        bptts.append([])
        for direction in "fb":
            key = f"gru{layer}{direction}"
            weights = params[f"{key}.w"], params[f"{key}.u"], params[f"{key}.b"]
            if head_states is not None and key == "gru0f":
                out = _continue_scan(x, weights, lengths, head_states)
            else:
                out = run_gru(x, *weights, reverse=direction == "b", lengths=lengths,
                              record=record)
            if record:
                out, bptt = out
                bptts[-1].append(bptt)
            states.append(out)
        # The layer's input and its directions' states go as soon as the
        # next layer's input is built (a recording scan keeps what it needs).
        x = np.concatenate(states, axis=-1)
        del states, out
    pooled, pool_backward = mean_pool(x, lengths)
    scores, head_backward = score_head(pooled, params)
    if not record:
        return Tensor(scores)
    return Tensor(scores, _Pass(params, lengths, embed_backward, bptts, pool_backward,
                                head_backward))


@dataclass
class _Pass:
    """What one recording forward pass keeps for its backward; calling it
    runs that backward alone (`_backward`)."""

    params: Mapping[str, np.ndarray]
    lengths: np.ndarray
    embed_backward: Callable
    bptts: list[list[Callable]]  # per layer, directions f and b
    pool_backward: Callable
    head_backward: Callable

    def __call__(self, d_scores: np.ndarray, apply: Callable[[str, np.ndarray], object]) -> None:
        _backward([self], d_scores, apply)

    def groups(self) -> list[tuple[slice, int]]:
        """Each run of rows of one length, and that length."""
        starts = [0, *(np.flatnonzero(np.diff(self.lengths)) + 1)]
        ends = [*starts[1:], len(self.lengths)]
        return [(slice(lo, hi), int(self.lengths[lo])) for lo, hi in zip(starts, ends)]


def _backward(passes: Sequence[_Pass], d_scores: np.ndarray,
              apply: Callable[[str, np.ndarray], object]) -> None:
    """Hand each parameter's d loss / d parameter to apply(name, gradient)
    as soon as it is final, given d_scores, the gradient of the passes'
    scores one pass after another: the head's first, then each GRU layer and
    direction's from the top, then the embeddings'. Nothing after that point
    reads the parameter, so apply may update it at once, and at most one
    layer and direction's gradients are alive at a time.

    The passes run their BPTT layer by layer together, so that each W's
    r, z, h copy (`rzh_rows`) is made once. Every gradient with respect to
    the inputs is taken for a whole pass: each row gets its bits whichever
    rows share a product. A parameter's gradient sums over rows, so it is
    taken per length group, from the group's own rows over its own length.
    The step's (length, pass, rows) groups are listed once, stably sorted by
    length, and the head, each GRU layer and direction, and the embeddings
    each walk that list, adding into zeroed gradients group by group: each
    float32 sum, and so the trained weights, are then those of one pass per
    length."""
    params = passes[0].params
    heads, at = [], 0
    for p in passes:
        heads.append(p.head_backward(d_scores[at : at + len(p.lengths)]))
        at += len(p.lengths)
    d_pooled, head_adds = zip(*heads)
    groups = sorted(((n, k, rows) for k, p in enumerate(passes) for rows, n in p.groups()),
                    key=lambda group: group[0])
    grads = _zeros(params, [name for name in params if name.startswith("head.")])
    for _, k, rows in groups:
        head_adds[k](grads, rows)
    _hand_on(grads, apply)
    d_x = [p.pool_backward(d) for p, d in zip(passes, d_pooled)]
    for layer in reversed(range(len(passes[0].bptts))):
        by_direction = []
        for half, direction in enumerate("fb"):
            key = f"gru{layer}{direction}"
            w_rzh = rzh_rows(params[f"{key}.w"])
            walks = [p.bptts[layer][half](np.split(d, 2, axis=-1)[half], w_rzh)
                     for p, d in zip(passes, d_x)]
            grads = _zeros(params, [f"{key}.{kind}" for kind in "wub"])
            # Each group's dW then takes the copy's buffer in turn.
            for _, k, rows in groups:
                for name, d in zip(grads, walks[k][1](rows, w_rzh)):
                    grads[name] += d
            by_direction.append([dx for dx, _ in walks])
            del walks, w_rzh  # and with the walks, their pre-activation gradients
            _hand_on(grads, apply)
        d_x = [f + b for f, b in zip(*by_direction)]
    grads = _zeros(params, [name for name in params if name.startswith("emb_")])
    for n, k, rows in groups:
        passes[k].embed_backward(d_x[k], grads, rows=rows, steps=n)
    _hand_on(grads, apply)


def _zeros(params: Mapping[str, np.ndarray], names: Sequence[str]) -> dict[str, np.ndarray]:
    """A zeroed gradient for each named parameter."""
    return {name: np.zeros_like(params[name]) for name in names}


def _hand_on(grads: dict[str, np.ndarray], apply: Callable[[str, np.ndarray], object]) -> None:
    """apply(name, gradient) for each finished gradient, dropping each from
    `grads` as it goes."""
    for name in list(grads):
        apply(name, grads.pop(name))


def _continue_scan(
    x: np.ndarray,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray],
    lengths: np.ndarray,
    head_states: Sequence[np.ndarray],
) -> np.ndarray:
    """The forward scan of x's rows given each row's states over its first
    positions: one masked scan runs the rest of every row, left-aligned and
    longest first, from the row's last head state, and each row's result is
    its head states followed by its own."""
    batch, steps, _ = x.shape
    starts = np.array([len(h) for h in head_states])
    tails = lengths - starts
    if (tails < 0).any():
        raise ValueError("a row is shorter than its head states")
    order = np.argsort(-tails, kind="stable")
    hid = weights[1].shape[1]
    x_tail = np.zeros((batch, tails.max(), x.shape[2]), dtype=x.dtype)
    h0 = np.zeros((batch, hid), dtype=x.dtype)
    for row, i in enumerate(order):
        x_tail[row, : tails[i]] = x[i, starts[i] : lengths[i]]
        if starts[i]:
            h0[row] = head_states[i][-1]
    tail = run_gru(x_tail, *weights, lengths=tails[order], h0=h0)
    out = np.zeros((batch, steps, hid), dtype=x.dtype)
    for row, i in enumerate(order):
        out[i, : starts[i]] = head_states[i]
        out[i, starts[i] : lengths[i]] = tail[row, : tails[i]]
    return out


def pairwise_hinge(
    s_pos: np.ndarray, s_neg: np.ndarray, margin: float = 0.5
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean margin-ranking loss (y=+1) over aligned score vectors, and its
    gradients with respect to s_pos and s_neg."""
    excess = margin - (s_pos - s_neg)
    d_neg = np.full_like(excess, 1.0 / excess.size) * (excess > 0)
    return float(np.maximum(excess, 0).mean()), -d_neg, d_neg


def _stack_streams(
    streams: Sequence[TokenStream], channels: tuple[str, ...], rows: int | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """(rows, longest length) id blocks per channel, zero past each stream's
    length and in the rows after the streams (default: one row per stream),
    and the row lengths. Padding rows have length 1, so that pooling never
    divides by zero."""
    rows = len(streams) if rows is None else rows
    lengths = np.ones(rows, dtype=np.int64)
    lengths[: len(streams)] = [s.length for s in streams]
    ids = {}
    for ch in channels:
        ids[ch] = block = np.zeros((rows, lengths.max()), dtype=np.int64)
        for i, s in enumerate(streams):
            chan = s.ids.get(ch)
            if chan is None:
                raise DataError(f"stream is missing the {ch!r} channel")
            block[i, : s.length] = chan
    return ids, lengths


def _candidate_streams(
    pairs: Sequence[tuple[Sequence[Turn], Sequence[Turn]]], enc: EncodingConfig
) -> tuple[list[TokenStream], list[int], list[TokenStream]]:
    """The streams of each (context, candidates) pair's candidates, pair
    after pair; the bounds of each pair's run of them; and each pair's
    context stream, linearized once, which its candidates' streams start
    with."""
    streams: list[TokenStream] = []
    bounds = [0]
    heads = []
    for context, candidates in pairs:
        heads.append(head := linearize(context, enc))
        streams.extend(encode_pairwise_inputs(context, c, enc, head) for c in candidates)
        bounds.append(len(streams))
    return streams, bounds, heads


# Rows a scoring bucket holds at most. Products give a row the same bits at
# any row count from MIN_ROWS up to this, which tests/test_models.py checks.
# score_candidates also takes at most this many contexts at a time, so the
# context states it holds are no larger than a bucket's layer-0 states.
BUCKET_ROWS = 64


def _buckets(
    streams: Sequence[TokenStream], channels: tuple[str, ...]
) -> Iterator[tuple[list[int], dict[str, np.ndarray], np.ndarray]]:
    """The streams longest first (a stable sort), cut into buckets of at most
    BUCKET_ROWS: per bucket, the streams' indices in row order and their
    `_stack_streams` blocks and lengths, padded to at least MIN_ROWS rows."""
    order = sorted(range(len(streams)), key=lambda i: -streams[i].length)
    for start in range(0, len(order), BUCKET_ROWS):
        bucket = order[start : start + BUCKET_ROWS]
        ids, lengths = _stack_streams([streams[i] for i in bucket], channels,
                                      max(len(bucket), MIN_ROWS))
        yield bucket, ids, lengths


class NeuralScorer:
    """A configured biGRU scorer: its vocabularies, its parameter buffer
    `flat` laid out by `layout` (param_layout), and `params`, the views of
    it that the forward pass reads (param_views)."""

    def __init__(
        self,
        config: NeuralConfig,
        vocabularies: Vocabularies,
        flat: np.ndarray,
        manifest: dict | None = None,
    ):
        self.config = config
        self.vocabularies = vocabularies
        self.layout = param_layout(config, vocabularies)
        self.flat = flat
        self.params = param_views(flat, self.layout)
        self.manifest = manifest or {}
        self.encoding = EncodingConfig(config.channels, vocabularies)

    @classmethod
    def initialize(cls, config: NeuralConfig, vocabularies: Vocabularies) -> "NeuralScorer":
        return cls(config, vocabularies, init_params(config, vocabularies))

    def score_streams(
        self,
        streams: Sequence[TokenStream],
        heads: Sequence[TokenStream] = (),
        head_of: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Evaluation-mode scores in input order, each independent of the
        other streams. When `head_of` is given, stream i must start with the
        positions of heads[head_of[i]] (ValueError otherwise; by default no
        stream shares any). Each head's layer-0 forward states come from one
        scan (`_head_states`); then the streams run in the buckets that
        `_buckets` plans, each row's layer-0 forward scan continuing from
        its head's last state."""
        cfg = self.config
        if head_of is not None:
            _check_heads(streams, heads, head_of, cfg.channels)
        states = self._head_states(heads)
        none = np.zeros((0, cfg.gru_hidden), dtype=self.flat.dtype)
        out = np.zeros(len(streams), dtype=np.float64)
        for bucket, ids, lengths in _buckets(streams, cfg.channels):
            own = [none if head_of is None else states[head_of[i]] for i in bucket]
            own += [none] * (len(lengths) - len(bucket))
            scores = forward_scores(ids, self.params, cfg, lengths, head_states=own)
            out[bucket] = scores.data[: len(bucket)]
        return out

    def _head_states(self, heads: Sequence[TokenStream]) -> list[np.ndarray]:
        """The layer-0 forward states of each head, (its length, hidden),
        each its own array, from one masked scan per bucket of heads
        (`_buckets`)."""
        cfg, p = self.config, self.params
        states: list[np.ndarray] = [None] * len(heads)
        for bucket, ids, lengths in _buckets(heads, cfg.channels):
            x, _ = embed_channels(ids, p, cfg.channels)
            out = run_gru(x, p["gru0f.w"], p["gru0f.u"], p["gru0f.b"], lengths=lengths)
            for row, i in enumerate(bucket):
                states[i] = out[row, : lengths[row]].copy()
        return states

    def score_candidates(
        self, pairs: Sequence[tuple[Sequence[Turn], Sequence[Turn]]]
    ) -> list[np.ndarray]:
        """Scores of each (context, candidates) pair's candidates, each
        context's layer-0 forward scan run once. The pairs are scored
        BUCKET_ROWS at a time, the candidates of each such run together, so
        that the context states held at once stay bounded."""
        out = []
        for at in range(0, len(pairs), BUCKET_ROWS):
            streams, bounds, heads = _candidate_streams(pairs[at : at + BUCKET_ROWS],
                                                        self.encoding)
            head_of = [k for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
                       for _ in range(lo, hi)]
            scores = self.score_streams(streams, heads, head_of)
            out.extend(scores[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        return out


def _check_heads(
    streams: Sequence[TokenStream],
    heads: Sequence[TokenStream],
    head_of: Sequence[int],
    channels: tuple[str, ...],
) -> None:
    """Raise ValueError unless each stream i starts with heads[head_of[i]]
    in every channel."""
    if len(head_of) != len(streams):
        raise ValueError(f"head_of names {len(head_of)} heads for {len(streams)} streams")
    for i, (stream, k) in enumerate(zip(streams, head_of)):
        head = heads[k]
        for ch in channels:
            if ch not in stream.ids or ch not in head.ids:
                raise DataError(f"stream is missing the {ch!r} channel")
        if head.length > stream.length or not all(
            np.array_equal(stream.ids[ch][: head.length], head.ids[ch]) for ch in channels
        ):
            raise ValueError(f"stream {i} does not start with heads[{k}]")


@dataclass
class TrainHistory:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_mrr: float = 0.0
    epochs_run: int = 0


def train_neural(
    train: Sequence[RankingInstance],
    dev: Sequence[RankingInstance],
    config: NeuralConfig,
    vocabularies: Vocabularies,
    pretrained_words: str | None = None,
) -> tuple[NeuralScorer, TrainHistory]:
    """Train on original/adversarial pairs with Adam and the margin-ranking
    loss, early-stopping on development MRR.

    Deterministic given config.seed: initialization, pair shuffling, and
    batching all derive from it. Raises NumericError on divergence.
    """
    if not train:
        raise DataError("empty training set")
    if not dev:
        raise DataError("training requires at least one development instance")
    scorer = NeuralScorer.initialize(config, vocabularies)
    if pretrained_words is not None:
        load_word_vectors(pretrained_words, vocabularies, scorer.params)
    streams, bounds, _ = _candidate_streams(
        [(inst.context, [c.turn for c in inst.candidates]) for inst in train], scorer.encoding
    )
    pairs: list[tuple[int, int]] = []
    for inst, lo, hi in zip(train, bounds, bounds[1:]):
        pos = lo + inst.positive_position
        pairs.extend((pos, i) for i in range(lo, hi) if i != pos)

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    state = AdamState(np.zeros_like(scorer.flat), np.zeros_like(scorer.flat))
    history = TrainHistory()
    best = None  # the best epoch's weights, one buffer refilled before an epoch trains over them
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        if epoch > 1 and history.best_epoch == epoch - 1:
            if best is None:
                best = np.empty_like(scorer.flat)
            np.copyto(best, scorer.flat)
        order = shuffle_rng.permutation(len(pairs))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = [pairs[i] for i in order[start : start + config.batch_size]]
            loss = _batch_step(scorer, streams, chunk, state)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged (non-finite loss) at epoch {epoch}, "
                    f"batch {start // config.batch_size}"
                )
            loss_sum += loss * len(chunk)
        dev_mrr = evaluate_selection(scorer, dev)["mrr"]
        history.epochs.append(
            {"epoch": epoch, "train_loss": loss_sum / len(pairs), "dev_mrr": dev_mrr}
        )
        if dev_mrr > history.best_dev_mrr or epoch == 1:
            history.best_dev_mrr = dev_mrr
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
        history.epochs_run = epoch
        if since_best >= config.patience:
            break

    if history.best_epoch != history.epochs_run:
        scorer.flat[...] = best
    scorer.manifest = {
        "seed": config.seed,
        "epochs_run": history.epochs_run,
        "best_epoch": history.best_epoch,
        "best_dev_mrr": history.best_dev_mrr,
        "train_instances": len(train),
        "train_pairs": len(pairs),
        "dev_instances": len(dev),
    }
    return scorer, history


def _batch_step(
    scorer: NeuralScorer,
    streams: Sequence[TokenStream],
    chunk: Sequence[tuple[int, int]],
    state: AdamState,
) -> float:
    """One Adam step on a batch of (positive, negative) stream-index pairs.

    The batch's streams fall into groups of one length. Every group of
    MIN_ROWS or more rows runs in one masked pass, longest first, and each
    smaller group in a pass of its own: each product gives a row the same
    bits at any row count from MIN_ROWS up, while 1 to 3 rows take other
    BLAS code paths. The backward (`_backward`) adds each parameter's
    gradient group by group in ascending length, so the gradient, and the
    trained weights, are bit for bit those of one pass per length. (Adam's
    first step amplifies any last-bit change in a gradient into different
    trained weights.) Adam updates each parameter as the backward finishes
    its gradient, once per step at the step's count, so no array the size
    of the model is allocated; Adam is elementwise, so the weights are
    those of one update of the whole buffer."""
    groups: dict[int, list[int]] = {}
    for sid in dict.fromkeys(sid for pair in chunk for sid in pair):
        groups.setdefault(streams[sid].length, []).append(sid)
    merged = [sid for _, group in sorted(groups.items(), reverse=True)
              if len(group) >= MIN_ROWS for sid in group]
    blocks = [merged] if merged else []
    blocks += [group for _, group in sorted(groups.items()) if len(group) < MIN_ROWS]
    passes = []
    order: list[int] = []
    for block in blocks:
        ids, lengths = _stack_streams([streams[s] for s in block], scorer.config.channels)
        passes.append(forward_scores(ids, scorer.params, scorer.config, lengths, record=True))
        order.extend(block)
    scores = np.concatenate([p.data for p in passes])
    slot = {sid: i for i, sid in enumerate(order)}
    pos_idx = np.array([slot[p] for p, _ in chunk])
    neg_idx = np.array([slot[n] for _, n in chunk])
    loss, d_pos, d_neg = pairwise_hinge(
        scores[pos_idx], scores[neg_idx], margin=scorer.config.margin
    )
    d_scores = np.zeros_like(scores)
    np.add.at(d_scores, pos_idx, d_pos)
    np.add.at(d_scores, neg_idx, d_neg)
    state.step += 1
    params, lr = scorer.params, scorer.config.lr
    m, v = param_views(state.m, scorer.layout), param_views(state.v, scorer.layout)

    def update(name: str, grad: np.ndarray) -> None:
        adam_step(params[name], grad, m[name], v[name], state.step, lr)

    step = Tensor(scores, partial(_backward, [p.tape for p in passes]))
    step.backward(d_scores, update)
    return loss
