"""Bidirectional-GRU coherence scorer and its response-selection trainer.

Per-position channel embeddings are looked up for a whole (batch, length)
block of ids and concatenated into one (batch, length, input) array, passed
through stacked bidirectional GRU layers (forward and backward states
concatenated per layer), mean-pooled over positions, and mapped to a scalar
score by a one-hidden-layer ReLU head. `forward_scores` writes this pass out
over plain numpy arrays; with `record` set it keeps what its backward pass
needs and returns the scores with that backward pass, written by hand in the
reverse order: head, pooling, each GRU layer's backpropagation through time
(`run_gru`), then a scatter-add into the embedding tables. Training
minimizes the margin-ranking loss over original/adversarial score pairs
(`pairwise_hinge`, with its gradient) with Adam, early-stopping on
development MRR.

Parameters are numpy arrays under their names: each GRU layer and direction
as three stacked arrays "gru{layer}{f|b}.w", ".u" and ".b" (gate rows h, r,
z; see `engine/rnn.py`). Checkpoints name the nine per-gate arrays
("gru0f.w_r", ...); `parameter_arrays` gives them as row views of the
stacked arrays, and `params_from_arrays` stacks a loaded checkpoint's gates
back, as views of its payload.

Scoring is batch-invariant: a stream's score is bit-identical whichever
other streams share its pass. `score_streams` sorts streams longest first,
the row order `run_gru` requires, and runs buckets of at most `batch_size`
rows, zero-padded to the block length and to at least MIN_ROWS rows;
`run_gru` masks each row to its own length, pooling divides by it, and every
product then gives each row the same bits at any row count from MIN_ROWS up
(the head's one-output product is a row-wise sum: BLAS's matrix-vector
product gives a row different bits depending on how many rows share the
call). Training steps still run one pass per exact stream length
(`_batch_step` says why).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..corpus import Turn, Vocabularies
from ..engine.autodiff import Tensor
from ..engine.optim import AdamState, adam_step
from ..engine.rnn import GATES, MIN_ROWS, run_gru
from ..errors import DataError, NumericError
from ..linearize import CHANNELS, EncodingConfig, TokenStream, encode_pairwise_inputs
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

    def to_dict(self) -> dict:
        return {
            "channels": list(self.channels),
            "emb_dim_word": self.emb_dim_word,
            "emb_dim_other": self.emb_dim_other,
            "gru_layers": self.gru_layers,
            "gru_hidden": self.gru_hidden,
            "head_hidden": self.head_hidden,
            "lr": self.lr,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "margin": self.margin,
            "patience": self.patience,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "NeuralConfig":
        obj = dict(obj)
        obj["channels"] = tuple(obj["channels"])
        return cls(**obj)


def encoding_for(config: NeuralConfig, vocabularies: Vocabularies) -> EncodingConfig:
    return EncodingConfig(
        use_word="word" in config.channels,
        use_role="role" in config.channels,
        use_da="da" in config.channels,
        use_turn="turn" in config.channels,
        vocabularies=vocabularies,
    )


def _channel_dims(config: NeuralConfig, enc: EncodingConfig) -> dict[str, tuple[int, int]]:
    """(vocab_size, embedding_dim) per active channel."""
    v = enc.vocabularies
    sizes = {
        "word": len(v.words),
        "role": len(v.roles),
        "da": len(enc.da_vocab()),
        "turn": len(v.turn),
    }
    dims = {}
    for ch in config.channels:
        dim = config.emb_dim_word if ch == "word" else config.emb_dim_other
        dims[ch] = (sizes[ch], dim)
    return dims


def param_shapes(config: NeuralConfig, vocabularies: Vocabularies) -> dict[str, tuple[int, ...]]:
    """Name and shape of every array a checkpoint of this config holds, in
    the order init_params draws them: embeddings, GRU layers (gates r, z, h,
    each as w, u, b), head."""
    dims = _channel_dims(config, encoding_for(config, vocabularies))
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
    return shapes


def init_params(
    config: NeuralConfig, vocabularies: Vocabularies, dtype=np.float32
) -> dict[str, np.ndarray]:
    """Seeded parameter initialization: embeddings uniform in [-0.1, 0.1],
    GRU weights uniform in [-1/sqrt(hidden), 1/sqrt(hidden)], head weights
    uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero biases. Draw order is
    that of param_shapes, for reproducibility; each draw goes straight into
    its array, a GRU gate's being a row view of its stacked parameter."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    shapes = param_shapes(config, vocabularies)
    stacked: dict[str, tuple[int, ...]] = {}
    for name, shape in shapes.items():
        key = _stack_key(name)
        stacked[key] = (stacked.get(key, (0,))[0] + shape[0],) + shape[1:]
    data = {key: np.zeros(shape, dtype=dtype) for key, shape in stacked.items()}
    arrays = named_arrays(data)
    for name, shape in shapes.items():
        if len(shape) == 1:
            continue
        if name.startswith("emb_"):
            bound = 0.1
        elif name.startswith("gru"):
            bound = 1.0 / math.sqrt(config.gru_hidden)
        else:
            bound = 1.0 / math.sqrt(shape[1])
        arrays[name][...] = rng.uniform(-bound, bound, shape)
    return data


def _stack_key(name: str) -> str:
    """The parameter a checkpoint array belongs to: "gru0f.w" for "gru0f.w_r"."""
    return name.rpartition("_")[0] if name.startswith("gru") else name


def named_arrays(stacked: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Arrays of the parameters (or of their gradients) under checkpoint
    names, each GRU gate a row view of its stacked array."""
    arrays: dict[str, np.ndarray] = {}
    for key, a in stacked.items():
        if key.startswith("gru"):
            arrays.update((f"{key}_{gate}", rows) for gate, rows in zip(GATES, np.split(a, 3)))
        else:
            arrays[key] = a
    return arrays


def params_from_arrays(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Parameters from arrays under checkpoint names: each GRU layer and
    direction's per-gate arrays stacked, gate rows in GATES order."""
    params: dict[str, np.ndarray] = {}
    for name, a in arrays.items():
        key = _stack_key(name)
        if key == name:
            params[key] = a
        elif key not in params:
            params[key] = _stack_rows([arrays[f"{key}_{gate}"] for gate in GATES])
    return params


def _stack_rows(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The parts stacked by row: a view when they lie back to back in one
    array's buffer, as a loaded checkpoint's gates do (save_checkpoint writes
    them in sorted-name order, which is GATES order), a copy otherwise."""
    first, base = parts[0], parts[0].base
    starts = [a.ctypes.data for a in parts]
    if (
        base is None
        or not base.flags.c_contiguous
        or any(a.base is not base or not a.flags.c_contiguous for a in parts)
        or any(lo + a.nbytes != hi for a, lo, hi in zip(parts, starts, starts[1:]))
    ):
        return np.concatenate(parts)
    shape = (sum(len(a) for a in parts),) + first.shape[1:]
    return np.ndarray(shape, first.dtype, buffer=base, offset=starts[0] - base.ctypes.data)


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
    found = line_no = 0
    with open(path, encoding="utf-8") as f:
        try:
            for line_no, line in enumerate(f, 1):
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
                    raise DataError(
                        f"{path} line {line_no}: non-numeric vector value ({exc})"
                    ) from exc
                if not np.isfinite(vector).all():
                    raise DataError(f"{path} line {line_no}: {parts[0]!r} has a non-finite value")
                emb[wid] = vector
                found += 1
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text after line {line_no} ({exc.reason})") from exc
    return found


def embed_channels(
    ids_by_channel: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    channels: Sequence[str],
):
    """The (batch, length, input) embeddings of (batch, length) ids, the
    channels' rows side by side; and their backward, which scatter-adds a
    gradient of them into each table's entry of a gradient dict."""
    x = np.concatenate([params[f"emb_{ch}"][ids_by_channel[ch]] for ch in channels], axis=-1)

    def backward(d_x: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        at = 0
        for ch in channels:
            name = f"emb_{ch}"
            dim = params[name].shape[1]
            np.add.at(grads[name], ids_by_channel[ch], d_x[..., at : at + dim])
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
    and the backward that adds the head's gradients into a dict and returns
    the pooled states' gradient. The output is a row-wise multiply-sum:
    BLAS's matrix-vector product gives a row different bits depending on how
    many rows share the call, and a score must not depend on its batch."""
    w1, w2 = params["head.w1"], params["head.w2"]
    hidden = np.maximum(pooled @ w1.T + params["head.b1"], 0)
    scores = (hidden * w2).sum(axis=1) + params["head.b2"]

    def backward(d_scores: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
        g = d_scores.reshape(-1, 1)
        grads["head.w2"] += g.T @ hidden
        grads["head.b2"] += g.sum(axis=0)
        g = (g @ w2) * (hidden > 0)
        grads["head.w1"] += g.T @ pooled
        grads["head.b1"] += g.sum(axis=0)
        return g @ w1

    return scores, backward


def forward_scores(
    ids_by_channel: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    config: NeuralConfig,
    lengths: np.ndarray | None = None,
    record: bool = False,
) -> Tensor:
    """Score a block of streams; ids are (batch, length) arrays per channel.
    `lengths` gives each row's own length, its ids past it being padding
    (default: every row fills the block). Returns the (batch,) scores; with
    `record`, their `backward` adds each parameter's gradient into a dict
    that holds an array for every parameter."""
    batch, steps = next(iter(ids_by_channel.values())).shape
    if lengths is None:
        lengths = np.full(batch, steps)
    x, embed_backward = embed_channels(ids_by_channel, params, config.channels)
    layers = []  # per layer, each direction's (name, bptt) when recording
    for layer in range(config.gru_layers):
        states, bptts = [], []
        for direction in "fb":
            key = f"gru{layer}{direction}"
            out = run_gru(x, params[f"{key}.w"], params[f"{key}.u"], params[f"{key}.b"],
                          reverse=direction == "b", lengths=lengths, record=record)
            if record:
                out, bptt = out
                bptts.append((key, bptt))
            states.append(out)
        layers.append(bptts)
        x = np.concatenate(states, axis=-1)
    pooled, pool_backward = mean_pool(x, lengths)
    scores, head_backward = score_head(pooled, params)
    if not record:
        return Tensor(scores)

    def backward(d_scores: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        d_x = pool_backward(head_backward(d_scores, grads))
        for bptts in reversed(layers):
            d_in = []
            for (key, bptt), d_out in zip(bptts, np.split(d_x, 2, axis=-1)):
                dx, *d_params = bptt(d_out)
                for kind, d in zip("wub", d_params):
                    grads[f"{key}.{kind}"] += d
                # Dropped before the other direction runs, so that it reuses
                # their memory.
                del d_params
                d_in.append(dx)
            d_x = d_in[0] + d_in[1]
        embed_backward(d_x, grads)

    return Tensor(scores, backward)


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
            chan = s.channel(ch)
            if chan is None:
                raise DataError(f"stream is missing the {ch!r} channel")
            block[i, : s.length] = chan
    return ids, lengths


class NeuralScorer:
    """A configured biGRU scorer bundling parameters and vocabularies."""

    def __init__(
        self,
        config: NeuralConfig,
        vocabularies: Vocabularies,
        params: dict[str, np.ndarray],
        manifest: dict | None = None,
    ):
        self.config = config
        self.vocabularies = vocabularies
        self.params = params
        self.manifest = manifest or {}
        self.encoding = encoding_for(config, vocabularies)

    @classmethod
    def initialize(cls, config: NeuralConfig, vocabularies: Vocabularies) -> "NeuralScorer":
        return cls(config, vocabularies, init_params(config, vocabularies))

    def score_streams(self, streams: Sequence[TokenStream]) -> np.ndarray:
        """Evaluation-mode scores in input order, each independent of the
        other streams: longest first, in buckets of at most batch_size rows
        padded to MIN_ROWS."""
        out = np.zeros(len(streams), dtype=np.float64)
        order = sorted(range(len(streams)), key=lambda i: -streams[i].length)
        size = self.config.batch_size
        for start in range(0, len(order), size):
            bucket = order[start : start + size]
            ids, lengths = _stack_streams(
                [streams[i] for i in bucket], self.config.channels,
                rows=max(len(bucket), MIN_ROWS),
            )
            scores = forward_scores(ids, self.params, self.config, lengths)
            out[bucket] = scores.data[: len(bucket)]
        return out

    def score_candidates(
        self, pairs: Sequence[tuple[Sequence[Turn], Sequence[Turn]]]
    ) -> list[np.ndarray]:
        """Scores of each (context, candidates) pair's candidates, all
        streams scored together."""
        streams: list[TokenStream] = []
        bounds = [0]
        for context, candidates in pairs:
            streams.extend(encode_pairwise_inputs(context, c, self.encoding) for c in candidates)
            bounds.append(len(streams))
        scores = self.score_streams(streams)
        return [scores[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        """The arrays a checkpoint stores, under its names."""
        return named_arrays(self.params)

    def clone_param_data(self) -> dict[str, np.ndarray]:
        return {name: a.copy() for name, a in self.params.items()}

    def load_param_data(self, arrays: Mapping[str, np.ndarray]) -> None:
        for name, a in self.params.items():
            a[...] = arrays[name]


@dataclass
class TrainHistory:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_mrr: float = 0.0
    epochs_run: int = 0

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "best_dev_mrr": self.best_dev_mrr,
            "epochs_run": self.epochs_run,
        }


def _instance_streams(
    instances: Sequence[RankingInstance], enc: EncodingConfig
) -> tuple[list[TokenStream], list[list[int]], list[int]]:
    """Pre-encode every candidate stream once. Returns the flat stream list,
    per-instance stream indices, and per-instance positive stream index."""
    streams: list[TokenStream] = []
    by_instance: list[list[int]] = []
    positives: list[int] = []
    for inst in instances:
        idx = []
        for cand in inst.candidates:
            idx.append(len(streams))
            streams.append(encode_pairwise_inputs(inst.context, cand.turn, enc))
        by_instance.append(idx)
        positives.append(idx[inst.positive_position])
    return streams, by_instance, positives


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
    enc = scorer.encoding

    streams, by_instance, positives = _instance_streams(train, enc)
    pairs: list[tuple[int, int]] = []
    for idx, pos in zip(by_instance, positives):
        pairs.extend((pos, i) for i in idx if i != pos)

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    state = AdamState.for_params(scorer.parameter_arrays())
    history = TrainHistory()
    best = scorer.clone_param_data()
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
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
            best = scorer.clone_param_data()
            since_best = 0
        else:
            since_best += 1
        history.epochs_run = epoch
        if since_best >= config.patience:
            break

    scorer.load_param_data(best)
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

    The forward runs one pass per exact stream length, ascending, without
    padding: a length-bucketed pass would change the float32 summation order
    of the weight gradients (which sum over every batch row and time step),
    and Adam's first step amplifies such last-bit changes into different
    trained weights. Moving training onto buckets waits until the recorded
    benchmark references are re-recorded with it."""
    groups: dict[int, list[int]] = {}
    for sid in dict.fromkeys(sid for pair in chunk for sid in pair):
        groups.setdefault(streams[sid].length, []).append(sid)
    grads = {name: np.zeros_like(a) for name, a in scorer.params.items()}
    passes = []
    order: list[int] = []
    for _, group in sorted(groups.items()):
        ids, _ = _stack_streams([streams[s] for s in group], scorer.config.channels)
        passes.append(forward_scores(ids, scorer.params, scorer.config, record=True))
        order.extend(group)
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
    # Gradients add up group by group in ascending length: each parameter's
    # float32 sum, and so the trained weights, depend on that order.
    at = 0
    for i, p in enumerate(passes):
        passes[i] = None  # its recorded states go once its backward has run
        p.backward(d_scores[at : at + len(p.data)], grads)
        at += len(p.data)
    # Adam runs over the per-gate views: at paper size that is 1.5-2x faster
    # than over the stacked arrays, whose temporaries are three times larger.
    adam_step(scorer.parameter_arrays(), named_arrays(grads), state, scorer.config.lr)
    return loss
