"""Bidirectional-GRU coherence scorer and its response-selection trainer.

Per-position channel embeddings are looked up for a whole (batch, length)
block of ids and concatenated into one (batch, length, input) tensor, passed
through stacked bidirectional GRU layers (forward and backward states
concatenated per layer), mean-pooled over positions, and mapped to a scalar
score by a one-hidden-layer ReLU head. Each GRU layer and direction is one
graph node with hand-written backpropagation through time (`run_gru`), so a
forward pass builds the same small graph whatever the stream length.
Training minimizes the margin-ranking loss over original/adversarial score
pairs with Adam, early-stopping on development MRR.

Scoring is batch-invariant: a stream's score is bit-identical whichever
other streams share its pass. `score_streams` sorts streams by length and
runs buckets of at most `batch_size` rows, zero-padded to the block length
and to at least MIN_ROWS rows; `run_gru` masks each row to its own length,
pooling divides by it, and every product then gives each row the same bits
at any row count (the head's one-output product is a row-wise sum, see
`ad.linear`). Training steps still run one pass per exact stream length
(`_batch_step`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..corpus import Turn, Vocabularies
from ..engine import autodiff as ad
from ..engine.autodiff import Tensor, no_grad
from ..engine.losses import pairwise_hinge
from ..engine.optim import AdamState, adam_step
from ..engine.rnn import GATES, GruCellParams, run_gru
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
    """Name and shape of every parameter the config needs, in the order
    init_params draws them: embeddings, GRU layers, head."""
    dims = _channel_dims(config, encoding_for(config, vocabularies))
    shapes: dict[str, tuple[int, ...]] = {f"emb_{ch}": dims[ch] for ch in config.channels}
    input_dim = sum(dim for _, dim in dims.values())
    hid = config.gru_hidden
    for layer in range(config.gru_layers):
        for direction in ("f", "b"):
            prefix = f"gru{layer}{direction}"
            for gate in GATES:
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
) -> dict[str, Tensor]:
    """Seeded parameter initialization: embeddings uniform in [-0.1, 0.1],
    GRU weights uniform in [-1/sqrt(hidden), 1/sqrt(hidden)], head weights
    uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero biases. Draw order is
    that of param_shapes, for reproducibility."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config, vocabularies).items():
        if len(shape) == 1:
            data = np.zeros(shape, dtype=dtype)
        else:
            if name.startswith("emb_"):
                bound = 0.1
            elif name.startswith("gru"):
                bound = 1.0 / math.sqrt(config.gru_hidden)
            else:
                bound = 1.0 / math.sqrt(shape[1])
            data = rng.uniform(-bound, bound, shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def load_word_vectors(path, vocabularies: Vocabularies, params: Mapping[str, Tensor]) -> int:
    """Overwrite word-embedding rows from a text file of "token v1 ... vd"
    lines; tokens outside the vocabulary are skipped, and a vocabulary token
    with other than d values is a DataError. Returns the number of rows
    filled."""
    emb = params.get("emb_word")
    if emb is None:
        raise DataError("model has no word channel to load vectors into")
    dim = emb.data.shape[1]
    found = 0
    with open(path, encoding="utf-8") as f:
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
                emb.data[wid] = np.asarray([float(x) for x in parts[1:]], dtype=emb.data.dtype)
            except ValueError as exc:
                raise DataError(f"{path} line {line_no}: non-numeric vector value ({exc})") from exc
            found += 1
    return found


def forward_scores(
    ids_by_channel: Mapping[str, np.ndarray],
    params: Mapping[str, Tensor],
    config: NeuralConfig,
    lengths: np.ndarray | None = None,
) -> Tensor:
    """Score a block of streams; ids are (batch, length) arrays per channel.
    `lengths` gives each row's own length, its ids past it being padding
    (default: every row fills the block). Returns a (batch,) score tensor."""
    batch, steps = next(iter(ids_by_channel.values())).shape
    if lengths is None:
        lengths = np.full(batch, steps)
    parts = [ad.take_rows(params[f"emb_{ch}"], ids_by_channel[ch]) for ch in config.channels]
    x = parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1)
    for layer in range(config.gru_layers):
        fwd = run_gru(x, GruCellParams.from_named(f"gru{layer}f", params), lengths=lengths)
        bwd = run_gru(x, GruCellParams.from_named(f"gru{layer}b", params), reverse=True,
                      lengths=lengths)
        x = ad.concat([fwd, bwd], axis=-1)
    pooled = ad.mean(x, lengths)
    hidden = ad.relu(ad.add(ad.linear(pooled, params["head.w1"]), params["head.b1"]))
    out = ad.add(ad.linear(hidden, params["head.w2"]), params["head.b2"])
    return ad.reshape(out, (batch,))


# Every float32 product the scorer makes gives a row the same bits for any
# row count from 4 up, while 1 to 3 rows take other BLAS code paths; so
# scoring buckets are padded to at least this many rows. tests/test_models.py
# checks the property on the BLAS numpy is linked against.
MIN_ROWS = 4


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
        params: dict[str, Tensor],
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
        with no_grad():
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
        return {name: t.data for name, t in self.params.items()}

    def clone_param_data(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_param_data(self, arrays: Mapping[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            t.data[...] = arrays[name]


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
    for t in scorer.params.values():
        t.zero_grad()
    parts = []
    order: list[int] = []
    for _, group in sorted(groups.items()):
        ids, _ = _stack_streams([streams[s] for s in group], scorer.config.channels)
        parts.append(forward_scores(ids, scorer.params, scorer.config))
        order.extend(group)
    all_scores = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    slot = {sid: i for i, sid in enumerate(order)}
    pos_idx = np.array([slot[p] for p, _ in chunk])
    neg_idx = np.array([slot[n] for _, n in chunk])
    loss = pairwise_hinge(
        ad.gather(all_scores, pos_idx),
        ad.gather(all_scores, neg_idx),
        margin=scorer.config.margin,
    )
    value = loss.item()
    loss.backward()
    adam_step(
        scorer.parameter_arrays(),
        {name: t.grad for name, t in scorer.params.items()},
        state,
        scorer.config.lr,
    )
    return value
