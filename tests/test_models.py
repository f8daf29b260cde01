import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dialcoh.corpus import Dialogue, derive_vocabularies
from dialcoh.engine import AdamState
from dialcoh.engine.rnn import MIN_ROWS
from dialcoh.errors import ChecksumError, DataError, NumericError
from dialcoh.linearize import TokenStream, encode_pairwise_inputs, linearize
from dialcoh.models import (
    LinearRanker,
    LinearRankerConfig,
    NeuralConfig,
    NeuralScorer,
    build_pair_features,
    evaluate_selection,
    load_checkpoint,
    rank_candidates,
    ranking_accuracy,
    save_checkpoint,
    train_linear_ranker,
    train_neural,
)
from dialcoh.models import checkpoint, neural
from dialcoh.models.linear import feature_dim
import dialcoh
from dialcoh.models.neural import BUCKET_ROWS, _batch_step, forward_scores, init_params
from dialcoh.swapgen import Candidate, RankingInstance, build_selection_dataset

from conftest import (
    AdamRecorder,
    batch_step_reference,
    grad_check,
    gru_reference,
    init_params_reference,
    seg,
    synthetic_corpus,
    turn,
)


def small_config(**overrides) -> NeuralConfig:
    base = dict(
        channels=("word", "da", "turn"),
        emb_dim_word=6,
        emb_dim_other=4,
        gru_hidden=5,
        head_hidden=4,
        lr=0.01,
        batch_size=8,
        max_epochs=3,
        seed=0,
    )
    base.update(overrides)
    return NeuralConfig(**base)


@pytest.fixture
def dataset(corpus):
    instances, _ = build_selection_dataset(
        corpus, points_per_dialogue=3, n_neg=3, mode="internal", seed=2, ctx_range=(1, 6)
    )
    return instances


def da_turn(das, speaker="B"):
    return turn(speaker, *[seg(d) for d in das])


def bigram_toy(seed=0, n_instances=12, n_neg=3):
    """Positives end with the DA bigram (b, sd); negatives never contain it."""
    rng = np.random.default_rng(seed)
    non_target = [("b", "qy"), ("qy", "b"), ("sd", "qy"), ("qy", "sd"), ("sd", "b")]
    instances = []
    for i in range(n_instances):
        context = tuple(
            da_turn([str(rng.choice(["qy", "sd"]))], "A" if t % 2 == 0 else "B")
            for t in range(int(rng.integers(2, 4)))
        )
        cands = [Candidate(da_turn(["b", "sd"]), "original")] + [
            Candidate(da_turn(list(non_target[int(rng.integers(len(non_target)))])), "internal")
            for _ in range(n_neg)
        ]
        perm = rng.permutation(len(cands))
        instances.append(
            RankingInstance(
                dialogue_id=f"toy{i}",
                point_index=0,
                context=context,
                candidates=tuple(cands[j] for j in perm),
                positive_position=int(np.nonzero(perm == 0)[0][0]),
            )
        )
    return instances


# (in, out) of each float32 product the scorer makes at paper size: input
# projections of layer 0 (word 300 + da 50 + turn 50, and all four channels)
# and layer 1, the recurrent [U_r; U_z] and U_h, and the head's two layers;
# then the training backward's, rows times an untransposed matrix: BPTT's
# da_c @ U_h and da_rz @ [U_r; U_z] at each step, rzh @ W_rzh (dx, gates in
# r, z, h order) into each layer's input, and the head's g @ head.w1.
PAPER_PRODUCTS = {
    "input projection, layer 0": (400, 1536),
    "input projection, layer 0, 4 channels": (450, 1536),
    "input projection, layer 1": (1024, 1536),
    "[U_r; U_z]": (512, 1024),
    "U_h": (512, 512),
    "head.w1": (1024, 256),
    "head.w2 (row-wise)": (256, 1),
    "backward da_c @ U_h": (512, 512),
    "backward da_rz @ [U_r; U_z]": (1024, 512),
    "backward rzh @ W_rzh, layer 0": (1536, 400),
    "backward rzh @ W_rzh, layer 0, 4 channels": (1536, 450),
    "backward rzh @ W_rzh, layer 1": (1536, 1024),
    "backward g @ head.w1": (256, 1024),
}

# An input projection, and dx in the backward, runs on a block's rows times
# its steps: 880 on eval-paper, 40 steps of a full bucket here. A training
# pass holds up to two streams per pair of a default batch, no more than a
# scoring bucket's rows.
PROJECTION_ROWS = (BUCKET_ROWS + 1, 256, 880, BUCKET_ROWS * 40)
assert 2 * NeuralConfig(channels=("da",)).batch_size <= BUCKET_ROWS

TOY_VOCABS = derive_vocabularies(
    [Dialogue(id="v", turns=(da_turn(["b", "qy", "sd"], "A"),))]
)


class TestForwardScore:
    def test_all_zero_parameters_score_zero(self, vocabs, dataset):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        for a in scorer.params.values():
            a[...] = 0.0
        for scores in scorer.score_candidates(
            [(inst.context, [c.turn for c in inst.candidates]) for inst in dataset[:3]]
        ):
            np.testing.assert_allclose(scores, 0.0)

    def test_length_one_stream_mean_pooling_identity(self, vocabs):
        """With one position, mean pooling must pass the single biGRU output
        through unchanged: doubling head.w1 rows must act on exactly that
        vector. Verified by comparing against a manual head computation."""
        cfg = small_config(channels=("word",))
        scorer = NeuralScorer.initialize(cfg, vocabs)
        stream = TokenStream(1, {"word": np.array([3])})
        [score] = scorer.score_streams([stream])

        # Recompute: embeddings -> the reference scan over one position per
        # direction and layer -> (single) output -> head.
        p = scorer.params
        x = p["emb_word"][[3]][None]  # (batch 1, time 1, emb)
        for layer in range(cfg.gru_layers):
            f, b = (
                gru_reference(x, *(p[f"gru{layer}{d}.{k}"] for k in "wub"), reverse=d == "b")
                for d in "fb"
            )
            x = np.concatenate([f, b], axis=-1)
        single = x[:, 0]  # (1, 2H) with no pooling applied
        hidden = np.maximum(single @ p["head.w1"].T + p["head.b1"], 0)
        expected = float((hidden @ p["head.w2"].T + p["head.b2"])[0, 0])
        assert score == pytest.approx(expected, rel=1e-6)

    def test_order_sensitivity(self, vocabs):
        cfg = small_config(channels=("word",), seed=4)
        scorer = NeuralScorer.initialize(cfg, vocabs)
        a = TokenStream(4, {"word": np.array([3, 4, 5, 6])})
        b = TokenStream(4, {"word": np.array([3, 5, 4, 6])})
        score_a, score_b = scorer.score_streams([a]), scorer.score_streams([b])
        assert score_a[0] != pytest.approx(score_b[0], abs=1e-9)

    def test_batch_composition_invariance(self, vocabs, dataset, monkeypatch):
        scorer = NeuralScorer.initialize(small_config(seed=9), vocabs)
        streams = [
            encode_pairwise_inputs(inst.context, c.turn, scorer.encoding)
            for inst in dataset[:4]
            for c in inst.candidates
        ]
        assert len({s.length for s in streams}) > 1  # buckets mix lengths
        batched = scorer.score_streams(streams)
        solo = np.concatenate([scorer.score_streams([s]) for s in streams])
        assert np.array_equal(batched, solo)
        # Smaller buckets regroup the streams; no score moves.
        monkeypatch.setattr(neural, "BUCKET_ROWS", 5)
        assert np.array_equal(scorer.score_streams(streams[::-1]), batched[::-1])

    def test_evaluation_scores_equal_each_instance_scored_alone(self, vocabs, dataset):
        scorer = NeuralScorer.initialize(small_config(seed=3), vocabs)
        calls = []

        class Spy:
            def score_candidates(self, pairs):
                calls.append(scorer.score_candidates(pairs))
                return calls[-1]

        evaluate_selection(Spy(), dataset)
        [seen] = calls  # the whole set in one call
        assert len(seen) == len(dataset)
        for inst, scores in zip(dataset, seen):
            [alone] = scorer.score_candidates([(inst.context, [c.turn for c in inst.candidates])])
            assert np.array_equal(scores, alone)

    @pytest.mark.parametrize("shape", sorted(PAPER_PRODUCTS))
    def test_products_are_row_invariant_from_four_rows(self, shape):
        """Batch-invariant scoring, and training that merges length groups
        bit for bit, rest on this BLAS property: for every float32 product
        the scorer makes, at paper size, a block of 4 rows gets the same bits
        alone as inside any M of MIN_ROWS to BUCKET_ROWS rows, and for the
        input projections (x @ w.T) and dx (rzh @ W_rzh) also inside the
        larger M of PROJECTION_ROWS."""
        k, n = PAPER_PRODUCTS[shape]
        rng = np.random.default_rng(k + n)
        w = rng.uniform(-0.05, 0.05, (n, k)).astype(np.float32)
        projection = shape.startswith(("input projection", "backward rzh"))
        x = rng.normal(size=(max(PROJECTION_ROWS) if projection else BUCKET_ROWS, k))
        x = x.astype(np.float32)
        if n == 1:
            forms = {"row-wise": lambda rows: (rows * w).sum(axis=1)}  # as neural.score_head
        elif shape.startswith("backward"):
            untransposed = np.ascontiguousarray(w.T)
            forms = {"x @ w": lambda rows: rows @ untransposed}
        else:  # run_gru's recurrent products are weight-major
            forms = {"x @ w.T": lambda rows: rows @ w.T,
                     "weight-major (w @ x.T).T": lambda rows: (w @ rows.T).T}
        for form, product in forms.items():
            large = PROJECTION_ROWS if projection and form != "weight-major (w @ x.T).T" else ()
            for m in [*range(MIN_ROWS, BUCKET_ROWS + 1), *large]:
                full = product(x[:m])
                for lo in sorted({0, m // 2 - 2, m - 4}):
                    assert np.array_equal(full[lo : lo + 4], product(x[lo : lo + 4])), (
                        f"{shape}, {form} ({m} x {k} @ {k} x {n}): rows {lo}..{lo + 3} differ "
                        f"from the same rows as a 4-row block; scores would depend on their batch"
                    )

    @pytest.mark.parametrize("channels, size", [
        (("da",), "small"),
        (("word", "role", "da", "turn"), "small"),
        (("word", "da", "turn"), "paper"),
    ], ids=["da-small", "four-channel-small", "paper"])
    def test_shared_context_scores_equal_each_stream_scored_alone(self, vocabs, dataset,
                                                                 channels, size, monkeypatch):
        """score_candidates scans each context's layer-0 forward direction
        once and continues every candidate's row from it; each score must
        equal the bits of its stream scored alone, without heads. Checked on
        the whole set (contexts of several lengths, and at small size more
        than BUCKET_ROWS streams, so two buckets) and on each instance alone
        (as `rate` scores), with candidate tails of one and of several
        positions, and again with fewer contexts at a time. (A turn
        without positions never reaches the scorer:
        `encode_pairwise_inputs` refuses it, as every loader does.)"""
        dims = {"emb_dim_word": 6, "emb_dim_other": 4, "gru_hidden": 5, "head_hidden": 4}
        cfg = NeuralConfig(channels=channels, seed=11, **(dims if size == "small" else {}))
        scorer = NeuralScorer.initialize(cfg, vocabs)
        instances = dataset if size == "small" else dataset[:4]
        pairs = [(inst.context, [c.turn for c in inst.candidates]) for inst in instances]
        context, candidates = pairs[0]
        long_tail = turn("B", seg("sd", [("movie", "S"), ("utah", "O")]), seg("qy"),
                         seg("b", [("iowa", "X")]))
        pairs.append((context, [long_tail, *candidates]))
        heads = [linearize(ctx, scorer.encoding).length for ctx, _ in pairs]
        streams = [[encode_pairwise_inputs(ctx, c, scorer.encoding) for c in cands]
                   for ctx, cands in pairs]
        tails = {s.length - h for h, run in zip(heads, streams) for s in run}
        assert min(tails) == 1 and max(tails) > 1 and len(set(heads)) > 2
        if size == "small":
            assert sum(map(len, streams)) > BUCKET_ROWS
        alone = [np.array([scorer.score_streams([s])[0] for s in run]) for run in streams]
        for scores, expected in zip(scorer.score_candidates(pairs), alone):
            assert np.array_equal(scores, expected)
        for pair, expected in zip(pairs, alone):
            assert np.array_equal(scorer.score_candidates([pair])[0], expected)
        # Fewer contexts at a time regroup both the context scans and the
        # buckets; no score moves.
        monkeypatch.setattr(neural, "BUCKET_ROWS", MIN_ROWS + 1)
        for scores, expected in zip(scorer.score_candidates(pairs), alone):
            assert np.array_equal(scores, expected)

    def test_context_states_are_held_a_bucket_of_contexts_at_a_time(self, vocabs, dataset,
                                                                    monkeypatch):
        """score_candidates takes at most BUCKET_ROWS contexts at a time: each
        run of them gets one scan of its contexts, then one of its
        candidates' tails from the contexts' last states. Each context's and
        each tail's states are an array of their own, not a view that keeps
        its scan's padded block alive."""
        monkeypatch.setattr(neural, "BUCKET_ROWS", MIN_ROWS + 1)
        scorer = NeuralScorer.initialize(small_config(seed=2), vocabs)
        calls = []
        forward_states = NeuralScorer._forward_states

        def recorded(self, streams, h0=()):
            calls.append((len(h0) > 0, states := forward_states(self, streams, h0)))
            return states

        monkeypatch.setattr(NeuralScorer, "_forward_states", recorded)
        pairs = [(inst.context, [c.turn for c in inst.candidates]) for inst in dataset]
        scorer.score_candidates(pairs)
        contexts = [len(states) for continued, states in calls if not continued]
        assert contexts == [
            min(MIN_ROWS + 1, len(pairs) - at) for at in range(0, len(pairs), MIN_ROWS + 1)
        ]
        assert [continued for continued, _ in calls] == [False, True] * len(contexts)
        assert all(s.base is None for _, states in calls for s in states)

    def test_heads_in_several_buckets_score_as_each_stream_alone(self, vocabs, dataset,
                                                                monkeypatch):
        """score_streams given more heads than BUCKET_ROWS scans them in
        several buckets, which score_candidates never asks for; each score
        keeps the bits of its stream scored alone. The heads are listed in
        the reverse of their streams' order, and two streams share each."""
        scorer = NeuralScorer.initialize(small_config(seed=5), vocabs)
        heads = [linearize(inst.context, scorer.encoding) for inst in dataset]
        streams, head_of = [], []
        for k, (inst, head) in enumerate(zip(dataset, heads)):
            for c in inst.candidates[:2]:
                streams.append(encode_pairwise_inputs(inst.context, c.turn, scorer.encoding,
                                                      head))
                head_of.append(len(heads) - 1 - k)
        alone = np.array([scorer.score_streams([s])[0] for s in streams])
        monkeypatch.setattr(neural, "BUCKET_ROWS", MIN_ROWS + 1)
        assert len(heads) > 2 * neural.BUCKET_ROWS and len({h.length for h in heads}) > 2
        assert np.array_equal(scorer.score_streams(streams, heads[::-1], head_of), alone)

    def test_streams_must_start_with_their_heads(self, vocabs, dataset):
        scorer = NeuralScorer.initialize(small_config(seed=2), vocabs)
        (ctx_a, [cand_a, *_]), (ctx_b, _) = [
            (inst.context, [c.turn for c in inst.candidates]) for inst in dataset[:2]
        ]
        heads = [linearize(ctx_a, scorer.encoding), linearize(ctx_b, scorer.encoding)]
        stream = encode_pairwise_inputs(ctx_a, cand_a, scorer.encoding)
        assert scorer.score_streams([stream], heads, [0]) == scorer.score_streams([stream])
        assert not np.array_equal(heads[0].ids["da"][: heads[1].length], heads[1].ids["da"])
        with pytest.raises(ValueError, match=r"stream 0 does not start with heads\[1\]"):
            scorer.score_streams([stream], heads, [1])
        with pytest.raises(ValueError, match="does not start"):
            scorer.score_streams([heads[0]], [stream], [0])  # the head is the longer
        with pytest.raises(ValueError, match="names 2 heads for 1 streams"):
            scorer.score_streams([stream], heads, [0, 1])
        for some, head_of in (([], [0]), (heads[:1], [1]), (heads[:1], [-1])):
            with pytest.raises(ValueError, match=rf"stream 0 names heads\[{head_of[0]}\]"):
                scorer.score_streams([stream], some, head_of)

    def test_streams_equal_to_their_heads_score_as_without_heads(self, vocabs, dataset):
        """A stream may be its own head, and its tail then has no positions.
        Its score keeps the bits of the stream scored without heads, in a
        bucket of only such streams (MIN_ROWS or more, so no padding row)
        and mixed with streams that run past their heads."""
        scorer = NeuralScorer.initialize(small_config(seed=6), vocabs)
        heads = [linearize(inst.context, scorer.encoding) for inst in dataset[:6]]
        own = list(range(len(heads)))
        assert np.array_equal(scorer.score_streams(heads, heads, own),
                              scorer.score_streams(heads))
        mixed, head_of = [], []
        for k, (inst, head) in enumerate(zip(dataset, heads)):
            mixed += [head, encode_pairwise_inputs(inst.context, inst.candidates[0].turn,
                                                   scorer.encoding, head)]
            head_of += [k, k]
        assert np.array_equal(scorer.score_streams(mixed, heads, head_of),
                              scorer.score_streams(mixed))

    @pytest.mark.parametrize("shape", ["[U_r; U_z]", "U_h"])
    def test_weight_major_recurrent_product_equals_row_major(self, shape):
        """run_gru's recurrent products are computed as (U @ h.T).T; the scan
        is exact only if that gives the bits of h @ U.T, at every row count a
        step can have."""
        k, n = PAPER_PRODUCTS[shape]
        rng = np.random.default_rng(n)
        u = rng.uniform(-0.05, 0.05, (n, k)).astype(np.float32)
        h = rng.uniform(-1.0, 1.0, (64, k)).astype(np.float32)
        for m in range(1, 65):
            assert np.array_equal((u @ h[:m].T).T, h[:m] @ u.T), (
                f"{shape} ({m} x {k} @ {k} x {n}): the weight-major product differs"
            )

    def test_row_invariance_holds_at_one_blas_thread(self):
        """Exact scoring and training rest on the row-invariance tests, and
        the suite runs them at the BLAS thread count it was started with:
        run them, with the engine's float32 bitwise tests and the scoring
        and training contracts built on them (batch composition, shared
        contexts, heads in several buckets, streams equal to their heads, the
        merged training pass), again in a fresh interpreter at one OpenBLAS
        thread. The digest pins are left out: they name one BLAS kernel, not
        a property."""
        here = Path(__file__).resolve().parent
        tests = [f"test_models.py::TestForwardScore::{name}" for name in (
            "test_products_are_row_invariant_from_four_rows",
            "test_weight_major_recurrent_product_equals_row_major",
            "test_batch_composition_invariance",
            "test_shared_context_scores_equal_each_stream_scored_alone",
            "test_heads_in_several_buckets_score_as_each_stream_alone",
            "test_streams_equal_to_their_heads_score_as_without_heads",
        )] + [
            "test_models.py::TestTrainNeural::"
            "test_merged_pass_step_equals_one_pass_per_length_bitwise",
        ] + [f"test_engine.py::TestGruLayer::{name}" for name in (
            "test_float32_ragged_rows_equal_the_masked_scan_bitwise",
            "test_float32_scan_from_a_state_continues_the_scan_bitwise",
            "test_float32_masked_backward_is_bitwise_from_min_rows",
        )]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=here, capture_output=True, text=True, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                 "PYTHONPATH": str(Path(dialcoh.__file__).resolve().parents[1])},
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]
        assert " passed" in proc.stdout and "deselected" not in proc.stdout

    @pytest.mark.parametrize("size, digest", [
        ("small", "9851ae18a9c8013b76d767eea7ba66dca1ebe30e51d653cc16989e938c588a9b"),
        ("paper", "51d3c32a545223bde450a499c9e330aa37af8916e61549fadbb28cc4762021b9"),
    ])
    def test_scores_are_pinned(self, vocabs, dataset, size, digest):
        """The score bits of a fixed scorer on 13 streams of lengths 4 to 9,
        in one ragged bucket. The digest was recorded when they ran in
        buckets of 5, 5 and 3 streams (the last padded to MIN_ROWS), so it
        also pins batch invariance. An engine change meant to be exact must
        leave the digest as it is. Recorded with OpenBLAS 0.3.31 on its
        SkylakeX kernel (`OPENBLAS_VERBOSE=2` prints `Core: SkylakeX`); under
        `OPENBLAS_CORETYPE=Haswell` the paper-size digest differs, and another
        BLAS or kernel may round differently and need its own digest (see
        ROADMAP, "Row bits by construction")."""
        dims = {"emb_dim_word": 6, "emb_dim_other": 4, "gru_hidden": 5, "head_hidden": 4}
        cfg = NeuralConfig(channels=("word", "da", "turn"), batch_size=5, seed=7,
                           **(dims if size == "small" else {}))
        scorer = NeuralScorer.initialize(cfg, vocabs)
        streams = [
            encode_pairwise_inputs(inst.context, c.turn, scorer.encoding)
            for inst in dataset[:4]
            for c in inst.candidates
        ][:13]
        assert sorted(s.length for s in streams) == [4, 4, 4, 5, 5, 5, 5, 6, 6, 8, 8, 9, 9]
        scores = scorer.score_streams(streams)
        assert hashlib.sha256(scores.tobytes()).hexdigest() == digest

    def test_channel_mismatch_rejected(self, vocabs):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        stream = TokenStream(1, {"word": np.array([0])})  # no da/turn channels
        with pytest.raises(DataError):
            scorer.score_streams([stream])

    def test_scoring_pass_keeps_no_backward(self, vocabs):
        cfg = small_config()
        scorer = NeuralScorer.initialize(cfg, vocabs)
        scores = forward_scores({ch: np.zeros((1, 3), int) for ch in cfg.channels},
                                scorer.params, cfg)
        with pytest.raises(ValueError, match="did not record"):
            scores.backward(np.ones(1), lambda name, grad: None)


class TestTrainNeural:
    def test_learns_separable_bigram_toy(self):
        instances = bigram_toy()
        cfg = small_config(
            channels=("da",), emb_dim_other=8, gru_hidden=8, head_hidden=8,
            max_epochs=30, patience=30, lr=0.01,
        )
        scorer, history = train_neural(instances, instances, cfg, TOY_VOCABS)
        report = evaluate_selection(scorer, instances)
        assert report["accuracy"] >= 0.95
        assert history.best_dev_mrr >= 0.9

    def test_loss_monotone_on_separable_toy(self):
        """Epoch-mean training loss non-increasing over the first 5 epochs in
        at least 4 of 5 seeds."""
        instances = bigram_toy()
        good = 0
        for s in range(5):
            cfg = small_config(
                channels=("da",), emb_dim_other=8, gru_hidden=8, head_hidden=8,
                max_epochs=5, patience=5, lr=0.01, seed=s,
            )
            _, history = train_neural(instances, instances, cfg, TOY_VOCABS)
            losses = [e["train_loss"] for e in history.epochs]
            if all(a >= b - 1e-9 for a, b in zip(losses, losses[1:])):
                good += 1
        assert good >= 4

    def test_same_seed_identical_history_and_checkpoint(self, tmp_path, vocabs, dataset):
        digests, histories = [], []
        for run in range(2):
            scorer, history = train_neural(dataset[:8], dataset[8:12], small_config(), vocabs)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(scorer, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            histories.append(json.dumps(dataclasses.asdict(history), sort_keys=True))
        assert digests[0] == digests[1]
        assert histories[0] == histories[1]

    def test_different_seeds_differ(self, vocabs, dataset):
        a, _ = train_neural(dataset[:8], dataset[8:12], small_config(seed=0), vocabs)
        b, _ = train_neural(dataset[:8], dataset[8:12], small_config(seed=1), vocabs)
        assert any(
            not np.array_equal(a.params[k], b.params[k]) for k in a.params
        )

    def test_best_dev_mrr_is_what_evaluation_reports(self, vocabs, dataset):
        scorer, history = train_neural(dataset[:8], dataset[8:14], small_config(), vocabs)
        assert history.best_dev_mrr == evaluate_selection(scorer, dataset[8:14])["mrr"]

    @pytest.mark.parametrize("dev_mrrs", [(0.5, 0.3, 0.4), (0.3, 0.5, 0.4), (0.3, 0.4, 0.5)])
    def test_the_best_epochs_weights_are_saved(self, tmp_path, vocabs, dataset, monkeypatch,
                                               dev_mrrs):
        """Whichever epoch reads the best dev MRR, its weights are the model
        returned and saved, also when a later, worse epoch trained over them."""
        seen = []

        def scripted(scorer, dev):
            seen.append(scorer.flat.copy())
            return {"mrr": dev_mrrs[len(seen) - 1]}

        monkeypatch.setattr(neural, "evaluate_selection", scripted)
        scorer, history = train_neural(dataset[:8], dataset[8:12],
                                       small_config(max_epochs=3), vocabs)
        best = dev_mrrs.index(max(dev_mrrs))
        assert history.best_epoch == best + 1 and history.epochs_run == 3
        assert not any(np.array_equal(seen[best], other)
                       for i, other in enumerate(seen) if i != best)
        save_checkpoint(scorer, tmp_path / "model.ckpt")
        np.testing.assert_array_equal(load_checkpoint(tmp_path / "model.ckpt").flat, seen[best])

    def test_empty_dev_rejected(self, vocabs, dataset):
        with pytest.raises(DataError):
            train_neural(dataset, [], small_config(), vocabs)

    @pytest.mark.parametrize("size", ["small", "paper"])
    def test_merged_pass_step_equals_one_pass_per_length_bitwise(self, vocabs, size,
                                                                 monkeypatch):
        """A step whose streams fall into length groups 9 x 4 rows, 6 x 5 and
        12 x 4 (one merged pass) and 3 x 2, 7 x 1 and 5 x 3 (a pass each):
        its loss, its gradient and the weights Adam writes are the bits of
        the oracle that runs one pass per length, over two steps."""
        dims = {"emb_dim_word": 6, "emb_dim_other": 4, "gru_hidden": 5, "head_hidden": 4}
        cfg = NeuralConfig(channels=("word", "da", "turn"), seed=3,
                           **(dims if size == "small" else {}))
        merged, oracle = (NeuralScorer.initialize(cfg, vocabs) for _ in range(2))
        rng = np.random.default_rng(8)
        lengths = [9] * 4 + [6] * 5 + [12] * 4 + [3] * 2 + [7] + [5] * 3
        streams = [TokenStream(n, {ch: rng.integers(0, len(merged.params[f"emb_{ch}"]), n)
                                   for ch in cfg.channels}) for n in lengths]
        order = [int(i) for i in rng.permutation(len(streams))]
        chunk = list(zip(order[:10], [*order[10:], order[10]]))  # no stream's gradient cancels
        # The gradients Adam is handed, one parameter at a time, gathered
        # into one buffer per step.
        recorder = AdamRecorder(merged.flat)
        monkeypatch.setattr(neural, "adam_step", recorder)
        states = [AdamState(np.zeros_like(merged.flat), np.zeros_like(merged.flat))
                  for _ in range(2)]
        for step in (1, 2):
            loss = _batch_step(merged, streams, chunk, states[0])
            expected, expected_grad = batch_step_reference(oracle, streams, chunk, states[1])
            assert loss == expected
            assert (recorder.updates[step] == 1).all()
            assert recorder.grads[step].tobytes() == expected_grad.tobytes()
            # Every parameter's gradient counts; head.b2's is the sum of the
            # score gradients, zero for a pairwise loss.
            assert all(np.count_nonzero(expected_grad[at : at + math.prod(shape)])
                       for name, (at, shape) in merged.layout.items() if name != "head.b2")
            assert merged.flat.tobytes() == oracle.flat.tobytes()
        assert states[0].step == states[1].step == 2
        assert loss > 0.0 and np.isfinite(merged.flat).all()

    def test_step_updates_every_parameter_once(self, vocabs, monkeypatch):
        """Each step hands Adam one gradient per array the scorer reads, at
        the step's count, and so updates every element of every array
        `param_layout` names exactly once."""
        cfg = small_config(channels=("word", "role", "da", "turn"), gru_layers=3)
        scorer = NeuralScorer.initialize(cfg, vocabs)
        rng = np.random.default_rng(4)
        streams = [TokenStream(n, {ch: rng.integers(0, len(scorer.params[f"emb_{ch}"]), n)
                                   for ch in cfg.channels}) for n in (5, 5, 3, 7, 2, 5)]
        chunk = [(0, 1), (2, 3), (4, 5), (3, 0)]
        recorder = AdamRecorder(scorer.flat)
        monkeypatch.setattr(neural, "adam_step", recorder)
        state = AdamState(np.zeros_like(scorer.flat), np.zeros_like(scorer.flat))
        for step in (1, 2):
            _batch_step(scorer, streams, chunk, state)
            assert state.step == step and recorder.calls == step * len(scorer.params)
            for name, (at, shape) in scorer.layout.items():
                assert (recorder.updates[step][at : at + math.prod(shape)] == 1).all(), name
        assert sorted(recorder.updates) == [1, 2]

    def test_step_allocates_less_than_the_model(self, vocabs):
        """One step's peak allocation, above the parameters and Adam's
        moments allocated before it, stays below the size of the model: no
        gradient of the whole model exists at once. Four GRU layers of 128
        units make each layer and direction an eighth of the model or less,
        and the embeddings, whose gradients are dense, a small share."""
        cfg = NeuralConfig(channels=("da", "turn"), emb_dim_other=4, gru_layers=4,
                           gru_hidden=128, head_hidden=8, seed=1)
        scorer = NeuralScorer.initialize(cfg, vocabs)
        rng = np.random.default_rng(6)
        streams = [TokenStream(n, {ch: rng.integers(0, len(scorer.params[f"emb_{ch}"]), n)
                                   for ch in cfg.channels}) for n in (6, 6, 5, 4, 4, 3, 6, 2)]
        chunk = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2)]
        state = AdamState(np.zeros_like(scorer.flat), np.zeros_like(scorer.flat))
        _batch_step(scorer, streams, chunk, state)  # first-call allocations
        tracemalloc.start()
        try:
            _batch_step(scorer, streams, chunk, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < scorer.flat.nbytes, (peak, scorer.flat.nbytes)

    def test_full_training_gradient_passes_grad_check(self, vocabs, monkeypatch):
        """The gradient `_batch_step` passes to Adam, in float64, against
        central differences of the mean hinge over its pairs, with scores
        from `score_streams`. Hidden 4; streams of 2, 3 and 4 positions, two
        of them of length 3; one stream in two pairs; every pair away from
        the hinge kink."""
        cfg = NeuralConfig(
            channels=("word", "role", "da", "turn"),
            emb_dim_word=3, emb_dim_other=2, gru_hidden=4, head_hidden=4, seed=5,
        )
        scorer = NeuralScorer(cfg, vocabs, init_params(cfg, vocabs, dtype=np.float64))
        # Scale the output layer so the score differences sit well away from
        # the hinge kink at margin.
        scorer.params["head.w2"] *= 40.0
        rng = np.random.default_rng(2)
        streams = [
            TokenStream(n, {
                ch: rng.integers(0, len(scorer.params[f"emb_{ch}"]), n) for ch in cfg.channels
            })
            for n in (3, 2, 4, 3)
        ]
        chunk = [(0, 1), (0, 2), (3, 1)]
        pos, neg = (np.array(ix) for ix in zip(*chunk))

        def loss(arrays):
            scores = NeuralScorer(cfg, vocabs, arrays["flat"]).score_streams(streams)
            return np.maximum(0.0, cfg.margin - (scores[pos] - scores[neg])).mean()

        recorder = AdamRecorder(scorer.flat, update=False)
        monkeypatch.setattr(neural, "adam_step", recorder)
        arrays = {"flat": scorer.flat}
        state = AdamState(np.zeros_like(scorer.flat), np.zeros_like(scorer.flat))
        value = _batch_step(scorer, streams, chunk, state)
        assert (recorder.updates[1] == 1).all()
        captured = {"flat": recorder.grads[1]}
        assert value == pytest.approx(loss(arrays), rel=1e-12)
        scores = scorer.score_streams(streams)
        excess = cfg.margin - (scores[pos] - scores[neg])
        assert (abs(excess) > 1e-2).all() and (excess > 0).any()  # off the kink, not all zero
        report = grad_check(loss, arrays, captured, h=1e-5, tol=1e-4)
        assert report.passed, (report.max_rel_error, report.worst)


class TestInitParams:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", ["small", "paper"])
    def test_row_blocked_draws_equal_one_draw_per_array(self, vocabs, size, dtype):
        cfg = (small_config(seed=3) if size == "small"
               else NeuralConfig(channels=("word", "role", "da", "turn"), seed=3))
        blocked = init_params(cfg, vocabs, dtype=dtype)
        reference = init_params_reference(cfg, vocabs, dtype=dtype)
        assert blocked.dtype == reference.dtype == dtype
        assert blocked.tobytes() == reference.tobytes()


class TestLinearRanker:
    def test_separable_one_dimensional(self):
        pairs = [(np.array([1.0]), np.array([0.0]))] * 10
        w = train_linear_ranker(pairs, l2=1e-4, lr=0.1, epochs=20, seed=0)
        assert w[0] > 0
        assert ranking_accuracy(w, pairs) == 1.0

    def test_huge_l2_drives_weights_to_zero(self):
        pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))] * 5
        w = train_linear_ranker(pairs, l2=1e12, lr=0.1, epochs=5, seed=0)
        assert np.linalg.norm(w) < 1e-6

    def test_no_worse_than_zero_weights(self):
        rng = np.random.default_rng(8)
        pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(30)]
        w = train_linear_ranker(pairs, epochs=10, seed=1)
        assert ranking_accuracy(w, pairs) >= ranking_accuracy(np.zeros(4), pairs)
        assert ranking_accuracy(np.zeros(4), pairs) == 0.0  # ties count as wrong

    def test_end_to_end_on_instances(self, vocabs, dataset):
        config = LinearRankerConfig(features="joint", epochs=10, seed=0)
        pairs = build_pair_features(dataset, config, vocabs)
        w = train_linear_ranker(pairs, epochs=10, seed=0)
        ranker = LinearRanker(config, vocabs, w.astype(np.float32))
        report = evaluate_selection(ranker, dataset)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["pairs"] == len(pairs)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(20)]
        w1 = train_linear_ranker(pairs, epochs=5, seed=7)
        w2 = train_linear_ranker(pairs, epochs=5, seed=7)
        np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("lr", [0.1, 0.0005])
    def test_weights_equal_the_per_step_loop(self, vocabs, dataset, lr):
        pairs = build_pair_features(dataset, LinearRankerConfig(features="joint"), vocabs)
        w = train_linear_ranker(pairs, l2=1e-3, lr=lr, epochs=8, seed=4)
        assert np.array_equal(w, sgd_reference(pairs, l2=1e-3, lr=lr, epochs=8, seed=4))

    @pytest.mark.parametrize("features", ["entity", "da", "joint"])
    def test_scores_do_not_depend_on_the_batch(self, vocabs, dataset, features):
        config = LinearRankerConfig(features=features, k=3)
        weights = np.random.default_rng(5).normal(size=feature_dim(config, vocabs))
        ranker = LinearRanker(config, vocabs, weights)
        pairs = [(inst.context, [c.turn for c in inst.candidates]) for inst in dataset]
        for (context, cands), scores in zip(pairs, ranker.score_candidates(pairs)):
            solo = np.concatenate(ranker.score_candidates([(context, [c]) for c in cands]))
            assert np.array_equal(scores, solo)


def sgd_reference(pairs, l2, lr, epochs, seed):
    """The subgradient loop that scales each diff by lr at every step."""
    diffs = np.stack([pos - neg for pos, neg in pairs])
    w = np.zeros(diffs.shape[1], dtype=np.float64)
    rng = np.random.default_rng(seed)
    shrink = max(0.0, 1.0 - 2.0 * lr * l2 / len(pairs))
    for _ in range(epochs):
        for i in rng.permutation(len(diffs)):
            d = diffs[i]
            if w @ d < 1.0:
                w += lr * d
            w *= shrink
    return w


class _FixedScorer:
    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def score_candidates(self, pairs):
        return [self.scores[: len(candidates)] for _, candidates in pairs]


class TestRankCandidates:
    def _candidates(self, n, positive=0):
        cands = []
        for i in range(n):
            prov = "original" if i == positive else "internal"
            cands.append(Candidate(da_turn(["b"]), prov))
        return cands

    def test_clear_winner(self):
        ranked = rank_candidates(
            (da_turn(["sd"], "A"),), self._candidates(3), _FixedScorer([0.9, 0.1, 0.5])
        )
        assert ranked[0].index == 0
        assert ranked[0].rank == 1

    def test_tied_positive_ranked_after_negatives(self):
        ranked = rank_candidates(
            (da_turn(["sd"], "A"),), self._candidates(3), _FixedScorer([0.5, 0.5, 0.9])
        )
        positive_rank = next(rc.rank for rc in ranked if rc.index == 0)
        assert positive_rank == 3

    def test_rated_candidates_full_ordering(self):
        cands = [
            Candidate(da_turn(["b"]), "original", mean_rating=2.6),
            Candidate(da_turn(["qy"]), "internal", mean_rating=1.8),
            Candidate(da_turn(["sd"]), "external", mean_rating=1.4),
        ]
        ranked = rank_candidates((da_turn(["sd"], "A"),), cands, _FixedScorer([0.2, 0.2, 0.1]))
        # scores tie between first two: higher rating pessimistically second
        assert [rc.index for rc in ranked] == [1, 0, 2]
        assert [rc.rank for rc in ranked] == [1, 2, 3]

    def test_argsort_invariance_under_monotone_transform(self):
        scores = np.array([0.3, -0.2, 0.9, 0.1])
        base = rank_candidates(
            (da_turn(["sd"], "A"),), self._candidates(4, positive=2), _FixedScorer(scores)
        )
        transformed = rank_candidates(
            (da_turn(["sd"], "A"),),
            self._candidates(4, positive=2),
            _FixedScorer(np.exp(3 * scores)),
        )
        assert [rc.index for rc in base] == [rc.index for rc in transformed]


def _split(blob: bytes) -> tuple[dict, bytes]:
    """A checkpoint file's header and payload."""
    n = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16 : 16 + n]), blob[16 + n :]


def _join(header: dict, payload: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return checkpoint.MAGIC + len(text).to_bytes(8, "little") + text + payload


class TestCheckpoint:
    def test_round_trip_scores_bitwise(self, tmp_path, vocabs, dataset):
        scorer, _ = train_neural(dataset[:6], dataset[6:9], small_config(max_epochs=2), vocabs)
        probe = [
            encode_pairwise_inputs(inst.context, c.turn, scorer.encoding)
            for inst in dataset[:3]
            for c in inst.candidates
        ]
        before = scorer.score_streams(probe)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        loaded = load_checkpoint(path)
        after = loaded.score_streams(probe)
        np.testing.assert_array_equal(before, after)

    def test_loaded_parameters_are_views_of_one_payload(self, tmp_path, vocabs):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        loaded = load_checkpoint(path)
        payload = loaded.params["emb_word"].base
        assert payload is not None
        assert all(a.base is payload for a in loaded.params.values())
        for name, a in scorer.params.items():
            assert np.array_equal(loaded.params[name], a)

    def test_truncated_file_fails_checksum(self, tmp_path, vocabs):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path, vocabs):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    @pytest.fixture
    def chunked(self, tmp_path, vocabs, monkeypatch):
        """A small neural model saved with 64-byte chunks, and its file."""
        monkeypatch.setattr(checkpoint, "CHUNK_BYTES", 64)
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        return scorer, path

    def test_header_holds_the_sha256_of_each_chunk(self, chunked):
        scorer, path = chunked
        header, payload = _split(path.read_bytes())
        assert header["format_version"] == 2 and header["chunk_bytes"] == 64
        assert payload == scorer.flat.astype("<f4").tobytes()
        assert len(header["payload_sha256"]) == -(-len(payload) // 64) > 2
        assert header["payload_sha256"] == [
            hashlib.sha256(payload[lo : lo + 64]).hexdigest() for lo in range(0, len(payload), 64)
        ]

    def test_multi_chunk_round_trip_is_bit_exact(self, chunked):
        scorer, path = chunked
        assert load_checkpoint(path).flat.tobytes() == scorer.flat.tobytes()

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_corrupted_chunk_fails_checksum(self, chunked, where):
        _, path = chunked
        header, payload = _split(path.read_bytes())
        corrupt = bytearray(payload)
        corrupt[{"first": 0, "middle": len(payload) // 2, "last": -1}[where]] ^= 0x01
        path.write_bytes(_join(header, bytes(corrupt)))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", ["drop_last_byte", "extra_byte", "drop_last_chunk",
                                        "digest_dropped", "digest_added"])
    def test_truncated_extended_or_miscounted_fails_checksum(self, chunked, change):
        _, path = chunked
        header, payload = _split(path.read_bytes())
        digests = header["payload_sha256"]
        if change == "drop_last_byte":
            payload = payload[:-1]
        elif change == "extra_byte":
            payload += b"\0"
        elif change == "drop_last_chunk":
            payload = payload[: 64 * (len(digests) - 1)]
        elif change == "digest_dropped":
            header["payload_sha256"] = digests[:-1]
        else:
            header["payload_sha256"] = digests + [digests[0]]
        path.write_bytes(_join(header, payload))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_a_miscounted_digest_list_fails_before_hashing(self, chunked, monkeypatch):
        """A chunk size that does not fit the digest count fails at once, so
        a tiny `chunk_bytes` cannot make the loader hash byte by byte."""
        _, path = chunked
        header, payload = _split(path.read_bytes())
        path.write_bytes(_join({**header, "chunk_bytes": 1}, payload))
        hashed = []
        monkeypatch.setattr(checkpoint, "_hexdigest", hashed.append)
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_checkpoint(path)
        assert hashed == []

    def test_version_1_loads_bit_exactly_and_is_verified(self, tmp_path, vocabs):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        header, payload = _split(path.read_bytes())
        del header["chunk_bytes"]
        header.update(format_version=1, payload_sha256=hashlib.sha256(payload).hexdigest())
        path.write_bytes(_join(header, payload))
        loaded = load_checkpoint(path)
        assert loaded.flat.tobytes() == scorer.flat.tobytes()
        assert loaded.config == scorer.config
        corrupt = bytearray(payload)
        corrupt[len(corrupt) // 2] ^= 0x01
        path.write_bytes(_join(header, bytes(corrupt)))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("chunk_bytes", [4 << 20, 64])
    def test_only_a_multi_chunk_payload_starts_threads(self, tmp_path, vocabs, monkeypatch,
                                                       chunk_bytes):
        """One chunk is hashed inline; more are hashed on at most one thread
        per core."""
        monkeypatch.setattr(checkpoint, "CHUNK_BYTES", chunk_bytes)
        path = tmp_path / "model.ckpt"
        save_checkpoint(NeuralScorer.initialize(small_config(), vocabs), path)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        load_checkpoint(path)
        if chunk_bytes > len(_split(path.read_bytes())[1]):
            assert started == []
        else:
            assert 1 <= len(started) <= os.cpu_count()

    def test_non_finite_weights_are_refused_and_nothing_is_written(self, tmp_path, vocabs):
        """The error names the first non-finite array in payload order."""
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        scorer.params["head.w2"][...] = np.inf
        scorer.params["head.b2"][...] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(NumericError, match="non-finite weights: array 'head.b2'"):
            save_checkpoint(scorer, path)
        assert not path.exists()
        config = LinearRankerConfig(features="da")
        weights = np.zeros(feature_dim(config, vocabs), dtype=np.float32)
        weights[-1] = -np.inf
        with pytest.raises(NumericError, match="array 'weights'"):
            save_checkpoint(LinearRanker(config, vocabs, weights), path)
        assert not path.exists()

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_checkpoint_embeds_vocabularies(self, tmp_path, vocabs):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(scorer, path)
        loaded = load_checkpoint(path)
        assert loaded.vocabularies == vocabs
        stream = linearize(
            (da_turn(["sd"], "A"), da_turn(["b"], "B")), loaded.encoding
        )
        assert np.isfinite(loaded.score_streams([stream])).all()

    def test_linear_round_trip(self, tmp_path, vocabs, dataset):
        config = LinearRankerConfig(features="da", epochs=3, seed=0)
        pairs = build_pair_features(dataset[:4], config, vocabs)
        w = train_linear_ranker(pairs, epochs=3, seed=0)
        ranker = LinearRanker(config, vocabs, w.astype(np.float32))
        path = tmp_path / "linear.ckpt"
        save_checkpoint(ranker, path)
        loaded = load_checkpoint(path)
        pairs = [(inst.context, [c.turn for c in inst.candidates]) for inst in dataset[:3]]
        np.testing.assert_array_equal(
            np.concatenate(ranker.score_candidates(pairs)),
            np.concatenate(loaded.score_candidates(pairs)),
        )
