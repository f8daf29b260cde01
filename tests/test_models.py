import hashlib
import json

import numpy as np
import pytest

from dialcoh.corpus import Dialogue, derive_vocabularies
from dialcoh.engine import GruCellParams, Tensor, grad_check, pairwise_hinge
from dialcoh.errors import ChecksumError, DataError
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
from dialcoh.models.linear import feature_dim
from dialcoh.models.neural import forward_scores
from dialcoh.swapgen import Candidate, RankingInstance, build_selection_dataset

from conftest import gru_reference, seg, synthetic_corpus, turn


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


TOY_VOCABS = derive_vocabularies(
    [Dialogue(id="v", turns=(da_turn(["b", "qy", "sd"], "A"),))]
)


class TestForwardScore:
    def test_all_zero_parameters_score_zero(self, vocabs, dataset):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        for t in scorer.params.values():
            t.data[...] = 0.0
        for inst in dataset[:3]:
            scores = scorer.score_candidates(inst.context, [c.turn for c in inst.candidates])
            np.testing.assert_allclose(scores, 0.0)

    def test_length_one_stream_mean_pooling_identity(self, vocabs):
        """With one position, mean pooling must pass the single biGRU output
        through unchanged: doubling head.w1 rows must act on exactly that
        vector. Verified by comparing against a manual head computation."""
        cfg = small_config(channels=("word",))
        scorer = NeuralScorer.initialize(cfg, vocabs)
        stream = TokenStream(length=1, word_ids=np.array([3]))
        [score] = scorer.score_streams([stream])

        # Recompute: embeddings -> the reference scan over one position per
        # direction and layer -> (single) output -> head.
        p = scorer.params
        x = p["emb_word"].data[[3]][None]  # (batch 1, time 1, emb)
        for layer in range(cfg.gru_layers):
            f = gru_reference(x, GruCellParams.from_named(f"gru{layer}f", p))
            b = gru_reference(x, GruCellParams.from_named(f"gru{layer}b", p), reverse=True)
            x = np.concatenate([f, b], axis=-1)
        single = x[:, 0]  # (1, 2H) with no pooling applied
        hidden = np.maximum(single @ p["head.w1"].data.T + p["head.b1"].data, 0)
        expected = float((hidden @ p["head.w2"].data.T + p["head.b2"].data)[0, 0])
        assert score == pytest.approx(expected, rel=1e-6)

    def test_order_sensitivity(self, vocabs):
        cfg = small_config(channels=("word",), seed=4)
        scorer = NeuralScorer.initialize(cfg, vocabs)
        a = TokenStream(length=4, word_ids=np.array([3, 4, 5, 6]))
        b = TokenStream(length=4, word_ids=np.array([3, 5, 4, 6]))
        score_a, score_b = scorer.score_streams([a]), scorer.score_streams([b])
        assert score_a[0] != pytest.approx(score_b[0], abs=1e-9)

    def test_batch_composition_invariance(self, vocabs, dataset):
        scorer = NeuralScorer.initialize(small_config(seed=9), vocabs)
        streams = [
            encode_pairwise_inputs(inst.context, c.turn, scorer.encoding)
            for inst in dataset[:4]
            for c in inst.candidates
        ]
        batched = scorer.score_streams(streams)
        solo = np.concatenate([scorer.score_streams([s]) for s in streams])
        np.testing.assert_allclose(batched, solo, rtol=1e-5, atol=1e-6)

    def test_channel_mismatch_rejected(self, vocabs):
        scorer = NeuralScorer.initialize(small_config(), vocabs)
        stream = TokenStream(length=1, word_ids=np.array([0]))  # no da/turn channels
        with pytest.raises(DataError):
            scorer.score_streams([stream])


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
            histories.append(json.dumps(history.to_dict(), sort_keys=True))
        assert digests[0] == digests[1]
        assert histories[0] == histories[1]

    def test_different_seeds_differ(self, vocabs, dataset):
        a, _ = train_neural(dataset[:8], dataset[8:12], small_config(seed=0), vocabs)
        b, _ = train_neural(dataset[:8], dataset[8:12], small_config(seed=1), vocabs)
        assert any(
            not np.array_equal(a.params[k].data, b.params[k].data) for k in a.params
        )

    def test_empty_dev_rejected(self, vocabs, dataset):
        with pytest.raises(DataError):
            train_neural(dataset, [], small_config(), vocabs)

    def test_full_training_gradient_passes_grad_check(self, vocabs):
        """Hinge(score(pos) - score(neg)) through the whole scorer, hidden 4,
        3-position streams, away from the hinge kink."""
        cfg = NeuralConfig(
            channels=("word", "role", "da", "turn"),
            emb_dim_word=3, emb_dim_other=2, gru_hidden=4, head_hidden=4, seed=5,
        )
        scorer = NeuralScorer.initialize(cfg, vocabs)
        # Scale the output layer so the score difference sits well away from
        # the hinge kink at margin.
        scorer.params["head.w2"].data *= 40.0
        pos = TokenStream(
            length=3,
            word_ids=np.array([3, 2, 1]),
            role_ids=np.array([1, 0, 2]),
            da_ids=np.array([0, 2, 1]),
            turn_ids=np.array([0, 2, 1]),
        )
        neg = TokenStream(
            length=3,
            word_ids=np.array([1, 1, 4]),
            role_ids=np.array([0, 3, 2]),
            da_ids=np.array([3, 2, 0]),
            turn_ids=np.array([1, 3, 3]),
        )

        def f(params):
            ids_pos = {ch: pos.channel(ch)[None, :] for ch in cfg.channels}
            ids_neg = {ch: neg.channel(ch)[None, :] for ch in cfg.channels}
            s_pos = forward_scores(ids_pos, params, cfg)
            s_neg = forward_scores(ids_neg, params, cfg)
            return pairwise_hinge(s_pos, s_neg, margin=0.5)

        arrays = {k: v.data for k, v in scorer.params.items()}
        value = f({k: Tensor(np.asarray(v, np.float64)) for k, v in arrays.items()}).item()
        assert 0.0 < value and abs(value - 0.5) > 1e-2  # off the kink
        report = grad_check(f, arrays, h=1e-5, tol=1e-4)
        assert report.passed, (report.max_rel_error, report.worst)


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
        for inst in dataset:
            cands = [c.turn for c in inst.candidates]
            solo = np.concatenate([ranker.score_candidates(inst.context, [c]) for c in cands])
            assert np.array_equal(ranker.score_candidates(inst.context, cands), solo)


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

    def score_candidates(self, context, candidates):
        return self.scores[: len(candidates)]


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
        inst = dataset[0]
        np.testing.assert_array_equal(
            ranker.score_candidates(inst.context, [c.turn for c in inst.candidates]),
            loaded.score_candidates(inst.context, [c.turn for c in inst.candidates]),
        )
