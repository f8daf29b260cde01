"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints a
single pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see
them). Criteria 9 and 10 need licensed external datasets and are skipped
unless the corresponding environment variables point at them.
"""
import hashlib
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dialcoh.analysis import adjusted_r_squared, fit_ols, group_stats, mcc_report
from dialcoh.cli import main
from dialcoh.corpus import (
    Dialogue,
    EntityMention,
    Segment,
    Turn,
    derive_vocabularies,
    save_corpus,
)
from dialcoh.metrics import (
    expected_random_mrr,
    graded_pairwise_accuracy,
    ndcg,
    quadratic_weighted_kappa,
    random_baseline,
)
from dialcoh.models import (
    NeuralConfig,
    NeuralScorer,
    evaluate_selection,
    train_neural,
)
from dialcoh.models.neural import forward_scores
from dialcoh.swapgen import (
    Candidate,
    RankingInstance,
    build_selection_dataset,
    load_rated_testset,
)

from conftest import grad_check, gradient_blocks


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {description} ({time.monotonic() - start:.1f}s)")
        raise
    print(f"[criterion {number:2d}] PASS {description} ({time.monotonic() - start:.1f}s)")


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- corpus builders -------------------------------------------------------


def sized_corpus(n_dialogues: int, n_turns: int) -> list[Dialogue]:
    """Unique-turn dialogues for the sizing and determinism criteria."""
    dialogues = []
    for i in range(n_dialogues):
        turns = tuple(
            Turn(
                "A" if t % 2 == 0 else "B",
                (Segment("sd", (EntityMention(f"e{t % 9}", "S"),), f"dlg {i} turn {t}"),),
            )
            for t in range(n_turns)
        )
        dialogues.append(Dialogue(id=f"size{i:04d}", turns=turns))
    return dialogues


def da_turn(das, speaker="B"):
    return Turn(speaker, tuple(Segment(d) for d in das))


def bigram_toy_instances(seed=0, n_instances=20, n_neg=3):
    """Separable toy: positives carry the DA bigram (b, sd), negatives never do."""
    rng = np.random.default_rng(seed)
    non_target = [("b", "qy"), ("qy", "b"), ("sd", "qy"), ("qy", "sd"), ("sd", "b")]
    instances = []
    for i in range(n_instances):
        context = tuple(
            da_turn([str(rng.choice(["qy", "sd"]))], "A" if t % 2 == 0 else "B")
            for t in range(int(rng.integers(2, 5)))
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


OVERLAP_VOCAB = [f"w{i:02d}" for i in range(30)]


def overlap_turn(heads, speaker):
    return Turn(speaker, (Segment("sd", tuple(EntityMention(h, "X") for h in heads)),))


def overlap_instances(seed, n_instances, n_neg=9):
    """Positives share two entity heads with the context; negatives share none."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n_instances):
        ctx_heads = list(rng.choice(OVERLAP_VOCAB, size=6, replace=False))
        context = tuple(
            overlap_turn(ctx_heads[2 * t : 2 * t + 2], "A" if t % 2 == 0 else "B")
            for t in range(3)
        )
        positive = overlap_turn(ctx_heads[4:6], "B")
        others = [w for w in OVERLAP_VOCAB if w not in ctx_heads]
        negatives = [
            overlap_turn(list(rng.choice(others, size=2, replace=False)), "B")
            for _ in range(n_neg)
        ]
        cands = [Candidate(positive, "original")] + [
            Candidate(t, "external") for t in negatives
        ]
        perm = rng.permutation(len(cands))
        instances.append(
            RankingInstance(
                dialogue_id=f"ov{i}",
                point_index=0,
                context=context,
                candidates=tuple(cands[j] for j in perm),
                positive_position=int(np.nonzero(perm == 0)[0][0]),
            )
        )
    return instances


# -- criteria ---------------------------------------------------------------


def test_criterion_1_random_baseline_mrr(capsys):
    with criterion(1, "random-baseline MRR for 10 candidates reports 0.2929 +/- 0.005"):
        start = time.monotonic()
        out = random_baseline(10, "mrr", trials=100_000, seed=0)
        elapsed = time.monotonic() - start
        closed = expected_random_mrr(10)
        assert closed == pytest.approx(sum(1 / k for k in range(1, 11)) / 10)
        assert abs(out["estimate"] - 0.2929) <= 0.005
        assert abs(out["closed_form"] - 0.2929) <= 5e-4  # the tabulated 0.293
        assert elapsed < 5.0
        # the CLI surface reports the same numbers
        assert main(["baseline", "--candidates", "10", "--metric", "mrr",
                     "--trials", "100000", "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["estimate"] - 0.2929) <= 0.005


def test_criterion_2_dataset_sizing_identity():
    with criterion(2, "740 dialogues -> 7400 insertion points and 66600 pairs in IS and ES"):
        corpus = sized_corpus(740, 21)
        for mode in ("internal", "external"):
            for seed in (7, 20260809):
                instances, manifest = build_selection_dataset(
                    corpus,
                    points_per_dialogue=10,
                    n_neg=9,
                    mode=mode,
                    seed=seed,
                    ctx_range=(1, 10),
                )
                assert manifest["insertion_points"] == 7400, (mode, seed)
                assert manifest["pairs"] == 66600, (mode, seed)
                assert len(instances) == 7400
                assert all(len(i.candidates) == 10 for i in instances[:100])


def test_criterion_3_gradient_correctness(vocabs):
    with criterion(3, "grad_check passes on every block and the full scorer (<1e-4)"):
        start = time.monotonic()
        for name, (loss, params, analytic) in gradient_blocks(np.random.default_rng(42)).items():
            report = grad_check(loss, params, analytic, h=1e-4, tol=1e-4)
            assert report.passed, (name, report.max_rel_error)

        cfg = NeuralConfig(
            channels=("word", "role", "da", "turn"),
            emb_dim_word=3, emb_dim_other=2, gru_hidden=4, head_hidden=4, seed=5,
        )
        scorer = NeuralScorer.initialize(cfg, vocabs)
        ids = {  # one stream of three positions
            "word": np.array([[3, 2, 1]]),
            "role": np.array([[1, 0, 2]]),
            "da": np.array([[0, 2, 1]]),
            "turn": np.array([[0, 2, 1]]),
        }
        params = {k: a.astype(np.float64) for k, a in scorer.params.items()}
        analytic = {}
        forward_scores(ids, params, cfg, record=True).backward(np.ones(1), analytic.__setitem__)
        assert analytic.keys() == params.keys()
        report = grad_check(
            lambda p: forward_scores(ids, p, cfg).data[0], params, analytic, h=1e-4, tol=1e-4
        )
        assert report.passed, (report.max_rel_error, report.worst)
        assert time.monotonic() - start < 60.0


def test_criterion_4_learnability_overfit():
    with criterion(4, "DA-channel model overfits the separable toy in >=4/5 seeds"):
        start = time.monotonic()
        instances = bigram_toy_instances(seed=0, n_instances=20, n_neg=3)
        vocabs = derive_vocabularies([Dialogue(id="v", turns=(da_turn(["b", "qy", "sd"], "A"),))])
        passes = 0
        for seed in range(5):
            cfg = NeuralConfig(
                channels=("da",), emb_dim_other=8, gru_hidden=8, head_hidden=8,
                lr=0.01, batch_size=8, max_epochs=30, patience=5, seed=seed,
            )
            scorer, history = train_neural(instances, instances, cfg, vocabs)
            assert history.epochs_run <= 30
            report = evaluate_selection(scorer, instances)
            if report["accuracy"] >= 0.95:
                passes += 1
        assert passes >= 4, f"only {passes}/5 seeds reached 0.95"
        assert time.monotonic() - start < 120.0


def test_criterion_5_signal_recovery():
    with criterion(5, "ent_word+turn model recovers entity overlap: R@1 >= 0.8 over 10"):
        start = time.monotonic()
        train_instances = overlap_instances(11, 120)
        dev_instances = overlap_instances(12, 40)
        vocabs = derive_vocabularies(
            [Dialogue(id="v", turns=tuple(overlap_turn([w], "A") for w in OVERLAP_VOCAB))]
        )
        cfg = NeuralConfig(
            channels=("word", "turn"), emb_dim_word=12, emb_dim_other=12,
            gru_hidden=24, head_hidden=24, lr=0.01, batch_size=32,
            max_epochs=30, patience=8, seed=0,
        )
        scorer, _ = train_neural(train_instances, dev_instances, cfg, vocabs)
        report = evaluate_selection(scorer, dev_instances)
        assert report["r_at_1"] >= 0.8, report
        assert time.monotonic() - start < 300.0


def test_criterion_6_metric_oracles():
    with criterion(6, "metric oracles: nDCG worked example, kappa limits, tie rules"):
        # nDCG on gains [3, 1, 2]: DCG/IDCG evaluated independently.
        dcg = 3 / math.log2(2) + 1 / math.log2(3) + 2 / math.log2(4)
        idcg = 3 / math.log2(2) + 2 / math.log2(3) + 1 / math.log2(4)
        assert ndcg([3, 1, 2]) == pytest.approx(dcg / idcg, abs=1e-9)
        assert round(ndcg([3, 1, 2]), 5) == 0.97250

        a = [1, 2, 3, 2, 1, 3, 2]
        assert quadratic_weighted_kappa(a, a) == 1.0
        rng = np.random.default_rng(5)
        x = list(rng.integers(1, 4, size=10_000))
        y = list(rng.integers(1, 4, size=10_000))
        assert abs(quadratic_weighted_kappa(x, y)) <= 0.05

        # pessimistic tie rules: selection accuracy is graded accuracy on
        # binary gains (1 for the positive)
        assert graded_pairwise_accuracy([0.8, 0.1, 0.9, 0.8], [1, 0, 0, 0]) == (1 / 3, 3)
        assert graded_pairwise_accuracy([0.5, 0.5, 0.5], [1, 0, 0]) == (0.0, 2)
        assert graded_pairwise_accuracy([1.0, 0.0], [1, 0]) == (1.0, 1)


def test_criterion_7_regression_oracle():
    with criterion(7, "OLS recovers synthetic coefficients; adjusted R^2 formula exact"):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        beta = np.array([0.5, -1.2, 3.0, 0.25])
        y = 1.7 + X @ beta + 1e-9 * rng.normal(size=200)
        fit = fit_ols(X, y)
        np.testing.assert_allclose(fit.coefficients, [1.7, *beta], atol=1e-6)

        assert adjusted_r_squared(0.5, n=12, p=3) == 0.3125

        design = np.hstack([np.ones((200, 1)), X])
        residuals = y - design @ fit.coefficients
        assert np.abs(design.T @ residuals).max() / np.abs(design).sum() < 1e-8


def test_criterion_8_artifact_determinism(tmp_path):
    with criterion(8, "gen-dataset/train/eval artifacts are byte-identical across reruns"):
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus(sized_corpus(20, 16), corpus_path)
        digests = []
        for name in ("r1", "r2"):
            gen_dir = tmp_path / name / "ds"
            assert main([
                "gen-dataset", str(corpus_path), "--mode", "internal",
                "--points", "4", "--negatives", "3", "--seed", "13",
                "--ctx-min", "1", "--ctx-max", "10", "--out", str(gen_dir),
            ]) == 0
            vocab_path = tmp_path / name / "vocab.json"
            assert main(["vocab", str(corpus_path), "-o", str(vocab_path)]) == 0
            model_dir = tmp_path / name / "model"
            assert main([
                "train", "--model", "neural",
                "--train", str(gen_dir / "dataset.jsonl"),
                "--dev", str(gen_dir / "dataset.jsonl"),
                "--vocab", str(vocab_path), "--out", str(model_dir),
                "--channels", "word,da,turn", "--emb-dim-word", "6", "--emb-dim", "4",
                "--hidden", "5", "--head-hidden", "4", "--epochs", "2",
                "--batch-size", "8", "--lr", "0.01", "--seeds", "3",
            ]) == 0
            eval_dir = tmp_path / name / "eval"
            assert main([
                "eval-selection", "--checkpoint", str(model_dir / "checkpoint.ckpt"),
                "--data", str(gen_dir / "dataset.jsonl"), "--out", str(eval_dir),
            ]) == 0
            digests.append({
                "dataset": sha(gen_dir / "dataset.jsonl"),
                "manifest": sha(gen_dir / "manifest.json"),
                "checkpoint": sha(model_dir / "checkpoint.ckpt"),
                "history": sha(model_dir / "checkpoint_history.json"),
                "metrics": sha(eval_dir / "selection_metrics.json"),
            })
        assert digests[0] == digests[1]


SWBD_COH = os.environ.get("DIALCOH_SWBD_COH")


@pytest.mark.skipif(not SWBD_COH, reason="set DIALCOH_SWBD_COH to the rated test set")
def test_criterion_9_swbd_coh_reproduction():
    with criterion(9, "rated-corpus group means 2.6/1.8/1.4 and regression ordering"):
        instances = load_rated_testset(SWBD_COH, strict_swbd=True)
        stats = group_stats(instances)
        assert abs(stats["original"]["mean"] - 2.6) <= 0.05
        assert abs(stats["internal"]["mean"] - 1.8) <= 0.05
        assert abs(stats["external"]["mean"] - 1.4) <= 0.05
        report = mcc_report(instances)
        assert report["entities"].r_squared < report["das"].r_squared
        assert report["das"].r_squared < report["all"].r_squared


SWBD_CORPUS = os.environ.get("DIALCOH_CORPUS")


@pytest.mark.skipif(not SWBD_CORPUS, reason="set DIALCOH_CORPUS to an annotated corpus")
def test_criterion_10_model_family_ordering():
    with criterion(10, "model-family MRR ordering: ent+DA >= DA-only >= entity-only, neural >= linear"):
        from dialcoh.corpus import load_corpus
        from dialcoh.models import (
            LinearRanker,
            LinearRankerConfig,
            build_pair_features,
            train_linear_ranker,
        )

        corpus = load_corpus(SWBD_CORPUS)
        rng = np.random.default_rng(0)
        ids = rng.permutation(len(corpus))
        train_split = [corpus[i] for i in ids[: int(0.8 * len(ids))]]
        dev_split = [corpus[i] for i in ids[int(0.8 * len(ids)) :]]
        train_ds, _ = build_selection_dataset(
            train_split, points_per_dialogue=10, n_neg=9, mode="internal",
            seed=0, ctx_range=(1, 10),
        )
        dev_ds, _ = build_selection_dataset(
            dev_split, points_per_dialogue=10, n_neg=9, mode="internal",
            seed=1, ctx_range=(1, 10),
        )
        vocabs = derive_vocabularies(train_split)
        mrr = {}
        for name, channels in (
            ("entity", ("word", "turn")),
            ("da", ("da", "turn")),
            ("joint", ("word", "da", "turn")),
        ):
            cfg = NeuralConfig(
                channels=channels, emb_dim_word=100, emb_dim_other=25,
                gru_hidden=64, head_hidden=64, lr=0.001, max_epochs=10,
                patience=3, seed=0,
            )
            scorer, _ = train_neural(train_ds, dev_ds[:200], cfg, vocabs)
            mrr[name] = evaluate_selection(scorer, dev_ds)["mrr"]
        lin_cfg = LinearRankerConfig(features="joint", epochs=20, seed=0)
        pairs = build_pair_features(train_ds, lin_cfg, vocabs)
        ranker = LinearRanker(
            lin_cfg, vocabs, train_linear_ranker(pairs, epochs=20, seed=0).astype(np.float32)
        )
        mrr["linear"] = evaluate_selection(ranker, dev_ds)["mrr"]
        assert mrr["joint"] >= mrr["da"] >= mrr["entity"]
        assert mrr["joint"] >= mrr["linear"]
