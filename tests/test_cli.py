import hashlib
import json
import os

import pytest

from dialcoh.cli import main
from dialcoh.corpus import save_corpus
from dialcoh.swapgen import save_rated_testset

from conftest import _graded_pairwise_accuracy, run_fresh_python, synthetic_corpus
from test_analysis import make_rated_instance
import numpy as np


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(synthetic_corpus(6, 14, seed=5), path)
    return path


@pytest.fixture
def rated_path(tmp_path):
    rng = np.random.default_rng(23)
    path = tmp_path / "rated.jsonl"
    save_rated_testset([make_rated_instance(i, rng) for i in range(25)], path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestValidateAndVocab:
    def test_validate_clean(self, corpus_path, capsys):
        assert run("validate", corpus_path) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "d", "turns": [{"speaker": "Z", "segments": [{"da": "sd"}]}]}\n',
            encoding="utf-8",
        )
        assert run("validate", path) == 2
        assert "speaker" in capsys.readouterr().out

    def test_vocab_roundtrip(self, corpus_path, tmp_path):
        out = tmp_path / "vocab.json"
        assert run("vocab", corpus_path, "-o", out) == 0
        obj = json.loads(out.read_text())
        assert set(obj) == {"words", "roles", "da", "turn"}

    def test_usage_error_exit_code(self):
        assert run("gen-dataset") == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("validate", tmp_path / "nope.jsonl") == 2

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1e"])
    def test_tagset_and_split_lines_break_only_at_newlines(self, tmp_path, capsys, char):
        """A DA label or dialogue id may hold a character that
        str.splitlines() breaks at; a --tagset or --split line holding it is
        one line. "\\r\\n" still ends a line."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": i, "turns": [{"speaker": "A", "segments": [{"da": da}]}]},
                       ensure_ascii=False) + "\n"
            for i, da in ((f"d{char}1", f"sd{char}x"), ("d2", "qy"))), encoding="utf-8")
        tagset = tmp_path / "tagset.txt"
        tagset.write_bytes(f"sd{char}x\r\nqy\n".encode("utf-8"))
        split = tmp_path / "split.txt"
        split.write_bytes(f"d{char}1\r\n".encode("utf-8"))
        out = tmp_path / "vocab.json"
        assert run("vocab", corpus, "-o", out, "--tagset", tagset) == 0
        assert sorted(json.loads(out.read_text(encoding="utf-8"))["da"]) == ["qy", f"sd{char}x"]
        assert run("vocab", corpus, "-o", out, "--split", split) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["da"] == [f"sd{char}x"]
        assert capsys.readouterr().err == ""


# Runs `cli.main` on argv, adds the heavy modules it loaded as a last line
# of stderr, and exits with its code.
LIGHT_RUN = """
import sys
from dialcoh.cli import main
code = main(sys.argv[1:])
print([m for m in ("numpy", "dialcoh.models", "dialcoh.swapgen") if m in sys.modules],
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["validate", "corpus.jsonl"], 0, "checked 6 dialogues: 0 violations\n", ""),
    (["validate", "bad.jsonl"], 2,
     "line 1 (d): turns[0].speaker: invalid speaker 'Z'\nchecked 1 dialogues: 1 violations\n",
     ""),
    (["validate", "empty.jsonl"], 2, "", "data error: empty corpus: empty.jsonl\n"),
    (["validate", "twice.jsonl"], 2,
     "line 2 (d1): duplicate dialogue id 'd1'\nchecked 2 dialogues: 1 violations\n", ""),
    (["vocab", "twice.jsonl", "-o", "vocab.json"], 2, "",
     "data error: line 2: duplicate dialogue id 'd1'\n"),
    (["vocab", "corpus.jsonl", "-o", "vocab.json"], 0,
     "wrote vocab.json: |words|=11 |roles|=4 |da|=3 |turn|=4\n", ""),
    (["vocab", "corpus.jsonl", "-o", "vocab.json", "--tagset", "tagset.txt"], 2, "",
     "data error: tagset.txt: not UTF-8 text (invalid start byte at byte 3)\n"),
], ids=["clean", "violation", "empty", "duplicate-id", "vocab-duplicate-id", "vocab",
        "non-utf8-tagset"])
def test_light_commands_start_without_numpy(corpus_path, argv, code, stdout, stderr):
    """`validate` and `vocab` in a fresh interpreter load neither numpy nor
    the models or swap generation, and report as listed."""
    where = corpus_path.parent
    (where / "bad.jsonl").write_text(
        '{"id": "d", "turns": [{"speaker": "Z", "segments": [{"da": "sd"}]}]}\n',
        encoding="utf-8",
    )
    (where / "empty.jsonl").write_bytes(b"")
    (where / "twice.jsonl").write_text(
        '{"id": "d1", "turns": [{"speaker": "A", "segments": [{"da": "sd"}]}]}\n' * 2,
        encoding="utf-8",
    )
    (where / "tagset.txt").write_bytes(b"sd\n\xff\n")
    proc = run_fresh_python(LIGHT_RUN, *argv, cwd=where)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr + "[]\n")


class TestGenDataset:
    def test_deterministic_artifacts(self, corpus_path, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(
                "gen-dataset", corpus_path, "--mode", "internal", "--points", "3",
                "--negatives", "2", "--seed", "9", "--ctx-min", "1", "--ctx-max", "8",
                "--out", out,
            )
            assert code == 0
            digests.append((sha(out / "dataset.jsonl"), sha(out / "manifest.json")))
        assert digests[0] == digests[1]
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["pairs"] == manifest["insertion_points"] * 2
        assert (tmp_path / "a" / "run_config.json").exists()


@pytest.fixture
def datasets(tmp_path, corpus_path):
    """corpus -> vocab -> train and dev datasets."""
    vocab = tmp_path / "vocab.json"
    assert run("vocab", corpus_path, "-o", vocab) == 0
    train_dir = tmp_path / "train_ds"
    dev_dir = tmp_path / "dev_ds"
    for out, seed in ((train_dir, 1), (dev_dir, 2)):
        assert run(
            "gen-dataset", corpus_path, "--mode", "internal", "--points", "3",
            "--negatives", "3", "--seed", seed, "--ctx-min", "1", "--ctx-max", "8",
            "--out", out,
        ) == 0
    return {"vocab": vocab, "train": train_dir / "dataset.jsonl", "dev": dev_dir / "dataset.jsonl"}


def train_neural_args(datasets, out, channels):
    return ("train", "--model", "neural", "--train", datasets["train"], "--dev", datasets["dev"],
            "--vocab", datasets["vocab"], "--out", out, "--channels", channels)


@pytest.fixture
def pipeline(tmp_path, datasets):
    """corpus -> vocab -> datasets -> tiny neural checkpoint."""
    model_dir = tmp_path / "model"
    assert run(
        *train_neural_args(datasets, model_dir, "word,da,turn"),
        "--emb-dim-word", "6", "--emb-dim", "4",
        "--hidden", "5", "--head-hidden", "4", "--epochs", "2", "--batch-size", "8",
        "--lr", "0.01",
    ) == 0
    return {
        **datasets,
        "checkpoint": model_dir / "checkpoint.ckpt",
        "model_dir": model_dir,
    }


@pytest.mark.parametrize("channels, rule", [
    ("turn", "at least one of word/role/da channels is required"),
    ("", "at least one of word/role/da channels is required"),
    ("word,bogus", "unknown channels ['bogus']"),
])
def test_train_rejects_a_channel_set_outside_the_rule(datasets, tmp_path, capsys,
                                                      channels, rule):
    assert run(*train_neural_args(datasets, tmp_path / "model", channels)) == 2
    assert capsys.readouterr().err == f"data error: {rule}\n"


class TestTrainEvalPipeline:
    def test_trained_bits_are_pinned(self, pipeline):
        """The trained weights and history, byte for byte. Float32 training
        amplifies any last-bit change in a forward or backward product (Adam's
        first step divides by the gradient's own magnitude), so an engine
        change meant to be exact must leave the payload and history digests
        as they are. The whole file's digest also pins the header, which a
        format change moves while the weights stay. The digests were
        recorded with OpenBLAS 0.3.31 on its SkylakeX kernel
        (`OPENBLAS_VERBOSE=2` prints `Core: SkylakeX`); they fail under
        `OPENBLAS_CORETYPE=Haswell`, and another BLAS or kernel may round
        differently and need its own (see ROADMAP, "Row bits by
        construction"). They were recorded with one training pass per
        stream length; of this run's 15 steps, one merges two length groups
        into one pass (7 x 4 and 12 x 5 rows), and the others have at most
        one group of MIN_ROWS rows."""
        blob = pipeline["checkpoint"].read_bytes()
        payload = blob[16 + int.from_bytes(blob[8:16], "little") :]
        assert hashlib.sha256(payload).hexdigest() == (
            "553e8d81f36b3f8e2fc3804182e1daf88078d255c4b80b4c91706c071544422d"
        )
        assert sha(pipeline["checkpoint"]) == (
            "1a312ec5c611ba9680124e608a9ecb8231c64f9e9b2f7945c7126a450afddc9c"
        )
        assert sha(pipeline["model_dir"] / "checkpoint_history.json") == (
            "da7b0242198b885a0945003cddd578de1eb0e9527a52898c1e16a07b98dfea21"
        )

    def test_artifacts_written(self, pipeline):
        assert pipeline["checkpoint"].exists()
        summary = json.loads((pipeline["model_dir"] / "training_summary.json").read_text())
        assert summary["runs"] == 1
        assert 0.0 < summary["dev_mrr"] <= 1.0

    def test_eval_selection(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run(
            "eval-selection", "--checkpoint", pipeline["checkpoint"],
            "--data", pipeline["dev"], "--out", out,
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("accuracy", "mrr", "r_at_1", "r_at_2"):
            assert 0.0 <= report[key] <= 1.0
        assert (out / "selection_metrics.tsv").exists()

    def test_eval_selection_deterministic(self, pipeline, capsys):
        outs = []
        for _ in range(2):
            run("eval-selection", "--checkpoint", pipeline["checkpoint"],
                "--data", pipeline["dev"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_train_linear(self, pipeline, tmp_path):
        out = tmp_path / "linear_model"
        code = run(
            "train", "--model", "linear", "--train", pipeline["train"],
            "--vocab", pipeline["vocab"], "--out", out, "--features", "joint",
            "--epochs", "5",
        )
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()

    def test_rate_prints_table(self, pipeline, tmp_path, capsys):
        instance = json.loads(pipeline["dev"].read_text().splitlines()[0])
        payload = {"context": instance["context"], "candidates": instance["candidates"]}
        inp = tmp_path / "instance.json"
        inp.write_text(json.dumps(payload), encoding="utf-8")
        assert run("rate", "--checkpoint", pipeline["checkpoint"], "--input", inp) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("rank\tscore")
        assert len(lines) == 1 + len(payload["candidates"])

    def test_rate_score_does_not_depend_on_the_other_candidates(self, pipeline, tmp_path,
                                                                capsys):
        first, second = (json.loads(line) for line in pipeline["dev"].read_text().splitlines()[:2])
        candidates = first["candidates"] + second["candidates"][:1]
        assert len(candidates) == 5
        printed = []
        for cands in (candidates, candidates[2:3]):
            inp = tmp_path / "instance.json"
            inp.write_text(json.dumps({"context": first["context"], "candidates": cands}),
                           encoding="utf-8")
            assert run("rate", "--checkpoint", pipeline["checkpoint"], "--input", inp) == 0
            rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
            printed.append({row[4]: row[1] for row in rows})
        [(text, alone)] = printed[1].items()
        assert printed[0][text] == alone


class TestEvalRating:
    def test_rating_metrics(self, pipeline, rated_path, capsys):
        code = run("eval-rating", "--checkpoint", pipeline["checkpoint"], "--data", rated_path)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("accuracy", "mrr", "r_at_1", "ndcg"):
            assert 0.0 <= report[key] <= 1.0


# The report bytes of the tiny neural checkpoint and of a linear one, which
# `evaluate_reference` gives too: how the metrics are computed must not move
# a bit of them. The JSON has sorted keys, the TSV keeps report order. The
# neural figures rest on the checkpoint's bits (see
# `test_trained_bits_are_pinned`).
PINNED_EVAL_REPORTS = {
    ("neural", "eval-selection"): ("""{
  "accuracy": 0.574074074074074,
  "instances": 18,
  "mrr": 0.6064814814814814,
  "pairs": 54,
  "r_at_1": 0.3888888888888889,
  "r_at_2": 0.6111111111111112
}
""", """metric\tvalue
accuracy\t0.574074074074074
mrr\t0.6064814814814814
r_at_1\t0.3888888888888889
r_at_2\t0.6111111111111112
instances\t18
pairs\t54
"""),
    ("neural", "eval-rating"): ("""{
  "accuracy": 0.4666666666666666,
  "accuracy_pairs": 75,
  "instances": 25,
  "mrr": 0.62,
  "ndcg": 0.9509115231610044,
  "r_at_1": 0.36
}
""", """metric\tvalue
accuracy\t0.4666666666666666
mrr\t0.62
r_at_1\t0.36
ndcg\t0.9509115231610044
instances\t25
accuracy_pairs\t75
"""),
    ("linear", "eval-selection"): ("""{
  "accuracy": 0.7037037037037037,
  "instances": 18,
  "mrr": 0.6712962962962963,
  "pairs": 54,
  "r_at_1": 0.4444444444444444,
  "r_at_2": 0.7222222222222222
}
""", """metric\tvalue
accuracy\t0.7037037037037037
mrr\t0.6712962962962963
r_at_1\t0.4444444444444444
r_at_2\t0.7222222222222222
instances\t18
pairs\t54
"""),
    ("linear", "eval-rating"): ("""{
  "accuracy": 0.4666666666666666,
  "accuracy_pairs": 75,
  "instances": 25,
  "mrr": 0.6,
  "ndcg": 0.9419274092121063,
  "r_at_1": 0.32
}
""", """metric\tvalue
accuracy\t0.4666666666666666
mrr\t0.6
r_at_1\t0.32
ndcg\t0.9419274092121063
instances\t25
accuracy_pairs\t75
"""),
}


def test_eval_reports_are_pinned(pipeline, rated_path, tmp_path, capsys):
    linear = tmp_path / "linear"
    assert run("train", "--model", "linear", "--train", pipeline["train"],
               "--vocab", pipeline["vocab"], "--out", linear, "--features", "joint",
               "--epochs", "5") == 0
    written = {}
    for model, checkpoint in (("neural", pipeline["checkpoint"]),
                              ("linear", linear / "checkpoint.ckpt")):
        for command, data, stem in (("eval-selection", pipeline["dev"], "selection_metrics"),
                                    ("eval-rating", rated_path, "rating_metrics")):
            out = tmp_path / f"{model}-{command}"
            assert run(command, "--checkpoint", checkpoint, "--data", data, "--out", out) == 0
            written[model, command] = tuple(
                (out / f"{stem}.{ext}").read_text(encoding="utf-8") for ext in ("json", "tsv")
            )
    capsys.readouterr()
    assert written == PINNED_EVAL_REPORTS


class TestAnalyze:
    def test_report(self, rated_path, tmp_path, capsys):
        out = tmp_path / "analysis"
        assert run("analyze", "--data", rated_path, "--out", out) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["regressions"]) == {"all", "das", "entities"}
        means = report["group_stats"]
        assert means["original"]["mean"] > means["external"]["mean"]
        assert (out / "coefficients_all.tsv").exists()


@pytest.fixture
def workers_path(tmp_path):
    """A rated test set with three workers' ratings per candidate."""
    from dialcoh.swapgen import Candidate, RatedInstance

    rng = np.random.default_rng(3)
    instances = []
    for i in range(12):
        inst = make_rated_instance(i, rng)
        rated_cands = []
        for c in inst.candidates:
            base = int(np.clip(round(c.mean_rating), 1, 3))
            scores = tuple(
                int(np.clip(base + rng.integers(-1, 2), 1, 3)) for _ in range(3)
            )
            rated_cands.append(Candidate(c.turn, c.provenance, ratings=scores))
        instances.append(RatedInstance(context=inst.context, candidates=tuple(rated_cands)))
    path = tmp_path / "workers.jsonl"
    save_rated_testset(instances, path)
    return path


class TestAgreement:
    def test_agreement_stats(self, workers_path, capsys):
        assert run("agreement", "--data", workers_path) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["raters"] == 3
        assert -1.0 <= report["mean_quadratic_kappa"] <= 1.0
        assert len(report["leave_one_out"]["per_rater"]) == 3


def assert_reports_written(capsys, argv, out, files):
    """argv run twice with --out: each time the written report equals
    stdout, and the second run rewrites every file byte for byte."""
    written = []
    for _ in range(2):
        assert run(*argv, "--out", out) == 0
        report_text = capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        assert (out / files[0]).read_text(encoding="utf-8") == report_text
        written.append({name: (out / name).read_bytes() for name in files})
    assert written[0] == written[1]


def test_agreement_and_baseline_write_their_reports(tmp_path, capsys, workers_path):
    assert_reports_written(capsys, ("agreement", "--data", workers_path), tmp_path / "agreement",
                           ["agreement.json", "run_config.json"])
    assert_reports_written(
        capsys, ("baseline", "--candidates", "5", "--metric", "ndcg", "--trials", "500",
                 "--ratings", "3,2,2,1,1"),
        tmp_path / "baseline", ["baseline.json", "run_config.json"])


class TestBaseline:
    def test_mrr_baseline_value(self, capsys):
        assert run("baseline", "--candidates", "10", "--metric", "mrr",
                   "--trials", "100000", "--seed", "0") == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["estimate"] - 0.2929) <= 0.005
        assert report["closed_form"] == pytest.approx(0.29289682539682538)

    # The report bytes, which the metric code must keep. A graded profile
    # counts every positive entry as relevant for mrr and recall.
    @pytest.mark.parametrize("argv, report", [
        (["--metric", "mrr"],
         {"closed_form": 0.37040816326530607, "estimate": 0.3674547619047619,
          "standard_error": 0.008751381922078954}),
        (["--metric", "mrr", "--ratings", "0,1,0,1,0,0,0"],
         {"estimate": 0.5286499999999998, "standard_error": 0.009924613505371821}),
        (["--metric", "mrr", "--ratings", "3,0,2,0,1,0,0"],
         {"estimate": 0.6591833333333332, "standard_error": 0.009662952455132446}),
        (["--metric", "recall", "--k", "2"],
         {"closed_form": 0.2857142857142857, "estimate": 0.29, "k": 2,
          "standard_error": 0.01435639599990562}),
        (["--metric", "recall", "--k", "3", "--ratings", "0,1,1,0,0,0,0"],
         {"estimate": 0.728, "k": 3, "standard_error": 0.01407885699246264}),
        (["--metric", "ndcg", "--ratings", "3,2,2,1,1,1,1"],
         {"estimate": 0.8453038008105387, "standard_error": 0.0020970901165441947}),
        (["--metric", "accuracy"],
         {"closed_form": 0.5, "estimate": 0.5045, "standard_error": 0.010687977907941687}),
    ], ids=["mrr", "mrr-two-relevant", "mrr-graded", "recall", "recall-two-relevant", "ndcg",
            "accuracy"])
    def test_reports_are_pinned(self, capsys, argv, report):
        assert run("baseline", "--candidates", "7", "--trials", "1000", "--seed", "2", *argv) == 0
        expected = {"metric": argv[1], "n_candidates": 7, "seed": 2, "trials": 1000, **report}
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_single_trial_has_null_standard_error(self, capsys):
        """One trial has no spread: the report writes null, which JSON has,
        where it wrote NaN, which JSON does not."""
        assert run("baseline", "--candidates", "7", "--metric", "mrr", "--trials", "1",
                   "--seed", "2") == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report == {
            "closed_form": 0.37040816326530607, "estimate": 0.3333333333333333, "metric": "mrr",
            "n_candidates": 7, "seed": 2, "standard_error": None, "trials": 1,
        }

    @pytest.mark.parametrize("metric, message", [
        ("mrr", "no relevant candidate in ranking"),
        ("recall", "no relevant candidate in ranking"),
        ("ndcg", "nDCG requires at least one positive gain"),
        ("accuracy", "accuracy baseline needs two distinct relevance values"),
    ])
    def test_profile_without_a_relevant_candidate_is_a_data_error(self, capsys, metric, message):
        assert run("baseline", "--candidates", "3", "--trials", "10", "--metric", metric,
                   "--ratings", "0,0,0") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"data error: {message}")

    def test_accuracy_counts_every_pair_with_distinct_relevance(self, capsys):
        """The estimate is the mean accuracy `eval-rating` gives each trial's
        draws against the profile."""
        draws = np.random.default_rng(0).random((10, 3))
        estimates = {}
        for ratings in ("1,0,0", "1,1,0", "3,2,1"):
            assert run("baseline", "--candidates", "3", "--trials", "10", "--metric", "accuracy",
                       "--ratings", ratings) == 0
            estimates[ratings] = json.loads(capsys.readouterr().out)["estimate"]
            profile = [float(r) for r in ratings.split(",")]
            assert estimates[ratings] == float(np.mean(
                [_graded_pairwise_accuracy(row, profile)[0] for row in draws]))
        assert estimates["1,1,0"] != estimates["1,0,0"]

    def test_invalid_metric_usage_error(self):
        assert run("baseline", "--candidates", "10", "--metric", "nope") == 1

    @pytest.mark.parametrize("ratings", ["inf,1,1", "nan,1,1", "1,-inf,1"])
    @pytest.mark.parametrize("metric", ["ndcg", "mrr"])
    def test_non_finite_relevance_is_a_data_error(self, capsys, metric, ratings):
        assert run("baseline", "--candidates", "3", "--trials", "10", "--metric", metric,
                   "--ratings", ratings) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("data error: relevance profile values must be finite")

    def test_non_finite_report_is_a_numeric_error(self, capsys, tmp_path, monkeypatch):
        """A report holding NaN is written nowhere: JSON has no NaN."""
        monkeypatch.setattr("dialcoh.metrics.random_baseline",
                            lambda **kwargs: {"estimate": float("nan")})
        assert run("baseline", "--candidates", "3", "--metric", "ndcg",
                   "--out", tmp_path / "out") == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric error: baseline report: ")
        assert not (tmp_path / "out").exists()


# Runs `cli.main` on each argv of the JSON list in argv[1], in this one
# process, and prints as JSON each call's exit code, stdout, stderr and the
# files it wrote or rewrote under the working directory, and how many
# parsers (the top one and its subparsers) were built over the whole run.
SEQUENCE_RUN = """
import contextlib, io, json, os, sys
from dialcoh import cli

built = []
init = cli._Parser.__init__
def counted(self, *args, **kwargs):
    built.append(None)
    init(self, *args, **kwargs)
cli._Parser.__init__ = counted

def tree():
    return {os.path.join(d, f): (os.stat(os.path.join(d, f)).st_mtime_ns,
                                 open(os.path.join(d, f), encoding="utf-8").read())
            for d, _, files in os.walk(".") for f in files}

calls = []
for argv in json.loads(sys.argv[1]):
    before = tree()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    after = tree()
    written = {p: text for p, (_, text) in after.items() if before.get(p) != after[p]}
    calls.append([code, out.getvalue(), err.getvalue(), written])
print(json.dumps({"calls": calls, "parsers_built": len(built)}))
"""


def test_repeated_calls_in_one_process_match_first_calls(pipeline, tmp_path):
    """`main` called again and again in one process answers each call as the
    first call of a fresh process does: the same exit code, output and
    files, with no default or option of an earlier call leaking into a later
    one (the second `eval-selection` has no --out and writes nothing). The
    parser is built once for the whole sequence."""
    instance = json.loads(pipeline["dev"].read_text().splitlines()[0])
    request = tmp_path / "request.json"
    request.write_text(json.dumps({"context": instance["context"],
                                   "candidates": instance["candidates"]}), encoding="utf-8")
    ckpt, data = str(pipeline["checkpoint"]), str(pipeline["dev"])
    rate = ["rate", "--checkpoint", ckpt, "--input", str(request)]
    sequence = [
        rate,
        ["eval-selection", "--checkpoint", ckpt, "--data", data, "--out", "eval"],
        ["eval-selection", "--checkpoint", ckpt],
        ["--help"],
        ["eval-selection", "--checkpoint", ckpt, "--data", data],
        rate,
    ]
    firsts = []
    for i, argv in enumerate(sequence):
        where = tmp_path / f"first{i}"
        where.mkdir()
        proc = run_fresh_python(SEQUENCE_RUN, json.dumps([argv]), cwd=where)
        assert proc.returncode == 0, proc.stderr
        firsts.append(json.loads(proc.stdout))
    where = tmp_path / "sequence"
    where.mkdir()
    proc = run_fresh_python(SEQUENCE_RUN, json.dumps(sequence), cwd=where)
    assert proc.returncode == 0, proc.stderr
    together = json.loads(proc.stdout)

    assert together["calls"] == [first["calls"][0] for first in firsts]
    codes = [code for code, *_ in together["calls"]]
    assert codes == [0, 0, 1, 0, 0, 0]
    written = [sorted(files) for *_, files in together["calls"]]
    assert written == [[], [os.path.join(".", "eval", name) for name in (
        "run_config.json", "selection_metrics.json", "selection_metrics.tsv")], [], [], [], []]
    assert together["calls"][1][1] == together["calls"][4][1]
    assert together["parsers_built"] == firsts[0]["parsers_built"] > 0
