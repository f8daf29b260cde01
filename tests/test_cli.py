import hashlib
import json

import pytest

from dialcoh.cli import main
from dialcoh.corpus import save_corpus
from dialcoh.swapgen import save_rated_testset

from conftest import run_fresh_python, synthetic_corpus
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
    (["vocab", "corpus.jsonl", "-o", "vocab.json"], 0,
     "wrote vocab.json: |words|=11 |roles|=4 |da|=3 |turn|=4\n", ""),
    (["vocab", "corpus.jsonl", "-o", "vocab.json", "--tagset", "tagset.txt"], 2, "",
     "data error: tagset.txt: not UTF-8 text (invalid start byte at byte 3)\n"),
], ids=["clean", "violation", "empty", "vocab", "non-utf8-tagset"])
def test_light_commands_start_without_numpy(corpus_path, argv, code, stdout, stderr):
    """`validate` and `vocab` in a fresh interpreter load neither numpy nor
    the models or swap generation, and report as they always have."""
    where = corpus_path.parent
    (where / "bad.jsonl").write_text(
        '{"id": "d", "turns": [{"speaker": "Z", "segments": [{"da": "sd"}]}]}\n',
        encoding="utf-8",
    )
    (where / "empty.jsonl").write_bytes(b"")
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
        change meant to be exact must leave both digests as they are. The
        digests were recorded with OpenBLAS 0.3.31 on its SkylakeX kernel
        (`OPENBLAS_VERBOSE=2` prints `Core: SkylakeX`); they fail under
        `OPENBLAS_CORETYPE=Haswell`, and another BLAS or kernel may round
        differently and need its own (see ROADMAP item 2)."""
        assert sha(pipeline["checkpoint"]) == (
            "aee0b17142911f97e9578e26518e2e30df012f3e748640fee8f1db0643e5c01f"
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

    def test_invalid_metric_usage_error(self):
        assert run("baseline", "--candidates", "10", "--metric", "nope") == 1
