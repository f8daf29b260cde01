"""Malformed dataset records, `rate` payloads, checkpoint headers, neural
checkpoint arrays and word-vector files reach the user through `cli.main` as
data errors (exit 2), and malformed list flags as usage errors (exit 1),
never as tracebacks."""
import json

import numpy as np
import pytest

from dialcoh.cli import main
from dialcoh.corpus import derive_vocabularies, save_vocabularies
from dialcoh.models import LinearRanker, LinearRankerConfig, save_checkpoint
from dialcoh.models.checkpoint import MAGIC
from dialcoh.models.linear import feature_dim
from dialcoh.models.neural import NeuralConfig, NeuralScorer
from dialcoh.swapgen import build_selection_dataset

from conftest import instance_to_dict, synthetic_corpus


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """A linear and a neural checkpoint, their vocabulary file, and one valid
    dataset record."""
    root = tmp_path_factory.mktemp("malformed")
    corpus = synthetic_corpus(4, 10, seed=3)
    vocabs = derive_vocabularies(corpus)
    save_vocabularies(vocabs, root / "vocab.json")
    config = LinearRankerConfig()
    ranker = LinearRanker(config, vocabs, np.linspace(-1, 1, feature_dim(config, vocabs)))
    save_checkpoint(ranker, root / "model.ckpt")
    neural = NeuralConfig(channels=("word", "da"), emb_dim_word=4, emb_dim_other=2,
                          gru_layers=1, gru_hidden=3, head_hidden=2)
    save_checkpoint(NeuralScorer.initialize(neural, vocabs), root / "neural.ckpt")
    instances, _ = build_selection_dataset(corpus, points_per_dialogue=1, n_neg=3, seed=0)
    return root, instance_to_dict(instances[0])


def run(*argv):
    return main([str(a) for a in argv])


def _candidate(rec, **changes):
    return {**rec, "candidates": [{**rec["candidates"][0], **changes}, *rec["candidates"][1:]]}


DATASET_CASES = {
    "not_an_object": lambda rec: [1],
    "string_candidate": lambda rec: {**rec, "candidates": ["turn", *rec["candidates"][1:]]},
    "position_string": lambda rec: {**rec, "positive_position": "x"},
    "position_past_end": lambda rec: {**rec, "positive_position": 99},
    "position_negative": lambda rec: {**rec, "positive_position": -1},
    "dialogue_id_number": lambda rec: {**rec, "dialogue_id": 7},
    "empty_context": lambda rec: {**rec, "context": []},
    "positive_not_original": lambda rec: {
        **rec, "positive_position": (rec["positive_position"] + 1) % len(rec["candidates"])},
    "invalid_role": lambda rec: {**rec, "context": [
        {"speaker": "A", "segments": [{"da": "sd", "entities": [{"head": "x", "role": "Q"}]}]}]},
}

RATE_CASES = {
    "json_list": lambda rec: [rec["context"], rec["candidates"]],
    "context_number": lambda rec: {**rec, "context": 3},
    "string_candidate": lambda rec: {**rec, "candidates": ["turn", *rec["candidates"][1:]]},
    "rating_outside_scale": lambda rec: _candidate(rec, ratings=[7]),
    "unknown_provenance": lambda rec: _candidate(rec, provenance="bogus"),
}

CASES = [("dataset", name, make) for name, make in DATASET_CASES.items()] + [
    ("rate", name, make) for name, make in RATE_CASES.items()
]


@pytest.mark.parametrize("kind,name,make", CASES, ids=[f"{k}-{n}" for k, n, _ in CASES])
def test_malformed_record_is_a_data_error(setup, tmp_path, capsys, kind, name, make):
    root, record = setup
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make(record)) + "\n", encoding="utf-8")
    if kind == "dataset":
        code = run("eval-selection", "--checkpoint", root / "model.ckpt", "--data", path)
    else:
        code = run("rate", "--checkpoint", root / "model.ckpt", "--input", path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    if kind == "dataset":
        assert "line 1" in err


def test_valid_inputs_pass(setup, tmp_path):
    root, record = setup
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run("eval-selection", "--checkpoint", root / "model.ckpt", "--data", data) == 0
    bare = {"context": record["context"],
            "candidates": [{"turn": c["turn"]} for c in record["candidates"]]}
    request = tmp_path / "request.json"
    request.write_text(json.dumps(bare), encoding="utf-8")
    assert run("rate", "--checkpoint", root / "model.ckpt", "--input", request) == 0
    assert run("rate", "--checkpoint", root / "neural.ckpt", "--input", request) == 0


def _rated(rec):
    """The dataset record as a rated record: one rating on every candidate."""
    return {"context": rec["context"],
            "candidates": [{**c, "ratings": [2]} for c in rec["candidates"]]}


def _with_bad_role(turn):
    """The turn with every mention of its first segment given the role Q (a
    mention is added when the segment has none)."""
    first = turn["segments"][0]
    mentions = first["entities"] or [{"head": "movie", "role": "S"}]
    return {**turn, "segments": [
        {**first, "entities": [{**m, "role": "Q"} for m in mentions]}, *turn["segments"][1:]]}


def _with_context_turn(rec, turn):
    return {**rec, "context": [turn, *rec["context"][1:]]}


# A loader parses each distinct turn of a file once. These files repeat a
# turn across lines; each must fail on the line a full parse fails on.
INTERNING_CASES = {
    "valid_turn_then_same_turn_with_bad_role": (
        lambda rec: [rec, _with_context_turn(rec, _with_bad_role(rec["context"][0]))], 2),
    "invalid_turn_repeated_on_later_lines": (
        lambda rec: [rec] + [_with_context_turn(rec, _with_bad_role(rec["context"][0]))] * 3, 2),
    "invalid_candidate_turn_repeated_in_a_later_context": (
        lambda rec: [rec, rec, _candidate(rec, turn=_with_bad_role(rec["context"][0])),
                     _with_context_turn(rec, _with_bad_role(rec["context"][0]))], 3),
}
INTERNING = [(kind, name) for kind in ("dataset", "rated") for name in sorted(INTERNING_CASES)]


@pytest.mark.parametrize("kind,name", INTERNING, ids=[f"{k}-{n}" for k, n in INTERNING])
def test_repeated_turns_fail_on_the_first_bad_line(setup, tmp_path, capsys, kind, name):
    root, record = setup
    make, bad_line = INTERNING_CASES[name]
    records = make(record) if kind == "dataset" else [_rated(r) for r in make(record)]
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    command = "eval-selection" if kind == "dataset" else "eval-rating"
    assert run(command, "--checkpoint", root / "model.ckpt", "--data", path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {bad_line}: ") and "invalid role 'Q'" in err
    path.write_text("".join(json.dumps(r) + "\n" for r in records[:bad_line - 1]),
                    encoding="utf-8")
    assert run(command, "--checkpoint", root / "model.ckpt", "--data", path) == 0


def _train_args(root, record, tmp_path, *flags):
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ("train", "--train", data, "--dev", data, "--vocab", root / "vocab.json",
            "--out", tmp_path / "out", *flags)


LIST_FLAG_CASES = {
    "baseline_ratings": lambda root, record, tmp: (
        "baseline", "--candidates", "3", "--metric", "ndcg", "--ratings", "a,b,c"),
    "train_seeds": lambda root, record, tmp: _train_args(
        root, record, tmp, "--model", "linear", "--seeds", "a"),
}


@pytest.mark.parametrize("name", sorted(LIST_FLAG_CASES))
def test_malformed_list_flag_is_a_usage_error(setup, tmp_path, capsys, name):
    root, record = setup
    assert run(*LIST_FLAG_CASES[name](root, record, tmp_path)) == 1
    assert "invalid comma-separated" in capsys.readouterr().err


def test_linear_training_takes_one_seed(setup, tmp_path, capsys):
    root, record = setup
    assert run(*_train_args(root, record, tmp_path, "--model", "linear", "--seeds", "3,4")) == 2
    assert "one seed" in capsys.readouterr().err


def test_non_numeric_word_vector_is_a_data_error(setup, tmp_path, capsys):
    root, record = setup
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("movie 0.1 0.2\nmovie 0.1 x\n", encoding="utf-8")
    code = run(*_train_args(
        root, record, tmp_path, "--model", "neural", "--pretrained-words", vectors,
        "--emb-dim-word", "2", "--emb-dim", "2", "--layers", "1", "--hidden", "2",
        "--head-hidden", "2", "--epochs", "1"))
    assert code == 2
    err = capsys.readouterr().err
    assert str(vectors) in err and "line 2" in err


def test_word_vector_of_the_wrong_size_is_a_data_error(setup, tmp_path, capsys):
    root, record = setup
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("unseen 0.1\nmovie 0.1 0.2 0.3\n", encoding="utf-8")
    code = run(*_train_args(
        root, record, tmp_path, "--model", "neural", "--pretrained-words", vectors,
        "--emb-dim-word", "2", "--emb-dim", "2", "--layers", "1", "--hidden", "2",
        "--head-hidden", "2", "--epochs", "1"))
    assert code == 2
    err = capsys.readouterr().err
    assert str(vectors) in err and "line 2" in err
    assert "3 values" in err and "expected 2" in err


def _entry(header, **changes):
    return {**header, "arrays": [{**header["arrays"][0], **changes}]}


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


HEADER_CASES = {
    "not_an_object": (lambda h: [h], "header"),
    "no_payload_sha256": (_without("payload_sha256"), "payload_sha256"),
    "no_arrays": (_without("arrays"), "arrays"),
    "no_model_type": (_without("model_type"), "model_type"),
    "no_config": (_without("config"), "config"),
    "array_entry_not_object": (lambda h: {**h, "arrays": ["weights"]}, "arrays"),
    "array_shape_not_ints": (lambda h: _entry(h, shape=["x"]), "arrays"),
    "array_nbytes_mismatch": (lambda h: _entry(h, nbytes=4), "arrays"),
    "array_offset_past_payload": (lambda h: _entry(h, offset=10**9), "arrays"),
    "unknown_config_key": (lambda h: {**h, "config": {**h["config"], "bogus": 1}}, "bogus"),
    "config_k_below_2": (lambda h: {**h, "config": {**h["config"], "k": 1}}, "k must be"),
    "vocabulary_not_a_list": (
        lambda h: {**h, "vocabularies": {**h["vocabularies"], "words": 3}}, "words"),
}


def _rewrite(arrays, name, **changes):
    return [{**a, **changes} if a["name"] == name else a for a in arrays]


# The neural checkpoint has gru_hidden 3 and an input of 4 + 2.
NEURAL_ARRAY_CASES = {
    "missing_array": (
        lambda a: [e for e in a if e["name"] != "head.w1"], "missing array 'head.w1'"),
    "extra_array": (
        lambda a: a + [{**a[0], "name": "gru1f.b_r"}], "unexpected array 'gru1f.b_r'"),
    "recurrent_shape_flattened": (
        lambda a: _rewrite(a, "gru0f.u_r", shape=[9]), "'gru0f.u_r' has shape [9]"),
    "input_shape_transposed": (
        lambda a: _rewrite(a, "gru0b.w_z", shape=[6, 3]), "'gru0b.w_z' has shape [6, 3]"),
}


def _mutated_checkpoint(src, dst, mutate):
    blob = src.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.dumps(mutate(json.loads(blob[16 : 16 + n]))).encode("utf-8")
    dst.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header + blob[16 + n :])


def _rate_exits_with_data_error(ckpt, record, tmp_path, capsys) -> str:
    request = tmp_path / "request.json"
    request.write_text(json.dumps(record), encoding="utf-8")
    assert run("rate", "--checkpoint", ckpt, "--input", request) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    return err


@pytest.mark.parametrize("name", sorted(HEADER_CASES))
def test_malformed_checkpoint_header_is_a_data_error(setup, tmp_path, capsys, name):
    root, record = setup
    mutate, field = HEADER_CASES[name]
    _mutated_checkpoint(root / "model.ckpt", tmp_path / "bad.ckpt", mutate)
    assert field in _rate_exits_with_data_error(tmp_path / "bad.ckpt", record, tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(NEURAL_ARRAY_CASES))
def test_neural_arrays_must_match_the_config(setup, tmp_path, capsys, name):
    root, record = setup
    mutate, message = NEURAL_ARRAY_CASES[name]
    _mutated_checkpoint(root / "neural.ckpt", tmp_path / "bad.ckpt",
                        lambda h: {**h, "arrays": mutate(h["arrays"])})
    assert message in _rate_exits_with_data_error(tmp_path / "bad.ckpt", record, tmp_path, capsys)


def test_non_finite_word_vector_is_a_data_error(setup, tmp_path, capsys):
    root, record = setup
    for value in ("nan", "inf", "1e39"):  # 1e39 overflows float32
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"movie 0.1 0.2\nmovie 0.1 {value}\n", encoding="utf-8")
        code = run(*_train_args(
            root, record, tmp_path, "--model", "neural", "--pretrained-words", vectors,
            "--emb-dim-word", "2", "--emb-dim", "2", "--layers", "1", "--hidden", "2",
            "--head-hidden", "2", "--epochs", "1"))
        assert code == 2, value
        err = capsys.readouterr().err
        assert str(vectors) in err and "line 2" in err and "non-finite" in err


DEEP = "[" * 5000 + "]" * 5000  # deeper than json.loads can recurse


def _corpus_input(root, record, path, text):
    path.write_text(text, encoding="utf-8")
    return ("validate", path)


def _vocab_input(root, record, path, text):
    path.write_text(text, encoding="utf-8")
    data = path.with_name("data.jsonl")
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ("train", "--model", "linear", "--train", data, "--vocab", path,
            "--out", path.with_name("out"))


def _rate_input(root, record, path, text):
    path.write_text(text, encoding="utf-8")
    return ("rate", "--checkpoint", root / "model.ckpt", "--input", path)


def _header_input(root, record, path, text):
    blob = (root / "model.ckpt").read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = text.encode("utf-8")
    path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header + blob[16 + n :])
    request = path.with_name("request.json")
    request.write_text(json.dumps(record), encoding="utf-8")
    return ("rate", "--checkpoint", path, "--input", request)


JSON_SITES = {
    "corpus": (_corpus_input, "line 1"),
    "vocabulary": (_vocab_input, ""),
    "rate_request": (_rate_input, ""),
    "checkpoint_header": (_header_input, "header"),
}


@pytest.mark.parametrize("text", ["not json", '{"id": ' + DEEP + "}"], ids=["garbage", "deep"])
@pytest.mark.parametrize("site", sorted(JSON_SITES))
def test_undecodable_json_is_a_data_error(setup, tmp_path, capsys, site, text):
    """Each JSON reader reports text that is not JSON, or is nested too
    deeply to decode, as a data error naming the file."""
    root, record = setup
    make, where = JSON_SITES[site]
    path = tmp_path / f"{site}.json"
    assert run(*make(root, record, path, text + "\n")) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err and where in err
    assert "invalid JSON" in err


def test_corpus_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "d\xff"}\n')
    assert run("validate", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err and "UTF-8" in err
