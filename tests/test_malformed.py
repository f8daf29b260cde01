"""Malformed dataset records, `rate` payloads, checkpoint headers, neural
checkpoint arrays and word-vector files reach the user through `cli.main` as
data errors (exit 2), scores that are not finite as numeric errors (exit 3),
and malformed list flags as usage errors (exit 1), never as tracebacks."""
import hashlib
import json

import numpy as np
import pytest

from dialcoh.cli import main
from dialcoh.corpus import derive_vocabularies, save_corpus, save_vocabularies
from dialcoh.errors import DataError
from dialcoh.models import LinearRanker, LinearRankerConfig, save_checkpoint
from dialcoh.models.checkpoint import MAGIC
from dialcoh.models.linear import feature_dim
from dialcoh.models.neural import NeuralConfig, NeuralScorer
from dialcoh.swapgen import build_selection_dataset

from conftest import instance_to_dict, synthetic_corpus


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """A linear and a neural checkpoint, their corpus and vocabulary files,
    and one valid dataset record."""
    root = tmp_path_factory.mktemp("malformed")
    corpus = synthetic_corpus(4, 10, seed=3)
    save_corpus(corpus, root / "corpus.jsonl")
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
    "empty_context": lambda rec: {**rec, "context": []},
    "no_candidates": lambda rec: {**rec, "candidates": []},
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
    """The dataset record as a rated record: one rating on every candidate
    that has none."""
    return {"context": rec["context"],
            "candidates": [{"ratings": [2], **c} if isinstance(c, dict) else c
                           for c in rec["candidates"]]}


@pytest.mark.parametrize("checkpoint", ["model.ckpt", "neural.ckpt"])
@pytest.mark.parametrize("field, message", [
    ("context", "record.context: expected at least one turn"),
    ("candidates", "record.candidates: expected at least one candidate"),
])
def test_empty_rated_record_names_its_line(setup, tmp_path, capsys, checkpoint, field, message):
    root, record = setup
    path = tmp_path / "rated.jsonl"
    path.write_text(json.dumps({**_rated(record), field: []}) + "\n", encoding="utf-8")
    assert run("eval-rating", "--checkpoint", root / checkpoint, "--data", path) == 2
    assert capsys.readouterr().err == f"data error: line 1: {message}\n"


def _with_bad_role(turn):
    """The turn with every mention of its first segment given the role Q (a
    mention is added when the segment has none)."""
    first = turn["segments"][0]
    mentions = first["entities"] or [{"head": "movie", "role": "S"}]
    return {**turn, "segments": [
        {**first, "entities": [{**m, "role": "Q"} for m in mentions]}, *turn["segments"][1:]]}


def _with_context_turn(rec, turn):
    return {**rec, "context": [turn, *rec["context"][1:]]}


# A loader parses each distinct turn and candidate of a file once. These
# files repeat a turn or a candidate across lines; each must fail on the line
# a full parse fails on, with the error a full parse gives.
BAD_ROLE = "invalid role 'Q'"
INTERNING_CASES = {
    "valid_turn_then_same_turn_with_bad_role": (
        lambda rec: [rec, _with_context_turn(rec, _with_bad_role(rec["context"][0]))], 2,
        BAD_ROLE),
    "invalid_turn_repeated_on_later_lines": (
        lambda rec: [rec] + [_with_context_turn(rec, _with_bad_role(rec["context"][0]))] * 3, 2,
        BAD_ROLE),
    "invalid_candidate_turn_repeated_in_a_later_context": (
        lambda rec: [rec, rec, _candidate(rec, turn=_with_bad_role(rec["context"][0])),
                     _with_context_turn(rec, _with_bad_role(rec["context"][0]))], 3, BAD_ROLE),
    "candidate_with_bad_provenance_repeated": (
        lambda rec: [rec] + [_candidate(rec, provenance="bogus")] * 3, 2,
        "unknown provenance 'bogus'"),
    "candidate_with_rating_4_repeated": (
        lambda rec: [rec, rec] + [_candidate(rec, ratings=[4])] * 2, 3, "rating 4 outside"),
    # True equals 1 and hashes like it: only an exact key keeps the valid
    # number's candidate from standing in for the bool's.
    "rating_true_after_rating_1": (
        lambda rec: [_candidate(rec, ratings=[1]), _candidate(rec, ratings=[True])], 2,
        "rating True outside"),
    "mean_rating_true_after_mean_rating_1": (
        lambda rec: [_candidate(rec, mean_rating=1), _candidate(rec, mean_rating=True)], 2,
        "mean_rating: expected number, got bool"),
    # Valid as a turn, but a candidate needs a "turn" field: a cached Turn
    # must not stand in for it.
    "context_turn_object_as_a_candidate": (
        lambda rec: [rec, {**rec, "candidates": [rec["context"][0], *rec["candidates"][1:]]}],
        2, "candidates[0]: missing field 'turn'"),
}
INTERNING = [(kind, name) for kind in ("dataset", "rated") for name in sorted(INTERNING_CASES)]


@pytest.mark.parametrize("kind,name", INTERNING, ids=[f"{k}-{n}" for k, n in INTERNING])
def test_repeated_turns_fail_on_the_first_bad_line(setup, tmp_path, capsys, kind, name):
    root, record = setup
    make, bad_line, message = INTERNING_CASES[name]
    records = make(record) if kind == "dataset" else [_rated(r) for r in make(record)]
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    command = "eval-selection" if kind == "dataset" else "eval-rating"
    assert run(command, "--checkpoint", root / "model.ckpt", "--data", path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {bad_line}: ") and message in err, err
    path.write_text("".join(json.dumps(r) + "\n" for r in records[:bad_line - 1]),
                    encoding="utf-8")
    assert run(command, "--checkpoint", root / "model.ckpt", "--data", path) == 0


def _train_args(root, record, tmp_path, *flags):
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ("train", "--train", data, "--dev", data, "--vocab", root / "vocab.json",
            "--out", tmp_path / "out", *flags)


# the smallest neural model `train` takes
TINY_NEURAL = ("--emb-dim-word", "2", "--emb-dim", "2", "--layers", "1", "--hidden", "2",
               "--head-hidden", "2", "--epochs", "1")


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


def test_repeated_training_seed_is_a_data_error(setup, tmp_path, capsys):
    """A repeated seed would train twice and overwrite its own checkpoint."""
    root, record = setup
    argv = _train_args(root, record, tmp_path, "--model", "neural", "--seeds", "0,1,0",
                       *TINY_NEURAL)
    assert run(*argv) == 2
    assert "repeats seed 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [16, 33])
def test_feature_space_too_large_is_a_data_error(setup, tmp_path, capsys, k):
    root, record = setup
    argv = _train_args(root, record, tmp_path, "--model", "linear", "--features", "entity",
                       "--k", k)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"k={k} gives {4**k} entity features per candidate" in err


def test_feature_cap_admits_k_12_and_refuses_k_13_entity_features():
    vocabs = derive_vocabularies(synthetic_corpus(2, 4, seed=0))
    assert feature_dim(LinearRankerConfig(features="entity", k=12), vocabs) == 4**12
    with pytest.raises(DataError, match=f"k=13 gives {4**13} entity features"):
        feature_dim(LinearRankerConfig(features="entity", k=13), vocabs)


def test_non_numeric_word_vector_is_a_data_error(setup, tmp_path, capsys):
    root, record = setup
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("movie 0.1 0.2\nmovie 0.1 x\n", encoding="utf-8")
    code = run(*_train_args(
        root, record, tmp_path, "--model", "neural", "--pretrained-words", vectors, *TINY_NEURAL))
    assert code == 2
    err = capsys.readouterr().err
    assert str(vectors) in err and "line 2" in err


def test_word_vector_of_the_wrong_size_is_a_data_error(setup, tmp_path, capsys):
    root, record = setup
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("unseen 0.1\nmovie 0.1 0.2 0.3\n", encoding="utf-8")
    code = run(*_train_args(
        root, record, tmp_path, "--model", "neural", "--pretrained-words", vectors, *TINY_NEURAL))
    assert code == 2
    err = capsys.readouterr().err
    assert str(vectors) in err and "line 2" in err
    assert "3 values" in err and "expected 2" in err


@pytest.mark.parametrize("tokens, model", [
    ("object", "linear"), ("object", "neural"), ("numbers", "linear"),
])
def test_vocabulary_token_that_is_not_a_string_is_a_data_error(setup, tmp_path, capsys, tokens,
                                                              model):
    """A --vocab file's tokens must be strings: an object escaped `train` as
    a TypeError, and numbers trained a linear model."""
    root, record = setup
    vocab = json.loads((root / "vocab.json").read_text(encoding="utf-8"))
    words, at, kind = {
        "object": ([*vocab["words"], {"head": "x"}], len(vocab["words"]), "dict"),
        "numbers": ([1, 2], 0, "int"),
    }[tokens]
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({**vocab, "words": words}), encoding="utf-8")
    flags = ("--model", model, "--vocab", path, *(TINY_NEURAL if model == "neural" else ()))
    assert run(*_train_args(root, record, tmp_path, *flags)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"vocabularies.words[{at}]: expected str, got {kind}" in err


def _entry(header, **changes):
    return {**header, "arrays": [{**header["arrays"][0], **changes}]}


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _config_value(key, value):
    return lambda h: {**h, "config": {**h["config"], key: value}}


# Cases named neural_* mutate the neural checkpoint, the others the linear one.
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
    "vocabulary_token_not_a_string": (
        lambda h: {**h, "vocabularies": {**h["vocabularies"], "da": [{}]}},
        "vocabularies.da[0]: expected str, got dict"),
    "no_chunk_bytes": (_without("chunk_bytes"), "chunk_bytes"),
    "chunk_bytes_zero": (lambda h: {**h, "chunk_bytes": 0}, "chunk_bytes"),
    "chunk_bytes_negative": (lambda h: {**h, "chunk_bytes": -64}, "chunk_bytes"),
    "chunk_bytes_bool": (lambda h: {**h, "chunk_bytes": True}, "chunk_bytes"),
    "chunk_bytes_float": (lambda h: {**h, "chunk_bytes": 4194304.0}, "chunk_bytes"),
    "payload_sha256_not_a_list": (
        lambda h: {**h, "payload_sha256": h["payload_sha256"][0]}, "payload_sha256"),
    "payload_sha256_holds_a_number": (lambda h: {**h, "payload_sha256": [7]}, "payload_sha256"),
    "config_k_float": (_config_value("k", 2.0), "config.k: expected int, got float"),
    "config_saliency_float": (
        _config_value("saliency", 1.0), "config.saliency: expected int, got float"),
    "config_features_number": (
        _config_value("features", 3), "config.features: expected str, got int"),
    "config_l2_bool": (_config_value("l2", True), "config.l2: expected number, got bool"),
    "neural_gru_hidden_float": (
        _config_value("gru_hidden", 3.0), "config.gru_hidden: expected int, got float"),
    "neural_emb_dim_other_float": (
        _config_value("emb_dim_other", 2.0), "config.emb_dim_other: expected int, got float"),
    "neural_head_hidden_float": (
        _config_value("head_hidden", 2.0), "config.head_hidden: expected int, got float"),
    "neural_gru_layers_bool": (
        _config_value("gru_layers", True), "config.gru_layers: expected int, got bool"),
    "neural_seed_float": (_config_value("seed", 0.5), "config.seed: expected int, got float"),
    "neural_batch_size_float": (
        _config_value("batch_size", 2.5), "config.batch_size: expected int, got float"),
    "neural_margin_null": (
        _config_value("margin", None), "config.margin: expected number, got NoneType"),
    "neural_channels_string": (
        _config_value("channels", "word"), "config.channels: expected list, got str"),
    "neural_channel_number": (
        _config_value("channels", ["word", 1]), "config.channels[1]: expected str, got int"),
}


def _rewrite(arrays, name, **changes):
    return [{**a, **changes} if a["name"] == name else a for a in arrays]


def _swap_offsets(arrays, a, b):
    offset = {e["name"]: e["offset"] for e in arrays}
    return _rewrite(_rewrite(arrays, a, offset=offset[b]), b, offset=offset[a])


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
    # No writer has made such a file: a loaded model's buffer is the payload
    # as it lies, so an array must lie where the config's layout puts it.
    "gates_swapped": (
        lambda a: _swap_offsets(a, "gru0f.u_h", "gru0f.u_r"), "array 'gru0f.u_r' is at byte"),
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
    source = "neural.ckpt" if name.startswith("neural_") else "model.ckpt"
    _mutated_checkpoint(root / source, tmp_path / "bad.ckpt", mutate)
    assert field in _rate_exits_with_data_error(tmp_path / "bad.ckpt", record, tmp_path, capsys)


def test_float_config_fields_take_integers(setup, tmp_path):
    """A float config field holding an integer loads, as JSON writes 1.0 as 1."""
    root, record = setup
    request = tmp_path / "request.json"
    request.write_text(json.dumps(record), encoding="utf-8")
    for source, key in (("neural.ckpt", "margin"), ("model.ckpt", "l2")):
        _mutated_checkpoint(root / source, tmp_path / "int.ckpt", _config_value(key, 1))
        assert run("rate", "--checkpoint", tmp_path / "int.ckpt", "--input", request) == 0


@pytest.mark.parametrize("name", sorted(NEURAL_ARRAY_CASES))
def test_neural_arrays_must_match_the_config(setup, tmp_path, capsys, name):
    root, record = setup
    mutate, message = NEURAL_ARRAY_CASES[name]
    _mutated_checkpoint(root / "neural.ckpt", tmp_path / "bad.ckpt",
                        lambda h: {**h, "arrays": mutate(h["arrays"])})
    assert message in _rate_exits_with_data_error(tmp_path / "bad.ckpt", record, tmp_path, capsys)


def _nan_bias_checkpoint(root, dst, digests_match: bool):
    """The neural checkpoint with a NaN written over its output bias
    `head.b2`, which makes every score NaN; with digests_match the header's
    chunk digests are those of the changed payload."""
    blob = (root / "neural.ckpt").read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + n])
    (b2,) = [a for a in header["arrays"] if a["name"] == "head.b2"]
    at = 16 + n + b2["offset"]
    dst.write_bytes(blob[:at] + np.float32(np.nan).tobytes() + blob[at + 4 :])
    if digests_match:
        payload = dst.read_bytes()[16 + n :]
        _mutated_checkpoint(dst, dst, lambda h: {**h, "payload_sha256": [
            hashlib.sha256(payload[lo : lo + h["chunk_bytes"]]).hexdigest()
            for lo in range(0, len(payload), h["chunk_bytes"])]})
    return dst


def test_corrupt_payload_that_would_score_non_finite_fails_the_checksum(setup, tmp_path,
                                                                       capsys):
    """A NaN written over the neural checkpoint's output bias makes every
    score NaN; `rate` reports the checksum mismatch (exit 2), not a numeric
    failure, and prints no ranking."""
    root, record = setup
    bad = _nan_bias_checkpoint(root, tmp_path / "bad.ckpt", digests_match=False)
    request = tmp_path / "request.json"
    request.write_text(json.dumps(record), encoding="utf-8")
    assert run("rate", "--checkpoint", bad, "--input", request) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "data error: checkpoint payload checksum mismatch (truncated or corrupt file)\n"


NON_FINITE_STAGES = {
    "rate": "ranking",
    "eval-selection": "selection evaluation, instance 0",
    "eval-rating": "rating evaluation, instance 0",
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_STAGES))
def test_non_finite_scores_are_numeric_errors(setup, tmp_path, capsys, command):
    """With digests that match the NaN bias, the checkpoint loads and every
    score is NaN: each scoring command exits 3 naming the stage and the
    candidate, prints nothing on stdout and writes no report."""
    root, record = setup
    bad = _nan_bias_checkpoint(root, tmp_path / "bad.ckpt", digests_match=True)
    data = tmp_path / "data.jsonl"
    if command == "rate":
        data.write_text(json.dumps(record), encoding="utf-8")
        argv = ("rate", "--checkpoint", bad, "--input", data)
    else:
        rec = record if command == "eval-selection" else _rated(record)
        data.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        argv = (command, "--checkpoint", bad, "--data", data, "--out", tmp_path / "out")
    assert run(*argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"numeric error: {NON_FINITE_STAGES[command]}: candidates[0] scored nan (not finite)\n")
    assert not (tmp_path / "out").exists()


def test_non_finite_word_vector_is_a_data_error(setup, tmp_path, capsys):
    root, record = setup
    for value in ("nan", "inf", "1e39"):  # 1e39 overflows float32
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"movie 0.1 0.2\nmovie 0.1 {value}\n", encoding="utf-8")
        code = run(*_train_args(root, record, tmp_path, "--model", "neural",
                                "--pretrained-words", vectors, *TINY_NEURAL))
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


NOT_UTF8_SIDE_FILES = {
    "tagset": lambda root, record, tmp, path: (
        "vocab", root / "corpus.jsonl", "-o", tmp / "vocab.json", "--tagset", path),
    "split": lambda root, record, tmp, path: (
        "gen-dataset", root / "corpus.jsonl", "--mode", "internal", "--split", path,
        "--out", tmp / "gen"),
    "pretrained_words": lambda root, record, tmp, path: _train_args(
        root, record, tmp, "--model", "neural", "--pretrained-words", path, *TINY_NEURAL),
}


@pytest.mark.parametrize("flag", sorted(NOT_UTF8_SIDE_FILES))
def test_side_file_that_is_not_utf8_is_a_data_error(setup, tmp_path, capsys, flag):
    root, record = setup
    path = tmp_path / f"{flag}.txt"
    path.write_bytes(b"movie 0.1 0.2\n\xff\n")
    assert run(*NOT_UTF8_SIDE_FILES[flag](root, record, tmp_path, path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err and "UTF-8" in err
