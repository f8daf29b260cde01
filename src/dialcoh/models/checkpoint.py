"""Versioned binary checkpoint container.

Byte layout (format version 2)::

    bytes 0..7      magic b"DLGCOH01"
    bytes 8..15     header length N, unsigned 64-bit little-endian
    bytes 16..16+N  UTF-8 JSON header (sorted keys, no whitespace)
    remainder       payload: the named parameter arrays, concatenated in header
                    order as little-endian 32-bit floats, C order

The header records the model type, full configuration, vocabularies, training
manifest, per-array name/shape/offset, and the payload's checksum: under
`payload_sha256`, a list with the hex SHA-256 of each `chunk_bytes`-byte chunk
of the payload, in order. The last chunk may be shorter, and an empty payload
is one empty chunk. Files are written with 4 MiB (4194304-byte) chunks, and a
reader takes the size from the header. Chunk i (from 0) of a file whose
header is N bytes long can be checked with standard tools::

    tail -c +$((16 + N + i * 4194304 + 1)) model.ckpt | head -c 4194304 | sha256sum

A checkpoint therefore reloads without any corpus, and a truncated or
corrupted file, or one with the wrong number of chunks, fails the checksum.
Parameters are stored and used in float32, so a save/load round trip
reproduces scores bit-exactly. Saving refuses weights that are not finite
(NumericError), in one pass over the arrays before any byte is written.

Format version 1 differs only in the checksum: `payload_sha256` is one
digest of the whole payload, and there is no `chunk_bytes`. It is verified as
one chunk that covers the payload.

Arrays are listed, and lie in the payload, in sorted-name order. A neural
model's parameter buffer has that very layout (`neural.param_layout`), so
saving writes and hashes the buffer as it is, and loading reads the payload
once, into the buffer it hands the model. Loading reads the payload chunk by
chunk and hashes each chunk on a worker thread as soon as it is read (reading
and hashing both release the GIL), so the cores hash while the file is
still being read; a payload of one chunk is hashed inline. Every digest is
compared before the header's arrays are checked or a model is built. The
file is read, never mapped, so bytes that change after they are hashed never
reach the model. A neural checkpoint must hold exactly the arrays its config
needs, each with its shape and at the offset param_layout gives it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from typing import Iterable

import numpy as np

from ..corpus import Vocabularies, expect_object, parse_json, str_list_field, typed_field
from ..errors import ChecksumError, DataError, NumericError
from .linear import LinearRanker, LinearRankerConfig
from .neural import NeuralConfig, NeuralScorer, layout_size, param_layout

MAGIC = b"DLGCOH01"
FORMAT_VERSION = 2
CHUNK_BYTES = 4 << 20
_HEADER = "checkpoint header"
_MISMATCH = "checkpoint payload checksum mismatch (truncated or corrupt file)"


def _chunk_starts(payload_len: int, chunk_bytes: int) -> range:
    return range(0, max(payload_len, 1), chunk_bytes)


def _hexdigest(chunk) -> str:
    return hashlib.sha256(chunk).hexdigest()


def _sha256_chunks(chunks: Iterable, count: int) -> list[str]:
    """The hex SHA-256 of each of the `count` buffers `chunks` yields, in
    order: inline for one buffer, else on min(count, cores) threads, each
    buffer submitted as soon as it is yielded."""
    if count == 1:
        return [_hexdigest(chunk) for chunk in chunks]
    with ThreadPoolExecutor(min(count, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(_hexdigest, chunk) for chunk in chunks]
        return [future.result() for future in futures]


def save_checkpoint(model, path) -> None:
    """Serialize a NeuralScorer or LinearRanker. A weight that is not finite
    raises NumericError naming its array, and no file is written."""
    if isinstance(model, NeuralScorer):
        model_type, flat, layout = "neural", model.flat, model.layout
    elif isinstance(model, LinearRanker):
        model_type, flat, layout = "linear", model.weights, {"weights": (0, model.weights.shape)}
    else:
        raise DataError(f"cannot checkpoint object of type {type(model).__name__}")
    values = np.ascontiguousarray(flat, dtype="<f4").reshape(-1)
    for name, (at, shape) in sorted(layout.items()):
        if not np.isfinite(values[at : at + math.prod(shape)]).all():
            raise NumericError(f"cannot checkpoint non-finite weights: array {name!r}")
    payload = values.view(np.uint8)
    starts = _chunk_starts(payload.size, CHUNK_BYTES)
    header = {
        "format_version": FORMAT_VERSION,
        "model_type": model_type,
        "config": asdict(model.config),
        "vocabularies": model.vocabularies.to_dict(),
        "manifest": model.manifest,
        "arrays": [
            {"name": name, "shape": list(shape), "offset": 4 * at,
             "nbytes": 4 * math.prod(shape)}
            for name, (at, shape) in sorted(layout.items())
        ],
        "chunk_bytes": CHUNK_BYTES,
        "payload_sha256": _sha256_chunks(
            (payload[lo : lo + CHUNK_BYTES] for lo in starts), len(starts)
        ),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        f.write(payload)


def _read_layout(entries: list, payload_size: int) -> dict[str, tuple[int, tuple[int, ...]]]:
    """name -> (offset in floats, shape) of each header entry, every entry
    checked to lie, aligned, in a payload of payload_size bytes."""
    layout = {}
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and all(type(entry.get(k)) is int for k in ("offset", "nbytes"))
            and entry["nbytes"] == 4 * math.prod(entry["shape"])
            and 0 <= entry["offset"] <= payload_size - entry["nbytes"]
            and entry["offset"] % 4 == 0
        ):
            raise DataError(f"{_HEADER}.arrays[{i}]: malformed entry")
        layout[entry["name"]] = (entry["offset"] // 4, tuple(entry["shape"]))
    return layout


def _check_neural_layout(found: dict, layout: dict) -> None:
    """The header must list exactly the arrays param_layout gives the
    config, each with its shape and where it puts it."""
    extra = sorted(found.keys() - layout.keys())
    if extra:
        raise DataError(f"{_HEADER}.arrays: unexpected array {extra[0]!r}")
    for name, (at, shape) in layout.items():
        if name not in found:
            raise DataError(f"{_HEADER}.arrays: missing array {name!r}")
        found_at, found_shape = found[name]
        if found_shape != shape:
            raise DataError(
                f"{_HEADER}.arrays: array {name!r} has shape {list(found_shape)}, "
                f"the config needs {list(shape)}"
            )
        if found_at != at:
            raise DataError(
                f"{_HEADER}.arrays: array {name!r} is at byte {4 * found_at} of the payload, "
                f"the config puts it at byte {4 * at}"
            )


# The JSON type of each config field annotation: a float field takes any
# number but a bool, and the channels tuple is saved as a list of str.
_CONFIG_KINDS = {"int": int, "float": (int, float), "str": str, "tuple[str, ...]": list}


def _config(cls, obj: dict):
    where = f"{_HEADER}.config"
    kinds = {f.name: _CONFIG_KINDS[f.type] for f in fields(cls)}
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise DataError(f"{where}: unknown key {unknown[0]!r}")
    for key in obj:
        if kinds[key] is list:
            str_list_field(obj, key, where)
        else:
            typed_field(obj, key, kinds[key], where)
    try:
        return cls(**obj)
    except TypeError as exc:
        raise DataError(f"{_HEADER}.config: {exc!r}") from exc


def _recorded_digests(header: dict, payload_len: int) -> tuple[list[str], int]:
    """The payload's recorded chunk digests and the chunk size they cover;
    version 1's one digest covers the whole payload."""
    version = header.get("format_version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise DataError(f"unsupported checkpoint format version {version!r}")
    if version == 1:
        return [typed_field(header, "payload_sha256", str, _HEADER)], max(payload_len, 1)
    chunk_bytes = typed_field(header, "chunk_bytes", int, _HEADER)
    if chunk_bytes < 1:
        raise DataError(f"{_HEADER}.chunk_bytes: expected a positive integer, got {chunk_bytes}")
    return str_list_field(header, "payload_sha256", _HEADER), chunk_bytes


def _read_chunks(f, payload: np.ndarray, starts: range, chunk_bytes: int, path):
    """Fill payload from f one chunk at a time, yielding each chunk once it
    is read."""
    for lo in starts:
        chunk = payload[lo : lo + chunk_bytes]
        if f.readinto(chunk) != chunk.size:
            raise ChecksumError(f"checkpoint payload truncated: {path}")
        yield chunk


def load_checkpoint(path):
    """Reconstruct the saved model; raises ChecksumError on corruption and
    DataError naming the field on a malformed header."""
    with open(path, "rb") as f:
        lead = f.read(16)
        if len(lead) < 16 or lead[:8] != MAGIC:
            raise DataError(f"not a checkpoint file: {path}")
        header_len = int.from_bytes(lead[8:16], "little")
        payload_len = os.fstat(f.fileno()).st_size - 16 - header_len
        if payload_len < 0:
            raise ChecksumError(f"checkpoint header truncated: {path}")
        header = expect_object(parse_json(f.read(header_len), f"{path} header"), _HEADER)
        digests, chunk_bytes = _recorded_digests(header, payload_len)
        starts = _chunk_starts(payload_len, chunk_bytes)
        if len(digests) != len(starts):
            raise ChecksumError(_MISMATCH)
        payload = np.empty(payload_len, dtype=np.uint8)
        computed = _sha256_chunks(
            _read_chunks(f, payload, starts, chunk_bytes, path), len(starts)
        )
    if computed != digests:
        raise ChecksumError(_MISMATCH)
    found = _read_layout(typed_field(header, "arrays", list, _HEADER), payload_len)
    flat = payload[: payload_len - payload_len % 4].view("<f4")
    vocabularies = Vocabularies.from_dict(typed_field(header, "vocabularies", dict, _HEADER))
    manifest = header.get("manifest", {})
    model_type = typed_field(header, "model_type", str, _HEADER)
    config = typed_field(header, "config", dict, _HEADER)
    if model_type == "neural":
        neural_config = _config(NeuralConfig, config)
        layout = param_layout(neural_config, vocabularies)
        _check_neural_layout(found, layout)
        return NeuralScorer(
            neural_config, vocabularies, flat[: layout_size(layout)], manifest=manifest
        )
    if model_type == "linear":
        if "weights" not in found:
            raise DataError(f"{_HEADER}.arrays: no 'weights' array")
        at, shape = found["weights"]
        weights = flat[at : at + math.prod(shape)].reshape(shape)
        model = LinearRanker(_config(LinearRankerConfig, config), vocabularies, weights)
        model.manifest = manifest
        return model
    raise DataError(f"unknown model type {model_type!r}")
