"""Versioned binary checkpoint container.

Byte layout::

    bytes 0..7    magic b"DLGCOH01"
    bytes 8..15   header length N, unsigned 64-bit little-endian
    bytes 16..16+N  UTF-8 JSON header (sorted keys, no whitespace)
    remainder     payload: the named parameter arrays, concatenated in header
                  order as little-endian 32-bit floats, C order

The header records the model type, full configuration, vocabularies, training
manifest, per-array name/shape/offset, and the SHA-256 of the payload. A
checkpoint therefore reloads without any corpus, and a truncated or corrupted
file fails the checksum. Parameters are stored and used in float32, so a
save/load round trip reproduces scores bit-exactly. Loading reads the payload
once into one buffer, hashes it, and hands out the arrays as views into it;
a neural checkpoint must hold exactly the arrays, and shapes, its config
needs. Sorted names put each GRU layer's h, r and z gates back to back, so
the stacked weights the model runs on are views of the payload too.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import fields

import numpy as np

from ..corpus import Vocabularies, expect_object, parse_json, typed_field
from ..errors import ChecksumError, DataError
from .linear import LinearRanker, LinearRankerConfig
from .neural import NeuralConfig, NeuralScorer, param_shapes, params_from_arrays

MAGIC = b"DLGCOH01"
FORMAT_VERSION = 1
_HEADER = "checkpoint header"


def save_checkpoint(model, path) -> None:
    """Serialize a NeuralScorer or LinearRanker."""
    if isinstance(model, NeuralScorer):
        model_type = "neural"
        config = model.config.to_dict()
    elif isinstance(model, LinearRanker):
        model_type = "linear"
        config = model.config.to_dict()
    else:
        raise DataError(f"cannot checkpoint object of type {type(model).__name__}")
    arrays = model.parameter_arrays()
    entries = []
    chunks = []
    offset = 0
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name], dtype="<f4")
        raw = data.tobytes()
        entries.append(
            {"name": name, "shape": list(data.shape), "offset": offset, "nbytes": len(raw)}
        )
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = {
        "format_version": FORMAT_VERSION,
        "model_type": model_type,
        "config": config,
        "vocabularies": model.vocabularies.to_dict(),
        "manifest": model.manifest,
        "arrays": entries,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        f.write(payload)


def _read_arrays(entries: list, payload: np.ndarray) -> dict[str, np.ndarray]:
    """Views into the payload buffer, one per header entry."""
    arrays: dict[str, np.ndarray] = {}
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and all(type(entry.get(k)) is int for k in ("offset", "nbytes"))
            and entry["nbytes"] == 4 * math.prod(entry["shape"])
            and 0 <= entry["offset"] <= payload.size - entry["nbytes"]
            and entry["offset"] % 4 == 0
        ):
            raise DataError(f"{_HEADER}.arrays[{i}]: malformed entry")
        lo = entry["offset"]
        raw = payload[lo : lo + entry["nbytes"]]
        arrays[entry["name"]] = raw.view("<f4").reshape(entry["shape"])
    return arrays


def _check_neural_arrays(arrays: dict, config: NeuralConfig, vocabularies: Vocabularies) -> None:
    """The arrays must be exactly the parameters the config needs."""
    expected = param_shapes(config, vocabularies)
    extra = sorted(arrays.keys() - expected.keys())
    if extra:
        raise DataError(f"{_HEADER}.arrays: unexpected array {extra[0]!r}")
    for name, shape in expected.items():
        if name not in arrays:
            raise DataError(f"{_HEADER}.arrays: missing array {name!r}")
        if arrays[name].shape != shape:
            raise DataError(
                f"{_HEADER}.arrays: array {name!r} has shape {list(arrays[name].shape)}, "
                f"the config needs {list(shape)}"
            )


def _config(cls, obj: dict):
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise DataError(f"{_HEADER}.config: unknown key {unknown[0]!r}")
    try:
        return cls.from_dict(obj)
    except (KeyError, TypeError) as exc:
        raise DataError(f"{_HEADER}.config: {exc!r}") from exc


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
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(
                f"unsupported checkpoint format version {header.get('format_version')!r}"
            )
        payload = np.empty(payload_len, dtype=np.uint8)
        if f.readinto(payload) != payload_len:
            raise ChecksumError(f"checkpoint payload truncated: {path}")
    if hashlib.sha256(payload).hexdigest() != typed_field(header, "payload_sha256", str, _HEADER):
        raise ChecksumError(
            "checkpoint payload checksum mismatch (truncated or corrupt file)"
        )
    arrays = _read_arrays(typed_field(header, "arrays", list, _HEADER), payload)
    vocabularies = Vocabularies.from_dict(typed_field(header, "vocabularies", dict, _HEADER))
    manifest = header.get("manifest", {})
    model_type = typed_field(header, "model_type", str, _HEADER)
    config = typed_field(header, "config", dict, _HEADER)
    if model_type == "neural":
        neural_config = _config(NeuralConfig, config)
        _check_neural_arrays(arrays, neural_config, vocabularies)
        return NeuralScorer(
            neural_config, vocabularies, params_from_arrays(arrays), manifest=manifest
        )
    if model_type == "linear":
        if "weights" not in arrays:
            raise DataError(f"{_HEADER}.arrays: no 'weights' array")
        model = LinearRanker(_config(LinearRankerConfig, config), vocabularies, arrays["weights"])
        model.manifest = manifest
        return model
    raise DataError(f"unknown model type {model_type!r}")
