"""Checkpoint file: JSON manifest header + raw little-endian tensor payloads.

Layout: 8-byte little-endian uint64 manifest length, the UTF-8 JSON
manifest, then each tensor's raw bytes at the offsets the manifest
records.  The manifest carries the model config, a tensor directory of
name -> (dtype, shape, offset), an ``extra`` dict (step counter, RNG
state, anything JSON-serializable) and the payload's SHA-256
(``payload_sha256``).  Loading checks that digest over the payload bytes
the tensor directory covers, so a changed tensor byte is a DataError
naming the file; bytes past the last tensor are neither read nor hashed.
A checkpoint written before the field existed loads unchecked.
Roundtrips are bit-exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct
from typing import Any

import numpy as np

from .errors import DataError
from .model import ModelConfig, param_shapes
from .tensor import Tensor

_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}


def _dtype_tag(dtype: np.dtype) -> str:
    for tag, dt in _DTYPES.items():
        if dt == dtype.newbyteorder("<"):
            return tag
    raise DataError(f"unsupported checkpoint dtype {dtype}")


def save_checkpoint(path: str, config: ModelConfig, tensors: dict[str, np.ndarray],
                    extra: dict[str, Any] | None = None) -> None:
    """Write the checkpoint to a temporary file next to ``path``, then move it
    into place, so a process that dies mid-write leaves any earlier file at
    ``path`` whole.  Nothing is synced to disk: this guards against a crash
    of the process, not a power loss."""
    directory = {}
    offset = 0
    payloads = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        tag = _dtype_tag(arr.dtype)
        directory[name] = {"dtype": tag, "shape": list(arr.shape), "offset": offset}
        raw = arr.tobytes()
        payloads.append(raw)
        offset += len(raw)
    digest = hashlib.sha256()
    for raw in payloads:
        digest.update(raw)
    manifest = {
        "config": dataclasses.asdict(config),
        "tensors": directory,
        "extra": extra or {},
        "payload_sha256": digest.hexdigest(),
    }
    blob = json.dumps(manifest).encode()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for raw in payloads:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _config_from(fields: dict, path: str) -> ModelConfig:
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = set(fields) - names
    if unknown:
        raise DataError(f"{path}: config keys {sorted(unknown)} are not in this version")
    # a missing key would silently take its default, not the trained value
    missing = names - set(fields)
    if missing:
        raise DataError(f"{path}: config lacks keys {sorted(missing)}")
    try:
        return ModelConfig(**fields)
    except ValueError as exc:
        raise DataError(f"{path}: invalid config ({exc})") from exc


def load_checkpoint(path: str) -> tuple[ModelConfig, dict[str, np.ndarray], dict[str, Any]]:
    """(config, tensors, extra) of the file at ``path``.  Each tensor is its
    own writable array, sharing memory with no other; a malformed or damaged
    file is a DataError naming it."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise DataError(f"{path}: truncated checkpoint header")
        (blob_len,) = struct.unpack("<Q", header)
        if blob_len > os.fstat(fh.fileno()).st_size - 8:
            raise DataError(f"{path}: manifest length {blob_len} exceeds the file")
        blob = fh.read(blob_len)
        payload = fh.read()
    try:
        manifest = json.loads(blob.decode())
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise DataError(f"{path}: manifest is not valid JSON") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("tensors"), dict)
            and isinstance(manifest.get("extra", {}), dict)):
        raise DataError(f"{path}: manifest lacks its 'config', 'tensors' or 'extra' object")

    config = _config_from(manifest["config"], path)
    tensors = {}
    covered = 0
    for name, meta in manifest["tensors"].items():
        if not (isinstance(meta, dict) and meta.get("dtype") in tuple(_DTYPES)
                and isinstance(meta.get("shape"), list) and all(map(_is_count, meta["shape"]))
                and _is_count(meta.get("offset"))):
            raise DataError(f"{path}: malformed directory entry for tensor {name}")
        dtype = _DTYPES[meta["dtype"]]
        shape = tuple(meta["shape"])
        start, count = meta["offset"], math.prod(shape)
        end = start + count * dtype.itemsize
        if end > len(payload):
            raise DataError(f"{path}: payload too short for tensor {name}")
        tensors[name] = np.frombuffer(payload, dtype, count, start).reshape(shape).copy()
        covered = max(covered, end)
    if ("payload_sha256" in manifest and manifest["payload_sha256"]
            != hashlib.sha256(memoryview(payload)[:covered]).hexdigest()):
        raise DataError(f"{path}: payload does not match its SHA-256; the file is damaged")
    return config, tensors, manifest.get("extra", {})


def params_to_tensors(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.data for name, p in params.items()}


def tensors_to_params(tensors: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """The arrays as leaf tensors, without copying them: each parameter then
    updates its array in place.  ``load_checkpoint``'s arrays are the
    caller's own, one writable copy per tensor, so they can go in as they are."""
    return {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}


def model_params(config: ModelConfig, tensors: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """The ``param.`` tensors as model parameters, checked against the config:
    DataError unless names and shapes are exactly ``param_shapes(config)``."""
    params = tensors_to_params({name.removeprefix("param."): arr for name, arr in tensors.items()
                                if name.startswith("param.")})
    expected = param_shapes(config)
    got = {name: p.shape for name, p in params.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        unexpected = sorted(set(got) - set(expected))
        reshaped = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise DataError(f"checkpoint parameters do not fit the config: missing {missing[:4]}, "
                        f"unexpected {unexpected[:4]}, wrong shape {reshaped[:4]}")
    return params
