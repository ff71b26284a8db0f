"""Binary checkpoint and MCTX latent file formats, and the record layer they share.

Checkpoint layout: magic "MCCK", version, sha256 config digest, training step counter,
then a named parameter table of array records (shape, dtype tag, row-major
values), then an optional optimizer-state table in the same layout, which
ends the file. An MCTX latent file is magic "MCTX", version, then one 4-d
array record. Writes are atomic (temp file + rename), reads refuse a
truncated file or bytes after its end, and loads round-trip every array bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import warnings

import numpy as np

MCCK_MAGIC = b"MCCK"
# 2: the DiT reads context tokens as read-only memory; a version-1 checkpoint was
# trained with context tokens as joint rows, so it is refused rather than loaded
MCCK_VERSION = 2
MCTX_MAGIC = b"MCTX"
MCTX_VERSION = 1
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))  # an array record's dtype tag indexes this

__all__ = ["config_digest", "save_checkpoint", "load_checkpoint", "CheckpointMismatch",
           "save_latents", "load_latents", "LatentFileError", "RecordFile", "array_record", "write_records"]


class CheckpointMismatch(Exception):
    pass


# (block, key) pairs that do not change what is trained: raising the step
# budget on resume, or writing elsewhere, is not a config change
_UNDIGESTED = (("training", "steps"), ("output", "dir"))


def config_digest(config: dict) -> bytes:
    kept = dict(config)
    for block, key in _UNDIGESTED:
        if isinstance(kept.get(block), dict):
            kept[block] = {k: v for k, v in kept[block].items() if k != key}
    blob = json.dumps(kept, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()


def write_records(path: str, magic: bytes, version: int, chunks: list) -> None:
    """Write a record file atomically (a temporary file, then a rename): magic, version, ``chunks``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.writelines([magic, struct.pack("<I", version), *chunks])
    os.replace(tmp, path)


def array_record(arr: np.ndarray, what: str, name: str) -> list:
    """The chunks of one array record; only float32 and float64 arrays have a tag."""
    if arr.dtype not in _DTYPES:
        raise ValueError(f"unsupported {what} dtype {arr.dtype} for {name}")
    return [struct.pack(f"<{arr.ndim}I", *arr.shape), struct.pack("<I", _DTYPES.index(arr.dtype)), arr.tobytes()]


class RecordFile:
    """A record file read front to back once its magic and version match. A field past the end
    of the file is refused before it is read, so a corrupt size field cannot ask for more
    memory than the file holds; each refusal raises ``error`` naming the format ``what``."""

    def __init__(self, path: str, magic: bytes, version: int, what: str, error: type):
        with open(path, "rb") as f:
            self.view = memoryview(f.read())
        self.path, self.what, self.error, self.at = path, what, error, 0
        found = bytes(self.take(len(magic)))
        if found != magic:
            raise error(f"bad {what} magic {found!r} in {path}")
        (found_version,) = self.unpack("<I")
        if found_version != version:
            raise error(f"unsupported {what} version {found_version}")

    def take(self, n: int) -> memoryview:
        if n > len(self.view) - self.at:
            raise self.error(f"{self.what} {self.path} is truncated at byte {self.at}")
        self.at += n
        return self.view[self.at - n : self.at]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, name: str, ndim: int) -> np.ndarray:
        shape = self.unpack(f"<{ndim}I")
        (tag,) = self.unpack("<I")
        if tag >= len(_DTYPES):
            raise self.error(f"unknown dtype tag {tag} for {name} in {self.path}")
        data = np.frombuffer(self.take(math.prod(shape) * _DTYPES[tag].itemsize), dtype=_DTYPES[tag])
        try:  # a zero-size shape passes the size check; numpy still refuses >64 dims or a size overflow
            return data.reshape(shape).copy()
        except ValueError as e:
            raise self.error(f"bad shape for {name} in {self.path}: {e}") from None

    def end(self) -> None:
        extra = len(self.view) - self.at
        if extra:
            raise self.error(f"{self.what} {self.path} has {extra} bytes after its end")


class LatentFileError(ValueError):
    """An MCTX file that is not a complete, well-formed latent array."""


def save_latents(path: str, array: np.ndarray) -> None:
    """Write a 4-d float32 or float64 array as an MCTX file."""
    if array.ndim != 4:
        raise ValueError(f"MCTX stores 4-d latents, got shape {array.shape}")
    write_records(path, MCTX_MAGIC, MCTX_VERSION, array_record(array, "latent file", "latents"))


def load_latents(path: str) -> np.ndarray:
    """Read an MCTX file; raises ``LatentFileError`` unless it is complete and well formed."""
    f = RecordFile(path, MCTX_MAGIC, MCTX_VERSION, "latent file", LatentFileError)
    latents = f.array("latents", 4)
    f.end()
    return latents


def _table(arrays: dict) -> list:
    chunks = [struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])  # a 0-d array is stored with shape (1,)
        nb = name.encode()
        chunks += [struct.pack("<H", len(nb)), nb, struct.pack("<I", arr.ndim), *array_record(arr, "checkpoint", name)]
    return chunks


def _read_table(f: RecordFile) -> dict:
    (count,) = f.unpack("<I")
    out = {}
    for _ in range(count):
        (nlen,) = f.unpack("<H")
        try:
            name = bytes(f.take(nlen)).decode()
        except UnicodeDecodeError:
            raise CheckpointMismatch(f"a parameter name in {f.path} is not UTF-8") from None
        (ndim,) = f.unpack("<I")
        out[name] = f.array(name, ndim)
    return out


def save_checkpoint(
    path: str,
    params: dict,
    config: dict,
    step: int,
    optimizer_arrays: dict | None = None,
) -> None:
    """Atomically persist named parameters (Tensor or ndarray values)."""
    arrays = {k: (v.data if hasattr(v, "data") and not isinstance(v, np.ndarray) else np.asarray(v)) for k, v in params.items()}
    chunks = [config_digest(config), struct.pack("<Q", step), *_table(arrays)]
    chunks += [struct.pack("<B", 1), *_table(optimizer_arrays)] if optimizer_arrays else [struct.pack("<B", 0)]
    write_records(path, MCCK_MAGIC, MCCK_VERSION, chunks)


def load_checkpoint(path: str, config: dict | None = None):
    """Read a checkpoint; returns (params, step, optimizer_arrays).

    With ``config``, warns when the checkpoint was written under another one.
    """
    f = RecordFile(path, MCCK_MAGIC, MCCK_VERSION, "checkpoint", CheckpointMismatch)
    digest = bytes(f.take(32))
    (step,) = f.unpack("<Q")
    params = _read_table(f)
    (has_opt,) = f.unpack("<B")
    opt = _read_table(f) if has_opt else None
    f.end()
    if config is not None and digest != config_digest(config):
        warnings.warn(f"checkpoint {path} was written under a different config", stacklevel=2)
    return params, step, opt


def restore_into(named_params: dict, arrays: dict) -> None:
    """Copy loaded arrays into live parameters; names must match exactly, and shapes."""
    missing = set(named_params) - set(arrays)
    if missing:
        raise CheckpointMismatch(f"checkpoint missing parameters: {sorted(missing)[:5]}")
    unknown = set(arrays) - set(named_params)
    if unknown:
        raise CheckpointMismatch(f"checkpoint has parameters the model lacks: {sorted(unknown)[:5]}")
    for name, p in named_params.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise CheckpointMismatch(
                f"shape mismatch for {name}: checkpoint {arr.shape}, model {p.data.shape}"
            )
        p.data = arr.astype(p.data.dtype, copy=True)
