"""Binary checkpoint format.

Layout: magic "MCCK", version, sha256 config digest, training step
counter, then a named parameter table of row-major arrays, then an
optional optimizer-state table in the same layout, which ends the file.
Writes are atomic (temp file + rename) and loads round-trip every array
bitwise.
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
_DTYPES = {0: np.float32, 1: np.float64}
_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

__all__ = ["config_digest", "save_checkpoint", "load_checkpoint", "CheckpointMismatch"]


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


def _write_table(f, arrays: dict):
    f.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype not in _TAGS:
            raise ValueError(f"unsupported checkpoint dtype {arr.dtype} for {name}")
        nb = name.encode()
        f.write(struct.pack("<H", len(nb)))
        f.write(nb)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        f.write(struct.pack("<I", _TAGS[arr.dtype]))
        f.write(arr.tobytes(order="C"))


def _read(f, n: int) -> bytes:
    """``n`` bytes of ``f``; a count past the end of the file is refused before any read,
    so a corrupt size field cannot ask for more memory than the file holds."""
    buf = f.read(n) if n <= os.fstat(f.fileno()).st_size - f.tell() else b""
    if len(buf) != n:
        raise CheckpointMismatch(f"checkpoint {f.name} is truncated at byte {f.tell()}")
    return buf


def _unpack(f, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(f, struct.calcsize(fmt)))


def _read_table(f) -> dict:
    (count,) = _unpack(f, "<I")
    out = {}
    for _ in range(count):
        (nlen,) = _unpack(f, "<H")
        raw = _read(f, nlen)
        try:
            name = raw.decode()
        except UnicodeDecodeError:
            raise CheckpointMismatch(f"a parameter name in {f.name} is not UTF-8") from None
        (ndim,) = _unpack(f, "<I")
        shape = _unpack(f, f"<{ndim}I")
        (tag,) = _unpack(f, "<I")
        if tag not in _DTYPES:
            raise CheckpointMismatch(f"unknown dtype tag {tag} for {name} in {f.name}")
        dtype = np.dtype(_DTYPES[tag])
        data = np.frombuffer(_read(f, math.prod(shape) * dtype.itemsize), dtype=dtype)
        try:  # a zero-size shape passes the size check; numpy still refuses >64 dims or a size overflow
            out[name] = data.reshape(shape).copy()
        except ValueError as e:
            raise CheckpointMismatch(f"bad shape for {name} in {f.name}: {e}") from None
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
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MCCK_MAGIC)
        f.write(struct.pack("<I", MCCK_VERSION))
        f.write(config_digest(config))
        f.write(struct.pack("<Q", step))
        _write_table(f, arrays)
        f.write(struct.pack("<B", 1 if optimizer_arrays else 0))
        if optimizer_arrays:
            _write_table(f, optimizer_arrays)
    os.replace(tmp, path)


def load_checkpoint(path: str, config: dict | None = None):
    """Read a checkpoint; returns (params, step, optimizer_arrays).

    With ``config``, warns when the checkpoint was written under another one.
    """
    with open(path, "rb") as f:
        magic = _read(f, 4)
        if magic != MCCK_MAGIC:
            raise CheckpointMismatch(f"bad checkpoint magic {magic!r} in {path}")
        (version,) = _unpack(f, "<I")
        if version != MCCK_VERSION:
            raise CheckpointMismatch(f"unsupported checkpoint version {version}")
        digest = _read(f, 32)
        (step,) = _unpack(f, "<Q")
        params = _read_table(f)
        (has_opt,) = _unpack(f, "<B")
        opt = _read_table(f) if has_opt else None
        extra = os.fstat(f.fileno()).st_size - f.tell()
        if extra:
            raise CheckpointMismatch(f"checkpoint {path} has {extra} bytes after its end")
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
