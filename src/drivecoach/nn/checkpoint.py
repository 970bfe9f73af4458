"""Binary checkpoint format for named float64 arrays plus a JSON meta blob.

Layout (little-endian throughout):

    magic  b"DCKP"
    u32    format version
    u32    meta length, then that many bytes of UTF-8 JSON (sorted keys)
    u32    array count
    per array:
        u16  name length, then the UTF-8 name
        u8   ndim
        u32  each dimension
        f64  C-order payload
    u32    CRC32 of everything before it

Writes are deterministic: save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

MAGIC = b"DCKP"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts.append(struct.pack("<I", len(meta_bytes)))
    parts.append(meta_bytes)
    parts.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr, dtype=np.float64)
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise CheckpointError(f"array name too long: {name[:32]!r}...")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<B", a.ndim))
        for d in a.shape:
            parts.append(struct.pack("<I", d))
        parts.append(a.astype("<f8").tobytes(order="C"))
    body = b"".join(parts)
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with open(path, "wb") as f:
        f.write(blob)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointError(f"checkpoint truncated: {len(blob)} bytes")
    # a view, not a slice: a copy of the body would double the file's footprint
    body, crc_bytes = memoryview(blob)[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError("checkpoint CRC mismatch")

    view = memoryview(body)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError("checkpoint truncated mid-record")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        n_items = 1
        for d in shape:
            n_items *= d
        data = np.frombuffer(take(8 * n_items), dtype="<f8").reshape(shape).astype(np.float64)
        arrays[name] = data
    if pos != len(view):
        raise CheckpointError(f"{len(view) - pos} trailing bytes after last array")
    return arrays, meta
