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

Both directions stream, so neither holds a second copy of the arrays. A save
writes each record straight to `<path>.tmp`, updating the CRC as it goes; a
contiguous little-endian float64 array goes to the file without a copy, any
other is converted one array at a time. The finished file then replaces
`path` in one `os.replace`, so a save that fails part-way leaves the previous
file at `path` as it was and removes its temporary file. A load first checks
the CRC in one pass over the file in fixed-size chunks, before it parses or
returns anything, then reads each payload straight into a fresh array. Every
declared size is checked against the bytes left before anything is allocated.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"DCKP"
VERSION = 1
_CHUNK = 1 << 16  # bytes per read of the CRC pass


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    tmp = f"{path}.tmp"
    crc = 0
    try:
        with open(tmp, "wb") as f:

            def put(chunk) -> None:
                nonlocal crc
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)

            meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
            put(MAGIC + struct.pack("<II", VERSION, len(meta_bytes)))
            put(meta_bytes)
            put(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                a = np.ascontiguousarray(arr, dtype="<f8")  # no copy when it already is
                name_bytes = name.encode("utf-8")
                if len(name_bytes) > 0xFFFF:
                    raise CheckpointError(f"array name too long: {name[:32]!r}...")
                put(struct.pack(f"<H{len(name_bytes)}sB{a.ndim}I", len(name_bytes), name_bytes,
                                a.ndim, *a.shape))
                put(a.reshape(-1).view(np.uint8))
            f.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < len(MAGIC) + 12:
            raise CheckpointError(f"checkpoint truncated: {size} bytes")
        end = size - 4  # the body: everything before the CRC
        _check_crc(f, end)
        f.seek(0)
        pos = 0

        def claim(n: int) -> int:
            nonlocal pos
            if pos + n > end:
                raise CheckpointError("checkpoint truncated mid-record")
            pos += n
            return n

        def take(n: int) -> bytes:
            return f.read(claim(n))

        if take(4) != MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", take(4))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", take(4))
        try:
            meta = json.loads(take(meta_len).decode("utf-8"))
        except ValueError as err:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            raise CheckpointError(f"checkpoint meta is not UTF-8 JSON: {err}") from err
        if not isinstance(meta, dict):
            raise CheckpointError(f"checkpoint meta is not a mapping: {type(meta).__name__}")
        (count,) = struct.unpack("<I", take(4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            n_bytes = claim(8 * math.prod(shape))  # before the array is allocated
            data = np.empty(shape, dtype="<f8")
            if f.readinto(data.reshape(-1).view(np.uint8)) != n_bytes:
                raise CheckpointError("checkpoint truncated mid-record")
            arrays[name] = data.astype(np.float64, copy=False)  # a copy only on big-endian hosts
        if pos != end:
            raise CheckpointError(f"{end - pos} trailing bytes after last array")
    return arrays, meta


def _check_crc(f, end: int) -> None:
    """Check the CRC of the first `end` bytes against the u32 after them."""
    buf = memoryview(bytearray(_CHUNK))
    crc = 0
    left = end
    while left:
        n = f.readinto(buf[: min(left, _CHUNK)])
        if not n:
            raise CheckpointError("checkpoint truncated mid-record")
        crc = zlib.crc32(buf[:n], crc)
        left -= n
    (stored,) = struct.unpack("<I", f.read(4))
    if crc & 0xFFFFFFFF != stored:
        raise CheckpointError("checkpoint CRC mismatch")
