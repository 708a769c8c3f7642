"""Flat binary container for named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"DQKV"
    version u32      currently 1
    echo    u32 length + UTF-8 bytes   (config text carried with the weights)
    count   u32
    per tensor:
        name  u16 length + UTF-8 bytes
        rank  u8
        dims  rank * u64
        data  float64 little-endian, row-major

Used both for standalone attention weights and toy-model checkpoints.
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np

from .errors import DiffQKVError

MAGIC = b"DQKV"
VERSION = 1


class ContainerFormatError(DiffQKVError, ValueError):
    """The file is not a well-formed tensor container."""


def write_tensors(path, tensors: Mapping[str, np.ndarray], config_text: str = "") -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        echo = config_text.encode("utf-8")
        fh.write(struct.pack("<I", len(echo)))
        fh.write(echo)
        fh.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            arr = np.ascontiguousarray(tensor, dtype="<f8")
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def read_tensors(path) -> tuple[str, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ContainerFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    offset = 4
    (version,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if version != VERSION:
        raise ContainerFormatError(f"unsupported container version {version}")
    (echo_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    config_text = blob[offset : offset + echo_len].decode("utf-8")
    offset += echo_len
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        dims = struct.unpack_from(f"<{rank}Q", blob, offset)
        offset += 8 * rank
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        offset += 8 * size
        tensors[name] = data.reshape(dims).astype(np.float64)
    if offset != len(blob):
        raise ContainerFormatError(f"{len(blob) - offset} trailing bytes")
    return config_text, tensors
