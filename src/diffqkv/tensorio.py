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

import math
import os
import struct
from typing import Mapping

import numpy as np

from .errors import DiffQKVError

MAGIC = b"DQKV"
VERSION = 1


class ContainerFormatError(DiffQKVError, ValueError):
    """The file is not a well-formed tensor container."""


def _finite(arr: np.ndarray) -> bool:
    # np.isfinite over 2**16-element blocks: one pass, and no bool copy of the whole array.
    flat = arr.reshape(-1)
    return all(np.isfinite(flat[i : i + 65536]).all() for i in range(0, flat.size, 65536))


def write_tensors(path, tensors: Mapping[str, np.ndarray], config_text: str = "") -> None:
    """Write a container that ``read_tensors`` accepts.

    A tensor holding a non-finite value raises ContainerFormatError naming it,
    before ``path`` is opened, so an existing file there stays as it was.
    """
    for name, tensor in tensors.items():
        if not _finite(np.asarray(tensor)):
            raise ContainerFormatError(f"tensor {name!r} holds non-finite values; not written")
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
            fh.write(arr.data)  # the array's own buffer: no copy


def read_tensors(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a container; every malformed file raises ContainerFormatError.

    Each tensor is read straight into its own float64 array.  Every declared
    length is checked against the bytes left in the file before it is read or
    allocated, and every value must be finite.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def need(n: int) -> None:
            if n > size - fh.tell():
                raise ContainerFormatError(
                    f"truncated: {n} bytes needed at byte {fh.tell()} of {size}"
                )

        def unpack(fmt: str) -> tuple:
            need(struct.calcsize(fmt))
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        def text(length_fmt: str) -> str:
            (n,) = unpack(length_fmt)
            need(n)
            try:
                return fh.read(n).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContainerFormatError(f"text field is not UTF-8: {exc}") from None

        magic = fh.read(4)
        if magic != MAGIC:
            raise ContainerFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = unpack("<I")
        if version != VERSION:
            raise ContainerFormatError(f"unsupported container version {version}")
        config_text = text("<I")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(*unpack("<I")):
            name = text("<H")
            if name in tensors:
                raise ContainerFormatError(f"tensor {name!r} appears twice")
            dims = unpack(f"<{unpack('<B')[0]}Q")
            need(8 * math.prod(dims))
            tensors[name] = arr = np.empty(dims, dtype="<f8")
            fh.readinto(arr)
            if not _finite(arr):
                raise ContainerFormatError(f"tensor {name!r} holds non-finite values")
        if fh.tell() != size:
            raise ContainerFormatError(f"{size - fh.tell()} trailing bytes")
    return config_text, tensors
