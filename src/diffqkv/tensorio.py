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

Reading copies each tensor into its own array one block of ``BLOCK`` values
at a time and checks each block for finite values while it is still in cache,
so a non-finite weight is refused without a second pass over the array.
The calling thread and ``READERS - 1`` helper threads share the blocks of
every tensor.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from typing import Mapping

import numpy as np

from .errors import DiffQKVError

MAGIC = b"DQKV"
VERSION = 1
BLOCK = 1 << 16  # float64 values per finiteness check: 512 KiB, small enough to stay in L2
# Threads that read a file's blocks.  Most of a load is the kernel zeroing the
# arrays' fresh pages and copying into them, on the thread that reads, so two
# readers run it on two cores.
READERS = 2


class ContainerFormatError(DiffQKVError, ValueError):
    """The file is not a well-formed tensor container."""


def _finite_block(block: np.ndarray) -> bool:
    # min and max propagate NaN, and an infinity is one of them: no bool array is made.
    return math.isfinite(block.min()) and math.isfinite(block.max())


def _finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` is of a real dtype (bool, integer or floating point) and holds no NaN or infinity."""
    flat = arr.reshape(-1)
    real = arr.dtype.kind in "biuf"
    return real and all(_finite_block(flat[i : i + BLOCK]) for i in range(0, flat.size, BLOCK))


def _utf8(what: str, text, length_fmt: str) -> bytes:
    """``text`` as UTF-8, refused unless it is a str whose length fits ``length_fmt``."""
    if not isinstance(text, str):
        raise ContainerFormatError(f"{what} must be a str, got {type(text).__name__}; not written")
    try:
        encoded = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ContainerFormatError(f"{what} cannot be written as UTF-8 ({exc}); not written") from None
    most = 256 ** struct.calcsize(length_fmt) - 1
    if len(encoded) > most:
        raise ContainerFormatError(f"{what} takes {len(encoded)} UTF-8 bytes, over {most}; not written")
    return encoded


def write_tensors(path, tensors: Mapping[str, np.ndarray], config_text: str = "") -> None:
    """Write a container that ``read_tensors`` accepts.

    Everything is checked before ``path`` is opened, so a refusal leaves an
    existing file there as it was.  ContainerFormatError is raised for a
    tensor that is not of a real dtype (bool, integer or floating point) or
    holds a non-finite value, for a name that is not a str or takes more
    than 65,535 UTF-8 bytes, and for a name or config text UTF-8 cannot encode.
    """
    echo = _utf8("config text", config_text, "<I")
    entries = []
    for name, tensor in tensors.items():
        encoded = _utf8("tensor name", name, "<H")
        arr = np.asarray(tensor)
        if arr.dtype.kind not in "biuf":
            raise ContainerFormatError(f"tensor {name!r} has dtype {arr.dtype}, not a real one; not written")
        if not _finite(arr):
            raise ContainerFormatError(f"tensor {name!r} holds non-finite values; not written")
        entries.append((encoded, arr))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(echo)))
        fh.write(echo)
        fh.write(struct.pack("<I", len(entries)))
        for encoded, arr in entries:
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            arr = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.data)  # the array's own buffer: no copy


def read_tensors(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read a container; every malformed file raises ContainerFormatError.

    The headers are checked first: every declared length against the bytes
    left in the file before it is allocated, so a truncated file is refused
    before any of its data is read.  Then each tensor is read straight into
    its own float64 array, ``BLOCK`` values at a time, and each block is
    checked for finite values as soon as it is read; the first tensor in the
    file holding a non-finite value is named.
    """
    with open(path, "rb") as fh:
        opened = os.fstat(fh.fileno())
        size = opened.st_size

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
        reads: list[tuple[str, np.ndarray, int]] = []  # name, flat view, data offset
        for _ in range(*unpack("<I")):
            name = text("<H")
            if name in tensors:
                raise ContainerFormatError(f"tensor {name!r} appears twice")
            dims = unpack(f"<{unpack('<B')[0]}Q")
            need(8 * math.prod(dims))
            tensors[name] = arr = np.empty(dims, dtype="<f8")
            reads.append((name, arr.reshape(-1), fh.tell()))
            fh.seek(arr.nbytes, os.SEEK_CUR)
        if fh.tell() != size:
            raise ContainerFormatError(f"{size - fh.tell()} trailing bytes")
    outcomes: list = [None] * READERS
    helpers = [
        threading.Thread(target=_fill, args=(path, opened, reads, k, outcomes))
        for k in range(1, READERS)
    ]
    for helper in helpers:
        helper.start()
    try:
        _fill(path, opened, reads, 0, outcomes)
    finally:
        for helper in helpers:
            helper.join()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    found = [j for j in outcomes if j is not None]
    if found:
        raise ContainerFormatError(f"tensor {reads[min(found)][0]!r} holds non-finite values")
    return config_text, tensors


def _fill(path, opened: os.stat_result, reads: list, k: int, outcomes: list) -> None:
    """Reader k: the k-th of ``READERS`` runs of each tensor's blocks, in file order.

    Stores in ``outcomes[k]`` the index in ``reads`` of the first tensor found
    holding a non-finite value, or the exception the read raised; None if neither.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            if not os.path.samestat(os.fstat(fh.fileno()), opened):
                raise ContainerFormatError("the file was replaced while it was read")
            for j, (name, flat, offset) in enumerate(reads):
                blocks = -(-flat.size // BLOCK)
                start = blocks * k // READERS * BLOCK
                stop = min(blocks * (k + 1) // READERS * BLOCK, flat.size)
                fh.seek(offset + 8 * start)
                for i in range(start, stop, BLOCK):
                    block = flat[i : i + BLOCK]
                    if fh.readinto(block) != block.nbytes:
                        raise ContainerFormatError(
                            f"truncated: file shrank while tensor {name!r} was read"
                        )
                    if not _finite_block(block):
                        outcomes[k] = j
                        return
    except Exception as exc:  # raised again by read_tensors, in its caller's thread
        outcomes[k] = exc
