import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from diffqkv import tensorio
from diffqkv.tensorio import BLOCK, ContainerFormatError, MAGIC, read_tensors, write_tensors


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "w_q": rng.normal(size=(8, 8)),
        "norm": rng.normal(size=(8,)),
        "blocks.0.attn.w_k": rng.normal(size=(2, 3, 4)),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3)),
        "strided": rng.normal(size=(4, 6))[:, ::2],
    }
    path = tmp_path / "weights.bin"
    write_tensors(path, tensors, config_text="attention.n_q_heads = 8\n")
    echo, loaded = read_tensors(path)
    assert echo == "attention.n_q_heads = 8\n"
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert_array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.float64


def test_deterministic_bytes(tmp_path):
    tensors = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    write_tensors(p1, tensors, "echo")
    write_tensors(p2, tensors, "echo")
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_container(tmp_path):
    path = tmp_path / "empty.bin"
    write_tensors(path, {}, "")
    echo, loaded = read_tensors(path)
    assert echo == "" and loaded == {}


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContainerFormatError, match="magic"):
        read_tensors(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.bin"
    write_tensors(path, {"a": np.zeros(2)}, "")
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ContainerFormatError, match="trailing"):
        read_tensors(path)


def test_header_layout(tmp_path):
    path = tmp_path / "layout.bin"
    write_tensors(path, {}, "cfg")
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert int.from_bytes(blob[4:8], "little") == 1  # version
    assert int.from_bytes(blob[8:12], "little") == 3  # echo length
    assert blob[12:15] == b"cfg"


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.bin"
    write_tensors(path, {"a": np.arange(6.0)}, "echo")
    blob = path.read_bytes()
    for cut in (6, 10, 14, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(ContainerFormatError, match="truncated"):
            read_tensors(path)


def test_oversized_declared_shape_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.bin"
    write_tensors(path, {"a": np.zeros(2)}, "")
    blob = bytearray(path.read_bytes())
    dims_at = len(blob) - 16 - 8  # the one u64 dim sits just before the data
    blob[dims_at : dims_at + 8] = (2**60).to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerFormatError, match="truncated"):
        read_tensors(path)


def test_non_finite_and_repeated_tensors_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    write_tensors(path, {"a": np.array([1.0, 2.0])}, "")
    path.write_bytes(path.read_bytes()[:-8] + np.array(np.inf, dtype="<f8").tobytes())
    with pytest.raises(ContainerFormatError, match="non-finite"):
        read_tensors(path)
    write_tensors(path, {"a": np.zeros(1)}, "")
    blob = path.read_bytes()
    header, entry = blob[:16], blob[16:]  # magic, version, empty echo, count
    path.write_bytes(header[:12] + (2).to_bytes(4, "little") + entry + entry)
    with pytest.raises(ContainerFormatError, match="twice"):
        read_tensors(path)


def test_non_utf8_echo_rejected(tmp_path):
    path = tmp_path / "echo.bin"
    write_tensors(path, {}, "ab")
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerFormatError, match="UTF-8"):
        read_tensors(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_refuses_non_finite_and_keeps_existing_file(tmp_path, bad):
    path = tmp_path / "weights.bin"
    write_tensors(path, {"a": np.arange(3.0)}, "echo")
    before = path.read_bytes()
    with pytest.raises(ContainerFormatError, match="'b'"):
        write_tensors(path, {"a": np.zeros(2), "b": np.array([[0.0, bad]])}, "echo")
    assert path.read_bytes() == before
    with pytest.raises(ContainerFormatError, match="non-finite"):
        write_tensors(tmp_path / "new.bin", {"b": np.array([bad])})
    assert not (tmp_path / "new.bin").exists()


@pytest.mark.parametrize(
    "tensors,echo,match",
    [
        ({"n" * 65_536: np.zeros(1)}, "echo", "65536 UTF-8 bytes"),
        ({"\udc80": np.zeros(1)}, "echo", "tensor name cannot be written as UTF-8"),
        ({"b": np.zeros(1)}, "\udc80", "config text cannot be written as UTF-8"),
        ({3: np.zeros(1)}, "echo", "must be a str"),
        ({"b": np.array([object()])}, "echo", "dtype object"),
        ({"b": np.array([1.0, 2 + 1j])}, "echo", "dtype complex128"),
        ({"b": np.array(["1.0"])}, "echo", "dtype <U3"),
    ],
    ids=["long-name", "unencodable-name", "unencodable-echo", "non-str-name", "object", "complex", "str"],
)
def test_write_refuses_bad_names_echo_and_dtypes_and_keeps_existing_file(tmp_path, tensors, echo, match):
    path = tmp_path / "weights.bin"
    write_tensors(path, {"a": np.arange(3.0)}, "echo")
    before = path.read_bytes()
    with pytest.raises(ContainerFormatError, match=match):
        write_tensors(path, {"a": np.zeros(2), **tensors}, echo)
    assert path.read_bytes() == before


def test_longest_name_and_real_dtypes_round_trip(tmp_path):
    tensors = {"n" * 65_535: np.array([True, False]), "i": np.arange(3), "u": np.arange(2, dtype=np.uint8)}
    write_tensors(tmp_path / "w.bin", tensors)
    _, loaded = read_tensors(tmp_path / "w.bin")
    assert list(loaded) == list(tensors)
    for name, tensor in tensors.items():
        assert loaded[name].dtype == np.float64
        assert_array_equal(loaded[name], tensor)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_each_non_finite_value(tmp_path, bad):
    path = tmp_path / "bad.bin"
    write_tensors(path, {"a": np.array([1.0, 2.0, 3.0])}, "")
    blob = path.read_bytes()
    path.write_bytes(blob[:-16] + np.array(bad, dtype="<f8").tobytes() + blob[-8:])
    with pytest.raises(ContainerFormatError, match="non-finite"):
        read_tensors(path)


# A tensor of two full read blocks and a partial third, after a small one.
_MULTI = 2 * BLOCK + 100


def _write_multi_block(path) -> bytes:
    write_tensors(path, {"small": np.ones(3), "multi": np.arange(float(_MULTI))}, "")
    return path.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("index", [BLOCK + 7, 2 * BLOCK + 50], ids=["middle", "last-partial"])
def test_read_rejects_non_finite_in_any_block_naming_the_tensor(tmp_path, bad, index):
    path = tmp_path / "multi.bin"
    blob = bytearray(_write_multi_block(path))
    at = len(blob) - 8 * _MULTI + 8 * index  # "multi" is the last tensor in the file
    blob[at : at + 8] = np.array(bad, dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerFormatError, match="'multi' holds non-finite"):
        read_tensors(path)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, _MULTI])
def test_block_edge_sizes_round_trip_bit_for_bit(tmp_path, n):
    tensors = {"head": np.ones(5), "t": np.random.default_rng(n).normal(size=n), "tail": np.ones(2)}
    tensors["t"][-1] = -0.0
    path = tmp_path / "edge.bin"
    write_tensors(path, tensors, "")
    _, loaded = read_tensors(path)
    for name, tensor in tensors.items():
        assert loaded[name].tobytes() == tensor.tobytes()


def test_truncated_inside_a_multi_block_tensor(tmp_path):
    path = tmp_path / "multi.bin"
    blob = _write_multi_block(path)
    for cut in (len(blob) - 8 * _MULTI + 8 * BLOCK + 8, len(blob) - 8):
        path.write_bytes(blob[:cut])
        with pytest.raises(ContainerFormatError, match="truncated"):
            read_tensors(path)


def test_file_shrinking_during_the_read_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "multi.bin"
    blob = _write_multi_block(path)
    path.write_bytes(blob[: len(blob) - 8 * BLOCK])
    real_fstat = os.fstat

    def fstat_of_the_whole_file(fd):
        # The size taken at open is the whole file's; its last block is gone when it is read.
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 8 * BLOCK, *st[7:10]))

    monkeypatch.setattr(tensorio.os, "fstat", fstat_of_the_whole_file)
    with pytest.raises(ContainerFormatError, match="truncated: file shrank while tensor 'multi'"):
        read_tensors(path)


def test_file_replaced_after_its_headers_are_read_is_refused(tmp_path, monkeypatch):
    path, other = tmp_path / "multi.bin", tmp_path / "other.bin"
    _write_multi_block(path)
    _write_multi_block(other)

    def open_then_replace(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if other.exists():  # the header pass's open; the readers open the new file
            os.replace(other, path)
        return fh

    monkeypatch.setattr(tensorio, "open", open_then_replace, raising=False)
    with pytest.raises(ContainerFormatError, match="replaced"):
        read_tensors(path)


@pytest.mark.parametrize("first", ["a", "b"])
def test_first_non_finite_tensor_in_the_file_is_named(tmp_path, first):
    # Each reader stops at the first bad tensor in its share; the earliest of them is named.
    path = tmp_path / "two.bin"
    write_tensors(path, {"a": np.ones(_MULTI), "b": np.ones(_MULTI)}, "")
    blob = bytearray(path.read_bytes())
    b_data = len(blob) - 8 * _MULTI
    a_data = b_data - (2 + 1 + 1 + 8) - 8 * _MULTI  # b's name, rank and dim sit between
    nan = np.array(np.nan, dtype="<f8").tobytes()
    blob[b_data : b_data + 8] = nan  # the first block of b: one reader's share
    if first == "a":
        at = a_data + 8 * (_MULTI - 1)  # the last block of a: the other reader's share
        blob[at : at + 8] = nan
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerFormatError, match=f"tensor '{first}' holds non-finite"):
        read_tensors(path)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_and_load_make_no_tensor_sized_copy(tmp_path):
    big = np.random.default_rng(1).normal(size=(512, 512))  # 2 MiB
    tensors = {"big": big, "small": np.ones(3)}
    path = tmp_path / "big.bin"
    # Writing streams each array's own buffer: a bytes copy would be big.nbytes.
    assert _traced_peak(lambda: write_tensors(path, tensors, "echo")) < big.nbytes // 16
    # Reading allocates the arrays it returns; a finiteness check through a bool
    # mask would add big.nbytes / 8 on top.
    assert _traced_peak(lambda: read_tensors(path)) < big.nbytes + big.nbytes // 16
