"""EMB1 container tests: layout, round trips, and structural validation."""

import os
import struct

import numpy as np
import pytest

from bitextkit import read_embeddings, write_embeddings
from bitextkit.errors import BadMagicError, DimZeroError, FormatError, TruncatedFileError


def test_empty_matrix_is_a_16_byte_file(tmp_path):
    path = tmp_path / "empty.emb"
    write_embeddings(path, np.empty((0, 4), dtype=np.float32))
    assert path.stat().st_size == 16
    back = read_embeddings(path)
    assert back.shape == (0, 4)
    assert back.dtype == np.float32


def test_single_row_layout(tmp_path):
    path = tmp_path / "one.emb"
    write_embeddings(path, [[0.5, -1.0]])
    raw = path.read_bytes()
    assert len(raw) == 16 + 8
    magic, dim, count = struct.unpack("<4sIQ", raw[:16])
    assert magic == b"EMB1"
    assert (dim, count) == (2, 1)
    assert struct.unpack("<2f", raw[16:]) == (0.5, -1.0)
    assert np.array_equal(read_embeddings(path), [[0.5, -1.0]])


def test_round_trip_random_matrices(tmp_path):
    rng = np.random.default_rng(19)
    for case in range(25):
        rows = int(rng.integers(0, 40))
        dim = int(rng.integers(1, 9))
        mat = rng.normal(size=(rows, dim)).astype(np.float32)
        path = tmp_path / f"m{case}.emb"
        write_embeddings(path, mat)
        assert np.array_equal(read_embeddings(path), mat)


def test_write_read_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(23)
    mat = rng.normal(size=(7, 3))
    a = tmp_path / "a.emb"
    b = tmp_path / "b.emb"
    write_embeddings(a, mat)
    write_embeddings(b, read_embeddings(a))
    assert a.read_bytes() == b.read_bytes()


def test_float64_input_is_quantized_to_float32(tmp_path):
    mat = np.array([[1.0 / 3.0, 2.0 / 3.0]])
    path = tmp_path / "q.emb"
    write_embeddings(path, mat)
    assert np.array_equal(read_embeddings(path), mat.astype(np.float32))


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(BadMagicError):
        read_embeddings(path)


def test_short_file_with_wrong_magic_prefix_rejected(tmp_path):
    path = tmp_path / "shortbad.emb"
    path.write_bytes(b"XY")
    with pytest.raises(BadMagicError):
        read_embeddings(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "hdr.emb"
    path.write_bytes(b"EMB1\x02\x00")
    with pytest.raises(TruncatedFileError):
        read_embeddings(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "pay.emb"
    path.write_bytes(struct.pack("<4sIQ", b"EMB1", 2, 3) + b"\x00" * 8)
    with pytest.raises(TruncatedFileError):
        read_embeddings(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.emb"
    good = struct.pack("<4sIQ", b"EMB1", 2, 1) + struct.pack("<2f", 1.0, 2.0)
    path.write_bytes(good + b"x")
    with pytest.raises(TruncatedFileError):
        read_embeddings(path)


def test_declared_size_is_checked_before_reading(tmp_path):
    path = tmp_path / "huge.emb"
    for dim, count in ((4, 2**60), (2**32 - 1, 2**64 - 1), (3, 2)):
        path.write_bytes(struct.pack("<4sIQ", b"EMB1", dim, count) + b"\x00" * 20)
        with pytest.raises(TruncatedFileError, match="header declares"):
            read_embeddings(path)


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "bad.emb"
    for bad in (float("nan"), float("inf"), float("-inf")):
        path.write_bytes(struct.pack("<4sIQ4f", b"EMB1", 2, 2, 1.0, 0.0, bad, 2.0))
        with pytest.raises(FormatError, match="non-finite"):
            read_embeddings(path)


def test_dim_zero_rejected_both_ways(tmp_path):
    path = tmp_path / "d0.emb"
    with pytest.raises(DimZeroError):
        write_embeddings(path, np.empty((3, 0)))
    path.write_bytes(struct.pack("<4sIQ", b"EMB1", 0, 0))
    with pytest.raises(DimZeroError):
        read_embeddings(path)


def test_non_finite_values_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_embeddings(tmp_path / "nan.emb", [[np.nan, 1.0]])


def test_non_matrix_input_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_embeddings(tmp_path / "vec.emb", np.ones(4))


def test_no_temp_files_left_behind(tmp_path):
    path = tmp_path / "clean.emb"
    write_embeddings(path, np.ones((2, 2)))
    assert sorted(os.listdir(tmp_path)) == ["clean.emb"]
