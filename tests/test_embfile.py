"""EMB1 container tests: layout, round trips, and structural validation."""

import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit import read_embeddings, write_embeddings
from bitextkit.embfile import open_text, write_text
from bitextkit.errors import BadMagicError, DimZeroError, FormatError, TruncatedFileError
from conftest import traced_peak


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


@pytest.mark.parametrize("value", [1e39, -1e39, 2.0**128 - 2.0**103])
def test_finite_values_beyond_float32_are_refused_as_out_of_range(tmp_path, value):
    # each rounds to a float32 infinity: refused before the cast, with no
    # overflow warning, and not reported as non-finite
    path = tmp_path / "big.emb"
    message = r"^values beyond float32's range \(\|x\| <= 3\.4028235e\+38\) in embedding matrix$"
    with pytest.raises(ValueError, match=message):
        write_embeddings(path, [[value, 0.0]])
    assert list(tmp_path.iterdir()) == []


def test_values_that_round_to_the_largest_float32_are_written(tmp_path):
    below = float(np.nextafter(2.0**128 - 2.0**103, 0.0))
    path = tmp_path / "top.emb"
    write_embeddings(path, [[below, -below]])
    top = np.finfo(np.float32).max
    assert read_embeddings(path).tolist() == [[top, -top]]


def test_non_matrix_input_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_embeddings(tmp_path / "vec.emb", np.ones(4))


def test_write_traces_the_float32_cast_and_no_copy_of_it(tmp_path):
    # header + payload joined in one bytes object would trace the cast,
    # its bytes copy and the joined copy: three payloads, not one
    mat = np.random.default_rng(5).standard_normal((20_000, 64))
    path = tmp_path / "big.emb"
    _, peak = traced_peak(lambda: write_embeddings(path, mat))
    assert peak <= mat.size * 4 + 64 * 1024
    payload = mat.astype("<f4").tobytes()
    assert path.read_bytes() == struct.pack("<4sIQ", b"EMB1", 64, 20_000) + payload


def test_no_temp_files_left_behind(tmp_path):
    path = tmp_path / "clean.emb"
    write_embeddings(path, np.ones((2, 2)))
    assert sorted(os.listdir(tmp_path)) == ["clean.emb"]


def test_write_text_layout(tmp_path):
    path = tmp_path / "out.meta"
    write_text(path, iter(["body \u00e9", ""]), comments=["c 1", ""], header="dim=2")
    assert path.read_bytes() == "dim=2\n# c 1\n# \nbody \u00e9\n\n".encode("utf-8")
    write_text(path, [])
    assert path.read_bytes() == b""
    assert os.listdir(tmp_path) == ["out.meta"]


@pytest.mark.parametrize("comment", ["\t", "a\nb", "a\r", "ok\r\n"])
def test_write_text_refuses_a_comment_before_writing(tmp_path, comment):
    def lines():
        raise AssertionError("a line was drawn")
        yield

    with pytest.raises(ValueError, match="^comment: must not contain a tab or line break$"):
        write_text(tmp_path / "out", lines(), comments=["fine", comment])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "bad, tabs", [("c", 1), ("c\td\te", 1), ("c\rd", 0), ("c\nd", 0), ("c\td", 0), ("c\r\n", 2)]
)
def test_write_text_refuses_a_body_line_that_would_read_back_split(tmp_path, bad, tabs):
    # the bad line sits in the second 1,024-line chunk, after one written
    path = tmp_path / "out"
    path.write_text("before\n")
    good = "\t".join(["a"] * (tabs + 1))
    with pytest.raises(ValueError, match="^field: must not contain a tab or line break$"):
        write_text(path, [good] * 1500 + [bad], comments=["ok"], tabs=tabs)
    assert path.read_text() == "before\n" and os.listdir(tmp_path) == ["out"]


def test_write_text_failing_lines_leave_no_file(tmp_path):
    def lines():
        yield "one"
        raise ValueError("bad line")

    with pytest.raises(ValueError, match="bad line"):
        write_text(tmp_path / "out", lines())
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_embeddings(path, np.ones((2, 2))),
        lambda path: write_text(path, ["dim=2", "\u00e9"]),
    ],
    ids=["embeddings", "text"],
)
def test_failed_rename_leaves_no_target_and_no_temp_file(tmp_path, monkeypatch, write):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(tmp_path / "out")
    assert os.listdir(tmp_path) == []


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="ab\t\r\n\u00e9", max_size=30),
    st.sampled_from([b"\xff", b"\xc3", b"\x80"]),
    st.text(alphabet="a\r\n\u00e9", max_size=10),
)
def test_open_text_names_the_line_the_reader_fails_on(before, bad, after):
    prefix = before.encode("utf-8")
    # oracle: the text reader's own line count over the valid prefix
    lines = io.TextIOWrapper(io.BytesIO(prefix), encoding="utf-8").readlines()
    line = sum(1 for text in lines if text.endswith("\n")) + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.txt")
        with open(path, "wb") as fh:
            fh.write(prefix + bad + after.encode("utf-8"))
        with pytest.raises(FormatError) as info:
            with open_text(path) as fh:
                fh.read()
    assert str(info.value) == f"{path}:{line}: invalid UTF-8 (byte 0x{bad.hex()})"

