"""EMB1 embedding container: a minimal binary matrix format.

Layout (little-endian, no padding, no trailer):

    bytes 0-3   ASCII magic "EMB1"
    bytes 4-7   u32 dim       (columns; must be > 0)
    bytes 8-15  u64 count     (rows; 0 is legal)
    then        count * dim float32 values, row-major

Values are stored as float32; writers cast, readers return float32 arrays.
Writing is atomic (temp file + rename) so readers never observe partial
output.  ``open_text`` opens the package's UTF-8 text inputs.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile

import numpy as np

from .errors import BadMagicError, DimZeroError, FormatError, TruncatedFileError

MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sIQ")


def write_embeddings(path: str | os.PathLike, mat) -> None:
    """Write a 2-D array to ``path`` in EMB1 format (float32, row-major).

    The dimension (number of columns) must be > 0; zero rows are fine and
    produce a 16-byte file.  Non-finite values are rejected.
    """
    arr = np.ascontiguousarray(mat, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    count, dim = arr.shape
    if dim == 0:
        raise DimZeroError("cannot write embeddings with dim 0")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite values in embedding matrix")
    payload = _HEADER.pack(MAGIC, dim, count) + arr.tobytes(order="C")
    _atomic_write_bytes(path, payload)


def read_embeddings(path: str | os.PathLike) -> np.ndarray:
    """Read an EMB1 file into a float32 array of shape (count, dim).

    Raises BadMagicError / DimZeroError / TruncatedFileError on structural
    violations, including trailing bytes beyond the promised payload; the
    declared size is checked against the file size before anything is
    read, so a lying header never sizes an allocation.  Raises FormatError
    on NaN or infinite values, which the writer never produces.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            if not MAGIC.startswith(header[:4]):
                raise BadMagicError(f"{path}: not an EMB1 file")
            raise TruncatedFileError(f"{path}: header truncated ({len(header)} bytes)")
        magic, dim, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if dim == 0:
            raise DimZeroError(f"{path}: declared dim is 0")
        expected = count * dim * 4
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != expected:
            kind = "trailing bytes after" if found > expected else "truncated"
            raise TruncatedFileError(
                f"{path}: {kind} payload: header declares {expected} bytes, "
                f"file holds {found}"
            )
        flat = np.fromfile(fh, dtype="<f4", count=count * dim)
    if flat.size != count * dim:
        raise TruncatedFileError(f"{path}: payload shrank while reading")
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite values in payload")
    return flat.reshape(count, dim)


def _atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bitextkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text atomically (temp file + rename), UTF-8."""
    _atomic_write_bytes(path, text.encode("utf-8"))


@contextlib.contextmanager
def open_text(path: str | os.PathLike, error: type[Exception] = FormatError):
    """Open a UTF-8 text file for reading, with universal newlines.

    Undecodable bytes raise ``error`` naming the file, the 1-based line
    (counting lines as the reader does) and the first bad byte, instead of
    a bare UnicodeDecodeError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise error(
                f"{path}:{line}: invalid UTF-8 (byte 0x{data[exc.start]:02x})"
            ) from None
        raise
