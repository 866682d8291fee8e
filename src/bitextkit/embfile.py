"""EMB1 embedding container: a minimal binary matrix format.

Layout (little-endian, no padding, no trailer):

    bytes 0-3   ASCII magic "EMB1"
    bytes 4-7   u32 dim       (columns; must be > 0)
    bytes 8-15  u64 count     (rows; 0 is legal)
    then        count * dim float32 values, row-major

Values are stored as float32; writers cast, readers return float32 arrays.
Every artifact, EMB1 or text (``write_text``), is written atomically (temp
file + rename), so readers never observe partial output.  ``open_text``
opens the package's UTF-8 text inputs.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct
import tempfile

import numpy as np

from .errors import BadMagicError, DimZeroError, FormatError, TruncatedFileError

MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sIQ")
_FLOAT32_MAX = np.finfo(np.float32).max
# the least magnitude that rounds to a float32 infinity: the largest
# float32 plus half its ulp (the tie rounds to even, which is 2^128)
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def write_embeddings(path: str | os.PathLike, mat) -> None:
    """Write a 2-D array to ``path`` in EMB1 format (float32, row-major).

    The dimension (number of columns) must be > 0; zero rows are fine and
    produce a 16-byte file.  Non-finite values, and finite ones that would
    round to a float32 infinity, raise ValueError before the cast.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    count, dim = arr.shape
    if dim == 0:
        raise DimZeroError("cannot write embeddings with dim 0")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite values in embedding matrix")
    if arr.size and max(float(arr.max()), -float(arr.min())) >= _FLOAT32_OVERFLOW:
        raise ValueError(
            f"values beyond float32's range (|x| <= {_FLOAT32_MAX:.8g}) in embedding matrix"
        )
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with _atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, dim, count))
        fh.write(arr.data)  # the array's own buffer, not a copy of it


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


@contextlib.contextmanager
def _atomic_open(path: str | os.PathLike, mode: str, **kwargs):
    """A temp file beside ``path``, renamed over it once the block
    completes and removed if the block raises."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bitextkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def check_text(text: str, what: str, lines: int = 1, tabs: int = 0) -> str:
    """text, ``lines`` lines joined by LF, unless one holds a CR or LF of its
    own or other than ``tabs`` tabs (ValueError naming what): a line that
    does would read back split."""
    if text.count("\n") != lines - 1 or "\r" in text or text.count("\t") != tabs * lines:
        raise ValueError(f"{what}: must not contain a tab or line break")
    return text


def write_text(path: str | os.PathLike, lines, comments=None, header=None, tabs: int = 0) -> None:
    """Write a UTF-8 text artifact atomically: the ``header`` line (a
    ``.meta`` sidecar's) if any, a ``# <comment>`` line per comment, then
    ``lines``, each ending in LF.  A comment holding a tab, CR or LF, which
    would read back as data, raises ValueError before anything is written.
    Body lines must hold ``tabs`` tabs and no CR or LF (check_text): they
    are checked and written 1,024 at a time, and only a chunk is copied.
    open_text skips a leading byte-order mark, so a body line that starts
    the file with a U+FEFF of its own is written behind one more."""
    head = [] if header is None else [header]
    head += [f"# {check_text(c, 'comment')}" for c in comments or ()]
    lines = iter(lines)
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{h}\n" for h in head)
        first = not head
        while chunk := list(itertools.islice(lines, 1024)):
            text = check_text("\n".join(chunk), "field", len(chunk), tabs)
            if first and text.startswith("\ufeff"):
                fh.write("\ufeff")
            fh.write(text + "\n")
            first = False


@contextlib.contextmanager
def open_text(path: str | os.PathLike, error: type[Exception] = FormatError):
    """Open a UTF-8 text file for reading, with universal newlines and a
    leading byte-order mark skipped.

    Undecodable bytes raise ``error`` naming the file, the 1-based line
    (counting lines as the reader does) and the first bad byte, instead of
    a bare UnicodeDecodeError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
