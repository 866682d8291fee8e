"""Dense vector primitives: L2 normalization and cosine similarity.

All math runs in float64; norms below ``ZERO_NORM_EPS`` are treated as
zero vectors (no direction) and raise rather than silently dividing.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, ZeroVectorError

ZERO_NORM_EPS = 1e-12


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimMismatchError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def l2_normalize(v) -> np.ndarray:
    """Return v / ||v||_2 as float64.

    Raises ZeroVectorError if ||v|| <= 1e-12.  Idempotent up to float
    rounding and scale-invariant for any positive scale.
    """
    arr = _as_vector(v)
    norm = float(np.linalg.norm(arr))
    if not np.isfinite(norm):
        raise ValueError("non-finite values in vector")
    if norm <= ZERO_NORM_EPS:
        raise ZeroVectorError(f"cannot normalize a vector with norm {norm:.3e}")
    return arr / norm


def cosine(u, v) -> float:
    """Cosine similarity of two vectors, accumulated in float64.

    The result is clamped to [-1, 1] so downstream comparisons never see
    rounding excursions.  Raises DimMismatchError on length mismatch and
    ZeroVectorError if either input has (near-)zero norm.
    """
    a = _as_vector(u)
    b = _as_vector(v)
    if a.shape[0] != b.shape[0]:
        raise DimMismatchError(f"dim mismatch: {a.shape[0]} vs {b.shape[0]}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= ZERO_NORM_EPS or nb <= ZERO_NORM_EPS:
        raise ZeroVectorError("cosine undefined for zero vectors")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def normalize_rows(mat) -> np.ndarray:
    """L2-normalize each row of a 2-D array; raises ValueError with the
    index of the first row whose norm is not finite and ZeroVectorError with
    the index of the first zero row."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2:
        raise DimMismatchError(f"expected a 2-D matrix, got shape {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"row {bad[0]} has a non-finite norm")
    bad = np.flatnonzero(norms <= ZERO_NORM_EPS)
    if bad.size:
        raise ZeroVectorError(f"row {bad[0]} has zero norm")
    return arr / norms[:, None]
