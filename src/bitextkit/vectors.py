"""L2 row normalization.

Margin search and corpus scoring normalize their inputs here.  All math
runs in float64; norms at or below ``ZERO_NORM_EPS`` are treated as zero
vectors (no direction) and raise rather than silently dividing.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, ZeroVectorError

ZERO_NORM_EPS = 1e-12


def unit_slack(d: int) -> float:
    """Bound on |y.y - 1| for a d-dimensional row y of normalize_rows or of
    the encoder, y.y being the true squared norm, not a computed one."""
    return (d + 4) * 2.0**-52


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
