"""Margin scoring and nearest-neighbour alignment between embedding sets.

The margin score of a candidate pair (x, y) compares their cosine against
the average similarity of each side's k-nearest-neighbour neighbourhood:

    score(x, y) = margin(cos(x, y),
                         sum_{z in NN_k(x)} cos(x, z) / 2k
                       + sum_{z in NN_k(y)} cos(y, z) / 2k)

with margin(a, b) one of: absolute (a), distance (a - b), ratio (a / b).
Alignment picks, for every source row, the target with the highest margin
score; on an aligned evaluation set the xsim error rate is the fraction of
sources whose best-scoring target is not their own counterpart.

Neighbourhoods are *not* purged of the true counterpart; on clean data the
counterpart typically is one of the neighbours, which simply tightens the
margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, KTooLargeError, SizeMismatchError
from .vectors import normalize_rows

MARGIN_ABSOLUTE = "absolute"
MARGIN_DISTANCE = "distance"
MARGIN_RATIO = "ratio"
MARGIN_KINDS = (MARGIN_ABSOLUTE, MARGIN_DISTANCE, MARGIN_RATIO)

_BLOCK_ROWS = 1024
# rows of the first block folded on their own into the running
# per-target top k.  Seeding from 32 rows lets about 600k survivors
# through at n = 20,000 and the fold dominates.  256 rows ran 5% faster,
# but at m = 5,000 their 10 MB column partition raises glibc's dynamic
# mmap threshold, and the freed heap it then keeps cost 30 MiB of peak RSS
_SEED_ROWS = 128


@dataclass(frozen=True)
class SearchConfig:
    """Neighbourhood size and margin function for scoring/alignment."""

    k: int = 4
    margin_kind: str = MARGIN_RATIO

    def __post_init__(self):
        if int(self.k) < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "k", int(self.k))
        if self.margin_kind not in MARGIN_KINDS:
            raise ValueError(
                f"margin_kind must be one of {MARGIN_KINDS}, got {self.margin_kind!r}"
            )


# the ufunc each margin kind applies to (cosine, denominator); absolute
# ignores the denominator
_MARGIN_UFUNCS = {MARGIN_DISTANCE: np.subtract, MARGIN_RATIO: np.divide}


def margin_scores(a, b, kind: str) -> np.ndarray:
    """Elementwise margin combinator over broadcast arrays: absolute (a),
    distance (a - b) or ratio (a / b); ratio raises ZeroDivisionError when
    any b == 0."""
    a = np.asarray(a, dtype=np.float64)
    if kind == MARGIN_ABSOLUTE:
        return a
    if kind not in _MARGIN_UFUNCS:
        raise ValueError(f"unknown margin kind {kind!r}")
    b = np.asarray(b, dtype=np.float64)
    if kind == MARGIN_RATIO and (b == 0.0).any():
        raise ZeroDivisionError("ratio margin with zero denominator")
    return _MARGIN_UFUNCS[kind](a, b)


def _top_values(a: np.ndarray, k: int) -> np.ndarray:
    """The k largest values of each row of a, descending, as a new array.

    Partial selection, then a sort of the k survivors only.  The result
    never views a's partition (which would keep a whole block alive), and
    its rows sum in the same order as knn's cosines.
    """
    cut = a.shape[1] - k
    return -np.sort(-np.partition(a, cut, axis=1)[:, cut:], axis=1)


def _unit_rows(queries, candidates):
    Q = normalize_rows(queries)
    C = normalize_rows(candidates)
    if Q.shape[1] != C.shape[1]:
        raise DimMismatchError(f"dim mismatch: {Q.shape[1]} vs {C.shape[1]}")
    return Q, C


def knn(queries, candidates, k: int):
    """Exact top-k candidates by cosine for every query row.

    Returns (indices, cosines), both (n_queries, k), columns sorted by
    descending cosine with exact ties broken toward the lower candidate
    index.  Raises KTooLargeError if k exceeds the candidate count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    Q, C = _unit_rows(queries, candidates)
    if k > C.shape[0]:
        raise KTooLargeError(f"k={k} but only {C.shape[0]} candidates")
    n = Q.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    cos = np.empty((n, k), dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        sims = np.clip(Q[lo:hi] @ C.T, -1.0, 1.0)
        top = _top_values(sims, k)
        # every candidate at or above the k-th largest cosine, ordered by
        # (descending cosine, ascending index); np.nonzero lists each
        # row's candidates in index order and keeps rows contiguous
        rows, cols = np.nonzero(sims >= top[:, -1:])
        order = np.lexsort((cols, -sims[rows, cols], rows))
        counts = np.bincount(rows, minlength=hi - lo)
        starts = np.cumsum(counts) - counts
        idx[lo:hi] = cols[order[starts[:, None] + np.arange(k)]]
        cos[lo:hi] = top
    return idx, cos


def neighborhood_means(nn_cosines: np.ndarray, k: int) -> np.ndarray:
    """Per-row neighbourhood term: sum of the k neighbour cosines / 2k."""
    return nn_cosines.sum(axis=1) / (2.0 * k)


def _fold_columns(top: np.ndarray, cos: np.ndarray) -> None:
    """Fold the rows of cos into top, the running k largest values of each
    column of cos: row j of top holds column j's in ascending order (-inf
    until k rows have been folded), so top[j, 0] is its threshold.

    top is target-major, (m, k), so that every sort runs along contiguous
    rows; sorting a rank-major (k, m) top along its columns cost twice the
    whole search once k reached the block size.  Only values above a
    column's threshold can enter its top k, so one compare finds them.  A
    single lexsort over those survivors and the touched columns' tops, by
    (column, descending value), then yields each touched column's new top
    k.  The lexsort handles about k + 1 values per survivor, so once more
    than 1/16k of the block survives, as all of it does against a -inf
    threshold, a partition of the block's columns and a sort of each
    target's 2k (or k + rows) candidates is cheaper.
    """
    m, k = top.shape
    above = cos > np.ascontiguousarray(top[:, 0])
    survivors = np.count_nonzero(above)
    if 16 * k * survivors > cos.size:
        rows = cos.shape[0]
        if rows > k:
            cos = np.partition(cos, rows - k, axis=0)[rows - k :]
        both = np.concatenate([top, cos.T], axis=1)
        both.sort(axis=1)
        top[:] = both[:, -k:]
        return
    # a flat index: np.nonzero on the 2-D mask is ten times slower
    flat = np.flatnonzero(above)
    cols = flat % m
    counts = np.bincount(cols, minlength=m)
    touched = np.flatnonzero(counts)
    vals = np.concatenate([top[touched].ravel(), cos.ravel()[flat]])
    owner = np.concatenate([np.repeat(touched, k), cols])
    order = np.lexsort((-vals, owner))
    sizes = counts[touched] + k
    starts = np.cumsum(sizes) - sizes
    # each touched column's k largest, in ascending order
    top[touched] = vals[order[starts[:, None] + np.arange(k - 1, -1, -1)]]


def neighborhoods(S: np.ndarray, T: np.ndarray, k: int):
    """Neighbourhood terms (dx, dy) of unit-norm rows S (n, d) and T (m, d).

    dx[i] is neighborhood_means of knn(S, T, k)'s cosines for source i and
    dy[j] that of knn(T, S, k) for target j, both taken from one blocked
    pass over S @ T.T.  Each block of rows folds its columns into a
    running top k per target for dy, then partitions its own buffer in
    place for dx.  Values are clipped to [-1, 1] only once selected:
    clipping is monotone, so the k largest clipped values are the clipped
    k largest.  Raises KTooLargeError when k exceeds either side.
    """
    n, m = S.shape[0], T.shape[0]
    if k > min(n, m):
        raise KTooLargeError(f"k={k} but only {min(n, m)} candidates")
    fwd = np.empty((n, k), dtype=np.float64)
    cut = m - k
    buf = np.empty((min(_BLOCK_ROWS, n), m))
    top = np.full((m, k), -np.inf)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        cos = buf[: hi - lo]
        np.matmul(S[lo:hi], T.T, out=cos)
        # the first few rows go alone: their column top k sets a
        # threshold that few of the block's other values pass
        for part in (cos[:_SEED_ROWS], cos[_SEED_ROWS:]) if lo == 0 else (cos,):
            _fold_columns(top, part)
        cos.partition(cut, axis=1)
        fwd[lo:hi] = np.clip(-np.sort(-cos[:, cut:], axis=1), -1.0, 1.0)
    # each target's top k in descending order, stored rank-major (k, m)
    bwd = np.clip(top[:, ::-1].T, -1.0, 1.0, order="C")
    # bwd.T is a strided (m, k) view, so each dy[j] adds its k values one
    # rank at a time in descending order, while the contiguous fwd rows sum
    # pairwise; for k >= 8 the two orders differ in the last bits
    return neighborhood_means(fwd, k), neighborhood_means(bwd.T, k)


def align(src_emb, tgt_emb, cfg: SearchConfig):
    """Best-scoring target per source row.

    Returns (indices, scores): for each source, the argmax target by margin
    score (exact ties toward the lower target index) and that score.
    """
    S, T = _unit_rows(src_emb, tgt_emb)
    dx, dy = neighborhoods(S, T, cfg.k)
    kind = cfg.margin_kind
    # dx_i + dy_j == 0 exactly when -dx_i == dy_j, for finite floats
    if kind == MARGIN_RATIO and np.isin(-dx, dy).any():
        raise ZeroDivisionError("ratio margin with zero denominator")
    n, m = S.shape[0], T.shape[0]
    best_idx = np.empty(n, dtype=np.int64)
    best_score = np.empty(n, dtype=np.float64)
    rows = min(_BLOCK_ROWS, n)
    buf = np.empty((rows, m))
    denom = np.empty((rows, m)) if kind in _MARGIN_UFUNCS else None
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        scores = buf[: hi - lo]
        np.matmul(S[lo:hi], T.T, out=scores)
        np.clip(scores, -1.0, 1.0, out=scores)
        if denom is not None:
            d = denom[: hi - lo]
            np.add(dx[lo:hi, None], dy, out=d)
            _MARGIN_UFUNCS[kind](scores, d, out=scores)
        picks = np.argmax(scores, axis=1)  # first max -> lowest index on ties
        best_idx[lo:hi] = picks
        best_score[lo:hi] = scores[np.arange(hi - lo), picks]
    return best_idx, best_score


def _count_errors(src_emb, tgt_emb, cfg: SearchConfig) -> tuple[int, int]:
    """(n, errors): how many of n aligned sources pick a target other than
    their own (row i of the sources is aligned with row i of the targets)."""
    S = np.asarray(src_emb)
    T = np.asarray(tgt_emb)
    if S.shape[0] != T.shape[0]:
        raise SizeMismatchError(
            f"aligned sets must match in size: {S.shape[0]} vs {T.shape[0]}"
        )
    if S.shape[0] == 0:
        raise ValueError("empty evaluation set")
    best_idx, _ = align(S, T, cfg)
    return S.shape[0], int((best_idx != np.arange(S.shape[0])).sum())


def xsim_error_rate(src_emb, tgt_emb, cfg: SearchConfig) -> float:
    """Percentage (in [0, 100]) of sources whose best-scoring target is not
    their own (row i of the sources is aligned with row i of the targets)."""
    n, errors = _count_errors(src_emb, tgt_emb, cfg)
    return 100.0 * errors / n


def xsim_report(src_emb, tgt_emb, cfg: SearchConfig) -> str:
    """One-line evaluation report:
    ``n=<n> k=<k> margin=<kind> errors=<m> error_rate=<pct>`` (2 decimals)."""
    n, errors = _count_errors(src_emb, tgt_emb, cfg)
    return (
        f"n={n} k={cfg.k} margin={cfg.margin_kind} "
        f"errors={errors} error_rate={100.0 * errors / n:.2f}"
    )
