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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, KTooLargeError, SizeMismatchError
from .vectors import normalize_rows

MARGIN_ABSOLUTE = "absolute"
MARGIN_DISTANCE = "distance"
MARGIN_RATIO = "ratio"
MARGIN_KINDS = (MARGIN_ABSOLUTE, MARGIN_DISTANCE, MARGIN_RATIO)

_BLOCK_ROWS = 1024


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


def margin_scores(a, b, kind: str) -> np.ndarray:
    """Elementwise margin combinator over broadcast arrays: absolute (a),
    distance (a - b) or ratio (a / b); ratio raises ZeroDivisionError when
    any b == 0."""
    a = np.asarray(a, dtype=np.float64)
    if kind == MARGIN_ABSOLUTE:
        return a
    b = np.asarray(b, dtype=np.float64)
    if kind == MARGIN_DISTANCE:
        return a - b
    if kind == MARGIN_RATIO:
        if (b == 0.0).any():
            raise ZeroDivisionError("ratio margin with zero denominator")
        return a / b
    raise ValueError(f"unknown margin kind {kind!r}")


def _row_blocks(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS)]


def _run_blocks(fn, blocks, threads: int) -> None:
    """Run fn(lo, hi) over blocks; results land in preallocated arrays by
    row index, so parallel output is bitwise identical to serial."""
    if threads <= 1 or len(blocks) < 2:
        for lo, hi in blocks:
            fn(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda b: fn(*b), blocks))


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


def knn(queries, candidates, k: int, threads: int = 1):
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

    def block(lo: int, hi: int) -> None:
        sims = np.clip(Q[lo:hi] @ C.T, -1.0, 1.0)
        top = _top_values(sims, k)
        # every candidate at or above the k-th largest cosine, ordered by
        # (descending cosine, ascending index); np.nonzero lists each row's
        # candidates in index order and keeps rows contiguous
        rows, cols = np.nonzero(sims >= top[:, -1:])
        order = np.lexsort((cols, -sims[rows, cols], rows))
        counts = np.bincount(rows, minlength=hi - lo)
        starts = np.cumsum(counts) - counts
        idx[lo:hi] = cols[order[starts[:, None] + np.arange(k)]]
        cos[lo:hi] = top

    _run_blocks(block, _row_blocks(n), threads)
    return idx, cos


def neighborhood_means(nn_cosines: np.ndarray, k: int) -> np.ndarray:
    """Per-row neighbourhood term: sum of the k neighbour cosines / 2k."""
    return nn_cosines.sum(axis=1) / (2.0 * k)


def neighborhoods(S: np.ndarray, T: np.ndarray, k: int, threads: int = 1):
    """Neighbourhood terms (dx, dy) of unit-norm rows S (n, d) and T (m, d).

    dx[i] is neighborhood_means of knn(S, T, k)'s cosines for source i and
    dy[j] that of knn(T, S, k) for target j, both taken from one blocked
    pass over S @ T.T: each block keeps its rows' top k for dx and its
    columns' top k, merged at the end, for dy.  Raises KTooLargeError when
    k exceeds either side.
    """
    n = S.shape[0]
    if k > min(n, T.shape[0]):
        raise KTooLargeError(f"k={k} but only {min(n, T.shape[0])} candidates")
    fwd = np.empty((n, k), dtype=np.float64)
    blocks = _row_blocks(n)
    bwd = [None] * len(blocks)

    def block(lo: int, hi: int) -> None:
        cos = np.clip(S[lo:hi] @ T.T, -1.0, 1.0)
        fwd[lo:hi] = _top_values(cos, k)
        bwd[lo // _BLOCK_ROWS] = _top_values(cos.T, min(k, hi - lo))

    _run_blocks(block, blocks, threads)
    dy = neighborhood_means(_top_values(np.concatenate(bwd, axis=1), k), k)
    return neighborhood_means(fwd, k), dy


def align(src_emb, tgt_emb, cfg: SearchConfig, threads: int = 1):
    """Best-scoring target per source row.

    Returns (indices, scores): for each source, the argmax target by margin
    score (exact ties toward the lower target index) and that score.
    """
    S, T = _unit_rows(src_emb, tgt_emb)
    dx, dy = neighborhoods(S, T, cfg.k, threads)
    n = S.shape[0]
    best_idx = np.empty(n, dtype=np.int64)
    best_score = np.empty(n, dtype=np.float64)

    def block(lo: int, hi: int) -> None:
        cos = np.clip(S[lo:hi] @ T.T, -1.0, 1.0)
        scores = margin_scores(cos, dx[lo:hi, None] + dy[None, :], cfg.margin_kind)
        picks = np.argmax(scores, axis=1)  # first max -> lowest index on ties
        best_idx[lo:hi] = picks
        best_score[lo:hi] = scores[np.arange(hi - lo), picks]

    _run_blocks(block, _row_blocks(n), threads)
    return best_idx, best_score


def _count_errors(src_emb, tgt_emb, cfg: SearchConfig, threads: int) -> tuple[int, int]:
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
    best_idx, _ = align(S, T, cfg, threads)
    return S.shape[0], int((best_idx != np.arange(S.shape[0])).sum())
def xsim_error_rate(src_emb, tgt_emb, cfg: SearchConfig, threads: int = 1) -> float:
    """Percentage (in [0, 100]) of sources whose best-scoring target is not
    their own (row i of the sources is aligned with row i of the targets)."""
    n, errors = _count_errors(src_emb, tgt_emb, cfg, threads)
    return 100.0 * errors / n


def xsim_report(src_emb, tgt_emb, cfg: SearchConfig, threads: int = 1) -> str:
    """One-line evaluation report:
    ``n=<n> k=<k> margin=<kind> errors=<m> error_rate=<pct>`` (2 decimals)."""
    n, errors = _count_errors(src_emb, tgt_emb, cfg, threads)
    return (
        f"n={n} k={cfg.k} margin={cfg.margin_kind} "
        f"errors={errors} error_rate={100.0 * errors / n:.2f}"
    )
