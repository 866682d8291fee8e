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

Every cosine in a neighbourhood term, a score or a pick is a float64
``pair_cosines`` value, whose bits depend only on its two rows; float32 GEMMs
only screen, keeping every entry that their error bound cannot rule out.

Neighbourhoods are *not* purged of the true counterpart; on clean data the
counterpart typically is one of the neighbours, which simply tightens the
margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, KTooLargeError, SizeMismatchError
from .vectors import normalize_rows

MARGIN_ABSOLUTE = "absolute"
MARGIN_DISTANCE = "distance"
MARGIN_RATIO = "ratio"
MARGIN_KINDS = (MARGIN_ABSOLUTE, MARGIN_DISTANCE, MARGIN_RATIO)

# rows per float32 screen: a 1,024-row screen (20 MB at m = 5,000), freed
# after each search, lifts glibc's dynamic mmap threshold, and the heap it
# then keeps raised the mine benchmark's peak RSS from 176 to 207 MiB
_BLOCK_ROWS = 512
# strided chunks per row whose maxima bound its k-th largest screen value:
# 128 bound as tightly as 16, and NumPy reduces them three times faster
_CHUNKS = 128
# float64 values gathered from each side per pair_cosines chunk (1 MiB)
_GATHER = 1 << 17


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


def pair_cosines(S: np.ndarray, T: np.ndarray, rows, cols) -> np.ndarray:
    """Cosines of the pairs (S[rows[t]], T[cols[t]]) of unit rows, clipped
    to [-1, 1]: one float64 dot per pair, over rows gathered in bounded
    chunks, so a value's bits depend only on its two rows."""
    out = np.empty(len(rows))
    step = max(1, _GATHER // S.shape[1])
    for lo in range(0, len(rows), step):
        hi = lo + step
        pairs = np.take(S, rows[lo:hi], axis=0), np.take(T, cols[lo:hi], axis=0)
        out[lo:hi] = np.einsum("nd,nd->n", *pairs)
    return np.clip(out, -1.0, 1.0, out=out)


def _screen_eps(d: int) -> float:
    # Bound on |G - c|, G the float32 GEMM entry of rows x, y of
    # normalize_rows rounded to float32, c their pair_cosines value.  The
    # rounding scales each product x_i y_i by (1 + e1)(1 + e2), |e| <= u =
    # 2^-24, and a d-term float32 sum (any order, FMA or not) by gamma_d =
    # du / (1 - du) more, so |G - x.y| <= gamma_{d+2} N, N = |x||y| <=
    # 1 + (d + 4) 2^-52.  c is within d 2^-52 N of x.y, or N - 1 beyond once
    # clipped.  2^-48 covers float32 underflow (d 2^-149 at most) and the
    # rounding of align's float64 floors (ulps of values below 4).
    u = 2.0**-24
    gamma = (d + 2) * u / (1 - (d + 2) * u) if (d + 2) * u < 1 else math.inf
    slack = (d + 4) * 2.0**-52
    return (gamma + d * 2.0**-52) * (1 + slack) + slack + 2.0**-48


def _unit_rows(queries, candidates):
    Q = normalize_rows(queries)
    C = normalize_rows(candidates)
    if Q.shape[1] != C.shape[1]:
        raise DimMismatchError(f"dim mismatch: {Q.shape[1]} vs {C.shape[1]}")
    return Q, C


def _kept(G: np.ndarray, keep: np.ndarray, floors: np.ndarray):
    """(rows, cols), row-major, of the entries of G at or above their row's
    float64 floor, which is rounded down to float32 for the compare."""
    f32 = floors.astype(np.float32)
    f32 = np.where(f32 > floors, np.nextafter(f32, np.float32(-np.inf)), f32)
    np.greater_equal(G, f32[:, None], out=keep)
    return np.divmod(np.flatnonzero(keep), G.shape[1])


def _grid(rows: np.ndarray, n: int, values: np.ndarray, fill: float):
    """(grid, starts): row i's values (given row-major) left-aligned in grid[i]
    and padded with fill, and the position in values of row i's first."""
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    grid = np.full((n, counts.max()), fill)
    grid[rows, np.arange(len(rows)) - starts[rows]] = values
    return grid, starts


def _row_search(Q: np.ndarray, C: np.ndarray, k: int):
    """Yield (lo, G, keep, rows, cols, cos) per block of unit rows of Q from
    lo: G is its float32 screen against C, keep a bool array of G's shape
    (both reused buffers), and rows, cols (row-major) and their pair cosines
    cos every entry that can be in its row's top k.  If L is the k-th
    largest of a row's entries in k or more columns, such as its strided
    chunk maxima, k pair cosines are >= L - eps, so its top k have G >= L - 2 eps.
    """
    eps, m = _screen_eps(Q.shape[1]), C.shape[0]
    Q32, C32 = Q.astype(np.float32), C.astype(np.float32)
    screen = np.empty((min(_BLOCK_ROWS, Q.shape[0]), m), np.float32)
    keep = np.empty(screen.shape, bool)
    for lo in range(0, Q.shape[0], _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, Q.shape[0] - lo)
        G = np.matmul(Q32[lo : lo + rows], C32.T, out=screen[:rows])
        bound = G
        if k <= _CHUNKS and m >= 2 * _CHUNKS:
            bound = G[:, : m - m % _CHUNKS].reshape(rows, -1, _CHUNKS).max(axis=1)
        cut = bound.shape[1] - k
        L = np.partition(bound, cut, axis=1)[:, cut].astype(np.float64)
        r, c = _kept(G, keep[:rows], L - 2 * eps)
        yield lo, G, keep[:rows], r, c, pair_cosines(Q, C, lo + r, c)


def knn(queries, candidates, k: int):
    """Exact top-k candidates by cosine for every query row.

    Returns (indices, cosines), both (n_queries, k), columns sorted by
    descending pair_cosines value with exact ties broken toward the lower
    candidate index.  Raises KTooLargeError if k exceeds the candidate count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    Q, C = _unit_rows(queries, candidates)
    if k > C.shape[0]:
        raise KTooLargeError(f"k={k} but only {C.shape[0]} candidates")
    idx, top = np.empty((Q.shape[0], k), dtype=np.int64), np.empty((Q.shape[0], k))
    for lo, G, _, r, c, cos in _row_search(Q, C, k):
        grid, starts = _grid(r, len(G), -cos, np.inf)  # stable: ties by column
        pick = starts[:, None] + np.argsort(grid, axis=1, kind="stable")[:, :k]
        idx[lo : lo + len(G)], top[lo : lo + len(G)] = c[pick], cos[pick]
    return idx, top


def neighborhood_means(nn_cosines: np.ndarray, k: int) -> np.ndarray:
    """Per-row neighbourhood term: sum of the k neighbour cosines / 2k."""
    return nn_cosines.sum(axis=1) / (2.0 * k)


def neighborhoods(S, T, k: int):
    """Neighbourhood terms (dx, dy) of the rows of S (n, d) and T (m, d):
    neighborhood_means of knn(S, T, k)'s and knn(T, S, k)'s cosines.
    Raises KTooLargeError when k exceeds either side."""
    dx = neighborhood_means(knn(S, T, k)[1], k)
    return dx, neighborhood_means(knn(T, S, k)[1], k)


def align(src_emb, tgt_emb, cfg: SearchConfig):
    """Best-scoring target per source row.

    Returns (indices, scores): for each source, the argmax target by margin
    score (exact ties toward the lower target index) and that score.

    dy comes from knn(targets, sources); one screened pass over the sources
    gives dx and each row's best-cosine target, whose score s the pick must
    reach.  With denominators in dx + [min dy, max dy], only a cosine of at
    least s (absolute), s + dx + min dy (distance), s (dx + min dy) or, for
    s < 0, s (dx + max dy) (ratio, every denominator > 0; else -inf) can, so
    the screen keeps G >= that floor - eps, and margin scores decide.
    """
    S, T = _unit_rows(src_emb, tgt_emb)
    k, kind = cfg.k, cfg.margin_kind
    if k > T.shape[0]:
        raise KTooLargeError(f"k={k} but only {T.shape[0]} candidates")
    dy = neighborhood_means(knn(tgt_emb, src_emb, k)[1], k)
    lowest, highest = dy.min(), dy.max()
    eps = _screen_eps(S.shape[1])
    best_idx, best_score = np.empty(S.shape[0], dtype=np.int64), np.empty(S.shape[0])
    for lo, G, keep, r, c, cos in _row_search(S, T, k):
        hi = lo + len(G)
        grid, starts = _grid(r, hi - lo, cos, -np.inf)
        dx = neighborhood_means(-np.sort(-grid, axis=1)[:, :k], k)
        # dx_i + dy_j == 0 exactly when -dx_i == dy_j, for finite floats
        if kind == MARGIN_RATIO and np.isin(-dx, dy).any():
            raise ZeroDivisionError("ratio margin with zero denominator")
        b = starts + np.argmax(grid, axis=1)  # first max: lowest index
        floors = s = margin_scores(cos[b], dx + dy[c[b]], kind)
        if kind == MARGIN_DISTANCE:
            floors = s + (dx + lowest)
        elif kind == MARGIN_RATIO:
            floors = s * (dx + np.where(s < 0, highest, lowest))
            floors[dx + lowest <= 0] = -np.inf
        r, c = _kept(G, keep, floors - eps)
        scores = margin_scores(pair_cosines(S, T, lo + r, c), dx[r] + dy[c], kind)
        grid, starts = _grid(r, hi - lo, scores, -np.inf)
        pick = starts + np.argmax(grid, axis=1)
        best_idx[lo:hi] = c[pick]
        best_score[lo:hi] = scores[pick]
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
