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

from .errors import DimMismatchError, KTooLargeError, SizeMismatchError, check_number
from .vectors import normalize_rows, unit_slack

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
# row groups whose column maxima seed each target's bound in the first block
_COLUMN_GROUPS = 64
# entries per source row kept for its pick: with more, fewer rows need a
# second screen (_rescan), but every row scores more; align times on the
# mine benchmark's embeddings are flat from 8 to 32 and slower at 4 and 64
_TOP = 16
# float64 values gathered from each side per pair_cosines chunk (1 MiB)
_GATHER = 1 << 17


@dataclass(frozen=True)
class SearchConfig:
    """Neighbourhood size and margin function for scoring/alignment."""

    k: int = 4
    margin_kind: str = MARGIN_RATIO

    def __post_init__(self):
        object.__setattr__(self, "k", check_number("k", self.k, int, 1))
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
    slack = unit_slack(d)
    return (gamma + d * 2.0**-52) * (1 + slack) + slack + 2.0**-48


def _unit_rows(queries, candidates):
    Q = normalize_rows(queries)
    C = normalize_rows(candidates)
    if Q.shape[1] != C.shape[1]:
        raise DimMismatchError(f"dim mismatch: {Q.shape[1]} vs {C.shape[1]}")
    return Q, C


def _down32(floors: np.ndarray) -> np.ndarray:
    """float64 floors rounded down to float32, never to nearest."""
    f32 = floors.astype(np.float32)
    return np.where(f32 > floors, np.nextafter(f32, np.float32(-np.inf)), f32)


def _kept(G: np.ndarray, keep: np.ndarray, floors: np.ndarray):
    """(rows, cols), row-major, of the entries of G at or above their float64
    floor (broadcast against G), which is rounded down to float32 for the
    compare."""
    np.greater_equal(G, _down32(floors), out=keep)
    return np.divmod(np.flatnonzero(keep), G.shape[1])


def _grid(rows: np.ndarray, n: int, values: np.ndarray, fill: float):
    """(grid, starts): row i's values (given row-major) left-aligned in grid[i]
    and padded with fill, and the position in values of row i's first."""
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    grid = np.full((n, counts.max()), fill)
    grid[rows, np.arange(len(rows)) - starts[rows]] = values
    return grid, starts


def _screens(Q: np.ndarray, C: np.ndarray):
    """(Q32, C32, screen, keep): the unit rows of Q and C rounded to float32,
    and a float32 screen of up to _BLOCK_ROWS rows against C and a boolean
    mask of its shape, both reused for every block of a search."""
    shape = (min(_BLOCK_ROWS, Q.shape[0]), C.shape[0])
    return Q.astype(np.float32), C.astype(np.float32), np.empty(shape, np.float32), np.empty(shape, bool)


def _screen(buffers, rows):
    """(G, keep): the screen of the rows of Q that rows (a slice or at most
    _BLOCK_ROWS indices) selects, and the mask rows of the same count."""
    Q32, C32, screen, keep = buffers
    block = Q32[rows]
    return np.matmul(block, C32.T, out=screen[: len(block)]), keep[: len(block)]


def _row_bound(G: np.ndarray, k: int) -> np.ndarray:
    """Per row of G, the k-th largest of its strided chunk maxima, or of the
    row itself with fewer than k chunks of two or more columns: entries of
    k distinct columns are at least that large."""
    m = G.shape[1]
    bound = G
    if k <= _CHUNKS and m >= 2 * _CHUNKS:
        bound = G[:, : m - m % _CHUNKS].reshape(len(G), -1, _CHUNKS).max(axis=1)
    cut = bound.shape[1] - k
    return np.partition(bound, cut, axis=1)[:, cut].astype(np.float64)


def _check_k(k: int, *sides: np.ndarray) -> None:
    check_number("k", k, int, 1)
    for C in sides:
        if k > C.shape[0]:
            raise KTooLargeError(f"k={k} but only {C.shape[0]} candidates")


def knn(queries, candidates, k: int):
    """Exact top-k candidates by cosine for every query row.

    Returns (indices, cosines), both (n_queries, k), columns sorted by
    descending pair_cosines value with exact ties broken toward the lower
    candidate index.  Raises KTooLargeError if k exceeds the candidate count.

    Each 512-row block of queries keeps its entries with G >= L - 2 eps, L
    from _row_bound: k pair cosines are >= L - eps, so the row's top k are
    among them, and pair cosines order them.
    """
    Q, C = _unit_rows(queries, candidates)
    _check_k(k, C)
    eps, buffers = _screen_eps(Q.shape[1]), _screens(Q, C)
    idx, top = np.empty((Q.shape[0], k), dtype=np.int64), np.empty((Q.shape[0], k))
    for lo in range(0, Q.shape[0], _BLOCK_ROWS):
        G, keep = _screen(buffers, slice(lo, lo + _BLOCK_ROWS))
        r, c = _kept(G, keep, (_row_bound(G, k) - 2 * eps)[:, None])
        cos = pair_cosines(Q, C, lo + r, c)
        grid, starts = _grid(r, len(G), -cos, np.inf)  # stable: ties by column
        pick = starts[:, None] + np.argsort(grid, axis=1, kind="stable")[:, :k]
        idx[lo : lo + len(G)], top[lo : lo + len(G)] = c[pick], cos[pick]
    return idx, top


def neighborhood_means(nn_cosines: np.ndarray, k: int) -> np.ndarray:
    """Per-row neighbourhood term: sum of the k neighbour cosines / 2k."""
    return nn_cosines.sum(axis=1) / (2.0 * k)


def _column_seed(G: np.ndarray, k: int) -> np.ndarray:
    """Per column of G, the k-th largest of its maxima over q groups of
    rows (q >= k), so at least k of its entries reach it; -inf when G has
    fewer than k rows.  Only the (q, m) maxima are partitioned, never G."""
    rows, m = G.shape
    q = min(max(_COLUMN_GROUPS, k), rows)
    if k > q:
        return np.full(m, -np.inf)
    maxima = G[: rows - rows % q].reshape(q, -1, m).max(axis=1)
    maxima.partition(q - k, axis=0)
    return maxima[q - k].astype(np.float64)


def _fold(top: np.ndarray, kth: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Fold the values of the targets cols into top, (m, k) each target's k
    largest values so far (unordered, padded with -inf), and kth, the
    smallest of them."""
    if not len(cols):
        return
    k = top.shape[1]
    counts = np.bincount(cols, minlength=len(top))
    touched = np.flatnonzero(counts)
    order = np.argsort(cols)  # any order within a target will do
    slot = (np.cumsum(counts > 0) - 1)[cols[order]]
    grid, _ = _grid(slot, len(touched), values[order], -np.inf)
    merged = np.concatenate([top[touched], grid], axis=1)
    cut = merged.shape[1] - k
    merged.partition(cut, axis=1)
    top[touched], kth[touched] = merged[:, cut:], merged[:, cut]


def _search(S: np.ndarray, T: np.ndarray, k: int, K: int, buffers):
    """One screened pass over the blocks of the unit source rows S against
    the unit target rows T: (dx, dy, blocks).

    Rows: each keeps the entries at or above its float32 floor, L - 2 eps
    rounded down, L from _row_bound at K (K >= k), so its top K are among
    them.  Those that can be in its top k (G >= its k-th largest G - 2 eps)
    are rescored, and give dx.  blocks holds, per source block from lo,
    (lo, rows, cols, g, cos, floors): the kept entries (row-major, rows
    counted from lo), their screen values, their pair cosines or NaN where
    none was taken, and the rows' floors.

    Columns: each target keeps the k largest screen values of the blocks so
    far.  Its top k cosines have G >= (its k-th largest G) - 2 eps, so each
    block also keeps the entries at or above the running value less 2 eps
    (the first block's from _column_seed) and folds them in.  Once the pass
    ends, the kept entries at or above the final value less 2 eps are
    rescored, and their k largest cosines give dy.

    One compare per block finds the entries of both kinds.
    """
    n, m, eps = S.shape[0], T.shape[0], _screen_eps(S.shape[1])
    dx = np.empty(n)
    top, kth = np.full((m, k), -np.inf), np.full(m, -np.inf)
    blocks, found = [], []
    either = np.empty_like(buffers[3])
    for lo in range(0, n, _BLOCK_ROWS):
        G, keep = _screen(buffers, slice(lo, lo + _BLOCK_ROWS))
        L = _row_bound(G, K)
        row_floors = _down32(L - 2 * eps)
        col_floors = _down32((_column_seed(G, k) if lo == 0 else kth) - 2 * eps)
        np.greater_equal(G, row_floors[:, None], out=keep)
        np.greater_equal(G, col_floors, out=either[: len(G)])
        np.logical_or(keep, either[: len(G)], out=keep)
        at = np.flatnonzero(keep)
        r, c = np.divmod(at, m)
        g = G.reshape(-1)[at]

        hi, in_row = lo + len(G), g >= row_floors[r]
        rr, cc, gg = r[in_row].astype(np.int32), c[in_row].astype(np.int32), g[in_row]
        cos = np.full(len(rr), np.nan)
        grid, _ = _grid(rr, hi - lo, gg, -np.inf)
        sure = gg >= np.partition(grid, grid.shape[1] - k, axis=1)[rr, grid.shape[1] - k] - 2 * eps
        cos[sure] = pair_cosines(S, T, lo + rr[sure], cc[sure])
        grid, _ = _grid(rr[sure], hi - lo, cos[sure], -np.inf)
        dx[lo:hi] = neighborhood_means(-np.sort(-grid, axis=1)[:, :k], k)
        blocks.append((lo, rr, cc, gg, cos, row_floors))

        in_col = g >= col_floors[c]
        _fold(top, kth, c[in_col], g[in_col])
        found.append((lo * m + at[in_col], g[in_col]))
    at, g = (np.concatenate(parts) for parts in zip(*found))
    r, c = np.divmod(at[g >= kth[at % m] - 2 * eps], m)
    top[:] = -np.inf
    _fold(top, kth, c, pair_cosines(S, T, r, c))
    dy = neighborhood_means(-np.sort(-top, axis=1), k)
    return dx, dy, blocks


def neighborhoods(S, T, k: int):
    """Neighbourhood terms (dx, dy) of the rows of S (n, d) and T (m, d):
    neighborhood_means of the cosines knn(S, T, k) and knn(T, S, k) find,
    from one screened pass over S.  Raises KTooLargeError when k exceeds
    either side."""
    S, T = _unit_rows(S, T)
    _check_k(k, S, T)
    return _search(S, T, k, k, _screens(S, T))[:2]


def _zero_sum(dx: np.ndarray, dy: np.ndarray) -> bool:
    """Whether some dx_i + dy_j == 0: exactly when -dx_i == dy_j, for
    finite floats.  (np.isin would do, but its first call imports numpy.ma,
    whose memory then pins the heap above the search's buffers.)"""
    ranked = np.sort(dy)
    at = np.minimum(np.searchsorted(ranked, -dx), len(ranked) - 1)
    return bool((ranked[at] == -dx).any())


def _floors(kind: str, s, d, lowest: float, highest: float):
    """The cosine a target needs for a score of s, with denominators in
    d + [lowest, highest]: s (absolute), s + d + lowest (distance), or
    s (d + lowest), or s (d + highest) for s < 0 (ratio, every denominator
    > 0; else -inf)."""
    if kind == MARGIN_DISTANCE:
        return s + (d + lowest)
    if kind == MARGIN_RATIO:
        floors = s * (d + np.where(s < 0, highest, lowest))
        floors[d + lowest <= 0] = -np.inf
        return floors
    return s


def align(src_emb, tgt_emb, cfg: SearchConfig):
    """Best-scoring target per source row.

    Returns (indices, scores): for each source, the argmax target by margin
    score (exact ties toward the lower target index) and that score.

    One screened pass (_search) gives dx, dy and each source's entries that
    can be in its top _TOP by cosine.  Scoring them with their pair cosines,
    or with g + eps where none was taken, bounds each from above; the
    entries whose bound reaches the best exact score are rescored, and the
    first maximum is the row's pick.  A target that reaches that score has
    G >= the cosine floor of the score (_floors) less eps, so when that
    floor is at or above the row's own floor, no target the row did not
    keep can: the pick is certified.  Other rows are screened again
    (_rescan).
    """
    S, T = _unit_rows(src_emb, tgt_emb)
    k, kind = cfg.k, cfg.margin_kind
    _check_k(k, S, T)
    n, m, eps = S.shape[0], T.shape[0], _screen_eps(S.shape[1])
    buffers = _screens(S, T)
    dx, dy, blocks = _search(S, T, k, min(max(k, _TOP), m), buffers)
    best_idx, best_score = np.empty(n, dtype=np.int64), np.empty(n)
    if kind == MARGIN_RATIO and _zero_sum(dx, dy):
        raise ZeroDivisionError("ratio margin with zero denominator")
    lowest, highest = dy.min(), dy.max()
    certified = np.empty(n, dtype=bool)
    for lo, r, c, g, cos, row_floors in blocks:
        hi = lo + len(row_floors)
        d = dx[lo:hi]
        den = d[r] + dy[c]
        todo = np.isnan(cos)
        scores = margin_scores(np.where(todo, np.add(g, eps, dtype=np.float64), cos), den, kind)
        exact = np.where(todo, -np.inf, scores)
        more = todo & (scores >= _grid(r, hi - lo, exact, -np.inf)[0].max(axis=1)[r])
        if kind == MARGIN_RATIO:
            more |= todo & (d + lowest <= 0)[r]  # g + eps bounds no score there
        scores[more] = margin_scores(pair_cosines(S, T, lo + r[more], c[more]), den[more], kind)
        grid, starts = _grid(r, hi - lo, scores, -np.inf)
        pick = starts + np.argmax(grid, axis=1)  # first max: lowest index
        best_idx[lo:hi], best_score[lo:hi] = c[pick], scores[pick]
        # certified: a rescan of the row would keep nothing it has not kept
        floors = _floors(kind, best_score[lo:hi], d, lowest, highest) - eps
        certified[lo:hi] = (row_floors <= _down32(floors)) | (np.bincount(r, minlength=hi - lo) == m)
    rescan = np.flatnonzero(~certified)
    for lo in range(0, len(rescan), _BLOCK_ROWS):
        rows = rescan[lo : lo + _BLOCK_ROWS]
        best_idx[rows], best_score[rows] = _rescan(S, T, buffers, rows, dx, dy, best_score[rows], kind)
    return best_idx, best_score


def _rescan(S, T, buffers, rows, dx, dy, s, kind: str):
    """(indices, scores) of the best-scoring targets of the source rows
    `rows` (at most _BLOCK_ROWS), given scores s they reach: the screen of
    those rows keeps every G >= the cosine floor (_floors) of s, less eps,
    and margin scores decide."""
    G, keep = _screen(buffers, rows)
    d = dx[rows]
    floors = _floors(kind, s, d, dy.min(), dy.max()) - _screen_eps(S.shape[1])
    r, c = _kept(G, keep, floors[:, None])
    scores = margin_scores(pair_cosines(S, T, rows[r], c), d[r] + dy[c], kind)
    grid, starts = _grid(r, len(rows), scores, -np.inf)
    pick = starts + np.argmax(grid, axis=1)
    return c[pick], scores[pick]


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
