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

# rows per block, the unit of _rank_rows, the certificate and _search's
# kept entries: 1,024-row blocks (a 20 MB screen at m = 5,000, freed after
# each search) lifted glibc's dynamic mmap threshold, and the heap it then
# kept raised the mine benchmark's peak RSS from 176 to 207 MiB
_BLOCK_ROWS = 512
# float32 values per screen tile (2.5 MiB), so the screen does not grow
# with the target count.  A block is screened in slices of as many rows as
# fill a tile (_slice_rows): 128-row slices of the filter benchmark's 2,996
# targets freed a smaller buffer, which left glibc's dynamic mmap threshold
# lower, and the encoding that follows the search took 2,570 more page
# faults per operation
_TILE_VALUES = 128 * 5120
# columns per screen tile, a multiple of _CHUNKS.  Up to _TILE_COLS targets
# a slice is one tile of whole rows: its row floors are final at once, its
# kept entries need no cut or re-sort, and rows wider than 4,096 values
# compare outside NumPy's ufunc buffer.  On the mine benchmark's embeddings
# (m = 5,000) _search's row bound took 15.6-16.7 ms in 512 x 1,280 tiles
# and 12.2-13.4 ms in slices of whole rows, its compares 17.1-18.1 and
# 11.0-12.3 ms, its join of tiles 3.9-4.1 and 0.2-0.3 ms
_TILE_COLS = 5120
# strided chunks per row whose maxima bound its k-th largest screen value:
# 128 bound as tightly as 16, and NumPy reduces them three times faster
_CHUNKS = 128
# row groups whose column maxima seed each target's bound in the first block
_COLUMN_GROUPS = 64
# entries per source row kept for its pick: with more, fewer rows need a
# second screen (_rescan), but every row scores more; align times on the
# mine benchmark's embeddings are flat from 8 to 32 and slower at 4 and 64
_TOP = 16
# float64 values gathered from each side per pair_cosines chunk (256 KiB):
# 100,000 pairs at d = 64 took 17.6 ms in 2^15-value chunks and 20.4 ms in
# 2^13 or 2^17, and 2^17 (1 MiB a side) lifted every search's traced peak
_GATHER = 1 << 15
# the target of a row that keeps no entry
_NONE = np.iinfo(np.int64).max


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
    """(rows, cols), row-major, of the entries of G at or above their float32
    floor (broadcast against G)."""
    np.greater_equal(G, floors, out=keep)
    return np.divmod(np.flatnonzero(keep), G.shape[1])


def _grid(rows: np.ndarray, n: int, values: np.ndarray, fill: float):
    """(grid, starts): row i's values (given row-major) left-aligned in grid[i]
    and padded with fill, and the position in values of row i's first."""
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    grid = np.full((n, counts.max()), fill)
    grid[rows, np.arange(len(rows)) - starts[rows]] = values
    return grid, starts


def _slice_rows(m: int) -> int:
    """Rows per screen slice against m targets: as many as fill a tile, up
    to a whole block."""
    return min(_BLOCK_ROWS, _TILE_VALUES // min(m, _TILE_COLS))


def _screens(Q: np.ndarray, C: np.ndarray):
    """(Q, C32, tile, keep, either): the unit rows of Q, those of C rounded
    to float32, and room for one float32 screen tile of up to _TILE_VALUES
    values, at most a block's rows by _TILE_COLS columns, and two boolean
    masks of its shape, all reused for every tile of a search.  _tiles
    rounds the query rows of each block as it screens them, so no float32
    copy of all of Q is held."""
    size = min(min(_BLOCK_ROWS, Q.shape[0]) * min(_TILE_COLS, C.shape[0]), _TILE_VALUES)
    return Q, C.astype(np.float32), *(np.empty(size, t) for t in (np.float32, bool, bool))


def _tiles(buffers, rows):
    """The screen of the rows of Q that rows (a slice or at most
    _BLOCK_ROWS indices) selects, in ascending column tiles and, within
    each, in slices of _slice_rows rows: (r0, c0, G, keep, either), G the
    tile of the slice from row r0 (counted from rows' first) against the
    targets from c0 on, and two masks of its shape.  With at most
    _TILE_COLS targets, each slice is one tile of whole rows."""
    Q, C32, *flat = buffers
    block, height = Q[rows].astype(np.float32), _slice_rows(len(C32))
    for c0 in range(0, len(C32), _TILE_COLS):
        cols = C32[c0 : c0 + _TILE_COLS]
        for r0 in range(0, len(block), height):
            part = block[r0 : r0 + height]
            G, keep, either = (b[: len(part) * len(cols)].reshape(len(part), -1) for b in flat)
            yield r0, c0, np.matmul(part, cols.T, out=G), keep, either


class _RowBound:
    """Per row of a block screened tile by tile, the k-th largest of its
    strided chunk maxima, or of the row itself with fewer than k chunks of
    two or more columns: entries of k distinct columns are at least that
    large.  Chunk j holds the columns congruent to j mod _CHUNKS before the
    last whole chunk, so tiles that start at multiples of _CHUNKS merge by
    elementwise max; a whole row keeps its k largest values so far."""

    def __init__(self, m: int, k: int):
        self.k, self.values = k, {}
        self.edge = m - m % _CHUNKS if k <= _CHUNKS and m >= 2 * _CHUNKS else None

    def add(self, r0: int, c0: int, G: np.ndarray) -> np.ndarray:
        """Fold in the tile G of the slice from row r0 against the targets
        from c0 on, and return its rows' bound so far (float64; -inf while
        a row has fewer than k values): never above the final one, which
        the slice's last tile returns."""
        values = self.values.get(r0)
        if values is None:
            width = 0 if self.edge is None else _CHUNKS
            values = self.values[r0] = np.full((len(G), width), -np.inf, np.float32)
        if self.edge is None:
            merged = np.concatenate([values, G], axis=1)
        else:
            whole = min(G.shape[1], self.edge - c0)
            if whole > 0:
                chunks = G[:, :whole].reshape(len(G), -1, _CHUNKS).max(axis=1)
                np.maximum(values, chunks, out=values)
            merged = values
        cut = merged.shape[1] - self.k
        if cut < 0:
            self.values[r0] = merged
            return np.full(len(G), -np.inf)
        if self.edge is not None:  # NumPy sorts 128 values faster than it partitions them
            return np.sort(merged, axis=1)[:, cut].astype(np.float64)
        merged = np.partition(merged, cut, axis=1)
        self.values[r0] = merged[:, cut:]
        return merged[:, cut].astype(np.float64)


def _row_major(parts, m: int, floors=None):
    """The entries kept from each tile of a block's screen against m
    targets, a (rows, cols, ...) tuple of arrays per tile, each tile's
    row-major, joined in row-major order (ascending target within a row).
    With one column tile the slices ascend and are joined as they are;
    with several, the entries are first cut to those whose value (parts'
    third array) is at or above their row's float32 floor, when floors are
    given, and then stably sorted by row."""
    joined = [np.concatenate(a) for a in zip(*parts)]
    if m <= _TILE_COLS:
        return joined
    if floors is not None:
        at = joined[2] >= floors[joined[0]]
        joined = [a[at] for a in joined]
    order = np.argsort(joined[0], kind="stable")
    return [a[order] for a in joined]


def _rank_rows(S, T, r, c, g, k: int, eps: float):
    """(cos, pick): the k nearest targets of each source row of a block S,
    among its kept entries (rows r, targets c, screen values g; row-major,
    at least k per row).

    Only the entries that can be in a row's top k are rescored: the k
    entries at or above its k-th largest G have pair cosines >= that G -
    eps, so any entry whose cosine reaches theirs has G >= the k-th largest
    G - 2 eps.  cos holds those entries' pair_cosines values and NaN
    elsewhere; pick (len(S), k) holds each row's top-k positions in r, by
    descending cosine, exact ties toward the lower target.
    """
    kth = np.partition(_grid(r, len(S), g, -np.inf)[0], -k, axis=1)[:, -k]
    sure = np.flatnonzero(g >= kth[r] - 2 * eps)
    cos = np.full(len(r), np.nan)
    cos[sure] = pair_cosines(S, T, r[sure], c[sure])
    grid, starts = _grid(r[sure], len(S), -cos[sure], np.inf)  # stable: ties by target
    return cos, sure[starts[:, None] + np.argsort(grid, axis=1, kind="stable")[:, :k]]


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
    from _RowBound: k entries have G >= L, so a row's top k by cosine have
    G >= L - 2 eps, and _rank_rows ranks what it keeps.  Each tile keeps
    what reaches its rows' bound so far less 2 eps, which is never above
    the final one, and the block's end cuts them to that.
    """
    Q, C = _unit_rows(queries, candidates)
    _check_k(k, C)
    eps, buffers = _screen_eps(Q.shape[1]), _screens(Q, C)
    idx, top = np.empty((Q.shape[0], k), dtype=np.int64), np.empty((Q.shape[0], k))
    for lo in range(0, Q.shape[0], _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, Q.shape[0])
        bound, kept, floors = _RowBound(C.shape[0], k), [], np.empty(hi - lo, np.float32)
        for r0, c0, G, keep, _ in _tiles(buffers, slice(lo, hi)):
            rows = slice(r0, r0 + len(G))
            floors[rows] = _down32(bound.add(r0, c0, G) - 2 * eps)
            r, c = _kept(G, keep, floors[rows, None])
            kept.append((r0 + r, c0 + c, G[r, c]))
        r, c, g = _row_major(kept, C.shape[0], floors)  # each slice's last floors are final
        cos, pick = _rank_rows(Q[lo:hi], C, r, c, g, k, eps)
        idx[lo:hi], top[lo:hi] = c[pick], cos[pick]
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
    rounded down, L from _RowBound at K (K >= k), so its top K are among
    them, and _rank_rows finds its top k, which give dx.  Each tile keeps
    what reaches its rows' floors so far, never above the final ones, and
    the block's end cuts them to those.  blocks holds, per source block
    from lo, (lo, rows, cols, g, cos, floors): the kept entries (row-major,
    rows counted from lo), their screen values, their pair cosines or NaN
    where none was taken, and the rows' floors.

    Columns: each target keeps the k largest screen values folded in so
    far.  Its top k cosines have G >= (its k-th largest G) - 2 eps, so each
    tile also keeps the entries at or above its targets' value less 2 eps
    and folds them in.  A block folds a column tile's entries once, after
    its last slice, and compares every slice with the values of the
    block's start; the first block folds each slice at once, so that only
    its first slice needs a value from _column_seed.  Once the pass ends,
    the kept entries at or above the final value less 2 eps are rescored,
    and their k largest cosines give dy.

    One compare per tile finds the entries of both kinds.
    """
    n, m, eps = S.shape[0], T.shape[0], _screen_eps(S.shape[1])
    dx = np.empty(n)
    top, kth = np.full((m, k), -np.inf), np.full(m, -np.inf)
    blocks, found = [], [[] for _ in range(0, m, _TILE_COLS)]
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        bound, kept, row_floors = _RowBound(m, K), [], np.empty(hi - lo, np.float32)
        for r0, c0, G, keep, either in _tiles(buffers, slice(lo, hi)):
            cols, rows = slice(c0, c0 + G.shape[1]), slice(r0, r0 + len(G))
            if not (lo and r0):  # see Columns above
                col_floors = _down32((kth[cols] if lo + r0 else _column_seed(G, k)) - 2 * eps)
                pending = []
            floors = row_floors[rows] = _down32(bound.add(r0, c0, G) - 2 * eps)
            np.greater_equal(G, floors[:, None], out=keep)
            np.greater_equal(G, col_floors, out=either)
            np.logical_or(keep, either, out=keep)
            at = np.flatnonzero(keep)
            r, c = np.divmod(at, G.shape[1])
            g = G.reshape(-1)[at]
            in_row = g >= floors[r]
            kept.append((r0 + r[in_row], c0 + c[in_row], g[in_row]))
            in_col = g >= col_floors[c]
            pending.append(((lo + r0) * G.shape[1] + at[in_col], g[in_col]))
            if not lo or rows.stop == hi - lo:
                at, g = (np.concatenate(a) for a in zip(*pending))
                _fold(top[cols], kth[cols], at % G.shape[1], g)
                found[c0 // _TILE_COLS].append((at, g))
        rr, cc, gg = _row_major(kept, m, row_floors)  # each slice's last floors are final
        rr, cc = rr.astype(np.int32), cc.astype(np.int32)
        cos, pick = _rank_rows(S[lo:hi], T, rr, cc, gg, k, eps)
        dx[lo:hi] = neighborhood_means(cos[pick], k)
        blocks.append((lo, rr, cc, gg, cos, row_floors))
    # each fold's candidates are cut to the final floors, rescored and
    # folded again on their own, so no step holds all of a column tile's
    floors = kth - 2 * eps
    top[:] = -np.inf
    for c0, tile in zip(range(0, m, _TILE_COLS), found):
        cols = slice(c0, c0 + _TILE_COLS)
        width = len(floors[cols])
        for at, g in tile:
            r, c = np.divmod(at[g >= floors[cols][at % width]], width)
            _fold(top[cols], kth[cols], c, pair_cosines(S, T, r, c0 + c))
    dy = neighborhood_means(-np.sort(-top, axis=1), k)
    return dx, dy, blocks


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


def _first_max(r, n: int, c, scores):
    """(targets, scores) of the first maximum of each of n rows' entries
    (rows r, targets c, given row-major): exact ties go to the lower
    target, and a row without entries gets (_NONE, -inf)."""
    idx, best = np.full(n, _NONE), np.full(n, -np.inf)
    if len(r):
        grid, starts = _grid(r, n, scores, -np.inf)
        pick = (starts + np.argmax(grid, axis=1))[np.bincount(r, minlength=n) > 0]
        idx[r[pick]], best[r[pick]] = c[pick], scores[pick]
    return idx, best


def _keep_better(best_idx, best_score, rows, idx, scores) -> None:
    """Replace the picks of rows by (idx, scores) where those score higher,
    or equal at a lower target."""
    now = best_score[rows]
    better = (scores > now) | ((scores == now) & (idx < best_idx[rows]))
    best_idx[rows[better]], best_score[rows[better]] = idx[better], scores[better]


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
    keep can: the pick is certified.

    The floor is lowest at the target of lowest dy, so a few targets of low
    dy decide it.  The other rows are screened once against D, the targets
    of lowest dy (_low_cut); every D entry that can reach a row's best
    score is rescored and merged into its pick, and the row's floor is
    taken again over the targets outside D.  Ratio rows with d + min dy <=
    0 skip this.  Rows still uncertified are screened again (_rescan) at
    that floor, and their picks merged likewise.
    """
    S, T = _unit_rows(src_emb, tgt_emb)
    k, kind = cfg.k, cfg.margin_kind
    _check_k(k, S, T)
    n, m, eps = S.shape[0], T.shape[0], _screen_eps(S.shape[1])
    buffers = _screens(S, T)
    dx, dy, blocks = _search(S, T, k, min(max(k, _TOP), m), buffers)
    if kind == MARGIN_RATIO and _zero_sum(dx, dy):
        raise ZeroDivisionError("ratio margin with zero denominator")
    best_idx, best_score = np.empty(n, dtype=np.int64), np.empty(n)
    row_floors, whole = np.empty(n, np.float32), np.empty(n, dtype=bool)
    lowest, highest = dy.min(), dy.max()
    for lo, r, c, g, cos, floors in blocks:
        hi = lo + len(floors)
        d = dx[lo:hi]
        den = d[r] + dy[c]
        todo = np.isnan(cos)
        scores = margin_scores(np.where(todo, np.add(g, eps, dtype=np.float64), cos), den, kind)
        exact = np.where(todo, -np.inf, scores)
        more = todo & (scores >= _grid(r, hi - lo, exact, -np.inf)[0].max(axis=1)[r])
        if kind == MARGIN_RATIO:
            more |= todo & (d + lowest <= 0)[r]  # g + eps bounds no score there
        scores[more] = margin_scores(pair_cosines(S, T, lo + r[more], c[more]), den[more], kind)
        best_idx[lo:hi], best_score[lo:hi] = _first_max(r, hi - lo, c, scores)
        row_floors[lo:hi], whole[lo:hi] = floors, np.bincount(r, minlength=hi - lo) == m
    # certified: a rescan of the row would keep nothing it has not kept
    need = _floors(kind, best_score, dx, lowest, highest) - eps
    rows = np.flatnonzero(~whole & (row_floors > _down32(need)))
    bounded = rows[need[rows] > -np.inf]
    low, above = _low_cut(kind, dy, best_score[bounded], dx[bounded], row_floors[bounded], eps)
    if len(low):
        subset = (S, buffers[1][low], *buffers[2:])
        for lo in range(0, len(bounded), _BLOCK_ROWS):
            part = bounded[lo : lo + _BLOCK_ROWS]
            found = _rescan(S, T, subset, part, dx, dy, need[part], kind, targets=low)
            _keep_better(best_idx, best_score, part, *found)
        need[bounded] = _floors(kind, best_score[bounded], dx[bounded], above, highest) - eps
        rows = rows[row_floors[rows] > _down32(need[rows])]
    for lo in range(0, len(rows), _BLOCK_ROWS):
        part = rows[lo : lo + _BLOCK_ROWS]
        found = _rescan(S, T, buffers, part, dx, dy, need[part], kind)
        _keep_better(best_idx, best_score, part, *found)
    return best_idx, best_score


def _low_cut(kind: str, dy, s, d, row_floors, eps: float):
    """(D, above): the targets of lowest dy that uncertified rows (best
    scores s, terms d, float32 floors) are screened against, ascending,
    and the lowest dy outside them.  Of D's sizes m / 2, m / 4, ... 1 (at
    most _TILE_COLS), or none, the one that minimizes len(s) |D| + m
    (rows still uncertified), the columns the screens of the rows cost."""
    m = len(dy)
    if not len(s):
        return np.arange(0), None
    order = np.argsort(dy, kind="stable")
    ranked = dy[order]
    best, cost = 0, m * len(s)
    for t in m >> np.arange(1, m.bit_length()):
        if t > _TILE_COLS:
            continue
        fail = (row_floors > _down32(_floors(kind, s, d, ranked[t], ranked[-1]) - eps)).sum()
        if len(s) * t + m * fail < cost:
            best, cost = t, len(s) * t + m * fail
    return np.sort(order[:best]), ranked[best]


def _rescan(S, T, buffers, rows, dx, dy, floors, kind: str, targets=None):
    """(indices, scores) of the best-scoring targets of the source rows
    `rows` (at most _BLOCK_ROWS) among all targets, or among the ascending
    indices `targets` whose float32 rows buffers holds: each tile of the
    screen of those rows keeps every G >= floors, the cosine floors
    (_floors) of the scores they reach less eps, and margin scores decide
    (_first_max)."""
    floors, kept = _down32(floors)[:, None], []
    for r0, c0, G, keep, _ in _tiles(buffers, rows):
        r, c = _kept(G, keep, floors[r0 : r0 + len(G)])
        kept.append((r0 + r, c0 + c))
    r, c = _row_major(kept, len(buffers[1]))
    if targets is not None:
        c = targets[c]
    scores = margin_scores(pair_cosines(S, T, rows[r], c), dx[rows][r] + dy[c], kind)
    return _first_max(r, len(rows), c, scores)


def _check_aligned(S, T) -> None:
    """Aligned sides (row i with row i) must match in size."""
    if len(S) != len(T):
        raise SizeMismatchError(f"aligned sets must match in size: {len(S)} vs {len(T)}")


def aligned_scores(src_emb, tgt_emb, cfg: SearchConfig) -> np.ndarray:
    """Margin score of each aligned pair, with the bits align gives it: dx
    and dy from one screened pass (_search).  Raises KTooLargeError when k
    exceeds the row count."""
    _check_aligned(src_emb, tgt_emb)
    S, T = _unit_rows(src_emb, tgt_emb)
    _check_k(cfg.k, S)
    dx, dy = _search(S, T, cfg.k, cfg.k, _screens(S, T))[:2]
    rows = np.arange(len(S))
    return margin_scores(pair_cosines(S, T, rows, rows), dx + dy, cfg.margin_kind)


def _count_errors(src_emb, tgt_emb, cfg: SearchConfig) -> tuple[int, int]:
    """(n, errors): how many of n aligned sources pick a target other than
    their own (row i of the sources is aligned with row i of the targets)."""
    S, T = np.asarray(src_emb), np.asarray(tgt_emb)
    _check_aligned(S, T)
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
