"""Exhaustive oracle for ``margin.knn``, ``margin.align`` and the
neighbourhood terms (dx, dy) of ``margin._search``, the screened pass that
``align`` and ``margin.aligned_scores`` make; built on
``margin.pair_cosines``.

Every query-candidate cosine is a ``pair_cosines`` value, taken for every
query row against every candidate.  Neighbourhoods are each whole row's k
largest values in descending order, and picks come from an argmax over
every target's margin score.  The package screens with float32 GEMMs and
rescores only the entries its error bound keeps, so any entry it wrongly
rules out changes a pick, a score or a neighbourhood term, and the tests
compare with ``np.array_equal``.
"""

import numpy as np

from bitextkit.margin import margin_scores, neighborhood_means, pair_cosines
from bitextkit.vectors import normalize_rows


def cosines(Q, C):
    """(n, m) pair_cosines of every unit row of Q against every one of C,
    about 2^18 pairs per call (a value's bits depend only on its two rows)."""
    n, m = Q.shape[0], C.shape[0]
    step = max(1, (1 << 18) // m)
    out = np.empty((n, m))
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        pairs = np.repeat(rows, m), np.tile(np.arange(m), len(rows))
        out[rows] = pair_cosines(Q, C, *pairs).reshape(len(rows), m)
    return out


def knn(queries, candidates, k):
    """(indices, cosines) of each query's k best candidates, as ``margin.knn``:
    a stable descending sort of each row."""
    cos = cosines(normalize_rows(queries), normalize_rows(candidates))
    idx = np.argsort(-cos, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(cos, idx, axis=1)


def _means(cos, k):
    """neighborhood_means of each row's k largest values, in descending order:
    a partition finds them and only they are sorted.

    The rows are made contiguous first, so that each row's k values add up
    in the order knn's (n, k) rows do (a column-major copy would add them
    one rank at a time instead)."""
    cut = cos.shape[1] - k
    top = np.partition(np.ascontiguousarray(cos), cut, axis=1)[:, cut:]
    return neighborhood_means(-np.sort(-top, axis=1), k)


def search(src_emb, tgt_emb, k):
    """(cos, dx, dy): every source-target cosine and the neighbourhood
    terms, as one pass of ``margin._search`` finds them (``dx + dy`` at
    the diagonal's cosines gives ``margin.aligned_scores``).

    A pair's cosine has the same bits with its rows in either order, so
    the targets' neighbourhoods come from the transposed matrix."""
    cos = cosines(normalize_rows(src_emb), normalize_rows(tgt_emb))
    return cos, _means(cos, k), _means(cos.T, k)


def picks(cos, dx, dy, kind):
    """(indices, scores) of each source's best-scoring target over a
    search's cosines and terms, as ``margin.align`` returns them."""
    scores = margin_scores(cos, dx[:, None] + dy[None, :], kind)
    best = np.argmax(scores, axis=1)
    return best, scores[np.arange(len(best)), best]
