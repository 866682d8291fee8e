"""Bitwise oracle for ``margin.neighborhoods`` and ``margin.align``.

This is the blocked search the package used before it kept a running
per-target threshold: every 1,024-row block of S @ T.T is clipped whole,
its rows' top k come from a copying partition, its columns' top k from a
partition of the strided transpose, and the scoring pass builds a fresh
denominator block.  The package must return the same picks and scores
bit for bit, so the tests compare with ``np.array_equal``.
"""

import numpy as np

from bitextkit.margin import margin_scores, neighborhood_means
from bitextkit.vectors import normalize_rows

BLOCK_ROWS = 1024


def _top_values(a, k):
    cut = a.shape[1] - k
    return -np.sort(-np.partition(a, cut, axis=1)[:, cut:], axis=1)


def _blocks(n):
    return [(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)]


def neighborhoods(S, T, k):
    """(dx, dy) of unit-norm rows S and T, as ``margin.neighborhoods``."""
    fwd = np.empty((S.shape[0], k))
    bwd = []
    for lo, hi in _blocks(S.shape[0]):
        cos = np.clip(S[lo:hi] @ T.T, -1.0, 1.0)
        fwd[lo:hi] = _top_values(cos, k)
        bwd.append(_top_values(cos.T, min(k, hi - lo)))
    dy = neighborhood_means(_top_values(np.concatenate(bwd, axis=1), k), k)
    return neighborhood_means(fwd, k), dy


def align(src_emb, tgt_emb, cfg):
    """(indices, scores) of the best-scoring target, as ``margin.align``."""
    S, T = normalize_rows(src_emb), normalize_rows(tgt_emb)
    dx, dy = neighborhoods(S, T, cfg.k)
    n = S.shape[0]
    best_idx = np.empty(n, dtype=np.int64)
    best_score = np.empty(n)
    for lo, hi in _blocks(n):
        cos = np.clip(S[lo:hi] @ T.T, -1.0, 1.0)
        scores = margin_scores(cos, dx[lo:hi, None] + dy[None, :], cfg.margin_kind)
        picks = np.argmax(scores, axis=1)
        best_idx[lo:hi] = picks
        best_score[lo:hi] = scores[np.arange(hi - lo), picks]
    return best_idx, best_score
