"""Per-row oracle for ``encoder.encode_masked``.

Each sentence is featurized on its own (``featurize_batch`` of the one
sentence) and projected by the plain sequential sum z = z + c * W[i] over
its ascending bucket indices, then divided by its norm.  The package hashes
in chunks of characters and projects whole groups of rows one feature
column at a time; a different summation order would show in the last bits,
so the tests compare with ``np.array_equal``.
"""

import numpy as np

from bitextkit.encoder import _distinct, featurize_batch
from bitextkit.vectors import ZERO_NORM_EPS


def embed(params, sentence):
    """(row, ok) of one sentence, as ``encode_masked`` gives them."""
    _, indices, counts = featurize_batch([sentence], params.featurizer)
    z = np.zeros(params.dim)
    for i, c in zip(indices.tolist(), counts.tolist()):
        z = z + c * params.weights[i]
    # the norm of a matrix row: the 1-D norm takes a dot product, whose
    # bits differ from the row reduction's
    norm = np.linalg.norm(z[None, :], axis=1)[0]
    if norm > ZERO_NORM_EPS:
        return z / norm, True
    return np.zeros(params.dim), False


def pair_products(W, nnz, ind, cnt):
    """``encoder._pair_products`` in two dedupes: the distinct counts
    first, then the distinct (count rank, bucket) keys.  Count to rank is
    monotone, so the keys sort as (count, bucket) keys do and both forms
    give the same slots and products."""
    B = W.shape[0]
    counts, key = _distinct(cnt, int(cnt.max(initial=0)) + 1)
    key = key.astype(np.int32 if counts.size * B <= 2**31 else np.int64) * B + ind
    pairs, slot = _distinct(key, counts.size * B)
    count_of = pairs // B
    products = W[pairs - count_of * B]
    products *= counts.astype(np.float64)[count_of, None]
    return nnz, slot, products
