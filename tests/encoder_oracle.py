"""Per-row oracle for ``encoder.encode_masked``.

Each sentence is featurized on its own (``encoder.featurize``) and projected
by the plain sequential sum z = z + c * W[i] over its ascending bucket
indices, then divided by its norm.  The package hashes in chunks of
characters and projects whole groups of rows one feature column at a time;
a different summation order would show in the last bits, so the tests
compare with ``np.array_equal``.
"""

import numpy as np

from bitextkit.encoder import featurize
from bitextkit.vectors import ZERO_NORM_EPS


def embed(params, sentence):
    """(row, ok) of one sentence, as ``encode_masked`` gives them."""
    feats = featurize(sentence, params.featurizer)
    z = np.zeros(params.dim)
    for i, c in zip(feats.indices.tolist(), feats.counts.tolist()):
        z = z + c * params.weights[i]
    # the norm of a matrix row: the 1-D norm takes a dot product, whose
    # bits differ from the row reduction's
    norm = np.linalg.norm(z[None, :], axis=1)[0]
    if norm > ZERO_NORM_EPS:
        return z / norm, True
    return np.zeros(params.dim), False
