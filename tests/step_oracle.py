"""Bitwise oracle for the training step's bookkeeping in ``bitextkit.trainer``.

These are the step's three routines as the package wrote them before it
cut their overheads: the bucket dedupe by ``np.unique``, the masked
softmax that writes -inf into the disallowed logits before ``exp``, and
the equalizer that scatters an ``argpartition`` of the keys into a
keep-mask.  The package must return the same arrays bit for bit, so the
tests compare with ``np.array_equal`` and train with these routines
patched in.
"""

import numpy as np

from bitextkit.errors import AllFilteredError, DimMismatchError


def unique_buckets(idx, size=None):
    """(u, inv) of the step's bucket dedupe, ``encoder._distinct``; ``size``
    (the bucket count) is not used."""
    u, inv = np.unique(idx, return_inverse=True)
    return u, inv.reshape(idx.shape)


def masked_infonce(q, k, candidates, allowed, tau):
    """(losses, dq) of ``trainer._masked_infonce``."""
    l_pos = np.einsum("bd,bd->b", q, k) / tau
    l_neg = (q @ candidates.T) / tau
    if allowed is not None:
        np.copyto(l_neg, -np.inf, where=~allowed)
    peak = np.maximum(l_pos, l_neg.max(axis=1))
    e_pos = np.exp(l_pos - peak)
    e_neg = np.exp(l_neg - peak[:, None])
    denom = e_pos + e_neg.sum(axis=1)
    losses = np.log(denom) + peak - l_pos
    p_neg = e_neg / denom[:, None]
    return losses, ((e_pos / denom - 1.0)[:, None] * k + p_neg @ candidates) / tau


def equalize_negatives(mask, rng):
    """The keep-mask of ``trainer.equalize_negatives``."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise DimMismatchError("mask must be 2-D (batch x pool)")
    sizes = mask.sum(axis=1)
    m_min = int(sizes.min()) if sizes.size else 0
    if m_min == 0:
        bad = int(np.argmin(sizes)) if sizes.size else 0
        raise AllFilteredError(f"sample {bad} has no surviving negatives")
    keys = rng.random(mask.shape)
    keys[~mask] = np.inf
    chosen = np.argpartition(keys, m_min - 1, axis=1)[:, :m_min]
    keep = np.zeros_like(mask)
    np.put_along_axis(keep, chosen, True, axis=1)
    return keep
