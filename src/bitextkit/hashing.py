"""Seeded 64-bit hashing of character n-grams into feature buckets.

The hash of an n-gram is FNV-1a (64-bit) over its UTF-8 bytes with the
seed XOR'd into the offset basis, passed through the murmur3 fmix64
avalanche, then reduced modulo the bucket count:

    h = 14695981039346656037 ^ (seed & (2^64-1))
    for each byte b:  h = ((h ^ b) * 1099511628211) mod 2^64
    h = fmix64(h);    bucket = h mod n_buckets

``bucket_ids`` hashes every n-gram of a list of texts at once: NumPy's
uint64 arithmetic wraps mod 2^64 exactly as the recipe does, and the loop
runs over byte positions within an n-gram, not over n-grams.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = np.uint64(1099511628211)
_FMIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)


def _fmix64(h: np.ndarray) -> np.ndarray:
    h ^= h >> _SHIFT
    h *= _FMIX_1
    h ^= h >> _SHIFT
    h *= _FMIX_2
    h ^= h >> _SHIFT
    return h


def bucket_ids(
    texts: list[str], orders: tuple[int, ...], n_buckets: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids of all character n-grams of every text, one per occurrence.

    Returns ``(ids, bounds)``: the ids of ``texts[i]`` are
    ``ids[bounds[i]:bounds[i + 1]]``, ordered by ascending n-gram order,
    then by position.  Texts are hashed as-is (callers add sentinels);
    orders below 1 or above a text's character length contribute nothing.
    ids are int64 in [0, n_buckets), deterministic for fixed arguments.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    n_chars = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    longest = int(n_chars.max(initial=0))  # a longer order has no n-grams
    orders = sorted({int(o) for o in orders if 1 <= int(o) <= longest})
    data = "".join(texts).encode("utf-8")
    raw = np.frombuffer(data, dtype=np.uint8)
    # byte offset of each character: characters start at every byte that is
    # not a UTF-8 continuation byte (0b10xxxxxx)
    offsets = np.append(np.flatnonzero((raw & 0xC0) != 0x80), len(data))

    # per_order[j, i]: n-grams of order orders[j] in texts[i]
    per_order = np.maximum(n_chars - np.array(orders, dtype=np.int64)[:, None] + 1, 0)
    bounds = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(per_order.sum(axis=0), out=bounds[1:])
    first_char = np.cumsum(n_chars) - n_chars
    ids = np.empty(int(bounds[-1]), dtype=np.int64)
    basis = np.uint64(_FNV_OFFSET ^ (int(seed) & _MASK))
    # where each text's block of the current order begins in ``ids``
    dest_base = bounds[:-1].copy()
    for order, counts in zip(orders, per_order):
        skip = np.cumsum(counts) - counts  # n-gram k is number k - skip[i] of text i
        k = np.arange(int(counts.sum()))
        start_char = k + np.repeat(first_char - skip, counts)
        start = offsets[start_char]
        length = offsets[start_char + order] - start
        h = np.full(k.size, basis, dtype=np.uint64)
        for j in range(order):  # every n-gram has at least ``order`` bytes
            h ^= raw[start + j]
            h *= _FNV_PRIME
        for j in range(order, int(length.max(initial=0))):  # j-th byte, if any
            live = length > j
            byte = raw[np.where(live, start + j, 0)]
            h = np.where(live, (h ^ byte) * _FNV_PRIME, h)
        buckets = _fmix64(h) % np.uint64(n_buckets)
        ids[k + np.repeat(dest_base - skip, counts)] = buckets.astype(np.int64)
        dest_base += counts
    return ids, bounds


def ngram_bucket_ids(
    text: str, orders: tuple[int, ...], n_buckets: int, seed: int
) -> np.ndarray:
    """Bucket ids of all character n-grams of one text (see bucket_ids)."""
    return bucket_ids([text], orders, n_buckets, seed)[0]
