"""Seeded 64-bit hashing of character n-grams into feature buckets.

The hash of an n-gram is FNV-1a (64-bit) over its UTF-8 bytes with the
seed XOR'd into the offset basis, passed through the murmur3 fmix64
avalanche, then reduced modulo the bucket count:

    h = 14695981039346656037 ^ (seed & (2^64-1))
    for each byte b:  h = ((h ^ b) * 1099511628211) mod 2^64
    h = fmix64(h);    bucket = h mod n_buckets

``bucket_ids`` hashes every n-gram of a list of texts at once: NumPy's
uint64 arithmetic wraps mod 2^64 exactly as the recipe does, and the loop
runs over byte positions within an n-gram, not over n-grams.  It returns
the ids order by order, each with the index of its text, rather than
scattering them into a per-text layout, and reduces h mod n_buckets as
h - (h // n_buckets) * n_buckets, which NumPy computes without a hardware
divide.
"""

from __future__ import annotations

import numpy as np

from .errors import check_number

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

    Returns ``(ids, text)``: ``ids[j]`` is the bucket of an n-gram of
    ``texts[text[j]]``.  They are ordered by ascending n-gram order, then by
    text, then by position, so ``ids[text == i]`` are the ids of
    ``texts[i]`` by order, then position.  Texts are hashed as-is (callers
    add sentinels); orders below 1 or above a text's character length
    contribute nothing.  ids are int64 in [0, n_buckets), deterministic for
    fixed arguments; text is int32 (int64 past 2^31 texts).
    """
    check_number("n_buckets", n_buckets, int, 1)
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
    index = np.arange(len(texts), dtype=np.int32 if len(texts) <= 2**31 else np.int64)
    text = np.repeat(np.tile(index, len(orders)), per_order.ravel())
    ids = np.empty(text.size, dtype=np.uint64)
    first_char = np.cumsum(n_chars) - n_chars
    basis = np.uint64(_FNV_OFFSET ^ (int(seed) & _MASK))
    n = np.uint64(n_buckets)
    lo = 0
    for order, counts in zip(orders, per_order):
        hi = lo + int(counts.sum())
        skip = np.cumsum(counts) - counts  # n-gram k is number k - skip[i] of text i
        start_char = np.arange(hi - lo) + np.repeat(first_char - skip, counts)
        start = offsets[start_char]
        length = offsets[start_char + order] - start
        h = np.full(hi - lo, basis, dtype=np.uint64)
        for j in range(order):  # every n-gram has at least ``order`` bytes
            h ^= raw[start + j]
            h *= _FNV_PRIME
        for j in range(order, int(length.max(initial=0))):  # j-th byte, if any
            live = length > j
            byte = raw[np.where(live, start + j, 0)]
            h = np.where(live, (h ^ byte) * _FNV_PRIME, h)
        # h mod n: (h // n) * n <= h, so the subtraction never wraps
        q = _fmix64(h) // n
        q *= n
        np.subtract(h, q, out=ids[lo:hi])
        lo = hi
    return ids.view(np.int64), text


# not called in the package; perfbench/tracing.py patches it by name
def ngram_bucket_ids(
    text: str, orders: tuple[int, ...], n_buckets: int, seed: int
) -> np.ndarray:
    """bucket_ids([text], orders, n_buckets, seed)[0]."""
    return bucket_ids([text], orders, n_buckets, seed)[0]
