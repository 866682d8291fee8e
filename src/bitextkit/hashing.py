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

Two shortcuts skip rounds, not change them.  Per (seed, n_buckets), a
cached pair of read-only tables gives, for each of the 65,536 two-byte
strings, the FNV state after hashing it and its bucket id.  An n-gram of
order >= 2 has at least two bytes, so it starts from the state of its
first two; when every n-gram of an order is exactly two bytes (bigrams of
1-byte text), the id table gives the ids outright.  And when every
character of a call's text is one byte, character k is byte k, so no
UTF-8 offsets are scanned.
"""

from __future__ import annotations

import functools

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


def _reduce(h: np.ndarray, n: np.uint64, out: np.ndarray) -> np.ndarray:
    """fmix64(h) mod n into ``out``; overwrites h."""
    # (h // n) * n <= h, so the subtraction never wraps
    q = _fmix64(h) // n
    q *= n
    return np.subtract(h, q, out=out)


@functools.lru_cache(maxsize=4)
def _pair_tables(seed: int, n_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """(state, ids) over the 65,536 two-byte strings b0 b1, indexed by
    b0 << 8 | b1: the FNV state after hashing them, and their bucket ids.
    Read-only, since every caller with this key shares them."""
    byte = np.arange(256, dtype=np.uint64)
    first = (np.uint64(_FNV_OFFSET ^ seed) ^ byte) * _FNV_PRIME
    state = np.empty((256, 256), dtype=np.uint64)
    np.bitwise_xor(first[:, None], byte, out=state)
    state *= _FNV_PRIME
    ids = np.empty_like(state)
    # 32 rows (64 KiB) at a time: freeing a temporary larger than glibc's
    # mmap threshold raises the threshold, and the heap then keeps later ones
    for rows in range(0, 256, 32):
        _reduce(state[rows : rows + 32].copy(), np.uint64(n_buckets), ids[rows : rows + 32])
    state.setflags(write=False)
    ids.setflags(write=False)
    return state.ravel(), ids.ravel()


def check_utf8(texts: list[str]) -> None:
    """Raise ValueError naming the first text UTF-8 cannot encode (one that
    holds a lone surrogate) by its index in ``texts``.  Callers run it only
    once encoding has failed, so valid text pays nothing."""
    for i, text in enumerate(texts):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"sentence {i}: character {exc.start} ({text[exc.start]!r}) "
                f"cannot be encoded as UTF-8"
            ) from None


def seed_key(seed: int) -> int:
    """The seed bucket_ids hashes with: seed mod 2^64, so seeds equal mod
    2^64 give the same ids."""
    return int(seed) & _MASK


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
    fixed arguments; text is int32 (int64 past 2^31 texts).  Text that
    UTF-8 cannot encode raises ValueError naming its index (check_utf8).
    """
    n_buckets = check_number("n_buckets", n_buckets, int, 1, high=2**63)
    n_chars = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    longest = int(n_chars.max(initial=0))  # a longer order has no n-grams
    orders = sorted({int(o) for o in orders if 1 <= int(o) <= longest})
    try:
        data = "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        check_utf8(texts)
        raise
    raw = np.frombuffer(data, dtype=np.uint8)
    single_byte = len(data) == int(n_chars.sum())  # character k is byte k
    if not single_byte:
        # byte offset of each character: characters start at every byte that
        # is not a UTF-8 continuation byte (0b10xxxxxx)
        offsets = np.append(np.flatnonzero((raw & 0xC0) != 0x80), len(data))
    seed = seed_key(seed)
    if orders and orders[-1] >= 2:
        state, pair_ids = _pair_tables(seed, n_buckets)
        pair = raw[:-1].astype(np.uint16)  # pair[p]: bytes p, p + 1 as b0 << 8 | b1
        pair <<= 8
        pair |= raw[1:]

    # per_order[j, i]: n-grams of order orders[j] in texts[i]
    per_order = np.maximum(n_chars - np.array(orders, dtype=np.int64)[:, None] + 1, 0)
    index = np.arange(len(texts), dtype=np.int32 if len(texts) <= 2**31 else np.int64)
    text = np.repeat(np.tile(index, len(orders)), per_order.ravel())
    ids = np.empty(text.size, dtype=np.uint64)
    first_char = np.cumsum(n_chars) - n_chars
    basis = np.uint64(_FNV_OFFSET ^ seed)
    n = np.uint64(n_buckets)
    lo = 0
    for order, counts in zip(orders, per_order):
        hi = lo + int(counts.sum())
        skip = np.cumsum(counts) - counts  # n-gram k is number k - skip[i] of text i
        start = np.arange(hi - lo) + np.repeat(first_char - skip, counts)
        if single_byte:
            widest = order  # bytes in the longest n-gram of this order
        else:
            end = offsets[start + order]
            start = offsets[start]
            length = end - start
            widest = int(length.max(initial=0))
        if order == 1:
            h, done = np.full(hi - lo, basis, dtype=np.uint64), 0
        elif widest == 2:  # every n-gram is 2 bytes: its id is in the table
            ids[lo:hi] = pair_ids.take(pair.take(start))
            lo = hi
            continue
        else:  # every n-gram has at least 2 bytes
            h, done = state.take(pair.take(start)), 2
        for j in range(done, order):  # every n-gram has at least ``order`` bytes
            h ^= raw[start + j]
            h *= _FNV_PRIME
        for j in range(order, widest):  # j-th byte, if any
            live = length > j
            byte = raw[np.where(live, start + j, 0)]
            h = np.where(live, (h ^ byte) * _FNV_PRIME, h)
        _reduce(h, n, ids[lo:hi])
        lo = hi
    return ids.view(np.int64), text


# not called in the package; perfbench/tracing.py patches it by name
def ngram_bucket_ids(
    text: str, orders: tuple[int, ...], n_buckets: int, seed: int
) -> np.ndarray:
    """bucket_ids([text], orders, n_buckets, seed)[0]."""
    return bucket_ids([text], orders, n_buckets, seed)[0]
