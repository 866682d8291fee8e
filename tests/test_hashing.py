"""Hashing tests: golden vectors and an independent reference oracle,
checked per text and on whole batches of arbitrary Unicode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit import hashing

MASK = 0xFFFFFFFFFFFFFFFF


def reference_bucket(gram: str, n_buckets: int, seed: int) -> int:
    """Straight-line reimplementation of the documented hash recipe."""
    h = 14695981039346656037 ^ (seed & MASK)
    for byte in gram.encode("utf-8"):
        h = ((h ^ byte) * 1099511628211) & MASK
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & MASK
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & MASK
    h ^= h >> 33
    return h % n_buckets


def reference_ids(text: str, orders, n_buckets: int, seed: int) -> list[int]:
    chars = list(text)
    out = []
    for order in sorted(set(orders)):
        for i in range(len(chars) - order + 1):
            out.append(reference_bucket("".join(chars[i : i + order]), n_buckets, seed))
    return out


def test_golden_bigrams_of_wrapped_ab():
    ids = hashing.ngram_bucket_ids("^ab$", (2,), 16, 7)
    assert ids.tolist() == [13, 2, 1]


def test_golden_mixed_orders():
    assert hashing.ngram_bucket_ids("xy", (1, 2), 97, 0).tolist() == [49, 10, 13]


def test_golden_multibyte_text():
    ids = hashing.ngram_bucket_ids("éa世", (1, 2), 64, 5)
    assert ids.tolist() == [8, 30, 20, 13, 6]


def test_matches_reference_oracle_on_random_text():
    rng = np.random.default_rng(31)
    alphabet = list("abcdef XYZ,.'éü世界\U0001f600")
    for _ in range(150):
        length = int(rng.integers(1, 20))
        text = "".join(rng.choice(alphabet) for _ in range(length))
        orders = tuple(
            sorted(set(int(o) for o in rng.integers(1, 5, size=rng.integers(1, 3))))
        )
        buckets = int(rng.integers(2, 300))
        seed = int(rng.integers(0, 2**63))
        got = hashing.ngram_bucket_ids(text, orders, buckets, seed)
        assert got.tolist() == reference_ids(text, orders, buckets, seed)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(st.text(max_size=30), max_size=8),
    orders=st.sets(st.integers(1, 5), max_size=5),
    n_buckets=st.integers(1, 2**63 - 1),
    seed=st.integers(-(2**63), 2**64 - 1),
)
def test_batch_hash_matches_reference_oracle(texts, orders, n_buckets, seed):
    ids, bounds = hashing.bucket_ids(texts, tuple(orders), n_buckets, seed)
    assert ids.dtype == np.int64
    assert bounds[0] == 0 and bounds.shape == (len(texts) + 1,)
    for i, text in enumerate(texts):
        expected = reference_ids(text, orders, n_buckets, seed)
        assert ids[bounds[i] : bounds[i + 1]].tolist() == expected
        one = hashing.ngram_bucket_ids(text, tuple(orders), n_buckets, seed)
        assert one.tolist() == expected


def test_deterministic_and_seed_sensitive():
    a = hashing.ngram_bucket_ids("hello world", (2, 3), 4096, 1)
    b = hashing.ngram_bucket_ids("hello world", (2, 3), 4096, 1)
    c = hashing.ngram_bucket_ids("hello world", (2, 3), 4096, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ids_in_range():
    rng = np.random.default_rng(41)
    for _ in range(50):
        buckets = int(rng.integers(2, 50))
        ids = hashing.ngram_bucket_ids("some text here", (1, 2), buckets, int(rng.integers(0, 99)))
        assert ids.dtype == np.int64
        assert (ids >= 0).all() and (ids < buckets).all()


def test_empty_text_and_oversized_orders():
    assert hashing.ngram_bucket_ids("", (2,), 16, 0).size == 0
    assert hashing.ngram_bucket_ids("ab", (3, 9), 16, 0).size == 0
    assert hashing.ngram_bucket_ids("ab", (2, 9), 16, 0).size == 1


def test_multibyte_characters_count_as_single_positions():
    # 2 characters -> one bigram, regardless of byte width
    assert hashing.ngram_bucket_ids("世界", (2,), 64, 3).size == 1
    # and that bigram hashes the full byte sequence of both characters
    got = hashing.ngram_bucket_ids("世界", (2,), 64, 3)[0]
    assert got == reference_bucket("世界", 64, 3)


def test_bucket_count_validation():
    with pytest.raises(ValueError):
        hashing.ngram_bucket_ids("ab", (2,), 0, 0)
