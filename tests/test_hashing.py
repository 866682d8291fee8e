"""Hashing tests: golden vectors and an independent reference oracle,
checked per text and on whole batches of arbitrary Unicode."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ids, _ = hashing.bucket_ids(["^ab$"], (2,), 16, 7)
    assert ids.tolist() == [13, 2, 1]


def test_golden_mixed_orders():
    ids, _ = hashing.bucket_ids(["xy"], (1, 2), 97, 0)
    assert ids.tolist() == [49, 10, 13]


def test_golden_multibyte_text():
    ids, _ = hashing.bucket_ids(["éa世"], (1, 2), 64, 5)
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
        got, _ = hashing.bucket_ids([text], orders, buckets, seed)
        assert got.tolist() == reference_ids(text, orders, buckets, seed)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(st.text(max_size=30), max_size=8),
    orders=st.sets(st.integers(1, 5), max_size=5),
    n_buckets=st.integers(1, 2**63 - 1),
    seed=st.integers(-(2**63), 2**64 - 1),
)
# the bigram "ab" at seed 0 leaves fmix64 at 15740586271646006756 >= 2^63,
# so h // n is 1 and h - (h // n) * n must not wrap
@example(texts=["ab", "", "b"], orders={2}, n_buckets=2**63 - 1, seed=0)
# Ge'ez letters are 3 UTF-8 bytes each
@example(texts=["ሀለሐ መ", "ሠ", "ረሰሸ"], orders={1, 2, 3}, n_buckets=97, seed=5)
def test_batch_hash_matches_reference_oracle(texts, orders, n_buckets, seed):
    ids, text = hashing.bucket_ids(texts, tuple(orders), n_buckets, seed)
    assert ids.dtype == np.int64
    want_ids, want_text = [], []
    for order in sorted(orders):  # by order, then text, then position
        for i, text_i in enumerate(texts):
            grams = reference_ids(text_i, {order}, n_buckets, seed)
            want_ids += grams
            want_text += [i] * len(grams)
    assert ids.tolist() == want_ids and text.tolist() == want_text
    for i, text_i in enumerate(texts):
        expected = reference_ids(text_i, orders, n_buckets, seed)
        assert ids[text == i].tolist() == expected
        one, _ = hashing.bucket_ids([text_i], tuple(orders), n_buckets, seed)
        assert one.tolist() == expected


def test_deterministic_and_seed_sensitive():
    a, _ = hashing.bucket_ids(["hello world"], (2, 3), 4096, 1)
    b, _ = hashing.bucket_ids(["hello world"], (2, 3), 4096, 1)
    c, _ = hashing.bucket_ids(["hello world"], (2, 3), 4096, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ids_in_range():
    rng = np.random.default_rng(41)
    for _ in range(50):
        buckets = int(rng.integers(2, 50))
        ids, _ = hashing.bucket_ids(["some text here"], (1, 2), buckets, int(rng.integers(0, 99)))
        assert ids.dtype == np.int64
        assert (ids >= 0).all() and (ids < buckets).all()


def test_empty_text_and_oversized_orders():
    assert hashing.bucket_ids([""], (2,), 16, 0)[0].size == 0
    assert hashing.bucket_ids(["ab"], (3, 9), 16, 0)[0].size == 0
    assert hashing.bucket_ids(["ab"], (2, 9), 16, 0)[0].size == 1
    # an order no text reaches costs no work (a loop over its bytes would
    # not end)
    ids, text = hashing.bucket_ids(["ab", "", "abc"], (2, 2**62, 2**63 - 1), 16, 0)
    want, want_text = hashing.bucket_ids(["ab", "", "abc"], (2,), 16, 0)
    assert ids.tolist() == want.tolist() and text.tolist() == want_text.tolist()


def test_multibyte_characters_count_as_single_positions():
    # 2 characters -> one bigram, regardless of byte width
    ids, _ = hashing.bucket_ids(["世界"], (2,), 64, 3)
    assert ids.size == 1
    # and that bigram hashes the full byte sequence of both characters
    assert ids[0] == reference_bucket("世界", 64, 3)


def test_bucket_count_validation():
    with pytest.raises(ValueError):
        hashing.bucket_ids(["ab"], (2,), 0, 0)
    # ids are uint64 viewed as int64: past 2^63 buckets one could be negative
    ids, _ = hashing.bucket_ids(["abc"], (2, 3), 2**63, 0)
    assert ids.tolist() == reference_ids("abc", (2, 3), 2**63, 0)
    misses = hashing._pair_tables.cache_info().misses
    for n_buckets in (2**63 + 1, 2**64, 7.5):
        with pytest.raises(ValueError, match="^n_buckets: "):
            hashing.bucket_ids(["abc"], (2,), n_buckets, 0)
    assert hashing._pair_tables.cache_info().misses == misses  # no table for them


@pytest.mark.parametrize(
    "texts, index, at",
    [(["\ud800"], 0, 0), (["ab", "", "c\udfffd", "e\ud800"], 2, 1)],
    ids=["first", "later"],
)
def test_text_utf8_cannot_encode_raises_value_error_naming_it(texts, index, at):
    # a lone surrogate: the error names the first such text and its position
    # there, not the position in the texts joined
    message = f"sentence {index}: character {at} ({texts[index][at]!r}) cannot be encoded as UTF-8"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hashing.bucket_ids(texts, (2,), 8, 0)


def reference_batch(texts, orders, n_buckets, seed):
    """bucket_ids' (ids, text) as lists, by order, then text, then position."""
    ids, text = [], []
    for order in sorted(set(orders)):
        for i, text_i in enumerate(texts):
            grams = reference_ids(text_i, {order}, n_buckets, seed)
            ids += grams
            text += [i] * len(grams)
    return ids, text


@pytest.mark.parametrize(
    "texts, orders, n_buckets, seed",
    [
        (["^привет$", "мир", "ёж"], (1,), 97, 3),  # every unigram is 2 bytes
        (["^a世b界cd$", "世x", "ሀለa", "q"], (1, 2, 3, 4, 5), 4093, 11),
        (["", "a", "é"], (2,), 16, 0),  # no text reaches order 2
        (["", "a", "ab"], (2,), 16, 0),
        (["ab", "é", "cd"], (1, 2), 16, 0),  # 2-byte bigrams in a multi-byte batch
        (["^hello world$", "ab"], (2, 3), 1, 5),
        (["^hello world$", "ab"], (2, 3), 2**63, 5),
        (["^héllo wörld$", "ab"], (2, 3), 2**63, 5),
    ],
)
def test_table_paths_match_the_reference_oracle(texts, orders, n_buckets, seed):
    ids, text = hashing.bucket_ids(texts, orders, n_buckets, seed)
    assert (ids.tolist(), text.tolist()) == reference_batch(texts, orders, n_buckets, seed)


# one UTF-8 byte per character
_single_byte_text = st.text(st.characters(max_codepoint=0x7F), max_size=30)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(_single_byte_text, max_size=8),
    # no surrogates, which UTF-8 cannot encode
    wide=st.text(
        st.characters(min_codepoint=0x80, exclude_categories=("Cs",)), min_size=1, max_size=6
    ),
    at=st.integers(0, 8),
    orders=st.sets(st.integers(1, 5), max_size=5),
    n_buckets=st.integers(1, 2**63),
    seed=st.integers(-(2**63), 2**64 - 1),
)
def test_single_byte_batches_hash_as_multibyte_ones(texts, wide, at, orders, n_buckets, seed):
    # an all-1-byte batch indexes characters as bytes; one multi-byte text
    # sends the whole batch through the UTF-8 offsets
    at = min(at, len(texts))
    mixed = texts[:at] + [wide] + texts[at:]
    ids, text = hashing.bucket_ids(texts, tuple(orders), n_buckets, seed)
    mixed_ids, mixed_text = hashing.bucket_ids(mixed, tuple(orders), n_buckets, seed)
    for i, text_i in enumerate(texts):
        expected = reference_ids(text_i, orders, n_buckets, seed)
        assert ids[text == i].tolist() == expected
        assert mixed_ids[mixed_text == i + (i >= at)].tolist() == expected


def test_seeds_equal_mod_2_64_share_one_table():
    texts = ["^hello$", "^мир$"]
    want = reference_batch(texts, (2, 3), 97, -1)
    ids, text = hashing.bucket_ids(texts, (2, 3), 97, -1)
    assert (ids.tolist(), text.tolist()) == want
    before = hashing._pair_tables.cache_info()
    ids, text = hashing.bucket_ids(texts, (2, 3), 97, 2**64 - 1)
    after = hashing._pair_tables.cache_info()
    assert (ids.tolist(), text.tolist()) == want
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_cached_tables_are_read_only():
    for table in hashing._pair_tables(0, 97):
        assert table.shape == (65536,) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
