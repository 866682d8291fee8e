"""Featurizer and linear-encoder tests: golden sparse vectors, exact
basis-vector encodings, batch rows bitwise equal to single encodings, and
the EMB1 + sidecar round trip."""

import tracemalloc

import numpy as np
import pytest
from encoder_oracle import embed as oracle_embed
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit import encoder, filtering, hashing, margin, trainer
from bitextkit.encoder import (
    EncoderParams,
    FeaturizerConfig,
    encode,
    encode_batch,
    encode_masked,
    featurize_batch,
    load_encoder,
    make_teacher,
    save_encoder,
)
from bitextkit.errors import (
    DimMismatchError,
    FormatError,
    ZeroVectorError,
)


def small_params(buckets=16, dim=4, seed=3, frozen=False, hash_seed=0):
    cfg = FeaturizerConfig(ngram_orders=(1, 2), bucket_count=buckets, hash_seed=hash_seed)
    rng = np.random.default_rng(seed)
    return EncoderParams(cfg, rng.normal(size=(buckets, dim)), frozen=frozen)


# --- featurizer config -------------------------------------------------------


def test_config_sorts_and_dedupes_orders():
    cfg = FeaturizerConfig(ngram_orders=(3, 2, 3), bucket_count=8, hash_seed=0)
    assert cfg.ngram_orders == (2, 3)


@pytest.mark.parametrize("orders", [(), (0,), (2, 0), (2, 2**63)])
def test_config_rejects_bad_orders(orders):
    with pytest.raises(ValueError):
        FeaturizerConfig(ngram_orders=orders, bucket_count=8, hash_seed=0)


def test_config_rejects_bucket_count_below_two():
    with pytest.raises(ValueError):
        FeaturizerConfig(ngram_orders=(2,), bucket_count=1, hash_seed=0)


@pytest.mark.parametrize("buckets", [2**31, 2**62])
def test_config_rejects_bucket_count_above_the_int32_cap(buckets):
    with pytest.raises(ValueError, match=str(2**31 - 1)):
        FeaturizerConfig(ngram_orders=(2,), bucket_count=buckets, hash_seed=0)


def test_featurize_batch_at_the_bucket_cap():
    # one row's keys fit an int32, three rows' do not
    cfg = FeaturizerConfig(ngram_orders=(2,), bucket_count=2**31 - 1, hash_seed=0)
    sentences = ["abc", "abd", "xyz"]
    nnz, indices, counts = featurize_batch(sentences, cfg)
    rows = np.split(np.arange(nnz.sum()), np.cumsum(nnz)[:-1])
    for s, row in zip(sentences, rows):
        ids, _ = hashing.bucket_ids([f"^{s}$"], (2,), 2**31 - 1, 0)
        want, times = np.unique(ids, return_counts=True)
        assert indices[row].tolist() == want.tolist()
        assert counts[row].tolist() == times.tolist()
        assert featurize_batch([s], cfg)[1].tolist() == want.tolist()


# --- featurizing one sentence ------------------------------------------------


def test_featurize_golden_bigrams():
    cfg = FeaturizerConfig(ngram_orders=(2,), bucket_count=16, hash_seed=7)
    nnz, indices, counts = featurize_batch(["ab"], cfg)
    assert indices.tolist() == [1, 2, 13]
    assert counts.tolist() == [1.0, 1.0, 1.0]
    assert nnz.tolist() == [3]


def test_featurize_accumulates_repeated_grams():
    # unigrams of "^aa$" with seed 0, 64 buckets: '^'->21, '$'->6, 'a'->27
    cfg = FeaturizerConfig(ngram_orders=(1,), bucket_count=64, hash_seed=0)
    nnz, indices, counts = featurize_batch(["aa"], cfg)
    assert indices.tolist() == [6, 21, 27]
    assert counts.tolist() == [1.0, 1.0, 2.0]
    assert nnz.tolist() == [3]


def test_featurize_empty_sentence_is_zero_vector():
    cfg = FeaturizerConfig(ngram_orders=(1, 2), bucket_count=8, hash_seed=0)
    nnz, indices, counts = featurize_batch([""], cfg)
    assert nnz.tolist() == [0]
    assert indices.tolist() == [] and counts.tolist() == []


def test_featurize_deterministic_and_indices_strictly_increasing():
    cfg = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=128, hash_seed=9)
    rng = np.random.default_rng(5)
    letters = list("abcdef ")
    for _ in range(100):
        text = "".join(rng.choice(letters) for _ in range(int(rng.integers(1, 15))))
        nnz, indices, counts = featurize_batch([text], cfg)
        again = featurize_batch([text], cfg)
        assert all(np.array_equal(x, y) for x, y in zip((nnz, indices, counts), again))
        assert nnz.tolist() == [indices.size]
        assert (np.diff(indices) > 0).all()
        assert (counts > 0).all()
        # total mass equals the number of n-gram occurrences
        wrapped_len = len(text) + 2
        expected = sum(max(wrapped_len - o + 1, 0) for o in (2, 3))
        assert counts.sum() == expected


def test_traced_names_are_the_first_row_of_their_batch_functions():
    # perfbench/tracing.py patches these names; the package calls only the
    # batch functions
    cfg = FeaturizerConfig(ngram_orders=(1, 2), bucket_count=97, hash_seed=5)
    for text in ["", "a", "ab", "éa世 ሀለ", "hello world"]:
        one, batch = encoder.featurize(text, cfg), featurize_batch([text], cfg)
        assert len(one) == len(batch) == 3
        for got, want in zip(one, batch):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        got = hashing.ngram_bucket_ids(text, (1, 2), 97, 5)
        want, _ = hashing.bucket_ids([text], (1, 2), 97, 5)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert trainer.featurize is encoder.featurize
    assert filtering.encode is encoder.encode
    assert filtering.knn is margin.knn


# --- encoder params / teacher ------------------------------------------------


def test_params_reject_row_count_mismatch():
    cfg = FeaturizerConfig(ngram_orders=(2,), bucket_count=8, hash_seed=0)
    with pytest.raises(DimMismatchError):
        EncoderParams(cfg, np.zeros((9, 4)))


def test_params_reject_dim_below_two():
    cfg = FeaturizerConfig(ngram_orders=(2,), bucket_count=8, hash_seed=0)
    with pytest.raises(DimMismatchError, match="dim must be >= 2"):
        EncoderParams(cfg, np.zeros((8, 1)))


def test_params_reject_non_matrix_and_non_finite():
    cfg = FeaturizerConfig(ngram_orders=(2,), bucket_count=8, hash_seed=0)
    with pytest.raises(DimMismatchError):
        EncoderParams(cfg, np.zeros(8))
    bad = np.zeros((8, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        EncoderParams(cfg, bad)


def test_frozen_weights_are_read_only_copies():
    cfg = FeaturizerConfig(ngram_orders=(2,), bucket_count=8, hash_seed=0)
    source = np.ones((8, 2))
    params = EncoderParams(cfg, source, frozen=True)
    with pytest.raises(ValueError):
        params.weights[0, 0] = 5.0
    source[0, 0] = 99.0
    assert params.weights[0, 0] == 1.0


def test_make_teacher_is_deterministic_frozen_uniform():
    cfg = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=32, hash_seed=4)
    t1 = make_teacher(cfg, 8, weight_seed=17)
    t2 = make_teacher(cfg, 8, weight_seed=17)
    t3 = make_teacher(cfg, 8, weight_seed=18)
    assert np.array_equal(t1.weights, t2.weights)
    assert not np.array_equal(t1.weights, t3.weights)
    assert t1.frozen
    assert t1.dim == 8
    assert (np.abs(t1.weights) <= 1.0).all()


# characters of 1 to 4 UTF-8 bytes, the sentinels among them
LETTERS = "ab ^$\u0436\u20ac\u1200\U0001f600"


@st.composite
def corpora(draw):
    """(pool, rows): a corpus of pool sentences that straddles the encoder's
    bounds.  It may run past two projection groups of rows and hold one
    sentence longer than a hash chunk, and it always offers the empty
    sentence and a one-character one, which has no n-grams above order 3."""
    text = st.one_of(st.text(max_size=30), st.text(LETTERS, max_size=30))
    pool = ["", "z"] + draw(st.lists(text, max_size=150))
    n = draw(st.integers(0, 2 * encoder._GROUP_ROWS + 8))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n)
    piece = draw(st.text(LETTERS, min_size=1, max_size=8))
    if n and draw(st.booleans()):
        pool.append(piece * (encoder._CHUNK_CHARS // len(piece) + 1))
        rows[draw(st.integers(0, n - 1))] = len(pool) - 1
    return pool, rows.tolist()


def long_corpus():
    """A corpus with every case of ``corpora``, for explicit examples."""
    pool = ["", "z", "ab \u0436\u20ac", "\U0001f600" * (encoder._CHUNK_CHARS + 1)]
    rows = [i % 3 for i in range(encoder._GROUP_ROWS + 5)]
    rows[encoder._GROUP_ROWS // 2] = 3
    return pool, rows


@settings(max_examples=100, deadline=None)
@given(
    corpus=corpora(),
    orders=st.sets(st.integers(1, 5), min_size=1, max_size=3),
    buckets=st.integers(2, 300),
    hash_seed=st.integers(-(2**63), 2**64 - 1),
)
@example(corpus=long_corpus(), orders={4, 5}, buckets=97, hash_seed=1)
def test_featurize_batch_rows_match_featurize(corpus, orders, buckets, hash_seed):
    pool, rows = corpus
    cfg = FeaturizerConfig(
        ngram_orders=tuple(orders), bucket_count=buckets, hash_seed=hash_seed
    )
    nnz, indices, counts = featurize_batch([pool[r] for r in rows], cfg)
    feats = [featurize_batch([s], cfg) for s in pool]
    assert nnz.tolist() == [feats[r][0][0] for r in rows]
    assert indices.shape == counts.shape == (nnz.sum(),)
    ends = np.cumsum(nnz)
    for i, r in enumerate(rows):  # row i's segment is its sentence's own row
        segment = slice(ends[i] - nnz[i], ends[i])
        assert indices[segment].tolist() == feats[r][1].tolist()
        assert counts[segment].tolist() == feats[r][2].tolist()


def test_batch_calls_hash_each_sentence_once(monkeypatch):
    hashed = []

    def counting(texts, *args):
        hashed.append(sum(map(len, texts)))
        return bucket_ids(texts, *args)

    bucket_ids = hashing.bucket_ids
    monkeypatch.setattr(hashing, "bucket_ids", counting)
    pool, rows = long_corpus()
    sentences = [pool[r] for r in rows]
    wrapped = sum(len(s) + 2 for s in sentences if s)  # with sentinels
    params = small_params()
    featurize_batch(sentences, params.featurizer)
    assert sum(hashed) == wrapped and len(hashed) > 1  # several chunks
    hashed.clear()
    encode_masked(params, sentences)
    assert sum(hashed) == wrapped


# --- encode ------------------------------------------------------------------


def test_encode_exact_basis_vector():
    # with hash_seed=13 and 4 buckets, all three unigrams of "^d$" land in
    # bucket 0, so the embedding is exactly the normalized first weight row
    cfg = FeaturizerConfig(ngram_orders=(1,), bucket_count=4, hash_seed=13)
    weights = np.zeros((4, 4))
    weights[0] = [0.0, 5.0, 0.0, 0.0]
    params = EncoderParams(cfg, weights)
    assert encode(params, "d").tolist() == [0.0, 1.0, 0.0, 0.0]


def test_encode_unit_norm_and_deterministic():
    params = small_params(buckets=64, dim=6, seed=11)
    rng = np.random.default_rng(23)
    letters = list("abcdefgh ")
    for _ in range(150):
        text = "".join(rng.choice(letters) for _ in range(int(rng.integers(1, 20))))
        q = encode(params, text)
        assert q.shape == (6,)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.array_equal(q, encode(params, text))


def test_encode_rejects_empty_and_collapsed():
    params = small_params()
    with pytest.raises(ZeroVectorError):
        encode(params, "")
    cfg = FeaturizerConfig(ngram_orders=(1,), bucket_count=4, hash_seed=0)
    zero = EncoderParams(cfg, np.zeros((4, 2)))
    with pytest.raises(ZeroVectorError):
        encode(zero, "abc")


# --- encode_batch ------------------------------------------------------------


def test_encode_batch_empty_list():
    params = small_params(dim=5)
    out = encode_batch(params, [])
    assert out.shape == (0, 5)


def test_encode_batch_matches_encode_bitwise():
    params = small_params(buckets=128, dim=8, seed=2)
    rng = np.random.default_rng(3)
    letters = list("abcdef ")
    sentences = [
        "".join(rng.choice(letters) for _ in range(int(rng.integers(1, 25))))
        for _ in range(60)
    ]
    batch = encode_batch(params, sentences)
    rows = np.stack([encode(params, s) for s in sentences])
    assert np.array_equal(batch, rows)


@settings(max_examples=25, deadline=None)
@given(
    pool=st.lists(st.text(min_size=1, max_size=40), min_size=1, max_size=20),
    n=st.integers(encoder._GROUP_ROWS - 64, encoder._GROUP_ROWS + 200),
    dim=st.integers(2, 70),
    seed=st.integers(0, 2**32 - 1),
)
def test_encode_batch_rows_match_encode_across_blocks(pool, n, dim, seed):
    # more sentences than one projection group, with repeats landing in
    # different hash chunks, groups and feature-count ranks
    rng = np.random.default_rng(seed)
    sentences = [pool[i] for i in rng.integers(0, len(pool), size=n)]
    params = small_params(buckets=97, dim=dim, seed=seed)
    batch = encode_batch(params, sentences)
    single = {s: encode(params, s) for s in pool}
    for i, s in enumerate(sentences):
        assert np.array_equal(batch[i], single[s])


@settings(max_examples=30, deadline=None)
@given(
    corpus=corpora(),
    orders=st.sets(st.integers(1, 5), min_size=1, max_size=3),
    dim=st.integers(2, 70),
    seed=st.integers(0, 2**32 - 1),
)
@example(corpus=long_corpus(), orders={4, 5}, dim=64, seed=1)
def test_encode_masked_rows_equal_the_sequential_oracle(corpus, orders, dim, seed):
    # bit for bit: the oracle sums z = z + c * W[i] in ascending index order
    pool, rows = corpus
    cfg = FeaturizerConfig(ngram_orders=tuple(orders), bucket_count=97, hash_seed=seed)
    params = EncoderParams(cfg, np.random.default_rng(seed).normal(size=(97, dim)))
    out, ok = encode_masked(params, [pool[r] for r in rows])
    want = [oracle_embed(params, s) for s in pool]
    assert out.shape == (len(rows), dim)
    for i, r in enumerate(rows):
        assert np.array_equal(out[i], want[r][0]) and ok[i] == want[r][1]


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(st.integers(0, 300), max_size=50),
    spare=st.integers(0, 20_000),  # past 32 per element the table gives way to a sort
)
def test_distinct_is_unique_with_inverse(a, spare):
    a = np.array(a, dtype=np.int64)
    values, inverse = encoder._distinct(a, int(a.max(initial=0)) + 1 + spare)
    want, want_inverse = np.unique(a, return_inverse=True)
    assert values.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.tolist()


def test_encode_masked_memory_is_not_sized_by_the_largest_count():
    # "aa" occurs 99,999 times: a table keyed by (count - 1) * buckets + bucket
    # would need tens of GiB; the hashing of the long sentence peaks at 8.7 MiB
    cfg = FeaturizerConfig((2, 3), 2**16, 0)
    params = EncoderParams(cfg, np.random.default_rng(0).uniform(-1, 1, (2**16, 2)))
    sentences = ["a" * 100_000, "ab", "xyz" * 50]
    tracemalloc.start()
    try:
        out, ok = encode_masked(params, sentences)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_encode_masked_marks_failing_rows():
    # with hash_seed=13 and 4 buckets, "^" "d" "$" land in bucket 0 and "z"
    # in bucket 1, so "zz" projects to 2 * (row 0 + row 1) = 0
    cfg = FeaturizerConfig(ngram_orders=(1,), bucket_count=4, hash_seed=13)
    weights = np.zeros((4, 3))
    weights[0] = [0.0, 2.0, 0.0]
    weights[1] = [0.0, -2.0, 0.0]
    out, ok = encode_masked(EncoderParams(cfg, weights), ["d", "", "zz"])
    assert ok.tolist() == [True, False, False]
    assert out.tolist() == [[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3]


def test_encode_batch_reports_lowest_failing_index():
    params = small_params()
    with pytest.raises(ZeroVectorError, match="sentence 2"):
        encode_batch(params, ["a", "b", "", "c"])
    with pytest.raises(ZeroVectorError, match="sentence 0"):
        encode_batch(params, ["", "x", "", "y"])


# --- save / load -------------------------------------------------------------


def test_save_load_round_trip_quantizes_to_float32(tmp_path):
    params = small_params(buckets=32, dim=6, seed=8, hash_seed=5)
    path = tmp_path / "enc.emb"
    save_encoder(params, path)
    loaded = load_encoder(path)
    expected = params.weights.astype(np.float32).astype(np.float64)
    assert np.array_equal(loaded.weights, expected)
    assert loaded.featurizer == params.featurizer
    assert loaded.frozen is False
    assert loaded.weights.dtype == np.float64


def test_load_skips_a_byte_order_mark_in_the_sidecar(tmp_path):
    params = small_params(buckets=32, dim=6, seed=8, hash_seed=5)
    path = tmp_path / "enc.emb"
    save_encoder(params, path, comments=["made for a test"])
    meta = tmp_path / "enc.emb.meta"
    meta.write_text("\ufeff" + meta.read_text(encoding="utf-8"), encoding="utf-8")
    loaded = load_encoder(path)
    assert loaded.featurizer == params.featurizer
    assert np.array_equal(loaded.weights, params.weights.astype(np.float32).astype(np.float64))


def test_save_load_preserves_frozen_flag_and_header(tmp_path):
    cfg = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=16, hash_seed=42)
    teacher = make_teacher(cfg, 4, weight_seed=1)
    path = tmp_path / "teacher.emb"
    save_encoder(teacher, path, comments=["made for a test"])
    meta = (tmp_path / "teacher.emb.meta").read_text().splitlines()
    assert meta[0] == "dim=4 buckets=16 orders=2,3 seed=42 frozen=1"
    assert meta[1] == "# made for a test"
    loaded = load_encoder(path)
    assert loaded.frozen
    with pytest.raises(ValueError):
        loaded.weights[0, 0] = 1.0


def test_load_rejects_malformed_header(tmp_path):
    params = small_params(buckets=8, dim=4)
    path = tmp_path / "enc.emb"
    save_encoder(params, path)
    meta = tmp_path / "enc.emb.meta"
    meta.write_text("dim=4 buckets=8 orders=1,2\n")
    with pytest.raises(FormatError, match="malformed header"):
        load_encoder(path)
    meta.write_text("# only comments here\n")
    with pytest.raises(FormatError, match="no header"):
        load_encoder(path)
    meta.write_text("dim=4 buckets=8 orders=0 seed=0 frozen=0\n")
    with pytest.raises(FormatError, match="ngram_orders"):
        load_encoder(path)
    meta.write_text("dim=4 buckets=8 orders=1,,2 seed=0 frozen=0\n")
    with pytest.raises(FormatError):
        load_encoder(path)


def test_load_rejects_shape_disagreement(tmp_path):
    params = small_params(buckets=8, dim=4)
    path = tmp_path / "enc.emb"
    save_encoder(params, path)
    meta = tmp_path / "enc.emb.meta"
    meta.write_text("dim=6 buckets=8 orders=1,2 seed=0 frozen=0\n")
    with pytest.raises(FormatError, match=r"does not match sidecar \(8 x 6\)"):
        load_encoder(path)
