"""Featurizer and linear-encoder tests: golden sparse vectors, exact
basis-vector encodings, batch rows bitwise equal to single encodings, and
the EMB1 + sidecar round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.encoder import (
    EncoderParams,
    FeaturizerConfig,
    encode,
    encode_batch,
    encode_masked,
    featurize,
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


# --- featurize ---------------------------------------------------------------


def test_featurize_golden_bigrams():
    cfg = FeaturizerConfig(ngram_orders=(2,), bucket_count=16, hash_seed=7)
    feats = featurize("ab", cfg)
    assert feats.indices.tolist() == [1, 2, 13]
    assert feats.counts.tolist() == [1.0, 1.0, 1.0]
    assert feats.length == 16
    assert feats.nnz == 3


def test_featurize_accumulates_repeated_grams():
    # unigrams of "^aa$" with seed 0, 64 buckets: '^'->21, '$'->6, 'a'->27
    cfg = FeaturizerConfig(ngram_orders=(1,), bucket_count=64, hash_seed=0)
    feats = featurize("aa", cfg)
    assert feats.indices.tolist() == [6, 21, 27]
    assert feats.counts.tolist() == [1.0, 1.0, 2.0]


def test_featurize_empty_sentence_is_zero_vector():
    cfg = FeaturizerConfig(ngram_orders=(1, 2), bucket_count=8, hash_seed=0)
    feats = featurize("", cfg)
    assert feats.nnz == 0
    assert feats.length == 8
    assert feats.indices.tolist() == [] and feats.counts.tolist() == []


def test_featurize_deterministic_and_indices_strictly_increasing():
    cfg = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=128, hash_seed=9)
    rng = np.random.default_rng(5)
    letters = list("abcdef ")
    for _ in range(100):
        text = "".join(rng.choice(letters) for _ in range(int(rng.integers(1, 15))))
        a = featurize(text, cfg)
        b = featurize(text, cfg)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.counts, b.counts)
        assert (np.diff(a.indices) > 0).all()
        assert (a.counts > 0).all()
        # total mass equals the number of n-gram occurrences
        wrapped_len = len(text) + 2
        expected = sum(max(wrapped_len - o + 1, 0) for o in (2, 3))
        assert a.counts.sum() == expected


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


@settings(max_examples=100, deadline=None)
@given(
    sentences=st.lists(st.text(max_size=25), max_size=150),
    orders=st.sets(st.integers(1, 5), min_size=1, max_size=3),
    buckets=st.integers(2, 300),
    hash_seed=st.integers(-(2**63), 2**64 - 1),
)
def test_featurize_batch_rows_match_featurize(sentences, orders, buckets, hash_seed):
    cfg = FeaturizerConfig(
        ngram_orders=tuple(orders), bucket_count=buckets, hash_seed=hash_seed
    )
    idx, val = featurize_batch(sentences, cfg)
    feats = [featurize(s, cfg) for s in sentences]
    assert idx.shape == val.shape == (len(sentences), max([1] + [f.nnz for f in feats]))
    for i, f in enumerate(feats):
        assert idx[i, : f.nnz].tolist() == f.indices.tolist()
        assert val[i, : f.nnz].tolist() == f.counts.tolist()
        assert not idx[i, f.nnz :].any() and not val[i, f.nnz :].any()


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
    n=st.integers(65, 200),
    dim=st.integers(2, 70),
    seed=st.integers(0, 2**32 - 1),
)
def test_encode_batch_rows_match_encode_across_blocks(pool, n, dim, seed):
    # more sentences than one featurize/project block, with repeats landing
    # in blocks of different padding widths
    rng = np.random.default_rng(seed)
    sentences = [pool[i] for i in rng.integers(0, len(pool), size=n)]
    params = small_params(buckets=97, dim=dim, seed=seed)
    batch = encode_batch(params, sentences)
    for i, s in enumerate(sentences):
        assert np.array_equal(batch[i], encode(params, s))


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
