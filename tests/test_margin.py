"""Margin scoring and alignment tests: scalar margins, exact-kNN with
tie-breaking, hand-computed 2x2 scores, an exhaustive alignment oracle,
and the evaluation report format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.errors import DimMismatchError, KTooLargeError, SizeMismatchError
from bitextkit.margin import (
    SearchConfig,
    align,
    knn,
    margin,
    neighborhood_means,
    xsim_error_rate,
    xsim_report,
    xsim_score,
)
from bitextkit.vectors import normalize_rows


def random_units(rng, n, dim) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# --- scalar margin / config ---------------------------------------------------


def test_margin_kinds():
    assert margin(2.0, 5.0, "absolute") == 2.0
    assert margin(1.2, 0.8, "distance") == pytest.approx(0.4)
    assert margin(0.8, 1.0, "ratio") == 0.8
    with pytest.raises(ZeroDivisionError):
        margin(0.5, 0.0, "ratio")
    with pytest.raises(ValueError):
        margin(1.0, 1.0, "cosine")


def test_search_config_validation():
    cfg = SearchConfig()
    assert cfg.k == 4 and cfg.margin_kind == "ratio"
    with pytest.raises(ValueError):
        SearchConfig(k=0)
    with pytest.raises(ValueError):
        SearchConfig(margin_kind="euclidean")


# --- knn ----------------------------------------------------------------------


def test_knn_small_example():
    queries = np.array([[1.0, 0.0, 0.0]])
    candidates = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    idx, cos = knn(queries, candidates, k=2)
    assert idx.tolist() == [[1, 2]]
    assert cos.tolist() == [[1.0, 0.6]]


def test_knn_ties_break_toward_lower_index():
    queries = np.array([[1.0, 0.0]])
    candidates = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # rows 0,1 tie at cos 1
    idx, cos = knn(queries, candidates, k=2)
    assert idx.tolist() == [[0, 1]]
    assert cos.tolist() == [[1.0, 1.0]]


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(13)
    Q = random_units(rng, 50, 6)
    C = random_units(rng, 40, 6)
    k = 7
    idx, cos = knn(Q, C, k)
    sims = np.clip(Q @ C.T, -1.0, 1.0)
    want_idx = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    assert np.array_equal(idx, want_idx)
    # knn re-normalizes its inputs, so cosines can differ in the last ulp
    assert np.allclose(cos, np.take_along_axis(sims, idx, axis=1), atol=1e-12, rtol=0.0)
    assert (np.diff(cos, axis=1) <= 0).all()  # descending per row


@st.composite
def tie_heavy_knn_case(draw):
    """Small-integer rows (many exact cosine ties, no zero rows) and any k."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    Q = np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=np.float64)
    C = np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=np.float64)
    Q[~Q.any(axis=1), 0] = 1.0
    C[~C.any(axis=1), 0] = 1.0
    return Q, C, draw(st.integers(1, C.shape[0]))


@settings(max_examples=200, deadline=None)
@given(tie_heavy_knn_case())
def test_knn_equals_stable_argsort_oracle_bitwise(case):
    Q, C, k = case
    sims = np.clip(normalize_rows(Q) @ normalize_rows(C).T, -1.0, 1.0)
    want_idx = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    idx, cos = knn(Q, C, k)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(cos, np.take_along_axis(sims, want_idx, axis=1))


def test_knn_validation():
    Q = np.eye(3)
    with pytest.raises(KTooLargeError):
        knn(Q, Q, k=4)
    with pytest.raises(ValueError):
        knn(Q, Q, k=0)
    with pytest.raises(DimMismatchError):
        knn(Q, np.eye(4), k=1)


def test_neighborhood_means():
    cos = np.array([[0.8, 0.6], [1.0, 0.0]])
    assert neighborhood_means(cos, 2).tolist() == [0.35, 0.25]


# --- xsim_score on a worked 2x2 instance --------------------------------------


def worked_instance():
    src = np.array([[1.0, 0.0], [0.0, 1.0]])
    tgt = np.array([[0.8, 0.6], [0.6, 0.8]])
    cross = src @ tgt.T
    fwd = knn(src, tgt, 1)
    bwd = knn(tgt, src, 1)
    return src, tgt, cross, fwd, bwd


def test_xsim_score_hand_computed_ratio():
    # nearest neighbourhoods (k=1) both have cosine 0.8, so every denominator
    # is 0.8: the aligned pair scores 0.8/0.8 = 1 and the crossed one 0.75
    _, _, cross, fwd, bwd = worked_instance()
    cfg = SearchConfig(k=1, margin_kind="ratio")
    assert xsim_score(0, 0, cross, fwd, bwd, cfg) == pytest.approx(1.0, abs=1e-12)
    assert xsim_score(0, 1, cross, fwd, bwd, cfg) == pytest.approx(0.75, abs=1e-12)
    assert xsim_score(1, 1, cross, fwd, bwd, cfg) == pytest.approx(1.0, abs=1e-12)


def test_xsim_score_other_kinds():
    _, _, cross, fwd, bwd = worked_instance()
    absolute = SearchConfig(k=1, margin_kind="absolute")
    distance = SearchConfig(k=1, margin_kind="distance")
    assert xsim_score(0, 0, cross, fwd, bwd, absolute) == pytest.approx(0.8)
    assert xsim_score(0, 0, cross, fwd, bwd, distance) == pytest.approx(0.0, abs=1e-12)
    assert xsim_score(0, 1, cross, fwd, bwd, distance) == pytest.approx(-0.2)


# --- align --------------------------------------------------------------------


def oracle_align(S, T, cfg):
    """Exhaustive n x m margin scorer, kept deliberately naive."""
    S = S / np.linalg.norm(S, axis=1, keepdims=True)
    T = T / np.linalg.norm(T, axis=1, keepdims=True)
    cross = np.clip(S @ T.T, -1.0, 1.0)
    fwd_cos = knn(S, T, cfg.k)[1]
    bwd_cos = knn(T, S, cfg.k)[1]
    dx = fwd_cos.sum(axis=1) / (2.0 * cfg.k)
    dy = bwd_cos.sum(axis=1) / (2.0 * cfg.k)
    n, m = cross.shape
    scores = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            scores[i, j] = margin(cross[i, j], dx[i] + dy[j], cfg.margin_kind)
    best = scores.argmax(axis=1)
    return best, scores[np.arange(n), best]


@pytest.mark.parametrize("kind", ["absolute", "distance", "ratio"])
def test_align_matches_exhaustive_oracle(kind):
    rng = np.random.default_rng(59)
    S = random_units(rng, 60, 8)
    T = random_units(rng, 50, 8)
    cfg = SearchConfig(k=4, margin_kind=kind)
    got_idx, got_score = align(S, T, cfg)
    want_idx, want_score = oracle_align(S, T, cfg)
    assert np.array_equal(got_idx, want_idx)
    assert np.allclose(got_score, want_score, atol=1e-12, rtol=0.0)


def test_align_identity_and_reversal_with_absolute_margin():
    rng = np.random.default_rng(3)
    S = random_units(rng, 30, 8)
    cfg = SearchConfig(k=3, margin_kind="absolute")
    idx, score = align(S, S, cfg)
    assert idx.tolist() == list(range(30))
    assert np.allclose(score, 1.0, atol=1e-12)
    idx_rev, _ = align(S, S[::-1], cfg)
    assert idx_rev.tolist() == list(range(29, -1, -1))


def test_align_ties_pick_lowest_target_index():
    src = np.array([[1.0, 0.0]])
    tgt = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])  # rows 1 and 2 tie
    idx, _ = align(src, tgt, SearchConfig(k=1, margin_kind="absolute"))
    assert idx.tolist() == [1]


def test_align_is_scale_invariant():
    rng = np.random.default_rng(21)
    S = random_units(rng, 25, 6)
    T = random_units(rng, 20, 6)
    cfg = SearchConfig(k=2, margin_kind="ratio")
    base = align(S, T, cfg)
    scaled = align(
        S * rng.uniform(0.1, 10.0, size=(25, 1)),
        T * rng.uniform(0.1, 10.0, size=(20, 1)),
        cfg,
    )
    assert np.array_equal(base[0], scaled[0])
    assert np.allclose(base[1], scaled[1], atol=1e-12)


def test_align_threads_bitwise_identical_across_blocks():
    # more than one 1024-row block so the thread pool actually splits work
    rng = np.random.default_rng(6)
    S = random_units(rng, 1500, 8)
    T = random_units(rng, 64, 8)
    cfg = SearchConfig(k=4, margin_kind="ratio")
    idx1, score1 = align(S, T, cfg, threads=1)
    idx2, score2 = align(S, T, cfg, threads=3)
    assert np.array_equal(idx1, idx2)
    assert np.array_equal(score1, score2)
    k1 = knn(S, T, 4, threads=1)
    k2 = knn(S, T, 4, threads=3)
    assert np.array_equal(k1[0], k2[0])
    assert np.array_equal(k1[1], k2[1])


@pytest.mark.parametrize("m", [700, 2100])
def test_align_block_edges_match_knn_margins(m):
    # at n = 1025 the last 1024-row block holds one row, fewer than k
    rng = np.random.default_rng(6)
    S = random_units(rng, 1025, 8)
    T = random_units(rng, m, 8)
    cfg = SearchConfig(k=4, margin_kind="ratio")
    idx, score = align(S, T, cfg, threads=1)
    idx3, score3 = align(S, T, cfg, threads=3)
    assert np.array_equal(idx, idx3)
    assert np.array_equal(score, score3)
    dx = neighborhood_means(knn(S, T, 4)[1], 4)
    dy = neighborhood_means(knn(T, S, 4)[1], 4)
    scores = np.clip(S @ T.T, -1.0, 1.0) / (dx[:, None] + dy[None, :])
    assert np.array_equal(idx, scores.argmax(axis=1))
    assert np.allclose(score, scores.max(axis=1), atol=1e-12, rtol=0.0)


def test_align_k_exceeds_either_side():
    rng = np.random.default_rng(8)
    few, many = random_units(rng, 3, 4), random_units(rng, 6, 4)
    for S, T in ((many, few), (few, many)):
        with pytest.raises(KTooLargeError):
            align(S, T, SearchConfig(k=4))


def test_align_traced_peak_stays_within_four_blocks():
    # the search holds about three 1024-row similarity blocks at a time; a
    # selection that keeps a view of a block's partition holds one more
    # block per block of sources and breaks this bound
    n = 5000
    rng = np.random.default_rng(4)
    S = random_units(rng, n, 64)
    T = random_units(rng, n, 64)
    tracemalloc.start()
    try:
        align(S, T, SearchConfig(k=4, margin_kind="ratio"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 1024 * n * 8


def test_align_ratio_zero_denominator_raises():
    # mutually orthogonal sides: every neighbourhood cosine is 0
    src = np.eye(8)[:4]
    tgt = np.eye(8)[4:]
    with pytest.raises(ZeroDivisionError):
        align(src, tgt, SearchConfig(k=2, margin_kind="ratio"))


def test_non_finite_embeddings_are_rejected():
    tgt = np.eye(4)
    tgt[1, 1] = np.nan
    with pytest.raises(ValueError, match="row 1"):
        knn(np.eye(4), tgt, 2)
    with pytest.raises(ValueError, match="row 1"):
        align(np.eye(4), tgt, SearchConfig(k=2))


def test_align_dim_mismatch():
    with pytest.raises(DimMismatchError):
        align(np.eye(3), np.eye(4), SearchConfig(k=1))


def test_margin_kinds_agree_when_denominators_are_constant():
    # with both sides the full orthonormal basis and k covering everything,
    # every denominator is identical, so all margin kinds rank targets the
    # same way and pick the diagonal
    basis = np.eye(8)
    for kind in ("absolute", "distance", "ratio"):
        idx, _ = align(basis, basis, SearchConfig(k=8, margin_kind=kind))
        assert idx.tolist() == list(range(8))


# --- error rate / report ------------------------------------------------------


def test_error_rate_zero_on_identical_sets():
    rng = np.random.default_rng(9)
    S = random_units(rng, 40, 8)
    assert xsim_error_rate(S, S, SearchConfig(k=3, margin_kind="absolute")) == 0.0


def test_error_rate_full_on_rotated_basis():
    src = np.eye(4)
    tgt = np.roll(np.eye(4), -1, axis=0)  # counterpart of row i sits at i-1
    cfg = SearchConfig(k=1, margin_kind="absolute")
    assert xsim_error_rate(src, tgt, cfg) == 100.0


def test_error_rate_is_a_percentage():
    src = np.eye(4)
    tgt = np.eye(4)
    tgt[[2, 3]] = tgt[[3, 2]]  # two rows swapped -> half the sources err
    cfg = SearchConfig(k=1, margin_kind="absolute")
    assert xsim_error_rate(src, tgt, cfg) == 50.0


def test_error_rate_validation():
    cfg = SearchConfig(k=1)
    with pytest.raises(SizeMismatchError):
        xsim_error_rate(np.eye(3), np.eye(4, 3), cfg)
    with pytest.raises(ValueError):
        xsim_error_rate(np.empty((0, 3)), np.empty((0, 3)), cfg)


def test_xsim_report_format():
    src = np.eye(3)
    report = xsim_report(src, src, SearchConfig(k=1, margin_kind="absolute"))
    assert report == "n=3 k=1 margin=absolute errors=0 error_rate=0.00"
    tgt = np.roll(src, -1, axis=0)
    report = xsim_report(src, tgt, SearchConfig(k=1, margin_kind="absolute"))
    assert report == "n=3 k=1 margin=absolute errors=3 error_rate=100.00"
