"""Margin scoring and alignment tests: the margin combinator, exact-kNN
with tie-breaking, hand-computed 2x2 scores, an exhaustive alignment
oracle, a bitwise oracle of the blocked search, and the evaluation report
format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit.errors import DimMismatchError, KTooLargeError, SizeMismatchError
from bitextkit.margin import (
    MARGIN_KINDS,
    SearchConfig,
    align,
    knn,
    margin_scores,
    neighborhood_means,
    neighborhoods,
    xsim_error_rate,
    xsim_report,
)
from bitextkit.vectors import normalize_rows
from margin_oracle import align as oracle_blocked_align
from margin_oracle import neighborhoods as oracle_neighborhoods


def random_units(rng, n, dim) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# --- margin combinator / config -----------------------------------------------


def test_margin_kinds():
    assert margin_scores(2.0, 5.0, "absolute") == 2.0
    assert margin_scores(1.2, 0.8, "distance") == pytest.approx(0.4)
    assert margin_scores(0.8, 1.0, "ratio") == 0.8
    assert margin_scores([0.8, 0.6], [1.0, 0.8], "ratio").tolist() == pytest.approx([0.8, 0.75])
    with pytest.raises(ZeroDivisionError):
        margin_scores(0.5, 0.0, "ratio")
    with pytest.raises(ZeroDivisionError):
        margin_scores([0.5, 0.5], [1.0, 0.0], "ratio")
    with pytest.raises(ValueError):
        margin_scores(1.0, 1.0, "cosine")


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


# --- xsim (margin) scores of a worked 2x2 instance ----------------------------


def worked_scores(kind):
    """margin_scores of every source-target pair over neighborhoods' (dx, dy)."""
    src = np.array([[1.0, 0.0], [0.0, 1.0]])
    tgt = np.array([[0.8, 0.6], [0.6, 0.8]])
    dx, dy = neighborhoods(src, tgt, 1)
    return margin_scores(src @ tgt.T, dx[:, None] + dy[None, :], kind)


def test_xsim_score_hand_computed_ratio():
    # nearest neighbourhoods (k=1) both have cosine 0.8, so every denominator
    # is 0.8: the aligned pair scores 0.8/0.8 = 1 and the crossed one 0.75
    scores = worked_scores("ratio")
    assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert scores[0, 1] == pytest.approx(0.75, abs=1e-12)
    assert scores[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_xsim_score_other_kinds():
    assert worked_scores("absolute")[0, 0] == pytest.approx(0.8)
    distance = worked_scores("distance")
    assert distance[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert distance[0, 1] == pytest.approx(-0.2)


# --- align --------------------------------------------------------------------


def oracle_align(S, T, cfg):
    """Exhaustive n x m margin scorer, kept deliberately naive: the three
    margin kinds are written out here, apart from the code under test."""
    S = S / np.linalg.norm(S, axis=1, keepdims=True)
    T = T / np.linalg.norm(T, axis=1, keepdims=True)
    cross = np.clip(S @ T.T, -1.0, 1.0)
    fwd_cos = knn(S, T, cfg.k)[1]
    bwd_cos = knn(T, S, cfg.k)[1]
    dx = fwd_cos.sum(axis=1) / (2.0 * cfg.k)
    dy = bwd_cos.sum(axis=1) / (2.0 * cfg.k)
    kind = cfg.margin_kind
    n, m = cross.shape
    scores = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            a, b = cross[i, j], dx[i] + dy[j]
            scores[i, j] = a if kind == "absolute" else a - b if kind == "distance" else a / b
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


@pytest.mark.parametrize("m", [700, 2100])
def test_align_block_edges_match_knn_margins(m):
    # at n = 1025 the last 1024-row block holds one row, fewer than k
    rng = np.random.default_rng(6)
    S = random_units(rng, 1025, 8)
    T = random_units(rng, m, 8)
    cfg = SearchConfig(k=4, margin_kind="ratio")
    idx, score = align(S, T, cfg)
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


def test_align_traced_peak_stays_within_three_blocks():
    # the scoring pass holds two 1024-row blocks (cosines and denominators)
    # and the neighbourhood pass one; a pass that allocates a fresh block
    # per step, or a selection that keeps a view of a block's partition,
    # breaks this bound
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
    assert peak <= 3 * 1024 * n * 8


def test_align_ratio_zero_denominator_raises():
    # mutually orthogonal sides: every neighbourhood cosine is 0
    src = np.eye(8)[:4]
    tgt = np.eye(8)[4:]
    with pytest.raises(ZeroDivisionError):
        align(src, tgt, SearchConfig(k=2, margin_kind="ratio"))


def test_align_ratio_zero_denominator_with_nonzero_terms_raises():
    # k = 1: dx_0 = cos(e1, t1) / 2 and dy_0 = cos(e1, t0) / 2 are exact
    # negatives, so dx_0 + dy_0 == 0 while neither term is 0
    src = np.eye(3)[:2]
    tgt = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, 1.0]])
    dx, dy = neighborhoods(normalize_rows(src), normalize_rows(tgt), 1)
    assert dx[0] == -dy[0] != 0.0
    with pytest.raises(ZeroDivisionError):
        align(src, tgt, SearchConfig(k=1, margin_kind="ratio"))


def test_align_ratio_zero_term_without_zero_denominator_scores():
    # dx_1 == 0 (e2 is orthogonal to the only target), but no sum is 0; and
    # in the worked 2x2 case dx and dy hold equal values, not negated ones
    src = np.eye(3)[:2]
    tgt = np.array([[1.0, 0.0, 1.0]])
    dx, dy = neighborhoods(normalize_rows(src), normalize_rows(tgt), 1)
    assert dx[1] == 0.0 and (dx[:, None] + dy != 0.0).all()
    idx, score = align(src, tgt, SearchConfig(k=1, margin_kind="ratio"))
    assert idx.tolist() == [0, 0] and np.isfinite(score).all()
    basis = np.array([[1.0, 0.0], [0.0, 1.0]])
    worked = np.array([[0.8, 0.6], [0.6, 0.8]])
    assert align(basis, worked, SearchConfig(k=1))[0].tolist() == [0, 1]


@st.composite
def search_case(draw):
    """Row counts at and around the 128-row seed, 256 and the 1,024-row block,
    targets both fewer and more than sources, few distinct target rows
    (exact ties), S == T (cosines at +-1, where the clip matters), k up to
    min(n, m) and every margin kind."""
    n = draw(st.sampled_from([1, 4, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 2049]))
    same = draw(st.booleans())
    m = n if same else draw(st.one_of(st.integers(max(1, n - 300), n), st.integers(n + 1, n + 300)))
    distinct = draw(st.integers(1, m))
    k = draw(st.one_of(st.integers(1, min(n, m, 8)), st.just(min(n, m))))
    kind = draw(st.sampled_from(MARGIN_KINDS))
    return n, m, distinct, same, k, kind, draw(st.integers(0, 99))


@settings(max_examples=40, deadline=None)
@given(search_case())
@example((2049, 2049, 2049, True, 2049, "ratio", 0))
@example((2049, 1900, 7, False, 8, "distance", 1))
@example((257, 1025, 1025, False, 257, "absolute", 2))
def test_search_equals_the_blocked_oracle_bitwise(case):
    n, m, distinct, same, k, kind, seed = case
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 5
    S = rng.normal(size=(n, dim))
    T = S if same else rng.normal(size=(distinct, dim))[rng.integers(0, distinct, size=m)]
    Su, Tu = normalize_rows(S), normalize_rows(T)
    got = neighborhoods(Su, Tu, k)
    want = oracle_neighborhoods(Su, Tu, k)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    cfg = SearchConfig(k=k, margin_kind=kind)
    try:
        want = oracle_blocked_align(S, T, cfg)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            align(S, T, cfg)
        return
    got = align(S, T, cfg)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
