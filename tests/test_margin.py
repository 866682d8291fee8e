"""Margin scoring and alignment tests: the margin combinator, the per-pair
cosine and the float32 screen's error bound, exact-kNN with tie-breaking,
hand-computed 2x2 scores, an exhaustive alignment oracle, a bitwise
exhaustive oracle over pair_cosines, and the evaluation report format."""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit import margin
from bitextkit.errors import DimMismatchError, KTooLargeError, SizeMismatchError
from bitextkit.margin import (
    MARGIN_KINDS,
    SearchConfig,
    align,
    aligned_scores,
    knn,
    margin_scores,
    neighborhood_means,
    pair_cosines,
    xsim_error_rate,
    xsim_report,
)
from bitextkit.vectors import normalize_rows
from conftest import search_peak_bound, traced_peak
from margin_oracle import cosines as oracle_cosines
from margin_oracle import knn as oracle_knn
from margin_oracle import picks as oracle_picks
from margin_oracle import search as oracle_search


def search_terms(S, T, k):
    """The neighbourhood terms (dx, dy) of one screened pass of
    margin._search over the unit rows of S and T."""
    S, T = normalize_rows(S), normalize_rows(T)
    return margin._search(S, T, k, k, margin._screens(S, T))[:2]


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


# --- pair cosines and the float32 screen -------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 64, 65, 300]),
    n=st.integers(1, 40),
    gather=st.sampled_from([1, 5, 64, 1 << 17]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_cosines_bits_depend_only_on_the_two_rows(dim, n, gather, seed):
    rng = np.random.default_rng(seed)
    S = random_units(rng, n, dim)
    T = random_units(rng, n + 3, dim)
    rows, cols = rng.integers(0, n, 50), rng.integers(0, n + 3, 50)
    alone = np.array([pair_cosines(S, T, rows[i : i + 1], cols[i : i + 1])[0] for i in range(50)])
    # the same pairs behind a random prefix, in a random order, gathered in
    # chunks of another size, and with the two rows' roles swapped
    lead = int(rng.integers(0, 9))
    order = rng.permutation(50)
    pre_rows = np.concatenate([rng.integers(0, n, lead), rows[order]])
    pre_cols = np.concatenate([rng.integers(0, n + 3, lead), cols[order]])
    saved = margin._GATHER
    margin._GATHER = gather * dim
    try:
        shuffled = pair_cosines(S, T, pre_rows, pre_cols)[lead:]
        swapped = pair_cosines(T, S, cols, rows)
    finally:
        margin._GATHER = saved
    assert np.array_equal(shuffled, alone[order])
    assert np.array_equal(swapped, alone)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 8, 64, 300]),
    shape=st.sampled_from(["normal", "abs", "near"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_screen_stays_within_the_error_bound(dim, shape, seed):
    # random unit rows, rows in one orthant (cosines bunched), and rows
    # near +-S (cosines at +-1, where the clip acts)
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(60, dim))
    T = rng.normal(size=(70, dim))
    if shape == "abs":
        S, T = np.abs(S), np.abs(T)
    if shape == "near":
        T = np.concatenate([S, -S[:10]]) + 1e-7 * T
    S, T = normalize_rows(S), normalize_rows(T)
    screen = S.astype(np.float32) @ T.astype(np.float32).T
    gap = np.abs(screen.astype(np.float64) - oracle_cosines(S, T)).max()
    assert gap <= margin._screen_eps(dim)


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
    want_idx, want_cos = oracle_knn(Q, C, k)
    idx, cos = knn(Q, C, k)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(cos, want_cos)


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
    """margin_scores of every source-target pair over the search's (dx, dy)."""
    src = np.array([[1.0, 0.0], [0.0, 1.0]])
    tgt = np.array([[0.8, 0.6], [0.6, 0.8]])
    dx, dy = search_terms(src, tgt, 1)
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
    # at n = 1025 the last 512-row block holds one row, fewer than k
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


@pytest.mark.parametrize("empty", ["sources", "targets"])
def test_an_empty_side_raises_k_too_large(empty):
    # k is checked against both sides before any screen: with no target
    # rows, taking dy's minimum would raise a bare NumPy ValueError
    rows = random_units(np.random.default_rng(9), 6, 4)
    none = np.empty((0, 4))
    S, T = (none, rows) if empty == "sources" else (rows, none)
    with pytest.raises(KTooLargeError):
        align(S, T, SearchConfig(k=1))


def test_aligned_scores_refuses_unaligned_or_too_few_rows():
    rows = random_units(np.random.default_rng(9), 6, 4)
    with pytest.raises(SizeMismatchError, match="^aligned sets must match in size: 6 vs 5$"):
        aligned_scores(rows, rows[:5], SearchConfig(k=1))
    with pytest.raises(KTooLargeError):
        aligned_scores(rows, rows, SearchConfig(k=7))
    with pytest.raises(KTooLargeError):
        aligned_scores(np.empty((0, 4)), np.empty((0, 4)), SearchConfig(k=1))


@pytest.mark.parametrize("n, k", [(7, 1), (600, 4), (1100, 16)])
@pytest.mark.parametrize("kind", MARGIN_KINDS)
def test_aligned_scores_are_the_oracles_diagonal_bitwise(n, k, kind):
    rng = np.random.default_rng(n + k)
    S, T = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    cos, dx, dy = oracle_search(S, T, k)
    want = margin_scores(np.diagonal(cos), dx + dy, kind)
    assert np.array_equal(aligned_scores(S, T, SearchConfig(k=k, margin_kind=kind)), want)


def test_align_traced_peak_stays_within_three_blocks():
    # the search holds one float32 screen of at most 512 rows and its two
    # boolean masks, reused for every block and every rescan, rounds each
    # block's query rows to float32 as it screens them, and gathers only a
    # block's kept pairs, in 2^15-value chunks; a float32 copy of all query
    # rows, larger gathers or a whole n x m screen break the bound
    n, d = 5000, 64
    rng = np.random.default_rng(4)
    for shape in (lambda rows: rows, np.abs):
        S = normalize_rows(shape(rng.normal(size=(n, d))))
        T = normalize_rows(shape(rng.normal(size=(n, d))))
        _, peak = traced_peak(lambda: align(S, T, SearchConfig(k=4, margin_kind="ratio")))
        assert peak <= search_peak_bound(n, n, d), f"peak {peak / 2**20:.2f} MiB"


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
    dx, dy = search_terms(normalize_rows(src), normalize_rows(tgt), 1)
    assert dx[0] == -dy[0] != 0.0
    with pytest.raises(ZeroDivisionError):
        align(src, tgt, SearchConfig(k=1, margin_kind="ratio"))


def test_align_ratio_zero_denominator_in_the_last_block_raises():
    # the first 599 sources (e2) give dx = 0 and no zero sum; source 599
    # (e1), in the second 512-row block, has dx = cos(e1, t1) / 2 while
    # every source gives dy_0 = cos(e1, t0) / 2, its exact negative
    src = np.tile(np.eye(3)[1], (600, 1))
    src[599] = np.eye(3)[0]
    tgt = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, 1.0]])
    dx, dy = search_terms(src, tgt, 1)
    zero = dx[:, None] + dy[None, :] == 0.0
    assert zero.any(axis=1).nonzero()[0].tolist() == [599]
    with pytest.raises(ZeroDivisionError):
        align(src, tgt, SearchConfig(k=1, margin_kind="ratio"))
    assert align(src, tgt, SearchConfig(k=1, margin_kind="distance"))[0][599] == 1


def test_align_ratio_zero_term_without_zero_denominator_scores():
    # dx_1 == 0 (e2 is orthogonal to the only target), but no sum is 0; and
    # in the worked 2x2 case dx and dy hold equal values, not negated ones
    src = np.eye(3)[:2]
    tgt = np.array([[1.0, 0.0, 1.0]])
    dx, dy = search_terms(normalize_rows(src), normalize_rows(tgt), 1)
    assert dx[1] == 0.0 and (dx[:, None] + dy != 0.0).all()
    idx, score = align(src, tgt, SearchConfig(k=1, margin_kind="ratio"))
    assert idx.tolist() == [0, 0] and np.isfinite(score).all()
    basis = np.array([[1.0, 0.0], [0.0, 1.0]])
    worked = np.array([[0.8, 0.6], [0.6, 0.8]])
    assert align(basis, worked, SearchConfig(k=1))[0].tolist() == [0, 1]


@st.composite
def search_case(draw):
    """Row counts at and around 128 (the chunk count), 256 (two columns per
    chunk), 512 (one block: the block that seeds each target's bound) and
    1,024 (two blocks), targets both fewer and more than sources, few
    distinct target rows (exact ties), S == T (cosines at +-1, where the
    clip matters), k up to min(n, m), above 512 where both sides allow, and
    every margin kind."""
    n = draw(
        st.sampled_from([1, 4, 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 2049])
    )
    same = draw(st.booleans())
    m = n if same else draw(st.one_of(st.integers(max(1, n - 300), n), st.integers(n + 1, n + 300)))
    distinct = draw(st.integers(1, m))
    k = draw(st.one_of(st.integers(1, min(n, m, 8)), st.integers(min(n, m, 513), min(n, m))))
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
    cos, dx, dy = oracle_search(S, T, k)
    got = search_terms(S, T, k)
    assert np.array_equal(got[0], dx) and np.array_equal(got[1], dy)
    cfg = SearchConfig(k=k, margin_kind=kind)
    try:
        want = oracle_picks(cos, dx, dy, kind)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            align(S, T, cfg)
        return
    got = align(S, T, cfg)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _assert_search_equals_oracle(S, T, k, kind):
    cos, dx, dy = oracle_search(S, T, k)
    try:
        want = oracle_picks(cos, dx, dy, kind)
    except ZeroDivisionError:
        return
    got = align(S, T, SearchConfig(k=k, margin_kind=kind))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(MARGIN_KINDS),
    k=st.integers(1, 6),
    spread=st.sampled_from([1e-9, 1e-7, 1e-6]),
)
def test_search_decides_near_duplicates_by_pair_cosines(seed, kind, k, spread):
    # rows a float32 ulp or less apart: the screen ties or misorders them,
    # and a bound short of the screen's error drops the pair cosines' top k
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(6, 16))
    S = base[rng.integers(0, 6, 200)] + spread * rng.normal(size=(200, 16))
    T = base[rng.integers(0, 6, 300)] + spread * rng.normal(size=(300, 16))
    idx, cos = knn(S, T, k)
    want_idx, want_cos = oracle_knn(S, T, k)
    assert np.array_equal(idx, want_idx) and np.array_equal(cos, want_cos)
    _assert_search_equals_oracle(S, T, k, kind)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(MARGIN_KINDS),
    k=st.integers(1, 6),
    pull=st.sampled_from([-0.1, -0.3, -0.6]),
)
def test_search_picks_for_rows_with_only_negative_cosines(seed, kind, k, pull):
    # every target sits in one cone and 60 of the 200 sources point away from
    # it, so their best score is negative and the ratio floor flips bounds
    rng = np.random.default_rng(seed)
    axis = normalize_rows(rng.normal(size=(1, 16)))
    T = axis + 0.075 * rng.normal(size=(300, 16))
    S = axis + 0.075 * rng.normal(size=(200, 16))
    S[:60] = pull * axis + 0.075 * rng.normal(size=(60, 16))
    _assert_search_equals_oracle(S, T, k, kind)


def certificate_case(seed, n, spread, lift):
    """Sources and targets whose picks split between the certificate and
    the rescan.  Targets: hubs reaching 0.3 to 2 along one axis (spread
    dy), 20 along a second axis that the sources reach only as far as lift
    (dy near lift / 2, which loosens every row's certificate), and 30
    near-duplicates, more than a row keeps.  Sources: a cone, 60
    near-duplicates of those targets, and 60 rows facing away from every
    target (only negative cosines; with lift 0, often dx_i + min dy <= 0)."""
    rng = np.random.default_rng(seed)
    dim = 4 + seed % 13
    hub, side = np.eye(dim)[:2]

    def noise(rows, scale):
        return scale * rng.normal(size=(rows, dim))

    T = rng.uniform(0.3, 2.0, size=(400, 1)) * hub + noise(400, 0.15)
    T[:20] = side + noise(20, 0.05)
    dup = normalize_rows(hub + noise(1, 0.3))
    T[20:50] = dup + noise(30, spread)
    S = hub + noise(n, 0.4)
    S[:, 1] = lift
    S[:60] = dup + noise(60, spread)
    S[60:120] = -(hub + side) + noise(60, 0.05)
    return S, T


def _rescanned(monkeypatch):
    """A list that gathers the source rows align rescans."""
    rows, rescan = [], margin._rescan

    def spy(S, T, buffers, rescanned, *rest):
        rows.extend(rescanned.tolist())
        return rescan(S, T, buffers, rescanned, *rest)

    monkeypatch.setattr(margin, "_rescan", spy)
    return rows


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(513, 700),
    spread=st.sampled_from([1e-9, 1e-6, 1e-3]),
    lift=st.sampled_from([0.0, 0.25]),
    kind=st.sampled_from(MARGIN_KINDS),
    k=st.integers(1, 6),
)
def test_certified_and_rescanned_picks_equal_the_oracle_bitwise(seed, n, spread, lift, kind, k):
    S, T = certificate_case(seed, n, spread, lift)
    cos, dx, dy = oracle_search(S, T, k)
    got = search_terms(S, T, k)
    assert np.array_equal(got[0], dx) and np.array_equal(got[1], dy)
    _assert_search_equals_oracle(S, T, k, kind)


@pytest.mark.parametrize("kind", ["ratio", "distance"])
def test_align_certifies_some_rows_and_rescans_the_rest(kind, monkeypatch):
    rescanned = _rescanned(monkeypatch)
    S, T = certificate_case(0, 600, 1e-6, 0.0)
    cos, dx, dy = oracle_search(S, T, 4)
    unbounded = np.flatnonzero(dx + dy.min() <= 0)
    assert len(unbounded) == 60
    want = oracle_picks(cos, dx, dy, kind)
    got = align(S, T, SearchConfig(k=4, margin_kind=kind))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert 0 < len(rescanned) < len(S) and len(set(rescanned)) == len(rescanned)
    if kind == "ratio":  # no certificate bounds a ratio row with dx_i + min dy <= 0
        assert set(unbounded) <= set(rescanned)


def test_absolute_picks_need_no_rescan(monkeypatch):
    # every screen value is below its pair cosine + eps, so a row's
    # certificate bound (its K-th screen value - eps) is below its best
    rescanned = _rescanned(monkeypatch)
    S, T = certificate_case(0, 600, 1e-6, 0.0)
    cos, dx, dy = oracle_search(S, T, 4)
    want = oracle_picks(cos, dx, dy, "absolute")
    got = align(S, T, SearchConfig(k=4, margin_kind="absolute"))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert rescanned == []


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
