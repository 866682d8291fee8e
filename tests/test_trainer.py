"""Trainer tests: FIFO queue semantics, InfoNCE closed forms, the
negative pre-filter and equalization, batching, and the train_step /
train_distill contracts (loss-before-update, no input mutation,
determinism, warm-up and fallback counters)."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit import trainer
from bitextkit.encoder import (
    EncoderParams,
    FeaturizerConfig,
    encode,
    encode_batch,
    featurize_batch,
    make_teacher,
)
from bitextkit.errors import (
    AllFilteredError,
    DimMismatchError,
    DivergenceError,
    EmptyNegativesError,
    FrozenEncoderError,
    TooFewPairsError,
    ZeroVectorError,
)
from bitextkit.filtering import count_tokens
from bitextkit.synth import CipherSpec, gen_cipher_corpus
from bitextkit.trainer import (
    NegativeQueue,
    TrainConfig,
    batch_indices,
    default_student,
    equalize_negatives,
    filtered_infonce_loss,
    infonce_loss,
    prefilter_mask,
    queue_update,
    train_distill,
    train_step,
)
from bitextkit.vectors import normalize_rows
from conftest import distill_config

LN_1P_2E_M1 = 0.551444713932051  # ln(1 + 2/e)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_units(rng, n, dim) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def tiny_teacher(buckets=256, dim=16, hash_seed=101):
    cfg = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=buckets, hash_seed=hash_seed)
    return make_teacher(cfg, dim, weight_seed=hash_seed)


def tiny_corpus(n=96, seed=11):
    return gen_cipher_corpus(CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7), n, seed)


# --- config validation --------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": 0.0},
        {"temperature": -1.0},
        {"filter_threshold": 0.0},
        {"filter_threshold": 1.6},
        {"queue_size": 0},
        {"batch_size": 0},
        {"negatives_source": "both"},
        {"negatives_source": "in_batch", "batch_size": 1},
        {"step_size": -0.1},
        {"epochs": -1},
        {"temperature": math.inf},
        {"temperature": math.nan},
        {"step_size": math.inf},
        {"step_size": math.nan},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_config_accepts_zero_step_size_and_boundary_threshold():
    assert TrainConfig(step_size=0.0).step_size == 0.0
    assert TrainConfig(filter_threshold=1.5).filter_threshold == 1.5


# --- negative queue -----------------------------------------------------------


def test_queue_fifo_eviction_keeps_push_order():
    a, b, c, d, e = np.eye(5)
    q = NegativeQueue.empty(3, 5)
    q = queue_update(q, np.stack([c, d, e]))
    assert np.array_equal(q.entries, np.stack([c, d, e]))
    q = queue_update(q, np.stack([a, b]))
    assert np.array_equal(q.entries, np.stack([e, a, b]))
    assert q.size == 3


def test_queue_partial_fill_and_bulk_eviction():
    rows = np.eye(10)
    q = queue_update(NegativeQueue.empty(4, 10), rows[:2])
    assert q.size == 2
    q = queue_update(q, rows)  # push 10 rows through a capacity-4 queue
    assert np.array_equal(q.entries, rows[-4:])


def test_queue_validation():
    with pytest.raises(ValueError):
        NegativeQueue.empty(0, 4)
    with pytest.raises(DimMismatchError):
        NegativeQueue(3, np.ones(4))
    with pytest.raises(ValueError):
        NegativeQueue(1, np.eye(2))  # 2 entries over capacity 1
    with pytest.raises(ValueError):
        NegativeQueue(3, 2.0 * np.eye(2))  # not unit-norm
    with pytest.raises(DimMismatchError):
        queue_update(NegativeQueue.empty(3, 4), np.eye(3))


def test_queue_refuses_rows_the_prefilter_bound_does_not_cover():
    y = normalize_rows(np.random.default_rng(7).normal(size=(1, 64)))
    NegativeQueue(1, y)
    # this row passed a 1e-6 norm tolerance and prefilter_mask at 1.0 kept it
    # as a negative of itself
    near = y * (1 - 4e-7)
    assert prefilter_mask(y, near, 1.0).tolist() == [[True]]
    with pytest.raises(ValueError, match="unit-norm"):
        NegativeQueue(1, near)
    # an EMB1 row is float32: about 4e-8 off, refused until renormalized
    emb1 = y.astype(np.float32).astype(np.float64)
    with pytest.raises(ValueError, match="unit-norm"):
        NegativeQueue(1, emb1)
    NegativeQueue(1, normalize_rows(emb1))


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(2, 512),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 8.0),
)
def test_every_row_the_queue_accepts_drops_itself_at_sigma_one(d, seed, spread):
    rng = np.random.default_rng(seed)
    y = normalize_rows(rng.normal(size=(1, d)) * np.exp(spread * rng.normal(size=(1, d))))
    rows = [NegativeQueue(1, y).entries]  # a row of normalize_rows is accepted
    # along y, the accepted rows shortest and longest by about 2^-52 steps
    for step in (1, -1):
        j = step * (d + 8)  # (1 - j 2^-52)^2 is about 1 - 2j 2^-52: refused
        while True:
            try:
                rows.append(NegativeQueue(1, y * (1.0 - j * 2.0**-52)).entries)
                break
            except ValueError:
                j -= step
    for entries in rows:
        assert prefilter_mask(entries[0], entries, 1.0).tolist() == [False]
        assert prefilter_mask(entries, entries, 1.0).tolist() == [[False]]


# --- infonce loss -------------------------------------------------------------


def test_infonce_closed_form_two_orthogonal_negatives():
    q = np.array([1.0, 0.0, 0.0])
    negs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert infonce_loss(q, q, negs, 1.0) == pytest.approx(LN_1P_2E_M1, abs=1e-12)


def test_infonce_closed_form_uniform_logits():
    # positive and all three negatives orthogonal to the query: ln(4)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    k = np.array([0.0, 1.0, 0.0, 0.0])
    negs = np.array(
        [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 0.0]]
    )
    for tau in (0.05, 0.5, 1.0):
        assert infonce_loss(q, k, negs, tau) == pytest.approx(math.log(4.0), abs=1e-12)


def test_infonce_sharp_temperature():
    q = np.array([1.0, 0.0, 0.0])
    negs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    expected = math.log1p(2.0 * math.exp(-20.0))
    assert infonce_loss(q, q, negs, 0.05) == pytest.approx(expected, rel=1e-9)


def test_infonce_validation():
    q = np.array([1.0, 0.0])
    with pytest.raises(EmptyNegativesError):
        infonce_loss(q, q, np.empty((0, 2)), 1.0)
    with pytest.raises(DimMismatchError):
        infonce_loss(q, q, np.ones(2), 1.0)
    with pytest.raises(DimMismatchError):
        infonce_loss(q, np.ones(3), np.eye(3), 1.0)
    with pytest.raises(ValueError):
        infonce_loss(q, q, np.eye(2), 0.0)


def test_infonce_nonnegative_and_matches_logsumexp_route():
    rng = np.random.default_rng(29)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        n_neg = int(rng.integers(1, 12))
        q = unit(rng.normal(size=dim))
        k = unit(rng.normal(size=dim))
        negs = random_units(rng, n_neg, dim)
        tau = float(rng.uniform(0.05, 2.0))
        got = infonce_loss(q, k, negs, tau)
        logits = np.concatenate(([q @ k], negs @ q)) / tau
        want = float(np.logaddexp.reduce(logits) - logits[0])
        assert got >= 0.0
        assert math.isfinite(got)
        assert got == pytest.approx(want, abs=1e-12)


# --- prefilter ----------------------------------------------------------------


def test_prefilter_threshold_is_strict():
    k = np.array([1.0, 0.0])
    pool = np.array(
        [
            [0.95, math.sqrt(1 - 0.95**2)],  # too similar
            [0.2, math.sqrt(1 - 0.04)],  # kept
        ]
    )
    assert prefilter_mask(k, pool, 0.9).tolist() == [False, True]
    # an entry exactly at the threshold is dropped
    boundary = np.array([[0.5, math.sqrt(0.75)]])
    assert prefilter_mask(k, boundary, 0.5).tolist() == [False]


def test_prefilter_duplicate_and_keep_all_thresholds():
    k = np.array([0.0, 1.0])
    pool = np.stack([k, unit([1.0, 1.0]), np.array([1.0, 0.0])])
    # threshold 1.0: only the exact duplicate (cos == 1) goes
    assert prefilter_mask(k, pool, 1.0).tolist() == [False, True, True]
    # threshold 1.5: everything survives, duplicates included
    assert prefilter_mask(k, pool, 1.5).tolist() == [True, True, True]


def test_prefilter_at_one_drops_exact_duplicates_of_encoder_rows():
    # an encoder row's float64 self-dot often rounds below 1, so a plain
    # cos < 1.0 kept some rows as negatives of themselves
    featurizer = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=2048, hash_seed=101)
    teacher = make_teacher(featurizer, 64, weight_seed=101)
    spec = CipherSpec(vocab_size=100, min_len=1, max_len=12, map_seed=7)
    E = encode_batch(teacher, [t for _, t in gen_cipher_corpus(spec, 64, 11)])
    cos = E @ E.T
    assert (np.diagonal(cos) < 1.0).any()
    duplicate = (E[:, None, :] == E[None, :, :]).all(axis=2)
    assert not (prefilter_mask(E, E, 1.0) & duplicate).any()
    assert not prefilter_mask(E[3], E, 1.0)[3]
    # the fix only moves thresholds within (4d + 5) 2^-52 of 1
    delta = (4 * 64 + 5) * 2.0**-52
    for sigma in (0.5, 0.9, 1.0 - delta, 1.0 + 2.0**-52, 1.5):
        expected = (np.minimum(cos, 1.0) if sigma > 1.0 else cos) < sigma
        assert np.array_equal(prefilter_mask(E, E, sigma), expected)
    assert np.array_equal(prefilter_mask(E, E, 1.0), cos < 1.0 - delta)


def test_prefilter_mask_monotone_in_threshold():
    rng = np.random.default_rng(43)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        k = unit(rng.normal(size=dim))
        pool = random_units(rng, int(rng.integers(1, 20)), dim)
        lo, hi = sorted(rng.uniform(0.05, 1.5, size=2))
        kept_lo = prefilter_mask(k, pool, float(lo))
        kept_hi = prefilter_mask(k, pool, float(hi))
        assert not (kept_lo & ~kept_hi).any()  # raising sigma never drops more


def test_prefilter_validation():
    k = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        prefilter_mask(k, np.eye(2), 0.0)
    with pytest.raises(DimMismatchError):
        prefilter_mask(k, np.eye(3), 0.9)


# --- equalization -------------------------------------------------------------


def test_equalize_subsamples_to_batch_min():
    mask = np.zeros((3, 8), dtype=bool)
    mask[0, [0, 2, 4, 5, 7]] = True  # 5 survivors
    mask[1, [1, 3, 6]] = True  # 3 survivors (the minimum)
    mask[2, [0, 1, 2, 3]] = True  # 4 survivors
    keep = equalize_negatives(mask, np.random.default_rng(0))
    assert keep.dtype == bool and keep.shape == mask.shape
    assert keep.sum(axis=1).tolist() == [3, 3, 3]
    assert (keep <= mask).all()  # a subset of each row's survivors
    assert np.array_equal(keep[1], mask[1])  # min row is passed through


def test_equalize_identity_when_sizes_match():
    mask = np.zeros((2, 6), dtype=bool)
    mask[0, [1, 4]] = True
    mask[1, [0, 5]] = True
    keep = equalize_negatives(mask, np.random.default_rng(99))
    assert np.array_equal(keep, mask)


def test_equalize_deterministic_for_fixed_rng():
    rng_mask = np.random.default_rng(3)
    mask = rng_mask.random((6, 40)) < 0.5
    mask[:, 0] = True  # guarantee no empty row
    a = equalize_negatives(mask, np.random.default_rng(7))
    b = equalize_negatives(mask, np.random.default_rng(7))
    assert np.array_equal(a, b)


@st.composite
def survivor_mask(draw):
    """A boolean (batch, pool) mask in which every row keeps something."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 12))
    row = st.lists(st.booleans(), min_size=cols, max_size=cols)
    mask = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=bool)
    one_per_row = st.lists(st.integers(0, cols - 1), min_size=rows, max_size=rows)
    mask[np.arange(rows), draw(one_per_row)] = True
    return mask


@settings(max_examples=200, deadline=None)
@given(survivor_mask(), st.integers(0, 2**32 - 1))
def test_equalize_keeps_m_survivors_per_row(mask, seed):
    keep = equalize_negatives(mask, np.random.default_rng(seed))
    sizes = mask.sum(axis=1)
    m_min = int(sizes.min())
    assert keep.shape == mask.shape
    assert (keep.sum(axis=1) == m_min).all()
    assert (keep <= mask).all()  # a subset of each row's survivors
    min_rows = sizes == m_min  # a min-size row passes through unchanged
    assert np.array_equal(keep[min_rows], mask[min_rows])
    again = equalize_negatives(mask, np.random.default_rng(seed))
    assert np.array_equal(keep, again)


def test_equalize_raises_when_a_row_keeps_nothing():
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(AllFilteredError, match="sample 1"):
        equalize_negatives(mask, np.random.default_rng(0))


# --- filtered loss ------------------------------------------------------------


def test_filtered_loss_with_keep_all_threshold_matches_unfiltered():
    rng = np.random.default_rng(17)
    for _ in range(50):
        dim = int(rng.integers(2, 8))
        batch = int(rng.integers(1, 6))
        pool_n = int(rng.integers(1, 15))
        q = random_units(rng, batch, dim)
        k = random_units(rng, batch, dim)
        pool = random_units(rng, pool_n, dim)
        tau = float(rng.uniform(0.05, 1.5))
        mask = np.stack([prefilter_mask(k[j], pool, 1.5) for j in range(batch)])
        keep = equalize_negatives(mask, rng)
        filtered = filtered_infonce_loss(q, k, pool, keep, tau)
        plain = np.mean([infonce_loss(q[j], k[j], pool, tau) for j in range(batch)])
        assert abs(filtered - plain) <= 1e-12


def test_filtered_loss_composed_closed_form():
    # one sample, pool = {near-duplicate, two orthogonal}: the filter drops
    # the near-duplicate and the loss collapses to the two-negative form
    q = np.array([1.0, 0.0, 0.0])
    pool = np.array(
        [
            [0.95, math.sqrt(1 - 0.95**2), 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    mask = prefilter_mask(q, pool, 0.9)[None, :]
    keep = equalize_negatives(mask, np.random.default_rng(0))
    assert keep.tolist() == [[False, True, True]]
    got = filtered_infonce_loss(q[None, :], q[None, :], pool, keep, 1.0)
    assert got == pytest.approx(LN_1P_2E_M1, abs=1e-12)


def test_filtered_loss_validation():
    q = np.eye(2)
    one_row = np.ones((1, 2), dtype=bool)  # 2 samples, 1 mask row
    with pytest.raises(DimMismatchError, match="keep-mask shape"):
        filtered_infonce_loss(q, q, np.eye(2), one_row, 1.0)
    with pytest.raises(DimMismatchError, match="keep-mask shape"):
        filtered_infonce_loss(q, q, np.eye(2), np.ones((2, 3), dtype=bool), 1.0)
    keep = np.array([[True, False], [False, False]])
    with pytest.raises(EmptyNegativesError, match="sample 1"):
        filtered_infonce_loss(q, q, np.eye(2), keep, 1.0)


# --- batching -----------------------------------------------------------------


def test_batches_without_shuffle_group_by_length():
    cfg = TrainConfig(batch_size=2, shuffle=False)
    batches = batch_indices([5, 2, 9, 2], cfg, np.random.default_rng(0))
    assert [b.tolist() for b in batches] == [[1, 3], [0, 2]]


def test_make_batches_keys_on_target_token_count():
    pairs = [("s0", "a b c"), ("s1", "a"), ("s2", "a b c d"), ("s3", "b")]
    cfg = TrainConfig(batch_size=2, shuffle=False)
    batches = batch_indices([count_tokens(t) for _, t in pairs], cfg, np.random.default_rng(0))
    assert [b.tolist() for b in batches] == [[1, 3], [0, 2]]


def test_shuffled_batches_are_seeded_permutations():
    # the order comes from the generator passed in; there is no fallback
    # that would draw an order no training run uses
    cfg = TrainConfig(batch_size=4, shuffle=True, rng_seed=5)
    lengths = list(range(11))
    a = batch_indices(lengths, cfg, np.random.default_rng(5))
    b = batch_indices(lengths, cfg, np.random.default_rng(5))
    assert [x.tolist() for x in a] == [x.tolist() for x in b]
    assert sorted(np.concatenate(a).tolist()) == list(range(11))
    assert [len(x) for x in a] == [4, 4, 3]
    c = batch_indices(lengths, cfg, np.random.default_rng(6))
    assert [x.tolist() for x in a] != [x.tolist() for x in c]
    with pytest.raises(TypeError):
        batch_indices(lengths, cfg)


def test_empty_corpus_gives_no_batches():
    assert batch_indices([], TrainConfig(), np.random.default_rng(0)) == []


@pytest.mark.parametrize("queue_size", [1, 7, 16, 40, 100])
@pytest.mark.parametrize("shuffle", [True, False])
def test_schedule_queues_are_a_fifo_over_the_run_target_stream(queue_size, shuffle):
    # one FIFO of corpus rows pushed after every batch, across epochs,
    # against the schedule's teacher rows (a queue longer than the corpus
    # spans several epochs); the corpus's teacher rows are distinct, so
    # equal rows mean equal corpus rows
    targets = [t for _, t in tiny_corpus(37)]
    teacher = tiny_teacher()
    tgt = encode_batch(teacher, targets)
    assert len(np.unique(tgt, axis=0)) == len(targets)
    lengths = [count_tokens(t) for t in targets]
    cfg = run_cfg(batch_size=8, queue_size=queue_size, shuffle=shuffle)
    batch_rng = trainer._rng_streams(cfg.rng_seed)[1]
    fifo, epochs = [], trainer._schedule(targets, teacher, cfg)
    for _ in range(4):
        steps = next(epochs)
        assert [b.tolist() for b, _, _ in steps] == [
            b.tolist() for b in batch_indices(lengths, cfg, batch_rng)
        ]
        # every window is a view of the epoch's one stream matrix
        assert len({id(m.base) for _, k, queue in steps for m in (k, queue)}) == 1
        for batch, k, queue in steps:
            assert np.array_equal(k, tgt[batch])
            assert np.array_equal(queue, tgt[fifo])
            fifo = (fifo + batch.tolist())[-queue_size:]


def test_length_batching_reduces_within_batch_spread():
    rng = np.random.default_rng(8)
    lengths = rng.integers(1, 13, size=1000)

    def mean_within_var(batches):
        return float(np.mean([np.var(lengths[b]) for b in batches if len(b) > 1]))

    rng = np.random.default_rng(1)
    sorted_var = mean_within_var(
        batch_indices(lengths, TrainConfig(batch_size=32, shuffle=False), rng)
    )
    shuffled_var = mean_within_var(
        batch_indices(lengths, TrainConfig(batch_size=32, shuffle=True), rng)
    )
    assert sorted_var < shuffled_var


# --- train_step ---------------------------------------------------------------


def step_fixtures():
    teacher = tiny_teacher()
    student = default_student(teacher, rng_seed=5)
    pairs = tiny_corpus(n=16)
    return teacher, student, pairs


def batch_loss_against(student, teacher, batch, pool, tau):
    """Batch-mean InfoNCE of the given student against a fixed pool."""
    losses = []
    for src, tgt in batch:
        q = encode(student, src)
        k = encode(teacher, tgt)
        losses.append(infonce_loss(q, k, pool, tau))
    return float(np.mean(losses))


def test_train_step_warm_up_enqueues_without_learning():
    teacher, student, pairs = step_fixtures()
    cfg = TrainConfig(batch_size=4, queue_size=8, rng_seed=0)
    queue = NegativeQueue.empty(cfg.queue_size, teacher.dim)
    loss, new_student, new_queue = train_step(student, teacher, pairs[:4], queue, cfg)
    assert loss is None
    assert np.array_equal(new_student.weights, student.weights)
    assert new_queue.size == 4


def test_train_step_loss_is_pre_update_and_inputs_are_untouched():
    teacher, student, pairs = step_fixtures()
    cfg = TrainConfig(temperature=0.2, batch_size=4, queue_size=8, step_size=0.3)
    warm_queue = train_step(
        student, teacher, pairs[:4], NegativeQueue.empty(8, teacher.dim), cfg
    )[2]
    w_before = student.weights.copy()
    q_before = warm_queue.entries.copy()
    loss, new_student, new_queue = train_step(
        student, teacher, pairs[4:8], warm_queue, cfg
    )
    # the reported loss is the batch loss of the *original* student
    expected = batch_loss_against(
        student, teacher, pairs[4:8], warm_queue.entries, cfg.temperature
    )
    assert loss == pytest.approx(expected, abs=1e-12)
    # no mutation of inputs
    assert np.array_equal(student.weights, w_before)
    assert np.array_equal(warm_queue.entries, q_before)
    # the update actually changed the returned student
    assert not np.array_equal(new_student.weights, student.weights)
    assert new_queue.size == 8


def test_train_step_descends_on_the_batch():
    teacher, student, pairs = step_fixtures()
    cfg = TrainConfig(temperature=0.2, batch_size=4, queue_size=8, step_size=0.3)
    warm_queue = train_step(
        student, teacher, pairs[:4], NegativeQueue.empty(8, teacher.dim), cfg
    )[2]
    loss_before, new_student, _ = train_step(student, teacher, pairs[4:8], warm_queue, cfg)
    loss_after = batch_loss_against(
        new_student, teacher, pairs[4:8], warm_queue.entries, cfg.temperature
    )
    assert loss_after < loss_before


def test_train_step_leaves_rows_outside_the_batch_buckets_unchanged():
    teacher, student, pairs = step_fixtures()
    cfg = TrainConfig(temperature=0.2, batch_size=4, queue_size=8, step_size=0.3)
    warm_queue = train_step(
        student, teacher, pairs[:4], NegativeQueue.empty(8, teacher.dim), cfg
    )[2]
    batch = pairs[4:8]
    _, new_student, _ = train_step(student, teacher, batch, warm_queue, cfg)
    active = np.unique(featurize_batch([s for s, _ in batch], student.featurizer)[1])
    inactive = np.setdiff1d(np.arange(student.featurizer.bucket_count), active)
    assert inactive.size and active.size
    assert np.array_equal(new_student.weights[inactive], student.weights[inactive])
    assert (new_student.weights[active] != student.weights[active]).any(axis=1).all()


def test_train_step_update_is_orthogonal_to_the_weights():
    # embeddings are normalized, so the loss is constant along W's own
    # direction (L(cW) = L(W)) and its gradient has no component along W
    teacher, student, pairs = step_fixtures()
    for source in ("queue", "in_batch"):
        cfg = TrainConfig(
            temperature=0.2,
            batch_size=4,
            queue_size=8,
            step_size=1.0,
            negatives_source=source,
        )
        queue = NegativeQueue(8, encode_batch(teacher, [t for _, t in pairs[8:]]))
        loss, new_student, _ = train_step(student, teacher, pairs[:4], queue, cfg)
        assert loss is not None
        delta = new_student.weights - student.weights
        scale = np.linalg.norm(delta) * np.linalg.norm(student.weights)
        assert scale > 0
        assert abs(np.vdot(delta, student.weights)) <= 1e-10 * scale


def test_train_step_zero_step_size_evaluates_without_updating():
    teacher, student, pairs = step_fixtures()
    cfg = TrainConfig(batch_size=4, queue_size=8, step_size=0.0)
    warm_queue = train_step(
        student, teacher, pairs[:4], NegativeQueue.empty(8, teacher.dim), cfg
    )[2]
    loss, new_student, new_queue = train_step(student, teacher, pairs[4:8], warm_queue, cfg)
    assert loss is not None and math.isfinite(loss)
    assert np.array_equal(new_student.weights, student.weights)
    assert new_queue.size == 8  # the queue still advances


def test_train_step_in_batch_matches_direct_softmax():
    teacher, student, pairs = step_fixtures()
    cfg = TrainConfig(
        temperature=0.3, batch_size=4, negatives_source="in_batch", step_size=0.1
    )
    batch = pairs[:4]
    queue = NegativeQueue.empty(4, teacher.dim)
    loss, _, _ = train_step(student, teacher, batch, queue, cfg)
    q = np.stack([encode(student, s) for s, _ in batch])
    k = np.stack([encode(teacher, t) for _, t in batch])
    logits = (q @ k.T) / cfg.temperature
    expected = float(
        np.mean(np.log(np.exp(logits).sum(axis=1)) - np.diag(logits))
    )
    assert loss == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("source", ["queue", "in_batch"])
def test_train_step_prefilter_loss_equals_filtered_infonce(source):
    # at step size 0 the step's loss is the public filtered loss over the
    # public equalizer, drawing from an identically seeded rng
    teacher, student, pairs = step_fixtures()
    cfg = TrainConfig(
        temperature=0.2,
        batch_size=8,
        queue_size=16,
        step_size=0.0,
        negatives_source=source,
        prefilter_enabled=True,
        filter_threshold=0.3,
    )
    batch = pairs[:8]
    queue = NegativeQueue(16, encode_batch(teacher, [t for _, t in pairs[8:]]))
    loss, _, _ = train_step(student, teacher, batch, queue, cfg, np.random.default_rng(5))
    q = encode_batch(student, [s for s, _ in batch])
    k = encode_batch(teacher, [t for _, t in batch])
    pool = k if source == "in_batch" else queue.entries
    mask = prefilter_mask(k, pool, cfg.filter_threshold)
    if source == "in_batch":
        np.fill_diagonal(mask, False)
    assert mask.sum(axis=1).min() > 0  # no m = 0 fallback
    assert len(set(mask.sum(axis=1))) > 1  # equalization subsamples
    keep = equalize_negatives(mask, np.random.default_rng(5))
    want = filtered_infonce_loss(q, k, pool, keep, cfg.temperature)
    assert loss == pytest.approx(want, abs=1e-12)


def random_word(rng, alphabet, max_len=4) -> str:
    length = int(rng.integers(1, max_len + 1))
    return "".join(alphabet[int(c)] for c in rng.integers(0, len(alphabet), size=length))


@pytest.mark.parametrize(
    "overrides",
    [
        {"prefilter_enabled": True},
        {"negatives_source": "in_batch"},
        {"negatives_source": "in_batch", "prefilter_enabled": True},
    ],
    ids=["queue+prefilter", "in_batch", "in_batch+prefilter"],
)
def test_step_gradient_matches_finite_differences(overrides):
    # the modes acceptance criterion 1 leaves out; the seeded rng fixes the
    # equalization draw, so the filtered loss is smooth in W
    rng = np.random.default_rng(778)
    eps = 1e-4
    checked = dropped = 0
    while checked < 12:
        buckets = int(rng.integers(2, 11))
        dim = int(rng.integers(2, 9))
        teacher_feat = FeaturizerConfig(
            ngram_orders=(1, 2), bucket_count=buckets, hash_seed=int(rng.integers(0, 1000))
        )
        teacher = make_teacher(teacher_feat, dim, weight_seed=int(rng.integers(0, 1000)))
        student_feat = replace(teacher_feat, hash_seed=teacher_feat.hash_seed + 1)
        W0 = rng.uniform(-0.5, 0.5, size=(buckets, dim))
        batch = [
            (random_word(rng, "abcd"), random_word(rng, "nopq"))
            for _ in range(int(rng.integers(2, 4)))
        ]
        queue = NegativeQueue(8, random_units(rng, 4, dim))
        cfg = TrainConfig(
            temperature=0.5,
            queue_size=8,
            batch_size=len(batch),
            filter_threshold=0.5,
            **overrides,
        )

        def step(W, step_size):
            student = EncoderParams(student_feat, W)
            step_cfg = replace(cfg, step_size=step_size)
            return train_step(
                student, teacher, batch, queue, step_cfg, rng=np.random.default_rng(778)
            )

        try:
            analytic = W0 - step(W0.copy(), 1.0)[1].weights
        except ZeroVectorError:
            continue  # a degenerate draw; take another instance
        fd = np.zeros_like(W0)
        for b in range(buckets):
            for d in range(dim):
                w_plus, w_minus = W0.copy(), W0.copy()
                w_plus[b, d] += eps
                w_minus[b, d] -= eps
                fd[b, d] = (step(w_plus, 0.0)[0] - step(w_minus, 0.0)[0]) / (2.0 * eps)
        scale = np.maximum(np.abs(analytic), np.abs(fd))
        rel = np.where(scale < 1e-10, 0.0, np.abs(analytic - fd) / np.maximum(scale, 1e-300))
        assert rel.max() <= 1e-4
        if cfg.prefilter_enabled:
            k = encode_batch(teacher, [t for _, t in batch])
            in_batch = cfg.negatives_source == "in_batch"
            mask = prefilter_mask(k, k if in_batch else queue.entries, 0.5)
            dropped += int((~mask).sum() > (len(batch) if in_batch else 0))
        checked += 1
    if overrides.get("prefilter_enabled"):
        assert dropped > 0


def test_train_step_raises_for_a_collapsed_projection_on_skipped_steps():
    # the zero-norm check runs before the warm-up / lone-sample skip
    teacher, student, pairs = step_fixtures()
    dead = EncoderParams(student.featurizer, np.zeros_like(student.weights))
    empty = NegativeQueue.empty(8, teacher.dim)
    with pytest.raises(ZeroVectorError, match="collapsed"):
        train_step(dead, teacher, pairs[:4], empty, TrainConfig(batch_size=4, queue_size=8))
    in_batch = TrainConfig(batch_size=2, negatives_source="in_batch")
    with pytest.raises(ZeroVectorError, match="collapsed"):
        train_step(dead, teacher, pairs[:1], empty, in_batch)


def test_train_step_role_and_input_checks():
    teacher, student, pairs = step_fixtures()
    queue = NegativeQueue.empty(4, teacher.dim)
    cfg = TrainConfig(batch_size=4)
    with pytest.raises(FrozenEncoderError):
        train_step(teacher, teacher, pairs[:4], queue, cfg)
    with pytest.raises(ValueError, match="teacher encoder must be frozen"):
        train_step(student, student, pairs[:4], queue, cfg)
    with pytest.raises(ValueError, match="hash seeds must differ"):
        clash = EncoderParams(teacher.featurizer, student.weights.copy())
        train_step(clash, teacher, pairs[:4], queue, cfg)
    with pytest.raises(ValueError, match="empty batch"):
        train_step(student, teacher, [], queue, cfg)


# --- train_distill ------------------------------------------------------------


def run_cfg(**overrides):
    base = dict(
        temperature=0.1,
        filter_threshold=0.9,
        queue_size=64,
        batch_size=16,
        shuffle=True,
        step_size=0.3,
        epochs=2,
        rng_seed=9,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_in_batch_distill_never_gathers_queue_rows(monkeypatch):
    # in-batch steps contrast against the batch's own teacher rows, so the
    # FIFO is never read there: its size cannot move the weights, and a
    # queue of NaN rows handed to every step leaves them as they are
    teacher = tiny_teacher()
    runs = [
        train_distill(tiny_corpus(), teacher, run_cfg(negatives_source="in_batch", queue_size=q))
        for q in (8, 4096)
    ]
    assert np.array_equal(runs[0].student.weights, runs[1].student.weights)

    step_core, queues = trainer._step_core, []

    def poisoned(W, feats, k, queue, *rest):
        queues.append(queue.shape[0])
        return step_core(W, feats, k, np.full_like(queue, np.nan), *rest)

    monkeypatch.setattr(trainer, "_step_core", poisoned)
    again = train_distill(tiny_corpus(), teacher, run_cfg(negatives_source="in_batch"))
    assert np.array_equal(again.student.weights, runs[0].student.weights)
    assert max(queues) == run_cfg().queue_size


def test_train_step_without_rng_is_the_first_step_of_train_distill(monkeypatch):
    # with rng omitted, equalization draws from the run's equalization
    # stream; it used to draw from default_rng(rng_seed), which no run uses
    teacher, pairs = tiny_teacher(), tiny_corpus()
    cfg = run_cfg(
        negatives_source="in_batch", prefilter_enabled=True, filter_threshold=0.5,
        shuffle=False, epochs=1,
    )
    init = default_student(teacher, cfg.rng_seed)
    step_core, first = trainer._step_core, []

    def recording(W, feats, k, *rest):
        loss = step_core(W, feats, k, *rest)
        first.append((W.copy(), k.copy()))
        return loss

    monkeypatch.setattr(trainer, "_step_core", recording)
    train_distill(pairs, teacher, cfg, student_init=init)
    batch, _, _ = next(trainer._schedule([t for _, t in pairs], teacher, cfg))[0]
    # the step's teacher rows are the ones train_step encodes for its batch
    assert np.array_equal(first[0][1], encode_batch(teacher, [pairs[i][1] for i in batch]))
    empty = NegativeQueue.empty(cfg.queue_size, teacher.dim)
    step_args = (init, teacher, [pairs[i] for i in batch], empty, cfg)
    assert np.array_equal(train_step(*step_args)[1].weights, first[0][0])
    # the draws decide this step: the old stream gives other weights
    old = train_step(*step_args, np.random.default_rng(cfg.rng_seed))[1]
    assert not np.array_equal(old.weights, first[0][0])


@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"prefilter_enabled": True, "filter_threshold": 0.5},
        {"negatives_source": "in_batch"},
        {"negatives_source": "in_batch", "prefilter_enabled": True, "filter_threshold": 0.5},
    ],
    ids=["queue", "prefilter", "in-batch", "in-batch-prefilter"],
)
def test_train_distill_is_train_step_replayed_over_its_batches(overrides, shuffle):
    # an oracle outside the schedule: train_step over batch_indices' batch
    # order stream, threading one NegativeQueue across epochs and the run's
    # equalization generator
    teacher, pairs = tiny_teacher(), tiny_corpus()
    cfg = run_cfg(shuffle=shuffle, epochs=2, **overrides)
    student = default_student(teacher, cfg.rng_seed)
    result = train_distill(pairs, teacher, cfg, student_init=student)
    if cfg.prefilter_enabled:
        assert result.kept_fraction < 1.0
    _, batch_rng, eq_rng = trainer._rng_streams(cfg.rng_seed)
    lengths = [count_tokens(t) for _, t in pairs]
    queue = NegativeQueue.empty(cfg.queue_size, teacher.dim)
    for _ in range(cfg.epochs):
        for batch in batch_indices(lengths, cfg, batch_rng):
            _, student, queue = train_step(
                student, teacher, [pairs[i] for i in batch], queue, cfg, eq_rng
            )
    assert np.array_equal(student.weights, result.student.weights)


@pytest.mark.parametrize("epochs", [0, 1])
def test_distill_refuses_an_unencodable_target_before_any_step(monkeypatch, epochs):
    # the teacher side is encoded up front, even when no epoch runs
    def stepped(*args):
        raise AssertionError("a step ran before the targets were encoded")

    monkeypatch.setattr(trainer, "_step_core", stepped)
    pairs = tiny_corpus()
    pairs[7] = (pairs[7][0], "")
    with pytest.raises(ZeroVectorError, match="^sentence 7: sentence has no features$"):
        train_distill(pairs, tiny_teacher(), run_cfg(epochs=epochs))


def test_one_teacher_stream_matrix_is_alive_at_a_time(train_corpus, teacher, student_init):
    # a run holds its weights, the sources' compressed rows, the teacher
    # rows and one epoch's stream matrix of teacher rows (the queue's carry,
    # then the corpus); what a step adds is smaller than the first epoch's
    # stream matrix, which an old matrix pinned while the next one is built
    # would add in full
    cfg = distill_config(epochs=2)
    n, row = len(train_corpus), teacher.dim * 8
    feats = featurize_batch([s for s, _ in train_corpus], student_init.featurizer)
    held = student_init.weights.nbytes + sum(a.nbytes for a in feats) + n * row
    stream = (min(cfg.queue_size, n) + n) * row
    tracemalloc.start()
    try:
        train_distill(train_corpus, teacher, cfg, student_init=student_init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held + stream < peak < held + stream + n * row


def test_distill_zero_epochs_returns_init_unchanged():
    teacher = tiny_teacher()
    student = default_student(teacher, 5)
    result = train_distill(tiny_corpus(), teacher, run_cfg(epochs=0), student_init=student)
    assert np.array_equal(result.student.weights, student.weights)
    assert result.epoch_losses == []
    assert result.log_lines == []


@pytest.mark.parametrize(
    "n_pairs, overrides",
    [(20, {"batch_size": 32}), (0, {}), (1, {"negatives_source": "in_batch"})],
    ids=["one-warm-up-batch", "empty", "lone-in-batch-pair"],
)
def test_distill_rejects_a_corpus_that_leaves_an_epoch_without_a_loss_step(
    monkeypatch, n_pairs, overrides
):
    def featurized(*args, **kwargs):
        raise AssertionError("featurized before the corpus size was checked")

    monkeypatch.setattr(trainer, "featurize_batch", featurized)
    with pytest.raises(TooFewPairsError, match=f"^{n_pairs} pairs leave an epoch"):
        train_distill(tiny_corpus(n_pairs), tiny_teacher(), run_cfg(**overrides))


def test_distill_smallest_trainable_corpora_take_a_loss_step_every_epoch():
    teacher = tiny_teacher()
    queue = train_distill(tiny_corpus(17), teacher, run_cfg(batch_size=16))
    in_batch = train_distill(tiny_corpus(2), teacher, run_cfg(negatives_source="in_batch"))
    # the warm-up batch of 16 is skipped; the lone 17th pair still learns
    assert [s.loss_steps for s in queue.epoch_stats] == [1, 2]
    assert [s.loss_steps for s in in_batch.epoch_stats] == [1, 1]
    assert all(math.isfinite(x) for x in queue.epoch_losses + in_batch.epoch_losses)
    # no epoch, no loss step needed
    untrained = train_distill([], teacher, run_cfg(epochs=0))
    assert untrained.log_lines == []


def test_distill_is_deterministic_and_leaves_teacher_alone():
    teacher = tiny_teacher()
    t_weights = teacher.weights.copy()
    a = train_distill(tiny_corpus(), teacher, run_cfg())
    b = train_distill(tiny_corpus(), teacher, run_cfg())
    assert np.array_equal(a.student.weights, b.student.weights)
    assert a.log_lines == b.log_lines
    assert a.epoch_losses == b.epoch_losses
    assert np.array_equal(teacher.weights, t_weights)
    c = train_distill(tiny_corpus(), teacher, run_cfg(rng_seed=10))
    assert not np.array_equal(a.student.weights, c.student.weights)


def test_distill_log_lines_and_stats_shape():
    logged = []
    result = train_distill(tiny_corpus(), tiny_teacher(), run_cfg(), log_fn=logged.append)
    assert result.log_lines == logged
    assert len(result.log_lines) == 2
    pattern = re.compile(
        r"^epoch=\d+ loss=\d+\.\d{6} filtered_out=\d+ m_zero_fallbacks=\d+ "
        r"skipped_steps=\d+ kept_fraction=\d\.\d{6}$"
    )
    for line in result.log_lines:
        assert pattern.match(line), line
    # only the very first step of the run lacks queue negatives
    assert result.epoch_stats[0].skipped_steps == 1
    assert result.epoch_stats[1].skipped_steps == 0
    assert all(math.isfinite(x) for x in result.epoch_losses)


def test_distill_prefilter_stats_and_kept_fraction():
    plain = train_distill(tiny_corpus(), tiny_teacher(), run_cfg())
    assert plain.kept_fraction == 1.0
    filtered = train_distill(
        tiny_corpus(), tiny_teacher(), run_cfg(prefilter_enabled=True, filter_threshold=0.7)
    )
    assert 0.0 < filtered.kept_fraction <= 1.0
    total_masked = sum(s.mask_total for s in filtered.epoch_stats)
    total_dropped = sum(s.filtered_out for s in filtered.epoch_stats)
    total_kept = sum(s.mask_kept for s in filtered.epoch_stats)
    assert total_masked == total_dropped + total_kept
    assert total_masked > 0


def test_distill_in_batch_prefilter_counts_only_off_diagonal_pairs():
    cfg = run_cfg(
        negatives_source="in_batch", prefilter_enabled=True, filter_threshold=0.7, epochs=1
    )
    stats = train_distill(tiny_corpus(), tiny_teacher(), cfg).epoch_stats[0]
    assert stats.mask_total == 6 * 16 * 15  # 96 pairs in batches of 16
    assert stats.mask_kept + stats.filtered_out == stats.mask_total
    assert 0 < stats.filtered_out and stats.skipped_steps == 0


def test_distill_identical_targets_trigger_m_zero_fallback():
    # every target embeds identically, so the filter (sigma = 0.9) drops the
    # whole queue for every sample and the full-queue fallback engages
    teacher = tiny_teacher()
    pairs = [(f"abc{'d' * (i % 3)}", "nn oo") for i in range(16)]
    cfg = run_cfg(prefilter_enabled=True, batch_size=4, epochs=1)
    result = train_distill(pairs, teacher, cfg)
    stats = result.epoch_stats[0]
    assert stats.m_zero_fallbacks == 3  # every post-warm-up step falls back
    assert stats.loss_steps == 3
    assert result.kept_fraction == 0.0
    assert all(math.isfinite(x) for x in result.epoch_losses)


def test_distill_divergence_names_the_first_bad_step():
    with pytest.raises(DivergenceError, match=r"^epoch 1 step \d+: non-finite"):
        train_distill(tiny_corpus(), tiny_teacher(), run_cfg(step_size=1e308))


def test_distill_accepts_explicit_student_init():
    teacher = tiny_teacher()
    student = default_student(teacher, 77)
    a = train_distill(tiny_corpus(), teacher, run_cfg(), student_init=student)
    b = train_distill(tiny_corpus(), teacher, run_cfg())
    assert not np.array_equal(a.student.weights, b.student.weights)
    # the explicit init keeps its own featurizer
    assert a.student.featurizer == student.featurizer


def test_default_student_differs_from_teacher_and_is_trainable():
    teacher = tiny_teacher()
    s1 = default_student(teacher, 3)
    s2 = default_student(teacher, 3)
    s3 = default_student(teacher, 4)
    assert not s1.frozen
    assert s1.featurizer.hash_seed != teacher.featurizer.hash_seed
    assert s1.featurizer.ngram_orders == teacher.featurizer.ngram_orders
    assert s1.featurizer.bucket_count == teacher.featurizer.bucket_count
    assert s1.dim == teacher.dim
    assert np.array_equal(s1.weights, s2.weights)
    assert s1.featurizer.hash_seed == s2.featurizer.hash_seed
    assert s1.featurizer.hash_seed != s3.featurizer.hash_seed
    bound = 1.0 / np.sqrt(teacher.featurizer.bucket_count)
    assert (np.abs(s1.weights) <= bound).all()
