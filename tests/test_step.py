"""The training step's bookkeeping against tests/step_oracle.py, bit for
bit: the sort-and-slot bucket dedupe, the masked softmax that takes exp
of finite logits only, the partition-threshold equalizer, and whole
training runs with the oracle routines patched in."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_oracle
from bitextkit import trainer
from bitextkit.encoder import FeaturizerConfig, make_teacher
from bitextkit.errors import AllFilteredError
from bitextkit.synth import CipherSpec, gen_cipher_corpus
from bitextkit.trainer import (
    TrainConfig,
    equalize_negatives,
    filtered_infonce_loss,
    train_distill,
)


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


# --- bucket dedupe ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    buckets=st.one_of(st.sampled_from([1, 2, 2048, 65536, 2**20]), st.integers(1, 2**20)),
    entries=st.integers(1, 33 * 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_unique_buckets_equals_np_unique(buckets, entries, seed):
    rng = np.random.default_rng(seed)
    slot = np.empty(buckets, dtype=np.int64)  # stale entries, as in a run
    for _ in range(2):  # the second batch reuses the first one's table
        # a batch's feature ids, concatenated row after row as the step
        # gathers them from featurize_batch: unpadded, with repeats
        pool = rng.integers(0, buckets, size=int(rng.integers(1, entries + 1)))
        ids = rng.choice(pool, size=int(rng.integers(1, entries + 1)))
        assert_same_arrays(
            trainer._unique_buckets(ids, slot), step_oracle.unique_buckets(ids)
        )


# --- masked softmax -----------------------------------------------------------


@st.composite
def softmax_case(draw):
    """Queries, positives and candidates (random unit rows, or signed basis
    vectors whose logits are exactly 0 and +-1/tau), a temperature down to
    1e-3, where masked logits overflow exp, and one of the step's masks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.integers(1, 8))
    dim = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["none", "keep", "in_batch"]))
    pool = batch if kind == "in_batch" else draw(st.integers(1, 24))

    def rows(n):
        if draw(st.booleans()):
            return np.eye(dim)[rng.integers(0, dim, size=n)] * rng.choice([-1.0, 1.0], (n, 1))
        m = rng.normal(size=(n, dim))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    q, k = rows(batch), rows(batch)
    candidates = k if kind == "in_batch" else rows(pool)
    allowed = None
    if kind == "keep":
        allowed = rng.random((batch, pool)) < draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    elif kind == "in_batch":
        allowed = ~np.eye(batch, dtype=bool)
    tau = draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0, 7.0]))
    return q, k, candidates, allowed, tau


@settings(max_examples=200, deadline=None)
@given(softmax_case())
def test_masked_infonce_equals_the_minus_inf_softmax(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trainer._masked_infonce(*case)
    with np.errstate(all="ignore"):
        want = step_oracle.masked_infonce(*case)
    assert_same_arrays(got, want)


def test_filtered_loss_with_the_top_logit_masked_raises_no_warning():
    # at tau = 1e-3 the masked logit 1/tau = 1000 would overflow exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = filtered_infonce_loss(
            [[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 0.0], [-1.0, 0.0]], [[False, True]], 1e-3
        )
    assert loss == 0.0


# --- equalizer ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    batch=st.integers(1, 40),
    pool=st.integers(1, 600),
    keep=st.sampled_from([0.05, 0.5, 0.9, 0.99, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_equalize_equals_the_index_selection(batch, pool, keep, seed):
    mask = np.random.default_rng(seed).random((batch, pool)) < keep
    try:
        want = step_oracle.equalize_negatives(mask, np.random.default_rng(seed + 1))
    except AllFilteredError:
        with pytest.raises(AllFilteredError):
            equalize_negatives(mask, np.random.default_rng(seed + 1))
        return
    got = equalize_negatives(mask, np.random.default_rng(seed + 1))
    assert_same_arrays([got], [want])


class FixedKeys:
    """A stand-in generator whose one draw is a given key matrix."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.float64)

    def random(self, shape):
        assert shape == self.keys.shape
        return self.keys.copy()


def test_equalize_a_tie_at_the_mth_key_falls_back_to_the_index_selection():
    mask = np.array([[True, True, True, True, False], [True, False, True, False, False]])
    # M = 2; row 0's 2nd and 3rd smallest keys tie at 0.5, so a threshold
    # at the 2nd smallest would keep three
    keys = [[0.25, 0.5, 0.75, 0.5, 0.0], [0.5, 0.1, 0.5, 0.2, 0.3]]
    got = equalize_negatives(mask, FixedKeys(keys))
    want = step_oracle.equalize_negatives(mask, FixedKeys(keys))
    assert_same_arrays([got], [want])
    assert got.sum(axis=1).tolist() == [2, 2]
    assert got[0, 0] and not got[0, 2] and got[1].tolist() == mask[1].tolist()


# --- whole runs ---------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"prefilter_enabled": True, "filter_threshold": 0.5},
        {"negatives_source": "in_batch"},
        {"negatives_source": "in_batch", "prefilter_enabled": True, "filter_threshold": 0.5},
    ],
    ids=["queue", "prefilter", "in_batch", "in_batch-prefilter"],
)
def test_training_with_the_oracle_routines_gives_the_same_weights(monkeypatch, overrides):
    featurizer = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=256, hash_seed=101)
    teacher = make_teacher(featurizer, 16, weight_seed=101)
    pairs = gen_cipher_corpus(CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7), 96, 11)
    cfg = TrainConfig(
        temperature=0.1, queue_size=64, batch_size=16, step_size=0.3, epochs=2, rng_seed=9,
        **overrides,
    )
    got = train_distill(pairs, teacher, cfg)
    monkeypatch.setattr(trainer, "_unique_buckets", step_oracle.unique_buckets)
    monkeypatch.setattr(trainer, "_masked_infonce", step_oracle.masked_infonce)
    monkeypatch.setattr(trainer, "equalize_negatives", step_oracle.equalize_negatives)
    want = train_distill(pairs, teacher, cfg)
    assert np.array_equal(got.student.weights, want.student.weights)
    assert got.log_lines == want.log_lines
    if cfg.prefilter_enabled:  # the equalizer subsampled
        assert 0.0 < got.kept_fraction < 1.0
