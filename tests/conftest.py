"""Session-scoped fixtures for the end-to-end acceptance checks.

The heavyweight pieces (a 5,000-pair cipher corpus, a 64-dim teacher, and
the three full distillation runs) are built once and shared by every test
that needs them; among unit tests only the trainer's memory guard requests
the corpus, teacher and initial student, so plain module runs stay fast.
"""

import time
import tracemalloc

import pytest

from bitextkit.encoder import FeaturizerConfig, encode_batch, make_teacher
from bitextkit.margin import SearchConfig, xsim_error_rate
from bitextkit.synth import CipherSpec, gen_cipher_corpus
from bitextkit.trainer import TrainConfig, default_student, train_distill

CIPHER_SPEC = CipherSpec(vocab_size=100, min_len=1, max_len=12, map_seed=7)


def traced_peak(fn):
    """(fn(), the peak in bytes of the memory tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def search_peak_bound(n: int, m: int, d: int) -> int:
    """Bytes a margin search of n query rows against m targets of dim d may
    trace at its peak: both sides' unit rows in float64 and the targets in
    float32, one 512-row float32 screen with its two boolean masks, one
    block's query rows in float32, the two 2^15-value float64 gathers of
    pair_cosines, and 1 KiB per query row for its kept entries and column
    candidates.  At n = m = 5,000 and d = 64, a search that also held a
    float32 copy of every query row, or gathered 2^17 values a side, would
    exceed it."""
    rows = (n + m) * d * 8 + m * d * 4 + 512 * d * 4
    return rows + 512 * m * (4 + 1 + 1) + 2 * 2**15 * 8 + n * 1024


def distill_config(**overrides) -> TrainConfig:
    """The pinned end-to-end training configuration."""
    base = dict(
        temperature=0.05,
        filter_threshold=0.9,
        queue_size=512,
        batch_size=32,
        negatives_source="queue",
        shuffle=True,
        prefilter_enabled=False,
        step_size=0.5,
        epochs=6,
        rng_seed=202,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def cipher_spec():
    return CIPHER_SPEC


@pytest.fixture(scope="session")
def train_corpus():
    return gen_cipher_corpus(CIPHER_SPEC, 5000, seed=11)


@pytest.fixture(scope="session")
def held_corpus():
    return gen_cipher_corpus(CIPHER_SPEC, 500, seed=12)


@pytest.fixture(scope="session")
def teacher():
    featurizer = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=2048, hash_seed=101)
    return make_teacher(featurizer, dim=64, weight_seed=101)


@pytest.fixture(scope="session")
def search_cfg():
    return SearchConfig(k=4, margin_kind="ratio")


@pytest.fixture(scope="session")
def student_init(teacher):
    return default_student(teacher, 202)


@pytest.fixture(scope="session")
def held_eval(held_corpus, teacher, search_cfg):
    """Held-out error evaluator: student encoder -> xsim error percentage."""
    sources = [s for s, _ in held_corpus]
    target_emb = encode_batch(teacher, [t for _, t in held_corpus])

    def evaluate(student) -> float:
        return xsim_error_rate(encode_batch(student, sources), target_emb, search_cfg)

    return evaluate


def _timed_run(pairs, teacher, cfg, student_init):
    start = time.perf_counter()
    result = train_distill(pairs, teacher, cfg, student_init=student_init)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def co_run(train_corpus, teacher, student_init):
    """Queue-negatives distillation run (no pre-filter) plus wall time."""
    return _timed_run(train_corpus, teacher, distill_config(), student_init)


@pytest.fixture(scope="session")
def cf_run(train_corpus, teacher, student_init):
    """Queue-negatives run with hard-negative pre-filtering enabled."""
    return _timed_run(
        train_corpus, teacher, distill_config(prefilter_enabled=True), student_init
    )


@pytest.fixture(scope="session")
def ib_run(train_corpus, teacher, student_init):
    """In-batch-negatives baseline run."""
    return _timed_run(
        train_corpus, teacher, distill_config(negatives_source="in_batch"), student_init
    )
