"""errors.check_number, and the settings across the package that it checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.analysis import cosine_histogram
from bitextkit.encoder import FeaturizerConfig
from bitextkit.errors import check_number
from bitextkit.hashing import bucket_ids
from bitextkit.margin import SearchConfig, knn
from bitextkit.synth import CipherSpec, gen_cipher_corpus
from bitextkit.trainer import NegativeQueue, TrainConfig

# rows that knn searches: 6 candidates
_ROWS = np.eye(6)


@pytest.mark.parametrize(
    "args, message",
    [
        (("n", 0, int, 1), "n: must be >= 1, got 0"),
        (("n", 3, int, 1, False, 2), "n: must be <= 2, got 3"),
        (("x", 0.0, float, 0, True), "x: must be > 0, got 0.0"),
        (("x", 2.0, float, 0, True, 1.5), "x: must be <= 1.5, got 2.0"),
        (("x", math.nan, float), "x: expected a finite number, got nan"),
        (("x", -math.inf, float), "x: expected a finite number, got -inf"),
        (("n", 2.5), "n: expected an integer, got 2.5"),
        (("n", 2.0), "n: expected an integer, got 2.0"),
        (("n", "2"), "n: expected an integer, got '2'"),
    ],
)
def test_check_number_wording(args, message):
    with pytest.raises(ValueError) as exc:
        check_number(*args)
    assert str(exc.value) == message


def test_check_number_returns_the_value():
    assert check_number("x", 0.5, float, 0, strict=True, high=1.5) == 0.5
    assert check_number("x", 1, float, 0) == 1
    got = check_number("n", np.int64(7), int, 1)
    assert got == 7 and type(got) is int
    assert check_number("n", -(2**70)) == -(2**70)  # no bound, any integer
    assert check_number("n", 2**70, int, 0, high=math.inf) == 2**70


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: SearchConfig(k=2.7), "k"),
        (lambda: FeaturizerConfig(bucket_count=2048.9), "bucket_count"),
        (lambda: FeaturizerConfig(ngram_orders=(2.5,)), "ngram_orders"),
        (lambda: TrainConfig(batch_size=2.5), "batch_size"),
        (lambda: TrainConfig(queue_size=7.5), "queue_size"),
        (lambda: TrainConfig(epochs=1.5), "epochs"),
        (lambda: CipherSpec(vocab_size=10.5), "vocab_size"),
        (lambda: CipherSpec(min_len=1.5, max_len=3), "min_len"),
        (lambda: NegativeQueue(2.5, np.empty((0, 4))), "capacity"),
        (lambda: knn(_ROWS, _ROWS, 2.5), "k"),
        (lambda: bucket_ids(["abc"], (2,), 7.5, 0), "n_buckets"),
        (lambda: cosine_histogram([0.0], bins=2.5), "bins"),
        (lambda: gen_cipher_corpus(CipherSpec(), 2.5, 0), "n_pairs"),
    ],
)
def test_a_fractional_integer_setting_is_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name}: expected an integer, got "):
        call()


# name, a call that checks the setting, and the range of values it accepts
INTEGER_SETTINGS = [
    ("k", lambda v: SearchConfig(k=v).k, 1, 2**70),
    ("k", lambda v: knn(_ROWS, _ROWS, v)[0], 1, 6),
    ("ngram_orders", lambda v: FeaturizerConfig(ngram_orders=(v, 2)).ngram_orders, 1, 2**63 - 1),
    ("bucket_count", lambda v: FeaturizerConfig(bucket_count=v).bucket_count, 2, 2**31 - 1),
    ("hash_seed", lambda v: FeaturizerConfig(hash_seed=v).hash_seed, -(2**70), 2**70),
    ("queue_size", lambda v: TrainConfig(queue_size=v).queue_size, 1, 2**70),
    ("batch_size", lambda v: TrainConfig(batch_size=v).batch_size, 1, 2**70),
    ("epochs", lambda v: TrainConfig(epochs=v).epochs, 0, 2**70),
    ("rng_seed", lambda v: TrainConfig(rng_seed=v).rng_seed, 0, 2**70),
    ("vocab_size", lambda v: CipherSpec(vocab_size=v).vocabulary()[2], 2, 648),
    ("min_len", lambda v: CipherSpec(min_len=v, max_len=12).min_len, 1, 12),
    ("max_len", lambda v: CipherSpec(max_len=v).max_len, 1, 2**70),
    ("map_seed", lambda v: CipherSpec(map_seed=v).vocabulary()[2], 0, 2**63),
    ("capacity", lambda v: NegativeQueue(v, np.empty((0, 4))).capacity, 1, 2**70),
    ("n_buckets", lambda v: bucket_ids(["abcd", "xy"], (2, 3), v, 5)[0], 1, 2**63),
    ("bins", lambda v: cosine_histogram([0.0, 0.5], bins=v).counts, 1, 1000),
    ("n_pairs", lambda v: gen_cipher_corpus(CipherSpec(), v, 3), 0, 20),
]


@st.composite
def integer_setting(draw):
    setting = draw(st.sampled_from(INTEGER_SETTINGS))
    low, high = setting[2:]
    # mostly near the bounds, where a truncation or an off-by-one shows
    value = draw(
        st.one_of(
            st.integers(low, min(high, low + 3)),
            st.integers(max(low, high - 3), high),
            st.integers(low, high),
        )
    )
    return setting, value, draw(st.floats(0.01, 0.99))


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@settings(max_examples=300, deadline=None)
@given(case=integer_setting())
def test_integer_settings_take_integers_only(case):
    # a NumPy integer is taken as the int it holds; a float is refused by
    # name, fractional or not, and so is the value just below the range
    (name, call, low, _), value, fraction = case
    want = call(value)
    if abs(value) < 2**63:
        assert _same(call(np.int64(value)), want)
    for bad in (value + fraction, float(value)):
        with pytest.raises(ValueError, match=f"^{name}: expected an integer, got "):
            call(bad)
    if value == low and name != "hash_seed":
        with pytest.raises(ValueError, match=f"^{name}: must be >= {low}, got {low - 1}$"):
            call(low - 1)


def test_normalized_settings_are_python_ints():
    assert type(SearchConfig(k=np.int64(3)).k) is int
    cfg = FeaturizerConfig(ngram_orders=(np.int32(3), 2, np.uint8(3)), bucket_count=np.int64(64))
    assert cfg.ngram_orders == (2, 3) and all(type(o) is int for o in cfg.ngram_orders)
    assert type(cfg.bucket_count) is int and type(cfg.hash_seed) is int
