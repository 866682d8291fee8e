"""Synthetic corpus tests: cipher vocabulary/bijection invariants,
deterministic generation, and the derangement-based noise injector."""

import hashlib

import numpy as np
import pytest
import synth_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit import synth
from bitextkit.errors import TooFewPairsError
from bitextkit.synth import (
    SOURCE_ALPHABET,
    TARGET_ALPHABET,
    WORD_LENGTH,
    CipherSpec,
    _word_forms,
    gen_cipher_corpus,
    inject_noise,
)

CYRILLIC = "абвгдежз"
GEEZ = "ሀለሐመሠረ"


def spec(**kwargs):
    base = dict(vocab_size=30, min_len=1, max_len=6, map_seed=7)
    base.update(kwargs)
    return CipherSpec(**base)


# --- vocabulary ---------------------------------------------------------------


def test_vocabulary_shapes_and_alphabets():
    src_words, tgt_words, perm = spec().vocabulary()
    assert len(src_words) == len(set(src_words)) == 30
    assert len(tgt_words) == len(set(tgt_words)) == 30
    assert all(len(w) == WORD_LENGTH for w in src_words + tgt_words)
    assert all(set(w) <= set(SOURCE_ALPHABET) for w in src_words)
    assert all(set(w) <= set(TARGET_ALPHABET) for w in tgt_words)
    assert sorted(perm.tolist()) == list(range(30))


def test_source_and_target_vocabularies_are_disjoint():
    src_words, tgt_words, _ = spec().vocabulary()
    assert not set(src_words) & set(tgt_words)
    assert not set(SOURCE_ALPHABET) & set(TARGET_ALPHABET)


def test_vocabulary_depends_only_on_map_seed():
    a = spec(map_seed=3).vocabulary()
    b = spec(map_seed=3).vocabulary()
    c = spec(map_seed=4).vocabulary()
    assert a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])
    assert a[0] != c[0] or not np.array_equal(a[2], c[2])


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(vocab_size=1)
    with pytest.raises(ValueError):
        spec(vocab_size=len(SOURCE_ALPHABET) ** WORD_LENGTH // 2 + 1)
    with pytest.raises(ValueError):
        spec(min_len=0)
    with pytest.raises(ValueError):
        spec(min_len=5, max_len=4)
    # the documented cap itself is fine
    CipherSpec(vocab_size=len(SOURCE_ALPHABET) ** WORD_LENGTH // 2)


def test_spec_defaults_to_the_module_alphabets():
    assert spec().source_alphabet == SOURCE_ALPHABET
    assert spec().target_alphabet == TARGET_ALPHABET


def test_spec_alphabets_spell_each_side():
    s = spec(source_alphabet="wxyz", target_alphabet=GEEZ)
    src_words, tgt_words, _ = s.vocabulary()
    assert all(set(w) <= set("wxyz") for w in src_words)
    assert all(set(w) <= set(GEEZ) for w in tgt_words)
    pairs = gen_cipher_corpus(s, 40, seed=5)
    assert pairs == gen_cipher_corpus(s, 40, seed=5)
    assert all(set(t) <= set(GEEZ + " ") for _, t in pairs)


@pytest.mark.parametrize(
    "source, target, needle",
    [
        ("a", TARGET_ALPHABET, "at least 2 distinct"),
        ("aaaa", TARGET_ALPHABET, "at least 2 distinct"),
        (SOURCE_ALPHABET, "", "at least 2 distinct"),
        ("ab c", TARGET_ALPHABET, "whitespace"),
        ("ab\t", TARGET_ALPHABET, "whitespace"),
        (SOURCE_ALPHABET, "no\u2028", "whitespace"),
        ("a^b", TARGET_ALPHABET, "sentinels"),
        (SOURCE_ALPHABET, "n$o", "sentinels"),
        ("ab\ud800", TARGET_ALPHABET, "UTF-8"),
        ("abcn", TARGET_ALPHABET, "disjoint"),
        (["a", "b"], TARGET_ALPHABET, "at least 2 distinct"),
    ],
)
def test_spec_rejects_bad_alphabets(source, target, needle):
    with pytest.raises(ValueError, match=needle):
        spec(source_alphabet=source, target_alphabet=target)


def test_vocabulary_limit_follows_the_alphabets():
    # two letters spell 2**4 words, so at most 8 can be drawn by rejection
    spec(vocab_size=8, target_alphabet="no")
    with pytest.raises(ValueError, match="<= 8"):
        spec(vocab_size=9, target_alphabet="no")
    # ten letters a side lift the default alphabets' cap of 648
    wide = spec(vocab_size=1000, source_alphabet="abcdefghij", target_alphabet="klmnopqrst")
    assert len(set(wide.vocabulary()[1])) == 1000


# --- corpus generation --------------------------------------------------------


def test_corpus_is_deterministic():
    a = gen_cipher_corpus(spec(), 50, seed=11)
    b = gen_cipher_corpus(spec(), 50, seed=11)
    c = gen_cipher_corpus(spec(), 50, seed=12)
    assert a == b
    assert a != c
    assert len(a) == 50
    assert gen_cipher_corpus(spec(), 0, seed=1) == []


@pytest.mark.parametrize(
    "cipher, n_pairs, seed, digest",
    [
        (
            CipherSpec(vocab_size=100, min_len=1, max_len=12, map_seed=7),
            500,
            3,
            "9b98c4462d02966062d68cd9309ab34264c5934966259f5e7a27ec839d3e5588",
        ),
        (
            CipherSpec(vocab_size=300, min_len=20, max_len=60, map_seed=5),
            200,
            8,
            "04b7814cd0e0129d0ec936907f7e064d0808bbf1757f116530e721a924efd5a0",
        ),
        (
            CipherSpec(
                vocab_size=200,
                min_len=2,
                max_len=15,
                map_seed=9,
                source_alphabet=CYRILLIC,
                target_alphabet=GEEZ,
            ),
            300,
            4,
            "3388063825a777d9cdfa3d1d77cf105fffa5284f58ce12632430b52f70c1d0a7",
        ),
    ],
    ids=["short", "long", "cyrillic-geez"],
)
def test_corpus_bytes_are_pinned(cipher, n_pairs, seed, digest):
    # every benchmark and acceptance corpus is drawn this way, so a change to
    # the generator's draws or joins must not move a single byte
    pairs = gen_cipher_corpus(cipher, n_pairs, seed)
    text = "".join(f"{source}\t{target}\n" for source, target in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_corpus_lengths_and_surfaces():
    s = spec(min_len=2, max_len=5)
    src_vocab, tgt_vocab, _ = s.vocabulary()
    for source, target in gen_cipher_corpus(s, 200, seed=3):
        s_words = source.split()
        t_words = target.split()
        assert len(s_words) == len(t_words)
        assert 2 <= len(s_words) <= 5
        assert all(w in src_vocab for w in s_words)
        assert all(w in tgt_vocab for w in t_words)


def test_corpus_target_is_word_map_image_of_source():
    s = spec()
    src_words, tgt_words, perm = s.vocabulary()
    to_target = {src_words[i]: tgt_words[perm[i]] for i in range(s.vocab_size)}
    for source, target in gen_cipher_corpus(s, 100, seed=5):
        assert " ".join(to_target[w] for w in source.split()) == target


def test_word_map_is_consistent_across_pairs():
    # every source word maps to exactly one target word over the whole corpus
    seen: dict[str, str] = {}
    for source, target in gen_cipher_corpus(spec(), 300, seed=9):
        for sw, tw in zip(source.split(), target.split()):
            assert seen.setdefault(sw, tw) == tw


def test_corpus_rejects_negative_count():
    with pytest.raises(ValueError):
        gen_cipher_corpus(spec(), -1, seed=0)


# --- noise injection ----------------------------------------------------------


def test_noise_rate_zero_is_identity():
    pairs = gen_cipher_corpus(spec(), 20, seed=2)
    noisy = inject_noise(pairs, 0.0, seed=5)
    assert noisy.pairs == pairs
    assert noisy.noise_count == 0
    assert not noisy.labels.any()


def test_noise_full_rate_deranges_every_target():
    pairs = gen_cipher_corpus(spec(min_len=3), 4, seed=2)
    assert len({t for _, t in pairs}) == 4  # distinct texts, so swaps are visible
    noisy = inject_noise(pairs, 1.0, seed=5)
    assert noisy.labels.all()
    originals = [t for _, t in pairs]
    for i, (source, target) in enumerate(noisy.pairs):
        assert source == pairs[i][0]  # sources never move
        assert target != originals[i]  # no fixed points
        assert target in originals  # targets are only permuted


def test_noise_count_is_floor_of_rate():
    pairs = gen_cipher_corpus(spec(), 1000, seed=2)
    noisy = inject_noise(pairs, 0.3, seed=8)
    assert noisy.noise_count == 300
    assert len(noisy.pairs) == 1000
    rerun = inject_noise(pairs, 0.3, seed=8)
    assert rerun.pairs == noisy.pairs
    assert np.array_equal(rerun.labels, noisy.labels)
    other = inject_noise(pairs, 0.3, seed=9)
    assert other.pairs != noisy.pairs


def test_noise_labels_mark_exactly_the_changed_pairs():
    pairs = gen_cipher_corpus(spec(), 200, seed=6)
    noisy = inject_noise(pairs, 0.25, seed=7)
    for i, flag in enumerate(noisy.labels):
        if flag:
            assert noisy.pairs[i][1] != pairs[i][1]
            assert noisy.pairs[i][0] == pairs[i][0]
        else:
            assert noisy.pairs[i] == pairs[i]


def test_noise_derangement_property_over_seeds():
    pairs = gen_cipher_corpus(spec(min_len=3), 40, seed=1)
    originals = [t for _, t in pairs]
    assert len(set(originals)) == 40  # distinct texts, so swaps are visible
    for seed in range(25):
        noisy = inject_noise(pairs, 0.5, seed=seed)
        chosen = np.flatnonzero(noisy.labels)
        assert chosen.size == 20
        swapped_targets = sorted(noisy.pairs[i][1] for i in chosen)
        assert swapped_targets == sorted(originals[i] for i in chosen)
        assert all(noisy.pairs[i][1] != originals[i] for i in chosen)


def test_noise_bytes_are_pinned():
    # the filter benchmark's corpus shape: its labels are the ground truth
    # that noise recall is scored against
    clean = gen_cipher_corpus(
        CipherSpec(vocab_size=100, min_len=20, max_len=60, map_seed=7), 3000, 11
    )
    noisy = inject_noise(clean, 0.3, 12)
    text = "".join(f"{source}\t{target}\n" for source, target in noisy.pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9d32f9a9866b5d9feef834ff4da00e31669246ba17d674d71d9f11ba6503ec6f"
    )
    assert noisy.labels.dtype == bool and noisy.noise_count == 900
    assert hashlib.sha256(noisy.labels.tobytes()).hexdigest() == (
        "f6b0d6eb413ec028f4f6e0a407a020c3972de4831e97b2f2cdf367315a6839de"
    )


def test_noise_too_few_pairs():
    pairs = gen_cipher_corpus(spec(), 3, seed=1)
    with pytest.raises(TooFewPairsError):
        inject_noise(pairs[:1], 0.5, seed=0)  # n < 2 with rate > 0
    with pytest.raises(TooFewPairsError):
        inject_noise(pairs, 0.34, seed=0)  # floor(0.34 * 3) == 1


def test_noise_rate_validation():
    pairs = gen_cipher_corpus(spec(), 4, seed=1)
    with pytest.raises(ValueError):
        inject_noise(pairs, -0.1, seed=0)
    with pytest.raises(ValueError):
        inject_noise(pairs, 1.1, seed=0)


def test_noise_does_not_mutate_input():
    pairs = gen_cipher_corpus(spec(), 10, seed=4)
    snapshot = list(pairs)
    inject_noise(pairs, 0.5, seed=3)
    assert pairs == snapshot


# --- whole-array draws against the per-item loops -----------------------------


@st.composite
def cipher_case(draw):
    scripts = [SOURCE_ALPHABET, TARGET_ALPHABET, CYRILLIC, GEEZ, "wxyz", "\u05d0\u05d1"]
    source, target = draw(st.permutations(scripts))[:2]
    letters = min(len(source), len(target))
    min_len = draw(st.integers(1, 8))
    cipher = CipherSpec(
        vocab_size=draw(st.integers(2, min(60, letters**WORD_LENGTH // 2))),
        min_len=min_len,
        max_len=draw(st.one_of(st.just(min_len), st.integers(min_len, 20))),
        map_seed=draw(st.integers(0, 2**64)),
        source_alphabet=source,
        target_alphabet=target,
    )
    n_pairs = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 60)))
    return cipher, n_pairs, draw(st.integers(0, 2**64)), draw(st.sampled_from([1, 3, 7, 2**16]))


def _generators(patch):
    """Every generator np.random.default_rng makes from here on."""
    made, make = [], np.random.default_rng
    patch.setattr(np.random, "default_rng", lambda *a: made.append(make(*a)) or made[-1])
    return made


@settings(max_examples=200, deadline=None)
@given(case=cipher_case(), rate=st.floats(0, 1))
@example(case=(CipherSpec(max_len=1), 1, 2**64, 1), rate=1.0)
@example(case=(CipherSpec(min_len=5, max_len=5, target_alphabet=GEEZ), 9, 0, 3), rate=0.5)
def test_whole_array_draws_equal_the_per_item_loops(case, rate):
    # vocabulary, corpus, noise and labels byte for byte, and each generator
    # left in the same state, with chunks down to one sentence
    cipher, n_pairs, seed, chunk = case
    ours, theirs = cipher.vocabulary(), synth_oracle.vocabulary(cipher)
    assert ours[:2] == theirs[:2] and np.array_equal(ours[2], theirs[2])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_CHUNK_WORDS", chunk)
        made = _generators(patch)
        pairs = gen_cipher_corpus(cipher, n_pairs, seed)
        want = synth_oracle.gen_cipher_corpus(cipher, n_pairs, seed)
        assert pairs == want
        assert len(made) == 4  # vocabulary and corpus, each side
        assert made[0].bit_generator.state == made[2].bit_generator.state
        assert made[1].bit_generator.state == made[3].bit_generator.state
    if rate > 0 and n_pairs < 2 or int(rate * n_pairs) == 1:
        with pytest.raises(TooFewPairsError):
            inject_noise(pairs, rate, seed)
        return
    with pytest.MonkeyPatch.context() as patch:
        made = _generators(patch)
        noisy = inject_noise(pairs, rate, seed)
        oracle = synth_oracle.inject_noise(pairs, rate, seed)
        assert noisy.pairs == oracle.pairs
        assert noisy.labels.dtype == bool and np.array_equal(noisy.labels, oracle.labels)
        assert len(made) in (0, 2)
        assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(made, made[1:]))


@settings(max_examples=100, deadline=None)
@given(
    alphabet=st.sampled_from([SOURCE_ALPHABET, CYRILLIC, GEEZ, "no"]),
    count=st.integers(0, 8),
    seed=st.integers(0, 2**64),
)
def test_word_forms_equal_the_per_attempt_loop(alphabet, count, seed):
    # a two-letter alphabet spells 16 words, so 8 of them need retries
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _word_forms(ours, count, alphabet, WORD_LENGTH) == synth_oracle.word_forms(
        theirs, count, alphabet, WORD_LENGTH
    )
    # the next draw from the same generator matches too
    assert np.array_equal(ours.integers(0, 7, size=5), theirs.integers(0, 7, size=5))
    assert ours.bit_generator.state == theirs.bit_generator.state

