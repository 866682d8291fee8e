"""Synthetic cipher-language corpora and controlled noise injection.

A cipher corpus is exactly learnable bitext: a bijective word map sends
source word i to target word pi(i), and each pair is a random source
sentence with its word-by-word translation.  Useful for desk-scale
end-to-end checks where ground truth is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewPairsError, check_number

Pair = tuple[str, str]

# Word surfaces: fixed-length random strings over disjoint per-side
# alphabets (these by default; a CipherSpec may spell either side in any
# script), so the two "languages" share no vocabulary and their n-gram
# overlap is limited to incidental letter patterns.  Small alphabets keep
# enough overlap that same-length sentences are measurably more similar
# under a random-projection encoder than mixed-length ones — the regime
# the batching and filtering diagnostics are designed to expose.
SOURCE_ALPHABET = "abcdef"
TARGET_ALPHABET = "nopqrs"
WORD_LENGTH = 4


def _word_forms(
    rng: np.random.Generator, count: int, alphabet: str, length: int
) -> list[str]:
    """``count`` distinct random words of ``length`` letters."""
    forms: list[str] = []
    seen: set[str] = set()
    while len(forms) < count:
        draw = rng.integers(0, len(alphabet), size=length)
        word = "".join(alphabet[int(c)] for c in draw)
        if word not in seen:
            seen.add(word)
            forms.append(word)
    return forms


def _check_alphabet(side: str, alphabet: str) -> int:
    """Number of distinct letters of a valid word alphabet."""
    if not isinstance(alphabet, str) or len(set(alphabet)) < 2:
        raise ValueError(f"{side}_alphabet must hold at least 2 distinct characters")
    bad = sorted({c for c in alphabet if c.isspace() or c in "^$"})
    if bad:
        raise ValueError(
            f"{side}_alphabet must not hold whitespace or the sentinels ^ and $, "
            f"got {bad!r}"
        )
    try:
        alphabet.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{side}_alphabet must be encodable as UTF-8") from None
    return len(set(alphabet))


@dataclass(frozen=True)
class CipherSpec:
    """Vocabulary size, sentence-length range, the word-map seed and the
    letters each side's words are spelled with."""

    vocab_size: int = 100
    min_len: int = 1
    max_len: int = 12
    map_seed: int = 0
    source_alphabet: str = SOURCE_ALPHABET
    target_alphabet: str = TARGET_ALPHABET

    def __post_init__(self):
        check_number("vocab_size", self.vocab_size, int, 2)
        check_number("min_len", self.min_len, int, 1)
        check_number("max_len", self.max_len, int, self.min_len)
        check_number("map_seed", self.map_seed, int, 0)
        letters = min(
            _check_alphabet("source", self.source_alphabet),
            _check_alphabet("target", self.target_alphabet),
        )
        if set(self.source_alphabet) & set(self.target_alphabet):
            raise ValueError("source_alphabet and target_alphabet must be disjoint")
        limit = letters**WORD_LENGTH
        if self.vocab_size > limit // 2:
            raise ValueError(
                f"vocab_size must be <= {limit // 2} to draw distinct words"
            )

    def vocabulary(self) -> tuple[list[str], list[str], np.ndarray]:
        """(source words, target words, permutation) — all derived from
        map_seed; the bijection sends source word i to target word perm[i]."""
        rng = np.random.default_rng(self.map_seed)
        src_words = _word_forms(rng, self.vocab_size, self.source_alphabet, WORD_LENGTH)
        tgt_words = _word_forms(rng, self.vocab_size, self.target_alphabet, WORD_LENGTH)
        return src_words, tgt_words, rng.permutation(self.vocab_size)


def gen_cipher_corpus(spec: CipherSpec, n_pairs: int, seed: int) -> list[Pair]:
    """Deterministically draw n_pairs cipher sentence pairs.

    Lengths are uniform on [min_len, max_len] and words uniform over the
    vocabulary; the target is the word-by-word image of the source under
    the bijection.  The same (spec, n_pairs, seed) always yields the same
    corpus; the vocabulary and word map depend only on spec.map_seed.
    """
    check_number("n_pairs", n_pairs, int, 0)
    src_words, tgt_words, word_map = spec.vocabulary()
    rng = np.random.default_rng(seed)
    lengths = rng.integers(spec.min_len, spec.max_len + 1, size=n_pairs)
    mapped = [tgt_words[j] for j in word_map.tolist()]  # lists index fastest
    pairs: list[Pair] = []
    for length in lengths.tolist():
        words = rng.integers(0, spec.vocab_size, size=length).tolist()
        source = " ".join([src_words[w] for w in words])
        pairs.append((source, " ".join([mapped[w] for w in words])))
    return pairs


@dataclass(frozen=True)
class NoisyCorpus:
    """Pairs after misalignment plus exact per-pair noise labels."""

    pairs: list[Pair]
    labels: np.ndarray  # bool, True = target was swapped away from its source

    @property
    def noise_count(self) -> int:
        return int(self.labels.sum())


def inject_noise(pairs: list[Pair], rate: float, seed: int) -> NoisyCorpus:
    """Misalign floor(rate * n) pairs by deranging their targets.

    The chosen pairs' targets are permuted with no fixed point (a single
    random cycle), so every chosen pair ends up with some other chosen
    pair's target; labels mark exactly the chosen set.  Raises
    TooFewPairsError when the chosen set has exactly one element (a
    one-element derangement does not exist) or when rate > 0 with fewer
    than two pairs.
    """
    check_number("rate", rate, float, 0, high=1)
    n = len(pairs)
    labels = np.zeros(n, dtype=bool)
    if rate > 0 and n < 2:
        raise TooFewPairsError("need at least 2 pairs to misalign any")
    m = math.floor(rate * n)
    if m == 0:
        return NoisyCorpus(list(pairs), labels)
    if m == 1:
        raise TooFewPairsError("cannot derange a single chosen pair")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=m, replace=False))
    # Sattolo's algorithm: a uniform random cycle over the chosen slots,
    # hence a derangement of them.
    perm = chosen.copy()
    for i in range(m - 1, 0, -1):
        j = int(rng.integers(0, i))
        perm[i], perm[j] = perm[j], perm[i]
    out = list(pairs)
    for slot, src_of in zip(chosen, perm):
        out[slot] = (pairs[slot][0], pairs[src_of][1])
    labels[chosen] = True
    return NoisyCorpus(out, labels)
