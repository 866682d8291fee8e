"""Reference versions of the synth module's draw loops: one
``rng.integers`` call per word form, per sentence and per Sattolo step.

The package draws whole arrays at once; these loops are the definition it
must reproduce byte for byte, down to the generator's state afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from bitextkit.errors import TooFewPairsError, check_number
from bitextkit.synth import WORD_LENGTH, CipherSpec, NoisyCorpus, Pair


def word_forms(
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


def vocabulary(spec: CipherSpec) -> tuple[list[str], list[str], np.ndarray]:
    rng = np.random.default_rng(spec.map_seed)
    src_words = word_forms(rng, spec.vocab_size, spec.source_alphabet, WORD_LENGTH)
    tgt_words = word_forms(rng, spec.vocab_size, spec.target_alphabet, WORD_LENGTH)
    return src_words, tgt_words, rng.permutation(spec.vocab_size)


def gen_cipher_corpus(spec: CipherSpec, n_pairs: int, seed: int) -> list[Pair]:
    check_number("n_pairs", n_pairs, int, 0)
    src_words, tgt_words, word_map = vocabulary(spec)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(spec.min_len, spec.max_len + 1, size=n_pairs)
    mapped = [tgt_words[j] for j in word_map.tolist()]
    pairs: list[Pair] = []
    for length in lengths.tolist():
        words = rng.integers(0, spec.vocab_size, size=length).tolist()
        source = " ".join([src_words[w] for w in words])
        pairs.append((source, " ".join([mapped[w] for w in words])))
    return pairs


def inject_noise(pairs: list[Pair], rate: float, seed: int) -> NoisyCorpus:
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
    perm = chosen.copy()
    for i in range(m - 1, 0, -1):
        j = int(rng.integers(0, i))
        perm[i], perm[j] = perm[j], perm[i]
    out = list(pairs)
    for slot, src_of in zip(chosen, perm):
        out[slot] = (pairs[slot][0], pairs[src_of][1])
    labels[chosen] = True
    return NoisyCorpus(out, labels)
