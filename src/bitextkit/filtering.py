"""Parallel-corpus scoring and token-budgeted subset selection.

Corpora travel as TSV: one ``source<TAB>target`` pair per line.  Blank
lines (whitespace, no tab) and comment lines ('#' first character, no tab)
are skipped on read; every other line is a pair and must hold exactly one
tab, or it is rejected with its 1-based line number.  Scored corpora are
written as ``score<TAB>source<TAB>target`` with six fractional digits,
descending by score.

Scoring embeds sources with the student and targets with the teacher and
assigns each aligned pair its margin score against k-NN neighbourhoods
drawn from the corpus's own embedding sets.  Pairs with an empty side get
score -inf and are excluded from everyone's neighbourhoods.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .embfile import atomic_write_text, open_text
# encode and knn are not called here; perfbench/tracing.py patches them by
# name under this module
from .encoder import EncoderParams, encode, encode_masked  # noqa: F401
from .errors import CorpusFormatError
from .margin import SearchConfig, knn, margin_scores, neighborhoods, pair_cosines  # noqa: F401
from .vectors import normalize_rows

Pair = tuple[str, str]


def count_tokens(sentence: str) -> int:
    """Number of whitespace-delimited tokens ('' -> 0, runs collapse)."""
    return len(sentence.split())


# ---------------------------------------------------------------------------
# TSV I/O
# ---------------------------------------------------------------------------


def read_pairs_tsv(path: str | os.PathLike) -> list[Pair]:
    """Read a pair-per-line TSV corpus.

    Every line with a tab is a pair, even one of blank sentences, so
    whatever write_pairs_tsv wrote reads back as it was.  Raises
    CorpusFormatError listing every offending line number when any
    non-comment, non-blank line does not contain exactly one tab, and
    FormatError naming the line of the first byte that is not UTF-8.
    """
    path = os.fspath(path)
    pairs: list[Pair] = []
    bad: list[int] = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if "\t" not in line and (not line.strip() or line.startswith("#")):
                continue
            if line.count("\t") != 1:
                bad.append(lineno)
                continue
            source, target = line.split("\t")
            pairs.append((source, target))
    if bad:
        raise CorpusFormatError(path, bad, "expected exactly one tab per line")
    return pairs


def _check_writable_sentence(s: str) -> None:
    if "\t" in s or "\n" in s or "\r" in s:
        raise ValueError("sentences must not contain tabs or newlines")


def write_pairs_tsv(
    path: str | os.PathLike, pairs: list[Pair], comments: list[str] | None = None
) -> None:
    """Write pairs as ``source<TAB>target`` lines (atomic), with optional
    leading '#' comment lines."""
    lines = [f"# {c}" for c in (comments or [])]
    for source, target in pairs:
        _check_writable_sentence(source)
        _check_writable_sentence(target)
        lines.append(f"{source}\t{target}")
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ScoredPair:
    """A corpus pair with its margin score and target-side token count."""

    source: str
    target: str
    score: float
    target_tokens: int


def write_scored_tsv(
    path: str | os.PathLike,
    scored: list[ScoredPair],
    comments: list[str] | None = None,
) -> None:
    """Write ``score<TAB>source<TAB>target`` lines, descending by score
    (ties keep the given order); -inf prints as '-inf'."""
    order = sorted(range(len(scored)), key=lambda i: -scored[i].score)
    lines = [f"# {c}" for c in (comments or [])]
    for i in order:
        p = scored[i]
        _check_writable_sentence(p.source)
        _check_writable_sentence(p.target)
        lines.append(f"{p.score:.6f}\t{p.source}\t{p.target}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scoring and selection
# ---------------------------------------------------------------------------


def score_corpus(
    pairs: list[Pair],
    student: EncoderParams,
    teacher: EncoderParams,
    cfg: SearchConfig,
) -> list[ScoredPair]:
    """Margin-score every pair (student encodes sources, teacher targets).

    Pairs with an empty side, or whose encoding collapses, score -inf and
    are isolated from all neighbourhoods.  Output order follows the input.
    """
    src, src_ok = encode_masked(student, [s for s, _ in pairs])
    tgt, tgt_ok = encode_masked(teacher, [t for _, t in pairs])
    valid = np.flatnonzero(src_ok & tgt_ok)  # a pair participates only when whole
    scores = np.full(len(pairs), -math.inf)
    if valid.size:
        S = src[valid]
        T = tgt[valid]
        dx, dy = neighborhoods(S, T, cfg.k)
        # the pair's cosine as align computes it, bit for bit
        rows = np.arange(valid.size)
        diag = pair_cosines(normalize_rows(S), normalize_rows(T), rows, rows)
        scores[valid] = margin_scores(diag, dx + dy, cfg.margin_kind)
    return [
        ScoredPair(source, target, float(scores[i]), count_tokens(target))
        for i, (source, target) in enumerate(pairs)
    ]


def select_by_token_budget(scored: list[ScoredPair], budget: int) -> list[ScoredPair]:
    """Greedy best-first selection under a target-token budget.

    Pairs are taken in descending score order (ties keep input order)
    until the first pair that would overflow the budget; selection stops
    there, so selections for nested budgets are prefixes of each other.
    -inf-scored pairs are never selected.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if any(math.isnan(p.score) for p in scored):
        raise ValueError("scores must not be NaN")
    order = sorted(range(len(scored)), key=lambda i: -scored[i].score)
    out: list[ScoredPair] = []
    total = 0
    for i in order:
        p = scored[i]
        if p.score == -math.inf:
            break  # everything after is -inf too
        if total + p.target_tokens > budget:
            break
        out.append(p)
        total += p.target_tokens
    return out
