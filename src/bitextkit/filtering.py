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

from .embfile import open_text, write_text
# encode and knn are not called here; perfbench/tracing.py patches them by
# name under this module
from .encoder import EncoderParams, encode, encode_masked  # noqa: F401
from .errors import CorpusFormatError
from .margin import SearchConfig, _aligned_unit_scores, _check_dims, _unit_rows, knn  # noqa: F401

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


def write_pairs_tsv(
    path: str | os.PathLike, pairs: list[Pair], comments: list[str] | None = None
) -> None:
    """Write ``source<TAB>target`` lines after optional '#' comment lines
    (embfile.write_text, which refuses a tab or line break in a sentence)."""
    write_text(path, map("\t".join, pairs), comments, tabs=1)


@dataclass(frozen=True)
class ScoredPair:
    """A corpus pair with its margin score and target-side token count."""

    source: str
    target: str
    score: float
    target_tokens: int


def _ranked(scored: list[ScoredPair]) -> list[ScoredPair]:
    """scored in descending score order, ties in their given order; a NaN
    score, which has no place in that order, raises ValueError."""
    scores = np.fromiter((p.score for p in scored), np.float64, len(scored))
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    return [scored[i] for i in np.argsort(-scores, kind="stable").tolist()]


def write_scored_tsv(
    path: str | os.PathLike,
    scored: list[ScoredPair],
    comments: list[str] | None = None,
) -> None:
    """Write ``score<TAB>source<TAB>target`` lines, descending by score
    (ties keep the given order); -inf prints as '-inf'.  A NaN score
    raises ValueError before anything is written."""
    ranked = _ranked(scored)
    write_text(path, (f"{p.score:.6f}\t{p.source}\t{p.target}" for p in ranked), comments, tabs=2)


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
    The scores are aligned_scores' of the valid rows.  Encoders of
    different dims raise DimMismatchError before anything is encoded.
    """
    _check_dims(student.dim, teacher.dim)
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    src, src_ok = encode_masked(student, sources)
    tgt, tgt_ok = encode_masked(teacher, targets)
    valid = np.flatnonzero(src_ok & tgt_ok)  # a pair participates only when whole
    S, T = src[valid], tgt[valid]
    del src, tgt
    scores = np.full(len(pairs), -math.inf)
    if valid.size:
        S, T = _unit_rows(S, T)  # the search holds these rows and no copy of them
        scores[valid] = _aligned_unit_scores(S, T, cfg)
    return list(map(ScoredPair, sources, targets, scores.tolist(), map(count_tokens, targets)))


def select_by_token_budget(scored: list[ScoredPair], budget: int) -> list[ScoredPair]:
    """Greedy best-first selection under a target-token budget.

    Pairs are taken in descending score order (ties keep input order)
    until the first pair that would overflow the budget; selection stops
    there, so selections for nested budgets are prefixes of each other.
    -inf-scored pairs are never selected.
    """
    if not budget >= 0:  # NaN too, which would select everything
        raise ValueError(f"budget: must be >= 0, got {budget}")
    out: list[ScoredPair] = []
    total = 0
    for p in _ranked(scored):
        total += p.target_tokens
        if p.score == -math.inf or total > budget:
            break  # everything after a -inf is -inf too
        out.append(p)
    return out
