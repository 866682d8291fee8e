"""Independent checks of the outputs the benchmark times.

Each function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

# Two candidates whose oracle scores differ by less than this share are a
# tie: summation order may pick either, so either pick passes.
TIE_RTOL = 1e-9


def _unit_rows(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.float64)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def _top_k_sums(sims: np.ndarray, k: int) -> np.ndarray:
    """Sum of each row's k largest values, added in descending order."""
    top = np.partition(sims, sims.shape[1] - k, axis=1)[:, -k:]
    return np.sort(top, axis=1)[:, ::-1].sum(axis=1)


def ratio_margin_scores(src, tgt, rows: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive ratio-margin scores of the sampled source ``rows`` against
    every target: cos(x, y) / (sum NN_k(x) / 2k + sum NN_k(y) / 2k).

    The backward neighbourhoods need every source-target cosine, so this
    is the full O(n·m) computation, done in row blocks.
    """
    S, T = _unit_rows(src), _unit_rows(tgt)
    cross = np.clip(S[rows] @ T.T, -1.0, 1.0)
    dx = _top_k_sums(cross, k) / (2.0 * k)
    dy = np.empty(T.shape[0])
    for lo in range(0, T.shape[0], 1024):
        sims = np.clip(T[lo : lo + 1024] @ S.T, -1.0, 1.0)
        dy[lo : lo + 1024] = _top_k_sums(sims, k) / (2.0 * k)
    return cross / (dx[:, None] + dy[None, :])


def check_alignment(src, tgt, picks, rows: np.ndarray, k: int) -> list[str]:
    """The align picks of the sampled rows are the oracle's best targets."""
    scores = ratio_margin_scores(src, tgt, rows, k)
    fails = []
    for r, row in enumerate(rows):
        got = int(picks[row])
        best = int(np.argmax(scores[r]))
        gap = scores[r, best] - scores[r, got]
        if got != best and gap > TIE_RTOL * abs(scores[r, best]):
            fails.append(f"align row {row}: picked {got}, oracle picks {best}")
    return fails


def check_selections(scored, budgets: list[int], selections: list[list]) -> list[str]:
    """Budgets hold, nested budgets select prefixes, -inf is never taken."""
    fails = []
    for budget, sel in zip(budgets, selections):
        used = sum(p.target_tokens for p in sel)
        if used > budget:
            fails.append(f"budget {budget}: selected {used} target tokens")
        if any(p.score == -math.inf for p in sel):
            fails.append(f"budget {budget}: selected a -inf pair")
    for (b_small, small), (b_big, big) in zip(
        zip(budgets, selections), zip(budgets[1:], selections[1:])
    ):
        if big[: len(small)] != small:
            fails.append(f"selection at {b_small} is not a prefix of that at {b_big}")
    if not selections[-1]:
        fails.append(f"largest budget {budgets[-1]} selected nothing")
    return fails


def check_scored_tsv(path: str, expected_rows: int) -> list[str]:
    """Re-read a written scored TSV: one row per pair, scores descending."""
    scores = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                return [f"{path}:{lineno}: expected 3 fields, got {len(fields)}"]
            scores.append(float(fields[0]))
    fails = []
    if len(scores) != expected_rows:
        fails.append(f"scored TSV has {len(scores)} rows, expected {expected_rows}")
    if any(a < b for a, b in zip(scores, scores[1:])):
        fails.append("scored TSV is not sorted by descending score")
    return fails
