"""Training diagnostics: queue-similarity distributions and threshold sweeps.

``similarity_distribution`` walks the first epoch of train_distill's own
schedule (same batches, same teacher rows, no weight updates) and records,
for every target, the average cosine between its teacher embedding and
the queue window before its batch.  Batching by similar length
concentrates near-duplicates, which shows up as probability mass at high
similarity — the regime where hard-negative pre-filtering matters.

``threshold_sweep`` trains one student per filter threshold from the same
seed/init and reports held-out alignment error plus the fraction of
negatives the mask kept.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .embfile import write_text
from .encoder import EncoderParams, encode_batch
from .errors import BitextkitError, check_number
from .margin import SearchConfig, xsim_error_rate
from .trainer import TrainConfig, _schedule, train_distill

Pair = tuple[str, str]

DEFAULT_BINS = 40


@dataclass(frozen=True)
class Histogram:
    """Fixed-range histogram; edges has len(counts) + 1 entries."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def cosine_histogram(values, bins: int = DEFAULT_BINS) -> Histogram:
    """Uniform-bin histogram over [-1, 1]; every cosine lands in a bin
    (the last bin is closed on the right), so counts sum to len(values)."""
    check_number("bins", bins, int, 1)
    counts, edges = np.histogram(np.asarray(values, dtype=np.float64), bins=bins, range=(-1.0, 1.0))
    return Histogram(edges, counts.astype(np.int64))


def similarity_values(
    targets: list[str], teacher: EncoderParams, cfg: TrainConfig
) -> np.ndarray:
    """Each target's average similarity against the queue window before its
    batch in the first epoch of train_distill's schedule for ``cfg``, in
    every negatives mode; warm-up batch targets (empty queue) are excluded.
    Weights never enter: only the frozen teacher's embeddings matter.
    """
    steps = next(_schedule(targets, teacher, cfg))
    values = [np.clip(k @ queue.T, -1.0, 1.0).mean(axis=1) for _, k, queue in steps if queue.size]
    return np.concatenate(values) if values else np.empty(0, dtype=np.float64)


def similarity_distribution(
    targets: list[str],
    teacher: EncoderParams,
    cfg: TrainConfig,
    bins: int = DEFAULT_BINS,
) -> Histogram:
    """Histogram of similarity_values over uniform bins on [-1, 1]."""
    return cosine_histogram(similarity_values(targets, teacher, cfg), bins=bins)


@dataclass(frozen=True)
class SweepRow:
    """One threshold sweep result row.

    error_rate is a held-out xsim error percentage in [0, 100];
    kept_fraction is the mask-level keep rate in [0, 1].  A threshold whose
    run failed has NaN in both and ``failure`` = "<ExceptionType>: <message>".
    """

    sigma: float
    error_rate: float
    kept_fraction: float
    seed: int
    failure: str | None = None


def threshold_sweep(
    pairs: list[Pair],
    teacher: EncoderParams,
    base_cfg: TrainConfig,
    sigmas,
    eval_pairs: list[Pair],
    search_cfg: SearchConfig | None = None,
    log_fn=None,
) -> list[SweepRow]:
    """Train one student per threshold, with the pre-filter on (same seed
    => same init and batch order), and evaluate each on held-out pairs.

    A package or arithmetic error for one threshold is isolated: its row
    records NaN and the failure, and the sweep continues; any other
    exception propagates.  kept_fraction is the mask-level keep rate observed
    during that run.
    """
    search_cfg = search_cfg or SearchConfig()
    eval_tgt = encode_batch(teacher, [t for _, t in eval_pairs])
    rows: list[SweepRow] = []
    for sigma in sigmas:
        cfg = replace(
            base_cfg, filter_threshold=float(sigma), prefilter_enabled=True
        )
        try:
            result = train_distill(pairs, teacher, cfg, log_fn=log_fn)
            eval_src = encode_batch(result.student, [s for s, _ in eval_pairs])
            err = xsim_error_rate(eval_src, eval_tgt, search_cfg)
            rows.append(
                SweepRow(float(sigma), err, result.kept_fraction, cfg.rng_seed)
            )
        except (BitextkitError, ArithmeticError) as exc:
            failure = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
            if log_fn is not None:
                log_fn(f"sigma={sigma}: failed: {failure}")
            rows.append(
                SweepRow(float(sigma), math.nan, math.nan, cfg.rng_seed, failure)
            )
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_histogram_csv(
    path: str | os.PathLike,
    hist: Histogram,
    shuffle: bool,
    comments: list[str] | None = None,
) -> None:
    """CSV of ``bin_lo,bin_hi,count`` rows with a ``# total=... shuffle=...``
    comment first; extra comments follow it."""
    bins = zip(hist.edges[:-1], hist.edges[1:], hist.counts)
    lines = ["bin_lo,bin_hi,count"] + [f"{lo:.6f},{hi:.6f},{int(n)}" for lo, hi, n in bins]
    total = f"total={hist.total} shuffle={1 if shuffle else 0}"
    write_text(path, lines, [total, *(comments or [])])


def write_sweep_csv(
    path: str | os.PathLike,
    rows: list[SweepRow],
    comments: list[str] | None = None,
) -> None:
    """CSV of ``sigma,error_rate,kept_fraction,seed`` rows (error_rate a
    percentage in [0, 100], kept_fraction a fraction in [0, 1]); each failed
    row's failure follows the comments as ``# sigma=<s> failed: <failure>``."""
    lines = ["sigma,error_rate,kept_fraction,seed"]
    lines += [f"{r.sigma:g},{r.error_rate:.6f},{r.kept_fraction:.6f},{r.seed}" for r in rows]
    failures = [f"sigma={r.sigma:g} failed: {r.failure}" for r in rows if r.failure]
    write_text(path, lines, [*(comments or []), *failures])
