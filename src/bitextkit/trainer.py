"""Contrastive distillation of a student encoder against a frozen teacher.

Each step embeds batch sources with the student (queries q) and batch
targets with the teacher (positives k+), scores q against [k+; negatives]
with temperature-scaled softmax cross-entropy (label = positive), and takes
one plain gradient step on the student weights.  Negatives come either
from a FIFO memory queue of past teacher target embeddings or from the
other targets in the batch.  Targets are enqueued only *after* the loss
and gradient are computed.

Optional hard-negative pre-filtering drops queue entries too similar to
the positive (cos >= threshold) and equalizes the surviving set sizes
across the batch by random subsampling so every sample sees the same
number of negatives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# featurize is not called here; it stays importable because perfbench traces
# it under this module's name
from .encoder import (  # noqa: F401
    EncoderParams,
    FeaturizerConfig,
    encode_batch,
    featurize,
    featurize_batch,
    project,
)
from .errors import (
    AllFilteredError,
    DimMismatchError,
    EmptyNegativesError,
    FrozenEncoderError,
    ZeroVectorError,
)
from .filtering import count_tokens
from .vectors import ZERO_NORM_EPS

NEGATIVES_QUEUE = "queue"
NEGATIVES_IN_BATCH = "in_batch"

Pair = tuple[str, str]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for distillation.

    temperature        softmax temperature tau (> 0)
    filter_threshold   cosine threshold sigma for the negative pre-filter,
                       in (0, 1.5]; 1.5 keeps everything
    queue_size         FIFO queue capacity N
    batch_size         pairs per step
    negatives_source   "queue" or "in_batch"
    shuffle            True: seeded random batch order per epoch;
                       False: batch by ascending target token count so
                       near-length (hard) targets share a batch
    prefilter_enabled  apply the threshold + equalization to negatives
    step_size          gradient step scale (0 evaluates losses without
                       updating weights)
    epochs             passes over the corpus
    rng_seed           master seed; independent streams are derived for
                       init, shuffling, and equalization
    """

    temperature: float = 0.05
    filter_threshold: float = 0.9
    queue_size: int = 4096
    batch_size: int = 32
    negatives_source: str = NEGATIVES_QUEUE
    shuffle: bool = True
    prefilter_enabled: bool = False
    step_size: float = 0.05
    epochs: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if not 0 < self.filter_threshold <= 1.5:
            raise ValueError(
                f"filter_threshold must be in (0, 1.5], got {self.filter_threshold}"
            )
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.negatives_source not in (NEGATIVES_QUEUE, NEGATIVES_IN_BATCH):
            raise ValueError(
                f"negatives_source must be '{NEGATIVES_QUEUE}' or "
                f"'{NEGATIVES_IN_BATCH}', got {self.negatives_source!r}"
            )
        if self.negatives_source == NEGATIVES_IN_BATCH and self.batch_size < 2:
            raise ValueError("in-batch negatives require batch_size >= 2")
        if self.step_size < 0:
            raise ValueError("step_size must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


# ---------------------------------------------------------------------------
# negative queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NegativeQueue:
    """Bounded FIFO of unit-norm embedding rows; row 0 is the oldest."""

    capacity: int
    entries: np.ndarray

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        ent = np.asarray(self.entries, dtype=np.float64)
        if ent.ndim != 2:
            raise DimMismatchError("queue entries must be a 2-D matrix")
        if ent.shape[0] > self.capacity:
            raise ValueError(
                f"{ent.shape[0]} entries exceed capacity {self.capacity}"
            )
        if ent.shape[0]:
            norms = np.linalg.norm(ent, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-6):
                raise ValueError("queue entries must be unit-norm")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def empty(cls, capacity: int, dim: int) -> "NegativeQueue":
        return cls(capacity, np.empty((0, dim), dtype=np.float64))

    @property
    def size(self) -> int:
        return int(self.entries.shape[0])


def queue_update(queue: NegativeQueue, new_targets) -> NegativeQueue:
    """FIFO update: append rows, evict oldest beyond capacity.

    The result holds exactly the last min(capacity, total-ever-pushed)
    rows in push order.
    """
    rows = np.asarray(new_targets, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != queue.entries.shape[1]:
        raise DimMismatchError(
            f"pushed rows of shape {rows.shape} onto a queue of dim "
            f"{queue.entries.shape[1]}"
        )
    merged = np.vstack([queue.entries, rows])[-queue.capacity :]
    return NegativeQueue(queue.capacity, merged)


# ---------------------------------------------------------------------------
# losses and negative filtering
# ---------------------------------------------------------------------------


def infonce_loss(query, positive, negatives, temperature: float) -> float:
    """Softmax cross-entropy of the query against [positive; negatives].

    logits are cosine-scaled dot products divided by the temperature; the
    positive is entry 0 and stays in the denominator.  Inputs are assumed
    unit-norm (the embeddings this package produces are).
    """
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    q = np.asarray(query, dtype=np.float64)
    k = np.asarray(positive, dtype=np.float64)
    negs = np.asarray(negatives, dtype=np.float64)
    if negs.ndim != 2:
        raise DimMismatchError("negatives must be a 2-D matrix")
    if negs.shape[0] == 0:
        raise EmptyNegativesError("need at least one negative")
    if q.shape != k.shape or negs.shape[1] != q.shape[0]:
        raise DimMismatchError(
            f"shapes disagree: query {q.shape}, positive {k.shape}, "
            f"negatives {negs.shape}"
        )
    logits = np.concatenate(([float(np.dot(q, k))], negs @ q)) / temperature
    peak = logits.max()
    lse = peak + np.log(np.exp(logits - peak).sum())
    return float(lse - logits[0])


def prefilter_mask(positive, queue_entries, threshold: float) -> np.ndarray:
    """Boolean keep-mask over queue entries: kept iff cos(k+, k_i) < threshold.

    The comparison is strict, so entries exactly at the threshold are
    dropped; at threshold 1.0 only exact duplicates (cos == 1) go.
    """
    if not 0 < threshold <= 1.5:
        raise ValueError(f"threshold must be in (0, 1.5], got {threshold}")
    k = np.asarray(positive, dtype=np.float64)
    pool = np.asarray(queue_entries, dtype=np.float64)
    if pool.ndim != 2 or k.ndim != 1 or pool.shape[1] != k.shape[0]:
        raise DimMismatchError(
            f"shapes disagree: positive {k.shape}, pool {pool.shape}"
        )
    cos = np.clip(pool @ k, -1.0, 1.0)
    return cos < threshold


@dataclass(frozen=True)
class FilterSet:
    """Per-sample surviving negative indices after threshold + equalization.

    ``indices`` has shape (batch, M) with M = min survivor count across
    the batch; ``kept_counts`` holds the pre-equalization survivor counts;
    ``pool_size`` is the candidate count every sample was masked against.
    """

    indices: np.ndarray
    kept_counts: np.ndarray
    pool_size: int


def equalize_negatives(mask: np.ndarray, rng: np.random.Generator) -> FilterSet:
    """Equalize per-sample survivor sets to the batch-min size M.

    Samples with more than M survivors have M of them drawn uniformly
    without replacement (indices re-sorted ascending for determinism).
    Raises AllFilteredError when some sample keeps nothing (M == 0).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise DimMismatchError("mask must be 2-D (batch x pool)")
    sizes = mask.sum(axis=1)
    m_min = int(sizes.min()) if sizes.size else 0
    if m_min == 0:
        bad = int(np.argmin(sizes)) if sizes.size else 0
        raise AllFilteredError(f"sample {bad} has no surviving negatives")
    out = np.empty((mask.shape[0], m_min), dtype=np.int64)
    for j in range(mask.shape[0]):
        survivors = np.flatnonzero(mask[j])
        if survivors.size > m_min:
            survivors = np.sort(rng.choice(survivors, size=m_min, replace=False))
        out[j] = survivors
    return FilterSet(out, sizes.astype(np.int64), int(mask.shape[1]))


def filtered_infonce_loss(
    queries, positives, negatives_pool, filter_set: FilterSet, temperature: float
) -> float:
    """Batch-mean InfoNCE where sample j sees only its surviving negatives.

    Routed through the same per-sample loss as the unfiltered path, so a
    filter that keeps everything reproduces the unfiltered loss exactly.
    """
    q = np.asarray(queries, dtype=np.float64)
    k = np.asarray(positives, dtype=np.float64)
    pool = np.asarray(negatives_pool, dtype=np.float64)
    if q.ndim != 2 or q.shape != k.shape:
        raise DimMismatchError("queries/positives must be matching 2-D matrices")
    if filter_set.indices.shape[0] != q.shape[0]:
        raise DimMismatchError("filter set rows != batch size")
    losses = [
        infonce_loss(q[j], k[j], pool[filter_set.indices[j]], temperature)
        for j in range(q.shape[0])
    ]
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batch_indices(
    target_lengths, cfg: TrainConfig, rng: np.random.Generator | None = None
) -> list[np.ndarray]:
    """Partition corpus indices into batches.

    shuffle=True draws a seeded permutation; shuffle=False stably sorts by
    ascending target length (original order breaks ties) and chunks, so
    similar-length targets land in the same batch.  The last batch may be
    short.
    """
    n = len(target_lengths)
    if cfg.shuffle:
        if rng is None:
            rng = np.random.default_rng(cfg.rng_seed)
        order = rng.permutation(n)
    else:
        order = np.argsort(np.asarray(target_lengths), kind="stable")
    return [order[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]


def make_batches(
    pairs: list[Pair], cfg: TrainConfig, rng: np.random.Generator | None = None
) -> list[np.ndarray]:
    """batch_indices keyed on target-side whitespace token counts."""
    return batch_indices([count_tokens(t) for _, t in pairs], cfg, rng)


# ---------------------------------------------------------------------------
# the step core (shared by train_step and train_distill)
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    """Counters accumulated over the steps of one epoch."""

    loss_sum: float = 0.0
    loss_steps: int = 0
    filtered_out: int = 0
    m_zero_fallbacks: int = 0
    skipped_steps: int = 0
    mask_kept: int = 0
    mask_total: int = 0

    @property
    def mean_loss(self) -> float:
        return self.loss_sum / self.loss_steps if self.loss_steps else float("nan")


def _softmax_rows(l_pos: np.ndarray, l_neg: np.ndarray):
    """Row-wise stable softmax over concatenated [l_pos; l_neg] logits.

    Returns (losses, p_pos, p_neg) where losses[j] = lse_j - l_pos[j].
    """
    peak = np.maximum(l_pos, l_neg.max(axis=1))
    e_pos = np.exp(l_pos - peak)
    e_neg = np.exp(l_neg - peak[:, None])
    denom = e_pos + e_neg.sum(axis=1)
    losses = np.log(denom) + peak - l_pos
    return losses, e_pos / denom, e_neg / denom[:, None]


def _step_core(
    W: np.ndarray,
    idx: np.ndarray,
    val: np.ndarray,
    tgt_emb: np.ndarray,
    queue_mat: np.ndarray,
    capacity: int,
    cfg: TrainConfig,
    eq_rng: np.random.Generator,
    stats: EpochStats,
) -> tuple[float | None, np.ndarray]:
    """One in-place step on W given pre-featurized sources and teacher
    target embeddings.  Returns (loss or None if skipped, updated queue
    matrix).  Enqueueing always happens, and always after the loss."""
    batch = tgt_emb.shape[0]
    tau = cfg.temperature

    z = project(W, idx, val)
    norms = np.linalg.norm(z, axis=1)
    collapsed = np.flatnonzero(norms <= ZERO_NORM_EPS)
    if collapsed.size:
        raise ZeroVectorError(
            f"batch sample {collapsed[0]}: projection collapsed to zero norm"
        )
    q = z / norms[:, None]

    loss = None
    dq = None  # d(batch loss summed over samples)/dq, shape (batch, dim)

    if cfg.negatives_source == NEGATIVES_QUEUE:
        pool = queue_mat
        if pool.shape[0] == 0:
            stats.skipped_steps += 1  # warm-up: nothing to contrast against
        else:
            kept = None
            if cfg.prefilter_enabled:
                cos = np.clip(tgt_emb @ pool.T, -1.0, 1.0)
                mask = cos < cfg.filter_threshold
                stats.mask_kept += int(mask.sum())
                stats.mask_total += mask.size
                stats.filtered_out += int(mask.size - mask.sum())
                sizes = mask.sum(axis=1)
                if int(sizes.min()) == 0:
                    stats.m_zero_fallbacks += 1  # revert to the whole queue
                else:
                    kept = _equalize_indices(mask, sizes, eq_rng)
            if kept is None:
                l_neg = (q @ pool.T) / tau
                losses, p_pos, p_neg = _softmax_rows(
                    np.einsum("bd,bd->b", q, tgt_emb) / tau, l_neg
                )
                dq = ((p_pos - 1.0)[:, None] * tgt_emb + p_neg @ pool) / tau
            else:
                negs = pool[kept]  # (batch, M, dim)
                l_neg = np.einsum("bd,bmd->bm", q, negs) / tau
                losses, p_pos, p_neg = _softmax_rows(
                    np.einsum("bd,bd->b", q, tgt_emb) / tau, l_neg
                )
                dq = (
                    (p_pos - 1.0)[:, None] * tgt_emb
                    + np.einsum("bm,bmd->bd", p_neg, negs)
                ) / tau
            loss = float(losses.mean())
    else:  # in-batch negatives: the other targets of this batch
        if batch < 2:
            stats.skipped_steps += 1
        else:
            kept = None
            if cfg.prefilter_enabled:
                cos = np.clip(tgt_emb @ tgt_emb.T, -1.0, 1.0)
                mask = cos < cfg.filter_threshold
                np.fill_diagonal(mask, False)  # own positive is never a negative
                off_diag = mask.size - batch
                stats.mask_kept += int(mask.sum())
                stats.mask_total += off_diag
                stats.filtered_out += int(off_diag - mask.sum())
                sizes = mask.sum(axis=1)
                if int(sizes.min()) == 0:
                    stats.m_zero_fallbacks += 1
                else:
                    kept = _equalize_indices(mask, sizes, eq_rng)
            if kept is None:
                logits = (q @ tgt_emb.T) / tau
                peak = logits.max(axis=1)
                e = np.exp(logits - peak[:, None])
                denom = e.sum(axis=1)
                p = e / denom[:, None]
                l_pos = logits[np.arange(batch), np.arange(batch)]
                losses = np.log(denom) + peak - l_pos
                dq = (p @ tgt_emb - tgt_emb) / tau
            else:
                negs = tgt_emb[kept]
                l_neg = np.einsum("bd,bmd->bm", q, negs) / tau
                losses, p_pos, p_neg = _softmax_rows(
                    np.einsum("bd,bd->b", q, tgt_emb) / tau, l_neg
                )
                dq = (
                    (p_pos - 1.0)[:, None] * tgt_emb
                    + np.einsum("bm,bmd->bd", p_neg, negs)
                ) / tau
            loss = float(losses.mean())

    if loss is not None:
        stats.loss_sum += loss
        stats.loss_steps += 1
        g = dq / batch  # batch-mean loss
        dz = (g - np.einsum("bd,bd->b", g, q)[:, None] * q) / norms[:, None]
        flat_idx = idx.ravel()
        flat_contrib = (val[:, :, None] * dz[:, None, :]).reshape(-1, W.shape[1])
        uniq, inv = np.unique(flat_idx, return_inverse=True)
        acc = np.zeros((uniq.size, W.shape[1]), dtype=np.float64)
        np.add.at(acc, inv, flat_contrib)
        W[uniq] -= cfg.step_size * acc

    return loss, np.vstack([queue_mat, tgt_emb])[-capacity:]


def _equalize_indices(
    mask: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """equalize_negatives without re-deriving sizes (hot-path twin)."""
    m_min = int(sizes.min())
    out = np.empty((mask.shape[0], m_min), dtype=np.int64)
    for j in range(mask.shape[0]):
        survivors = np.flatnonzero(mask[j])
        if survivors.size > m_min:
            survivors = np.sort(rng.choice(survivors, size=m_min, replace=False))
        out[j] = survivors
    return out


# ---------------------------------------------------------------------------
# public training entry points
# ---------------------------------------------------------------------------


def _check_roles(student: EncoderParams, teacher: EncoderParams) -> None:
    if student.frozen:
        raise FrozenEncoderError("student encoder is frozen")
    if not teacher.frozen:
        raise ValueError("teacher encoder must be frozen")
    if student.dim != teacher.dim:
        raise DimMismatchError(
            f"student dim {student.dim} != teacher dim {teacher.dim}"
        )
    if student.featurizer.hash_seed == teacher.featurizer.hash_seed:
        raise ValueError("student and teacher featurizer hash seeds must differ")


def _featurize_sources(
    sentences: list[str], cfg: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """featurize_batch, refusing sentences without features."""
    idx, val = featurize_batch(sentences, cfg)
    empty = np.flatnonzero(val[:, 0] == 0.0)  # rows are left-packed
    if empty.size:
        raise ZeroVectorError(f"source sentence {empty[0]} has no features")
    return idx, val


def train_step(
    student: EncoderParams,
    teacher: EncoderParams,
    batch: list[Pair],
    queue: NegativeQueue,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[float | None, EncoderParams, NegativeQueue]:
    """One step on a batch of (source, target) pairs.

    Returns (loss, updated student, updated queue); the loss is the batch
    loss *before* the update, or None for a skipped (warm-up) step where
    only the enqueue happened.  Inputs are never mutated.
    """
    _check_roles(student, teacher)
    if not batch:
        raise ValueError("empty batch")
    idx, val = _featurize_sources([s for s, _ in batch], student.featurizer)
    tgt_emb = encode_batch(teacher, [t for _, t in batch])
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    W = student.weights.copy()
    stats = EpochStats()
    loss, queue_mat = _step_core(
        W, idx, val, tgt_emb, queue.entries, queue.capacity, cfg, rng, stats
    )
    return (
        loss,
        EncoderParams(student.featurizer, W, frozen=False),
        NegativeQueue(queue.capacity, queue_mat),
    )


@dataclass
class TrainResult:
    """Trained student plus per-epoch traces and the training log."""

    student: EncoderParams
    epoch_losses: list[float]
    epoch_stats: list[EpochStats]
    log_lines: list[str]

    @property
    def kept_fraction(self) -> float:
        """Fraction of negative candidates kept by the pre-filter mask
        across the whole run (1.0 when the filter never evaluated)."""
        kept = sum(s.mask_kept for s in self.epoch_stats)
        total = sum(s.mask_total for s in self.epoch_stats)
        return kept / total if total else 1.0


def default_student(
    teacher: EncoderParams, rng_seed: int
) -> EncoderParams:
    """Fresh trainable student shaped like the teacher.

    The featurizer copies the teacher's orders/buckets but draws its own
    hash seed (guaranteed different), and weights start at
    U[-1, 1]/sqrt(bucket_count) so pre-normalization activations are O(1).
    """
    init_rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(1)[0])
    hash_seed = int(init_rng.integers(0, 2**63))
    while hash_seed == teacher.featurizer.hash_seed:
        hash_seed = int(init_rng.integers(0, 2**63))
    featurizer = replace(teacher.featurizer, hash_seed=hash_seed)
    scale = 1.0 / np.sqrt(featurizer.bucket_count)
    weights = init_rng.uniform(
        -scale, scale, size=(featurizer.bucket_count, teacher.dim)
    )
    return EncoderParams(featurizer, weights, frozen=False)


def train_distill(
    pairs: list[Pair],
    teacher: EncoderParams,
    cfg: TrainConfig,
    student_init: EncoderParams | None = None,
    log_fn=None,
) -> TrainResult:
    """Full distillation run: deterministic for a fixed (corpus, cfg, init).

    When ``student_init`` is omitted a default student is derived from
    cfg.rng_seed (see default_student).  Emits one log line per epoch:
    ``epoch=<e> loss=<mean> filtered_out=<n> m_zero_fallbacks=<n>``.
    """
    if student_init is None:
        student_init = default_student(teacher, cfg.rng_seed)
    _check_roles(student_init, teacher)

    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    idx_all, val_all = _featurize_sources(sources, student_init.featurizer)
    tgt_all = encode_batch(teacher, targets)
    lengths = [count_tokens(t) for t in targets]

    seq = np.random.SeedSequence(cfg.rng_seed)
    _, batch_seq, eq_seq = seq.spawn(3)  # stream 0 is reserved for init
    batch_rng = np.random.default_rng(batch_seq)
    eq_rng = np.random.default_rng(eq_seq)

    W = student_init.weights.copy()
    queue_mat = np.empty((0, teacher.dim), dtype=np.float64)
    epoch_losses: list[float] = []
    all_stats: list[EpochStats] = []
    log_lines: list[str] = []

    for epoch in range(1, cfg.epochs + 1):
        stats = EpochStats()
        for batch in batch_indices(lengths, cfg, batch_rng):
            _, queue_mat = _step_core(
                W,
                idx_all[batch],
                val_all[batch],
                tgt_all[batch],
                queue_mat,
                cfg.queue_size,
                cfg,
                eq_rng,
                stats,
            )
        epoch_losses.append(stats.mean_loss)
        all_stats.append(stats)
        line = (
            f"epoch={epoch} loss={stats.mean_loss:.6f} "
            f"filtered_out={stats.filtered_out} "
            f"m_zero_fallbacks={stats.m_zero_fallbacks}"
        )
        log_lines.append(line)
        if log_fn is not None:
            log_fn(line)

    student = EncoderParams(student_init.featurizer, W, frozen=False)
    return TrainResult(student, epoch_losses, all_stats, log_lines)
