"""Contrastive distillation of a student encoder against a frozen teacher.

Each step embeds batch sources with the student (queries q) and batch
targets with the teacher (positives k+), scores q against [k+; negatives]
with temperature-scaled softmax cross-entropy (label = positive), and takes
one plain gradient step on the student weights.  Negatives come either
from a FIFO memory queue of past teacher target embeddings or from the
other targets in the batch.  One schedule, shared with the similarity
histogram, hands every step its teacher rows and queue as views of one
per-epoch matrix: targets are enqueued only *after* their own step.

Optional hard-negative pre-filtering drops queue entries too similar to
the positive (cos >= threshold) and equalizes the surviving set sizes
across the batch by random subsampling so every sample sees the same
number of negatives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# featurize is not called here; perfbench/tracing.py patches it by name
# under this module
from .encoder import (  # noqa: F401
    EncoderParams,
    FeaturizerConfig,
    _distinct,
    encode_batch,
    featurize,
    featurize_batch,
)
from .errors import (
    AllFilteredError,
    DimMismatchError,
    DivergenceError,
    EmptyNegativesError,
    FrozenEncoderError,
    TooFewPairsError,
    ZeroVectorError,
    check_number,
)
from .filtering import count_tokens
from .hashing import seed_key
from .vectors import ZERO_NORM_EPS, unit_slack

NEGATIVES_QUEUE = "queue"
NEGATIVES_IN_BATCH = "in_batch"

Pair = tuple[str, str]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for distillation.

    temperature        softmax temperature tau (finite, > 0)
    filter_threshold   cosine threshold sigma for the negative pre-filter,
                       in (0, 1.5]; 1.5 keeps everything
    queue_size         FIFO queue capacity N (>= 1)
    batch_size         pairs per step (>= 1)
    negatives_source   "queue" or "in_batch"
    shuffle            True: seeded random batch order per epoch;
                       False: batch by ascending target token count so
                       near-length (hard) targets share a batch
    prefilter_enabled  apply the threshold + equalization to negatives
    step_size          gradient step scale (finite, >= 0; 0 evaluates
                       losses without updating weights)
    epochs             passes over the corpus (>= 0)
    rng_seed           master seed (>= 0); independent streams are derived
                       for init, shuffling, and equalization
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
        check_number("temperature", self.temperature, float, 0, strict=True)
        check_number("filter_threshold", self.filter_threshold, float, 0, strict=True, high=1.5)
        check_number("queue_size", self.queue_size, int, 1)
        check_number("batch_size", self.batch_size, int, 1)
        check_number("step_size", self.step_size, float, 0)
        check_number("epochs", self.epochs, int, 0)
        check_number("rng_seed", self.rng_seed, int, 0)
        if self.negatives_source not in (NEGATIVES_QUEUE, NEGATIVES_IN_BATCH):
            raise ValueError(
                f"negatives_source must be '{NEGATIVES_QUEUE}' or "
                f"'{NEGATIVES_IN_BATCH}', got {self.negatives_source!r}"
            )
        if self.negatives_source == NEGATIVES_IN_BATCH and self.batch_size < 2:
            raise ValueError("in-batch negatives require batch_size >= 2")


# ---------------------------------------------------------------------------
# negative queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NegativeQueue:
    """Bounded FIFO of unit-norm embedding rows; row 0 is the oldest.

    A row is accepted when its computed squared norm is within
    unit_slack(d) plus one d-term dot's rounding, (2d + 4) 2^-52, of 1:
    rows of the encoder or of normalize_rows, so that prefilter_mask at
    1.0 drops every accepted row against itself.  Rows rounded to float32
    (EMB1 files) are refused; pass them through normalize_rows first.
    """

    capacity: int
    entries: np.ndarray

    def __post_init__(self):
        check_number("capacity", self.capacity, int, 1)
        ent = np.asarray(self.entries, dtype=np.float64)
        if ent.ndim != 2:
            raise DimMismatchError("queue entries must be a 2-D matrix")
        if ent.shape[0] > self.capacity:
            raise ValueError(
                f"{ent.shape[0]} entries exceed capacity {self.capacity}"
            )
        d = ent.shape[1]
        squares = np.einsum("ij,ij->i", ent, ent)
        if not (abs(squares - 1.0) <= unit_slack(d) + d * 2.0**-52).all():
            raise ValueError("queue entries must be unit-norm (see normalize_rows)")
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


def _rng_streams(seed: int) -> list[np.random.Generator]:
    """The run's independent (init, batch order, equalization) generators,
    all derived from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


# ---------------------------------------------------------------------------
# losses and negative filtering
# ---------------------------------------------------------------------------


# added to a logit: -inf drops a disallowed one (index 0), 0.0 keeps it
_MASK_BIAS = np.array([-np.inf, 0.0])


def _masked_infonce(q, k, candidates, allowed, tau: float):
    """Per-sample InfoNCE of queries q against [k+; allowed candidates].

    Row j's logits are <q_j, k+_j>/tau and q_j C^T/tau, the latter left
    out where ``allowed[j]`` is False (``allowed`` None allows every
    candidate): they do not reach the peak, and their exponentials are
    zeroed, exactly what exp(-inf) gives.  Returns (losses, dq):
    losses[j] = lse_j - l_pos[j] and
    dq = d(sum of losses)/dq = ((p_pos - 1) k+ + P_neg C)/tau.
    """
    l_pos = np.einsum("bd,bd->b", q, k) / tau
    l_neg = (q @ candidates.T) / tau
    if allowed is None:
        peak = np.maximum(l_pos, l_neg.max(axis=1))
        e_neg = np.exp(l_neg - peak[:, None])
    else:
        # The mask is applied by arithmetic, not np.where, which branches
        # per entry and mispredicts on a mixed mask.  exp sees only finite
        # logits (exp(-inf) is far slower), capped at 0, which the allowed
        # ones never exceed, so a disallowed one cannot overflow and the
        # product with the mask is an exact 0.0.
        bias = _MASK_BIAS.take(allowed.view(np.uint8))
        peak = np.maximum(l_pos, (l_neg + bias).max(axis=1))
        e_neg = l_neg - peak[:, None]
        np.minimum(e_neg, 0.0, out=e_neg)
        np.exp(e_neg, out=e_neg)
        e_neg *= allowed
    e_pos = np.exp(l_pos - peak)
    denom = e_pos + e_neg.sum(axis=1)
    losses = np.log(denom) + peak - l_pos
    p_neg = e_neg / denom[:, None]
    return losses, ((e_pos / denom - 1.0)[:, None] * k + p_neg @ candidates) / tau


def _loss_inputs(queries, positives, negatives, temperature: float):
    """Validated float64 (batch, dim) queries/positives, (n, dim) negatives."""
    check_number("temperature", temperature, float, 0, strict=True)
    arrays = (queries, positives, negatives)
    q, k, negs = (np.asarray(a, dtype=np.float64) for a in arrays)
    if negs.ndim != 2:
        raise DimMismatchError("negatives must be a 2-D matrix")
    if negs.shape[0] == 0:
        raise EmptyNegativesError("need at least one negative")
    if q.ndim != 2 or q.shape != k.shape or negs.shape[1] != q.shape[1]:
        raise DimMismatchError(
            f"shapes disagree: query {q.shape}, positive {k.shape}, "
            f"negatives {negs.shape}"
        )
    return q, k, negs


def infonce_loss(query, positive, negatives, temperature: float) -> float:
    """Softmax cross-entropy of the query against [positive; negatives].

    logits are cosine-scaled dot products divided by the temperature; the
    positive is entry 0 and stays in the denominator.  Inputs are assumed
    unit-norm (the embeddings this package produces are).
    """
    q, k = np.asarray(query)[None], np.asarray(positive)[None]
    q, k, negs = _loss_inputs(q, k, negatives, temperature)
    return float(_masked_infonce(q, k, negs, None, temperature)[0][0])


def prefilter_mask(positive, queue_entries, threshold: float) -> np.ndarray:
    """Boolean keep-mask over queue entries: kept iff cos(k+, k_i) < threshold.

    ``positive`` is one vector (mask shape (pool,)) or a batch of rows
    (mask shape (batch, pool)).  The comparison is strict, so entries
    exactly at the threshold are dropped.  A threshold closer to 1 than a
    unit row's self-dot may round drops at that bound: at 1.0 only exact
    duplicates and rows as close to them go, and exact ones always do.
    """
    check_number("threshold", threshold, float, 0, strict=True, high=1.5)
    k = np.asarray(positive, dtype=np.float64)
    pool = np.asarray(queue_entries, dtype=np.float64)
    if pool.ndim != 2 or k.ndim not in (1, 2) or pool.shape[1] != k.shape[-1]:
        raise DimMismatchError(f"shapes disagree: k+ {k.shape}, pool {pool.shape}")
    cos = k @ pool.T
    # for a threshold in (0, 1], cos < threshold exactly when the cosine
    # clipped to [-1, 1] is, so only a higher threshold needs the clip
    if threshold > 1.0:
        np.minimum(cos, 1.0, out=cos)
    else:
        # NegativeQueue accepts a row whose computed |y|^2 is within
        # unit_slack(d) + d 2^-52 = (2d + 4) 2^-52 of 1, so its true |y|^2
        # is within (3d + 4) 2^-52 of 1, and a d-term dot (any order, FMA or
        # not) is within d 2^-52 |y|^2 of |y|^2
        threshold = min(threshold, 1.0 - (4 * k.shape[-1] + 5) * 2.0**-52)
    return cos < threshold


def equalize_negatives(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Equalize per-sample survivor sets to the batch-min size M.

    One uniform key per mask entry, drawn at once for the batch; dropped
    entries get key +inf and each row keeps its M smallest keys: a uniform
    M-subset of its survivors, or all of them when it has exactly M.
    Returns the (batch, pool) keep-mask: M True entries per row, all
    within ``mask``.  Raises AllFilteredError, before drawing, when some
    sample keeps nothing (M == 0).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise DimMismatchError("mask must be 2-D (batch x pool)")
    sizes = mask.sum(axis=1)
    m_min = int(sizes.min()) if sizes.size else 0
    if m_min == 0:
        bad = int(np.argmin(sizes)) if sizes.size else 0
        raise AllFilteredError(f"sample {bad} has no surviving negatives")
    keys = np.where(mask, rng.random(mask.shape), np.inf)
    # the keys are >= 0, so their bits order as they do, and integers
    # partition faster than floats
    bits = keys.view(np.int64)
    kth = np.partition(bits, m_min - 1, axis=1)[:, m_min - 1 : m_min]
    keep = bits <= kth
    if np.count_nonzero(keep) != keep.shape[0] * m_min:
        # a tie at some row's M-th key kept more than M: select M indices
        chosen = np.argpartition(keys, m_min - 1, axis=1)[:, :m_min]
        keep = np.zeros_like(mask)
        np.put_along_axis(keep, chosen, True, axis=1)
    return keep


def filtered_infonce_loss(
    queries, positives, negatives_pool, keep, temperature: float
) -> float:
    """Batch-mean InfoNCE where sample j sees only the negatives its row of
    the (batch, pool) keep-mask allows.

    The same masked loss as the unfiltered path, so a keep-mask that keeps
    everything reproduces the unfiltered loss.
    """
    q, k, pool = _loss_inputs(queries, positives, negatives_pool, temperature)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (q.shape[0], pool.shape[0]):
        raise DimMismatchError(
            f"keep-mask shape {keep.shape} is not (batch, pool) = "
            f"{(q.shape[0], pool.shape[0])}"
        )
    empty = np.flatnonzero(~keep.any(axis=1))
    if empty.size:
        raise EmptyNegativesError(f"sample {empty[0]} keeps no negative")
    losses, _ = _masked_infonce(q, k, pool, keep, temperature)
    return float(losses.mean())


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batch_indices(
    target_lengths, cfg: TrainConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Partition corpus indices into batches.

    shuffle=True draws a permutation from ``rng``; shuffle=False stably
    sorts by ascending target length (original order breaks ties) and
    chunks, so similar-length targets land in the same batch.  The last
    batch may be short.
    """
    n = len(target_lengths)
    if cfg.shuffle:
        order = rng.permutation(n)
    else:
        order = np.argsort(np.asarray(target_lengths), kind="stable")
    return [order[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]


def _schedule(targets: list[str], teacher: EncoderParams, cfg: TrainConfig):
    """The run's teacher side.  Encodes the targets at once, then yields,
    per epoch and without end, a list of (batch, k, queue): batch_indices'
    batches from the run's batch-order stream and, as views of one matrix
    of the epoch's teacher-row stream, the batch's rows k and the last
    cfg.queue_size rows before them (earlier epochs included), oldest first.
    Drop an epoch's views before asking for the next one.
    """
    tgt = encode_batch(teacher, targets)
    # batch_indices reads only how many lengths there are when it shuffles
    lengths = targets if cfg.shuffle else [count_tokens(t) for t in targets]
    batch_rng = _rng_streams(cfg.rng_seed)[1]
    b, q = cfg.batch_size, cfg.queue_size

    def epochs():
        stream = np.empty(0, dtype=np.intp)
        while True:
            carry = stream[-q:]  # the queue at the epoch's start
            stream = np.concatenate([carry, *batch_indices(lengths, cfg, batch_rng)])
            E = tgt[stream]
            starts = range(carry.size, stream.size, b)
            yield [(stream[i : i + b], E[i : i + b], E[max(0, i - q) : i]) for i in starts]
            del E  # now only the caller's views keep it alive

    return epochs()


# ---------------------------------------------------------------------------
# the step core (shared by train_step and train_distill)
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    """Counters accumulated over the steps of one epoch."""

    loss_sum: float = 0.0
    loss_steps: int = 0
    m_zero_fallbacks: int = 0
    skipped_steps: int = 0
    mask_kept: int = 0
    mask_total: int = 0

    @property
    def mean_loss(self) -> float:
        return self.loss_sum / self.loss_steps if self.loss_steps else float("nan")

    @property
    def filtered_out(self) -> int:
        return self.mask_total - self.mask_kept

    @property
    def kept_fraction(self) -> float:
        """Kept share of the pre-filter mask (1.0 when it never ran)."""
        return self.mask_kept / self.mask_total if self.mask_total else 1.0


@np.errstate(over="ignore", invalid="ignore")  # divergence is checked explicitly
def _step_core(
    W: np.ndarray,
    feats: tuple[np.ndarray, np.ndarray, np.ndarray],
    k: np.ndarray,
    queue: np.ndarray,
    cfg: TrainConfig,
    eq_rng: np.random.Generator,
    stats: EpochStats,
) -> float | None:
    """One in-place step on W; returns the loss, or None for a skipped step.

    ``feats``, the sources' featurize_batch rows, fill a dense (batch, |u|)
    matrix F over their unique buckets u: z = F W[u], W[u] -= step * F^T dz.
    ``k`` holds the batch's teacher rows and ``queue`` the queue before
    they are enqueued.  Candidates are the queue rows or k, and one softmax
    masks out the own positive (in-batch); with the prefilter on,
    equalize_negatives' keep-mask is that mask as it is.
    """
    batch = k.shape[0]
    nnz, ids, counts = feats
    u, inv = _distinct(ids, W.shape[0])
    F = np.zeros((batch, u.size))  # a row's buckets are distinct: no cell is written twice
    F.reshape(-1)[np.repeat(np.arange(batch) * u.size, nnz) + inv] = counts
    W_u = W[u]
    z = F @ W_u
    norms = np.linalg.norm(z, axis=1)
    collapsed = np.flatnonzero(norms <= ZERO_NORM_EPS)
    if collapsed.size:
        raise ZeroVectorError(
            f"batch sample {collapsed[0]}: projection collapsed to zero norm"
        )
    q = z / norms[:, None]

    in_batch = cfg.negatives_source == NEGATIVES_IN_BATCH
    candidates = k if in_batch else queue
    if candidates.shape[0] == (1 if in_batch else 0):  # nothing to contrast against
        stats.skipped_steps += 1
        return None
    allowed = ~np.eye(batch, dtype=bool) if in_batch else None
    if cfg.prefilter_enabled:
        mask = prefilter_mask(k, candidates, cfg.filter_threshold)
        if in_batch:
            mask &= allowed  # the own positive is never a negative
        stats.mask_kept += int(np.count_nonzero(mask))
        stats.mask_total += mask.size - (batch if in_batch else 0)
        try:
            allowed = equalize_negatives(mask, eq_rng)
        except AllFilteredError:
            stats.m_zero_fallbacks += 1  # revert to every candidate

    losses, dq = _masked_infonce(q, k, candidates, allowed, cfg.temperature)
    loss = float(losses.mean())
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    stats.loss_sum += loss
    stats.loss_steps += 1
    g = dq / batch  # batch-mean loss
    dz = (g - np.einsum("bd,bd->b", g, q)[:, None] * q) / norms[:, None]
    W_u -= cfg.step_size * (F.T @ dz)
    if not np.isfinite(W_u).all():
        raise DivergenceError("non-finite weights after the update")
    W[u] = W_u
    return loss


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
    if seed_key(student.featurizer.hash_seed) == seed_key(teacher.featurizer.hash_seed):
        raise ValueError("student and teacher featurizer hash seeds must differ")


def _featurize_sources(sentences: list[str], cfg: FeaturizerConfig) -> tuple[np.ndarray, ...]:
    """featurize_batch, refusing sentences without features."""
    feats = featurize_batch(sentences, cfg)
    empty = np.flatnonzero(feats[0] == 0)
    if empty.size:
        raise ZeroVectorError(f"source sentence {empty[0]} has no features")
    return feats


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
    only the enqueue happened.  Inputs are never mutated.  ``rng``
    defaults to the equalization stream of train_distill with cfg.rng_seed.
    """
    _check_roles(student, teacher)
    if not batch:
        raise ValueError("empty batch")
    feats = _featurize_sources([s for s, _ in batch], student.featurizer)
    tgt_emb = encode_batch(teacher, [t for _, t in batch])
    rng = _rng_streams(cfg.rng_seed)[2] if rng is None else rng
    W = student.weights.copy()
    loss = _step_core(W, feats, tgt_emb, queue.entries, cfg, rng, EpochStats())
    student = EncoderParams(student.featurizer, W, frozen=False)
    return loss, student, queue_update(queue, tgt_emb)


@dataclass
class TrainResult:
    """Trained student plus per-epoch traces and the training log."""

    student: EncoderParams
    epoch_losses: list[float]
    epoch_stats: list[EpochStats]
    log_lines: list[str]

    @property
    def kept_fraction(self) -> float:
        """EpochStats.kept_fraction of the whole run's summed counters."""
        kept = sum(s.mask_kept for s in self.epoch_stats)
        total = sum(s.mask_total for s in self.epoch_stats)
        return EpochStats(mask_kept=kept, mask_total=total).kept_fraction


def default_student(
    teacher: EncoderParams, rng_seed: int
) -> EncoderParams:
    """Fresh trainable student shaped like the teacher.

    The featurizer copies the teacher's orders/buckets but draws its own
    hash seed (guaranteed different), and weights start at
    U[-1, 1]/sqrt(bucket_count) so pre-normalization activations are O(1).
    """
    init_rng = _rng_streams(check_number("rng_seed", rng_seed, int, 0))[0]
    hash_seed = int(init_rng.integers(0, 2**63))
    while hash_seed == seed_key(teacher.featurizer.hash_seed):
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
    ``epoch=<e> loss=<mean> filtered_out=<n> m_zero_fallbacks=<n>
    skipped_steps=<n> kept_fraction=<f>``.  Raises TooFewPairsError up front
    when some epoch would take no loss step (queue negatives skip the first
    batch; in-batch ones need 2 pairs), and DivergenceError, naming the
    epoch and step, at the first step whose loss or updated weights are
    not finite.
    """
    minimum = 2 if cfg.negatives_source == NEGATIVES_IN_BATCH else cfg.batch_size + 1
    if cfg.epochs >= 1 and len(pairs) < minimum:
        raise TooFewPairsError(
            f"{len(pairs)} pairs leave an epoch without a loss step: "
            f"{cfg.negatives_source} negatives with batch_size={cfg.batch_size} "
            f"need at least {minimum}"
        )
    if student_init is None:
        student_init = default_student(teacher, cfg.rng_seed)
    _check_roles(student_init, teacher)

    sources = [s for s, _ in pairs]
    nnz_all, ids_all, counts_all = _featurize_sources(sources, student_init.featurizer)
    first_all = np.cumsum(nnz_all) - nnz_all  # where each row's entries start
    schedule = _schedule([t for _, t in pairs], teacher, cfg)

    eq_rng = _rng_streams(cfg.rng_seed)[2]
    W = student_init.weights.copy()
    all_stats: list[EpochStats] = []
    log_lines: list[str] = []

    for epoch in range(1, cfg.epochs + 1):
        stats = EpochStats()
        # this loop alone holds the epoch's list (zip's result tuple would pin it)
        for step, (batch, k, queue) in enumerate(next(schedule), 1):
            nnz = nnz_all[batch]  # row i's entries: first_all[batch[i]] + arange(nnz[i])
            at = np.repeat(first_all[batch] - (np.cumsum(nnz) - nnz), nnz) + np.arange(nnz.sum())
            try:
                _step_core(W, (nnz, ids_all[at], counts_all[at]), k, queue, cfg, eq_rng, stats)
            except DivergenceError as exc:
                raise DivergenceError(f"epoch {epoch} step {step}: {exc}") from None
        del k, queue  # the last views, so the next stream matrix replaces this one
        all_stats.append(stats)
        line = (
            f"epoch={epoch} loss={stats.mean_loss:.6f} filtered_out={stats.filtered_out} "
            f"m_zero_fallbacks={stats.m_zero_fallbacks} skipped_steps={stats.skipped_steps} "
            f"kept_fraction={stats.kept_fraction:.6f}"
        )
        log_lines.append(line)
        if log_fn is not None:
            log_fn(line)

    student = EncoderParams(student_init.featurizer, W, frozen=False)
    return TrainResult(student, [s.mean_loss for s in all_stats], all_stats, log_lines)
