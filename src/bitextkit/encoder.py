"""Hashed character n-gram featurizer and linear sentence encoder.

A sentence is wrapped in sentinels ("^" prepended, "$" appended), its
character n-grams are hashed into a fixed number of buckets (see
``hashing`` for the exact hash), and the resulting sparse count vector f
is projected and normalized:

    embed(s) = W^T f / ||W^T f||,   W in R^(buckets x dim)

Encoders are plain parameter containers; a frozen encoder's weights are
read-only, and the trainer refuses to update them.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from . import hashing
from .embfile import atomic_write_text, open_text, read_embeddings, write_embeddings
from .errors import DimMismatchError, FormatError, ZeroVectorError
from .vectors import ZERO_NORM_EPS

SENTINEL_BEGIN = "^"
SENTINEL_END = "$"
DEFAULT_ORDERS = (2, 3)
DEFAULT_BUCKETS = 4096
# hashing counts each order's n-grams in int64
_MAX_ORDER = 2**63 - 1


@dataclass(frozen=True)
class FeaturizerConfig:
    """Defines the text -> sparse feature map; equal configs hash equally."""

    ngram_orders: tuple[int, ...] = DEFAULT_ORDERS
    bucket_count: int = DEFAULT_BUCKETS
    hash_seed: int = 0

    def __post_init__(self):
        orders = tuple(sorted({int(o) for o in self.ngram_orders}))
        if not orders or orders[0] < 1:
            raise ValueError("ngram_orders must be non-empty with all orders >= 1")
        if orders[-1] > _MAX_ORDER:
            raise ValueError(f"ngram_orders must be <= {_MAX_ORDER}, got {orders[-1]}")
        object.__setattr__(self, "ngram_orders", orders)
        if int(self.bucket_count) < 2:
            raise ValueError("bucket_count must be >= 2")
        object.__setattr__(self, "bucket_count", int(self.bucket_count))
        object.__setattr__(self, "hash_seed", int(self.hash_seed))


@dataclass(frozen=True)
class SparseCounts:
    """Sparse count vector: strictly increasing indices, positive counts."""

    indices: np.ndarray  # int64
    counts: np.ndarray  # float64
    length: int

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])


# Sentences featurized and projected together.  Bounds the temporaries of
# a batch call (hash lanes, gathered weight rows) to one block's worth.
_BLOCK = 64


def _block_counts(
    sentences: list[str], cfg: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed n-gram counts of a few sentences in compressed-row form.

    Returns (nnz, indices, counts): sentence i owns the next nnz[i]
    entries of indices (strictly increasing) and counts.
    """
    wrapped = [SENTINEL_BEGIN + s + SENTINEL_END if s else "" for s in sentences]
    ids, bounds = hashing.bucket_ids(
        wrapped, cfg.ngram_orders, cfg.bucket_count, cfg.hash_seed
    )
    row = np.repeat(np.arange(len(sentences)), np.diff(bounds))
    keys, counts = np.unique(row * cfg.bucket_count + ids, return_counts=True)
    nnz = np.bincount(keys // cfg.bucket_count, minlength=len(sentences))
    return nnz, keys % cfg.bucket_count, counts.astype(np.float64)


def _padded_block(
    sentences: list[str], cfg: FeaturizerConfig, width: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """featurize_batch of at most one block, padded to at least ``width``."""
    nnz, indices, counts = _block_counts(sentences, cfg)
    width = max(width, int(nnz.max(initial=0)))
    idx = np.zeros((nnz.size, width), dtype=np.int64)
    val = np.zeros((nnz.size, width), dtype=np.float64)
    rows = np.repeat(np.arange(nnz.size), nnz)
    cols = np.arange(indices.size) - np.repeat(np.cumsum(nnz) - nnz, nnz)
    idx[rows, cols] = indices
    val[rows, cols] = counts
    return idx, val


def featurize_batch(
    sentences: list[str], cfg: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Hashed n-gram counts of many sentences as padded (n, K) arrays.

    Row i holds featurize(sentences[i]) left-packed: its bucket indices
    (increasing) and counts, then padding of index 0 with count 0.0, which
    contributes nothing to any product or scatter-add.  K is the largest
    feature count (at least 1).
    """
    n = len(sentences)
    starts = range(0, n, _BLOCK)
    # Two passes over the blocks, counting and then filling, so no second
    # copy of the whole corpus's features is held next to the padded arrays.
    width = 1
    for lo in starts:
        width = max(width, int(_block_counts(sentences[lo : lo + _BLOCK], cfg)[0].max()))
    idx = np.zeros((n, width), dtype=np.int64)
    val = np.zeros((n, width), dtype=np.float64)
    for lo in starts:
        hi = lo + _BLOCK
        idx[lo:hi], val[lo:hi] = _padded_block(sentences[lo:hi], cfg, width)
    return idx, val


def featurize(sentence: str, cfg: FeaturizerConfig) -> SparseCounts:
    """Hashed n-gram counts of a sentence.

    The empty sentence maps to the all-zero vector (no sentinel n-grams
    are counted for it).  Deterministic for a fixed config.
    """
    _, indices, counts = _block_counts([sentence], cfg)
    return SparseCounts(indices, counts, cfg.bucket_count)


@dataclass
class EncoderParams:
    """Featurizer config plus the (bucket_count x dim) projection weights.

    Weights are held as float64; frozen encoders get a private read-only
    copy so they can never be modified through this object.
    """

    featurizer: FeaturizerConfig
    weights: np.ndarray
    frozen: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise DimMismatchError(f"weights must be 2-D, got shape {w.shape}")
        if w.shape[0] != self.featurizer.bucket_count:
            raise DimMismatchError(
                f"weights have {w.shape[0]} rows but featurizer has "
                f"{self.featurizer.bucket_count} buckets"
            )
        if w.shape[1] < 2:
            raise DimMismatchError("embedding dim must be >= 2")
        if not np.isfinite(w).all():
            raise ValueError("non-finite encoder weights")
        if self.frozen:
            w = w.copy()
            w.setflags(write=False)
        self.weights = w

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])


def make_teacher(
    featurizer: FeaturizerConfig, dim: int, weight_seed: int
) -> EncoderParams:
    """Frozen encoder with seeded uniform[-1, 1] weights."""
    rng = np.random.default_rng(weight_seed)
    weights = rng.uniform(-1.0, 1.0, size=(featurizer.bucket_count, dim))
    return EncoderParams(featurizer, weights, frozen=True)


def project(weights: np.ndarray, idx: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Unnormalized projections W^T f of padded feature rows.

    Each row sums its own terms in index order, so it does not depend on
    the other rows or on the padding width.  The trainer's dense F @ W[u]
    would not do here: BLAS sums in an order that depends on the matrix
    shape, so encode_batch rows would stop matching encode bitwise.
    """
    return np.einsum("bk,bkd->bd", val, weights[idx])


def encode_masked(
    params: EncoderParams, sentences: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm embeddings of many sentences plus a per-row ok mask.

    A row is not ok when its sentence has no features or its projection
    collapses to (near-)zero norm; such rows are all zero.  Never raises
    for a bad sentence.  Works blockwise, so row i equals the row the
    sentence gets in any other batch.
    """
    n = len(sentences)
    out = np.zeros((n, params.dim), dtype=np.float64)
    ok = np.zeros(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        idx, val = _padded_block(sentences[lo : lo + _BLOCK], params.featurizer)
        z = project(params.weights, idx, val)
        norms = np.linalg.norm(z, axis=1)
        good = norms > ZERO_NORM_EPS
        out[lo : lo + len(z)][good] = z[good] / norms[good, None]
        ok[lo : lo + len(z)] = good
    return out, ok


def _zero_reason(params: EncoderParams, sentence: str) -> str:
    if featurize(sentence, params.featurizer).nnz == 0:
        return "sentence has no features"
    return "projection collapsed to zero norm"


def encode(params: EncoderParams, sentence: str) -> np.ndarray:
    """Unit-norm float64 embedding of a sentence.

    Raises ZeroVectorError if the sentence is empty, produces no features,
    or its projection collapses to (near-)zero norm.
    """
    out, ok = encode_masked(params, [sentence])
    if not ok[0]:
        raise ZeroVectorError(_zero_reason(params, sentence))
    return out[0]


def encode_batch(params: EncoderParams, sentences: list[str]) -> np.ndarray:
    """Embeddings for a list of sentences, rows in input order.

    Each row is bitwise equal to encode() of its sentence.  Raises
    ZeroVectorError naming the lowest failing sentence index.
    """
    out, ok = encode_masked(params, sentences)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ZeroVectorError(f"sentence {i}: {_zero_reason(params, sentences[i])}")
    return out


# ---------------------------------------------------------------------------
# serialization: EMB1 weight matrix + plain-text sidecar header
# ---------------------------------------------------------------------------

_META_SUFFIX = ".meta"
_META_RE = re.compile(
    r"^dim=(\d+) buckets=(\d+) orders=([\d,]+) seed=(-?\d+) frozen=([01])$"
)


def save_encoder(
    params: EncoderParams, path: str | os.PathLike, comments: list[str] | None = None
) -> None:
    """Write weights to ``path`` (EMB1, float32) and a text sidecar to
    ``path + ".meta"``.

    The sidecar's first line pins the geometry and featurizer:
    ``dim=<d> buckets=<b> orders=<o,o> seed=<s> frozen=<0|1>``; any extra
    ``comments`` follow as '#' lines.
    """
    write_embeddings(path, params.weights)
    orders = ",".join(str(o) for o in params.featurizer.ngram_orders)
    header = (
        f"dim={params.dim} buckets={params.featurizer.bucket_count} "
        f"orders={orders} seed={params.featurizer.hash_seed} "
        f"frozen={1 if params.frozen else 0}"
    )
    lines = [header] + [f"# {c}" for c in (comments or [])]
    atomic_write_text(os.fspath(path) + _META_SUFFIX, "\n".join(lines) + "\n")


def load_encoder(path: str | os.PathLike) -> EncoderParams:
    """Inverse of save_encoder.

    Weights come back as float64 (the file stores float32, so a save/load
    round trip quantizes to float32 precision).  A sidecar without a valid
    header, with bytes that are not UTF-8, or whose header disagrees with
    the matrix shape, raises FormatError.
    """
    meta_path = os.fspath(path) + _META_SUFFIX
    header = None
    with open_text(meta_path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            header = line
            break
    if header is None:
        raise FormatError(f"{meta_path}: no header line found")
    m = _META_RE.match(header)
    if m is None:
        raise FormatError(f"{meta_path}: malformed header {header!r}")
    dim, buckets, orders_s, seed, frozen = m.groups()
    try:
        featurizer = FeaturizerConfig(
            ngram_orders=tuple(int(o) for o in orders_s.split(",")),
            bucket_count=int(buckets),
            hash_seed=int(seed),
        )
        shape = (featurizer.bucket_count, int(dim))
    except ValueError as exc:
        raise FormatError(f"{meta_path}: {exc}") from None
    weights = read_embeddings(path).astype(np.float64)
    if weights.shape != shape:
        raise FormatError(
            f"{path}: weight shape {weights.shape} does not match sidecar "
            f"({buckets} x {dim})"
        )
    return EncoderParams(featurizer, weights, frozen=frozen == "1")
