"""Hashed character n-gram featurizer and linear sentence encoder.

A sentence is wrapped in sentinels ("^" prepended, "$" appended), its
character n-grams are hashed into a fixed number of buckets (see
``hashing`` for the exact hash), and the resulting sparse count vector f
is projected and normalized:

    embed(s) = W^T f / ||W^T f||,   W in R^(buckets x dim)

Many sentences' counts take one unpadded compressed-row form, which the
encoder and the trainer both read: featurize_batch's (nnz, indices, counts).
W^T f is the sequential sum z = z + c * W[i] over f's buckets i in
ascending order, one rounded product then one add, so the bits of a
sentence's embedding never depend on the batch it is encoded in.  The
product c * W[i] is made once per distinct (bucket, count) pair of a
projection group and gathered wherever that pair occurs.

Encoders are plain parameter containers; a frozen encoder's weights are
read-only, and the trainer refuses to update them.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from . import hashing
from .embfile import check_text, open_text, read_embeddings, write_embeddings, write_text
from .errors import DimMismatchError, FormatError, ZeroVectorError, check_number
from .vectors import ZERO_NORM_EPS

SENTINEL_BEGIN = "^"
SENTINEL_END = "$"
DEFAULT_ORDERS = (2, 3)
DEFAULT_BUCKETS = 4096
# hashing counts each order's n-grams in int64
_MAX_ORDER = 2**63 - 1
# a bucket id fits an int32; a weight matrix that tall is 32 GiB at dim 2
_MAX_BUCKETS = 2**31 - 1


@dataclass(frozen=True)
class FeaturizerConfig:
    """Defines the text -> sparse feature map; equal configs hash equally."""

    ngram_orders: tuple[int, ...] = DEFAULT_ORDERS
    bucket_count: int = DEFAULT_BUCKETS
    hash_seed: int = 0

    def __post_init__(self):
        orders = {
            check_number("ngram_orders", o, int, 1, high=_MAX_ORDER) for o in self.ngram_orders
        }
        if not orders:
            raise ValueError("ngram_orders must be non-empty")
        object.__setattr__(self, "ngram_orders", tuple(sorted(orders)))
        buckets = check_number("bucket_count", self.bucket_count, int, 2, high=_MAX_BUCKETS)
        object.__setattr__(self, "bucket_count", buckets)
        object.__setattr__(self, "hash_seed", check_number("hash_seed", self.hash_seed))


# Hash chunks and projection groups, sized on 2 cores (medians of 15
# interleaved calls, two processes).  featurize_batch of the 3,000 long
# `filter` targets took 44-62 ms in 8k-character chunks, 41-55 in 16k and
# 41-53 in 32k; of the 5,000 short `mine` targets 18-23, 17-22 and 19-22.
# Encoding the `filter` targets took 82-118 ms in groups of 1,024 rows and
# 89-130 in 2,048; the `mine` ones 44-62 and 46-65.  Earlier sweeps found
# 256 and 4,096 rows slower than 1,024.
_CHUNK_CHARS = 16_384
_GROUP_ROWS = 1024


def _block_counts(
    sentences: list[str], cfg: FeaturizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """featurize_batch of a few sentences, hashed in one call."""
    wrapped = [SENTINEL_BEGIN + s + SENTINEL_END if s else "" for s in sentences]
    ids, text = hashing.bucket_ids(
        wrapped, cfg.ngram_orders, cfg.bucket_count, cfg.hash_seed
    )
    B = cfg.bucket_count
    # key = text * B + id, sorted; int32 keys sort twice as fast, and the
    # bucket cap makes them fit whenever rows * B does
    width = np.int32 if len(sentences) * B <= 2**31 else np.int64
    keys = np.sort(text * width(B) + ids.astype(width, copy=False))
    # np.unique(keys, return_counts=True), without its extra passes
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=keys.size)
    keys = keys[starts]
    row = keys // B
    nnz = np.bincount(row, minlength=len(sentences))
    # a count is at most the chunk's n-gram count; a bucket fits an int32
    counts = counts.astype(np.int32 if ids.size < 2**31 else np.int64)
    return nnz, (keys - row * B).astype(np.int32, copy=False), counts


def featurize_batch(sentences: list[str], cfg: FeaturizerConfig) -> tuple[np.ndarray, ...]:
    """Hashed n-gram counts of many sentences in compressed-row form.

    Returns (nnz, indices, counts): sentence i owns the next nnz[i]
    entries of indices (its strictly increasing buckets, int32) and counts
    (how often its n-grams hash there, int32, or int64 when a chunk has
    2^31 n-grams or more).  The empty sentence has no entries (no
    sentinel n-grams are counted for it).  Hashes each sentence once, one
    call per chunk of about _CHUNK_CHARS characters, so a row never
    depends on the batch it is featurized in.  A sentence UTF-8 cannot
    encode (a lone surrogate) raises ValueError naming its index in
    ``sentences``.
    """
    ends = np.cumsum(np.fromiter(map(len, sentences), np.int64, len(sentences)))
    cuts = (np.flatnonzero(np.diff(ends // _CHUNK_CHARS)) + 1).tolist()
    spans = zip([0] + cuts, cuts + [len(sentences)])
    try:
        chunks = [_block_counts(sentences[lo:hi], cfg) for lo, hi in spans]
    except ValueError:
        hashing.check_utf8(sentences)  # names the index in sentences, not in a chunk
        raise
    parts = [list(part) for part in zip(*chunks)]
    del chunks
    out = []
    for part in parts:  # each part's chunks are freed once joined
        out.append(np.concatenate(part))
        part.clear()
    return tuple(out)


# not called in the package; perfbench/tracing.py patches it by name
def featurize(sentence: str, cfg: FeaturizerConfig) -> tuple[np.ndarray, ...]:
    """featurize_batch([sentence], cfg)."""
    return featurize_batch([sentence], cfg)


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
    dim = check_number("dim", dim, int, 2, high=2**32 - 1)  # EMB1's u32 dim field
    rng = np.random.default_rng(check_number("weight_seed", weight_seed, int, 0))
    weights = rng.uniform(-1.0, 1.0, size=(featurizer.bucket_count, dim))
    return EncoderParams(featurizer, weights, frozen=True)


def _distinct(a: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(a, return_inverse=True) of ints in [0, size): one table
    lookup when the table is at most 32 entries per element of ``a``, so
    its memory follows ``a``; a sort otherwise.  It dedupes the (count,
    bucket) keys here and each training step's bucket ids."""
    if size > 32 * a.size:
        return np.unique(a, return_inverse=True)
    table = np.zeros(size, dtype=np.int32)
    table[a] = 1
    values = np.flatnonzero(table)
    table[values] = np.arange(values.size, dtype=np.int32)
    return values, table[a]


def _pair_products(
    W: np.ndarray, nnz: np.ndarray, ind: np.ndarray, cnt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nnz, slot, products) of rows in featurize_batch form: one product
    c * W[b] per distinct (bucket, count) pair, and each entry's row of
    that table, so products[slot[e]] is the rounded cnt[e] * W[ind[e]].
    """
    B = W.shape[0]
    size = (int(cnt.max(initial=0)) + 1) * B
    key = cnt.astype(np.int32 if size <= 2**31 else np.int64)
    key *= B  # count * B + bucket, built in place
    key += ind
    pairs, slot = _distinct(key, size)
    del key  # before the table is made, to keep the peak memory down
    count_of = pairs // B
    products = W[pairs - count_of * B]
    products *= count_of.astype(np.float64)[:, None]
    return nnz, slot, products


def _project(nnz: np.ndarray, slot: np.ndarray, products: np.ndarray) -> np.ndarray:
    """W^T f of rows given as _pair_products, adding one feature column at
    a time to the rows (sorted by feature count) that have it: the same
    rounded products, added in the same order, as z = z + c * W[i].  The
    trainer's F @ W[u] would not do here: BLAS sums in an order set by the
    shape.
    """
    order = np.argsort(-nnz, kind="stable")
    first = (np.cumsum(nnz) - nnz)[order]
    columns = np.arange(nnz.max(initial=0))
    live = np.searchsorted(-nnz[order], -columns, side="left")  # rows with nnz > k
    z = np.zeros((nnz.size, products.shape[1]))
    for k, r in enumerate(live.tolist()):
        z[:r] += products.take(slot.take(first[:r] + k), axis=0)
    return z[np.argsort(order)]


def encode_masked(
    params: EncoderParams, sentences: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm embeddings of many sentences plus a per-row ok mask.

    A row is not ok when its sentence has no features or its projection
    collapses to (near-)zero norm; such rows are all zero.  Only a sentence
    UTF-8 cannot encode (a lone surrogate) raises: ValueError names its
    index in ``sentences``.  Projects groups of at most _GROUP_ROWS
    sentences, each hashed in chunks of about _CHUNK_CHARS characters; row
    i equals the row the sentence gets in any other batch.
    """
    n = len(sentences)
    out = np.zeros((n, params.dim), dtype=np.float64)
    ok = np.zeros(n, dtype=bool)
    for lo in range(0, n, _GROUP_ROWS):
        group = sentences[lo : lo + _GROUP_ROWS]
        # one expression, so that neither the group's features nor its
        # products outlive the step that reads them
        try:
            z = _project(
                *_pair_products(params.weights, *featurize_batch(group, params.featurizer))
            )
        except ValueError:
            hashing.check_utf8(sentences)  # names the index in sentences, not in a group
            raise
        norms = np.linalg.norm(z, axis=1)
        good = norms > ZERO_NORM_EPS
        out[lo : lo + len(z)][good] = z[good] / norms[good, None]
        ok[lo : lo + len(z)] = good
    return out, ok


def _zero_reason(params: EncoderParams, sentence: str) -> str:
    if featurize_batch([sentence], params.featurizer)[0][0] == 0:
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
    ``comments`` follow as '#' lines, checked before anything is written.
    """
    comments = [check_text(c, "comment") for c in comments or ()]
    write_embeddings(path, params.weights)
    orders = ",".join(str(o) for o in params.featurizer.ngram_orders)
    header = (
        f"dim={params.dim} buckets={params.featurizer.bucket_count} "
        f"orders={orders} seed={params.featurizer.hash_seed} "
        f"frozen={1 if params.frozen else 0}"
    )
    write_text(os.fspath(path) + _META_SUFFIX, [], comments, header)


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
