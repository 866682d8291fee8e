"""The benchmark's workloads: what each sets up, times, and checks.

Every workload follows the README pipeline on cipher corpora whose pairs
come from the run's seed, and calls the library only through module
attributes (``trainer.train_distill``, ``margin.align``, ...) so that a
traced run sees every call.  The library's ``threads`` argument stays at
its default of 1: one closed-loop caller, with BLAS using its own threads.

- ``distill`` trains the student once per negatives mode (queue, queue
  with prefilter, in-batch) on the acceptance-size corpus; the training
  step is nearly all of the time.
- ``mine`` embeds about 5,000 short held-out pairs, round-trips them
  through EMB1 files and aligns them: margin search dominates.
- ``filter`` scores and budget-selects about 3,000 long pairs read from a
  TSV file: per-sentence encoding (hashing) dominates.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np
from bitextkit import embfile, encoder, filtering, hashing, synth, trainer
from bitextkit.encoder import FeaturizerConfig
from bitextkit.margin import SearchConfig
from bitextkit.synth import CipherSpec
from bitextkit.trainer import TrainConfig

import oracles

# the package re-exports a function named ``margin`` over the submodule
margin = import_module("bitextkit.margin")

CIPHER = CipherSpec(vocab_size=100, min_len=1, max_len=12, map_seed=7)
LONG_CIPHER = CipherSpec(vocab_size=100, min_len=20, max_len=60, map_seed=7)
SEARCH = SearchConfig(k=4, margin_kind="ratio")
NOISE_RATE = 0.30
# Prefilter threshold of the distill workload's prefilter mode.  At the pinned
# 0.9 the mask keeps 99.993% of the queue, so equalization would hardly
# run; at 0.5 it keeps about 90% and every step subsamples.
PREFILTER_SIGMA = 0.5
# The mine and filter students are trained on one fixed corpus, so the
# model is the same for every seed and only the pairs to mine or filter
# change with it.
STUDENT_CORPUS_SEED = 11
BUDGET_SHARES = (0.05, 0.2, 0.4, 0.6)
EMPTY_SIDED = 4  # noisy pairs given an empty side, to exercise the -inf path


@dataclass(frozen=True)
class Scale:
    distill_pairs: int = 5000
    held_pairs: int = 500
    epochs: int = 6
    student_pairs: int = 2000
    mine_pairs: int = 5000
    filter_pairs: int = 3000
    oracle_rows: int = 64


SCALES = {
    "full": Scale(),
    "tiny": Scale(
        distill_pairs=200,
        held_pairs=60,
        epochs=2,
        student_pairs=200,
        mine_pairs=300,
        filter_pairs=100,
        oracle_rows=16,
    ),
}


def distill_config(**overrides) -> TrainConfig:
    """The pinned end-to-end training configuration of the acceptance
    tests (``distill_config`` in tests/conftest.py)."""
    base = dict(
        temperature=0.05,
        filter_threshold=0.9,
        queue_size=512,
        batch_size=32,
        negatives_source="queue",
        shuffle=True,
        prefilter_enabled=False,
        step_size=0.5,
        epochs=6,
        rng_seed=202,
    )
    base.update(overrides)
    return TrainConfig(**base)


MODES = {
    "queue": {},
    "prefilter": {"prefilter_enabled": True, "filter_threshold": PREFILTER_SIGMA},
    "in_batch": {"negatives_source": "in_batch"},
}


def make_teacher():
    featurizer = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=2048, hash_seed=101)
    return encoder.make_teacher(featurizer, dim=64, weight_seed=101)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class OpResult:
    """One timed operation: work items done in ``seconds``, a digest of its
    output (equal outputs give equal digests), failed checks, the output
    itself and, per named part of the operation, its items per second."""

    items: int
    seconds: float
    digest: str
    failures: list[str] = field(default_factory=list)
    data: object = None
    part_rates: dict = field(default_factory=dict)


@dataclass
class Evaluation:
    quality_pct: float
    failures: list[str]
    report: dict  # workload-specific end-to-end numbers, printed by name


def _write_and_read_pairs(path: str, pairs) -> list:
    filtering.write_pairs_tsv(path, pairs)
    return filtering.read_pairs_tsv(path)


def _train_student(teacher, scale: Scale):
    """A short queue-mode run on the student's own corpus."""
    pairs = synth.gen_cipher_corpus(CIPHER, scale.student_pairs, STUDENT_CORPUS_SEED)
    return trainer.train_distill(pairs, teacher, distill_config(epochs=scale.epochs)).student


class Distill:
    """train_distill once per negatives mode; reports held-out alignment error."""

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.cfgs = {m: distill_config(epochs=scale.epochs, **kw) for m, kw in MODES.items()}

    def setup(self) -> None:
        # the default seed 11 reproduces the acceptance corpora (seeds 11, 12)
        train = synth.gen_cipher_corpus(CIPHER, self.scale.distill_pairs, self.seed)
        held = synth.gen_cipher_corpus(CIPHER, self.scale.held_pairs, self.seed + 1)
        self.train = _write_and_read_pairs(os.path.join(self.workdir, "train.tsv"), train)
        self.held = _write_and_read_pairs(os.path.join(self.workdir, "held.tsv"), held)
        self.teacher = make_teacher()
        self.student_init = trainer.default_student(self.teacher, self.cfgs["queue"].rng_seed)

    def _train(self, mode: str):
        start = time.perf_counter()
        result = trainer.train_distill(
            self.train, self.teacher, self.cfgs[mode], student_init=self.student_init
        )
        seconds = time.perf_counter() - start
        failures = [
            f"{mode}: epoch {e + 1} loss {loss} is not finite"
            for e, loss in enumerate(result.epoch_losses)
            if not math.isfinite(loss)
        ]
        return result, seconds, failures

    def warmup(self) -> list[str]:
        """One untimed queue-mode training.  The first training in a process
        takes ~400k minor page faults while glibc's mmap threshold adapts to
        the step temporaries, which makes it 10-20% slower than later ones;
        after it every mode runs warm.  The mine and filter set-ups train a
        student, so they need no warm-up."""
        return self._train("queue")[2]

    def op(self) -> OpResult:
        results, seconds, failures = {}, {}, []
        for mode in MODES:
            results[mode], seconds[mode], fails = self._train(mode)
            failures += fails
        digest = sha256(
            b"".join(np.ascontiguousarray(r.student.weights).tobytes() for r in results.values())
        )
        pairs_epochs = len(self.train) * self.scale.epochs
        return OpResult(
            pairs_epochs * len(MODES), sum(seconds.values()), digest, failures, results,
            {m: pairs_epochs / seconds[m] for m in MODES},
        )

    def evaluate(self, timed: list[OpResult]) -> Evaluation:
        """README step 4 per mode on the held-out pairs: embed, EMB1 round
        trip, xsim error."""
        tgt_path = os.path.join(self.workdir, "held.tgt.emb")
        embfile.write_embeddings(tgt_path, encoder.encode_batch(self.teacher, [t for _, t in self.held]))
        report, errors, failures = {}, [], []
        for mode in MODES:
            student = timed[-1].data[mode].student
            src_path = os.path.join(self.workdir, f"held.{mode}.src.emb")
            embfile.write_embeddings(src_path, encoder.encode_batch(student, [s for s, _ in self.held]))
            err = margin.xsim_error_rate(
                embfile.read_embeddings(src_path), embfile.read_embeddings(tgt_path), SEARCH
            )
            if not 0.0 <= err <= 100.0:
                failures.append(f"{mode}: error rate {err} out of range")
            errors.append(err)
            rate = statistics.median(out.part_rates[mode] for out in timed)
            report[f"train.pairs_per_s.{mode}"] = (rate, "1/s")
            report[f"heldout_error_pct.{mode}"] = (err, "%")
        return Evaluation(100.0 - statistics.fmean(errors), failures, report)


class Mine:
    """README step 4 at n ~ 5,000: raw text to aligned target picks."""

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir

    def setup(self) -> None:
        self.teacher = make_teacher()
        self.student = _train_student(self.teacher, self.scale)
        self.path = os.path.join(self.workdir, "mine.tsv")
        filtering.write_pairs_tsv(
            self.path, synth.gen_cipher_corpus(CIPHER, self.scale.mine_pairs, self.seed)
        )

    def op(self) -> OpResult:
        src_path = os.path.join(self.workdir, "mine.src.emb")
        tgt_path = os.path.join(self.workdir, "mine.tgt.emb")
        start = time.perf_counter()
        pairs = filtering.read_pairs_tsv(self.path)
        embfile.write_embeddings(src_path, encoder.encode_batch(self.student, [s for s, _ in pairs]))
        embfile.write_embeddings(tgt_path, encoder.encode_batch(self.teacher, [t for _, t in pairs]))
        S = embfile.read_embeddings(src_path)
        T = embfile.read_embeddings(tgt_path)
        picks, _ = margin.align(S, T, SEARCH)
        seconds = time.perf_counter() - start
        picks = np.asarray(picks, dtype=np.int64)
        failures = [] if picks.shape == (len(pairs),) else [f"picks shape {picks.shape}"]
        return OpResult(len(pairs), seconds, sha256(picks.tobytes()), failures, (S, T, picks))

    def evaluate(self, timed: list[OpResult]) -> Evaluation:
        out = timed[-1]
        S, T, picks = out.data
        rows = np.random.default_rng(self.seed).choice(
            len(picks), size=min(self.scale.oracle_rows, len(picks)), replace=False
        )
        failures = oracles.check_alignment(S, T, picks, np.sort(rows), SEARCH.k)
        err = 100.0 * float(np.mean(picks != np.arange(len(picks))))
        report = {
            "mine.pairs_per_s": (statistics.median(o.items / o.seconds for o in timed), "1/s"),
            "mine.error_pct": (err, "%"),
        }
        return Evaluation(100.0 - err, failures, report)


class Filter:
    """README step 5 on long sentences: TSV on disk to written scored TSV."""

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir

    def setup(self) -> None:
        student_path = os.path.join(self.workdir, "student.emb")
        teacher_path = os.path.join(self.workdir, "teacher.emb")
        teacher = make_teacher()
        encoder.save_encoder(_train_student(teacher, self.scale), student_path)
        encoder.save_encoder(teacher, teacher_path)
        self.student = encoder.load_encoder(student_path)
        self.teacher = encoder.load_encoder(teacher_path)

        clean = synth.gen_cipher_corpus(LONG_CIPHER, self.scale.filter_pairs, self.seed)
        noisy = synth.inject_noise(clean, NOISE_RATE, self.seed + 1)
        pairs = list(noisy.pairs)
        rng = np.random.default_rng(self.seed + 2)
        self.empty = np.sort(
            rng.choice(np.flatnonzero(noisy.labels), size=EMPTY_SIDED, replace=False)
        )
        for j, i in enumerate(self.empty):
            source, target = pairs[i]
            pairs[i] = ("", target) if j % 2 == 0 else (source, "")
        self.labels = noisy.labels
        total_tokens = sum(filtering.count_tokens(t) for _, t in pairs)
        self.budgets = [int(share * total_tokens) for share in BUDGET_SHARES]
        self.path = os.path.join(self.workdir, "noisy.tsv")
        filtering.write_pairs_tsv(self.path, pairs)

    def op(self) -> OpResult:
        scored_path = os.path.join(self.workdir, "scored.tsv")
        start = time.perf_counter()
        pairs = filtering.read_pairs_tsv(self.path)
        scored = filtering.score_corpus(pairs, self.student, self.teacher, SEARCH)
        selections = [filtering.select_by_token_budget(scored, b) for b in self.budgets]
        filtering.write_scored_tsv(scored_path, scored)
        seconds = time.perf_counter() - start

        failures = oracles.check_selections(scored, self.budgets, selections)
        failures += oracles.check_scored_tsv(scored_path, len(pairs))
        unscorable = np.flatnonzero([p.score == -math.inf for p in scored])
        if not np.array_equal(unscorable, self.empty):
            failures.append(
                f"-inf scores at {unscorable.tolist()}, expected {self.empty.tolist()}"
            )
        with open(scored_path, "rb") as fh:
            digest = sha256(fh.read())
        return OpResult(len(pairs), seconds, digest, failures, (pairs, scored))

    def evaluate(self, timed: list[OpResult]) -> Evaluation:
        pairs, scored = timed[-1].data
        order = np.argsort([-p.score for p in scored], kind="stable")
        n_noise = int(self.labels.sum())
        recall = float(np.mean(self.labels[order[len(order) - n_noise :]]))
        report = {
            "filter.pairs_per_s": (statistics.median(o.items / o.seconds for o in timed), "1/s"),
            "filter.noise_recall": (recall, "ratio"),
        }
        failures = backend_agreement([s for p in pairs[:100] for s in p if s])
        return Evaluation(100.0 * recall, failures, report)


def hash_backends() -> dict:
    """The fill kernels of both hashing backends, or {} unless both import."""
    try:
        from bitextkit._fasthash import fill_bucket_ids as compiled
        from bitextkit._hashing_py import fill_bucket_ids as pure
    except ImportError:
        return {}
    return {"compiled": compiled, "pure": pure}


def backend_agreement(sentences: list[str]) -> list[str]:
    """Compiled and pure hashing backends give identical bucket ids.

    Runs only when both backends import; otherwise there is nothing to
    compare and the check passes.
    """
    backends = hash_backends()
    if not backends:
        return []
    fails = []
    for s in sentences:
        a = hashing.ngram_bucket_ids(s, (2, 3), 4096, 11, backend=backends["pure"])
        b = hashing.ngram_bucket_ids(s, (2, 3), 4096, 11, backend=backends["compiled"])
        if not np.array_equal(a, b):
            fails.append(f"hash backends disagree on {s!r}")
    return fails


WORKLOADS = {
    "distill": Distill,
    "mine": Mine,
    "filter": Filter,
}
