"""Spans around the public functions of each bitextkit layer.

A span is recorded by replacing a public function with a timing wrapper
under every module attribute its callers look it up through (for example
``bitextkit.filtering.knn`` as well as ``bitextkit.margin.knn``), so the
program itself is not edited.  Spans live in memory and are written out
once, at the end of the run.  All calls run on one thread, so child spans
nest strictly inside their parent and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np
from bitextkit import embfile, encoder, filtering, hashing, synth, trainer

# the package re-exports a function named ``margin`` over the submodule
margin = import_module("bitextkit.margin")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _ngrams(out, *args, **kwargs):
    return {"ngrams": int(out.size)}


def _rows(out, *args, **kwargs):
    return {"rows": len(out)}


def _knn_cosines(out, queries, candidates, *args, **kwargs):
    return {"cosines": len(queries) * len(candidates)}


def _align_cosines(out, src, tgt, *args, **kwargs):
    # align's own pass scores every source against every target once more
    return {"cosines": len(src) * len(tgt)}


def _emb_written(out, path, mat, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _emb_read(out, *args, **kwargs):
    return {"bytes": 16 + int(out.nbytes)}


def _train_counts(out, pairs, teacher, cfg, *args, **kwargs):
    stats = out.epoch_stats
    mode = "prefilter" if cfg.prefilter_enabled else cfg.negatives_source
    return {
        "variant": mode,
        "steps": sum(s.loss_steps + s.skipped_steps for s in stats),
        "skipped_steps": sum(s.skipped_steps for s in stats),
        "filtered_out": sum(s.filtered_out for s in stats),
        "m_zero_fallbacks": sum(s.m_zero_fallbacks for s in stats),
        "mask_kept": sum(s.mask_kept for s in stats),
        "mask_total": sum(s.mask_total for s in stats),
    }


# span name -> (module attributes the function is looked up through, counter)
TARGETS = {
    "hashing.ngram_bucket_ids": ([(hashing, "ngram_bucket_ids")], _ngrams),
    "encoder.featurize": ([(encoder, "featurize"), (trainer, "featurize")], None),
    "encoder.encode": ([(encoder, "encode"), (filtering, "encode")], None),
    "encoder.encode_batch": ([(encoder, "encode_batch"), (trainer, "encode_batch")], None),
    "trainer.train_distill": ([(trainer, "train_distill")], _train_counts),
    "margin.knn": ([(margin, "knn"), (filtering, "knn")], _knn_cosines),
    "margin.align": ([(margin, "align")], _align_cosines),
    "filtering.read_pairs_tsv": ([(filtering, "read_pairs_tsv")], None),
    "filtering.score_corpus": ([(filtering, "score_corpus")], None),
    "filtering.select_by_token_budget": (
        [(filtering, "select_by_token_budget")],
        _rows,
    ),
    "filtering.write_scored_tsv": ([(filtering, "write_scored_tsv")], None),
    "embfile.write_embeddings": (
        [(embfile, "write_embeddings"), (encoder, "write_embeddings")],
        _emb_written,
    ),
    "embfile.read_embeddings": (
        [(embfile, "read_embeddings"), (encoder, "read_embeddings")],
        _emb_read,
    ),
    "synth.gen_cipher_corpus": ([(synth, "gen_cipher_corpus")], None),
    "synth.inject_noise": ([(synth, "inject_noise")], None),
}


TRAIN_MODES = ("queue", "prefilter", "in_batch")


class Tracer:
    """Records spans while installed; restores every attribute on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = "-"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(out, *args, **kwargs)
            return out

        return wrapper

    def install(self) -> None:
        for name, (attrs, counter) in TARGETS.items():
            wrapped = {}
            for module, attr in attrs:
                fn = getattr(module, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn, counter)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def run(self, run_id: str):
        """Tag the spans recorded inside the block with ``run_id``."""
        previous, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = previous

    def self_times(self) -> np.ndarray:
        own = np.array([s.duration for s in self.spans])
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                row = [s.name, s.start, s.end, s.parent, s.run_id, s.counts]
                fh.write(json.dumps(row) + "\n")


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def totals(tracer: Tracer, run_ids=None) -> dict[str, LayerTotals]:
    """Per span name: calls, inclusive and self seconds, summed counters.

    A span whose counter names a ``variant`` (the negatives mode of a
    training) is also added to the entry ``<name>.<variant>``.
    """
    out = {name: LayerTotals() for name in TARGETS}
    for span, own in zip(tracer.spans, tracer.self_times().tolist()):
        if run_ids is not None and span.run_id not in run_ids:
            continue
        counts = dict(span.counts)
        keys = [span.name]
        if "variant" in counts:
            keys.append(f"{span.name}.{counts.pop('variant')}")
        for key in keys:
            t = out.setdefault(key, LayerTotals())
            t.calls += 1
            t.total_s += span.duration
            t.self_s += own
            for name, value in counts.items():
                t.counts[name] = t.counts.get(name, 0) + value
    return out


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer_metrics(t: dict[str, LayerTotals]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    Layer aggregates (``margin.self_s``, ``filtering.self_s``,
    ``synth.self_s``) stand in for functions that only some workloads call,
    so that every time reported is a measured, non-constant number.
    """
    h = t["hashing.ngram_bucket_ids"]
    feat, enc, batch = t["encoder.featurize"], t["encoder.encode"], t["encoder.encode_batch"]
    tr = t["trainer.train_distill"]
    knn, align = t["margin.knn"], t["margin.align"]
    emb_w, emb_r = t["embfile.write_embeddings"], t["embfile.read_embeddings"]
    filt = [t[n] for n in TARGETS if n.startswith("filtering.")]
    syn = [t[n] for n in TARGETS if n.startswith("synth.")]
    encoder_s = feat.self_s + enc.self_s + batch.self_s + h.self_s
    mask_total = tr.counts.get("mask_total", 0)
    emb_s = emb_w.total_s + emb_r.total_s
    emb_bytes = emb_w.counts.get("bytes", 0) + emb_r.counts.get("bytes", 0)
    mode_rates = {}
    for mode in TRAIN_MODES:
        m = t.get(f"trainer.train_distill.{mode}", LayerTotals())
        mode_rates[f"trainer.steps_per_s.{mode}"] = (
            _rate(m.counts.get("steps", 0), m.total_s),
            "1/s",
        )
    return {
        "hashing.ngram_bucket_ids.self_s": (h.self_s, "s"),
        "hashing.ngram_bucket_ids.calls": (h.calls, "count"),
        "hashing.ngrams": (h.counts.get("ngrams", 0), "count"),
        "hashing.ngrams_per_s": (_rate(h.counts.get("ngrams", 0), h.self_s), "1/s"),
        "encoder.featurize.self_s": (feat.self_s, "s"),
        "encoder.encode.self_s": (enc.self_s, "s"),
        "encoder.encode_batch.self_s": (batch.self_s, "s"),
        # every sentence the encoder layer embeds passes through featurize once
        "encoder.sentences_per_s": (_rate(feat.calls, encoder_s), "1/s"),
        "trainer.train_distill.self_s": (tr.self_s, "s"),
        "trainer.steps": (tr.counts.get("steps", 0), "count"),
        **mode_rates,
        "trainer.skipped_steps": (tr.counts.get("skipped_steps", 0), "count"),
        "trainer.kept_fraction": (
            tr.counts.get("mask_kept", 0) / mask_total if mask_total else 1.0,
            "ratio",
        ),
        "trainer.filtered_out": (tr.counts.get("filtered_out", 0), "count"),
        "trainer.m_zero_fallbacks": (tr.counts.get("m_zero_fallbacks", 0), "count"),
        "margin.knn.self_s": (knn.self_s, "s"),
        "margin.knn.calls": (knn.calls, "count"),
        "margin.self_s": (knn.self_s + align.self_s, "s"),
        "margin.cosines_per_s": (
            _rate(
                knn.counts.get("cosines", 0) + align.counts.get("cosines", 0),
                knn.self_s + align.self_s,
            ),
            "1/s",
        ),
        "filtering.read_pairs_tsv.s": (t["filtering.read_pairs_tsv"].total_s, "s"),
        "filtering.self_s": (sum(f.self_s for f in filt), "s"),
        "filtering.selected_pairs": (
            t["filtering.select_by_token_budget"].counts.get("rows", 0),
            "count",
        ),
        "embfile.write_embeddings.s": (emb_w.total_s, "s"),
        "embfile.read_embeddings.s": (emb_r.total_s, "s"),
        "embfile.mb_per_s": (_rate(emb_bytes / 1e6, emb_s), "MB/s"),
        "synth.gen_cipher_corpus.s": (t["synth.gen_cipher_corpus"].total_s, "s"),
        "synth.self_s": (sum(s.self_s for s in syn), "s"),
    }


def layer_shares(t: dict[str, LayerTotals], wall: float) -> dict[str, float]:
    """Share of ``wall`` spent in each layer's own code; the rest is the
    benchmark's glue and unwrapped library functions."""
    by_layer: dict[str, float] = {}
    for name in TARGETS:
        tot = t[name]
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + tot.self_s
    return {k: v / wall for k, v in by_layer.items()}
