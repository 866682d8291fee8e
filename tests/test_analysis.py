"""Diagnostics tests: queue-similarity statistics and their replay
semantics, threshold sweeps with failure isolation, and CSV formats."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bitextkit import analysis
from bitextkit.analysis import (
    Histogram,
    SweepRow,
    cosine_histogram,
    similarity_distribution,
    similarity_values,
    threshold_sweep,
    write_histogram_csv,
    write_sweep_csv,
)
from bitextkit.encoder import FeaturizerConfig, make_teacher
from bitextkit.margin import SearchConfig
from bitextkit.synth import CipherSpec, gen_cipher_corpus
from bitextkit.trainer import NegativeQueue, TrainConfig
from queue_oracle import avg_target_similarity


def tiny_teacher():
    cfg = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=256, hash_seed=101)
    return make_teacher(cfg, 16, weight_seed=101)


def tiny_targets(n=80, seed=11):
    spec = CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7)
    return [t for _, t in gen_cipher_corpus(spec, n, seed)]


# --- the replay oracle's avg_target_similarity --------------------------------


def test_avg_similarity_known_values():
    k = np.array([1.0, 0.0])
    copies = NegativeQueue(4, np.tile(k, (3, 1)))
    assert avg_target_similarity(k, copies) == 1.0
    orthogonal = NegativeQueue(4, np.tile([0.0, 1.0], (3, 1)))
    assert avg_target_similarity(k, orthogonal) == 0.0
    mixed = NegativeQueue(4, np.array([[0.6, 0.8], [0.0, 1.0]]))
    assert avg_target_similarity(k, mixed) == pytest.approx(0.3, abs=1e-15)


def test_avg_similarity_empty_queue_raises():
    with pytest.raises(ValueError, match="queue is empty"):
        avg_target_similarity(np.array([1.0, 0.0]), NegativeQueue.empty(4, 2))


# --- cosine_histogram ---------------------------------------------------------


def test_histogram_covers_unit_interval_inclusively():
    hist = cosine_histogram([-1.0, -0.5, 0.0, 0.5, 1.0], bins=4)
    assert isinstance(hist, Histogram)
    assert hist.counts.tolist() == [1, 1, 1, 2]  # +1.0 falls in the last bin
    assert hist.total == 5
    assert hist.edges[0] == -1.0 and hist.edges[-1] == 1.0
    assert len(hist.edges) == 5


def test_histogram_counts_sum_to_input_size():
    rng = np.random.default_rng(3)
    values = rng.uniform(-1.0, 1.0, size=500)
    hist = cosine_histogram(values)
    assert hist.total == 500
    assert len(hist.counts) == 40


def test_histogram_rejects_bad_bins():
    with pytest.raises(ValueError):
        cosine_histogram([0.0], bins=0)


# --- similarity_values / similarity_distribution -------------------------------


def sim_cfg(**overrides):
    base = dict(batch_size=16, queue_size=64, rng_seed=9, shuffle=True)
    base.update(overrides)
    return TrainConfig(**base)


def test_similarity_values_excludes_only_the_warm_up_batch():
    targets = tiny_targets(80)
    vals = similarity_values(targets, tiny_teacher(), sim_cfg())
    assert vals.shape == (80 - 16,)
    assert ((-1.0 <= vals) & (vals <= 1.0)).all()


def test_similarity_values_deterministic_and_seed_sensitive():
    targets = tiny_targets(60)
    teacher = tiny_teacher()
    a = similarity_values(targets, teacher, sim_cfg())
    b = similarity_values(targets, teacher, sim_cfg())
    c = similarity_values(targets, teacher, sim_cfg(rng_seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_similarity_values_constant_corpus_is_all_ones():
    targets = ["nn oo"] * 40
    vals = similarity_values(targets, tiny_teacher(), sim_cfg(batch_size=8))
    assert vals.shape == (32,)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_similarity_values_match_queue_replay_oracle():
    # replay the documented dynamics by hand with NegativeQueue and
    # avg_target_similarity, in corpus order (shuffle off)
    targets = tiny_targets(48)
    teacher = tiny_teacher()
    cfg = sim_cfg(shuffle=False, batch_size=8, queue_size=16)
    got = similarity_values(targets, teacher, cfg)

    from bitextkit.encoder import encode
    from bitextkit.filtering import count_tokens
    from bitextkit.trainer import batch_indices, queue_update

    order = batch_indices([count_tokens(t) for t in targets], cfg, np.random.default_rng(0))
    queue = NegativeQueue.empty(16, teacher.dim)
    expected = []
    for batch in order:
        emb = np.stack([encode(teacher, targets[i]) for i in batch])
        if queue.size:
            expected.extend(avg_target_similarity(e, queue) for e in emb)
        queue = queue_update(queue, emb)
    assert got == pytest.approx(expected, abs=1e-12)


def test_shuffled_similarity_values_score_the_queues_training_steps_see(monkeypatch):
    # epoch 1 of a shuffled training run: each step's targets against the
    # queue train_distill hands that step, bit for bit
    from bitextkit import trainer

    pairs = gen_cipher_corpus(CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7), 75, 11)
    teacher = tiny_teacher()
    cfg = sim_cfg(batch_size=8, queue_size=20, epochs=2)
    seen = []
    step_core = trainer._step_core

    def recording(W, feats, k, queue, *rest):
        seen.append((k.copy(), queue.copy()))
        return step_core(W, feats, k, queue, *rest)

    monkeypatch.setattr(trainer, "_step_core", recording)
    trainer.train_distill(pairs, teacher, cfg)
    assert len(seen) == 2 * 10
    epoch1 = [np.clip(t @ q.T, -1.0, 1.0).mean(axis=1) for t, q in seen[:10] if q.shape[0]]
    assert [q.shape[0] for _, q in seen[:4]] == [0, 8, 16, 20]
    got = similarity_values([t for _, t in pairs], teacher, cfg)
    assert got.shape == (75 - 8,)
    assert np.array_equal(got, np.concatenate(epoch1))
    # the queue window is read whatever the negatives mode
    in_batch = replace(cfg, negatives_source="in_batch")
    assert np.array_equal(similarity_values([t for _, t in pairs], teacher, in_batch), got)


def test_similarity_distribution_wraps_values_into_histogram():
    targets = tiny_targets(60)
    teacher = tiny_teacher()
    cfg = sim_cfg()
    hist = similarity_distribution(targets, teacher, cfg, bins=10)
    assert isinstance(hist, Histogram)
    assert hist.total == len(similarity_values(targets, teacher, cfg))
    assert len(hist.counts) == 10


def test_similarity_values_leave_teacher_untouched():
    teacher = tiny_teacher()
    before = teacher.weights.copy()
    similarity_values(tiny_targets(40), teacher, sim_cfg())
    assert np.array_equal(teacher.weights, before)


# --- threshold_sweep ------------------------------------------------------------


def sweep_fixture():
    spec = CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7)
    train_pairs = gen_cipher_corpus(spec, 128, seed=21)
    eval_pairs = gen_cipher_corpus(spec, 40, seed=22)
    teacher = tiny_teacher()
    cfg = TrainConfig(
        temperature=0.1,
        queue_size=64,
        batch_size=16,
        step_size=0.3,
        epochs=2,
        rng_seed=5,
    )
    return train_pairs, eval_pairs, teacher, cfg


def test_sweep_rows_match_direct_training():
    train_pairs, eval_pairs, teacher, cfg = sweep_fixture()
    search = SearchConfig(k=2, margin_kind="ratio")
    rows = threshold_sweep(train_pairs, teacher, cfg, [0.7], eval_pairs, search)
    assert len(rows) == 1
    row = rows[0]
    assert row.sigma == 0.7 and row.seed == cfg.rng_seed

    from dataclasses import replace

    from bitextkit.encoder import encode_batch
    from bitextkit.margin import xsim_error_rate
    from bitextkit.trainer import train_distill

    direct_cfg = replace(cfg, filter_threshold=0.7, prefilter_enabled=True)
    direct = train_distill(train_pairs, teacher, direct_cfg)
    src = encode_batch(direct.student, [s for s, _ in eval_pairs])
    tgt = encode_batch(teacher, [t for _, t in eval_pairs])
    assert row.error_rate == xsim_error_rate(src, tgt, search)
    assert row.kept_fraction == direct.kept_fraction
    assert 0.0 <= row.error_rate <= 100.0
    assert 0.0 < row.kept_fraction <= 1.0


def test_sweep_preserves_sigma_order_and_isolates_failures(tmp_path):
    train_pairs, eval_pairs, teacher, cfg = sweep_fixture()
    # an empty evaluation source cannot be encoded: that threshold's row
    # must come back NaN while the others stay healthy
    broken_eval = [("", eval_pairs[0][1])] + eval_pairs[1:]
    logged = []
    rows = threshold_sweep(
        train_pairs, teacher, cfg, [0.9, 0.5], broken_eval, log_fn=logged.append
    )
    assert [r.sigma for r in rows] == [0.9, 0.5]
    assert all(math.isnan(r.error_rate) for r in rows)
    assert any("failed" in line for line in logged)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows, comments=["broken eval"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# broken eval"
    for line, sigma in zip(lines[1:3], ("0.9", "0.5")):
        assert line.startswith(f"# sigma={sigma} failed: ZeroVectorError: ")
    assert lines[3] == "sigma,error_rate,kept_fraction,seed"

    healthy = threshold_sweep(train_pairs, teacher, cfg, [0.9, 1.5], eval_pairs)
    assert all(math.isfinite(r.error_rate) for r in healthy)
    # sigma 1.5 keeps every negative by construction
    assert healthy[1].kept_fraction == 1.0


def test_sweep_propagates_programming_errors(monkeypatch):
    train_pairs, eval_pairs, teacher, cfg = sweep_fixture()

    def broken(*args, **kwargs):
        raise TypeError("bad call")

    monkeypatch.setattr(analysis, "train_distill", broken)
    with pytest.raises(TypeError, match="bad call"):
        threshold_sweep(train_pairs, teacher, cfg, [0.9], eval_pairs)


def test_sweep_records_a_corpus_too_small_to_train_as_failed_rows():
    train_pairs, eval_pairs, teacher, cfg = sweep_fixture()
    # one batch of 16 pairs only fills the queue: no epoch has a loss step
    rows = threshold_sweep(train_pairs[:16], teacher, cfg, [0.5, 0.9], eval_pairs)
    assert [r.sigma for r in rows] == [0.5, 0.9]
    for row in rows:
        assert math.isnan(row.error_rate) and math.isnan(row.kept_fraction)
        assert row.failure.startswith("TooFewPairsError: 16 pairs ")


# --- CSV writers ----------------------------------------------------------------


def test_histogram_csv_format(tmp_path):
    hist = cosine_histogram([-1.0, 0.0, 1.0], bins=2)
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, hist, shuffle=True, comments=["run A"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# total=3 shuffle=1"
    assert lines[1] == "# run A"
    assert lines[2] == "bin_lo,bin_hi,count"
    assert lines[3] == "-1.000000,0.000000,1"
    assert lines[4] == "0.000000,1.000000,2"
    write_histogram_csv(path, hist, shuffle=False)
    assert path.read_text().splitlines()[0] == "# total=3 shuffle=0"


def test_csv_writers_refuse_a_comment_that_would_read_as_data(tmp_path):
    hist = cosine_histogram([-1.0, 0.0, 1.0], bins=2)
    with pytest.raises(ValueError, match="^comment: must not contain a tab or line break$"):
        write_histogram_csv(tmp_path / "hist.csv", hist, shuffle=True, comments=["bins=2\n"])
    with pytest.raises(ValueError, match="^comment: must not contain a tab or line break$"):
        write_sweep_csv(tmp_path / "sweep.csv", [SweepRow(0.5, 1.0, 0.5, 7)], comments=["a\tb"])
    assert list(tmp_path.iterdir()) == []


def test_histogram_csv_parses_back(tmp_path):
    rng = np.random.default_rng(7)
    hist = cosine_histogram(rng.uniform(-1, 1, size=200), bins=8)
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, hist, shuffle=False)
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if not line.startswith("#") and not line.startswith("bin_lo")
    ]
    counts = [int(r[2]) for r in rows]
    assert counts == hist.counts.tolist()
    assert sum(counts) == 200
    los = [float(r[0]) for r in rows]
    his = [float(r[1]) for r in rows]
    assert los[0] == -1.0 and his[-1] == 1.0
    assert los[1:] == his[:-1]


def test_sweep_csv_format(tmp_path):
    rows = [
        SweepRow(0.5, 12.5, 0.25, 7),
        SweepRow(1.5, 0.0, 1.0, 7),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows, comments=["sweep of two"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# sweep of two"
    assert lines[1] == "sigma,error_rate,kept_fraction,seed"
    assert lines[2] == "0.5,12.500000,0.250000,7"
    assert lines[3] == "1.5,0.000000,1.000000,7"
