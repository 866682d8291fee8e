"""The README round trip (steps 1-5) through the library on a target side
written in Ge'ez, whose letters take 3 UTF-8 bytes each: corpora through
TSV files, distillation with the acceptance configuration, held-out
alignment error through EMB1 files, and noise capture by score_corpus."""

from dataclasses import replace

import numpy as np
import pytest

from bitextkit.embfile import read_embeddings, write_embeddings
from bitextkit.encoder import encode_batch, load_encoder, save_encoder
from bitextkit.filtering import (
    read_pairs_tsv,
    score_corpus,
    select_by_token_budget,
    write_pairs_tsv,
)
from bitextkit.margin import xsim_error_rate
from bitextkit.synth import gen_cipher_corpus, inject_noise
from bitextkit.trainer import train_distill

from conftest import CIPHER_SPEC, distill_config

GEEZ = "ሀለሐመሠረ"  # U+1200, U+1208, U+1210, U+1218, U+1220, U+1228
SPEC = replace(CIPHER_SPEC, target_alphabet=GEEZ)


@pytest.fixture(scope="module")
def geez_run(tmp_path_factory, teacher, student_init):
    """Steps 1-3: TSV corpora, the teacher through its files, a student."""
    tmp = tmp_path_factory.mktemp("geez")
    write_pairs_tsv(tmp / "train.tsv", gen_cipher_corpus(SPEC, 5000, seed=11))
    write_pairs_tsv(tmp / "held.tsv", gen_cipher_corpus(SPEC, 500, seed=12))
    save_encoder(teacher, tmp / "teacher.emb")
    teacher = load_encoder(tmp / "teacher.emb")
    train = read_pairs_tsv(tmp / "train.tsv")
    student = train_distill(train, teacher, distill_config(), student_init=student_init).student
    return tmp, teacher, student


def test_geez_corpus_is_three_bytes_a_letter():
    pairs = gen_cipher_corpus(SPEC, 50, seed=11)
    for _, target in pairs:
        letters = target.replace(" ", "")
        assert set(letters) <= set(GEEZ)
        assert len(letters.encode("utf-8")) == 3 * len(letters)


def test_geez_held_out_error(geez_run, student_init, search_cfg):
    # step 4: both sides embedded through EMB1 files, then xsim
    tmp, teacher, student = geez_run
    held = read_pairs_tsv(tmp / "held.tsv")
    sources = [s for s, _ in held]
    write_embeddings(tmp / "held.tgt.emb", encode_batch(teacher, [t for _, t in held]))
    targets = read_embeddings(tmp / "held.tgt.emb")
    err_init = xsim_error_rate(encode_batch(student_init, sources), targets, search_cfg)
    write_embeddings(tmp / "held.src.emb", encode_batch(student, sources))
    err = xsim_error_rate(read_embeddings(tmp / "held.src.emb"), targets, search_cfg)
    assert err_init >= 50.0
    assert err <= 5.0
    print(f"[ge'ez] held-out error init {err_init:.1f}% >= 50%, trained {err:.1f}% <= 5%")


def test_geez_noise_sinks_to_the_bottom(geez_run, search_cfg):
    # step 5, at criterion 9's bar
    _, teacher, student = geez_run
    noisy = inject_noise(gen_cipher_corpus(SPEC, 1200, seed=31), rate=0.30, seed=32)
    scored = score_corpus(noisy.pairs, student, teacher, search_cfg)
    order = np.argsort([-p.score for p in scored], kind="stable")
    n_noise = noisy.noise_count
    hits = len(set(order[-n_noise:].tolist()) & set(np.flatnonzero(noisy.labels).tolist()))
    assert hits >= 0.8 * n_noise
    rng = np.random.default_rng(99)
    for budget in rng.integers(0, 3000, size=100).tolist():
        assert sum(p.target_tokens for p in select_by_token_budget(scored, budget)) <= budget
    print(f"[ge'ez] {hits}/{n_noise} injected misalignments in the bottom {n_noise} scores")
