"""CLI tests: exit codes, config precedence, artifact round trips, and
the guaranteed absence of partial outputs on failure."""

import struct

import numpy as np
import pytest

from bitextkit.cli import load_config, main
from bitextkit.embfile import read_embeddings, write_embeddings
from bitextkit.encoder import FeaturizerConfig, encode_batch, load_encoder, make_teacher, save_encoder
from bitextkit.errors import ConfigError
from bitextkit.filtering import read_pairs_tsv, write_pairs_tsv
from bitextkit.synth import CipherSpec, gen_cipher_corpus, inject_noise


@pytest.fixture
def teacher_file(tmp_path):
    cfg = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=256, hash_seed=101)
    teacher = make_teacher(cfg, 16, weight_seed=101)
    path = tmp_path / "teacher.emb"
    save_encoder(teacher, path)
    return str(path), teacher


@pytest.fixture
def corpus_file(tmp_path):
    spec = CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7)
    pairs = gen_cipher_corpus(spec, 48, seed=11)
    path = tmp_path / "corpus.tsv"
    write_pairs_tsv(path, pairs)
    return str(path), pairs


# --- exit codes ----------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "bitextkit" in capsys.readouterr().out


def test_bare_group_commands_are_usage_errors(capsys):
    assert main(["analyze"]) == 1
    assert main(["gen-synth"]) == 1


def test_unknown_flag_and_missing_required(capsys):
    assert main(["embed", "--nope"]) == 1
    assert main(["embed"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_invalid_option_value(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    out = str(tmp_path / "student.emb")
    code = main(
        ["train", "--corpus", corpus, "--teacher", teacher, "--out", out, "--tau", "0"]
    )
    assert code == 1
    assert "tau" in capsys.readouterr().err


def test_threads_flag_only_where_it_is_used(tmp_path, corpus_file, teacher_file, capsys):
    # embed no longer reads --threads, so it must not accept (and ignore) it
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    out = tmp_path / "x.emb"
    for threads in ("2", "abc"):
        argv = ["embed", "--input", corpus, "--encoder", teacher, "--out", str(out)]
        assert main(argv + ["--threads", threads]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = main(
        [
            "embed",
            "--input",
            str(tmp_path / "absent.tsv"),
            "--encoder",
            str(tmp_path / "absent.emb"),
            "--out",
            str(tmp_path / "o.emb"),
        ]
    )
    assert code == 2
    assert "io error" in capsys.readouterr().err


def test_malformed_corpus_reports_line(tmp_path, teacher_file, capsys):
    teacher, _ = teacher_file
    bad = tmp_path / "bad.tsv"
    bad.write_text("ok\tpair\nmissing tab\n")
    out = str(tmp_path / "student.emb")
    code = main(["train", "--corpus", str(bad), "--teacher", teacher, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "format error" in err and "line 2" in err
    assert not (tmp_path / "student.emb").exists()  # no partial artifact


def test_bad_embedding_file_is_format_error(tmp_path, capsys):
    junk = tmp_path / "junk.emb"
    junk.write_bytes(b"JUNK" + b"\x00" * 12)
    code = main(
        ["xsim-eval", "--src", str(junk), "--tgt", str(junk), "--k", "1"]
    )
    assert code == 2
    assert "format error" in capsys.readouterr().err


def test_huge_declared_row_count_is_format_error(tmp_path, capsys):
    # the header promises 2**60 rows; nothing may be read or allocated for them
    huge = tmp_path / "huge.emb"
    huge.write_bytes(struct.pack("<4sIQ", b"EMB1", 4, 2**60) + b"\x00" * 32)
    code = main(["xsim-eval", "--src", str(huge), "--tgt", str(huge), "--k", "1"])
    assert code == 2
    assert "format error" in capsys.readouterr().err


def test_non_finite_embedding_is_format_error(tmp_path, capsys):
    src, tgt = tmp_path / "s.emb", tmp_path / "t.emb"
    write_embeddings(src, np.eye(3))
    write_embeddings(tgt, np.eye(3))
    raw = bytearray(tgt.read_bytes())
    raw[16:20] = struct.pack("<f", float("nan"))
    tgt.write_bytes(bytes(raw))
    code = main(["xsim-eval", "--src", str(src), "--tgt", str(tgt), "--k", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "format error" in captured.err
    assert "error_rate" not in captured.out


def test_malformed_sidecar_is_format_error(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    meta = tmp_path / "teacher.emb.meta"
    header = meta.read_text(encoding="utf-8")
    out = tmp_path / "x.emb"
    for bad in (header.replace("frozen=1", "frozen=2"), "# no header\n"):
        meta.write_text(bad, encoding="utf-8")
        code = main(["embed", "--input", corpus, "--encoder", teacher, "--out", str(out)])
        assert code == 2
        assert "format error" in capsys.readouterr().err
        assert not out.exists()


def test_ratio_zero_denominator_is_numerical_error(tmp_path, capsys):
    src = np.eye(4)[:2]
    tgt = np.eye(4)[2:]
    src_path, tgt_path = str(tmp_path / "s.emb"), str(tmp_path / "t.emb")
    write_embeddings(src_path, src)
    write_embeddings(tgt_path, tgt)
    code = main(
        ["xsim-eval", "--src", src_path, "--tgt", tgt_path, "--k", "2", "--margin", "ratio"]
    )
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_k_too_large_is_numerical_error(tmp_path, capsys):
    path = str(tmp_path / "e.emb")
    write_embeddings(path, np.eye(3))
    assert main(["xsim-eval", "--src", path, "--tgt", path, "--k", "5"]) == 3
    assert "numerical error" in capsys.readouterr().err


# --- config file handling -------------------------------------------------------


def test_load_config_parses_and_validates(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nsigma = 0.7\nepochs=3\n")
    assert load_config(cfg) == {"sigma": "0.7", "epochs": "3"}
    cfg.write_text("no_such_key=1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(cfg)
    cfg.write_text("just words\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        load_config(cfg)


def test_flags_override_config_file(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma=0.7\nepochs=0\nqueue_size=32\n")
    out = str(tmp_path / "student.emb")
    code = main(
        [
            "train",
            "--corpus",
            corpus,
            "--teacher",
            teacher,
            "--out",
            out,
            "--config",
            str(cfg),
            "--sigma",
            "0.9",
        ]
    )
    assert code == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo.startswith("config: ")
    assert "sigma=0.9" in echo  # flag wins
    assert "epochs=0" in echo  # file beats default
    assert "queue_size=32" in echo
    assert "tau=0.05" in echo  # untouched default


def test_config_echo_is_sorted(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    out = str(tmp_path / "emb.emb")
    assert main(["embed", "--input", corpus, "--encoder", teacher, "--out", out]) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo == "config: format=tsv seed=0 side=source"


# --- gen-synth -------------------------------------------------------------------


def test_gen_cipher_round_trips(tmp_path, capsys):
    out = tmp_path / "cipher.tsv"
    code = main(
        [
            "gen-synth",
            "cipher",
            "--out",
            str(out),
            "--pairs",
            "25",
            "--vocab-size",
            "30",
            "--min-len",
            "1",
            "--max-len",
            "6",
            "--map-seed",
            "7",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    spec = CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7)
    assert read_pairs_tsv(out) == gen_cipher_corpus(spec, 25, seed=11)
    first = out.read_text().splitlines()[0]
    assert first.startswith("# config: ")


def test_gen_noise_matches_library(tmp_path, corpus_file):
    corpus, pairs = corpus_file
    out = tmp_path / "noisy.tsv"
    labels = tmp_path / "labels.txt"
    code = main(
        [
            "gen-synth",
            "noise",
            "--corpus",
            corpus,
            "--rate",
            "0.5",
            "--seed",
            "3",
            "--out",
            str(out),
            "--labels-out",
            str(labels),
        ]
    )
    assert code == 0
    expected = inject_noise(pairs, 0.5, seed=3)
    assert read_pairs_tsv(out) == expected.pairs
    flag_lines = [l for l in labels.read_text().splitlines() if not l.startswith("#")]
    assert [l == "1" for l in flag_lines] == expected.labels.tolist()


def test_gen_noise_too_few_pairs_is_numerical_error(tmp_path, capsys):
    corpus = tmp_path / "two.tsv"
    write_pairs_tsv(corpus, [("a", "n"), ("b", "o"), ("c", "p")])
    code = main(
        [
            "gen-synth",
            "noise",
            "--corpus",
            str(corpus),
            "--rate",
            "0.34",
            "--out",
            str(tmp_path / "noisy.tsv"),
        ]
    )
    assert code == 3  # floor(0.34 * 3) == 1, not derangeable
    assert not (tmp_path / "noisy.tsv").exists()


# --- embed ----------------------------------------------------------------------


def test_embed_tsv_matches_encode_batch(tmp_path, corpus_file, teacher_file):
    corpus, pairs = corpus_file
    teacher_path, teacher = teacher_file
    out = str(tmp_path / "tgt.emb")
    code = main(
        ["embed", "--input", corpus, "--encoder", teacher_path, "--out", out, "--side", "target"]
    )
    assert code == 0
    got = read_embeddings(out)
    # the CLI works with the float32-quantized teacher it loaded from disk
    loaded = load_encoder(teacher_path)
    want = encode_batch(loaded, [t for _, t in pairs]).astype(np.float32)
    assert np.array_equal(got, want)


def test_embed_lines_format(tmp_path, teacher_file):
    teacher_path, _ = teacher_file
    lines = tmp_path / "sents.txt"
    lines.write_text("aabb\nccdd\n\neeff\n")
    out = str(tmp_path / "x.emb")
    code = main(
        ["embed", "--input", str(lines), "--encoder", teacher_path, "--out", out, "--format", "lines"]
    )
    assert code == 0
    assert read_embeddings(out).shape == (3, 16)  # the blank line is skipped


def test_embed_empty_sentence_is_numerical_error(tmp_path, teacher_file, capsys):
    teacher_path, _ = teacher_file
    corpus = tmp_path / "c.tsv"
    corpus.write_text("ok\t\n")
    out = tmp_path / "x.emb"
    code = main(
        ["embed", "--input", str(corpus), "--encoder", teacher_path, "--out", str(out), "--side", "target"]
    )
    assert code == 3
    assert "sentence 0" in capsys.readouterr().err
    assert not out.exists()


# --- train ----------------------------------------------------------------------


def train_args(corpus, teacher, out, **extra):
    args = [
        "train",
        "--corpus",
        corpus,
        "--teacher",
        teacher,
        "--out",
        out,
        "--queue-size",
        "32",
        "--batch-size",
        "16",
        "--epochs",
        "2",
        "--tau",
        "0.1",
        "--step-size",
        "0.3",
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    return args


def test_train_writes_student_meta_and_log(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    out = str(tmp_path / "student.emb")
    assert main(train_args(corpus, teacher_path, out)) == 0
    stdout = capsys.readouterr().out
    assert "epoch=1 loss=" in stdout and "epoch=2 loss=" in stdout
    student = load_encoder(out)
    assert student.dim == 16 and not student.frozen
    log_lines = (tmp_path / "student.emb.log").read_text().splitlines()
    assert log_lines[0].startswith("# config: ")
    assert log_lines[1].startswith("epoch=1 ")
    assert len(log_lines) == 3
    meta = (tmp_path / "student.emb.meta").read_text().splitlines()
    assert meta[0].startswith("dim=16 buckets=256 ")


def test_train_is_deterministic_at_the_byte_level(tmp_path, corpus_file, teacher_file):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    out1, out2 = str(tmp_path / "s1.emb"), str(tmp_path / "s2.emb")
    assert main(train_args(corpus, teacher_path, out1)) == 0
    assert main(train_args(corpus, teacher_path, out2)) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


# --- xsim-eval -------------------------------------------------------------------


def test_xsim_eval_identical_sets(tmp_path, capsys):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(10, 8))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    path = str(tmp_path / "m.emb")
    write_embeddings(path, m)
    report_out = tmp_path / "report.txt"
    code = main(
        [
            "xsim-eval",
            "--src",
            path,
            "--tgt",
            path,
            "--k",
            "2",
            "--margin",
            "absolute",
            "--out",
            str(report_out),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "n=10 k=2 margin=absolute errors=0 error_rate=0.00" in out
    saved = report_out.read_text().splitlines()
    assert saved[0].startswith("# config: ")
    assert saved[1] == "n=10 k=2 margin=absolute errors=0 error_rate=0.00"


# --- filter ----------------------------------------------------------------------


def filter_args(corpus, encoder, **named):
    args = [
        "filter",
        "--corpus",
        corpus,
        "--student",
        encoder,
        "--teacher",
        encoder,
        "--k",
        "2",
    ]
    for key, value in named.items():
        flag = f"--{key.replace('_', '-')}"
        if isinstance(value, list):
            for item in value:
                args += [flag, item]
        else:
            args += [flag, value]
    return args


def test_filter_scored_output_is_sorted(tmp_path, corpus_file, teacher_file):
    corpus, pairs = corpus_file
    teacher_path, _ = teacher_file
    scored_out = tmp_path / "scored.tsv"
    code = main(filter_args(corpus, teacher_path, scored_out=str(scored_out)))
    assert code == 0
    rows = [
        line.split("\t")
        for line in scored_out.read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(rows) == len(pairs)
    scores = [float(r[0]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert {(r[1], r[2]) for r in rows} == set(pairs)


def test_filter_budget_subsets_nest_and_respect_budget(tmp_path, corpus_file, teacher_file):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    subset_tpl = str(tmp_path / "subset_{budget}.tsv")
    code = main(
        filter_args(corpus, teacher_path, subset_out=subset_tpl, budget=["10", "30"])
    )
    assert code == 0
    small = read_pairs_tsv(tmp_path / "subset_10.tsv")
    large = read_pairs_tsv(tmp_path / "subset_30.tsv")
    assert sum(len(t.split()) for _, t in small) <= 10
    assert sum(len(t.split()) for _, t in large) <= 30
    assert small == large[: len(small)]
    note = (tmp_path / "subset_10.tsv").read_text().splitlines()[1]
    assert note.startswith("# budget=10 selected=")


def test_filter_usage_errors(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    assert main(filter_args(corpus, teacher_path)) == 1  # nothing to do
    assert (
        main(filter_args(corpus, teacher_path, budget=["5"])) == 1
    )  # budget without subset-out
    assert (
        main(
            filter_args(
                corpus,
                teacher_path,
                subset_out=str(tmp_path / "fixed.tsv"),
                budget=["5", "9"],
            )
        )
        == 1
    )  # several budgets, no {budget} placeholder
    err = capsys.readouterr().err
    assert "usage error" in err


# --- analyze ---------------------------------------------------------------------


def test_analyze_hist_writes_csv(tmp_path, corpus_file, teacher_file, capsys):
    corpus, pairs = corpus_file
    teacher_path, _ = teacher_file
    out = tmp_path / "hist.csv"
    code = main(
        [
            "analyze",
            "hist",
            "--corpus",
            corpus,
            "--teacher",
            teacher_path,
            "--out",
            str(out),
            "--bins",
            "10",
            "--batch-size",
            "16",
            "--queue-size",
            "32",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# total={len(pairs) - 16} shuffle=1"
    assert lines[1].startswith("# config: ")
    assert lines[2] == "bin_lo,bin_hi,count"
    assert len(lines) == 3 + 10


def test_analyze_sweep_writes_csv(tmp_path, corpus_file, teacher_file):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    spec = CipherSpec(vocab_size=30, min_len=1, max_len=6, map_seed=7)
    eval_path = tmp_path / "eval.tsv"
    write_pairs_tsv(eval_path, gen_cipher_corpus(spec, 20, seed=12))
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "analyze",
            "sweep",
            "--corpus",
            corpus,
            "--eval-corpus",
            str(eval_path),
            "--teacher",
            teacher_path,
            "--out",
            str(out),
            "--sigmas",
            "0.9,1.5",
            "--queue-size",
            "32",
            "--batch-size",
            "16",
            "--epochs",
            "1",
            "--tau",
            "0.1",
            "--step-size",
            "0.3",
            "--k",
            "2",
        ]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "sigma,error_rate,kept_fraction,seed"
    assert len(lines) == 3
    assert lines[1].startswith("0.9,")
    assert lines[2].startswith("1.5,")
    kept = float(lines[2].split(",")[2])
    assert kept == 1.0  # sigma 1.5 keeps every negative
