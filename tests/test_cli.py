"""CLI tests: exit codes, config precedence, artifact round trips, the
guaranteed absence of partial outputs on failure, and fuzzed sidecar
headers, config files, EMB1 files and TSV corpora that must never raise."""

import argparse
import contextlib
import io
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.analysis import DEFAULT_BINS, cosine_histogram
from bitextkit.cli import (
    OPTIONS,
    _resolve,
    _search_config,
    _train_config,
    build_parser,
    load_config,
    main,
)
from bitextkit.embfile import read_embeddings, write_embeddings
from bitextkit.encoder import FeaturizerConfig, encode_batch, load_encoder, make_teacher, save_encoder
from bitextkit.errors import ConfigError
from bitextkit.filtering import read_pairs_tsv, select_by_token_budget, write_pairs_tsv
from bitextkit.margin import SearchConfig
from bitextkit.synth import CipherSpec, gen_cipher_corpus, inject_noise
from bitextkit.trainer import TrainConfig


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


def test_threads_flag_is_rejected_everywhere(tmp_path, corpus_file, teacher_file, capsys):
    # margin search runs serially, so no subcommand takes (and ignores) --threads
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    for path in SURFACE:
        argv = list(path) + _minimal_argv(path, tmp_path, corpus, teacher)
        assert main(argv + ["--threads", "2"]) == 1, path
        err = capsys.readouterr().err
        assert err == "usage error: unrecognized arguments: --threads 2\n", path
        assert not (tmp_path / "out").exists()


def test_threads_config_key_is_unknown(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("k=2\nthreads=2\n")
    argv = _required_args(["filter"], tmp_path) + ["--config", str(config)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {config}:2: unknown key 'threads'\n"


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
    # an order beyond int64 would overflow in the hashing, and Python
    # refuses to convert integers of more than 4,300 digits
    beyond_int64 = header.replace("orders=2,3", f"orders=2,{2**63}")
    too_many_digits = header.replace("dim=16", "dim=" + "9" * 5000)
    for bad in (
        header.replace("frozen=1", "frozen=2"),
        "# no header\n",
        beyond_int64,
        too_many_digits,
    ):
        meta.write_text(bad, encoding="utf-8")
        code = main(["embed", "--input", corpus, "--encoder", teacher, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"format error: {meta}: ") and err.count("\n") == 1, err
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


@pytest.mark.parametrize("empty", ["src", "tgt", "both"])
def test_empty_evaluation_file_is_numerical_error_naming_it(tmp_path, capsys, empty):
    paths = {side: str(tmp_path / f"{side}.emb") for side in ("src", "tgt")}
    for side, path in paths.items():
        rows = 0 if empty in (side, "both") else 3
        write_embeddings(path, np.eye(3)[:rows])
    code = main(["xsim-eval", "--src", paths["src"], "--tgt", paths["tgt"], "--k", "1"])
    assert code == 3
    named = paths["tgt" if empty == "tgt" else "src"]
    assert capsys.readouterr().err == (
        f"numerical error: {named}: no embeddings to evaluate (0 rows)\n"
    )


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


def test_load_config_skips_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufefftau=0.1\nepochs=3\n", encoding="utf-8")
    assert load_config(cfg) == {"tau": "0.1", "epochs": "3"}
    cfg.write_text("\ufeff# a comment\nepochs=x\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg))}:2: epochs: "):
        load_config(cfg)


def test_option_defaults_are_the_library_defaults():
    # OPTIONS repeats these defaults as text; a change on either side shows here
    default = {key: convert(text, key) for key, (convert, text, _) in OPTIONS.items()}
    assert _train_config(default) == TrainConfig()
    assert _search_config(default) == SearchConfig()
    cipher = ("vocab_size", "min_len", "max_len", "map_seed")
    assert CipherSpec(**{key: default[key] for key in cipher}) == CipherSpec()
    assert default["bins"] == DEFAULT_BINS


_TINY = math.ulp(0.0)  # the least positive float

# key, the subcommand that reads it, the library call that checks the same
# value, then pairs of (the library's boundary value, the next value out)
BOUNDS = [
    ("tau", ["train"], lambda v: TrainConfig(temperature=v), [(_TINY, 0.0)]),
    (
        "sigma",
        ["train"],
        lambda v: TrainConfig(filter_threshold=v),
        [(_TINY, 0.0), (1.5, math.nextafter(1.5, 2))],
    ),
    (
        "sigmas",
        ["analyze", "sweep"],
        lambda v: TrainConfig(filter_threshold=v),
        [(_TINY, 0.0), (1.5, math.nextafter(1.5, 2))],
    ),
    ("queue_size", ["train"], lambda v: TrainConfig(queue_size=v), [(1, 0)]),
    ("batch_size", ["train"], lambda v: TrainConfig(batch_size=v), [(1, 0)]),
    ("epochs", ["train"], lambda v: TrainConfig(epochs=v), [(0, -1)]),
    ("step_size", ["train"], lambda v: TrainConfig(step_size=v), [(0.0, -_TINY)]),
    ("seed", ["train"], lambda v: TrainConfig(rng_seed=v), [(0, -1)]),
    ("k", ["xsim-eval"], lambda v: SearchConfig(k=v), [(1, 0)]),
    ("bins", ["analyze", "hist"], lambda v: cosine_histogram([0.0], bins=v), [(1, 0)]),
    ("vocab_size", ["gen-synth", "cipher"], lambda v: CipherSpec(vocab_size=v), [(2, 1)]),
    ("min_len", ["gen-synth", "cipher"], lambda v: CipherSpec(min_len=v), [(1, 0)]),
    ("max_len", ["gen-synth", "cipher"], lambda v: CipherSpec(max_len=v), [(1, 0)]),
    ("map_seed", ["gen-synth", "cipher"], lambda v: CipherSpec(map_seed=v), [(0, -1)]),
    ("pairs", ["gen-synth", "cipher"], lambda v: gen_cipher_corpus(CipherSpec(), v, 0), [(0, -1)]),
    (
        "rate",
        ["gen-synth", "noise"],
        lambda v: inject_noise([("a", "b"), ("c", "d")], v, 0),
        [(0.0, -_TINY), (1.0, math.nextafter(1.0, 2))],
    ),
    ("budget", ["filter"], lambda v: select_by_token_budget([], v), [(0, -1)]),
]


@pytest.mark.parametrize("key, command, library, cases", BOUNDS, ids=[b[0] for b in BOUNDS])
def test_option_bounds_are_the_library_bounds(tmp_path, capsys, key, command, library, cases):
    # the CLI takes the value the library takes at its bound and refuses,
    # before any input is read, the next value out, which the library refuses
    argv = _required_args(command, tmp_path) + ["--prefilter", "on"] * (key == "sigma")
    for inside, outside in cases:
        library(inside)
        with pytest.raises(ValueError):
            library(outside)
        for value, refused in ((inside, False), (outside, True)):
            code = main(argv + [f"{_flag(key)}={value!r}"])
            err = capsys.readouterr().err
            assert (code == 1) == refused == err.startswith(f"usage error: {key}: "), err


def test_flags_override_config_file(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma=0.7\nepochs=0\nqueue_size=32\nprefilter=on\n")
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
    assert echo == "config: format=tsv side=source"


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


def test_embed_lines_skips_a_byte_order_mark(tmp_path, teacher_file):
    teacher_path, _ = teacher_file
    lines = tmp_path / "sents.txt"
    lines.write_text("\ufeffaabb\nccdd\n", encoding="utf-8")
    out = str(tmp_path / "x.emb")
    code = main(
        ["embed", "--input", str(lines), "--encoder", teacher_path, "--out", out, "--format", "lines"]
    )
    assert code == 0
    want = encode_batch(load_encoder(teacher_path), ["aabb", "ccdd"]).astype(np.float32)
    assert np.array_equal(read_embeddings(out), want)


def test_embed_lines_break_only_where_the_tsv_reader_breaks(tmp_path, teacher_file):
    # str.splitlines would also break at these, which read_pairs_tsv keeps
    teacher_path, _ = teacher_file
    lines = tmp_path / "sents.txt"
    lines.write_text("aa\u2028bb\x85cc\x0bdd\x0cee\x1cff\x1dgg\x1ehh\nccdd\r\n", encoding="utf-8")
    out = str(tmp_path / "x.emb")
    code = main(
        ["embed", "--input", str(lines), "--encoder", teacher_path, "--out", out, "--format", "lines"]
    )
    assert code == 0
    assert read_embeddings(out).shape == (2, 16)


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
    assert re.fullmatch(r"weights_sha256=[0-9a-f]{64}", log_lines[3])
    assert len(log_lines) == 4
    assert log_lines[3] in stdout.splitlines()
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
    log1, log2 = (tmp_path / "s1.emb.log"), (tmp_path / "s2.emb.log")
    assert log1.read_bytes() == log2.read_bytes()  # weights digest included


def test_train_sigma_flag_without_prefilter_is_usage_error(
    tmp_path, corpus_file, teacher_file, capsys
):
    # the threshold filters negatives only with the prefilter on; it used to
    # be ignored and the run gave the plain queue run's weights
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    out = tmp_path / "student.emb"
    assert main(train_args(corpus, teacher_path, str(out), sigma="0.3")) == 1
    assert capsys.readouterr().err == "usage error: --sigma is unused with --prefilter off\n"
    assert not out.exists()
    assert main(train_args(corpus, teacher_path, str(out), sigma="0.3", prefilter="on")) == 0


def test_train_config_sigma_without_prefilter_is_echoed_as_unused(
    tmp_path, corpus_file, teacher_file, capsys
):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    config = tmp_path / "run.cfg"
    config.write_text("sigma=0.3\n")
    out = str(tmp_path / "student.emb")
    assert main(train_args(corpus, teacher_path, out) + ["--config", str(config)]) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo.startswith("config: ")
    assert echo.endswith(" sigma=0.3 step_size=0.3 tau=0.1 unused=sigma")
    assert (tmp_path / "student.emb.log").read_text().splitlines()[0] == f"# {echo}"


def test_train_log_of_a_config_that_uses_sigma_is_unchanged(tmp_path, corpus_file, teacher_file):
    # the same settings from a config file and from flags write the same
    # log, whose echo names nothing as unused
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    config = tmp_path / "run.cfg"
    config.write_text("sigma=0.7\nprefilter=on\n")
    from_file, from_flags = str(tmp_path / "a.emb"), str(tmp_path / "b.emb")
    assert main(train_args(corpus, teacher_path, from_file) + ["--config", str(config)]) == 0
    assert main(train_args(corpus, teacher_path, from_flags, sigma="0.7", prefilter="on")) == 0
    log = (tmp_path / "a.emb.log").read_bytes()
    assert log == (tmp_path / "b.emb.log").read_bytes()
    assert log.startswith(
        b"# config: batch_size=16 epochs=2 negatives=queue prefilter=on queue_size=32 "
        b"seed=0 shuffle=on sigma=0.7 step_size=0.3 tau=0.1\n"
    )


def in_batch_args(corpus, teacher, out, **extra):
    """train_args with in-batch negatives and no --queue-size flag."""
    args = train_args(corpus, teacher, out, negatives="in-batch", **extra)
    at = args.index("--queue-size")
    return args[:at] + args[at + 2 :]


def test_train_queue_size_flag_with_in_batch_negatives_is_usage_error(
    tmp_path, corpus_file, teacher_file, capsys
):
    # in-batch negatives never read the queue; every size used to be
    # accepted and gave the same weights
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    out = tmp_path / "student.emb"
    assert main(in_batch_args(corpus, teacher_path, str(out), queue_size="64")) == 1
    err = capsys.readouterr().err
    assert err == "usage error: --queue-size is unused with --negatives in-batch\n"
    assert not out.exists()
    assert main(in_batch_args(corpus, teacher_path, str(out))) == 0


def test_train_config_queue_size_with_in_batch_negatives_is_echoed_as_unused(
    tmp_path, corpus_file, teacher_file, capsys
):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    config = tmp_path / "run.cfg"
    config.write_text("queue_size=64\n")
    with_file, without = str(tmp_path / "a.emb"), str(tmp_path / "b.emb")
    assert main(in_batch_args(corpus, teacher_path, with_file) + ["--config", str(config)]) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo.endswith(
        " queue_size=64 seed=0 shuffle=on sigma=0.9 step_size=0.3 tau=0.1 unused=queue_size"
    )
    log = (tmp_path / "a.emb.log").read_text().splitlines()
    assert log[0] == f"# {echo}"
    assert main(in_batch_args(corpus, teacher_path, without)) == 0
    assert log[-1] == (tmp_path / "b.emb.log").read_text().splitlines()[-1]  # weights


@pytest.mark.parametrize(
    "flag, value", [("step-size", "inf"), ("step-size", "nan"), ("tau", "inf"), ("sigma", "nan")]
)
def test_train_rejects_non_finite_numbers(tmp_path, corpus_file, teacher_file, capsys, flag, value):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    out = tmp_path / "student.emb"
    argv = train_args(corpus, teacher_path, str(out))
    assert main(argv + [f"--{flag}", value]) == 1
    assert "expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_non_finite_config_file_value(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    config = tmp_path / "train.cfg"
    config.write_text("step_size=inf\n")
    out = tmp_path / "student.emb"
    argv = ["train", "--corpus", corpus, "--teacher", teacher_path, "--out", str(out)]
    assert main(argv + ["--config", str(config)]) == 1
    assert "step_size: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_is_numerical_error(tmp_path, corpus_file, teacher_file, capsys):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    out = tmp_path / "student.emb"
    assert main(train_args(corpus, teacher_path, str(out), step_size="1e308")) == 3
    err = capsys.readouterr().err
    assert re.search(r"numerical error: epoch 1 step \d+: non-finite", err), err
    assert not out.exists() and not (tmp_path / "student.emb.log").exists()


@pytest.mark.parametrize("n_pairs", [0, 16], ids=["empty", "one-warm-up-batch"])
def test_train_on_a_corpus_without_a_loss_step_is_numerical_error(
    tmp_path, corpus_file, teacher_file, capsys, n_pairs
):
    _, pairs = corpus_file
    teacher_path, _ = teacher_file
    small = tmp_path / "small.tsv"
    write_pairs_tsv(small, pairs[:n_pairs])
    assert main(train_args(str(small), teacher_path, str(tmp_path / "student.emb"))) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        f"numerical error: {n_pairs} pairs leave an epoch without a loss step: "
        "queue negatives with batch_size=16 need at least 17\n"
    )
    assert "loss=" not in captured.out
    assert not list(tmp_path.glob("student.emb*"))


def test_train_refuses_an_unencodable_target_with_zero_epochs(
    tmp_path, corpus_file, teacher_file, capsys
):
    _, pairs = corpus_file
    teacher_path, _ = teacher_file
    pairs[7] = (pairs[7][0], "")
    corpus = tmp_path / "empty_target.tsv"
    write_pairs_tsv(corpus, pairs)
    out = tmp_path / "student.emb"
    assert main(train_args(str(corpus), teacher_path, str(out), epochs="0")) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical error: sentence 7: sentence has no features\n"
    assert not list(tmp_path.glob("student.emb*"))


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


def test_failed_run_echoes_its_config_before_the_error(tmp_path, teacher_file, capsys):
    # the options resolve, then the corpus is missing
    teacher_path, _ = teacher_file
    absent = str(tmp_path / "absent.tsv")
    argv = ["filter", "--corpus", absent, "--student", teacher_path, "--teacher", teacher_path]
    code = main(argv + ["--scored-out", str(tmp_path / "s.tsv"), "--k", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "config: k=2 margin=ratio\n"
    assert captured.err.startswith("io error: ") and absent in captured.err


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


def test_sweep_queue_size_flag_with_in_batch_negatives_is_usage_error(tmp_path, capsys):
    # rejected before any input is opened (the files do not exist), so no
    # student is trained
    argv = _required_args(["analyze", "sweep"], tmp_path)
    assert main(argv + ["--negatives", "in-batch", "--queue-size", "8"]) == 1
    assert capsys.readouterr().err == "usage error: --queue-size is unused with --negatives in-batch\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, extra, message",
    [
        (["analyze", "hist"], ["--shuffle", "off", "--seed", "3"], "--seed is unused with --shuffle off"),
        (["embed"], ["--format", "lines", "--side", "target"], "--side is unused with --format lines"),
        (["filter"], ["--scored-out", "scored.tsv"], "--subset-out requires --budget"),
    ],
    ids=["hist-seed", "embed-side", "filter-subset-out"],
)
def test_flag_the_run_would_not_read_is_usage_error(tmp_path, capsys, command, extra, message):
    # each used to be accepted and left unread: every hist seed wrote the
    # same CSV, both sides the same lines file, and filter no subset; the
    # input files do not exist, so the rejection comes before any is read
    assert main(_required_args(command, tmp_path) + extra) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_hist_config_seed_with_shuffle_off_is_echoed_as_unused(
    tmp_path, corpus_file, teacher_file, capsys
):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    config = tmp_path / "run.cfg"
    config.write_text("seed=3\nshuffle=off\n")
    argv = ["analyze", "hist", "--corpus", corpus, "--teacher", teacher_path, "--bins", "10"]
    assert main(argv + ["--out", str(tmp_path / "a.csv"), "--config", str(config)]) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo == "config: batch_size=32 bins=10 queue_size=4096 seed=3 shuffle=off unused=seed"
    assert main(argv + ["--out", str(tmp_path / "b.csv"), "--shuffle", "off"]) == 0
    counts = [(tmp_path / name).read_text().splitlines()[3:] for name in ("a.csv", "b.csv")]
    assert counts[0] == counts[1]


def test_sweep_config_queue_size_with_in_batch_negatives_is_echoed_as_unused(
    tmp_path, corpus_file, teacher_file, capsys
):
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    config = tmp_path / "run.cfg"
    config.write_text("queue_size=64\n")
    out = tmp_path / "sweep.csv"
    argv = [
        "analyze", "sweep", "--corpus", corpus, "--eval-corpus", corpus, "--teacher",
        teacher_path, "--out", str(out), "--sigmas", "1.5", "--negatives", "in-batch",
        "--batch-size", "16", "--config", str(config),
    ]
    assert main(argv) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo.startswith("config: ") and echo.endswith(" tau=0.05 unused=queue_size")
    assert f"# {echo}" in out.read_text().splitlines()


# --- CLI surface: accepted flags and resolved defaults per subcommand -------------

_COMMON_FLAGS = {"-h", "--help", "--config"}

# flags beyond the common ones, and the default ``config:`` echo, per leaf
# subcommand; only the subcommands that read a seed take --seed
SURFACE = {
    ("embed",): (
        {"--input", "--encoder", "--out", "--format", "--side"},
        "config: format=tsv side=source",
    ),
    ("train",): (
        {
            "--corpus",
            "--teacher",
            "--out",
            "--log",
            "--seed",
            "--tau",
            "--sigma",
            "--queue-size",
            "--batch-size",
            "--epochs",
            "--step-size",
            "--negatives",
            "--shuffle",
            "--prefilter",
        },
        "config: batch_size=32 epochs=1 negatives=queue prefilter=off queue_size=4096 "
        "seed=0 shuffle=on sigma=0.9 step_size=0.05 tau=0.05",
    ),
    ("xsim-eval",): (
        {"--src", "--tgt", "--out", "--k", "--margin"},
        "config: k=4 margin=ratio",
    ),
    ("filter",): (
        {
            "--corpus",
            "--student",
            "--teacher",
            "--scored-out",
            "--subset-out",
            "--budget",
            "--k",
            "--margin",
        },
        "config: k=4 margin=ratio",
    ),
    ("analyze", "hist"): (
        {
            "--corpus",
            "--teacher",
            "--out",
            "--seed",
            "--batch-size",
            "--queue-size",
            "--shuffle",
            "--bins",
        },
        "config: batch_size=32 bins=40 queue_size=4096 seed=0 shuffle=on",
    ),
    ("analyze", "sweep"): (
        {
            "--corpus",
            "--eval-corpus",
            "--teacher",
            "--out",
            "--seed",
            "--tau",
            "--queue-size",
            "--batch-size",
            "--epochs",
            "--step-size",
            "--negatives",
            "--shuffle",
            "--sigmas",
            "--k",
            "--margin",
        },
        "config: batch_size=32 epochs=1 k=4 margin=ratio negatives=queue queue_size=4096 "
        "seed=0 shuffle=on sigmas=0.5,0.7,0.9,1.5 step_size=0.05 tau=0.05",
    ),
    ("gen-synth", "cipher"): (
        {"--out", "--pairs", "--seed", "--vocab-size", "--min-len", "--max-len", "--map-seed"},
        "config: map_seed=0 max_len=12 min_len=1 seed=0 vocab_size=100",
    ),
    ("gen-synth", "noise"): (
        {"--corpus", "--rate", "--out", "--labels-out", "--seed"},
        "config: seed=0",
    ),
}


def _leaf_parsers(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaf_parsers(child, path + (name,))
            return
    yield path, parser


def test_every_leaf_subcommand_accepts_exactly_its_flags():
    leaves = dict(_leaf_parsers(build_parser()))
    assert set(leaves) == set(SURFACE)
    for path, parser in leaves.items():
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert flags == _COMMON_FLAGS | SURFACE[path][0], path


def _minimal_argv(path, tmp_path, corpus, teacher):
    emb = tmp_path / "e.emb"
    write_embeddings(emb, np.eye(6))
    out = str(tmp_path / "out")
    return {
        ("embed",): ["--input", corpus, "--encoder", teacher, "--out", out],
        ("train",): ["--corpus", corpus, "--teacher", teacher, "--out", out],
        ("xsim-eval",): ["--src", str(emb), "--tgt", str(emb)],
        ("filter",): [
            "--corpus", corpus, "--student", teacher, "--teacher", teacher, "--scored-out", out
        ],
        ("analyze", "hist"): ["--corpus", corpus, "--teacher", teacher, "--out", out],
        ("analyze", "sweep"): [
            "--corpus", corpus, "--eval-corpus", corpus, "--teacher", teacher, "--out", out
        ],
        ("gen-synth", "cipher"): ["--out", out, "--pairs", "3"],
        ("gen-synth", "noise"): ["--corpus", corpus, "--rate", "0.2", "--out", out],
    }[path]


@pytest.mark.parametrize("command", [["embed"], ["xsim-eval"], ["filter"]], ids=" ".join)
def test_seed_flag_is_rejected_where_no_seed_is_read(tmp_path, capsys, command):
    assert main(_required_args(command, tmp_path) + ["--seed", "3"]) == 1
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --seed 3\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", list(SURFACE), ids=" ".join)
def test_default_config_echo_per_subcommand(tmp_path, corpus_file, teacher_file, capsys, path):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    assert main(list(path) + _minimal_argv(path, tmp_path, corpus, teacher)) == 0
    echoes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("config: ")]
    assert echoes == [SURFACE[path][1]]


# --- option converters: one rejected value per key, as a flag and from a file ----

# (subcommand argv, key, bad value, message after "usage error: ")
REJECTIONS = [
    (["train"], "seed", "x", "seed: expected an integer, got 'x'"),
    (["train"], "tau", "0", "tau: must be > 0, got 0.0"),
    (["train"], "sigma", "abc", "sigma: expected a number, got 'abc'"),
    (["train"], "queue_size", "0", "queue_size: must be >= 1, got 0"),
    (["train"], "batch_size", "1.5", "batch_size: expected an integer, got '1.5'"),
    (["train"], "epochs", "-1", "epochs: must be >= 0, got -1"),
    (["train"], "step_size", "-0.5", "step_size: must be >= 0, got -0.5"),
    (["train"], "negatives", "memory", "negatives: expected 'queue' or 'in-batch', got 'memory'"),
    (["train"], "shuffle", "yes", "shuffle: expected 'on' or 'off', got 'yes'"),
    (["train"], "prefilter", "1", "prefilter: expected 'on' or 'off', got '1'"),
    (["analyze", "sweep"], "seed", "-1", "seed: must be >= 0, got -1"),
    (["xsim-eval"], "k", "0", "k: must be >= 1, got 0"),
    (
        ["xsim-eval"],
        "margin",
        "cosine",
        "margin: expected one of absolute, distance, ratio, got 'cosine'",
    ),
    (["analyze", "hist"], "bins", "0", "bins: must be >= 1, got 0"),
    (["analyze", "sweep"], "sigmas", " , ", "sigmas: expected a comma-separated list of numbers"),
    (["analyze", "sweep"], "sigmas", "0.5,x", "sigmas: expected a number, got 'x'"),
    (["embed"], "format", "csv", "format: expected one of tsv, lines, got 'csv'"),
    (["embed"], "side", "both", "side: expected one of source, target, got 'both'"),
    (["gen-synth", "cipher"], "vocab_size", "0", "vocab_size: must be >= 2, got 0"),
    (["gen-synth", "cipher"], "min_len", "0", "min_len: must be >= 1, got 0"),
    (["gen-synth", "cipher"], "max_len", "-3", "max_len: must be >= 1, got -3"),
    (["gen-synth", "cipher"], "map_seed", "z", "map_seed: expected an integer, got 'z'"),
]

# keys a config file may set (not format, side or the cipher generator's
# knobs), each with a value it accepts
FILE_KEYS = {
    "seed": "3",
    "tau": "0.1",
    "sigma": "0.7",
    "queue_size": "64",
    "batch_size": "8",
    "epochs": "2",
    "step_size": "0.1",
    "negatives": "in-batch",
    "shuffle": "off",
    "prefilter": "on",
    "k": "2",
    "margin": "absolute",
    "bins": "10",
    "sigmas": "0.5,1.5",
}

# one-shot arguments converted by their handler (flag only)
ONE_SHOT_REJECTIONS = [
    (["gen-synth", "cipher"], "pairs", "many", "pairs: expected an integer, got 'many'"),
    (["gen-synth", "cipher"], "pairs", "-1", "pairs: must be >= 0, got -1"),
    (["gen-synth", "noise"], "rate", "x", "rate: expected a number, got 'x'"),
    (["gen-synth", "noise"], "rate", "inf", "rate: expected a finite number, got 'inf'"),
    (["filter"], "budget", "-5", "budget: must be >= 0, got -5"),
]

# upper limits of the sizes allocated whole or per drawn value (appended
# last so the other cases keep their ids)
LIMIT_REJECTIONS = [
    (["analyze", "hist"], "bins", "100001", "bins: must be <= 100000, got 100001"),
    (
        ["gen-synth", "cipher"],
        "pairs",
        "10000001",
        "pairs: must be <= 10000000, got 10000001",
    ),
    (["gen-synth", "cipher"], "min_len", "1001", "min_len: must be <= 1000, got 1001"),
    (["gen-synth", "cipher"], "max_len", "1001", "max_len: must be <= 1000, got 1001"),
]

# negative seeds, rejected before any file is read (appended last, like
# the limits)
SEED_REJECTIONS = [
    (["train"], "seed", "-1", "seed: must be >= 0, got -1"),
    (["gen-synth", "cipher"], "map_seed", "-1", "map_seed: must be >= 0, got -1"),
]

# thresholds outside TrainConfig's (0, 1.5], rejected before any student is
# trained (appended last, like the seeds)
SIGMA_REJECTIONS = [
    (["train"], "sigma", "2", "sigma: must be <= 1.5, got 2.0"),
    (["train"], "sigma", "0", "sigma: must be > 0, got 0.0"),
    (["analyze", "sweep"], "sigmas", "0.5,0.9,2", "sigmas: must be <= 1.5, got 2.0"),
    (["analyze", "sweep"], "sigmas", "0.5,0", "sigmas: must be > 0, got 0.0"),
]


def _required_args(command, tmp_path):
    """Required flags naming files that do not exist: option values are
    checked before any input is opened."""
    absent = str(tmp_path / "absent")
    out = str(tmp_path / "out")
    required = {
        ("train",): ["--corpus", absent, "--teacher", absent, "--out", out],
        ("xsim-eval",): ["--src", absent, "--tgt", absent],
        ("filter",): [
            "--corpus", absent, "--student", absent, "--teacher", absent, "--subset-out", out
        ],
        ("analyze", "hist"): ["--corpus", absent, "--teacher", absent, "--out", out],
        ("analyze", "sweep"): [
            "--corpus", absent, "--eval-corpus", absent, "--teacher", absent, "--out", out
        ],
        ("embed",): ["--input", absent, "--encoder", absent, "--out", out],
        ("gen-synth", "cipher"): ["--out", out, "--pairs", "3"],
        ("gen-synth", "noise"): ["--corpus", absent, "--rate", "0.2", "--out", out],
    }
    return command + required[tuple(command)]


def _flag(key):
    return f"--{key.replace('_', '-')}"


@pytest.mark.parametrize(
    "command, key, value, message",
    REJECTIONS + ONE_SHOT_REJECTIONS + LIMIT_REJECTIONS + SEED_REJECTIONS + SIGMA_REJECTIONS,
    ids=lambda v: v if isinstance(v, str) and not v.count(" ") else None,
)
def test_bad_flag_value_is_usage_error(tmp_path, capsys, command, key, value, message):
    code = main(_required_args(command, tmp_path) + [_flag(key), value])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        case
        for case in REJECTIONS + LIMIT_REJECTIONS + SEED_REJECTIONS + SIGMA_REJECTIONS
        if case[1] in FILE_KEYS
    ],
    ids=lambda v: v if isinstance(v, str) and not v.count(" ") else None,
)
def test_bad_config_file_value_is_usage_error(tmp_path, capsys, command, key, value, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n")
    code = main(_required_args(command, tmp_path) + ["--config", str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.endswith(f"{message}\n"), err


def test_file_keys_are_exactly_the_configurable_options(tmp_path):
    config = tmp_path / "run.cfg"
    for key, value in FILE_KEYS.items():
        config.write_text(f"{key}={value}\n")
        assert load_config(config) == {key: value}
    for key in ("format", "side", "vocab_size", "min_len", "max_len", "map_seed", "pairs", "rate"):
        config.write_text(f"{key}=1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(config)


@pytest.mark.parametrize("via_config", [False, True])
def test_library_value_error_is_usage_error(tmp_path, capsys, via_config):
    # each value passes its converter; only TrainConfig rejects the pair
    argv = _required_args(["train"], tmp_path)
    if via_config:
        config = tmp_path / "run.cfg"
        config.write_text("negatives=in-batch\nbatch_size=1\n")
        argv += ["--config", str(config)]
    else:
        argv += ["--negatives", "in-batch", "--batch-size", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "usage error: in-batch negatives require batch_size >= 2\n"


# --- undecodable input files and config values no subcommand reads ---------------


@pytest.mark.parametrize(
    "reader, data, where",
    [
        ("corpus", b"ok\tpair\r\nbad \xff\tbyte\n", "2: invalid UTF-8 (byte 0xff)"),
        ("corpus", b"a\tb\rc \xff\td\n", "2: invalid UTF-8 (byte 0xff)"),
        ("sidecar", b"# note \xfe\n", "1: invalid UTF-8 (byte 0xfe)"),
        ("lines", b"aabb\n\nccdd \xc3\n", "3: invalid UTF-8 (byte 0xc3)"),
    ],
)
def test_undecodable_input_is_format_error(
    tmp_path, corpus_file, teacher_file, capsys, reader, data, where
):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    out = tmp_path / "out.emb"
    bad = tmp_path / "bad.txt"
    if reader == "corpus":
        bad.write_bytes(data)
        argv = ["train", "--corpus", str(bad), "--teacher", teacher, "--out", str(out)]
    elif reader == "sidecar":
        meta = tmp_path / "teacher.emb.meta"
        bad = meta
        meta.write_bytes(data + meta.read_bytes())
        argv = ["embed", "--input", corpus, "--encoder", teacher, "--out", str(out)]
    else:
        bad.write_bytes(data)
        argv = ["embed", "--input", str(bad), "--encoder", teacher, "--out", str(out)]
        argv += ["--format", "lines"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"format error: {bad}:{where}\n"
    assert not out.exists()


def test_undecodable_config_file_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"seed=1\nk=\xff\n")
    argv = _required_args(["xsim-eval"], tmp_path) + ["--config", str(config)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {config}:2: invalid UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["train"], "k=abc\n", "1: k: expected an integer, got 'abc'"),
        (["embed"], "# unused here\n\nbins=0\n", "3: bins: must be >= 1, got 0"),
        (["gen-synth", "noise"], "margin=cosine\n", "1: margin: expected one of absolute, distance, ratio, got 'cosine'"),
    ],
)
def test_config_value_is_checked_even_where_unused(
    tmp_path, corpus_file, teacher_file, capsys, command, text, message
):
    corpus, _ = corpus_file
    teacher, _ = teacher_file
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = str(tmp_path / "out")
    files = {
        ("train",): ["--corpus", corpus, "--teacher", teacher, "--out", out],
        ("embed",): ["--input", corpus, "--encoder", teacher, "--out", out],
        ("gen-synth", "noise"): ["--corpus", corpus, "--rate", "0.2", "--out", out],
    }[tuple(command)]
    assert main(command + files + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"usage error: {config}:{message}\n"
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=f"^{re.escape(str(config))}:{message.split(':')[0]}: "):
        load_config(config)


# --- option text and outputs that would corrupt the artifacts ------------------

# int() and float() strip whitespace, so without the check each of these
# converts while the config echo, and every artifact's comment, keeps the
# raw text
LINE_BREAK_FLAGS = [
    (["gen-synth", "cipher"], "seed", "1\t"),
    (["gen-synth", "cipher"], "seed", "1\n"),
    (["gen-synth", "noise"], "seed", "4\t"),
    (["xsim-eval"], "k", "4\n"),
    (["train"], "tau", "0.05\r"),
    (["analyze", "sweep"], "sigmas", "0.5,\t0.7"),
    (["gen-synth", "cipher"], "pairs", "3\t"),
    (["gen-synth", "noise"], "rate", "\n0.1"),
    (["filter"], "budget", "10\t"),
]


@pytest.mark.parametrize("command, key, value", LINE_BREAK_FLAGS)
def test_option_text_with_a_tab_or_line_break_is_usage_error(tmp_path, capsys, command, key, value):
    # the inputs are absent: the option is refused before any is read
    code = main(_required_args(command, tmp_path) + [_flag(key), value])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {key}: must not contain a tab or line break\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, text",
    [(["analyze", "sweep"], "sigmas=0.5,\t0.7"), (["train"], "sigmas=0.5,\t0.7"), (["embed"], "k=4\t4")],
)
def test_config_text_with_a_tab_is_usage_error(tmp_path, capsys, command, text):
    # a config value is stripped, so only an inner tab survives; train and
    # embed read neither sigmas nor k, and the value is checked anyway
    config = tmp_path / "run.cfg"
    config.write_text(f"# a tab in a value\n{text}\n")
    key = text.partition("=")[0]
    code = main(_required_args(command, tmp_path) + ["--config", str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {config}:2: {key}: must not contain a tab or line break\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_train_refuses_a_comment_before_writing_anything(tmp_path, corpus_file, teacher_file):
    # the train log, the student and its sidecar all carry the echo
    corpus, _ = corpus_file
    teacher_path, _ = teacher_file
    out = tmp_path / "out" / "student.emb"
    out.parent.mkdir()
    args = build_parser().parse_args(train_args(corpus, teacher_path, str(out)))
    values, echo = _resolve(args)
    with pytest.raises(ValueError, match="^comment: must not contain a tab or line break$"):
        args.func(args, values, echo + "\t")
    assert list(out.parent.iterdir()) == []


# (argv, with {t} for the test's directory and {a} for an absent input;
# the flags the message names; the path it names, under {t})
SAME_FILE_CASES = [
    ("train --corpus {a} --teacher {a} --out {t}/s.emb --log {t}/s.emb.meta",
     "the .meta of --out and --log", "s.emb.meta"),
    ("train --corpus {a} --teacher {a} --out {t}/s.emb --log {t}/x/../s.emb",
     "--out and --log", "x/../s.emb"),
    ("filter --corpus {a} --student {a} --teacher {a} --scored-out {t}/x.tsv"
     " --subset-out {t}/x.tsv --budget 100",
     "--scored-out and --subset-out at --budget 100", "x.tsv"),
    ("filter --corpus {a} --student {a} --teacher {a} --subset-out {t}/s{{budget}}.tsv"
     " --budget 10 --budget 010",
     "--subset-out at --budget 10 and --subset-out at --budget 10", "s10.tsv"),
    ("gen-synth noise --corpus {a} --rate 0.2 --out {t}/n.tsv --labels-out {t}/./n.tsv",
     "--out and --labels-out", "./n.tsv"),
]


@pytest.mark.parametrize(
    "argv, names, path", SAME_FILE_CASES, ids=["meta-log", "out-log", "scored-subset", "budgets", "labels"]
)
def test_two_outputs_naming_one_file_are_usage_errors(tmp_path, capsys, argv, names, path):
    # the inputs are absent: the outputs are compared before any is read
    argv = [word.format(t=tmp_path, a=tmp_path / "absent") for word in argv.split()]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {names} name the same file {f'{tmp_path}/{path}'!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_every_text_artifact_reads_back(tmp_path, corpus_file, teacher_file, capsys):
    # option text that converts but is unusual (leading zeros, spaces in a
    # list) is echoed into every comment; each artifact reads back through
    # the package's own readers, and every '#' line is a comment to them
    corpus, pairs = corpus_file
    teacher_path, teacher = teacher_file
    t = tmp_path / "run"
    t.mkdir()
    runs = [
        ["gen-synth", "cipher", "--out", f"{t}/c.tsv", "--pairs", "012", "--seed", "01", "--vocab-size", " 30"],
        ["gen-synth", "noise", "--corpus", corpus, "--rate", "0.25", "--seed", "004",
         "--out", f"{t}/n.tsv", "--labels-out", f"{t}/n.labels"],
        train_args(corpus, teacher_path, f"{t}/s.emb", seed=" 5", prefilter="on", sigma="0.9 "),
        ["filter", "--corpus", f"{t}/n.tsv", "--student", f"{t}/s.emb", "--teacher", teacher_path,
         "--k", "2", "--scored-out", f"{t}/scored.tsv", "--subset-out", f"{t}/sub{{budget}}.tsv",
         "--budget", "20", "--budget", "40"],
        ["analyze", "hist", "--corpus", corpus, "--teacher", teacher_path, "--out", f"{t}/h.csv", "--bins", "4"],
    ]
    for argv in runs:
        assert main(argv) == 0, capsys.readouterr().err
    spec = CipherSpec(vocab_size=30, min_len=1, max_len=12, map_seed=0)
    assert read_pairs_tsv(t / "c.tsv") == gen_cipher_corpus(spec, 12, seed=1)
    noisy = inject_noise(pairs, 0.25, seed=4)
    assert read_pairs_tsv(t / "n.tsv") == noisy.pairs
    assert len(read_pairs_tsv(t / "sub20.tsv")) <= len(read_pairs_tsv(t / "sub40.tsv")) > 0
    assert load_encoder(t / "s.emb").dim == teacher.dim
    for path in t.iterdir():
        if path.suffix == ".emb":
            continue
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""  # every line ends in LF
        body = lines[1:] if path.suffix == ".meta" else lines
        comments = [line for line in body if line.startswith("# ")]
        assert body[: len(comments)] == comments
        assert any(c.startswith("# config: ") for c in comments), path.name
        assert not any("\t" in c or "\r" in c for c in comments), path.name
    labels = (t / "n.labels").read_text().splitlines()[1:]
    assert labels == ["1" if flag else "0" for flag in noisy.labels]


# --- fuzzed sidecar headers and config files, in-process through main ----------


def _assert_exits_cleanly(argv):
    """main must not raise, must exit 0-3, and a failure writes one stderr line."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    err = stderr.getvalue()
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err


# values around 2**63 and 2**64, where int64 and uint64 stop, and far beyond
_HUGE = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64]), st.integers(0, 2**66)
)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.one_of(st.sampled_from([2, 3]), _HUGE),
    buckets=st.one_of(st.sampled_from([2, 16]), _HUGE),
    orders=st.lists(st.one_of(st.integers(1, 4), _HUGE), min_size=1, max_size=3),
    seed=st.integers(-(2**66), 2**66),
    preamble=st.lists(st.sampled_from(["", "  ", "#", "# dim=9 buckets=9", "\t# x"]), max_size=3),
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    frozen=st.sampled_from(["0", "1", "2", "01", ""]),
    extra_dim=st.sampled_from([0, 0, 1]),
)
def test_any_sidecar_header_exits_cleanly(
    dim, buckets, orders, seed, preamble, bom, newline, frozen, extra_dim
):
    # the header may follow comment and blank lines, a byte-order mark and
    # CRLF line ends, carry a frozen flag other than 0/1, and disagree with
    # the weight file's shape (extra_dim)
    with tempfile.TemporaryDirectory() as tmp:
        encoder = Path(tmp) / "enc.emb"
        # weights of the header's shape when that is small, so that
        # loading succeeds and embed reaches the hashing
        shape = (buckets, dim + extra_dim) if 0 < buckets * dim <= 64 else (16, 2)
        write_embeddings(encoder, np.random.default_rng(0).uniform(-1, 1, shape))
        header = (
            f"dim={dim} buckets={buckets} orders={','.join(map(str, orders))} "
            f"seed={seed} frozen={frozen}"
        )
        text = newline.join(preamble + [header]) + newline
        Path(f"{encoder}.meta").write_bytes(("\ufeff" if bom else "").encode() + text.encode())
        lines = Path(tmp) / "in.txt"
        lines.write_text("ab cd\nxyz\n", encoding="utf-8")
        out = str(Path(tmp) / "out.emb")
        argv = ["embed", "--input", str(lines), "--encoder", str(encoder), "--out", out]
        _assert_exits_cleanly(argv + ["--format", "lines"])


def test_sidecar_disagreeing_with_the_weights_is_a_format_error(tmp_path, capsys):
    encoder = tmp_path / "t.emb"
    write_embeddings(encoder, np.random.default_rng(0).uniform(-1, 1, (64, 4)))
    Path(f"{encoder}.meta").write_text("dim=5 buckets=64 orders=1,2 seed=0 frozen=0\n")
    lines = tmp_path / "in.txt"
    lines.write_text("ab cd\n", encoding="utf-8")
    argv = ["embed", "--input", str(lines), "--encoder", str(encoder), "--out", str(tmp_path / "o")]
    assert main(argv + ["--format", "lines"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error: ") and "does not match sidecar (64 x 5)" in err
    assert err.count("\n") == 1


def test_sidecar_above_the_bucket_cap_is_a_format_error(tmp_path, capsys):
    encoder = tmp_path / "t.emb"
    write_embeddings(encoder, np.random.default_rng(0).uniform(-1, 1, (64, 4)))
    Path(f"{encoder}.meta").write_text(f"dim=4 buckets={2**31} orders=1,2 seed=0 frozen=0\n")
    lines = tmp_path / "in.txt"
    lines.write_text("ab cd\n", encoding="utf-8")
    argv = ["embed", "--input", str(lines), "--encoder", str(encoder), "--out", str(tmp_path / "o")]
    assert main(argv + ["--format", "lines"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error: ") and str(2**31 - 1) in err
    assert err.count("\n") == 1


# arbitrary Unicode lines, half of them shaped key=value over the known keys
_CONFIG_LINE = st.one_of(
    st.text(),
    st.builds("{}={}".format, st.sampled_from(sorted(OPTIONS) + ["threads"]), st.text()),
)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(_CONFIG_LINE, max_size=4), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_any_config_file_exits_cleanly(lines, newline):
    with tempfile.TemporaryDirectory() as tmp:
        emb = str(Path(tmp) / "e.emb")
        write_embeddings(emb, np.random.default_rng(1).normal(size=(6, 4)))
        config = Path(tmp) / "run.cfg"
        config.write_bytes(newline.join(lines).encode("utf-8"))
        argv = ["xsim-eval", "--src", emb, "--tgt", emb, "--config", str(config)]
        _assert_exits_cleanly(argv)


# --- fuzzed EMB1 files and TSV corpora, in-process through main ----------------


@st.composite
def emb1_file(draw):
    """EMB1 bytes: small or huge dim and count, and at most one flaw (a
    foreign magic, a NaN/Inf value, trailing bytes or a cut-short file)."""
    dim = draw(st.sampled_from([*range(9), 2**32 - 1]))
    count = draw(st.sampled_from([*range(9), 2**63, 2**64 - 1]))
    n = count * dim if count * dim <= 64 else draw(st.integers(0, 16))
    values = np.array(draw(st.lists(st.floats(-2, 2, width=32), min_size=n, max_size=n)))
    flaw = draw(st.sampled_from([None, None, "magic", "non-finite", "trailing", "cut"]))
    magic = b"EMB1"
    if flaw == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"EMB1"))
    if flaw == "non-finite" and n:
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    data = struct.pack("<4sIQ", magic, dim, count) + values.astype("<f4").tobytes()
    if flaw == "trailing":
        data += draw(st.binary(min_size=1, max_size=6))
    if flaw == "cut":
        data = data[: draw(st.integers(0, len(data) - 1))]
    return data


@settings(max_examples=200, deadline=None)
@given(
    src=emb1_file(),
    tgt=st.one_of(st.none(), emb1_file()),  # None: the source file again
    k=st.integers(1, 5),
    margin=st.sampled_from(["ratio", "distance", "absolute"]),
)
def test_any_emb1_file_exits_cleanly(src, tgt, k, margin):
    with tempfile.TemporaryDirectory() as tmp:
        src_path, tgt_path = Path(tmp) / "s.emb", Path(tmp) / "t.emb"
        src_path.write_bytes(src)
        tgt_path.write_bytes(src if tgt is None else tgt)
        argv = ["xsim-eval", "--src", str(src_path), "--tgt", str(tgt_path)]
        _assert_exits_cleanly(argv + ["--k", str(k), "--margin", margin])


@pytest.fixture(scope="module")
def tiny_encoders(tmp_path_factory):
    """A 16-bucket teacher and student, written once for the fuzzed corpora."""
    tmp = tmp_path_factory.mktemp("encoders")
    paths = []
    for name, seed in (("teacher", 5), ("student", 6)):
        cfg = FeaturizerConfig(ngram_orders=(1, 2), bucket_count=16, hash_seed=seed)
        path = tmp / f"{name}.emb"
        save_encoder(make_teacher(cfg, 4, weight_seed=seed), path)
        paths.append(str(path))
    return paths


@st.composite
def tsv_corpus(draw):
    """Corpus bytes: raw bytes (often not UTF-8), arbitrary Unicode, or
    tab-separated pairs with at most one stray tab, CR, NUL or bad byte."""
    kind = draw(st.sampled_from(["pairs", "pairs", "bytes", "unicode"]))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    if kind == "unicode":
        return draw(st.text(max_size=60)).encode("utf-8", "surrogatepass")
    words = st.text(alphabet="ab é中#", max_size=8)
    lines = draw(st.lists(st.builds("{}\t{}".format, words, words), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = newline.join(lines).encode("utf-8")
    stray = draw(st.sampled_from([None, None, b"\t", b"\r", b"\x00", b"\xff"]))
    if stray is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + stray + data[at:]
    return data


@settings(max_examples=100, deadline=None)
@given(corpus=tsv_corpus(), k=st.integers(1, 3))
def test_any_corpus_exits_cleanly_in_filter_and_train(tiny_encoders, corpus, k):
    teacher, student = tiny_encoders
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.tsv"
        path.write_bytes(corpus)
        out = Path(tmp) / "out"
        _assert_exits_cleanly(
            ["filter", "--corpus", str(path), "--student", student, "--teacher", teacher]
            + ["--scored-out", f"{out}.scored", "--subset-out", f"{out}.tsv"]
            + ["--budget", "12", "--k", str(k)]
        )
        _assert_exits_cleanly(
            ["train", "--corpus", str(path), "--teacher", teacher]
            + ["--out", f"{out}.emb", "--batch-size", "2"]
        )
