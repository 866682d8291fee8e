"""Command-line interface.

Subcommands: embed, train, xsim-eval, filter, analyze (hist | sweep),
gen-synth (cipher | noise).  Options resolve with precedence
flags > config file > defaults; the config file is flat ``key=value``
lines with '#' comments.  The resolved config is echoed to stdout and
embedded as '#' comments in every text artifact (the binary EMB1 format
is fixed, so embed/train print it instead).

Exit codes: 0 success; 1 usage or invalid configuration; 2 I/O or file
format errors (messages name the file, and the line where applicable);
3 numerical failures (zero vectors, empty pools, zero denominators, diverged
training, ...).
All outputs are written atomically (temp file + rename): a failed run
leaves no partial artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from .analysis import (
    similarity_distribution,
    threshold_sweep,
    write_histogram_csv,
    write_sweep_csv,
)
from .embfile import atomic_write_text, read_embeddings, write_embeddings
from .encoder import encode_batch, load_encoder, save_encoder
from .errors import BitextkitError, ConfigError, FormatError
from .filtering import (
    read_pairs_tsv,
    score_corpus,
    select_by_token_budget,
    write_pairs_tsv,
    write_scored_tsv,
)
from .margin import MARGIN_KINDS, SearchConfig, xsim_report
from .synth import CipherSpec, gen_cipher_corpus, inject_noise
from .trainer import (
    NEGATIVES_IN_BATCH,
    NEGATIVES_QUEUE,
    TrainConfig,
    train_distill,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures raise instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# option table and config-file handling
# ---------------------------------------------------------------------------


def _as_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _as_pos_int(text: str, key: str) -> int:
    value = _as_int(text, key)
    if value < 1:
        raise ConfigError(f"{key}: must be >= 1, got {value}")
    return value


def _as_nonneg_int(text: str, key: str) -> int:
    value = _as_int(text, key)
    if value < 0:
        raise ConfigError(f"{key}: must be >= 0, got {value}")
    return value


def _as_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _as_pos_float(text: str, key: str) -> float:
    value = _as_float(text, key)
    if not value > 0:
        raise ConfigError(f"{key}: must be > 0, got {value}")
    return value


def _as_nonneg_float(text: str, key: str) -> float:
    value = _as_float(text, key)
    if not value >= 0:
        raise ConfigError(f"{key}: must be >= 0, got {value}")
    return value


def _on_off(text: str, key: str) -> bool:
    if text == "on":
        return True
    if text == "off":
        return False
    raise ConfigError(f"{key}: expected 'on' or 'off', got {text!r}")


def _negatives(text: str, key: str) -> str:
    if text in (NEGATIVES_QUEUE, "in-batch", NEGATIVES_IN_BATCH):
        return NEGATIVES_QUEUE if text == NEGATIVES_QUEUE else NEGATIVES_IN_BATCH
    raise ConfigError(f"{key}: expected 'queue' or 'in-batch', got {text!r}")


def _margin_kind(text: str, key: str) -> str:
    if text not in MARGIN_KINDS:
        raise ConfigError(
            f"{key}: expected one of {', '.join(MARGIN_KINDS)}, got {text!r}"
        )
    return text


def _choice(*allowed: str):
    def convert(text: str, key: str) -> str:
        if text not in allowed:
            raise ConfigError(
                f"{key}: expected one of {', '.join(allowed)}, got {text!r}"
            )
        return text

    return convert


def _float_list(text: str, key: str) -> list[float]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return [_as_float(piece, key) for piece in items]


# key -> (converter, default-as-string); None default means required-by-flag
OPTIONS: dict = {
    "seed": (_as_int, "0"),
    "threads": (_as_pos_int, "1"),
    "tau": (_as_pos_float, "0.05"),
    "sigma": (_as_float, "0.9"),
    "queue_size": (_as_pos_int, "4096"),
    "batch_size": (_as_pos_int, "32"),
    "epochs": (_as_nonneg_int, "1"),
    "step_size": (_as_nonneg_float, "0.05"),
    "negatives": (_negatives, "queue"),
    "shuffle": (_on_off, "on"),
    "prefilter": (_on_off, "off"),
    "k": (_as_pos_int, "4"),
    "margin": (_margin_kind, "ratio"),
    "bins": (_as_pos_int, "40"),
    "sigmas": (_float_list, "0.5,0.7,0.9,1.5"),
    "format": (_choice("tsv", "lines"), "tsv"),
    "side": (_choice("source", "target"), "source"),
    "vocab_size": (_as_pos_int, "100"),
    "min_len": (_as_pos_int, "1"),
    "max_len": (_as_pos_int, "12"),
    "map_seed": (_as_int, "0"),
    "pairs": (_as_nonneg_int, None),
    "rate": (_as_float, None),
}

# keys a config file may set (paths and one-shot arguments stay flag-only)
CONFIG_KEYS = frozenset(
    {
        "seed",
        "threads",
        "tau",
        "sigma",
        "queue_size",
        "batch_size",
        "epochs",
        "step_size",
        "negatives",
        "shuffle",
        "prefilter",
        "k",
        "margin",
        "bins",
        "sigmas",
    }
)


def load_config(path: str | os.PathLike) -> dict[str, str]:
    """Parse a flat ``key=value`` config file ('#' comments, blank lines ok).

    Keys are validated against the known option set; values stay strings
    and are converted at resolution time with the same converters flags
    use.
    """
    path = os.fspath(path)
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _resolve(args, keys: list[str]) -> tuple[dict, str]:
    """Resolve option values (flags > config file > defaults).

    Returns (converted values, echo line); the echo shows the raw textual
    values in sorted key order.
    """
    file_values = load_config(args.config) if getattr(args, "config", None) else {}
    values: dict = {}
    display: dict[str, str] = {}
    for key in keys:
        converter, default = OPTIONS[key]
        raw = getattr(args, key, None)
        if raw is None:
            raw = file_values.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        if isinstance(raw, str):
            values[key] = converter(raw, key)
            display[key] = raw
        else:  # already parsed (repeatable flags)
            values[key] = raw
            display[key] = str(raw)
    echo = "config: " + " ".join(f"{k}={display[k]}" for k in sorted(display))
    return values, echo


def _train_config(vals: dict) -> TrainConfig:
    return TrainConfig(
        temperature=vals["tau"],
        filter_threshold=vals["sigma"],
        queue_size=vals["queue_size"],
        batch_size=vals["batch_size"],
        negatives_source=vals["negatives"],
        shuffle=vals["shuffle"],
        prefilter_enabled=vals["prefilter"],
        step_size=vals["step_size"],
        epochs=vals["epochs"],
        rng_seed=vals["seed"],
    )


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_embed(args) -> None:
    vals, echo = _resolve(args, ["seed", "format", "side"])
    if vals["format"] == "tsv":
        pairs = read_pairs_tsv(args.input)
        column = 0 if vals["side"] == "source" else 1
        sentences = [pair[column] for pair in pairs]
    else:
        sentences = _read_lines(args.input)
    params = load_encoder(args.encoder)
    matrix = encode_batch(params, sentences)
    write_embeddings(args.out, matrix)
    print(echo)
    print(f"wrote {args.out}: n={matrix.shape[0]} dim={matrix.shape[1]}")


def _cmd_train(args) -> None:
    keys = [
        "seed",
        "tau",
        "sigma",
        "queue_size",
        "batch_size",
        "epochs",
        "step_size",
        "negatives",
        "shuffle",
        "prefilter",
    ]
    vals, echo = _resolve(args, keys)
    cfg = _train_config(vals)
    pairs = read_pairs_tsv(args.corpus)
    teacher = load_encoder(args.teacher)
    print(echo)
    result = train_distill(pairs, teacher, cfg, log_fn=print)
    weights = np.ascontiguousarray(result.student.weights, dtype="<f8")
    digest = f"weights_sha256={hashlib.sha256(weights.tobytes()).hexdigest()}"
    print(digest)
    save_encoder(result.student, args.out, comments=[echo])
    log_path = args.log if args.log else args.out + ".log"
    atomic_write_text(
        log_path, "\n".join([f"# {echo}"] + result.log_lines + [digest]) + "\n"
    )
    print(f"wrote {args.out} (+.meta), log {log_path}")


def _cmd_xsim_eval(args) -> None:
    vals, echo = _resolve(args, ["seed", "threads", "k", "margin"])
    src = read_embeddings(args.src).astype(np.float64)
    tgt = read_embeddings(args.tgt).astype(np.float64)
    cfg = SearchConfig(k=vals["k"], margin_kind=vals["margin"])
    report = xsim_report(src, tgt, cfg, threads=vals["threads"])
    print(echo)
    print(report)
    if args.out:
        atomic_write_text(args.out, f"# {echo}\n{report}\n")


def _cmd_filter(args) -> None:
    vals, echo = _resolve(args, ["seed", "threads", "k", "margin"])
    budgets = [_as_nonneg_int(b, "budget") for b in (args.budget or [])]
    if not args.scored_out and not budgets:
        raise ConfigError("nothing to do: pass --scored-out and/or --budget")
    if budgets and not args.subset_out:
        raise ConfigError("--budget requires --subset-out")
    if len(budgets) > 1 and "{budget}" not in args.subset_out:
        raise ConfigError(
            "--subset-out needs a {budget} placeholder with multiple budgets"
        )
    pairs = read_pairs_tsv(args.corpus)
    student = load_encoder(args.student)
    teacher = load_encoder(args.teacher)
    cfg = SearchConfig(k=vals["k"], margin_kind=vals["margin"])
    scored = score_corpus(pairs, student, teacher, cfg, threads=vals["threads"])
    print(echo)
    if args.scored_out:
        write_scored_tsv(args.scored_out, scored, comments=[echo])
        print(f"wrote {args.scored_out}: n={len(scored)}")
    for budget in budgets:
        subset = select_by_token_budget(scored, budget)
        path = (args.subset_out or "").replace("{budget}", str(budget))
        tokens = sum(p.target_tokens for p in subset)
        write_pairs_tsv(
            path,
            [(p.source, p.target) for p in subset],
            comments=[echo, f"budget={budget} selected={len(subset)} tokens={tokens}"],
        )
        print(f"wrote {path}: budget={budget} selected={len(subset)} tokens={tokens}")


def _cmd_analyze_hist(args) -> None:
    keys = ["seed", "batch_size", "queue_size", "shuffle", "bins"]
    vals, echo = _resolve(args, keys)
    pairs = read_pairs_tsv(args.corpus)
    teacher = load_encoder(args.teacher)
    cfg = TrainConfig(
        queue_size=vals["queue_size"],
        batch_size=vals["batch_size"],
        shuffle=vals["shuffle"],
        rng_seed=vals["seed"],
    )
    hist = similarity_distribution(
        [t for _, t in pairs], teacher, cfg, bins=vals["bins"]
    )
    write_histogram_csv(args.out, hist, cfg.shuffle, comments=[echo])
    print(echo)
    print(f"wrote {args.out}: total={hist.total} bins={vals['bins']}")


def _cmd_analyze_sweep(args) -> None:
    keys = [
        "seed",
        "tau",
        "queue_size",
        "batch_size",
        "epochs",
        "step_size",
        "negatives",
        "shuffle",
        "sigmas",
        "k",
        "margin",
    ]
    vals, echo = _resolve(args, keys)
    base = TrainConfig(
        temperature=vals["tau"],
        queue_size=vals["queue_size"],
        batch_size=vals["batch_size"],
        negatives_source=vals["negatives"],
        shuffle=vals["shuffle"],
        prefilter_enabled=True,
        step_size=vals["step_size"],
        epochs=vals["epochs"],
        rng_seed=vals["seed"],
    )
    pairs = read_pairs_tsv(args.corpus)
    eval_pairs = read_pairs_tsv(args.eval_corpus)
    teacher = load_encoder(args.teacher)
    search_cfg = SearchConfig(k=vals["k"], margin_kind=vals["margin"])
    print(echo)
    rows = threshold_sweep(
        pairs, teacher, base, vals["sigmas"], eval_pairs, search_cfg, log_fn=print
    )
    write_sweep_csv(args.out, rows, comments=[echo])
    print(f"wrote {args.out}: rows={len(rows)}")


def _cmd_gen_cipher(args) -> None:
    keys = ["seed", "vocab_size", "min_len", "max_len", "map_seed"]
    vals, echo = _resolve(args, keys)
    n_pairs = _as_nonneg_int(args.pairs, "pairs")
    spec = CipherSpec(
        vocab_size=vals["vocab_size"],
        min_len=vals["min_len"],
        max_len=vals["max_len"],
        map_seed=vals["map_seed"],
    )
    pairs = gen_cipher_corpus(spec, n_pairs, vals["seed"])
    write_pairs_tsv(args.out, pairs, comments=[echo, f"pairs={n_pairs}"])
    print(echo)
    print(f"wrote {args.out}: pairs={n_pairs}")


def _cmd_gen_noise(args) -> None:
    vals, echo = _resolve(args, ["seed"])
    rate = _as_float(args.rate, "rate")
    pairs = read_pairs_tsv(args.corpus)
    noisy = inject_noise(pairs, rate, vals["seed"])
    write_pairs_tsv(args.out, noisy.pairs, comments=[echo, f"rate={rate}"])
    print(echo)
    if args.labels_out:
        lines = [f"# {echo} rate={rate}"]
        lines += ["1" if flag else "0" for flag in noisy.labels]
        atomic_write_text(args.labels_out, "\n".join(lines) + "\n")
        print(f"wrote {args.labels_out}: noisy={noisy.noise_count}")
    print(f"wrote {args.out}: pairs={len(noisy.pairs)} noisy={noisy.noise_count}")


# ---------------------------------------------------------------------------
# parser construction and entry point
# ---------------------------------------------------------------------------


def _add_option_flags(parser: _Parser, keys: list[str]) -> None:
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    _add_option_flags(shared, ["seed"])
    shared.add_argument("--config", default=None, help="key=value config file")

    parser = _Parser(prog="bitextkit", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(func=None)

    p = sub.add_parser("embed", parents=[shared], help="encode sentences to EMB1")
    p.add_argument("--input", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--out", required=True)
    _add_option_flags(p, ["format", "side"])
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("train", parents=[shared], help="distill a student encoder")
    p.add_argument("--corpus", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    _add_option_flags(
        p,
        [
            "tau",
            "sigma",
            "queue_size",
            "batch_size",
            "epochs",
            "step_size",
            "negatives",
            "shuffle",
            "prefilter",
        ],
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "xsim-eval", parents=[shared], help="alignment error between two EMB1 files"
    )
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", default=None)
    _add_option_flags(p, ["threads", "k", "margin"])
    p.set_defaults(func=_cmd_xsim_eval)

    p = sub.add_parser(
        "filter", parents=[shared], help="score pairs and select by token budget"
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--scored-out", default=None)
    p.add_argument("--subset-out", default=None)
    p.add_argument("--budget", action="append", default=None)
    _add_option_flags(p, ["threads", "k", "margin"])
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("analyze", help="similarity histograms and threshold sweeps")
    asub = p.add_subparsers(dest="mode")
    p.set_defaults(func=None)

    ph = asub.add_parser(
        "hist", parents=[shared], help="target-vs-queue similarity histogram"
    )
    ph.add_argument("--corpus", required=True)
    ph.add_argument("--teacher", required=True)
    ph.add_argument("--out", required=True)
    _add_option_flags(ph, ["batch_size", "queue_size", "shuffle", "bins"])
    ph.set_defaults(func=_cmd_analyze_hist)

    ps = asub.add_parser(
        "sweep", parents=[shared], help="filter-threshold sweep with held-out eval"
    )
    ps.add_argument("--corpus", required=True)
    ps.add_argument("--eval-corpus", required=True)
    ps.add_argument("--teacher", required=True)
    ps.add_argument("--out", required=True)
    _add_option_flags(
        ps,
        [
            "tau",
            "queue_size",
            "batch_size",
            "epochs",
            "step_size",
            "negatives",
            "shuffle",
            "sigmas",
            "k",
            "margin",
        ],
    )
    ps.set_defaults(func=_cmd_analyze_sweep)

    p = sub.add_parser("gen-synth", help="synthetic corpora")
    gsub = p.add_subparsers(dest="mode")
    p.set_defaults(func=None)

    pc = gsub.add_parser("cipher", parents=[shared], help="cipher-language bitext")
    pc.add_argument("--out", required=True)
    pc.add_argument("--pairs", required=True)
    _add_option_flags(pc, ["vocab_size", "min_len", "max_len", "map_seed"])
    pc.set_defaults(func=_cmd_gen_cipher)

    pn = gsub.add_parser("noise", parents=[shared], help="inject misalignments")
    pn.add_argument("--corpus", required=True)
    pn.add_argument("--rate", required=True)
    pn.add_argument("--out", required=True)
    pn.add_argument("--labels-out", default=None)
    pn.set_defaults(func=_cmd_gen_noise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        args.func(args)
        return 0
    except SystemExit as exc:  # --help
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (BitextkitError, ZeroDivisionError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
