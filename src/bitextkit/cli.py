"""Command-line interface.

Subcommands: embed, train, xsim-eval, filter, analyze (hist | sweep),
gen-synth (cipher | noise).  Options resolve with precedence
flags > config file > defaults; the config file is flat ``key=value``
lines with '#' comments.  A config file may set seed, tau, sigma,
queue_size, batch_size, epochs, step_size, negatives, shuffle, prefilter,
k, margin, bins and sigmas; each value it sets is checked even where the
subcommand does not read it.  Only train, analyze and gen-synth take
--seed; sigma and each sigmas item lie in (0, 1.5], and --rate in [0, 1].
A flag the run will not read (sigma without --prefilter on, for one) is a
usage error; such a config-file value is echoed as unused.  Option text
holding a tab or line break, which the echo would carry, is a usage error
too.  Numbers are bounded by errors.check_number, with the library's bounds.
Sizes allocated from a flag are capped: bins at 100,000, gen-synth
cipher --pairs at 10,000,000, --min-len and --max-len at 1,000 words.
The resolved config is echoed to stdout once the options resolve, so
also before a later error, and embedded as '#' comments in every text
artifact (the binary EMB1 format is fixed, so embed/train print it).

Exit codes: 0 success; 1 usage or invalid configuration; 2 I/O or file
format errors, including input files that are not valid UTF-8 (messages
name the file, and the line where applicable); 3 numerical failures (zero
vectors, empty pools, zero denominators, diverged training, ...).
All outputs are written atomically (temp file + rename): a failed run
leaves no partial artifacts.  Two outputs of one command naming the same
file are a usage error, before any input is read.
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
from .embfile import check_text, open_text, read_embeddings, write_embeddings, write_text
from .encoder import encode_batch, load_encoder, save_encoder
from .errors import BitextkitError, ConfigError, FormatError, TooFewPairsError, check_number
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


def _number(
    kind: type, low: float | None = None, strict: bool = False, high: float = math.inf
):
    """Converter of option text to ``kind`` (int or finite float), then
    bounded by check_number."""

    def convert(text: str, key: str):
        check_text(text, key)  # int and float strip what the echo keeps
        try:
            value = kind(text)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {text!r}")
        return check_number(key, value, kind, low, strict, high)

    return convert


_count = _number(int, 0)
_sigma = _number(float, 0, strict=True, high=1.5)  # TrainConfig's filter_threshold

# caps on the sizes allocated from a flag: whole (histogram bins, cipher
# pairs) or once per drawn cipher sentence length
MAX_BINS = 100_000
MAX_PAIRS = 10_000_000
MAX_SENTENCE_WORDS = 1_000


def _on_off(text: str, key: str) -> bool:
    if text not in ("on", "off"):
        raise ConfigError(f"{key}: expected 'on' or 'off', got {text!r}")
    return text == "on"


def _negatives(text: str, key: str) -> str:
    if text in (NEGATIVES_QUEUE, "in-batch", NEGATIVES_IN_BATCH):
        return NEGATIVES_QUEUE if text == NEGATIVES_QUEUE else NEGATIVES_IN_BATCH
    raise ConfigError(f"{key}: expected 'queue' or 'in-batch', got {text!r}")


def _choice(*allowed: str):
    def convert(text: str, key: str) -> str:
        if text not in allowed:
            raise ConfigError(
                f"{key}: expected one of {', '.join(allowed)}, got {text!r}"
            )
        return text

    return convert


def _sigmas(text: str, key: str) -> list[float]:
    check_text(text, key)
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return [_sigma(piece, key) for piece in items]


# key -> (converter, default text, settable from a config file); paths and
# the generators' knobs stay flag-only
OPTIONS: dict = {
    "seed": (_number(int, 0), "0", True),
    "tau": (_number(float, 0, strict=True), "0.05", True),
    "sigma": (_sigma, "0.9", True),
    "queue_size": (_number(int, 1), "4096", True),
    "batch_size": (_number(int, 1), "32", True),
    "epochs": (_count, "1", True),
    "step_size": (_number(float, 0), "0.05", True),
    "negatives": (_negatives, "queue", True),
    "shuffle": (_on_off, "on", True),
    "prefilter": (_on_off, "off", True),
    "k": (_number(int, 1), "4", True),
    "margin": (_choice(*MARGIN_KINDS), "ratio", True),
    "bins": (_number(int, 1, high=MAX_BINS), "40", True),
    "sigmas": (_sigmas, "0.5,0.7,0.9,1.5", True),
    "format": (_choice("tsv", "lines"), "tsv", False),
    "side": (_choice("source", "target"), "source", False),
    "vocab_size": (_number(int, 2), "100", False),
    "min_len": (_number(int, 1, high=MAX_SENTENCE_WORDS), "1", False),
    "max_len": (_number(int, 1, high=MAX_SENTENCE_WORDS), "12", False),
    "map_seed": (_number(int, 0), "0", False),
}


def load_config(path: str | os.PathLike) -> dict[str, str]:
    """Parse a flat ``key=value`` config file ('#' comments, blank lines ok).

    Every key must be settable from a config file and every value must
    pass its key's converter, whether or not the subcommand reads it;
    failures name ``path:line``.  Values come back as the raw strings,
    converted again at resolution time with the same converters flags use.
    """
    path = os.fspath(path)
    values: dict[str, str] = {}
    with open_text(path, ConfigError) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in OPTIONS or not OPTIONS[key][2]:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                OPTIONS[key][0](value, key)
            except (ConfigError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            values[key] = value
    return values


def _resolve(args) -> tuple[dict, str]:
    """Resolve the subcommand's options (flags > config file > defaults).

    Returns (converted values, echo line); the echo shows the raw textual
    values in sorted key order, then names each config-file value left unread.
    """
    file_values = load_config(args.config) if args.config else {}
    raw: dict[str, str] = {}
    for key in args.option_keys:
        flag = getattr(args, key)
        raw[key] = flag if flag is not None else file_values.get(key, OPTIONS[key][1])
    values = {key: OPTIONS[key][0](text, key) for key, text in raw.items()}
    echo = "config: " + " ".join(f"{k}={raw[k]}" for k in sorted(raw))
    for key, condition in args.option_keys.items():
        gate, _, wanted = condition.partition("=")
        if condition and values[gate] != OPTIONS[gate][0](wanted, gate):
            if getattr(args, key) is not None:
                raise ConfigError(f"{_flag(key)} is unused with {_flag(gate)} {raw[gate]}")
            if key in file_values:
                echo += f" unused={key}"
    return values, echo


# option key -> the TrainConfig field it sets
_TRAIN_FIELDS = {
    "tau": "temperature",
    "sigma": "filter_threshold",
    "queue_size": "queue_size",
    "batch_size": "batch_size",
    "negatives": "negatives_source",
    "shuffle": "shuffle",
    "prefilter": "prefilter_enabled",
    "step_size": "step_size",
    "epochs": "epochs",
    "seed": "rng_seed",
}


def _train_config(vals: dict) -> TrainConfig:
    """TrainConfig from the resolved options (library defaults for the
    fields the subcommand does not resolve)."""
    fields = {f: vals[key] for key, f in _TRAIN_FIELDS.items() if key in vals}
    return TrainConfig(**fields)


def _search_config(vals: dict) -> SearchConfig:
    return SearchConfig(k=vals["k"], margin_kind=vals["margin"])


# ---------------------------------------------------------------------------
# subcommand handlers: (parsed args, resolved option values, config echo)
# ---------------------------------------------------------------------------


def _distinct_outputs(inputs, *outputs: tuple[str, str | None]) -> None:
    """Refuse an output (name, path or None) of one command that names one of
    its inputs (name, path) or another of its outputs: called before any
    input is read."""
    seen: dict[str, str] = {}
    for name, path in inputs:
        seen.setdefault(os.path.realpath(path), name)
    for name, path in (output for output in outputs if output[1]):
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {name} name the same file {path!r}")
        seen[real] = name


def _encoder_files(flag: str, path: str) -> list[tuple[str, str]]:
    """The inputs an encoder flag names: the weights and their .meta sidecar."""
    return [(flag, path), (f"the .meta of {flag}", path + ".meta")]


def _cmd_embed(args, vals: dict, echo: str) -> None:
    inputs = [("--input", args.input), *_encoder_files("--encoder", args.encoder)]
    _distinct_outputs(inputs, ("--out", args.out))
    if vals["format"] == "tsv":
        pairs = read_pairs_tsv(args.input)
        column = 0 if vals["side"] == "source" else 1
        sentences = [pair[column] for pair in pairs]
    else:
        with open_text(args.input) as fh:
            # universal-newline lines, as read_pairs_tsv reads them
            sentences = [line.rstrip("\n") for line in fh if line.strip()]
    params = load_encoder(args.encoder)
    matrix = encode_batch(params, sentences)
    write_embeddings(args.out, matrix)
    print(f"wrote {args.out}: n={matrix.shape[0]} dim={matrix.shape[1]}")


def _cmd_train(args, vals: dict, echo: str) -> None:
    log_path = args.log if args.log else args.out + ".log"
    meta = args.out + ".meta"
    inputs = [("--corpus", args.corpus), *_encoder_files("--teacher", args.teacher)]
    outputs = ("--out", args.out), ("the .meta of --out", meta), ("--log", log_path)
    _distinct_outputs(inputs, *outputs)
    cfg = _train_config(vals)
    pairs = read_pairs_tsv(args.corpus)
    teacher = load_encoder(args.teacher)
    result = train_distill(pairs, teacher, cfg, log_fn=print)
    weights = np.ascontiguousarray(result.student.weights, dtype="<f8")
    digest = f"weights_sha256={hashlib.sha256(weights.tobytes()).hexdigest()}"
    print(digest)
    save_encoder(result.student, args.out, comments=[echo])
    write_text(log_path, result.log_lines + [digest], [echo])
    print(f"wrote {args.out} (+.meta), log {log_path}")


def _read_evaluation_set(path: str) -> np.ndarray:
    """An EMB1 file's rows as float64; a file of 0 rows is too few pairs."""
    rows = read_embeddings(path).astype(np.float64)
    if not rows.shape[0]:
        raise TooFewPairsError(f"{path}: no embeddings to evaluate (0 rows)")
    return rows


def _cmd_xsim_eval(args, vals: dict, echo: str) -> None:
    _distinct_outputs([("--src", args.src), ("--tgt", args.tgt)], ("--out", args.out))
    src = _read_evaluation_set(args.src)
    tgt = _read_evaluation_set(args.tgt)
    report = xsim_report(src, tgt, _search_config(vals))
    print(report)
    if args.out:
        write_text(args.out, [report], [echo])


def _cmd_filter(args, vals: dict, echo: str) -> None:
    budgets = [_count(b, "budget") for b in (args.budget or [])]
    if not args.scored_out and not budgets:
        raise ConfigError("nothing to do: pass --scored-out and/or --budget")
    if budgets and not args.subset_out:
        raise ConfigError("--budget requires --subset-out")
    if args.subset_out and not budgets:
        raise ConfigError("--subset-out requires --budget")
    if len(budgets) > 1 and "{budget}" not in args.subset_out:
        raise ConfigError(
            "--subset-out needs a {budget} placeholder with multiple budgets"
        )
    subsets = [(b, args.subset_out.replace("{budget}", str(b))) for b in budgets]
    budgeted = ((f"--subset-out at --budget {b}", path) for b, path in subsets)
    inputs = [
        ("--corpus", args.corpus),
        *_encoder_files("--student", args.student),
        *_encoder_files("--teacher", args.teacher),
    ]
    _distinct_outputs(inputs, ("--scored-out", args.scored_out), *budgeted)
    pairs = read_pairs_tsv(args.corpus)
    student = load_encoder(args.student)
    teacher = load_encoder(args.teacher)
    scored = score_corpus(pairs, student, teacher, _search_config(vals))
    if args.scored_out:
        write_scored_tsv(args.scored_out, scored, comments=[echo])
        print(f"wrote {args.scored_out}: n={len(scored)}")
    for budget, path in subsets:
        subset = select_by_token_budget(scored, budget)
        tokens = sum(p.target_tokens for p in subset)
        write_pairs_tsv(
            path,
            [(p.source, p.target) for p in subset],
            comments=[echo, f"budget={budget} selected={len(subset)} tokens={tokens}"],
        )
        print(f"wrote {path}: budget={budget} selected={len(subset)} tokens={tokens}")


def _cmd_analyze_hist(args, vals: dict, echo: str) -> None:
    inputs = [("--corpus", args.corpus), *_encoder_files("--teacher", args.teacher)]
    _distinct_outputs(inputs, ("--out", args.out))
    pairs = read_pairs_tsv(args.corpus)
    teacher = load_encoder(args.teacher)
    cfg = _train_config(vals)
    hist = similarity_distribution(
        [t for _, t in pairs], teacher, cfg, bins=vals["bins"]
    )
    write_histogram_csv(args.out, hist, cfg.shuffle, comments=[echo])
    print(f"wrote {args.out}: total={hist.total} bins={vals['bins']}")


def _cmd_analyze_sweep(args, vals: dict, echo: str) -> None:
    inputs = [
        ("--corpus", args.corpus),
        ("--eval-corpus", args.eval_corpus),
        *_encoder_files("--teacher", args.teacher),
    ]
    _distinct_outputs(inputs, ("--out", args.out))
    base = _train_config(vals)
    pairs = read_pairs_tsv(args.corpus)
    eval_pairs = read_pairs_tsv(args.eval_corpus)
    teacher = load_encoder(args.teacher)
    search_cfg = _search_config(vals)
    rows = threshold_sweep(
        pairs, teacher, base, vals["sigmas"], eval_pairs, search_cfg, log_fn=print
    )
    write_sweep_csv(args.out, rows, comments=[echo])
    print(f"wrote {args.out}: rows={len(rows)}")


def _cmd_gen_cipher(args, vals: dict, echo: str) -> None:
    n_pairs = _number(int, 0, high=MAX_PAIRS)(args.pairs, "pairs")
    spec = CipherSpec(
        vocab_size=vals["vocab_size"],
        min_len=vals["min_len"],
        max_len=vals["max_len"],
        map_seed=vals["map_seed"],
    )
    pairs = gen_cipher_corpus(spec, n_pairs, vals["seed"])
    write_pairs_tsv(args.out, pairs, comments=[echo, f"pairs={n_pairs}"])
    print(f"wrote {args.out}: pairs={n_pairs}")


def _cmd_gen_noise(args, vals: dict, echo: str) -> None:
    rate = _number(float, 0, high=1)(args.rate, "rate")
    outputs = ("--out", args.out), ("--labels-out", args.labels_out)
    _distinct_outputs([("--corpus", args.corpus)], *outputs)
    pairs = read_pairs_tsv(args.corpus)
    noisy = inject_noise(pairs, rate, vals["seed"])
    write_pairs_tsv(args.out, noisy.pairs, comments=[echo, f"rate={rate}"])
    if args.labels_out:
        flags = ("1" if flag else "0" for flag in noisy.labels)
        write_text(args.labels_out, flags, [f"{echo} rate={rate}"])
        print(f"wrote {args.labels_out}: noisy={noisy.noise_count}")
    print(f"wrote {args.out}: pairs={len(noisy.pairs)} noisy={noisy.noise_count}")


# ---------------------------------------------------------------------------
# subcommand table, parser construction and entry point
# ---------------------------------------------------------------------------

# One entry per leaf subcommand: (name, help, handler, file and one-shot
# flags, option keys: "seed" only where it is read).  A flag is required
# unless it ends in "?" (optional) or "*" (repeatable).  All take --config.
# An option key "key:gate=value" is read only when option gate has that value.
COMMANDS = [
    (
        "embed",
        "encode sentences to EMB1",
        _cmd_embed,
        "input encoder out",
        "format side:format=tsv",
    ),
    (
        "train",
        "distill a student encoder",
        _cmd_train,
        "corpus teacher out log?",
        "seed tau sigma:prefilter=on queue_size:negatives=queue batch_size epochs step_size"
        " negatives shuffle prefilter",
    ),
    (
        "xsim-eval",
        "alignment error between two EMB1 files",
        _cmd_xsim_eval,
        "src tgt out?",
        "k margin",
    ),
    (
        "filter",
        "score pairs and select by token budget",
        _cmd_filter,
        "corpus student teacher scored_out? subset_out? budget*",
        "k margin",
    ),
    (
        "analyze hist",
        "target-vs-queue similarity histogram",
        _cmd_analyze_hist,
        "corpus teacher out",
        "seed:shuffle=on batch_size queue_size shuffle bins",
    ),
    (
        "analyze sweep",
        "filter-threshold sweep with held-out eval",
        _cmd_analyze_sweep,
        "corpus eval_corpus teacher out",
        "seed tau queue_size:negatives=queue batch_size epochs step_size negatives shuffle"
        " sigmas k margin",
    ),
    (
        "gen-synth cipher",
        "cipher-language bitext",
        _cmd_gen_cipher,
        "out pairs",
        "seed vocab_size min_len max_len map_seed",
    ),
    (
        "gen-synth noise",
        "inject misalignments",
        _cmd_gen_noise,
        "corpus rate out labels_out?",
        "seed",
    ),
]

_GROUPS = {
    "analyze": "similarity histograms and threshold sweeps",
    "gen-synth": "synthetic corpora",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> _Parser:
    parser = _Parser(prog="bitextkit", description=__doc__)
    parser.set_defaults(func=None)
    subparsers = {"": parser.add_subparsers(dest="command")}
    for name, help_text, func, flags, keys in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            p = subparsers[""].add_parser(group, help=_GROUPS[group])
            p.set_defaults(func=None)
            subparsers[group] = p.add_subparsers(dest="mode")
        p = subparsers[group].add_parser(leaf, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for flag in flags.split():
            if flag.endswith("*"):
                p.add_argument(_flag(flag[:-1]), action="append")
            else:
                p.add_argument(_flag(flag.rstrip("?")), required=not flag.endswith("?"))
        keys = dict(word.partition(":")[::2] for word in keys.split())  # key -> "gate=value"
        for key in keys:
            p.add_argument(_flag(key))
        p.set_defaults(func=func, option_keys=keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            parser.print_usage(sys.stderr)
            return 1
        values, echo = _resolve(args)
        print(echo)
        args.func(args, values, echo)
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
