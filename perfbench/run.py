"""Run one bitextkit benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mine --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all   # every workload, each in a fresh process

The package is imported from the checkout's ``src/`` directory; without it
the run exits with code 2.  A run sets the workload up at least three
times and for at least a second (``setup_s`` is the median), runs an
untimed warm-up if the workload has one, then repeats the workload's
operation until ``--seconds`` have passed, checking every output, and
evaluates the last one.  With ``--trace 1`` it then makes one more pass
(set-up, operation, evaluation) with spans recorded around every public
library call and reports per-layer metrics instead of end-to-end ones.

Human-readable lines (environment, the workload's own metrics by name)
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
record of the run are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("distill", "mine", "filter")
# Set up at least MIN_SETUPS times and until MIN_SETUP_S seconds have gone
# to it, so that a set-up of a tenth of a second still gets a steady median.
MIN_SETUPS = 3
MIN_SETUP_S = 1.0


def use_checkout_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "bitextkit", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


# ---------------------------------------------------------------------------
# run record: environment
# ---------------------------------------------------------------------------


def _blas() -> tuple[str, int | None]:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    """Digest of the package sources, which identifies the code outside git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bitextkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    from bitextkit import hashing

    import workloads

    blas, blas_threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "hash_backend": getattr(hashing, "BACKEND", "n/a"),
        "compiled_vs_pure_check": "run" if workloads.hash_backends() else "skipped",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations; a failed check fails its op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, fn):
        """Run fn(); return (value, wall seconds), value None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn()
        except Exception:
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return None, time.perf_counter() - start
        return value, time.perf_counter() - start

    def check(self, label: str, failures: list[str]) -> None:
        """Count an already-attempted op as failed when it has failures."""
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"FAILED {label}: {msg}", file=sys.stderr)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run one workload; returns (result object, human-readable lines)."""
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    ledger = Ledger()
    lines = [f"env {json.dumps(environment(seed))}"]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = workloads.WORKLOADS[name](seed, workloads.SCALES[scale], workdir)

        setup_walls = []
        while len(setup_walls) < MIN_SETUPS or sum(setup_walls) < MIN_SETUP_S:
            _, wall = ledger.attempt(f"setup {len(setup_walls)}", wl.setup)
            setup_walls.append(wall)
        if ledger.failed:
            raise RuntimeError(f"{name}: set-up failed")

        ops, timed, op_walls = [], [], []

        def attempt_op(label: str):
            if ops:
                ops[-1].data = None  # only the last output is evaluated
            out, wall = ledger.attempt(label, wl.op)
            if out is not None:
                failures = list(out.failures)
                if ops and out.digest != ops[0].digest:
                    failures.append("output differs from the first operation's")
                ledger.check(label, failures)
                ops.append(out)
            return out, wall

        warmup, warmup_wall = getattr(wl, "warmup", None), 0.0
        if warmup is not None:
            failures, warmup_wall = ledger.attempt("warm-up", warmup)
            ledger.check("warm-up", failures or [])
        start = time.perf_counter()
        while not op_walls or time.perf_counter() - start < seconds:
            out, wall = attempt_op(f"op {len(op_walls)}")
            op_walls.append(wall)
            if out is not None:
                timed.append(out)
        if not timed:
            raise RuntimeError(f"{name}: every timed operation raised")

        evaluation, eval_wall = ledger.attempt("evaluation", lambda: wl.evaluate(timed))
        if evaluation is None:
            raise RuntimeError(f"{name}: evaluation raised")
        ledger.check("evaluation", evaluation.failures)

        if trace:
            per_layer, trace_lines, tracer = _traced_pass(
                wl, ledger, ops[0].digest,
                statistics.median(setup_walls) + statistics.median(op_walls) + eval_wall,
            )
            spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl.gz")
            tracer.write(spans_path)
            lines += trace_lines + [f"spans written to {os.path.relpath(spans_path, ROOT)}"]

    setup_s = statistics.median(setup_walls)
    rates = [o.items / o.seconds for o in timed]
    failed_frac = ledger.failed / ledger.attempted
    lines.append(
        f"workload {name} seed {seed} scale {scale}: {len(setup_walls)} set-ups in "
        f"{sum(setup_walls):.2f} s, warm-up {warmup_wall:.2f} s, {len(op_walls)} "
        f"operations in {sum(op_walls):.2f} s, evaluation {eval_wall:.2f} s"
    )
    lines.append("op_rates " + " ".join(f"{r:.6g}" for r in rates))
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        "failed_frac": (failed_frac, "ratio"),
        **evaluation.report,
    }
    lines += [f"metric {k} {v!r} {u}" for k, (v, u) in named.items()]

    if trace:
        metrics = per_layer
    else:
        metrics = {
            "pairs_per_s": (statistics.median(rates), "1/s"),
            "quality_pct": (evaluation.quality_pct, "%"),
            "passed_frac": (1.0 - failed_frac, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": named["peak_rss_mb"],
        }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"lines": lines, "result": result}, fh, indent=1)
    return result, lines


def _traced_pass(wl, ledger: Ledger, digest: str, untraced_wall: float):
    """One set-up, operation and evaluation with every layer call traced."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.run("setup"):
            _, setup_wall = ledger.attempt("traced setup", wl.setup)
        with tracer.run("op"):
            out, op_wall = ledger.attempt("traced op", wl.op)
        if out is None:
            raise RuntimeError("traced operation raised")
        with tracer.run("eval"):
            evaluation, eval_wall = ledger.attempt("traced evaluation", lambda: wl.evaluate([out]))
    finally:
        tracer.uninstall()
    failures = list(out.failures)
    if out.digest != digest:
        failures.append("traced output differs from the untraced output")
    ledger.check("traced op", failures)
    if evaluation is not None:
        ledger.check("traced evaluation", evaluation.failures)

    metrics = tracing.per_layer_metrics(tracing.totals(tracer))
    metrics["tracing.overhead_s"] = (setup_wall + op_wall + eval_wall - untraced_wall, "s")
    shares = tracing.layer_shares(tracing.totals(tracer, {"op"}), op_wall)
    lines = [f"layer {k} {v!r} {u}" for k, (v, u) in metrics.items()]
    lines.append(
        "op_share " + " ".join(f"{k}={v:.3f}" for k, v in sorted(shares.items()))
    )
    return metrics, lines, tracer


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _run_all(args) -> int:
    """Each workload in its own fresh process; prints every result."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not use_checkout_sources():
        print(f"error: no bitextkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    import bitextkit

    if not os.path.abspath(bitextkit.__file__).startswith(SRC + os.sep):
        print(f"error: imported bitextkit from {bitextkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
