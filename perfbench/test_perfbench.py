"""Self-tests of the benchmark: tiny runs emit every declared metric, and
corrupted library outputs trip the matching check.

Run with ``python3 -m pytest perfbench``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

assert run.use_checkout_sources()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(name, trace=False):
    result, _ = run.run_workload(name, seed=5, seconds=0.01, trace=trace, scale="tiny")
    return result


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_declared_metric(name, trace):
    result = tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


def test_declared_workloads_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


def _assert_tripped(result):
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["passed_frac"]["value"] < 1.0


def test_permuted_alignment_fails_the_oracle(monkeypatch):
    align = workloads.margin.align

    def permuted(*args, **kwargs):
        picks, scores = align(*args, **kwargs)
        return np.roll(picks, 1), scores

    monkeypatch.setattr(workloads.margin, "align", permuted)
    _assert_tripped(tiny("mine"))


def test_over_budget_selection_fails(monkeypatch):
    monkeypatch.setattr(
        workloads.filtering, "select_by_token_budget", lambda scored, budget: list(scored)
    )
    _assert_tripped(tiny("filter"))


def test_non_finite_epoch_loss_fails(monkeypatch):
    train = workloads.trainer.train_distill

    def diverged(*args, **kwargs):
        result = train(*args, **kwargs)
        result.epoch_losses[-1] = float("nan")
        return result

    monkeypatch.setattr(workloads.trainer, "train_distill", diverged)
    _assert_tripped(tiny("distill"))


def test_nondeterministic_output_fails(monkeypatch):
    train = workloads.trainer.train_distill
    calls = []

    def drifting(*args, **kwargs):
        result = train(*args, **kwargs)
        calls.append(1)
        result.student.weights[0, 0] += len(calls)
        return result

    monkeypatch.setattr(workloads.trainer, "train_distill", drifting)
    # the traced operation's weights differ from the untraced one's
    result = tiny("distill", trace=True)
    assert not result["correct"] and result["failed"] >= 1


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("a", 0.0, 10.0, -1, "op"),
        tracing.Span("b", 1.0, 4.0, 0, "op"),
        tracing.Span("d", 2.0, 3.0, 1, "op"),
        tracing.Span("c", 5.0, 6.0, 0, "op"),
    ]
    assert tracer.self_times().tolist() == [6.0, 2.0, 1.0, 1.0]


def test_uninstall_restores_every_function():
    before = {
        (m.__name__, a): getattr(m, a) for attrs, _ in tracing.TARGETS.values() for m, a in attrs
    }
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(sys.modules[m], a) is not fn for (m, a), fn in before.items())
    tracer.uninstall()
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in before.items())


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
