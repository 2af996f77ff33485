"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It runs the real measurement path on `classify lcd --p 2 --n 4` and on a
handful of equivalence queries at n=5 and n=6, checks that every metric
prints with its unit, and that a corrupted output is counted as a failed
operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SMALL_CLI = run.CliWorkload(
    "smoke-cli",
    (
        run.Invocation(
            ("classify", "lcd", "--p", "2", "--n", "4"),
            "7ffdf2444c91547b46e6ae4e2c536b00b58aa83aa2d98cd88d47209400c9ffee",
        ),
    ),
    workers=1,
    pass_s=1.0,
)
SMALL_POOL = run.CliWorkload(
    "smoke-pool",
    (run.Invocation(SMALL_CLI.invocations[0].argv + ("--workers", "2"), SMALL_CLI.invocations[0].sha256),),
    workers=2,
    pass_s=1.0,
)
SMALL_EQUIV = run.EquivWorkload("smoke-equiv", ((2, 5, 1, 2, 6), (3, 5, 1, 2, 6)), ((2, 6, 2, 2),), 1.0)


def _measure(workload, trace: bool, runner=None):
    return run.run_workload(runner or run.Runner(ROOT), workload, 7, 0.1, trace)


def _assert_metrics(result: dict, notes: list[str], units: dict) -> None:
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in notes)


def test_end_to_end_metrics_print_with_units():
    for workload in (SMALL_CLI, SMALL_EQUIV):
        result, notes = _measure(workload, trace=False)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        _assert_metrics(result, notes, run.END_TO_END_UNITS)
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_per_layer_metrics_print_with_units():
    result, notes = _measure(SMALL_CLI, trace=True)
    assert result["correct"]
    _assert_metrics(result, notes, run.PER_LAYER_UNITS)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # 1 + 15 + 35 + 15 + 1 subspaces of F_2^4, of which 10 classes are LCD
    assert metrics["fp.enumerate.count"] == 67
    assert metrics["classify.classes"] == 10
    assert metrics["equiv.canon_free.calls"] == metrics["fp.predicate.hits"]
    # two workers untraced, one untraced and one traced: three invocations
    result, notes = _measure(SMALL_POOL, trace=True)
    assert result["correct"] and result["attempted"] == 3
    assert result["metrics"]["classify.classes"]["value"] == 10
    result, notes = _measure(SMALL_EQUIV, trace=True)
    assert result["correct"]
    # 12 random pairs; 5 structured codes, each as an equivalent pair, and 5
    # inequivalent pairs drawn from the one pair with equal enumerators
    assert result["metrics"]["equiv.equivalent.calls"]["value"] == 12 + 5 + 5
    assert result["metrics"]["fp.enumerate.count"]["value"] == 0


def test_passes_follow_seconds_and_every_round_is_checked():
    # pass_s is 1.0, so a run of 2.5 s makes two passes; each query is an
    # operation in each round, and the CLI invocation one in each pass
    result, notes = run.run_workload(run.Runner(ROOT), SMALL_EQUIV, 7, 2.5, False)
    assert result["correct"] and result["attempted"] == 2 * (12 + 5 + 5)
    assert any(line.startswith("passes=2 ") for line in notes)
    result, _ = run.run_workload(run.Runner(ROOT), SMALL_CLI, 7, 2.5, False)
    assert result["correct"] and result["attempted"] == 2


class CorruptStdout(run.Runner):
    def child(self, mode, args, trace_as, stdin=None):
        wall, out = super().child(mode, args, trace_as, stdin)
        out["stdout"] = out["stdout"].replace("classes", "classes.", 1)
        return wall, out


class CorruptWitness(run.Runner):
    def child(self, mode, args, trace_as, stdin=None):
        wall, out = super().child(mode, args, trace_as, stdin)
        answers = out["witness_ok"][0]
        answers[answers.index(True)] = False
        return wall, out


def test_corrupted_outputs_count_as_failed():
    result, _ = _measure(SMALL_CLI, trace=False, runner=CorruptStdout(ROOT))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    result, _ = _measure(SMALL_EQUIV, trace=False, runner=CorruptWitness(ROOT))
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] == 1 - 1 / result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "equiv-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
