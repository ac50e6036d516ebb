"""Smoke run of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/tests -q

Runs in about half a minute; it checks the harness, not the program's speed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], name=f"smoke_{name}", **changes)


@pytest.fixture(scope="module")
def oracle_result():
    return bench.run_workload(tiny("oracle_suite", seeds_per_task=3), seed=2, seconds=0.01, trace=True, setup_repeats=1)


@pytest.fixture(scope="module")
def perception_result():
    return bench.run_workload(tiny("perception_noisy", max_loops=2), seed=0, seconds=0.01, trace=True, setup_repeats=1)


@pytest.mark.parametrize("fixture", ["oracle_result", "perception_result"])
def test_tiny_run_is_correct_and_reports_every_declared_metric(fixture, request):
    result = request.getfixturevalue(fixture)
    assert result["problems"] == []
    assert result["failed"] == 0
    for kind, produced in (("end_to_end", result["end_to_end"]), ("per_layer", result["per_layer"])):
        assert set(produced) == {m["name"] for m in SPEC[kind]}
    for name, value in result["end_to_end"].items():
        assert value > 0, name
    line = bench.summary_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_oracle_estimates_are_the_true_addresses(oracle_result):
    q = oracle_result["reported"]
    assert q["lift_miss_frac"] == 0.0 and q["tip_error_mm_max"] == 0.0
    assert q["success_rate"] == 1.0
    assert oracle_result["per_layer"]["registration.solve_ms_p50"]["value"] == 0.0
    assert oracle_result["per_layer"]["planning.plan_calls"]["value"] >= 1.0


def test_perception_layers_are_traced(perception_result):
    layers = {k: v["value"] for k, v in perception_result["per_layer"].items()}
    assert layers["registration.solve_ms_p50"] > 0.0
    assert layers["registration.lm_steps_p50"] >= 1
    assert layers["perception.thin_vessel_ms_p50"] > 0.0
    assert 0.0 < layers["registration.share"] < 1.0
    assert perception_result["reported"]["success_rate"] is None
    assert perception_result["reported"]["loop_ms_p50"] > 0.0
    assert "solver" in perception_result["fingerprints"]


def test_same_seed_gives_same_fingerprint(oracle_result):
    again = bench.run_workload(tiny("oracle_suite", seeds_per_task=3), seed=2, seconds=0.01, trace=False, setup_repeats=1)
    assert again["fingerprints"]["records"] == oracle_result["fingerprints"]["records"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_suite", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
