"""Smoke test of the benchmark harness at tiny sizes (about two minutes).

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced, with 3 replicates per
simulate call and half a second of measurement. The test checks that every
metric BENCHMARK.json names is emitted with its unit and that no operation
fails. A unit test checks the tracer's self-time accounting.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_excludes_children_and_hooks():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02), hook=lambda a, k: time.sleep(0.2))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", outer_body)
    start = time.perf_counter_ns()
    outer()
    wall = time.perf_counter_ns() - start
    inner_s, outer_s = tracer.self_ns["inner"] / 1e9, tracer.self_ns["outer"] / 1e9
    # a hook charged to either span would add 0.2 s to it
    assert 0.02 <= inner_s < 0.2
    assert 0.01 <= outer_s < 0.2
    assert dict(tracer.calls) == {"inner": 1, "outer": 1}
    assert tracer.self_ns["inner"] + tracer.self_ns["outer"] <= wall - 0.2e9


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_nothing_fails(workload, trace):
    result = bench.run(workload, 1, 0.5, trace, ROOT, reps=3)["result"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"]
    if trace:
        assert 0.0 < metrics["trace.coverage_frac"]["value"] <= 1.0
    else:
        assert all(v["value"] > 0 for v in metrics.values())
