"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
from workloads import WHY, WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = _run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in expected)
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    if not trace:
        for m in expected:
            assert metrics[m["name"]]["value"] != 0, m["name"]


def test_workload_list_matches_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WHY
    assert sorted(WHY) == sorted(WORKLOADS)


def _reference_rounds(name: str, rounds: int | None = None) -> list:
    workload = WORKLOADS[name](1, True)
    count = rounds or workload.min_rounds
    return [
        checks.normalize(workload.round(i).modeled) for i in range(count)
    ]


def test_perturbed_reference_is_rejected():
    reference = _reference_rounds("fullgraph-spill")
    assert checks.first_difference(reference, json.loads(json.dumps(reference))) is None
    value = reference[1]["iterations"][5][1]
    perturbed = json.loads(json.dumps(reference))
    perturbed[1]["iterations"][5][1] = float(np.nextafter(value, np.inf))
    diff = checks.first_difference(reference, perturbed, "rounds")
    assert diff is not None and diff.startswith("rounds[1].iterations[5][1]")
    retyped = json.loads(json.dumps(reference))
    retyped[0]["counters"]["storage_requests"] = float(
        retyped[0]["counters"]["storage_requests"]
    )
    assert checks.first_difference(reference, retyped) is not None
    shorter = json.loads(json.dumps(reference))
    shorter[0]["iterations"].pop()
    assert checks.first_difference(reference, shorter) is not None


def test_conservation_laws_catch_a_lost_page():
    workload = WORKLOADS["gids-train"](1, True)
    modeled = checks.normalize(workload.round(0).modeled)
    assert checks.conservation_errors(workload, 0, modeled) == []
    modeled["gids"]["counters"]["storage_requests"] -= 1
    assert checks.conservation_errors(workload, 0, modeled)


def _attributes():
    """Identity of every wrapped attribute, as its owner holds it."""
    state = {}
    for functions in tracing.LAYERS.values():
        for module_name, path in functions:
            owner, attr = tracing._resolve(module_name, path)
            state[(module_name, path)] = vars(owner).get(attr, "<inherited>")
    return state


def test_wrappers_leave_no_patched_attribute_behind():
    before = _attributes()
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        during = _attributes()
        assert all(during[key] is not before[key] for key in before)
    finally:
        recorder.uninstall()
    after = _attributes()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", ["gids-train", "serve-degraded"])
def test_traced_and_untraced_runs_model_identically(name):
    untraced = _reference_rounds(name)
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        traced = _reference_rounds(name)
    finally:
        recorder.uninstall()
    assert checks.first_difference(untraced, traced) is None
    totals = recorder.layer_totals()
    assert totals["sampling"]["calls"] > 0
    assert totals["cache.belady"]["calls"] == 0


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    recorder = tracing.SpanRecorder(clock=lambda: next(ticks))
    with recorder.phase("bench.setup"):
        with recorder.phase("bench.check"):
            pass
    totals = recorder.layer_totals()
    assert totals["bench.setup"]["self_s"] == 7.0
    assert totals["bench.check"]["self_s"] == 3.0
    assert recorder.top_level_s() == 10.0

