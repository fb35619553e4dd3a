"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "dag-cold": {"modules": 40, "width": 4, "queries_per_run": 2},
    "rerun-warm": {"workflows": 2, "modules": 24, "width": 4, "work": 10},
    "service-mixed": {"corpus_runs": 40, "lineage_depth": 6,
                      "writer_modules": 12, "writer_runs": 5},
    "fanout-process": {"branches": 4, "stages": 2, "work": 50,
                       "queries_per_run": 2},
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(name, tmp_path, trace=False, plant_fault=False):
    workdir = tmp_path / f"{name}-{int(trace)}-{int(plant_fault)}"
    workdir.mkdir()
    return run.run_workload(name, seed=7, seconds=0.2, trace=trace,
                            workdir=str(workdir), sizes=TINY[name],
                            setups=1, plant_fault=plant_fault)


def test_benchmark_json_lists_every_workload():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert spec["paths"] == ["perfbench"]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", run.NAMES + run.UNGATED)
def test_every_metric_is_printed_with_its_unit(name, tmp_path):
    spec = _spec()
    plain = _run(name, tmp_path)
    assert plain["result"]["correct"], plain["notes"]["errors"]
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    printed = {k: v["unit"] for k, v in plain["result"]["metrics"].items()}
    assert printed == expected
    assert all(v["value"] > 0 for v in plain["result"]["metrics"].values())

    traced = _run(name, tmp_path, trace=True)
    assert traced["result"]["correct"], traced["notes"]["errors"]
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = traced["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # a layer that reads 0 is one the notes explain, or one the
    # workload measures as 0 by design (no lease waits in one process)
    explained = traced["notes"]["not_applicable"]
    for key, value in metrics.items():
        if value["value"] == 0 and key not in explained:
            assert key in ("cache.lease_wait_ms", "cache.leases_left",
                           "cache.hit_ratio", "cache.lease_us"), key
    for key in explained:
        assert metrics[key]["value"] == 0
    trace_file = os.path.join(ROOT, traced["notes"]["trace_file"])
    with open(trace_file) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and {"name", "ts", "dur", "args"} <= set(events[0])


@pytest.mark.parametrize("name", run.NAMES + run.UNGATED)
def test_same_seed_same_inputs(name):
    workload = workloads.WORKLOADS[name](**TINY[name])
    first = workload.fingerprint(workload.generate(3))
    assert first == workload.fingerprint(workload.generate(3))
    assert first != workload.fingerprint(workload.generate(4))


@pytest.mark.parametrize("name", run.NAMES + run.UNGATED)
def test_planted_wrong_output_counts_as_failed(name, tmp_path):
    outcome = _run(name, tmp_path, plant_fault=True)
    result = outcome["result"]
    assert result["failed"] > 0
    assert result["correct"] is False
    assert result["failed"] <= result["attempted"]


def test_sliced_percentile_ignores_a_burst_in_one_slice():
    steady = [float(i % 10) for i in range(200)]
    burst = steady[:180] + [100.0] * 20
    assert run.percentile(burst, 95) == 100.0
    assert run.sliced_percentile(burst, 95) == run.sliced_percentile(
        steady, 95)
    # too few samples for two slices: the plain percentile
    assert run.sliced_percentile(burst[:39], 95) == run.percentile(
        burst[:39], 95)
    assert run.sliced_percentile([], 50) == 0.0


def test_clone_for_ingest_matches_clone_run():
    from repro.core import ProvenanceCapture
    from repro.workflow import Executor
    from repro.workflow.modules import standard_registry
    from repro.workloads import clone_run, random_workflow

    registry = standard_registry()
    capture = ProvenanceCapture(registry=registry)
    Executor(registry, listeners=[capture]).execute(
        random_workflow(15, width=3, seed=2, work=5))
    base = capture.last_run()
    assert (workloads.clone_for_ingest(base, "x1").to_dict()
            == clone_run(base, "x1").to_dict())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
