"""E13 — ready-set scheduler: parallel speedup and partial re-execution.

Regenerates: the §2.3 "smart rerun" opportunity measured four ways.

* On a wide *sleep-bound* DAG (modules block and release the GIL,
  standing in for I/O- or service-bound stages) the thread-pool backend
  must deliver >=2x wall-clock speedup at ``workers=4`` over the
  deterministic serial backend.
* On a wide *CPU-bound* DAG (pure-Python hashing/arithmetic loops that
  hold the GIL) the thread pool shows ~1x — and the process-pool backend
  must deliver >=2x at ``workers=4`` on a multi-core host (the assertion
  skips on single-core machines, where no backend can).
* A rerun against a *warm persistent result cache* — a fresh cache
  instance over the same file, as a fresh process would build — must be
  >=5x faster than the cold run, executing zero modules.
* After a single-module parameter change, a provenance-driven replay must
  execute exactly that module's downstream cone — asserted on execution
  counts, not timing — while serving everything else from the stored
  derivation record.
* Resource governance: under sustained churn a byte-bounded persistent
  cache must keep its stored payload within ``max_bytes`` after every
  put (and the closed database file within one entry plus fixed SQLite
  overhead of the budget); two concurrent runs sharing one cache file
  must compute each distinct causal signature exactly once on all three
  backends while recording byte-identical provenance; and a multi-MB
  payload must round-trip through ``backend="process"`` via spill files
  with hashes identical to the serial run.

When the ``BENCH_JSON`` environment variable names a file, the measured
numbers are dumped there so CI can archive a ``BENCH_*.json`` trajectory
across builds.
"""

import os
import time

import pytest

from benchmarks.conftest import BenchRecorder, report_row
from repro.core import ProvenanceManager
from repro.workflow import (Executor, Module, PersistentResultCache,
                            Workflow)
from repro.workflow.cache import CacheEntry
from repro.workloads import wide_workflow
from tests.conftest import build_fig1_workflow, module_by_name

#: Wide sleep-bound DAG: 8 independent branches x 2 stages of 40ms sleeps.
BRANCHES = 8
DEPTH = 2
SLEEP = 0.04
#: CPU-bound variant: SpinCompute busy-loop units per stage (~60-100ms of
#: pure-Python arithmetic that never releases the GIL).
CPU_WORK = 1_200_000

_record = BenchRecorder("E13-scheduler", branches=BRANCHES, depth=DEPTH)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_parallel_speedup(registry):
    """workers=4 on a wide sleep-bound DAG is >=2x faster than serial."""
    workflow = wide_workflow(branches=BRANCHES, depth=DEPTH, sleep=SLEEP)
    executor = Executor(registry)
    serial_result, serial_seconds = _timed(
        lambda: executor.execute(workflow))
    parallel_result, parallel_seconds = _timed(
        lambda: executor.execute(workflow, workers=4))
    assert serial_result.status == "ok"
    assert parallel_result.status == "ok"
    statuses = lambda result: {m: r.status  # noqa: E731
                               for m, r in result.results.items()}
    assert statuses(serial_result) == statuses(parallel_result)
    speedup = serial_seconds / parallel_seconds
    report_row("E13", op="wide-dag", modules=BRANCHES * DEPTH + 1,
               serial_s=round(serial_seconds, 3),
               workers4_s=round(parallel_seconds, 3),
               speedup=round(speedup, 2))
    _record(sleep_serial_s=round(serial_seconds, 3),
            sleep_thread4_s=round(parallel_seconds, 3),
            sleep_thread_speedup=round(speedup, 2))
    assert speedup >= 2.0, (
        f"expected >=2x speedup with workers=4, got {speedup:.2f}x "
        f"({serial_seconds:.3f}s serial vs {parallel_seconds:.3f}s)")


def test_process_pool_cpu_speedup(registry):
    """workers=4 processes beat serial >=2x on pure-Python CPU work.

    The same workload through the thread pool stays ~1x (the GIL
    serializes it) — reported alongside for the comparison row.  All
    three backends must agree on every module status; the speedup
    assertion needs real cores and skips on single-core hosts.
    """
    workflow = wide_workflow(branches=BRANCHES, depth=DEPTH, work=CPU_WORK)
    executor = Executor(registry)
    serial_result, serial_seconds = _timed(
        lambda: executor.execute(workflow))
    thread_result, thread_seconds = _timed(
        lambda: executor.execute(workflow, workers=4))
    process_result, process_seconds = _timed(
        lambda: executor.execute(workflow, workers=4, backend="process"))
    statuses = lambda result: {m: r.status  # noqa: E731
                               for m, r in result.results.items()}
    assert statuses(serial_result) == statuses(thread_result) \
        == statuses(process_result)
    thread_speedup = serial_seconds / thread_seconds
    process_speedup = serial_seconds / process_seconds
    report_row("E13", op="cpu-dag", modules=BRANCHES * DEPTH + 1,
               serial_s=round(serial_seconds, 3),
               thread4_s=round(thread_seconds, 3),
               thread_speedup=round(thread_speedup, 2),
               process4_s=round(process_seconds, 3),
               process_speedup=round(process_speedup, 2),
               cores=os.cpu_count())
    _record(cpu_serial_s=round(serial_seconds, 3),
            cpu_thread4_s=round(thread_seconds, 3),
            cpu_thread_speedup=round(thread_speedup, 2),
            cpu_process4_s=round(process_seconds, 3),
            cpu_process_speedup=round(process_speedup, 2),
            cores=os.cpu_count())
    if (os.cpu_count() or 1) < 4:
        # 4 workers on 2-3 cores cap below the asserted bar before
        # spawn/pickling overhead; statuses are already verified identical
        pytest.skip("process-pool >=2x assert needs >=4 cores")
    assert process_speedup >= 2.0, (
        f"expected >=2x process-pool speedup with workers=4, got "
        f"{process_speedup:.2f}x ({serial_seconds:.3f}s serial vs "
        f"{process_seconds:.3f}s; thread pool: {thread_seconds:.3f}s)")


def test_warm_persistent_cache_rerun_speedup(registry, tmp_path):
    """A fresh-process rerun against a warm persistent cache is >=5x.

    The warm executor holds a *new* PersistentResultCache instance over
    the same file — exactly what a fresh OS process would construct — and
    must re-execute nothing.
    """
    path = str(tmp_path / "memo.db")
    workflow = wide_workflow(branches=BRANCHES, depth=DEPTH,
                             work=CPU_WORK // 4)
    cold_executor = Executor(registry, cache=PersistentResultCache(path))
    cold_result, cold_seconds = _timed(
        lambda: cold_executor.execute(workflow))
    assert cold_result.status == "ok"
    warm_executor = Executor(registry, cache=PersistentResultCache(path))
    warm_result, warm_seconds = _timed(
        lambda: warm_executor.execute(workflow))
    assert all(module_result.status == "cached"
               for module_result in warm_result.results.values())
    assert warm_result.executed_modules() == []
    speedup = cold_seconds / warm_seconds
    report_row("E13", op="warm-persistent-cache",
               modules=BRANCHES * DEPTH + 1,
               cold_s=round(cold_seconds, 3),
               warm_s=round(warm_seconds, 4),
               speedup=round(speedup, 1))
    _record(cache_cold_s=round(cold_seconds, 3),
            cache_warm_s=round(warm_seconds, 4),
            cache_speedup=round(speedup, 1))
    assert speedup >= 5.0, (
        f"expected >=5x warm-persistent-cache speedup, got {speedup:.1f}x "
        f"({cold_seconds:.3f}s cold vs {warm_seconds:.4f}s warm)")


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_scheduler_scaling(benchmark, registry, workers):
    """pytest-benchmark timings of the wide DAG across worker counts."""
    workflow = wide_workflow(branches=BRANCHES, depth=DEPTH,
                             sleep=SLEEP / 4)
    executor = Executor(registry, workers=workers)
    result = benchmark(lambda: executor.execute(workflow))
    assert result.status == "ok"
    report_row("E13", op="scaling", workers=workers,
               modules=BRANCHES * DEPTH + 1)


#: Byte-budget churn bench: payload size and budget sized so SQLite page
#: overhead is small relative to the budget.
CHURN_BUDGET = 1 << 20
CHURN_PAYLOAD = 128 * 1024
CHURN_PUTS = 64


def test_cache_byte_budget_bounds_file_under_churn(tmp_path):
    """Sustained churn never pushes the cache past its byte budget.

    The invariant is asserted on stored payload bytes after *every* put
    (the budget is exact there) and, once closed, on the database file
    itself, which must stay within the budget plus one entry and fixed
    SQLite overhead — eviction with ``auto_vacuum`` returns pages, so
    the file tracks content instead of high-water marks.
    """
    path = tmp_path / "budget.db"
    cache = PersistentResultCache(path, max_entries=None,
                                  max_bytes=CHURN_BUDGET)
    start = time.perf_counter()
    for index in range(CHURN_PUTS):
        cache.put(f"k{index}", CacheEntry(
            outputs={"out": ("%04d" % index) * (CHURN_PAYLOAD // 4)},
            output_hashes={"out": f"hash-{index}"},
            source_execution=f"exec-{index}"))
        assert cache.total_bytes() <= CHURN_BUDGET
    churn_seconds = time.perf_counter() - start
    evictions = cache.stats.evictions
    assert evictions > 0
    cache.close()
    file_size = path.stat().st_size
    overhead_allowance = CHURN_PAYLOAD + 64 * 1024
    report_row("E13", op="byte-budget-churn", puts=CHURN_PUTS,
               budget=CHURN_BUDGET, file_size=file_size,
               evictions=evictions, churn_s=round(churn_seconds, 3))
    _record(budget_bytes=CHURN_BUDGET, budget_file_size=file_size,
            budget_evictions=evictions,
            budget_churn_s=round(churn_seconds, 3))
    assert file_size <= CHURN_BUDGET + overhead_allowance, (
        f"cache file grew past its byte budget: {file_size} bytes "
        f"vs {CHURN_BUDGET} budget (+{overhead_allowance} allowance)")


def test_concurrent_runs_share_cache_compute_once(registry, tmp_path):
    """Two concurrent runs on one cache file, on every backend: each
    distinct causal signature computes exactly once across both runs,
    and both record byte-identical provenance (asserted by the same
    harness the scheduler tests and hypothesis property use)."""
    from tests.conftest import (assert_each_key_computed_once,
                                run_pair_sharing_cache)
    for kind, kwargs in (("serial", {}),
                         ("thread", {"workers": 4}),
                         ("process", {"workers": 2,
                                      "backend": "process"})):
        path = str(tmp_path / f"shared-{kind}.db")
        workflow = wide_workflow(branches=4, depth=2, work=80_000)
        start = time.perf_counter()
        runs = run_pair_sharing_cache(
            registry, lambda: PersistentResultCache(path), workflow,
            **kwargs)
        seconds = time.perf_counter() - start
        assert_each_key_computed_once(runs)
        keys = {r.cache_key for run in runs
                for r in run.results.values()}
        computed_total = sum(
            1 for run in runs for r in run.results.values()
            if r.status == "ok")
        report_row("E13", op="lease-exactly-once", backend=kind,
                   distinct_keys=len(keys), computed=computed_total,
                   runs=2, seconds=round(seconds, 3))
        _record(**{f"lease_{kind}_keys": len(keys),
                   f"lease_{kind}_computed": computed_total,
                   f"lease_{kind}_s": round(seconds, 3)})


#: Large-payload bench: a 4 MB artifact crossing the process boundary.
PAYLOAD_BYTES = 4 * 1024 * 1024


def test_large_payload_roundtrip_via_spill(registry):
    """A multi-MB artifact round-trips through the process backend as a
    spill-file reference with hashes identical to the serial run."""
    workflow = Workflow("payload")
    blob = workflow.add_module(Module("MakeBlob", name="blob",
                                      parameters={"size": PAYLOAD_BYTES}))
    passthrough = workflow.add_module(Module("Identity", name="pass"))
    workflow.connect(blob.id, "value", passthrough.id, "value")
    executor = Executor(registry, payload_spill_threshold=256 * 1024)
    serial_result, serial_seconds = _timed(
        lambda: executor.execute(workflow))
    process_result, process_seconds = _timed(
        lambda: executor.execute(workflow, workers=2, backend="process"))
    assert serial_result.status == process_result.status == "ok"
    fingerprints = [
        {m: {p: r.value_hash for p, r in res.outputs.items()}
         for m, res in result.results.items()}
        for result in (serial_result, process_result)]
    assert fingerprints[0] == fingerprints[1]
    report_row("E13", op="large-payload-spill",
               payload_mb=PAYLOAD_BYTES // (1024 * 1024),
               serial_s=round(serial_seconds, 3),
               process_s=round(process_seconds, 3))
    _record(payload_mb=PAYLOAD_BYTES // (1024 * 1024),
            payload_serial_s=round(serial_seconds, 3),
            payload_process_s=round(process_seconds, 3))


def test_partial_rerun_executes_only_stale_cone():
    """A one-module change replays exactly its downstream cone.

    Counted on execution statuses: stale modules are ``ok`` (computed),
    everything upstream/parallel is ``cached`` (reused from provenance).
    """
    manager = ProvenanceManager(use_cache=False)
    workflow = build_fig1_workflow(size=12)
    original = manager.run(workflow)
    iso = module_by_name(workflow, "iso")

    new_run, plan = manager.rerun(
        original.id, parameter_overrides={iso.id: {"level": 55.0}})

    expected_cone = {iso.id} | set(workflow.downstream_modules(iso.id))
    executed = set(manager.last_engine_result.executed_modules())
    reused = set(manager.last_engine_result.reused_modules())
    assert executed == expected_cone
    assert reused == set(workflow.modules) - expected_cone
    assert len(executed) + len(reused) == len(workflow.modules)
    report_row("E13", op="partial-rerun", modules=len(workflow.modules),
               executed=len(executed), reused=len(reused),
               plan=plan.summary())


def test_partial_rerun_scales_with_cone_not_workflow():
    """Replay work tracks the stale cone even as the workflow grows."""
    manager = ProvenanceManager(use_cache=False)
    workflow = wide_workflow(branches=12, depth=3, sleep=0.0, work=5)
    original = manager.run(workflow)
    # change the middle stage of one branch: its cone is that branch's tail
    target = module_by_name(workflow, "b04s01")
    manager.rerun(original.id,
                  parameter_overrides={target.id: {"work": 9}})
    executed = set(manager.last_engine_result.executed_modules())
    assert executed == {target.id} | set(
        workflow.downstream_modules(target.id))
    assert len(executed) == 2  # stage + tail, out of 37 modules
    report_row("E13", op="cone-scaling", modules=len(workflow.modules),
               executed=len(executed),
               reused=len(workflow.modules) - len(executed))
