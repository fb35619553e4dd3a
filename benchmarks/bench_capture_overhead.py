"""E1 — provenance capture overhead vs. workflow size and module cost.

Regenerates: the §2.2 claim that engine-level instrumentation is cheap.
Shape: overhead percentage falls as per-module compute grows (capture cost
is per-module, compute cost is per-work-unit).

The high-rate section measures capture at 10k modules/run: the median of
several alternating plain/captured runs must stay within a fixed overhead
budget of the uninstrumented engine.  A firehose (a prebuilt 10k-module
engine result handed straight to the capture, no engine in the way)
records capture's cost per module — run conversion and the workflow
snapshot; it asserts nothing.

When the ``BENCH_JSON`` environment variable names a file, the measured
numbers are dumped there so CI can archive a ``BENCH_*.json`` trajectory
across builds.
"""

import statistics
import time

import pytest

from benchmarks.conftest import BenchRecorder, report_row
from repro.core import ProvenanceCapture
from repro.workflow import Executor
from repro.workflow.engine import ModuleResult, RunResult, ValueRecord
from repro.workflow.spec import Module, Workflow
from repro.workloads import chain_workflow, random_workflow

#: High-rate workload size (the ISSUE's 10k-modules/run scenario).
HIGH_RATE_MODULES = 10_000
#: Hot-path overhead budget for capture vs. no capture at all.
OVERHEAD_BUDGET_PCT = 15.0
#: Alternating plain/captured pairs behind each 10k-module median; one
#: shot on a shared host swings the overhead by tens of percent.
HIGH_RATE_REPEATS = 7

_record = BenchRecorder("E1-capture", modules=HIGH_RATE_MODULES)


@pytest.mark.parametrize("length", [10, 40])
def test_chain_no_capture(benchmark, registry, length):
    workflow = chain_workflow(length, work=200)
    executor = Executor(registry)
    benchmark(lambda: executor.execute(workflow))
    report_row("E1", variant="no-capture", modules=length + 1)


@pytest.mark.parametrize("length", [10, 40])
def test_chain_with_capture(benchmark, registry, length):
    workflow = chain_workflow(length, work=200)
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    executor = Executor(registry, listeners=[capture])
    benchmark(lambda: executor.execute(workflow))
    report_row("E1", variant="with-capture", modules=length + 1)


@pytest.mark.parametrize("work", [0, 500, 5000])
def test_overhead_shrinks_with_module_cost(registry, work):
    workflow = random_workflow(modules=20, seed=1, work=work)
    plain = Executor(registry)
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    captured = Executor(registry, listeners=[capture])

    def timed(executor, repeats=3):
        start = time.perf_counter()
        for _ in range(repeats):
            executor.execute(workflow)
        return (time.perf_counter() - start) / repeats

    baseline = timed(plain)
    instrumented = timed(captured)
    overhead = (instrumented - baseline) / baseline * 100.0
    report_row("E1", work_units=work,
               baseline_ms=f"{baseline * 1000:.2f}",
               capture_ms=f"{instrumented * 1000:.2f}",
               overhead_pct=f"{overhead:.1f}")


def test_value_retention_cost(benchmark, registry):
    """keep_values=True must only add copying, not change asymptotics."""
    workflow = random_workflow(modules=20, seed=2, work=50)
    capture = ProvenanceCapture(registry=registry, keep_values=True)
    executor = Executor(registry, listeners=[capture])
    benchmark(lambda: executor.execute(workflow))
    report_row("E1", variant="keep-values",
               values=len(capture.last_run().values))


# -- high-rate capture ---------------------------------------------------

def _median_and_spread(samples):
    """Median and interquartile distance of ``samples``, in ms."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return round(median * 1000, 1), round((q3 - q1) * 1000, 1)


def test_capture_overhead_10k(registry):
    """At 10k modules/run, capture stays within the hot-path overhead
    budget of an uninstrumented engine, median of alternating repeats."""
    workflow = chain_workflow(HIGH_RATE_MODULES - 1, work=5)

    def timed_execute(listeners):
        executor = Executor(registry, listeners=listeners)
        start = time.perf_counter()
        executor.execute(workflow)
        return time.perf_counter() - start

    def timed_capture():
        capture = ProvenanceCapture(registry=registry, keep_values=False)
        elapsed = timed_execute([capture])
        assert len(capture.last_run().executions) == HIGH_RATE_MODULES
        return elapsed

    plain, sync = [], []
    for repeat in range(HIGH_RATE_REPEATS):
        # alternate which side runs first so drift hits both equally
        if repeat % 2:
            sync.append(timed_capture())
            plain.append(timed_execute([]))
        else:
            plain.append(timed_execute([]))
            sync.append(timed_capture())
    plain_ms, plain_spread = _median_and_spread(plain)
    sync_ms, sync_spread = _median_and_spread(sync)
    overhead = (sync_ms - plain_ms) / plain_ms * 100.0
    _record(repeats=HIGH_RATE_REPEATS,
            plain_ms=plain_ms, plain_iqr_ms=plain_spread,
            sync_ms=sync_ms, sync_iqr_ms=sync_spread,
            sync_overhead_pct=round(overhead, 1))
    report_row("E1", variant="10k-hot-path",
               plain_ms=f"{plain_ms:.0f}+-{plain_spread:.0f}",
               sync_ms=f"{sync_ms:.0f}+-{sync_spread:.0f}",
               sync_overhead_pct=f"{overhead:.1f}")
    assert overhead <= OVERHEAD_BUDGET_PCT, (
        f"capture overhead {overhead:.1f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget")


def _firehose_result(modules):
    """A synthetic 10k-execution engine result with prebuilt hashes, so
    the firehose measures capture cost, not hashing or module compute."""
    workflow = Workflow("firehose")
    results = {}
    order = []
    previous_record = ValueRecord(value=0, value_hash="h-source")
    for index in range(modules):
        module = workflow.add_module(Module("Identity",
                                            name=f"m{index:05d}"))
        record = ValueRecord(value=index, value_hash=f"h{index:06d}")
        results[module.id] = ModuleResult(
            module_id=module.id, execution_id=f"exec-{index:06d}",
            status="ok", inputs={"value": previous_record},
            outputs={"value": record}, started=float(index),
            finished=float(index) + 0.5)
        order.append(module.id)
        previous_record = record
    return RunResult(run_id="run-firehose", workflow=workflow,
                     status="ok", results=results, order=order,
                     environment={}, started=0.0, finished=float(modules))


def test_firehose_capture_cost(registry):
    """Firehose: records capture's cost per module of a finished run —
    the capture listens for run ends only, so this is its whole cost.
    A record, not a gate."""
    result = _firehose_result(HIGH_RATE_MODULES)
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    start = time.perf_counter()
    capture.on_run_finish(result)
    elapsed = time.perf_counter() - start
    modules = len(result.order)
    per_module_us = elapsed / modules * 1e6
    _record(firehose_sync_ms=round(elapsed * 1000, 1),
            firehose_modules=modules,
            firehose_us_per_module=round(per_module_us, 2))
    report_row("E1", variant="firehose",
               sync_ms=f"{elapsed * 1000:.0f}", modules=modules,
               us_per_module=f"{per_module_us:.2f}")
