"""E14 — fault-tolerant execution: retry overhead and recovery cost.

Regenerates: the robustness envelope of the retry/supervision layer.

* On a 100-module DAG where 10 modules each fail their first attempt
  (recovered under ``RetryPolicy(max_attempts=2)``), the faulted run
  must finish ``ok`` with statuses and output hashes identical to the
  fault-free run, and its wall clock must stay within **1.5x** of the
  fault-free baseline — retries re-pay only the failed attempts, never
  the whole graph.
* A crash-interrupted relational ingest resumed via ``resume_run`` must
  re-commit only the missing executions: the resumed writer reports the
  already-committed prefix and the store ends identical to an
  uninterrupted ingest.

When the ``BENCH_JSON`` environment variable names a file, the measured
numbers are dumped there so CI can archive a ``BENCH_*.json`` trajectory
across builds.
"""

import time

from benchmarks.conftest import BenchRecorder, report_row
from repro.storage import RelationalStore, fsck_store, resume_run
from repro.workflow import Executor, FaultPlan, RetryPolicy
from repro.workloads import wide_workflow

#: 100-module DAG: one source + 9 branches x 11 CPU-bound stages.
BRANCHES = 9
DEPTH = 11
WORK = 40_000
#: How many modules fail their first attempt in the faulted run.
FAULTS = 10
#: Acceptance bar: retried run within this factor of fault-free.
MAX_OVERHEAD = 1.5

_record = BenchRecorder("E14-faults", modules=BRANCHES * DEPTH + 1,
                        faults=FAULTS)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _fingerprint(result):
    statuses = {m: r.status for m, r in result.results.items()}
    hashes = {(m, port): record.value_hash
              for m, r in result.results.items()
              for port, record in r.outputs.items()}
    return statuses, hashes


def test_retry_overhead_within_bound(registry):
    """10 first-attempt failures on a 100-module DAG cost <=1.5x."""
    workflow = wide_workflow(branches=BRANCHES, depth=DEPTH, work=WORK)
    assert len(workflow.modules) == 100
    executor = Executor(registry)
    clean_result, clean_seconds = _timed(
        lambda: executor.execute(workflow))
    assert clean_result.status == "ok"

    victims = sorted(workflow.modules)[:FAULTS]
    plan = FaultPlan()
    for module_id in victims:
        plan.fail_module(module_id)
    faulted_executor = Executor(
        registry, retry=RetryPolicy(max_attempts=2), fault_plan=plan)
    faulted_result, faulted_seconds = _timed(
        lambda: faulted_executor.execute(workflow))

    assert faulted_result.status == "ok"
    assert _fingerprint(faulted_result) == _fingerprint(clean_result)
    retried = [m for m, r in faulted_result.results.items() if r.attempts]
    assert sorted(retried) == victims
    assert len(plan.fired_at("module")) == FAULTS

    ratio = faulted_seconds / clean_seconds
    report_row("E14", op="retry-overhead", modules=len(workflow.modules),
               faults=FAULTS, clean_s=round(clean_seconds, 3),
               faulted_s=round(faulted_seconds, 3),
               ratio=round(ratio, 2))
    _record(retry_clean_s=round(clean_seconds, 3),
            retry_faulted_s=round(faulted_seconds, 3),
            retry_ratio=round(ratio, 2))
    assert ratio <= MAX_OVERHEAD, (
        f"retried run cost {ratio:.2f}x the fault-free baseline "
        f"({faulted_seconds:.3f}s vs {clean_seconds:.3f}s); "
        f"bar is {MAX_OVERHEAD}x")


def test_resume_recommits_only_the_missing_tail(registry, tmp_path):
    """Crash-resume streams the tail, not the whole run, and converges."""
    from repro.core.capture import ProvenanceCapture
    capture = ProvenanceCapture(registry=registry)
    workflow = wide_workflow(branches=BRANCHES, depth=DEPTH, work=200)
    Executor(registry, listeners=[capture]).execute(workflow)
    run = capture.last_run()

    committed = len(run.executions) // 2
    crashed = RelationalStore(str(tmp_path / "crashed.db"))
    writer = crashed.save_run_stream(run)
    for artifact in run.artifacts.values():
        writer.add_artifact(artifact)
    for execution in run.executions[:committed]:
        writer.add_execution(execution)
    writer.flush()
    # writer abandoned: simulated coordinator crash after one batch

    assert any(i.kind == "partial-run" for i in fsck_store(crashed))
    resumed = crashed.resume_run_stream(run.id)
    already = len(resumed.already_ingested)
    resumed.abort()
    # abort() of the probe discarded the partial run; rebuild it for
    # the timed resume below
    writer = crashed.save_run_stream(run)
    for artifact in run.artifacts.values():
        writer.add_artifact(artifact)
    for execution in run.executions[:committed]:
        writer.add_execution(execution)
    writer.flush()

    _, resume_seconds = _timed(lambda: resume_run(crashed, run))
    fresh = RelationalStore(str(tmp_path / "fresh.db"))
    _, full_seconds = _timed(lambda: fresh.save_run(run))

    assert already == committed
    loaded = crashed.load_run(run.id)
    assert len(loaded.executions) == len(run.executions)
    assert fsck_store(crashed) == []
    report_row("E14", op="crash-resume", executions=len(run.executions),
               committed_before_crash=committed,
               resume_s=round(resume_seconds, 4),
               full_ingest_s=round(full_seconds, 4))
    _record(resume_committed=committed,
            resume_s=round(resume_seconds, 4),
            resume_full_ingest_s=round(full_seconds, 4))
    crashed.close()
    fresh.close()
