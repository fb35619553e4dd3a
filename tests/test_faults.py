"""Fault-tolerant execution: retry policies, fault injection, recovery.

The fault matrix here is the tentpole contract: for every injected
failure mode (module exception x N, worker kill, timeout, torn cache
write, stolen lease) across serial/thread/process backends, the engine
recovers with exactly-once artifact computation, attempt-tagged
provenance, and artifacts/lineage identical to a fault-free run.
"""

from __future__ import annotations

import threading
import time

import pytest

from tests.conftest import (build_chain_workflow, build_fig1_workflow,
                            module_by_name)
from repro.core.capture import ProvenanceCapture
from repro.storage import (MemoryStore, RelationalStore, fsck_cache,
                           fsck_store, resume_run)
from repro.workflow import (Executor, FaultInjected, FaultPlan, FaultSpec,
                            HardCrash, Module, ModuleContext,
                            PersistentResultCache, ResultCache, RetryPolicy,
                            Workflow, resolve_retry)

BACKENDS = [("serial", {}),
            ("thread", {"workers": 2}),
            ("process", {"workers": 2, "backend": "process"})]


def _engine_fingerprint(result):
    """Timing- and id-independent digest of an engine run."""
    statuses = {m: r.status for m, r in result.results.items()}
    hashes = {(m, port): record.value_hash
              for m, r in result.results.items()
              for port, record in r.outputs.items()}
    return statuses, hashes


def _final_provenance_fingerprint(run):
    """Id-independent digest of a captured run, attempts excluded."""
    executions = sorted(
        (e.module_id, e.status,
         tuple(sorted((b.port, run.artifacts[b.artifact_id].value_hash)
                      for b in e.outputs)))
        for e in run.executions if not e.attempt)
    artifact_hashes = sorted(a.value_hash for a in run.artifacts.values())
    return executions, artifact_hashes


class TestRetryPolicy:
    def test_defaults_mean_single_attempt(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.timeout is None
        assert policy.delay("m", 1) == 0.0

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(max_attempts=5, backoff=1.0,
                             backoff_factor=2.0, backoff_max=3.0)
        assert policy.delay("m", 1) == 1.0
        assert policy.delay("m", 2) == 2.0
        assert policy.delay("m", 3) == 3.0  # capped
        assert policy.delay("m", 4) == 3.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=2, backoff=1.0, jitter=0.5)
        first = policy.delay("module-a", 1)
        assert first == policy.delay("module-a", 1)
        assert 1.0 <= first < 1.5
        # different module or attempt draws a different (but stable) value
        assert first != policy.delay("module-b", 1)
        assert first != policy.delay("module-a", 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)

    def test_resolve_retry(self):
        everywhere = RetryPolicy(max_attempts=3)
        special = RetryPolicy(max_attempts=5)
        assert resolve_retry(None, "X").max_attempts == 1
        assert resolve_retry(everywhere, "X") is everywhere
        mapping = {"Special": special, "*": everywhere}
        assert resolve_retry(mapping, "Special") is special
        assert resolve_retry(mapping, "Other") is everywhere
        assert resolve_retry({"Special": special}, "Other").max_attempts == 1


class TestFaultPlan:
    def test_draw_counts_occurrences_per_site_and_key(self):
        plan = FaultPlan().fail_module("m1", attempts=2)
        assert plan.draw("module", "m1") is None      # occurrence 1
        spec = plan.draw("module", "m1")              # occurrence 2
        assert spec is not None and spec.kind == "fail"
        assert plan.draw("module", "m1") is None      # occurrence 3
        assert plan.fired == [("module", "m1", 2, "fail")]

    def test_wildcard_shares_concrete_counters(self):
        plan = FaultPlan().add(FaultSpec("cache-put", "*", (2,), "tear"))
        assert plan.draw("cache-put", "k1") is None
        assert plan.draw("cache-put", "k2") is None
        assert plan.draw("cache-put", "k1") is not None  # k1's 2nd visit
        assert plan.draw("cache-put", "k2") is not None  # k2's 2nd visit

    def test_sites_are_independent(self):
        plan = FaultPlan().fail_module("x")
        assert plan.draw("stream-flush", "x") is None
        assert plan.draw("module", "x") is not None

    def test_fired_at_filters_by_site(self):
        plan = (FaultPlan().fail_module("m")
                .crash_stream("r"))
        plan.draw("module", "m")
        plan.draw("stream-flush", "r")
        assert len(plan.fired_at("module")) == 1
        assert len(plan.fired_at("stream-flush")) == 1


class TestModuleContextDeadline:
    def test_no_deadline_is_unlimited(self):
        ctx = ModuleContext({}, {}, module_name="m")
        assert ctx.remaining_time() is None
        ctx.check_deadline()  # no-op

    def test_expired_deadline_raises(self):
        ctx = ModuleContext({}, {}, module_name="slow",
                            deadline=time.monotonic() - 1)
        assert ctx.remaining_time() < 0
        with pytest.raises(TimeoutError, match="ModuleTimeout.*slow"):
            ctx.check_deadline()


class TestFaultMatrix:
    """Injected failures recover identically on every backend."""

    @pytest.mark.parametrize("label,kwargs", BACKENDS)
    def test_module_exception_retry_recovers(self, registry, label,
                                             kwargs):
        workflow = build_fig1_workflow(size=6)
        hist = module_by_name(workflow, "hist")
        clean = Executor(registry, **kwargs).execute(workflow)
        plan = FaultPlan().fail_module(hist.id)
        result = Executor(registry, retry=RetryPolicy(max_attempts=2),
                          fault_plan=plan, **kwargs).execute(workflow)
        assert result.status == "ok"
        assert _engine_fingerprint(result) == _engine_fingerprint(clean)
        failures = result.results[hist.id].attempts
        assert [f.attempt for f in failures] == [1]
        assert failures[0].status == "failed"
        assert not failures[0].outputs
        assert plan.fired_at("module")

    @pytest.mark.parametrize("label,kwargs", BACKENDS)
    def test_repeated_exceptions_exhaust_then_fail(self, registry, label,
                                                   kwargs):
        workflow = build_fig1_workflow(size=6)
        hist = module_by_name(workflow, "hist")
        plan = FaultPlan().fail_module(hist.id, attempts=(1, 2, 3))
        result = Executor(registry, retry=RetryPolicy(max_attempts=3),
                          fault_plan=plan, **kwargs).execute(workflow)
        assert result.status == "failed"
        hist_result = result.results[hist.id]
        assert hist_result.status == "failed"
        assert [f.attempt for f in hist_result.attempts] == [1, 2]
        # downstream of the exhausted module skips; the other branch runs
        names = {workflow.modules[m].name: r.status
                 for m, r in result.results.items()}
        assert names["render_hist"] == "skipped"
        assert names["iso"] == "ok" and names["render_mesh"] == "ok"

    @pytest.mark.parametrize("label,kwargs", BACKENDS)
    def test_kill_fault_recovers_on_every_backend(self, registry, label,
                                                  kwargs):
        # on the process backend this kills a real worker (os._exit);
        # in-process backends degrade it to a plain failure — recovery
        # must look identical either way
        workflow = build_chain_workflow(length=2, work=5)
        stage0 = module_by_name(workflow, "stage0")
        clean = Executor(registry, **kwargs).execute(workflow)
        plan = FaultPlan().kill_worker(stage0.id)
        result = Executor(registry, retry=RetryPolicy(max_attempts=2),
                          fault_plan=plan, **kwargs).execute(workflow)
        assert result.status == "ok"
        assert _engine_fingerprint(result) == _engine_fingerprint(clean)
        failures = result.results[stage0.id].attempts
        assert len(failures) == 1 and failures[0].attempt == 1

    def test_per_type_retry_mapping_with_wildcard(self, registry):
        workflow = build_fig1_workflow(size=6)
        hist = module_by_name(workflow, "hist")
        plan = FaultPlan().fail_module(hist.id)
        retry = {"ComputeHistogram": RetryPolicy(max_attempts=2),
                 "*": RetryPolicy(max_attempts=1)}
        result = Executor(registry, retry=retry,
                          fault_plan=plan).execute(workflow)
        assert result.status == "ok"
        assert len(result.results[hist.id].attempts) == 1


class TestTimeouts:
    def test_cooperative_timeout_retries_in_process(self, registry):
        workflow = build_fig1_workflow(size=6)
        hist = module_by_name(workflow, "hist")
        plan = FaultPlan().hang_module(hist.id, seconds=0.3)
        result = Executor(
            registry, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, timeout=0.1),
        ).execute(workflow)
        assert result.status == "ok"
        failures = result.results[hist.id].attempts
        assert len(failures) == 1
        assert "ModuleTimeout" in failures[0].error

    def test_deadline_kill_on_process_backend(self, registry):
        workflow = build_chain_workflow(length=1, work=5)
        stage0 = module_by_name(workflow, "stage0")
        plan = FaultPlan().hang_module(stage0.id, seconds=30.0)
        result = Executor(
            registry, workers=2, backend="process", fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, timeout=0.5),
        ).execute(workflow)
        assert result.status == "ok"
        failures = result.results[stage0.id].attempts
        assert len(failures) == 1
        assert "deadline-kill" in failures[0].error

    def test_in_process_deadline_starts_with_the_attempt(self, registry):
        # two workers, five 0.2 s modules: the fifth waits 0.4 s in the
        # pool queue, so a deadline armed at submit would time it out
        workflow = Workflow("queued")
        for index in range(5):
            workflow.add_module(Module("Sleep", name=f"nap{index}",
                                       parameters={"seconds": 0.2}))
        result = Executor(
            registry, workers=2, backend="thread",
            retry=RetryPolicy(max_attempts=1, timeout=0.5),
        ).execute(workflow)
        assert [r.status for r in result.results.values()] == ["ok"] * 5

    def test_exhausted_timeout_is_a_failure(self, registry):
        workflow = build_chain_workflow(length=1, work=5)
        stage0 = module_by_name(workflow, "stage0")
        plan = FaultPlan().hang_module(stage0.id, seconds=0.3,
                                       attempts=(1, 2))
        result = Executor(
            registry, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, timeout=0.1),
        ).execute(workflow)
        assert result.status == "failed"
        stage = result.results[stage0.id]
        assert stage.status == "failed"
        assert "ModuleTimeout" in stage.error


class TestWorkerSupervision:
    def test_poison_module_is_quarantined(self, registry):
        # a module that kills its worker on every attempt must not take
        # the run down with it: it settles failed ("quarantined"),
        # downstream skips, the sibling branch completes
        # a linear chain keeps the in-flight set deterministic: in a
        # branching workflow a sibling job can share the pool during
        # both kills and get quarantined itself as collateral (each
        # kill breaks the whole pool), which is legitimate supervision
        # behaviour but not what this test pins down
        workflow = build_chain_workflow(length=3, work=5)
        stage1 = module_by_name(workflow, "stage1")
        plan = FaultPlan().kill_worker(stage1.id, attempts=(1, 2, 3))
        result = Executor(registry, workers=2, backend="process",
                          fault_plan=plan).execute(workflow)
        names = {workflow.modules[m].name: r for m, r in
                 result.results.items()}
        assert names["source"].status == "ok"
        assert names["stage0"].status == "ok"
        assert names["stage1"].status == "failed"
        assert "quarantined" in names["stage1"].error
        assert names["stage2"].status == "skipped"

    def test_quarantine_releases_compute_lease(self, registry):
        cache = ResultCache()
        workflow = build_chain_workflow(length=1, work=5)
        stage0 = module_by_name(workflow, "stage0")
        plan = FaultPlan().kill_worker(stage0.id, attempts=(1, 2, 3))
        Executor(registry, cache=cache, workers=2,
                 backend="process", fault_plan=plan).execute(workflow)
        # a leaked lease would make this second run wait out the TTL;
        # instead it recomputes immediately and succeeds
        started = time.monotonic()
        second = Executor(registry, cache=cache).execute(workflow)
        assert second.status == "ok"
        assert time.monotonic() - started < 30.0


class TestAttemptProvenance:
    def test_retried_run_matches_fault_free_modulo_attempts(self,
                                                            registry):
        workflow = build_fig1_workflow(size=6)
        iso = module_by_name(workflow, "iso")
        clean_capture = ProvenanceCapture(registry=registry)
        Executor(registry, listeners=[clean_capture]).execute(workflow)
        clean = clean_capture.last_run()

        plan = FaultPlan().fail_module(iso.id, attempts=(1, 2))
        capture = ProvenanceCapture(registry=registry)
        result = Executor(registry, listeners=[capture],
                          retry=RetryPolicy(max_attempts=3),
                          fault_plan=plan).execute(workflow)
        run = capture.last_run()
        assert result.status == "ok"
        attempts = [e for e in run.executions if e.attempt]
        assert sorted(e.attempt for e in attempts) == [1, 2]
        assert all(e.status == "failed" and not e.outputs
                   for e in attempts)
        final_iso = next(e for e in run.executions
                         if e.module_id == iso.id and not e.attempt)
        for failed in attempts:
            assert failed.module_id == iso.id
            # attempt records bind the same input artifacts as the final
            assert ({(b.port, b.artifact_id) for b in failed.inputs}
                    == {(b.port, b.artifact_id) for b in final_iso.inputs})
        # modulo the attempt executions, retried provenance is identical
        assert (_final_provenance_fingerprint(run)
                == _final_provenance_fingerprint(clean))

    def test_attempt_round_trips_through_every_backend(self, registry,
                                                       tmp_path):
        from repro.storage import DocumentStore, TripleProvenanceStore
        workflow = build_fig1_workflow(size=6)
        hist = module_by_name(workflow, "hist")
        plan = FaultPlan().fail_module(hist.id)
        capture = ProvenanceCapture(registry=registry)
        Executor(registry, listeners=[capture],
                 retry=RetryPolicy(max_attempts=2),
                 fault_plan=plan).execute(workflow)
        run = capture.last_run()
        expected = sorted((e.module_id, e.attempt, e.status)
                          for e in run.executions)
        assert any(attempt for _, attempt, _ in expected)
        stores = [MemoryStore(),
                  RelationalStore(str(tmp_path / "attempts.db")),
                  TripleProvenanceStore(),
                  DocumentStore(tmp_path / "docs")]
        for store in stores:
            store.save_run(run)
            loaded = store.load_run(run.id)
            assert sorted((e.module_id, e.attempt, e.status)
                          for e in loaded.executions) == expected

    def test_attempt_survives_relational_reopen_and_migration(
            self, registry, tmp_path):
        # a database created by an older schema (no attempt column) must
        # be migrated in place on reopen
        import sqlite3
        path = str(tmp_path / "old.db")
        store = RelationalStore(path)
        store.close()
        connection = sqlite3.connect(path)
        connection.execute("DROP TABLE executions")
        connection.execute(
            "CREATE TABLE executions (id TEXT PRIMARY KEY, run_id TEXT,"
            " module_id TEXT, module_type TEXT, module_name TEXT,"
            " status TEXT, parameters TEXT, started REAL, finished REAL,"
            " error TEXT, cache_key TEXT, cached_from TEXT,"
            " seq INTEGER NOT NULL DEFAULT 0)")
        connection.commit()
        connection.close()
        reopened = RelationalStore(path)
        columns = {row[1] for row in reopened._connection.execute(
            "PRAGMA table_info(executions)").fetchall()}
        assert "attempt" in columns
        reopened.close()


class TestCacheFaults:
    def test_torn_cache_write_degrades_to_recompute(self, registry,
                                                    tmp_path):
        path = str(tmp_path / "memo.db")
        workflow = build_fig1_workflow(size=6)
        plan = FaultPlan().tear_cache_write()  # first put is torn
        first = Executor(registry, cache=PersistentResultCache(
            path, fault_plan=plan)).execute(workflow)
        assert first.status == "ok"
        assert plan.fired_at("cache-put")
        issues = fsck_cache(path)
        assert any(i.kind == "torn-cache-entry" for i in issues)
        # a fresh process hits the torn entry, recomputes, same hashes
        second = Executor(registry, cache=PersistentResultCache(
            path)).execute(workflow)
        assert second.status == "ok"
        assert (_engine_fingerprint(first)[1]
                == _engine_fingerprint(second)[1])
        recomputed = [r for r in second.results.values()
                      if r.status == "ok"]
        assert recomputed  # the torn module really ran again
        # reading the torn entry dropped it: the cache is clean now
        assert not fsck_cache(path)

    def test_stolen_lease_does_not_block_completion(self, registry):
        plan = FaultPlan().steal_lease()
        result = Executor(registry, cache=ResultCache(),
                          fault_plan=plan).execute(
                              build_fig1_workflow(size=6))
        assert result.status == "ok"
        assert plan.fired_at("lease")

    def test_stolen_lease_on_persistent_cache(self, registry, tmp_path):
        plan = FaultPlan().steal_lease()
        cache = PersistentResultCache(str(tmp_path / "lease.db"))
        result = Executor(registry, cache=cache,
                          fault_plan=plan).execute(
                              build_fig1_workflow(size=6))
        assert result.status == "ok"
        assert plan.fired_at("lease")


def _heartbeat_threads():
    return [t for t in threading.enumerate()
            if t.name == "repro-lease-heartbeat" and t.is_alive()]


class TestHeartbeatLifecycle:
    def test_heartbeat_thread_stops_when_run_unwinds(self, registry):
        executor = Executor(registry, cache=ResultCache())
        executor.execute(build_fig1_workflow(size=6))
        deadline = time.monotonic() + 5.0
        while _heartbeat_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _heartbeat_threads()

    def test_heartbeat_restarts_for_a_second_run(self, registry):
        executor = Executor(registry, cache=ResultCache())
        executor.execute(build_chain_workflow(length=1, work=5))
        deadline = time.monotonic() + 5.0
        while _heartbeat_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        second = executor.execute(build_chain_workflow(length=2, work=5))
        assert second.status == "ok"
        deadline = time.monotonic() + 5.0
        while _heartbeat_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _heartbeat_threads()


class TestCaptureFaults:
    def test_stream_crash_leaves_resumable_partial_run(self, registry):
        """A coordinator crash mid-stream escapes ``execute`` without an
        abort; the capture still holds the whole run, from which the
        committed prefix in the store is resumed."""
        store = RelationalStore()
        plan = FaultPlan().crash_stream(flush=2)
        capture = ProvenanceCapture(registry=registry, store=store,
                                    stream_batch=2, fault_plan=plan)
        executor = Executor(registry, listeners=[capture])
        with pytest.raises(HardCrash):
            executor.execute(build_fig1_workflow(size=6))
        assert len(plan.fired_at("stream-flush")) == 1
        run = capture.last_run()
        assert [issue.kind for issue in fsck_store(store)] == ["partial-run"]
        resume_run(store, run)
        assert fsck_store(store) == []
        assert len(store.load_run(run.id).executions) == 5
        store.close()


class TestManagerIntegration:
    def test_manager_threads_retry_and_fault_plan(self):
        from repro.core import ProvenanceManager
        manager = ProvenanceManager(retry=RetryPolicy(max_attempts=2))
        workflow = manager.new_workflow("retry-demo")
        manager.add_module(workflow, "Constant", name="c",
                           parameters={"value": 3})
        run = manager.run(workflow)
        assert run.status == "ok"
        manager.close()

    def test_manager_fault_plan_reaches_engine(self):
        from repro.core import ProvenanceManager
        plan = FaultPlan().add(FaultSpec("module", "*", (1,), "fail"))
        manager = ProvenanceManager(retry=RetryPolicy(max_attempts=2),
                                    fault_plan=plan)
        workflow = manager.new_workflow("fault-demo")
        manager.add_module(workflow, "Constant", name="c",
                           parameters={"value": 3})
        run = manager.run(workflow)
        assert run.status == "ok"
        assert plan.fired_at("module")
        attempts = [e for e in run.executions if e.attempt]
        assert len(attempts) == 1
        manager.close()
