"""Capture pipeline: synchronous capture, the workflow snapshot saved
with each run, streaming ingest, and the observed-process workload.

The contract under test: every run is recorded and saved on the engine's
coordinating thread, so a store failure surfaces from the run that hit it;
streamed ingest reloads exactly what a monolithic ``save_run`` reloads.
"""

import json
import sys
import threading

import pytest

from repro.core import (ProspectiveProvenance, ProvenanceCapture,
                        ProvenanceManager, stream_run_to_store)
from repro.service.sharded import ShardedProvenanceStore
from repro.storage.base import BufferedRunStream, StoreError
from repro.storage.documents import DocumentStore
from repro.storage.memory import MemoryStore
from repro.storage.relational import RelationalStore
from repro.storage.triples import TripleProvenanceStore
from repro.workflow import Executor
from repro.workflow.modules.observed import (ObservedProcessSession,
                                             file_digest)
from repro.workloads import random_workflow, wide_workflow
from tests.conftest import (build_chain_workflow, build_fig1_workflow,
                            module_by_name)

#: (label, executor kwargs) for the scheduler backends.
BACKEND_MATRIX = [
    ("serial", {}),
    ("thread", {"workers": 4}),
    ("process", {"workers": 2, "backend": "process"}),
]


def _normalized_dict(run):
    """``run.to_dict()`` as canonical JSON with artifact ids renamed in
    first-seen order — the byte-identical comparison form (artifact ids
    are the only freshly generated component of a materialized run)."""
    rename = {}
    for execution in run.executions:
        for binding in (*execution.inputs, *execution.outputs):
            rename.setdefault(binding.artifact_id, f"art-{len(rename):06d}")
    for artifact_id in run.artifacts:
        rename.setdefault(artifact_id, f"art-{len(rename):06d}")
    text = json.dumps(run.to_dict(), sort_keys=True)
    for old, new in rename.items():
        text = text.replace(old, new)
    return text


def _provenance_fingerprint(run):
    """Timing/id-independent digest of a captured WorkflowRun."""
    executions = sorted(
        (e.module_id, e.status,
         sorted((b.port, run.artifacts[b.artifact_id].value_hash)
                for b in e.inputs),
         sorted((b.port, run.artifacts[b.artifact_id].value_hash)
                for b in e.outputs))
        for e in run.executions)
    return (run.status, executions,
            sorted(a.value_hash for a in run.artifacts.values()))


class _FlakyStore(MemoryStore):
    """A store whose first ``save_run`` raises; later saves succeed."""

    failed = False

    def save_run(self, run):
        if not self.failed:
            self.failed = True
            raise StoreError(f"injected save failure for {run.id}")
        super().save_run(run)


class TestSyncCapture:
    def test_multiple_runs_all_captured(self, registry):
        capture = ProvenanceCapture(registry=registry)
        executor = Executor(registry, listeners=[capture])
        for _ in range(3):
            executor.execute(build_chain_workflow(length=2, work=1))
        assert len(capture.runs) == 3
        assert capture.stats.runs == 3

    def test_store_error_raises_from_execute(self, registry):
        """A failing store write surfaces from the run that hit it, and
        the same capture keeps capturing and saving later runs."""
        store = _FlakyStore()
        capture = ProvenanceCapture(registry=registry, store=store)
        executor = Executor(registry, listeners=[capture])
        with pytest.raises(StoreError, match="injected save failure"):
            executor.execute(build_chain_workflow(length=2, work=1))
        failed_id = capture.last_run().id
        assert not store.has_run(failed_id)

        result = executor.execute(build_chain_workflow(length=3, work=1))
        assert result.status == "ok"
        assert capture.last_run().id == result.run_id != failed_id
        assert (store.load_run(result.run_id).to_dict()
                == capture.last_run().to_dict())
        assert capture.stats.runs == 2

    def test_same_engine_run_byte_identical(self, registry):
        """Two captures attached to one executor materialize
        byte-identical runs: what is recorded depends only on the
        engine's result."""
        first = ProvenanceCapture(registry=registry)
        second = ProvenanceCapture(registry=registry)
        executor = Executor(registry, listeners=[first, second])
        workflow = build_chain_workflow(length=5, work=5)
        executor.execute(workflow)
        assert (_normalized_dict(first.last_run())
                == _normalized_dict(second.last_run()))
        assert len(first.last_run().executions) == len(workflow.modules)

    @pytest.mark.parametrize("label,kwargs", BACKEND_MATRIX,
                             ids=[label for label, _ in BACKEND_MATRIX])
    def test_shared_capture_across_threads(self, registry, label, kwargs):
        """One capture shared by two executors running at once on two
        threads records and saves both runs whole, each as a lone
        capture of the same workflow records it."""
        workflow = wide_workflow(branches=4, depth=2, work=20)
        alone = ProvenanceCapture(registry=registry)
        Executor(registry, listeners=[alone], **kwargs).execute(workflow)
        expected = _provenance_fingerprint(alone.last_run())

        store = MemoryStore()
        shared = ProvenanceCapture(registry=registry, store=store)
        results, errors = [], []
        start = threading.Barrier(2)

        def one_run():
            try:
                executor = Executor(registry, listeners=[shared], **kwargs)
                start.wait()
                results.append(executor.execute(workflow))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=one_run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert shared.stats.runs == 2
        for result in results:
            run = shared.run_by_id(result.run_id)
            assert _provenance_fingerprint(run) == expected
            assert (_provenance_fingerprint(store.load_run(run.id))
                    == expected)

    def test_stream_error_aborts_partial_run(self, registry):
        """A streamed save that fails mid-run raises from the run that
        hit it and leaves nothing of that run in the store; the next run
        on the same capture streams in whole."""
        store = _FailFirstFlushStore(store_values=True)
        capture = ProvenanceCapture(registry=registry, store=store,
                                    stream_batch=2)
        executor = Executor(registry, listeners=[capture])
        with pytest.raises(StoreError, match="injected flush failure"):
            executor.execute(build_chain_workflow(length=4, work=1))
        assert not store.has_run(capture.last_run().id)

        result = executor.execute(build_chain_workflow(length=4, work=1))
        assert (store.load_run(result.run_id).to_dict()
                == capture.last_run().to_dict())


class _FailFirstFlushStore(RelationalStore):
    """A relational store whose first streamed ``flush`` raises after
    the batch is staged; later flushes succeed."""

    failed = False

    def save_run_stream(self, header):
        writer = super().save_run_stream(header)
        flush = writer.flush

        def failing_flush():
            if not self.failed:
                self.failed = True
                raise StoreError(f"injected flush failure for {header.id}")
            flush()

        writer.flush = failing_flush
        return writer


#: (label, factory of a fresh store under a temp dir) for every store
#: type a capture can write to.
STORE_FACTORIES = [
    ("memory", lambda root: MemoryStore()),
    ("relational", lambda root: RelationalStore()),
    ("triples", lambda root: TripleProvenanceStore()),
    ("documents", lambda root: DocumentStore(root / "docs")),
    ("sharded", lambda root: ShardedProvenanceStore.open(root / "shards",
                                                         shards=2)),
]


def _count_snapshots(monkeypatch):
    """Count ``ProspectiveProvenance.from_workflow`` calls by workflow id."""
    calls = []
    build = ProspectiveProvenance.from_workflow

    def counted(workflow, registry=None):
        calls.append(workflow.id)
        return build(workflow, registry)

    monkeypatch.setattr(ProspectiveProvenance, "from_workflow",
                        staticmethod(counted))
    return calls


class TestWorkflowSnapshot:
    @pytest.mark.parametrize("label,make_store", STORE_FACTORIES,
                             ids=[label for label, _ in STORE_FACTORIES])
    def test_capture_saves_workflow_with_run(self, registry, tmp_path,
                                             label, make_store):
        """A capture with a store leaves the workflow row, equal to a
        fresh snapshot, and the run signed with that snapshot."""
        store = make_store(tmp_path)
        capture = ProvenanceCapture(registry=registry, store=store)
        workflow = build_fig1_workflow(size=6)
        result = Executor(registry, listeners=[capture]).execute(workflow)
        expected = ProspectiveProvenance.from_workflow(workflow, registry)
        assert store.load_workflow(workflow.id) == expected
        run = store.load_run(result.run_id)
        assert run.workflow_signature == expected.signature
        assert run.workflow_spec == expected.spec

    def test_streamed_capture_saves_workflow(self, registry):
        store = RelationalStore(store_values=True)
        capture = ProvenanceCapture(registry=registry, store=store,
                                    stream_batch=2)
        workflow = random_workflow(modules=12, width=4, seed=5, work=2)
        result = Executor(registry, listeners=[capture]).execute(workflow)
        assert (store.load_workflow(workflow.id)
                == ProspectiveProvenance.from_workflow(workflow, registry))
        assert (store.load_run(result.run_id).to_dict()
                == capture.run_by_id(result.run_id).to_dict())

    def test_manager_run_builds_one_snapshot(self, monkeypatch):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=6)
        calls = _count_snapshots(monkeypatch)
        run = manager.run(workflow)
        assert calls == [workflow.id]
        assert manager.store.load_workflow(workflow.id).signature == \
            run.workflow_signature

    def test_manager_rerun_builds_one_snapshot(self, monkeypatch):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=6)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        calls = _count_snapshots(monkeypatch)
        new_run, _ = manager.rerun(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        assert calls == [workflow.id]
        assert new_run.tags["replay_of"] == run.id


def _race_other_run(manager, registry):
    """Make every ``manager.executor.execute`` let a second executor that
    shares ``manager.capture`` finish a run of another workflow before
    the call returns — what a concurrent caller of one manager can do."""
    other = Executor(registry, listeners=[manager.capture])
    execute = manager.executor.execute

    def racing_execute(workflow, **kwargs):
        result = execute(workflow, **kwargs)
        other.execute(build_chain_workflow(length=1, work=1))
        return result

    manager.executor.execute = racing_execute


class TestManagerReturnsItsOwnRun:
    def test_run_returns_its_own_run(self, registry):
        manager = ProvenanceManager(registry=registry)
        _race_other_run(manager, registry)
        workflow = build_fig1_workflow(size=6)
        run = manager.run(workflow)
        assert run.workflow_id == workflow.id
        assert run.id == manager.last_engine_result.run_id

    def test_rerun_returns_its_own_run(self, registry):
        manager = ProvenanceManager(registry=registry)
        workflow = build_fig1_workflow(size=6)
        run = manager.run(workflow)
        _race_other_run(manager, registry)
        iso = module_by_name(workflow, "iso")
        new_run, _ = manager.rerun(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        assert new_run.workflow_id == workflow.id
        assert new_run.tags["replay_of"] == run.id


def _captured_run(registry, store=None, **capture_kwargs):
    capture = ProvenanceCapture(registry=registry, store=store,
                                **capture_kwargs)
    executor = Executor(registry, listeners=[capture])
    executor.execute(random_workflow(modules=12, width=4, seed=5, work=2))
    return capture.last_run()


class TestStreamingIngest:
    def _stores(self, tmp_path):
        return [("memory", MemoryStore()),
                ("relational", RelationalStore(store_values=True)),
                ("triples", TripleProvenanceStore()),
                ("documents", DocumentStore(tmp_path / "docs"))]

    def test_stream_matches_save_run_on_all_backends(self, registry,
                                                     tmp_path):
        """Streamed ingest reloads exactly what a monolithic save_run
        reloads, on every backend (backends with lossy round-trips are
        held to their own save_run as the reference)."""
        run = _captured_run(registry)
        references = dict(self._stores(tmp_path / "ref"))
        for label, store in self._stores(tmp_path / "stream"):
            references[label].save_run(run)
            stream_run_to_store(run, store, batch=3)
            assert (store.load_run(run.id).to_dict()
                    == references[label].load_run(run.id).to_dict()), label

    def test_relational_reloads_identical_with_values(self, registry):
        store = RelationalStore(store_values=True)
        run = _captured_run(registry, store=store, stream_batch=2)
        reloaded = store.load_run(run.id)
        assert reloaded.to_dict() == run.to_dict()
        assert reloaded.values == run.values

    def test_relational_streams_in_batches(self, registry):
        """Executions become visible batch by batch: peak ingest state is
        bounded by the batch size, not the run size."""
        run = _captured_run(registry)
        store = RelationalStore()
        writer = store.save_run_stream(run)
        # header row is visible immediately, with zero executions
        assert store.has_run(run.id)
        assert store.load_run(run.id).executions == []
        batch = run.executions[:4]
        for execution in batch:
            for binding in (*execution.inputs, *execution.outputs):
                artifact = run.artifacts[binding.artifact_id]
                writer.add_artifact(artifact)
            writer.add_execution(execution)
        writer.flush()
        assert len(store.load_run(run.id).executions) == 4
        for execution in run.executions[4:]:
            for binding in (*execution.inputs, *execution.outputs):
                writer.add_artifact(run.artifacts[binding.artifact_id])
            writer.add_execution(execution)
        writer.finish(status=run.status, finished=run.finished,
                      tags=run.tags)
        assert writer.flushes >= 1
        reloaded = store.load_run(run.id)
        assert [e.id for e in reloaded.executions] == \
            [e.id for e in run.executions]
        assert reloaded.status == run.status

    def test_relational_stream_lineage_parity(self, registry):
        """Incrementally derived lineage edges match the whole-run path."""
        run = _captured_run(registry)
        streamed = RelationalStore()
        stream_run_to_store(run, streamed, batch=2)
        monolithic = RelationalStore()
        monolithic.save_run(run)
        for artifact in run.artifacts.values():
            assert (streamed.lineage_closure(artifact.id)
                    == monolithic.lineage_closure(artifact.id))

    def test_abort_removes_partial_run(self, registry):
        run = _captured_run(registry)
        for store in (RelationalStore(), MemoryStore()):
            writer = store.save_run_stream(run)
            writer.add_execution(run.executions[0])
            writer.flush()
            writer.abort()
            assert not store.has_run(run.id)
            with pytest.raises(StoreError):
                writer.add_execution(run.executions[0])

    def test_buffered_stream_counts_flushes(self, registry):
        run = _captured_run(registry)
        store = MemoryStore()
        writer = store.save_run_stream(run)
        assert isinstance(writer, BufferedRunStream)
        stream_run_to_store(run, store, batch=2)
        assert store.load_run(run.id).to_dict() == run.to_dict()

    def test_context_manager_finish_and_abort(self, registry):
        run = _captured_run(registry)
        store = RelationalStore()
        with store.save_run_stream(run) as writer:
            for execution in run.executions:
                for binding in (*execution.inputs, *execution.outputs):
                    writer.add_artifact(run.artifacts[binding.artifact_id])
                writer.add_execution(execution)
        assert store.has_run(run.id)
        other = MemoryStore()
        with pytest.raises(RuntimeError):
            with other.save_run_stream(run):
                raise RuntimeError("boom")
        assert not other.has_run(run.id)

    def test_manager_stream_batch_end_to_end(self, registry):
        store = RelationalStore(store_values=True)
        with ProvenanceManager(registry=registry, store=store,
                               stream_batch=3) as manager:
            run = manager.run(random_workflow(modules=10, seed=9, work=2))
        assert store.load_run(run.id).to_dict() == run.to_dict()


class TestObservedProcess:
    def test_observe_records_command(self, tmp_path):
        out = tmp_path / "out.txt"
        session = ObservedProcessSession(name="t")
        execution = session.observe(
            [sys.executable, "-c", f"open(r'{out}', 'w').write('data')"],
            writes=[str(out)])
        run = session.finish()
        assert run.status == "ok"
        assert execution.status == "ok"
        ports = {binding.port for binding in execution.outputs}
        assert {"exit_code", "stdout", "stderr",
                f"write:{out}"} <= ports
        digest, size = file_digest(str(out))
        write_binding = next(b for b in execution.outputs
                             if b.port.startswith("write:"))
        assert run.artifacts[write_binding.artifact_id].value_hash == digest
        assert size == 4

    def test_read_write_chain_dedups_by_hash(self, tmp_path):
        path = tmp_path / "f.txt"
        session = ObservedProcessSession(name="chain")
        session.observe(
            [sys.executable, "-c", f"open(r'{path}', 'w').write('x')"],
            writes=[str(path)])
        session.observe(
            [sys.executable, "-c", f"print(open(r'{path}').read())"],
            reads=[str(path)])
        run = session.finish()
        writer = next(b for b in run.executions[0].outputs
                      if b.port.startswith("write:"))
        reader = next(b for b in run.executions[1].inputs
                      if b.port.startswith("read:"))
        assert writer.artifact_id == reader.artifact_id

    def test_nonzero_exit_recorded_as_failed(self):
        session = ObservedProcessSession(name="fail")
        execution = session.observe(
            [sys.executable, "-c", "raise SystemExit(7)"])
        run = session.finish()
        assert execution.status == "failed"
        assert "exit code 7" in execution.error
        assert run.status == "failed"

    def test_spawn_failure_recorded_then_raised(self):
        session = ObservedProcessSession(name="boom")
        with pytest.raises(OSError):
            session.observe(["/nonexistent/never-a-binary"])
        run = session.finish()
        assert run.executions[0].status == "failed"
        assert run.executions[0].error

    def test_session_streams_to_relational(self, tmp_path):
        store = RelationalStore()
        session = ObservedProcessSession(name="stream", store=store,
                                         stream_batch=1)
        for index in range(3):
            session.observe([sys.executable, "-c",
                             f"print({index})"])
        run = session.finish()
        assert store.load_run(run.id).to_dict() == run.to_dict()

    def test_session_abort_removes_streamed_state(self):
        store = RelationalStore()
        session = ObservedProcessSession(name="gone", store=store,
                                         stream_batch=1)
        session.observe([sys.executable, "-c", "print(1)"])
        session.abort()
        assert not store.has_run(session.run.id)

    def test_missing_declared_file_gets_sentinel_digest(self, tmp_path):
        missing = tmp_path / "never-written.txt"
        digest_a, size = file_digest(str(missing))
        digest_b, _ = file_digest(str(tmp_path / "other-missing.txt"))
        assert size == 0
        assert digest_a != digest_b  # path-scoped: absent files never alias

    def test_observed_command_module_in_workflow(self, registry):
        manager = ProvenanceManager(registry=registry)
        workflow = manager.new_workflow("obs")
        manager.add_module(workflow, "ObservedCommand",
                           parameters={"argv": [sys.executable, "-c",
                                                "print('out')"]})
        run = manager.run(workflow)
        assert run.status == "ok"
        execution = run.executions[0]
        assert execution.module_type == "ObservedCommand"
        ports = {binding.port for binding in execution.outputs}
        assert {"exit_code", "stdout_digest", "stderr_digest",
                "writes"} <= ports

    def test_observed_command_not_memoized(self, registry):
        assert registry.get("ObservedCommand").deterministic is False

    def test_cli_observe(self, capsys):
        from repro.cli import main
        code = main(["observe", "--", sys.executable, "-c", "print('x')"])
        captured = capsys.readouterr()
        assert code == 0
        assert "observed run" in captured.out
