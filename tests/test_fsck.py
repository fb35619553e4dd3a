"""Crash-consistent ingest: SIGKILL recovery, fsck detection/repair,
and resumable streams that end byte-equivalent to uninterrupted ones.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from tests.conftest import build_fig1_workflow
from repro.cli import main
from repro.core.capture import ProvenanceCapture
from repro.core.retrospective import WorkflowRun
from repro.storage import (DocumentStore, INTERRUPTED_STATUS, MemoryStore,
                           RelationalStore, StoreError,
                           TripleProvenanceStore, fsck_cache, fsck_store,
                           resume_run)
from repro.workflow import CacheEntry, Executor, PersistentResultCache

#: Checkout root: the SIGKILL child imports ``src`` and ``tests`` from it.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cache_entry(value):
    return CacheEntry(outputs={"value": value},
                      output_hashes={"value": f"hash-{value}"},
                      source_execution="exec-src")


def _captured_fig1_run(registry):
    capture = ProvenanceCapture(registry=registry)
    workflow = build_fig1_workflow(size=6)
    Executor(registry, listeners=[capture]).execute(workflow)
    return capture.last_run(), workflow


def _store_fingerprint(store, run_id):
    """What an ingest left behind: executions, artifact hashes, lineage."""
    run = store.load_run(run_id)
    executions = [(e.module_id, e.status, e.attempt)
                  for e in sorted(run.executions,
                                  key=lambda e: (e.started, e.id))]
    artifacts = {a.id: a.value_hash for a in run.artifacts.values()}
    return executions, artifacts


def _final_hash(run):
    """Value hash of one terminal data product of the run."""
    final = run.final_artifacts()
    assert final
    return final[0].value_hash


def _sidecar_and_partial_db(registry, tmp_path, stem="crash"):
    """A sidecar export plus a relational db holding a partial ingest.

    Feeds every artifact and the first two executions, flushes once,
    then abandons the writer without finish/abort — the in-process
    stand-in for a coordinator that was SIGKILLed after its first
    committed batch.
    """
    run, _ = _captured_fig1_run(registry)
    sidecar = tmp_path / f"{stem}.json"
    sidecar.write_text(json.dumps(run.to_dict()))
    db = str(tmp_path / f"{stem}.db")
    store = RelationalStore(db)
    writer = store.save_run_stream(run)
    for artifact in run.artifacts.values():
        writer.add_artifact(artifact)
    for execution in run.executions[:2]:
        writer.add_execution(execution)
    writer.flush()
    # no finish(), no abort(): the journal row stays behind
    return run, str(sidecar), db, store


class TestSigkillMidStream:
    """A coordinator SIGKILLed mid-save_run_stream leaves a repairable,
    resumable store."""

    CHILD = "\n".join([
        "import sys, time",
        "sys.path.insert(0, 'src')",
        "sys.path.insert(0, 'tests')",
        "import json",
        "from conftest import build_fig1_workflow",
        "from repro.core.capture import ProvenanceCapture",
        "from repro.storage.relational import RelationalStore",
        "from repro.workflow.engine import Executor",
        "from repro.workflow.modules import standard_registry",
        "registry = standard_registry()",
        "capture = ProvenanceCapture(registry=registry)",
        "workflow = build_fig1_workflow(size=6)",
        "Executor(registry, listeners=[capture]).execute(workflow)",
        "run = capture.last_run()",
        "with open(sys.argv[2], 'w') as handle:",
        "    json.dump(run.to_dict(), handle)",
        "store = RelationalStore(sys.argv[1])",
        "writer = store.save_run_stream(run)",
        "for artifact in run.artifacts.values():",
        "    writer.add_artifact(artifact)",
        "for execution in run.executions[:2]:",
        "    writer.add_execution(execution)",
        "writer.flush()",
        "print('FLUSHED', flush=True)",
        "time.sleep(60)",
    ])

    @pytest.fixture()
    def killed_ingest(self, tmp_path):
        db = str(tmp_path / "killed.db")
        sidecar = str(tmp_path / "killed.json")
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, db, sidecar],
            cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            marker = child.stdout.readline()
            assert marker.strip() == "FLUSHED", child.stderr.read()
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
                child.wait()
        with open(sidecar) as handle:
            run = WorkflowRun.from_dict(json.load(handle))
        return db, sidecar, run

    def test_fsck_detects_the_partial_run(self, killed_ingest):
        db, _, run = killed_ingest
        store = RelationalStore(db)
        try:
            issues = fsck_store(store)
            partial = [i for i in issues if i.kind == "partial-run"]
            assert [i.subject for i in partial] == [run.id]
            assert "stream epoch 1" in partial[0].detail
            assert "2 execution(s) committed" in partial[0].detail
        finally:
            store.close()

    def test_resume_completes_identically_to_uninterrupted(
            self, killed_ingest, tmp_path):
        db, _, run = killed_ingest
        crashed = RelationalStore(db)
        fresh = RelationalStore(str(tmp_path / "fresh.db"))
        try:
            resume_run(crashed, run)
            fresh.save_run(run)
            assert (_store_fingerprint(crashed, run.id)
                    == _store_fingerprint(fresh, run.id))
            key = _final_hash(run)
            assert (crashed.lineage_closure(key)
                    == fresh.lineage_closure(key))
            # the journal is gone and fsck is clean
            assert crashed.stream_states() == []
            assert fsck_store(crashed) == []
        finally:
            crashed.close()
            fresh.close()

    def test_cli_resume_round_trip(self, killed_ingest):
        db, sidecar, run = killed_ingest
        assert main(["fsck", db, "--resume", sidecar]) == 0
        store = RelationalStore(db)
        try:
            assert store.load_run(run.id).status == run.status
        finally:
            store.close()


class TestResumeRun:
    def test_relational_resume_skips_committed_executions(
            self, registry, tmp_path):
        run, _, db, store = _sidecar_and_partial_db(registry, tmp_path)
        writer = store.resume_run_stream(run.id)
        try:
            assert len(writer.already_ingested) == 2
            assert writer.already_ingested == {
                e.id for e in run.executions[:2]}
            assert writer.epoch == 2
        finally:
            writer.abort()
        store.close()

    def test_resume_equivalence_on_every_backend(self, registry,
                                                 tmp_path):
        run, _ = _captured_fig1_run(registry)
        key = _final_hash(run)

        def relational_crashed():
            store = RelationalStore(str(tmp_path / "rel.db"))
            writer = store.save_run_stream(run)
            for artifact in run.artifacts.values():
                writer.add_artifact(artifact)
            for execution in run.executions[:2]:
                writer.add_execution(execution)
            writer.flush()
            return store  # writer abandoned: simulated crash

        # buffering backends persist nothing mid-stream, so their crash
        # signature is simply "no run stored"
        backends = [
            (relational_crashed(), RelationalStore(str(tmp_path / "r2.db"))),
            (MemoryStore(), MemoryStore()),
            (TripleProvenanceStore(), TripleProvenanceStore()),
            (DocumentStore(tmp_path / "docs-crashed"),
             DocumentStore(tmp_path / "docs-fresh")),
        ]
        for crashed, fresh in backends:
            resume_run(crashed, run)
            fresh.save_run(run)
            assert (_store_fingerprint(crashed, run.id)
                    == _store_fingerprint(fresh, run.id)), type(crashed)
            assert (crashed.lineage_closure(key)
                    == fresh.lineage_closure(key)), type(crashed)

    def test_resume_into_empty_store_full_feeds(self, registry):
        run, _ = _captured_fig1_run(registry)
        store = MemoryStore()
        with pytest.raises(StoreError):
            store.resume_run_stream(run.id)
        resume_run(store, run)
        assert store.has_run(run.id)
        assert len(store.load_run(run.id).executions) == 5


class TestFsckStore:
    def test_partial_run_without_journal(self, registry):
        # a buffering backend can still hold a "running" run if the
        # caller saved one — fsck flags it with the journal-free detail
        run, _ = _captured_fig1_run(registry)
        run.status = "running"
        store = MemoryStore()
        store.save_run(run)
        issues = fsck_store(store)
        assert [i.kind for i in issues] == ["partial-run"]
        assert "no stream journal" in issues[0].detail

    def test_repair_marks_partial_runs_interrupted(self, registry,
                                                   tmp_path):
        run, _, db, store = _sidecar_and_partial_db(registry, tmp_path)
        issues = fsck_store(store, repair=True)
        assert [(i.kind, i.repaired) for i in issues] == [
            ("partial-run", True)]
        assert store.load_run(run.id).status == INTERRUPTED_STATUS
        # the repair cascaded the journal row away
        assert store.stream_states() == []
        assert fsck_store(store) == []
        store.close()

    def test_cli_exit_codes(self, registry, tmp_path):
        run, _, db, store = _sidecar_and_partial_db(registry, tmp_path)
        store.close()
        assert main(["fsck", db]) == 1          # found, unrepaired
        assert main(["fsck", db, "--repair"]) == 0
        assert main(["fsck", db]) == 0          # clean now
        verify = RelationalStore(db)
        assert verify.load_run(run.id).status == INTERRUPTED_STATUS
        verify.close()

    def test_stale_stream_journal(self, registry, tmp_path):
        run, _ = _captured_fig1_run(registry)
        db = str(tmp_path / "stale.db")
        store = RelationalStore(db)
        store.save_run(run)
        store._connection.execute(
            "INSERT INTO stream_state VALUES (?, 3, 5, 2, ?)",
            (run.id, time.time()))
        store._connection.commit()
        issues = fsck_store(store)
        assert [i.kind for i in issues] == ["stale-stream-journal"]
        assert "stream epoch 3" in issues[0].detail
        repaired = fsck_store(store, repair=True)
        assert repaired[0].repaired
        assert store.stream_states() == []
        store.close()

    def test_dangling_lineage_edge(self, registry, tmp_path):
        run, _ = _captured_fig1_run(registry)
        db = str(tmp_path / "dangling.db")
        store = RelationalStore(db)
        store.save_run(run)
        store._connection.execute(
            "INSERT INTO lineage VALUES (?, ?, ?, ?)",
            ("deadbeef" * 8, "cafebabe" * 8, run.id, "exec-gone"))
        store._connection.commit()
        issues = fsck_store(store)
        assert [i.kind for i in issues] == ["dangling-lineage"]
        assert issues[0].subject == "exec-gone"
        fsck_store(store, repair=True)
        assert fsck_store(store) == []
        store.close()


class TestFsckCache:
    def test_missing_file_is_reported_not_created(self, tmp_path):
        path = tmp_path / "nope.db"
        issues = fsck_cache(path)
        assert [i.kind for i in issues] == ["unreadable-cache"]
        assert not path.exists()  # fsck must not create the file

    def test_expired_lease_detect_and_repair(self, registry, tmp_path):
        path = str(tmp_path / "leases.db")
        cache = PersistentResultCache(path)
        cache.put("k1", _cache_entry(1))
        cache.close()
        connection = sqlite3.connect(path)
        connection.execute("INSERT INTO leases VALUES (?, ?, ?)",
                           ("k2", "dead-owner", time.time() - 120))
        connection.commit()
        connection.close()
        issues = fsck_cache(path)
        assert [i.kind for i in issues] == ["expired-lease"]
        assert "dead-owner" in issues[0].detail
        fsck_cache(path, repair=True)
        assert fsck_cache(path) == []

    def test_torn_payload_detect_and_repair(self, tmp_path):
        path = str(tmp_path / "torn.db")
        cache = PersistentResultCache(path)
        cache.put("good", _cache_entry(1))
        cache.close()
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE entries SET payload = ? WHERE key = ?",
            (b"\x80\x04trunc", "good"))
        connection.commit()
        connection.close()
        issues = fsck_cache(path)
        assert [i.kind for i in issues] == ["torn-cache-entry"]
        fsck_cache(path, repair=True)
        assert fsck_cache(path) == []

    def test_cli_cache_only_invocation(self, tmp_path):
        path = str(tmp_path / "cli-cache.db")
        cache = PersistentResultCache(path)
        cache.put("k", _cache_entry(2))
        cache.close()
        assert main(["fsck", "--cache", path]) == 0


class TestStreamCrashSeam:
    def test_hard_crash_at_flush_leaves_journal(self, registry,
                                                tmp_path):
        # the crash_stream fault hard-crashes the capture coordinator at
        # the first flush; the stream writer's abort must NOT run, so the
        # committed prefix plus journal row survive for fsck to find
        from repro.core.capture import stream_run_to_store
        from repro.workflow import FaultPlan, HardCrash
        run, _ = _captured_fig1_run(registry)
        db = str(tmp_path / "crash-seam.db")
        store = RelationalStore(db)
        plan = FaultPlan().crash_stream(flush=1)
        with pytest.raises(HardCrash):
            stream_run_to_store(run, store, batch=2, fault_plan=plan)
        issues = fsck_store(store)
        assert [i.kind for i in issues] == ["partial-run"]
        assert "committed" in issues[0].detail
        resume_run(store, run)
        assert len(store.load_run(run.id).executions) == 5
        assert fsck_store(store) == []
        store.close()
