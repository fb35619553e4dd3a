"""Provenance-as-a-service: mixed-traffic stress, parity, fault drills.

The service's contract under concurrency is exercised against a *live*
server — real sockets, one thread per connection — with three families
of assertions:

* **No torn reads**: a reader's ``select``/``list_runs``/``load_run``
  never observes a partially ingested run, even while N writers stream
  batches into the same shards.
* **Ingest-order visibility**: the moment a writer's ``finish`` (or
  ``save_run``) is acknowledged, every reader sees the run; acknowledged
  runs never disappear from later snapshots.
* **Byte-identical parity**: runs ingested through shards — or through
  the wire — reload with exactly the same ``to_dict`` JSON as runs
  ingested into a single store, on all four backends.

Fault drills cover the new server-side seams (a client connection killed
mid-stream, a scripted drop/fail per protocol op, a crash between
per-shard bulk commits) plus the observed-process workload under command
crashes, partial output, and abandoned sessions — each ending in a
``repro fsck`` pass that must leave the store clean.
"""

import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import ProvenanceCapture, ProvenanceManager
from repro.core.retrospective import WorkflowRun
from repro.service import (ProvenanceClient, ProvenanceService,
                           ServiceError, ShardedProvenanceStore, shard_of)
from repro.service.client import parse_address
from repro.storage import (DocumentStore, MemoryStore, ProvQuery,
                           QueryError, RelationalStore, StoreError,
                           TripleProvenanceStore)
from repro.storage.fsck import INTERRUPTED_STATUS, fsck_store
from repro.workflow import Executor
from repro.workflow.faults import (FaultInjected, FaultPlan, FaultSpec,
                                   HardCrash)
from repro.workflow.modules.observed import ObservedProcessSession
from repro.workloads import clone_run
from tests.conftest import build_fig1_workflow

BACKENDS = ["memory", "relational", "triples", "documents"]


@pytest.fixture(scope="module")
def corpus(registry):
    """Six runs sharing content (clone variants of one Figure 1 run)."""
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    executor = Executor(registry, listeners=[capture])
    executor.execute(build_fig1_workflow(size=8, level=90.0))
    base = capture.last_run()
    runs = [base]
    runs.append(clone_run(base, "c1", status="failed"))
    runs.append(clone_run(base, "c2", workflow_id="wf-other",
                          workflow_name="other-flow",
                          started=base.started + 10,
                          finished=base.finished + 11))
    runs.append(clone_run(base, "c3", started=base.started - 10,
                          finished=base.finished - 9))
    runs.append(clone_run(base, "c4", status="failed"))
    runs.append(clone_run(base, "c5", started=base.started + 20,
                          finished=base.finished + 25))
    return runs


def fingerprint(run: WorkflowRun) -> str:
    """Canonical JSON of the run record — the byte-identity oracle."""
    return json.dumps(run.to_dict(), sort_keys=True)


def traced_product(run: WorkflowRun) -> str:
    """Value hash of a data product of ``run`` that has ancestors.

    ``final_artifacts()`` sorts by random artifact id, and one product of
    the Figure-1 run (a ``header`` output) has no ancestry; taking the
    first product would compare two empty closures part of the time.
    """
    local = MemoryStore()
    local.save_run(run)
    for artifact in sorted(run.final_artifacts(),
                           key=lambda a: a.value_hash):
        if local.lineage_closure(artifact.value_hash):
            return artifact.value_hash
    raise AssertionError(f"run {run.id} has no product with ancestry")


def make_backend(name, root):
    root.mkdir(parents=True, exist_ok=True)
    return {
        "memory": lambda: MemoryStore(),
        "relational": lambda: RelationalStore(str(root / "prov.db")),
        "triples": lambda: TripleProvenanceStore(),
        "documents": lambda: DocumentStore(root / "docs"),
    }[name]()


def stream_run(store_or_client, run, *, batch=2):
    """Feed one full run through the streaming-ingest API."""
    writer = store_or_client.save_run_stream(run)
    for artifact in run.artifacts.values():
        writer.add_artifact(artifact)
    for index, execution in enumerate(run.executions, 1):
        writer.add_execution(execution)
        if index % batch == 0:
            writer.flush()
    return writer.finish(status=run.status, finished=run.finished,
                         tags=run.tags)


@pytest.fixture()
def service(tmp_path):
    """A live server over a 3-shard on-disk store; closed after the test."""
    store = ShardedProvenanceStore.open(tmp_path / "prov", shards=3)
    server = ProvenanceService(store, close_store=True).start()
    yield server
    server.close()


def connect(server, **kwargs):
    return ProvenanceClient(server.host, server.port, **kwargs)


# ----------------------------------------------------------------------
# sharded-vs-single parity (all four backends)
# ----------------------------------------------------------------------
class TestShardedSingleParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bulk_ingest_reloads_byte_identical(self, backend, tmp_path,
                                                corpus):
        single = make_backend(backend, tmp_path / "single")
        sharded = ShardedProvenanceStore(
            [make_backend(backend, tmp_path / f"shard{i}")
             for i in range(3)])
        single.save_runs(corpus)
        sharded.save_runs(corpus)
        assert ([s.run_id for s in sharded.list_runs()]
                == [s.run_id for s in single.list_runs()])
        for run in corpus:
            assert (fingerprint(sharded.load_run(run.id))
                    == fingerprint(single.load_run(run.id)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_streamed_ingest_reloads_byte_identical(self, backend,
                                                    tmp_path, corpus):
        single = make_backend(backend, tmp_path / "single")
        sharded = ShardedProvenanceStore(
            [make_backend(backend, tmp_path / f"shard{i}")
             for i in range(3)])
        single.save_runs(corpus)
        for run in corpus:
            stream_run(sharded, run)
        for run in corpus:
            assert (fingerprint(sharded.load_run(run.id))
                    == fingerprint(single.load_run(run.id)))

    def test_runs_actually_spread_across_shards(self, corpus):
        sharded = ShardedProvenanceStore(
            [RelationalStore() for _ in range(3)])
        sharded.save_runs(corpus)
        occupied = {sharded.shard_index(run.id) for run in corpus}
        assert len(occupied) >= 2
        assert sum(len(s.list_runs()) for s in sharded.shards) == len(corpus)

    def test_shard_of_is_stable(self):
        assert shard_of("run-abc", 4) == shard_of("run-abc", 4)
        assert 0 <= shard_of("anything", 7) < 7

    def test_reopen_with_wrong_shard_count_refuses(self, tmp_path):
        ShardedProvenanceStore.open(tmp_path / "p", shards=3).close()
        with pytest.raises(StoreError, match="layout mismatch"):
            ShardedProvenanceStore.open(tmp_path / "p", shards=4)


# ----------------------------------------------------------------------
# client/server basics over a live socket
# ----------------------------------------------------------------------
class TestServiceBasics:
    def test_ping_and_stats(self, service):
        with connect(service) as client:
            assert client.ping()["shards"] == 3
            stats = client.stats()
        assert stats["counters"]["requests"] >= 1
        assert stats["read_pool"] > 0  # file shards => pooled reads

    def test_save_and_reload_byte_identical(self, service, corpus):
        with connect(service) as client:
            client.save_run(corpus[0])
            reloaded = client.load_run(corpus[0].id)
            assert fingerprint(reloaded) == fingerprint(corpus[0])
            assert client.has_run(corpus[0].id)
            assert not client.has_run("run-that-is-not-there")

    def test_streamed_ingest_over_the_wire(self, service, corpus):
        with connect(service) as client:
            run = clone_run(corpus[0], "wire")
            assert stream_run(client, run) == run.id
            assert fingerprint(client.load_run(run.id)) == fingerprint(run)

    def test_select_matches_local_store(self, service, corpus):
        with connect(service) as client:
            client.save_runs(corpus)
            local = MemoryStore()
            local.save_runs(corpus)
            for query in (
                    ProvQuery.runs().where(status="failed"),
                    ProvQuery.executions().order_by("-started").limit(7),
                    ProvQuery.artifacts().project("run_id", "id",
                                                  "value_hash"),
                    ProvQuery.runs().order_by("-started").limit(2)
                    .offset(1)):
                assert (client.select(query).all()
                        == local.select(query).all())

    def test_lineage_closure_matches_local(self, service, corpus):
        with connect(service) as client:
            client.save_runs(corpus)
            local = MemoryStore()
            local.save_runs(corpus)
            key = traced_product(corpus[0])
            expected = local.lineage_closure(key)
            assert expected
            assert client.lineage_closure(key) == expected
            assert (client.lineage_closure(key, direction="down",
                                           max_depth=1)
                    == local.lineage_closure(key, direction="down",
                                             max_depth=1))

    def test_sharded_reads_start_no_threads(self, tmp_path, corpus):
        store = ShardedProvenanceStore.open(tmp_path / "prov", shards=2)
        with ProvenanceService(store, close_store=True) as server, \
                connect(server) as client:
            client.save_runs(corpus)
            assert client.select(ProvQuery.runs().order_by("-started")
                                 .limit(3)).all()
            assert client.lineage_closure(traced_product(corpus[0]))
            scatter = [thread.name for thread in threading.enumerate()
                       if thread.name.startswith("repro-shard-scatter")]
            assert scatter == []

    def test_store_and_query_errors_cross_the_wire(self, service):
        with connect(service) as client:
            with pytest.raises(StoreError):
                client.load_run("missing-run")
            with pytest.raises(QueryError):
                client.select(ProvQuery.from_dict({"entity": "nope"}))

    def test_workflow_and_annotation_round_trip(self, service, registry,
                                                corpus):
        from repro.core import Annotation
        manager = ProvenanceManager(registry=registry)
        prospective = manager.prospective(build_fig1_workflow(size=6))
        note = Annotation(id="ann-s1", target_kind="run",
                          target_id=corpus[0].id, key="grade",
                          value={"score": 7}, author="dana", created=1.0)
        with connect(service) as client:
            client.save_workflow(prospective)
            assert client.list_workflows() == [prospective.workflow_id]
            loaded = client.load_workflow(prospective.workflow_id)
            assert loaded.to_dict() == prospective.to_dict()
            client.save_annotation(note)
            assert [a.to_dict() for a in client.annotations_for(
                "run", corpus[0].id)] == [note.to_dict()]
            assert [a.id for a in client.all_annotations()] == ["ann-s1"]

    def test_delete_run_routes_through_service(self, service, corpus):
        with connect(service) as client:
            client.save_run(corpus[0])
            assert client.delete_run(corpus[0].id) is True
            assert client.delete_run(corpus[0].id) is False
            assert not client.has_run(corpus[0].id)

    def test_unknown_op_is_a_protocol_error(self, service):
        with connect(service) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._rpc("no_such_op")
            assert excinfo.value.kind == "ProtocolError"

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7643") == ("10.0.0.5", 7643)
        assert parse_address("7643") == ("127.0.0.1", 7643)
        with pytest.raises(ServiceError):
            parse_address("nope")

    def test_resume_stream_over_the_wire(self, service, corpus):
        # a flushed-but-unfinished ingest left in the store before the
        # server came up is resumable straight through the protocol
        run = clone_run(corpus[0], "resume-me")
        writer = service.store.save_run_stream(run)
        for artifact in run.artifacts.values():
            writer.add_artifact(artifact)
        for execution in run.executions[:2]:
            writer.add_execution(execution)
        writer.flush()  # journal watermark = 2; then the feeder "dies"
        with connect(service) as client:
            resumed = client.resume_run_stream(run.id)
            already = set(resumed.already_ingested)
            assert already == {e.id for e in run.executions[:2]}
            for execution in run.executions:
                if execution.id not in already:
                    resumed.add_execution(execution)
            resumed.finish(status=run.status, finished=run.finished,
                           tags=run.tags)
            assert fingerprint(client.load_run(run.id)) == fingerprint(run)


# ----------------------------------------------------------------------
# mixed-traffic stress: N writers + M readers against one live server
# ----------------------------------------------------------------------
class TestMixedTrafficStress:
    WRITERS = 3
    READERS = 3
    RUNS_EACH = 5

    def test_no_torn_reads_and_ingest_order_visibility(self, service,
                                                       corpus):
        base = corpus[0]
        expected_executions = len(base.executions)
        planned = {}
        for writer_index in range(self.WRITERS):
            for run_index in range(self.RUNS_EACH):
                run = clone_run(base, f"w{writer_index}x{run_index}")
                planned.setdefault(writer_index, []).append(run)
        expected_prints = {run.id: fingerprint(run)
                           for runs in planned.values() for run in runs}
        acked = []
        acked_lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def writer(writer_index):
            client = connect(service)
            try:
                for run in planned[writer_index]:
                    stream_run(client, run, batch=2)
                    # ingest-order visibility: the finish ack means the
                    # run is immediately, completely visible
                    assert client.has_run(run.id)
                    assert run.id in {s.run_id
                                      for s in client.list_runs()}
                    loaded = client.load_run(run.id)
                    assert len(loaded.executions) == expected_executions
                    with acked_lock:
                        acked.append(run.id)
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append(exc)
            finally:
                client.close()

        def reader(_reader_index):
            client = connect(service)
            query = ProvQuery.executions().project("run_id", "id")
            try:
                while not stop.is_set():
                    with acked_lock:
                        acked_before = set(acked)
                    rows = client.select(query).all()
                    counts = {}
                    for row in rows:
                        counts[row["run_id"]] = counts.get(
                            row["run_id"], 0) + 1
                    for run_id, count in counts.items():
                        # the no-torn-reads contract: a visible run is a
                        # whole run, regardless of flush batching
                        assert count == expected_executions, (
                            f"torn read: {run_id} shows "
                            f"{count}/{expected_executions} executions")
                    # runs acked before this snapshot must all be visible
                    assert acked_before <= set(counts), (
                        "acked run disappeared from a later snapshot")
                    listed = {s.run_id for s in client.list_runs()}
                    assert acked_before <= listed
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=writer, args=(index,))
                   for index in range(self.WRITERS)]
        threads += [threading.Thread(target=reader, args=(index,))
                    for index in range(self.READERS)]
        for thread in threads:
            thread.start()
        for thread in threads[:self.WRITERS]:
            thread.join(timeout=60)
        stop.set()
        for thread in threads[self.WRITERS:]:
            thread.join(timeout=60)
        assert not errors, errors

        with connect(service) as client:
            summaries = client.list_runs()
            assert {s.run_id for s in summaries} == set(expected_prints)
            for run_id, expected in expected_prints.items():
                assert fingerprint(client.load_run(run_id)) == expected
            stats = client.stats()
        assert stats["inflight_streams"] == 0
        assert (stats["counters"]["runs_ingested"]
                == self.WRITERS * self.RUNS_EACH)

    def test_inflight_run_is_invisible_until_finish(self, service,
                                                    corpus):
        run = clone_run(corpus[0], "inflight")
        ingest, observe = connect(service), connect(service)
        try:
            writer = ingest.save_run_stream(run)
            for artifact in run.artifacts.values():
                writer.add_artifact(artifact)
            for execution in run.executions:
                writer.add_execution(execution)
            writer.flush()  # durable on the shard — but still in flight
            assert not observe.has_run(run.id)
            assert run.id not in {s.run_id for s in observe.list_runs()}
            assert observe.select(ProvQuery.executions().where(
                run_id=run.id)).all() == []
            with pytest.raises(StoreError):
                observe.load_run(run.id)
            writer.finish(status=run.status, finished=run.finished,
                          tags=run.tags)
            assert observe.has_run(run.id)
            assert fingerprint(observe.load_run(run.id)) == fingerprint(run)
        finally:
            ingest.close()
            observe.close()

    def test_stream_begun_during_a_read_stays_masked(self, service,
                                                     corpus, monkeypatch):
        """A stream that begins after a reader took its in-flight mask,
        and flushes before the reader's snapshot, must not show half a
        run: the read is repeated with the new mask."""
        run = clone_run(corpus[0], "mid-read")
        ingest, observe = connect(service), connect(service)
        open_view = service._read_view
        views = []
        writers = []

        @contextmanager
        def racing_view():
            views.append(1)
            if not writers:
                # a writer slips in between the mask and the snapshot
                writer = ingest.save_run_stream(run)
                for execution in run.executions[:2]:
                    writer.add_execution(execution)
                writer.flush()
                writers.append(writer)
            with open_view() as store:
                yield store

        monkeypatch.setattr(service, "_read_view", racing_view)
        try:
            rows = observe.select(ProvQuery.executions().where(
                run_id=run.id)).all()
            assert rows == []
            assert len(views) == 2  # the first read was thrown away
            writer = writers[0]
            for execution in run.executions[2:]:
                writer.add_execution(execution)
            writer.finish(status=run.status, finished=run.finished,
                          tags=run.tags)
            assert len(observe.select(ProvQuery.executions().where(
                run_id=run.id)).all()) == len(run.executions)
        finally:
            ingest.close()
            observe.close()

    def test_inflight_run_is_invisible_to_lineage(self, service, corpus):
        """Closures must mask mid-stream runs like row queries do."""
        run = clone_run(corpus[0], "inflight-lineage")
        key = traced_product(run)
        ingest, observe = connect(service), connect(service)
        try:
            writer = ingest.save_run_stream(run)
            for artifact in run.artifacts.values():
                writer.add_artifact(artifact)
            for execution in run.executions:
                writer.add_execution(execution)
            writer.flush()  # edges durable on the shard — but in flight
            assert observe.lineage_closure(key) == frozenset()
            assert observe.lineage_closure(
                key, direction="down", max_depth=1) == frozenset()
            assert observe.lineage_closure(
                key, within_runs=[run.id]) == frozenset()
            writer.finish(status=run.status, finished=run.finished,
                          tags=run.tags)
            local = MemoryStore()
            local.save_run(run)
            expected = local.lineage_closure(key)
            assert expected
            assert observe.lineage_closure(key) == expected
            assert (observe.lineage_closure(key, within_runs=[run.id])
                    == local.lineage_closure(key, within_runs=[run.id]))
        finally:
            ingest.close()
            observe.close()

    def test_committed_lineage_stays_visible_during_other_stream(
            self, service, corpus):
        """Masking one in-flight run must not hide committed edges."""
        committed = clone_run(corpus[0], "committed-lineage")
        key = traced_product(committed)
        ingest, observe = connect(service), connect(service)
        try:
            observe.save_run(committed)
            expected = observe.lineage_closure(key)
            assert expected  # the committed run contributes real edges
            writer = ingest.save_run_stream(
                clone_run(corpus[0], "inflight-other"))
            assert observe.lineage_closure(key) == expected
            writer.abort()
        finally:
            ingest.close()
            observe.close()

    def test_concurrent_stream_of_same_run_refused(self, service, corpus):
        run = clone_run(corpus[0], "dup")
        first, second = connect(service), connect(service)
        try:
            writer = first.save_run_stream(run)
            with pytest.raises(StoreError, match="already being streamed"):
                second.save_run_stream(run)
            writer.abort()
            second.save_run_stream(run).abort()  # free again after abort
        finally:
            first.close()
            second.close()


# ----------------------------------------------------------------------
# fault seams: killed connections, scripted drops, shard-commit crashes
# ----------------------------------------------------------------------
def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestServiceFaults:
    def test_killed_connection_mid_stream_leaves_no_trace(self, service,
                                                          corpus):
        run = clone_run(corpus[0], "killed")
        client = connect(service)
        writer = client.save_run_stream(run)
        for artifact in run.artifacts.values():
            writer.add_artifact(artifact)
        writer.add_execution(run.executions[0])
        writer.flush()  # partial batch is durable on the shard
        # the process holding the stream dies without abort/finish: a
        # shutdown sends FIN even while makefile wrappers pin the fd
        import socket as socket_module
        client._sock.shutdown(socket_module.SHUT_RDWR)
        client._sock.close()
        with connect(service) as observer:
            assert _wait_until(
                lambda: observer.stats()["inflight_streams"] == 0)
            assert not observer.has_run(run.id)
            assert observer.select(ProvQuery.executions().where(
                run_id=run.id)).all() == []
        assert fsck_store(service.store) == []

    def test_drop_connection_fault_aborts_stream(self, tmp_path, corpus):
        plan = FaultPlan().drop_connection("stream_add", 1)
        store = ShardedProvenanceStore.open(tmp_path / "p", shards=2)
        with ProvenanceService(store, fault_plan=plan,
                               close_store=True) as service:
            run = clone_run(corpus[0], "dropped")
            client = connect(service)
            writer = client.save_run_stream(run)
            for artifact in run.artifacts.values():
                writer.add_artifact(artifact)
            writer.add_execution(run.executions[0])
            with pytest.raises(ServiceError):
                writer.flush()  # server drops the connection instead
            client.close()
            assert plan.fired_at("service-request")
            with connect(service) as observer:
                assert _wait_until(
                    lambda: observer.stats()["inflight_streams"] == 0)
                assert not observer.has_run(run.id)

    def test_fail_request_fault_is_transient(self, tmp_path, corpus):
        plan = FaultPlan().fail_request("select", 1)
        store = ShardedProvenanceStore.open(tmp_path / "p", shards=2)
        with ProvenanceService(store, fault_plan=plan,
                               close_store=True) as service:
            with connect(service) as client:
                client.save_run(corpus[0])
                with pytest.raises(ServiceError) as excinfo:
                    client.select(ProvQuery.runs())
                assert excinfo.value.kind == "FaultInjected"
                # connection survived; the retry succeeds
                assert len(client.select(ProvQuery.runs()).all()) == 1

    def test_crash_between_shard_commits_then_reingest(self, corpus):
        probe = ShardedProvenanceStore(
            [MemoryStore() for _ in range(3)])
        occupied = sorted({probe.shard_index(run.id) for run in corpus})
        assert len(occupied) >= 2, "corpus must span shards"
        plan = FaultPlan().crash_shard_commit(occupied[1])
        store = ShardedProvenanceStore(
            [RelationalStore() for _ in range(3)], fault_plan=plan)
        with pytest.raises(HardCrash):
            store.save_runs(corpus)
        survivors = {s.run_id for s in store.list_runs()}
        expected = {run.id for run in corpus
                    if store.shard_index(run.id) < occupied[1]}
        assert survivors == expected  # lower shards durable, rest gone
        # whole runs only — nothing for fsck to repair — and a plain
        # re-ingest converges to the byte-identical full corpus
        assert fsck_store(store, repair=True) == []
        assert store.save_runs(corpus) == len(corpus)
        reference = MemoryStore()
        reference.save_runs(corpus)
        for run in corpus:
            assert (fingerprint(store.load_run(run.id))
                    == fingerprint(reference.load_run(run.id)))

    def test_injected_shard_commit_failure_raises_soft(self, corpus):
        plan = FaultPlan().add(FaultSpec("shard-commit", "*", (1,), "fail"))
        store = ShardedProvenanceStore(
            [MemoryStore() for _ in range(2)], fault_plan=plan)
        with pytest.raises(FaultInjected):
            store.save_runs(corpus)

    def test_coordinator_crash_mid_streams_fsck_repairs_each_shard(
            self, tmp_path, corpus):
        root = tmp_path / "prov"
        store = ShardedProvenanceStore.open(root, shards=3)
        victims = []
        shards_hit = set()
        for suffix in range(16):
            run = clone_run(corpus[0], f"crash{suffix}")
            shard = store.shard_index(run.id)
            if shard not in shards_hit:
                shards_hit.add(shard)
                victims.append(run)
            if len(victims) == 2:
                break
        assert len(victims) == 2, "need partial streams on two shards"
        for run in victims:
            writer = store.save_run_stream(run)
            for artifact in run.artifacts.values():
                writer.add_artifact(artifact)
            writer.add_execution(run.executions[0])
            writer.flush()  # journaled batch committed, never finished
        store.close()  # coordinator dies; writers never finish/abort

        reopened = ShardedProvenanceStore.open(root, shards=3)
        issues = fsck_store(reopened, repair=True)
        assert sorted(issue.subject for issue in issues
                      if issue.kind == "partial-run") == sorted(
                          run.id for run in victims)
        assert all(issue.repaired for issue in issues)
        for run in victims:
            assert reopened.load_run(run.id).status == INTERRUPTED_STATUS
        assert fsck_store(reopened) == []
        reopened.close()


# ----------------------------------------------------------------------
# observed-process workload under faults (ROADMAP follow-up)
# ----------------------------------------------------------------------
class TestObservedProcessFaults:
    def test_command_crash_is_recorded_not_raised(self, tmp_path):
        store = RelationalStore(str(tmp_path / "obs.db"))
        session = ObservedProcessSession(name="crashy", store=store)
        execution = session.observe(
            ["python", "-c", "import sys; sys.exit(3)"])
        assert execution.status == "failed"
        assert "exit code 3" in execution.error
        run = session.finish()
        assert run.status == "failed"
        reloaded = store.load_run(run.id)
        assert reloaded.executions[0].error == execution.error

    def test_partial_output_digested_as_observed(self, tmp_path):
        target = tmp_path / "partial.txt"
        script = ("import sys; open(r'%s','w').write('half-');"
                  " sys.exit(1)" % target)
        session = ObservedProcessSession(name="partial")
        execution = session.observe(["python", "-c", script],
                                    writes=[str(target)])
        run = session.finish()
        assert run.status == "failed"
        write_port = next(b for b in execution.outputs
                          if b.port.startswith("write:"))
        from repro.workflow.modules.observed import file_digest
        digest, size = file_digest(str(target))
        artifact = run.artifacts[write_port.artifact_id]
        assert artifact.value_hash == digest  # the half-written bytes
        assert artifact.size_hint == size == len("half-")

    def test_spawn_failure_recorded_then_raised(self):
        session = ObservedProcessSession(name="spawn")
        with pytest.raises(OSError):
            session.observe(["/no/such/interpreter-zzz"])
        run = session.finish()
        assert run.executions[0].status == "failed"
        assert run.status == "failed"

    def test_abandoned_streaming_session_repaired_by_fsck(self, tmp_path):
        db = str(tmp_path / "obs.db")
        store = RelationalStore(db)
        session = ObservedProcessSession(name="abandoned", store=store,
                                         stream_batch=1)
        session.observe(["python", "-c", "print('one')"])
        session.observe(["python", "-c", "print('two')"])
        run_id = session.run.id
        store.close()  # the observing process dies: no finish, no abort

        reopened = RelationalStore(db)
        issues = fsck_store(reopened, repair=True)
        assert [issue.kind for issue in issues] == ["partial-run"]
        assert issues[0].subject == run_id
        repaired = reopened.load_run(run_id)
        assert repaired.status == INTERRUPTED_STATUS
        assert len(repaired.executions) == 2  # flushed batches survived
        assert fsck_store(reopened) == []

    def test_observed_session_streams_to_live_service(self, service):
        with connect(service) as client:
            session = ObservedProcessSession(name="svc", store=client,
                                             stream_batch=1)
            session.observe(["python", "-c", "print('via service')"])
            run = session.finish()
            assert fingerprint(client.load_run(run.id)) == fingerprint(run)


# ----------------------------------------------------------------------
# ingest-error propagation (stream-flush atomicity)
# ----------------------------------------------------------------------
class TestIngestErrorPropagation:
    def test_flush_failure_rolls_back_whole_batch(self, corpus):
        store = RelationalStore()
        run = clone_run(corpus[0], "atomic")
        writer = store.save_run_stream(run)
        executions = list(run.executions)
        for artifact in run.artifacts.values():
            writer.add_artifact(artifact)
        writer.add_execution(executions[0])
        writer.flush()  # batch 1 committed cleanly
        poison = executions[2]
        poison.parameters = {"bad": {1, 2, 3}}  # not JSON-serializable
        writer.add_execution(executions[1])
        writer.add_execution(poison)
        with pytest.raises(TypeError):
            writer.flush()  # executions[1] inserted, then poison raises
        # the torn half-batch must have been rolled back: only batch 1
        # is durable and the journal watermark still agrees with it
        rows = store._connection.execute(
            "SELECT COUNT(*), COALESCE(MAX(seq), -1) FROM executions"
            " WHERE run_id = ?", (run.id,)).fetchone()
        assert tuple(rows) == (1, 0)
        state = store._connection.execute(
            "SELECT committed_seq FROM stream_state WHERE run_id = ?",
            (run.id,)).fetchone()
        assert state[0] == 1
        writer.abort()
        assert not store.has_run(run.id)

    def test_flush_retry_after_transient_failure_converges(self, corpus):
        store = RelationalStore()
        run = clone_run(corpus[0], "retry")
        writer = store.save_run_stream(run)
        for artifact in run.artifacts.values():
            writer.add_artifact(artifact)
        flaky = run.executions[1]
        original_parameters = flaky.parameters
        flaky.parameters = {"bad": {1}}
        writer.add_execution(run.executions[0])
        writer.add_execution(flaky)
        with pytest.raises(TypeError):
            writer.flush()
        flaky.parameters = original_parameters  # transient cause repaired
        writer.flush()  # the same staged batch retries cleanly
        for execution in run.executions[2:]:
            writer.add_execution(execution)
        writer.finish(status=run.status, finished=run.finished,
                      tags=run.tags)
        reference = MemoryStore()
        reference.save_run(run)
        assert (fingerprint(store.load_run(run.id))
                == fingerprint(reference.load_run(run.id)))


# ----------------------------------------------------------------------
# CLI plumbing: repro serve / --server
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_serve_subcommand_is_wired(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/x", "--shards", "2", "--port", "0"])
        assert args.shards == 2 and args.handler is not None

    def test_runs_and_lineage_against_live_server(self, service, capsys):
        from repro.cli import main
        address = f"{service.host}:{service.port}"
        assert main(["runs", "--server", address, "--demo", "1",
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "1 runs" in out
        assert main(["lineage", "--server", address, "--demo", "1"]) == 0
        out = capsys.readouterr().out
        assert "derived from" in out

    def test_observe_against_live_server(self, service, capsys):
        from repro.cli import main
        address = f"{service.host}:{service.port}"
        assert main(["observe", "--server", address, "--",
                     "python", "-c", "print('cli')"]) == 0
        out = capsys.readouterr().out
        assert f"saved to {address}" in out
        with connect(service) as client:
            assert len(client.list_runs()) >= 1
