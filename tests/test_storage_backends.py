"""Backend-conformance tests run against all four provenance stores."""

import dataclasses
import sqlite3

import numpy as np
import pytest

from repro.core import (Annotation, ModuleExecution, ProspectiveProvenance,
                        ProvenanceCapture, stream_run_to_store)
from repro.storage import (ArtifactValueStore, DocumentStore,
                           FileArtifactValueStore, MemoryStore,
                           ProvQuery, RelationalStore, StoreError,
                           TripleProvenanceStore, TripleStore,
                           run_to_triples)
from repro.workflow import Executor, Module, Workflow
from repro.workloads import chain_workflow, clone_run
from tests.conftest import build_fig1_workflow, module_by_name


def make_store(name, tmp_path):
    if name == "memory":
        return MemoryStore()
    if name == "relational":
        return RelationalStore()
    if name == "relational-values":
        return RelationalStore(store_values=True)
    if name == "triples":
        return TripleProvenanceStore()
    if name == "documents":
        return DocumentStore(tmp_path / "docs")
    raise ValueError(name)


BACKENDS = ["memory", "relational", "triples", "documents"]


@pytest.fixture()
def captured_run(registry):
    workflow = build_fig1_workflow(size=8)
    capture = ProvenanceCapture(registry=registry)
    Executor(registry, listeners=[capture]).execute(
        workflow, tags={"suite": "storage"})
    return workflow, capture.last_run()


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreConformance:
    def test_run_roundtrip(self, backend, tmp_path, captured_run):
        workflow, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        loaded = store.load_run(run.id)
        assert loaded.id == run.id
        assert loaded.status == "ok"
        assert loaded.workflow_signature == run.workflow_signature
        assert len(loaded.executions) == len(run.executions)
        assert set(loaded.artifacts) == set(run.artifacts)
        original = run.execution_for_module(
            module_by_name(workflow, "iso").id)
        restored = loaded.execution_for_module(
            module_by_name(workflow, "iso").id)
        assert restored.parameters == original.parameters
        assert restored.input_artifacts() == original.input_artifacts()

    def test_missing_run_raises(self, backend, tmp_path, captured_run):
        store = make_store(backend, tmp_path)
        with pytest.raises(StoreError):
            store.load_run("run-missing")

    def test_list_and_delete(self, backend, tmp_path, captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        assert [s.run_id for s in store.list_runs()] == [run.id]
        assert store.delete_run(run.id)
        assert store.list_runs() == []
        assert not store.delete_run(run.id)

    def test_save_is_idempotent_overwrite(self, backend, tmp_path,
                                          captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        store.save_run(run)
        assert len(store.list_runs()) == 1
        assert len(store.load_run(run.id).executions) == \
            len(run.executions)

    def test_workflow_roundtrip(self, backend, tmp_path, captured_run,
                                registry):
        workflow, _ = captured_run
        store = make_store(backend, tmp_path)
        prospective = ProspectiveProvenance.from_workflow(workflow,
                                                          registry)
        store.save_workflow(prospective)
        loaded = store.load_workflow(workflow.id)
        assert loaded.signature == prospective.signature
        assert loaded.to_workflow().signature() == workflow.signature()
        assert store.list_workflows() == [workflow.id]

    def test_annotation_roundtrip(self, backend, tmp_path, captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        from repro.core import Annotation
        store.save_annotation(Annotation(
            target_kind="run", target_id=run.id, key="grade",
            value={"score": 9}, author="dana", created=1.5))
        found = store.annotations_for("run", run.id)
        assert found[0].value == {"score": 9}
        assert found[0].author == "dana"
        assert len(store.all_annotations()) == 1

    def test_select_runs_by_status(self, backend, tmp_path, captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)

        def run_ids(**criteria):
            return [row["id"] for row in store.select(
                ProvQuery.runs().where(**criteria).project("id"))]

        assert run_ids(status="ok") == [run.id]
        assert run_ids(status="failed") == []
        assert run_ids(workflow_id=run.workflow_id) == [run.id]

    def test_select_artifacts_by_hash(self, backend, tmp_path,
                                      captured_run):
        workflow, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        rows = store.select(ProvQuery.artifacts()
                            .where(value_hash=volume.value_hash)).all()
        assert [(row["run_id"], row["id"]) for row in rows] == \
            [(run.id, volume.id)]

    def test_select_executions_by_type(self, backend, tmp_path,
                                       captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)

        def executions(**criteria):
            return store.select(
                ProvQuery.executions().where(**criteria)).all()

        assert len(executions(module_type="IsosurfaceExtract")) == 1
        assert len(executions(module_type="IsosurfaceExtract",
                              param__level=90.0)) == 1
        assert executions(module_type="IsosurfaceExtract",
                          param__level=1.0) == []


class TestRelationalSpecifics:
    def test_raw_sql_queries(self, captured_run):
        _, run = captured_run
        store = RelationalStore()
        store.save_run(run)
        rows = store.sql("SELECT COUNT(*) FROM executions")
        assert rows[0][0] == 5
        rows = store.sql(
            "SELECT module_type FROM executions WHERE run_id = ?"
            " ORDER BY module_type", (run.id,))
        assert rows[0][0] == "ComputeHistogram"

    def test_sql_rejects_writes(self, captured_run):
        store = RelationalStore()
        with pytest.raises(StoreError):
            store.sql("DELETE FROM runs")
        with pytest.raises(StoreError):
            store.sql("SELECT 1; DROP TABLE runs")

    def test_values_persist_when_enabled(self, captured_run):
        workflow, run = captured_run
        store = RelationalStore(store_values=True)
        store.save_run(run)
        loaded = store.load_run(run.id)
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        assert np.array_equal(loaded.values[volume.id],
                              run.values[volume.id])

    def test_values_skipped_when_disabled(self, captured_run):
        _, run = captured_run
        store = RelationalStore(store_values=False)
        store.save_run(run)
        assert store.load_run(run.id).values == {}

    def test_resave_with_values_replaces_them(self, captured_run):
        _, run = captured_run
        store = RelationalStore(store_values=True)
        store.save_run(run)
        store.save_run(run)
        assert store.load_run(run.id).values.keys() == run.values.keys()
        store.save_run(dataclasses.replace(run, values={}))
        assert store.load_run(run.id).values == {}

    def test_failed_save_leaves_nothing_to_commit(self, captured_run,
                                                  tmp_path):
        """A save that fails partway is rolled back, so the next write
        (here an annotation) commits none of it."""
        _, run = captured_run
        path = str(tmp_path / "prov.db")
        store = RelationalStore(path)
        store.save_run(run)
        # a new run id, but execution ids the stored run already owns
        colliding = dataclasses.replace(run, id="run-colliding")
        with pytest.raises(sqlite3.IntegrityError):
            store.save_run(colliding)
        store.save_annotation(Annotation("run", run.id, "note", "kept"))
        assert not store.has_run(colliding.id)
        reopened = RelationalStore(path)
        assert [s.run_id for s in reopened.list_runs()] == [run.id]
        assert reopened.sql("SELECT COUNT(*) FROM executions")[0][0] == \
            len(run.executions)

    def test_failed_resave_keeps_the_stored_run(self, captured_run):
        _, run = captured_run
        store = RelationalStore(store_values=True)
        other = clone_run(run, "other")
        store.save_runs([run, other])
        before = store.load_run(run.id)
        broken = dataclasses.replace(
            run, executions=run.executions[:-1] + [dataclasses.replace(
                run.executions[-1], id=other.executions[0].id)])
        with pytest.raises(sqlite3.IntegrityError):
            store.save_run(broken)
        after = store.load_run(run.id)
        assert after.to_dict() == before.to_dict()
        assert after.values.keys() == before.values.keys()

    def test_load_run_query_shape(self, registry):
        """load_run issues a fixed number of statements, whatever the run
        size, and none of them scans a whole table."""
        store = RelationalStore(store_values=True)
        runs = []
        for length in (2, 199):
            capture = ProvenanceCapture(registry=registry)
            Executor(registry, listeners=[capture]).execute(
                chain_workflow(length, work=1))
            runs.append(capture.last_run())
        store.save_runs(runs)
        assert [len(run.executions) for run in runs] == [3, 200]
        connection = store._connection
        counts = []
        for run in runs:
            statements = []
            connection.set_trace_callback(statements.append)
            try:
                loaded = store.load_run(run.id)
            finally:
                connection.set_trace_callback(None)
            assert len(loaded.executions) == len(run.executions)
            counts.append(len(statements))
            for statement in statements:
                plan = connection.execute(
                    f"EXPLAIN QUERY PLAN {statement}",
                    [None] * statement.count("?")).fetchall()
                scans = [row[-1] for row in plan
                         if row[-1].startswith("SCAN")]
                assert scans == [], (statement, scans)
        assert counts[0] == counts[1]

    def test_run_order_uses_index(self, captured_run):
        """Newest-runs queries at every limit, and list_runs, walk a
        runs index instead of sorting every run, and keep their order:
        newest first, ties by ascending id."""
        _, run = captured_run
        store = RelationalStore()
        # two runs per start time, so the id tie-break is exercised
        store.save_runs([clone_run(run, f"c{index:02d}",
                                   started=float(index // 2))
                         for index in range(12)])
        expected = sorted(store.list_runs(), key=lambda summary: (
            -summary.started, summary.run_id))
        statements = []
        store._connection.set_trace_callback(statements.append)
        try:
            newest = {limit: store.select(ProvQuery.runs().order_by(
                "-started").limit(limit)).all() for limit in (1, 2, 3, 10)}
            listed = store.list_runs()
        finally:
            store._connection.set_trace_callback(None)
        for limit, rows in newest.items():
            assert [row["id"] for row in rows] == [
                summary.run_id for summary in expected[:limit]], limit
        assert len(listed) == 12
        assert len(statements) == 5
        for statement in statements:
            plan = " ".join(row[-1] for row in store.sql(
                f"EXPLAIN QUERY PLAN {statement}"))
            assert "USING INDEX idx_runs_" in plan, (statement, plan)
            assert "TEMP B-TREE" not in plan, (statement, plan)

    def test_row_level_write_parity(self, captured_run):
        """save_run, save_runs and streams of any batch size write the
        same rows into every table."""
        _, run = captured_run
        final = run.executions[2]
        retry = ModuleExecution(
            id="exec-retry", module_id=final.module_id,
            module_type=final.module_type, module_name=final.module_name,
            status="failed", inputs=list(final.inputs), error="boom",
            attempt=1)
        run.executions.insert(2, retry)
        run.tags["derived_from_run"] = "run-parent"
        writers = [lambda store: store.save_run(run),
                   lambda store: store.save_runs([run])]
        writers += [lambda store, batch=batch: stream_run_to_store(
            run, store, batch=batch) for batch in (1, 3, 256)]
        tables = ("runs", "executions", "bindings", "artifacts",
                  "artifact_values", "lineage")
        snapshots = []
        for write in writers:
            store = RelationalStore(store_values=True)
            write(store)
            snapshots.append({table: sorted(store.sql(
                f"SELECT * FROM {table}")) for table in tables})
        reference = snapshots[0]
        assert all(reference[table] for table in tables)
        assert ("run:" + run.id, "run:run-parent", run.id,
                "derived_from_run") in reference["lineage"]
        assert any(row[0] == "exec-retry" for row in reference["executions"])
        for snapshot in snapshots[1:]:
            assert snapshot == reference


class TestTripleStoreSpecifics:
    def test_pattern_matching(self):
        store = TripleStore()
        store.add("s1", "p1", "o1")
        store.add("s1", "p2", "o2")
        store.add("s2", "p1", "o1")
        assert len(store.match(None, "p1", None)) == 2
        assert len(store.match("s1", None, None)) == 2
        assert len(store.match(None, None, "o1")) == 2
        assert store.match("s1", "p1", "o1") == [("s1", "p1", "o1")]
        assert len(store.match()) == 3

    def test_duplicate_add_ignored(self):
        store = TripleStore()
        assert store.add("s", "p", "o")
        assert not store.add("s", "p", "o")
        assert len(store) == 1

    def test_discard_and_remove_subject(self):
        store = TripleStore()
        store.add("s", "p", "o")
        store.add("s", "q", "o2")
        assert store.discard("s", "p", "o")
        assert not store.discard("s", "p", "o")
        assert store.remove_subject("s") == 1
        assert len(store) == 0

    def test_run_triples_contain_lineage_edges(self, captured_run):
        workflow, run = captured_run
        triples = run_to_triples(run)
        predicates = {p for _, p, _ in triples}
        assert "prov:used" in predicates
        assert "prov:wasGeneratedBy" in predicates

    def test_triple_count_scales_with_run(self, captured_run):
        _, run = captured_run
        store = TripleProvenanceStore()
        store.save_run(run)
        assert len(store.triples) > 50
        store.delete_run(run.id)
        assert len(store.triples) == 0


class TestDocumentStoreSpecifics:
    def test_files_on_disk(self, tmp_path, captured_run):
        _, run = captured_run
        store = DocumentStore(tmp_path / "d")
        store.save_run(run)
        assert (tmp_path / "d" / "runs" / f"{run.id}.json").exists()

    def test_values_persist_when_enabled(self, tmp_path, captured_run):
        workflow, run = captured_run
        store = DocumentStore(tmp_path / "d", store_values=True)
        store.save_run(run)
        loaded = store.load_run(run.id)
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        assert np.array_equal(loaded.values[volume.id],
                              run.values[volume.id])


class TestArtifactValueStores:
    def test_memory_put_get(self):
        store = ArtifactValueStore()
        value_hash = store.put({"x": [1, 2]})
        assert store.get(value_hash) == {"x": [1, 2]}
        assert store.has(value_hash)
        assert len(store) == 1

    def test_memory_idempotent(self):
        store = ArtifactValueStore()
        first = store.put("same")
        second = store.put("same")
        assert first == second
        assert len(store) == 1

    def test_file_store_roundtrip(self, tmp_path):
        store = FileArtifactValueStore(tmp_path / "vals")
        array = np.arange(10.0)
        value_hash = store.put(array)
        assert np.array_equal(store.get(value_hash), array)
        assert store.has(value_hash)
        assert len(store) == 1

    def test_file_store_discard(self, tmp_path):
        store = FileArtifactValueStore(tmp_path / "vals")
        value_hash = store.put("x")
        assert store.discard(value_hash)
        assert not store.discard(value_hash)
        with pytest.raises(KeyError):
            store.get(value_hash)

    def test_file_store_hashes_parity_with_memory(self, tmp_path):
        memory = ArtifactValueStore()
        disk = FileArtifactValueStore(tmp_path / "vals")
        for value in ("alpha", [1, 2, 3], {"k": 9}, 3.5):
            assert memory.put(value) == disk.put(value)
        assert list(disk.hashes()) == list(memory.hashes())
        assert len(disk) == len(memory) == 4
        first = next(iter(memory.hashes()))
        disk.discard(first)
        memory.discard(first)
        assert list(disk.hashes()) == list(memory.hashes())
