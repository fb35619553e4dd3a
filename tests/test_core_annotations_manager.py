"""Tests for annotations and the ProvenanceManager facade."""

import pytest

from repro.core import Annotation, AnnotationStore, ProvenanceManager
from repro.storage import RelationalStore
from tests.conftest import build_fig1_workflow, module_by_name


class TestAnnotationStore:
    def test_annotate_and_fetch(self):
        store = AnnotationStore()
        store.annotate("artifact", "art-1", "note", "looks wrong",
                       author="alice")
        found = store.for_target("artifact", "art-1")
        assert len(found) == 1
        assert found[0].value == "looks wrong"

    def test_rejects_unknown_kind(self):
        store = AnnotationStore()
        with pytest.raises(ValueError):
            store.annotate("galaxy", "x", "k", "v")

    def test_multiple_annotations_ordered(self):
        store = AnnotationStore()
        store.annotate("module", "mod-1", "a", 1)
        store.annotate("module", "mod-1", "b", 2)
        keys = [a.key for a in store.for_target("module", "mod-1")]
        assert keys == ["a", "b"]

    def test_by_key_and_author(self):
        store = AnnotationStore()
        store.annotate("run", "run-1", "quality", "good", author="alice")
        store.annotate("run", "run-2", "quality", "bad", author="bob")
        assert len(store.by_key("quality")) == 2
        assert [a.value for a in store.by_author("bob")] == ["bad"]

    def test_search_matches_keys_and_values(self):
        store = AnnotationStore()
        store.annotate("artifact", "art-1", "scanner", "CT unit five")
        store.annotate("artifact", "art-2", "note", 42)
        assert len(store.search("ct unit")) == 1
        assert len(store.search("scanner")) == 1
        assert store.search("missing") == []

    def test_remove(self):
        store = AnnotationStore()
        annotation = store.annotate("run", "run-1", "k", "v")
        assert store.remove(annotation.id)
        assert not store.remove(annotation.id)
        assert store.for_target("run", "run-1") == []

    def test_roundtrip_dicts(self):
        store = AnnotationStore()
        store.annotate("execution", "exec-1", "k", {"deep": [1]})
        restored = AnnotationStore.from_dicts(store.to_dicts())
        assert restored.for_target("execution", "exec-1")[0].value == \
            {"deep": [1]}
        assert len(restored) == 1


class TestProvenanceManager:
    def test_run_captures_and_stores(self, manager):
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        assert manager.get_run(run.id).id == run.id
        assert manager.store.load_workflow(workflow.id).signature \
            == workflow.signature()

    def test_add_module_validates_type(self, manager):
        workflow = manager.new_workflow("w")
        with pytest.raises(Exception):
            manager.add_module(workflow, "NoSuchType")

    def test_causality_from_id_and_object(self, manager):
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        by_object = manager.causality(run)
        by_id = manager.causality(run.id)
        assert by_object.node_count == by_id.node_count

    def test_annotate_persists_to_store(self, manager):
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        manager.annotate("run", run.id, "review", "approved",
                         author="carol")
        stored = manager.store.annotations_for("run", run.id)
        assert stored[0].value == "approved"
        assert manager.annotations_for("run", run.id)[0].author == "carol"

    def test_reopened_manager_reads_stored_annotations(self, tmp_path):
        path = str(tmp_path / "prov.db")
        first = ProvenanceManager(store=RelationalStore(path))
        made = first.annotate("run", "run-x", "review", "approved")
        first.store.close()
        second = ProvenanceManager(store=RelationalStore(path))
        try:
            assert second.annotations_for("run", "run-x") == [made]
        finally:
            second.store.close()

    def test_cache_speeds_second_run(self, manager):
        workflow = build_fig1_workflow(size=8)
        manager.run(workflow)
        second = manager.run(workflow)
        assert all(e.status == "cached" for e in second.executions)
        stats = manager.cache_stats()
        assert stats["hits"] >= 5

    def test_cache_disabled(self):
        manager = ProvenanceManager(use_cache=False)
        workflow = build_fig1_workflow(size=8)
        manager.run(workflow)
        second = manager.run(workflow)
        assert all(e.status == "ok" for e in second.executions)
        assert manager.cache_stats() == {"hits": 0, "misses": 0,
                                         "hit_rate": 0.0, "evictions": 0,
                                         "invalidations": 0}

    def test_runs_listing_ordered(self, manager):
        workflow = build_fig1_workflow(size=8)
        first = manager.run(workflow)
        second = manager.run(workflow)
        listed = [run.id for run in manager.runs()]
        assert listed.index(first.id) < listed.index(second.id)

    def test_prospective_snapshot(self, manager):
        workflow = build_fig1_workflow(size=8)
        prospective = manager.prospective(workflow)
        assert prospective.signature == workflow.signature()

    def test_to_opm_handoff(self, manager):
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        opm_graph = manager.to_opm(run)
        assert opm_graph.artifacts and opm_graph.processes

    def test_query_handoff(self, manager):
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        rows = manager.query("EXECUTIONS", run)
        assert len(rows) == 5
