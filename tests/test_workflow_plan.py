"""The per-version workflow plan: invalidation, parity, reuse, sharing.

Every fact the plan serves is checked against a derivation from scratch
after each way a workflow can be edited — through its mutators or behind
their back — so a stale plan shows up as a mismatch.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.workflow as analysis_workflow
import repro.core.prospective as prospective_module
from repro.core import ProspectiveProvenance, ProvenanceCapture
from repro.identity import canonical_json, content_hash, new_id
from repro.storage import MemoryStore, RelationalStore
from repro.workflow import (Connection, CycleError, ExecutionError, Executor,
                            Module, ResultCache, Workflow, check_workflow,
                            workflow_from_dict, workflow_to_dict)
from repro.workflow.cache import (cache_key_suffix, cache_key_with_suffix,
                                  module_cache_key)
from repro.workflow.modules import standard_registry
from repro.workflow.registry import ModuleDefinition
from repro.workflow.validation import ValidationIssue
from repro.workloads import clone_run, random_workflow


def build_workflow():
    """source -> scale -> show, plus a list-valued constant -> length."""
    workflow = Workflow("planned")
    source = workflow.add_module(Module("NumberConstant", name="source",
                                        parameters={"value": 1}))
    scale = workflow.add_module(Module("Scale", name="scale",
                                       parameters={"factor": 0.0}))
    show = workflow.add_module(Module("ToString", name="show"))
    items = workflow.add_module(Module("Constant", name="items",
                                       parameters={"value": [1, 2]}))
    length = workflow.add_module(Module("ListLength", name="length"))
    workflow.connect(source.id, "value", scale.id, "value")
    workflow.connect(scale.id, "result", show.id, "value")
    workflow.connect(items.id, "value", length.id, "items")
    return workflow


def named(workflow, name):
    return next(m for m in workflow.modules.values() if m.name == name)


def fresh_issues(workflow, registry):
    return [ValidationIssue(severity=d.severity, code=d.rule,
                            message=d.message, subject=d.subject)
            for d in analysis_workflow.legacy_diagnostics(workflow,
                                                          registry)]


def assert_plan_matches_fresh(workflow, registry):
    """Everything served from the plan equals a derivation from scratch."""
    assert workflow.signature() == content_hash(
        canonical_json(workflow.structure_dict()).encode("utf-8"))
    issues = check_workflow(workflow, registry)
    assert issues == fresh_issues(workflow, registry)
    snapshot = ProspectiveProvenance.from_workflow(workflow, registry)
    assert snapshot.spec == workflow_to_dict(workflow)
    assert snapshot.signature == workflow.signature()
    assert (snapshot.workflow_id, snapshot.workflow_name) == (
        workflow.id, workflow.name)
    if any(issue.is_error() for issue in issues):
        return
    rebuilt = workflow_from_dict(json.loads(json.dumps(
        workflow_to_dict(workflow))))
    assert workflow.topological_order() == rebuilt.topological_order()
    run = Executor(registry).execute(workflow)
    assert run.status == "ok"
    assert run.order == workflow.topological_order()
    for module_id, result in run.results.items():
        module = workflow.modules[module_id]
        definition = registry.get(module.type_name)
        resolved = definition.resolve_parameters(module.parameters)
        assert result.parameters == resolved
        assert [type(v) for v in result.parameters.values()] == [
            type(v) for v in resolved.values()]
        assert result.cache_key == module_cache_key(
            definition.type_name, definition.version, resolved,
            {port: record.value_hash
             for port, record in result.inputs.items()})


def _set_parameter(workflow, registry):
    workflow.set_parameter(named(workflow, "scale").id, "factor", 3.0)


def _write_parameter(workflow, registry):
    named(workflow, "scale").parameters["factor"] = 4.5


def _type_only(workflow, registry):
    named(workflow, "source").parameters["value"] = 1.0


def _bool_for_int(workflow, registry):
    named(workflow, "source").parameters["value"] = True


def _negative_zero(workflow, registry):
    named(workflow, "scale").parameters["factor"] = -0.0


def _nested_in_place(workflow, registry):
    named(workflow, "items").parameters["value"].append(3)


def _nested_tuple(workflow, registry):
    named(workflow, "items").parameters["value"] = (1, 2)


def _unset_parameter(workflow, registry):
    workflow.unset_parameter(named(workflow, "scale").id, "factor")


def _module_name(workflow, registry):
    named(workflow, "scale").name = "renamed"


def _rename_module(workflow, registry):
    workflow.rename_module(named(workflow, "show").id, "shown")


def _position(workflow, registry):
    named(workflow, "scale").position = (5.0, 6.0)


def _module_type(workflow, registry):
    named(workflow, "scale").type_name = "Power"


def _new_connections_dict(workflow, registry):
    show = named(workflow, "show").id
    workflow.connections = {cid: c for cid, c
                            in workflow.connections.items()
                            if c.target_module != show}


def _direct_connection_write(workflow, registry):
    extra = workflow.add_module(Module("ToString", name="extra"))
    connection = Connection(named(workflow, "source").id, "value",
                            extra.id, "value")
    workflow.connections[connection.id] = connection


def _add_module(workflow, registry):
    workflow.add_module(Module("NumberConstant", name="another"))


def _remove_module(workflow, registry):
    workflow.remove_module_cascade(named(workflow, "show").id)


def _workflow_name(workflow, registry):
    workflow.name = "renamed-workflow"


def _workflow_id(workflow, registry):
    workflow.id = new_id("wf")


EDITS = [_set_parameter, _write_parameter, _type_only, _bool_for_int,
         _negative_zero, _nested_in_place, _nested_tuple, _unset_parameter,
         _module_name, _rename_module, _position, _module_type,
         _new_connections_dict, _direct_connection_write, _add_module,
         _remove_module, _workflow_name, _workflow_id]


class TestInvalidation:
    @pytest.mark.parametrize("edit", EDITS, ids=lambda f: f.__name__[1:])
    def test_every_edit_rebuilds_the_plan(self, edit):
        registry = standard_registry()
        workflow = build_workflow()
        assert_plan_matches_fresh(workflow, registry)
        plan = workflow._plan()
        snapshot = ProspectiveProvenance.from_workflow(workflow, registry)
        signature = workflow.signature()
        edit(workflow, registry)
        assert workflow._plan() is not plan
        assert ProspectiveProvenance.from_workflow(
            workflow, registry) is not snapshot
        assert_plan_matches_fresh(workflow, registry)
        if edit not in (_nested_tuple, _position, _workflow_name,
                        _workflow_id):
            assert workflow.signature() != signature

    def test_unchanged_workflow_keeps_its_plan(self):
        registry = standard_registry()
        workflow = build_workflow()
        plan = workflow._plan()
        snapshot = ProspectiveProvenance.from_workflow(workflow, registry)
        Executor(registry).execute(workflow)
        workflow.set_parameter(named(workflow, "scale").id, "factor", 0.0)
        assert workflow._plan() is plan
        assert ProspectiveProvenance.from_workflow(
            workflow, registry) is snapshot

    def test_registry_register_rebuilds_registry_facts(self):
        registry = standard_registry()
        workflow = build_workflow()
        later = workflow.add_module(Module("LaterType", name="later"))

        def errors():
            return [i.code for i in check_workflow(workflow, registry)
                    if i.is_error()]

        assert errors() == ["unknown-module-type"]
        snapshot = ProspectiveProvenance.from_workflow(workflow, registry)
        assert "LaterType" not in snapshot.interfaces
        plan = workflow._plan()
        registry.register(ModuleDefinition(
            "LaterType", compute=lambda ctx: {}, doc="registered later"))
        assert workflow._plan() is plan
        assert errors() == []
        snapshot = ProspectiveProvenance.from_workflow(workflow, registry)
        assert snapshot.interfaces["LaterType"]["doc"] == "registered later"
        assert later.id in Executor(registry).execute(workflow).results
        assert_plan_matches_fresh(workflow, registry)

    def test_plan_keeps_the_newest_registries_only(self):
        workflow = build_workflow()
        registries = [standard_registry() for _ in range(6)]
        for registry in registries:
            ProspectiveProvenance.from_workflow(workflow, registry)
        kept = [facts.registry for facts
                in workflow._plan()._registries.values()]
        assert kept == registries[-4:]

    def test_array_parameters_rebuild_without_raising(self):
        workflow = Workflow("arrays")
        module = workflow.add_module(Module(
            "Constant", parameters={"value": np.zeros(3)}))
        plan = workflow._plan()
        # an equal new array: == on arrays is not a bool, so the key
        # comparison cannot decide and the plan is rebuilt
        module.parameters["value"] = np.zeros(3)
        assert workflow._plan() is not plan
        plan = workflow._plan()
        assert workflow._plan() is plan
        module.parameters["value"][0] = 1.0
        assert workflow._plan() is not plan
        spec = workflow_to_dict(workflow)["modules"][0]["parameters"]
        assert spec["value"] is not module.parameters["value"]
        assert spec["value"].tolist() == [1.0, 0.0, 0.0]

    def test_cycle_raises_on_every_call(self):
        registry = standard_registry()
        workflow = Workflow("loop")
        a = workflow.add_module(Module("Identity", name="a"))
        b = workflow.add_module(Module("Identity", name="b"))
        workflow.connect(a.id, "value", b.id, "value")
        workflow.connect(b.id, "value", a.id, "value")
        for _ in range(3):
            with pytest.raises(CycleError):
                workflow.topological_order()
            assert "cycle" in [i.code for i in
                               check_workflow(workflow, registry)]
            with pytest.raises(ExecutionError):
                Executor(registry).execute(workflow)
            with pytest.raises(CycleError):
                Executor(registry, validate=False).execute(workflow)

    def test_dangling_connection_reports_and_signs(self):
        registry = standard_registry()
        workflow = build_workflow()
        del workflow.modules[named(workflow, "show").id]
        for _ in range(2):
            codes = [i.code for i in check_workflow(workflow, registry)
                     if i.is_error()]
            assert codes == ["dangling-connection"]
            signature = workflow.signature()
            assert signature == content_hash(
                canonical_json(workflow.structure_dict()).encode("utf-8"))
        with pytest.raises(ExecutionError):
            Executor(registry).execute(workflow)


class TestCacheKeyParity:
    parameter_values = st.one_of(
        st.none(), st.booleans(), st.integers(-10**6, 10**6),
        st.floats(allow_nan=False), st.text(max_size=6),
        st.lists(st.integers(-5, 5), max_size=3))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(type_name=st.text(min_size=1, max_size=6),
           version=st.text(max_size=4),
           parameters=st.dictionaries(st.text(max_size=5),
                                      parameter_values, max_size=4),
           inputs=st.dictionaries(st.text(max_size=5),
                                  st.text("0123456789abcdef", max_size=8),
                                  max_size=3))
    def test_suffix_keys_equal_module_cache_key(self, type_name, version,
                                                parameters, inputs):
        suffix = cache_key_suffix(type_name, version, parameters)
        assert cache_key_with_suffix(suffix, inputs) == module_cache_key(
            type_name, version, parameters, inputs)

    @pytest.mark.parametrize("overrides", [False, True])
    def test_engine_keys_equal_module_cache_key(self, registry, overrides):
        workflow = random_workflow(24, width=4, seed=3, work=5)
        per_run = {}
        if overrides:
            scales = [m for m in workflow.modules.values()
                      if m.type_name == "Scale"]
            per_run = {m.id: {"factor": 7} for m in scales[:3]}
        cache = ResultCache()
        for _ in range(2):  # a cold run, then a warm one off the plan
            run = Executor(registry, cache=cache).execute(
                workflow, parameter_overrides=per_run)
            for module_id, result in run.results.items():
                module = workflow.modules[module_id]
                definition = registry.get(module.type_name)
                parameters = definition.resolve_parameters(module.parameters)
                parameters.update(per_run.get(module_id, {}))
                assert result.parameters == parameters
                assert result.cache_key == module_cache_key(
                    definition.type_name, definition.version, parameters,
                    {p: r.value_hash for p, r in result.inputs.items()})
        assert run.reused_modules() == sorted(workflow.modules)


class TestDerivedOncePerVersion:
    def test_reruns_derive_static_facts_once(self, monkeypatch):
        registry = standard_registry()
        workflow = build_workflow()
        calls = {"legacy": 0, "structure": 0, "to_dict": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(analysis_workflow, "legacy_diagnostics",
                            counting("legacy",
                                     analysis_workflow.legacy_diagnostics))
        monkeypatch.setattr(Workflow, "structure_dict",
                            counting("structure", Workflow.structure_dict))
        monkeypatch.setattr(prospective_module, "workflow_to_dict",
                            counting("to_dict",
                                     prospective_module.workflow_to_dict))
        store = RelationalStore()
        capture = ProvenanceCapture(registry=registry, store=store)
        executor = Executor(registry, cache=ResultCache(),
                            listeners=[capture])
        for _ in range(3):
            executor.execute(workflow)
        assert calls == {"legacy": 1, "structure": 1, "to_dict": 1}
        workflow.set_parameter(named(workflow, "scale").id, "factor", 2.0)
        for _ in range(3):
            executor.execute(workflow)
        assert calls == {"legacy": 2, "structure": 2, "to_dict": 2}
        assert len(store.list_runs()) == 6
        assert capture.runs[0].workflow_spec is capture.runs[2].workflow_spec
        assert capture.runs[2].workflow_spec is not \
            capture.runs[3].workflow_spec


class TestSharing:
    def test_four_threads_share_one_workflow(self, registry):
        workflow = random_workflow(40, width=5, seed=11, work=20)
        reference = Executor(registry).execute(workflow)
        expected = {m: ({p: r.value_hash for p, r in res.outputs.items()},
                        res.cache_key)
                    for m, res in reference.results.items()}
        cache = ResultCache()
        outcomes, errors = [], []
        barrier = threading.Barrier(4)

        def worker():
            try:
                barrier.wait()
                capture = ProvenanceCapture(registry=registry)
                executor = Executor(registry, cache=cache,
                                    listeners=[capture])
                for _ in range(3):
                    run = executor.execute(workflow)
                    outcomes.append((run, capture.run_by_id(run.run_id)))
            except BaseException as exc:  # pragma: no cover - reported
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(outcomes) == 12
        for run, captured in outcomes:
            assert run.status == "ok"
            assert run.order == reference.order
            assert {m: ({p: r.value_hash for p, r in res.outputs.items()},
                        res.cache_key)
                    for m, res in run.results.items()} == expected
            assert captured.workflow_signature == workflow.signature()
            assert captured.workflow_spec == workflow_to_dict(workflow)

    def test_pickle_and_copy_after_execution(self, registry):
        workflow = build_workflow()
        capture = ProvenanceCapture(registry=registry)
        first = Executor(registry, listeners=[capture]).execute(workflow)
        assert workflow._plan_cache is not None
        restored = pickle.loads(pickle.dumps(workflow))
        duplicate = copy.deepcopy(workflow)
        for other in (restored, duplicate, workflow.copy(workflow.id)):
            assert "_plan_cache" not in vars(other)
            assert other.signature() == workflow.signature()
            assert other.topological_order() == first.order
            rerun = Executor(registry).execute(other)
            assert {m: r.cache_key for m, r in rerun.results.items()} == {
                m: r.cache_key for m, r in first.results.items()}


class TestSnapshotOwnsItsValues:
    def test_captured_recipe_survives_later_edits(self, registry):
        workflow = build_workflow()
        scale = named(workflow, "scale")
        items = named(workflow, "items")
        store = MemoryStore()
        capture = ProvenanceCapture(registry=registry, store=store)
        Executor(registry, listeners=[capture]).execute(workflow)
        run = capture.last_run()
        workflow.set_parameter(scale.id, "factor", 99.0)
        items.parameters["value"].append(99)

        def recorded(spec, module):
            return next(m["parameters"] for m in spec["modules"]
                        if m["id"] == module.id)

        for spec in (run.workflow_spec, store.load_run(run.id).workflow_spec,
                     store.load_workflow(workflow.id).spec):
            assert recorded(spec, scale) == {"factor": 0.0}
            assert recorded(spec, items) == {"value": [1, 2]}
        execution = run.execution_for_module(scale.id)
        assert execution.parameters == {"factor": 0.0}

    def test_relational_spec_columns_match_plain_encoding(self, registry):
        workflow = build_workflow()
        store = RelationalStore()
        capture = ProvenanceCapture(registry=registry, store=store)
        Executor(registry, listeners=[capture]).execute(workflow)
        run = capture.last_run()
        snapshot = ProspectiveProvenance.from_workflow(workflow, registry)
        assert run.workflow_spec is snapshot.spec
        (stored_run,) = store.sql("SELECT spec FROM runs")
        (stored_workflow,) = store.sql("SELECT spec FROM workflows")
        assert stored_run[0] == stored_workflow[0] == json.dumps(
            run.workflow_spec)
        # a run whose spec is not the saved snapshot's is encoded anew
        other = clone_run(run, "other")
        other.workflow_spec = dict(run.workflow_spec, name="other")
        store.save_run(other)
        assert store.sql("SELECT spec FROM runs WHERE id = ?",
                         (other.id,))[0][0] == json.dumps(
                             other.workflow_spec)

    def test_save_workflow_writes_only_changed_rows(self, registry,
                                                    tmp_path):
        path = str(tmp_path / "shared.db")
        first, second = RelationalStore(path), RelationalStore(path)
        workflow = build_workflow()
        snapshot = ProspectiveProvenance.from_workflow(workflow, registry)
        first.save_workflow(snapshot)
        writes = first._connection.total_changes
        first.save_workflow(snapshot)
        assert first._connection.total_changes == writes
        # another writer replaces the row: saving the snapshot again
        # restores it, as a plain overwrite would
        renamed = dataclasses.replace(snapshot, workflow_name="renamed")
        second.save_workflow(renamed)
        assert first.load_workflow(workflow.id).workflow_name == "renamed"
        first.save_workflow(snapshot)
        assert second.load_workflow(workflow.id).workflow_name == \
            workflow.name
        assert first.load_workflow(workflow.id).spec == snapshot.spec
        first.close()
        second.close()
