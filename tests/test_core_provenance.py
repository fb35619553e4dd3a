"""Tests for prospective/retrospective records, capture and causality."""

import pytest

from repro.core import (ProspectiveProvenance, ProvenanceCapture,
                        ScriptCapture, WorkflowRun, artifacts_affected_by,
                        causality_graph, data_dependencies,
                        derivation_paths, downstream_artifacts,
                        run_from_result, upstream_artifacts,
                        upstream_executions)
from repro.workflow import Executor, Module, Workflow
from tests.conftest import (RecordingListener, build_fig1_workflow,
                            module_by_name)


@pytest.fixture()
def fig1_run(registry):
    workflow = build_fig1_workflow(size=8)
    capture = ProvenanceCapture(registry=registry)
    executor = Executor(registry, listeners=[capture])
    executor.execute(workflow, tags={"case": "fig1"})
    return workflow, capture.last_run()


class TestRunFromResult:
    def test_execution_count_matches_modules(self, fig1_run):
        workflow, run = fig1_run
        assert len(run.executions) == len(workflow.modules)

    def test_status_and_tags(self, fig1_run):
        _, run = fig1_run
        assert run.status == "ok"
        assert run.tags == {"case": "fig1"}

    def test_spec_snapshot_embedded(self, fig1_run):
        workflow, run = fig1_run
        assert run.workflow_spec["id"] == workflow.id
        assert len(run.workflow_spec["modules"]) == len(workflow.modules)

    def test_artifact_types_from_registry(self, fig1_run):
        workflow, run = fig1_run
        load = module_by_name(workflow, "load")
        artifact = run.artifacts_for_module(load.id, "volume")
        assert artifact.type_name == "VolumeData"

    def test_shared_value_is_one_artifact(self, fig1_run):
        workflow, run = fig1_run
        # load.volume feeds both hist and iso: one artifact, 3 references
        load = module_by_name(workflow, "load")
        hist = module_by_name(workflow, "hist")
        iso = module_by_name(workflow, "iso")
        volume_artifact = run.artifacts_for_module(load.id, "volume")
        hist_exec = run.execution_for_module(hist.id)
        iso_exec = run.execution_for_module(iso.id)
        assert hist_exec.inputs[0].artifact_id == volume_artifact.id
        assert iso_exec.inputs[0].artifact_id == volume_artifact.id

    def test_values_kept(self, fig1_run):
        workflow, run = fig1_run
        load = module_by_name(workflow, "load")
        artifact = run.artifacts_for_module(load.id, "volume")
        assert run.value(artifact.id).ndim == 3

    def test_values_can_be_dropped(self, registry):
        workflow = build_fig1_workflow(size=8)
        capture = ProvenanceCapture(registry=registry, keep_values=False)
        Executor(registry, listeners=[capture]).execute(workflow)
        assert capture.last_run().values == {}

    def test_final_artifacts_are_sink_products(self, fig1_run):
        workflow, run = fig1_run
        finals = run.final_artifacts()
        roles = {artifact.role for artifact in finals}
        # two rendered images plus the never-consumed volume header
        assert roles == {"image", "header"}
        assert len(finals) == 3

    def test_equal_outputs_record_each_later_producer_once(self, registry):
        # every stage of an Identity chain re-emits the source's value
        workflow = Workflow("same-hash")
        previous = workflow.add_module(Module(
            "NumberConstant", parameters={"value": 7.0}))
        for index in range(30):
            stage = workflow.add_module(Module("Identity",
                                               name=f"id{index:02d}"))
            workflow.connect(previous.id, "value", stage.id, "value")
            previous = stage
        result = Executor(registry).execute(workflow)
        for module_id in result.order[1:]:
            # a second port with the same value: one producer, twice
            outputs = result.results[module_id].outputs
            outputs["copy"] = outputs["value"]
        run = run_from_result(result, registry=registry)
        produced = [a for a in run.artifacts.values() if a.created_by]
        assert len(produced) == 1
        executions = [result.results[m].execution_id for m in result.order]
        assert produced[0].created_by == executions[0]
        assert produced[0].also_produced_by == executions[1:]

    def test_roundtrip_to_dict(self, fig1_run):
        _, run = fig1_run
        restored = WorkflowRun.from_dict(run.to_dict())
        assert restored.id == run.id
        assert len(restored.executions) == len(run.executions)
        assert set(restored.artifacts) == set(run.artifacts)
        assert restored.executions[0].parameters == \
            run.executions[0].parameters


class TestCapture:
    def test_lifecycle_events_and_captured_run(self, registry):
        capture = ProvenanceCapture(registry=registry)
        listener = RecordingListener()
        executor = Executor(registry, listeners=[capture, listener])
        result = executor.execute(build_fig1_workflow(size=8))
        kinds = listener.kinds()
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-finish"
        assert kinds.count("module-start") == 5
        assert kinds.count("module-finish") == 5
        run = capture.run_by_id(result.run_id)
        assert [e.module_id for e in run.executions] == result.order

    def test_lone_capture_gets_no_module_events(self, registry):
        executor = Executor(registry,
                            listeners=[ProvenanceCapture(registry=registry)])
        table = executor._dispatch_table
        assert table["on_run_start"] == ()
        assert table["on_module_start"] == ()
        assert table["on_module_finish"] == ()
        assert len(table["on_run_finish"]) == 1

    def test_run_by_id(self, registry):
        capture = ProvenanceCapture(registry=registry)
        executor = Executor(registry, listeners=[capture])
        executor.execute(build_fig1_workflow(size=8))
        run = capture.last_run()
        assert capture.run_by_id(run.id) is run
        assert capture.run_by_id("run-nope") is None

    def test_size_hint_estimates_large_values(self):
        from repro.core.capture import _SIZE_HINT_CAP, _size_hint
        assert _size_hint(None) == 0
        assert _size_hint("abc") == len(repr("abc"))
        assert _size_hint([1, 2, 3]) == len(repr([1, 2, 3]))
        big_text = "x" * (_SIZE_HINT_CAP + 1)
        assert _size_hint(big_text) == len(big_text) + 2
        big_list = list(range(_SIZE_HINT_CAP + 1))
        # estimated from the length — never reprs the whole container
        assert _size_hint(big_list) == len(big_list) * 8
        assert _size_hint(12345) == len(repr(12345))

    def test_size_hint_bytes_estimate_matches_exact_at_cap(self):
        """Regression: the estimate for large bytes/bytearray values must
        include the repr affixes (``b'...'`` / ``bytearray(b'...')``), so
        estimated and exact sizes agree across the cap boundary for
        escape-free payloads."""
        from repro.core.capture import _SIZE_HINT_CAP, _size_hint
        for make in (str, lambda s: s.encode(), lambda s: bytearray(
                s.encode())):
            at_cap = make("x" * _SIZE_HINT_CAP)          # exact repr
            over_cap = make("x" * (_SIZE_HINT_CAP + 1))  # estimated
            assert _size_hint(at_cap) == len(repr(at_cap))
            assert _size_hint(over_cap) == _size_hint(at_cap) + 1, \
                type(at_cap).__name__
        # sanity: the affixes really differ per type
        assert _size_hint(b"x" * (_SIZE_HINT_CAP + 1)) \
            == _SIZE_HINT_CAP + 4
        assert _size_hint(bytearray(_SIZE_HINT_CAP + 1)) \
            == _SIZE_HINT_CAP + 15


class TestCausality:
    def test_graph_shape(self, fig1_run):
        _, run = fig1_run
        graph = causality_graph(run)
        artifacts = graph.node_ids("artifact")
        executions = graph.node_ids("execution")
        assert len(executions) == 5
        # volume+header+histogram+hist image+mesh+mesh image
        assert len(artifacts) == 6

    def test_upstream_artifacts(self, fig1_run):
        workflow, run = fig1_run
        load = module_by_name(workflow, "load")
        render = module_by_name(workflow, "render_mesh")
        image = run.artifacts_for_module(render.id, "image")
        volume = run.artifacts_for_module(load.id, "volume")
        ups = upstream_artifacts(causality_graph(run), image.id)
        assert volume.id in ups

    def test_downstream_artifacts(self, fig1_run):
        workflow, run = fig1_run
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        downs = downstream_artifacts(causality_graph(run), volume.id)
        # histogram, hist image, mesh, mesh image — but not header
        assert len(downs) == 4

    def test_histogram_branch_independent_of_mesh(self, fig1_run):
        workflow, run = fig1_run
        hist = module_by_name(workflow, "hist")
        iso = module_by_name(workflow, "iso")
        histogram = run.artifacts_for_module(hist.id, "histogram")
        mesh = run.artifacts_for_module(iso.id, "mesh")
        graph = causality_graph(run)
        assert mesh.id not in upstream_artifacts(graph, histogram.id)
        assert mesh.id not in downstream_artifacts(graph, histogram.id)

    def test_upstream_executions(self, fig1_run):
        workflow, run = fig1_run
        render = module_by_name(workflow, "render_mesh")
        image = run.artifacts_for_module(render.id, "image")
        executions = upstream_executions(causality_graph(run), image.id)
        names = {run.execution(e).module_name for e in executions}
        assert names == {"load", "iso", "render_mesh"}

    def test_data_dependencies_pairs(self, fig1_run):
        workflow, run = fig1_run
        load = module_by_name(workflow, "load")
        hist = module_by_name(workflow, "hist")
        volume = run.artifacts_for_module(load.id, "volume")
        histogram = run.artifacts_for_module(hist.id, "histogram")
        assert (histogram.id, volume.id) in data_dependencies(run)

    def test_derivation_paths_alternate(self, fig1_run):
        workflow, run = fig1_run
        load = module_by_name(workflow, "load")
        render = module_by_name(workflow, "render_mesh")
        image = run.artifacts_for_module(render.id, "image")
        volume = run.artifacts_for_module(load.id, "volume")
        paths = derivation_paths(causality_graph(run), image.id, volume.id)
        assert len(paths) == 1
        # artifact, exec, artifact, exec, artifact
        assert len(paths[0]) == 5

    def test_defective_scanner_invalidation(self, fig1_run):
        """The paper's CT-scanner scenario: everything downstream of the
        volume is invalidated, the header branch is not."""
        workflow, run = fig1_run
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        header = run.artifacts_for_module(load.id, "header")
        affected = artifacts_affected_by(run, volume.id)
        assert len(affected) == 4
        assert header.id not in affected


class TestProspective:
    def test_recipe_order_and_interfaces(self, registry):
        workflow = build_fig1_workflow()
        prospective = ProspectiveProvenance.from_workflow(workflow,
                                                          registry)
        steps = prospective.recipe()
        assert steps[0].module_name == "load"
        assert len(steps) == 5
        assert "LoadVolume" in prospective.interfaces
        assert prospective.interfaces["LoadVolume"]["outputs"][0]["type"] \
            in ("VolumeData", "Mapping")

    def test_describe_mentions_every_module(self, registry):
        workflow = build_fig1_workflow()
        text = ProspectiveProvenance.from_workflow(
            workflow, registry).describe()
        for module in workflow.modules.values():
            assert module.name in text

    def test_roundtrip(self, registry):
        workflow = build_fig1_workflow()
        prospective = ProspectiveProvenance.from_workflow(workflow,
                                                          registry)
        restored = ProspectiveProvenance.from_dict(prospective.to_dict())
        assert restored.signature == prospective.signature
        assert restored.to_workflow().signature() == workflow.signature()

    def test_module_types(self, registry):
        workflow = build_fig1_workflow()
        prospective = ProspectiveProvenance.from_workflow(workflow,
                                                          registry)
        assert "IsosurfaceExtract" in prospective.module_types()


class TestScriptCapture:
    def test_successful_call(self):
        capture = ScriptCapture(author="bob")
        result, run = capture.record(len, [1, 2, 3])
        assert result == 3
        assert run.status == "ok"
        assert run.tags["author"] == "bob"
        assert run.executions[0].module_type == "script:len"

    def test_failing_call_captured(self):
        capture = ScriptCapture()
        result, run = capture.record(int, "not a number")
        assert result is None
        assert run.status == "failed"
        assert "ValueError" in run.executions[0].error

    def test_kwargs_become_ports(self):
        capture = ScriptCapture()
        _, run = capture.record(sorted, [3, 1], reverse=True)
        ports = {binding.port for binding
                 in run.executions[0].inputs}
        assert ports == {"arg0", "kwarg:reverse"}

    def test_wrap_keeps_behaviour(self):
        capture = ScriptCapture()
        wrapped = capture.wrap(abs)
        assert wrapped(-4) == 4
        assert len(capture.runs) == 1

    def test_return_artifact_linked(self):
        capture = ScriptCapture()
        _, run = capture.record(sum, [1, 2, 3])
        execution = run.executions[0]
        output = execution.outputs[0]
        assert run.artifacts[output.artifact_id].created_by == execution.id
