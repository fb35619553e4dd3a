"""Tests for the execution engine: ordering, caching, failures, listeners."""

import pytest

from repro.workflow import (ExecutionError, Executor, Module, ResultCache,
                            Workflow)
from tests.conftest import (RecordingListener, build_chain_workflow,
                            build_fig1_workflow, module_by_name)


class TestBasicExecution:
    def test_chain_runs_ok(self, executor):
        run = executor.execute(build_chain_workflow(length=3))
        assert run.status == "ok"
        assert all(r.status == "ok" for r in run.results.values())

    def test_values_flow_through_chain(self, executor, registry):
        workflow = Workflow()
        const = workflow.add_module(Module("Constant",
                                           parameters={"value": 5}))
        scale = workflow.add_module(Module("Scale",
                                           parameters={"factor": 3.0}))
        workflow.connect(const.id, "value", scale.id, "value")
        run = executor.execute(workflow)
        assert run.output(scale.id, "result") == 15.0

    def test_diamond_fanout(self, executor, fig1_workflow):
        run = executor.execute(fig1_workflow)
        assert run.status == "ok"
        iso = module_by_name(fig1_workflow, "iso")
        mesh = run.output(iso.id, "mesh")
        assert len(mesh["vertices"]) > 0

    def test_run_duration_nonnegative(self, executor):
        run = executor.execute(build_chain_workflow(length=2))
        assert run.duration >= 0.0
        for result in run.results.values():
            assert result.duration >= 0.0

    def test_environment_captured(self, executor):
        run = executor.execute(build_chain_workflow(length=1))
        assert "python_version" in run.environment
        assert "hostname" in run.environment

    def test_tags_attached(self, executor):
        run = executor.execute(build_chain_workflow(length=1),
                               tags={"experiment": "E1"})
        assert run.tags == {"experiment": "E1"}

    def test_execution_order_is_topological(self, executor, fig1_workflow):
        run = executor.execute(fig1_workflow)
        position = {module_id: i for i, module_id in enumerate(run.order)}
        for connection in fig1_workflow.connections.values():
            assert (position[connection.source_module]
                    < position[connection.target_module])


class TestExternalInputs:
    def test_inject_value_into_unbound_port(self, executor, registry):
        workflow = Workflow()
        scale = workflow.add_module(Module("Scale",
                                           parameters={"factor": 2.0}))
        run = executor.execute(workflow,
                               inputs={(scale.id, "value"): 21.0})
        assert run.output(scale.id, "result") == 42.0

    def test_unbound_mandatory_port_rejected(self, executor):
        workflow = Workflow()
        workflow.add_module(Module("Scale"))
        with pytest.raises(ExecutionError):
            executor.execute(workflow)

    def test_unknown_module_type_rejected(self, executor):
        workflow = Workflow()
        workflow.add_module(Module("NotAModule"))
        with pytest.raises(ExecutionError):
            executor.execute(workflow)


class TestFailureSemantics:
    def build_failing_branch(self):
        workflow = Workflow("failing")
        source = workflow.add_module(Module("Constant", name="src",
                                            parameters={"value": 1}))
        bad = workflow.add_module(Module("FailIf", name="bad",
                                         parameters={"fail": True}))
        after_bad = workflow.add_module(Module("Identity", name="after"))
        healthy = workflow.add_module(Module("Identity", name="healthy"))
        workflow.connect(source.id, "value", bad.id, "value")
        workflow.connect(bad.id, "value", after_bad.id, "value")
        workflow.connect(source.id, "value", healthy.id, "value")
        return workflow

    def test_failure_marks_run_failed(self, executor):
        run = executor.execute(self.build_failing_branch())
        assert run.status == "failed"

    def test_downstream_skipped_other_branches_run(self, executor):
        workflow = self.build_failing_branch()
        run = executor.execute(workflow)
        statuses = {workflow.modules[m].name: r.status
                    for m, r in run.results.items()}
        assert statuses["bad"] == "failed"
        assert statuses["after"] == "skipped"
        assert statuses["healthy"] == "ok"
        assert statuses["src"] == "ok"

    def test_error_text_recorded(self, executor):
        run = executor.execute(self.build_failing_branch())
        failed = [r for r in run.results.values() if r.status == "failed"]
        assert "RuntimeError" in failed[0].error
        assert "injected" in failed[0].error

    def test_failed_modules_helper(self, executor):
        workflow = self.build_failing_branch()
        run = executor.execute(workflow)
        assert len(run.failed_modules()) == 1


class TestCaching:
    def test_second_run_fully_cached(self, caching_executor):
        workflow = build_chain_workflow(length=3)
        caching_executor.execute(workflow)
        second = caching_executor.execute(workflow)
        assert all(r.status == "cached" for r in second.results.values())

    def test_cached_outputs_equal_original(self, caching_executor):
        workflow = build_fig1_workflow(size=8)
        first = caching_executor.execute(workflow)
        second = caching_executor.execute(workflow)
        for module_id, result in second.results.items():
            for port, record in result.outputs.items():
                assert record.value_hash == \
                    first.results[module_id].outputs[port].value_hash

    def test_parameter_change_invalidates_downstream(self,
                                                     caching_executor):
        workflow = build_fig1_workflow(size=8)
        caching_executor.execute(workflow)
        iso = module_by_name(workflow, "iso")
        second = caching_executor.execute(
            workflow, parameter_overrides={iso.id: {"level": 50.0}})
        statuses = {workflow.modules[m].name: r.status
                    for m, r in second.results.items()}
        assert statuses["load"] == "cached"
        assert statuses["hist"] == "cached"
        assert statuses["iso"] == "ok"        # recomputed
        assert statuses["render_mesh"] == "ok"  # downstream recomputed

    def test_cached_from_links_to_original_execution(self,
                                                     caching_executor):
        workflow = build_chain_workflow(length=1)
        first = caching_executor.execute(workflow)
        second = caching_executor.execute(workflow)
        originals = {r.execution_id for r in first.results.values()}
        for result in second.results.values():
            assert result.cached_from in originals

    def test_nondeterministic_modules_never_cached(self, caching_executor):
        workflow = Workflow()
        workflow.add_module(Module("RandomNumber"))
        caching_executor.execute(workflow)
        second = caching_executor.execute(workflow)
        assert all(r.status == "ok" for r in second.results.values())

    def test_cache_stats_accumulate(self, registry):
        cache = ResultCache()
        executor = Executor(registry, cache=cache)
        workflow = build_chain_workflow(length=2)
        executor.execute(workflow)
        executor.execute(workflow)
        # First run: stage1 already hits (same type/params/input value as
        # stage0 — the pass-through makes their causal signatures equal).
        # Second run: all three modules hit.
        assert cache.stats.hits == 4
        assert cache.stats.lookups == 6


class TestListeners:
    def test_event_sequence(self, registry):
        listener = RecordingListener()
        executor = Executor(registry, listeners=[listener])
        executor.execute(build_chain_workflow(length=1))
        kinds = [event[0] for event in listener.events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-finish"
        assert kinds.count("module-start") == 2
        assert kinds.count("module-finish") == 2

    def test_listener_sees_skipped_modules(self, registry):
        listener = RecordingListener()
        executor = Executor(registry, listeners=[listener])
        workflow = Workflow()
        bad = workflow.add_module(Module("FailIf", name="bad",
                                         parameters={"fail": True}))
        after = workflow.add_module(Module("Identity", name="after"))
        workflow.connect(bad.id, "value", after.id, "value")
        executor.execute(workflow)
        finishes = [e for e in listener.events if e[0] == "module-finish"]
        assert ("module-finish", "after", "skipped") in finishes


class TestSinkOutputs:
    def test_sink_outputs_collects_products(self, executor, fig1_workflow):
        run = executor.execute(fig1_workflow)
        products = run.sink_outputs()
        names = {fig1_workflow.modules[mid].name
                 for (mid, _port) in products}
        assert names == {"render_hist", "render_mesh"}
