"""Shared fixtures: registries, reference workflows, managers."""

from __future__ import annotations

import pytest

from repro.core import ProvenanceManager
from repro.workflow import (ExecutionListener, Executor, Module,
                            ResultCache, Workflow)
from repro.workflow.modules import standard_registry


class RecordingListener(ExecutionListener):
    """Records every engine listener event, in arrival order."""

    #: rank of each event kind in :meth:`normalized`.
    KIND_ORDER = {"run-start": 0, "module-start": 1, "module-finish": 2,
                  "run-finish": 3}

    def __init__(self):
        self.events = []

    def on_run_start(self, run_id, workflow, environment, tags):
        self.events.append(("run-start", workflow.name))

    def on_module_start(self, run_id, module, parameters):
        self.events.append(("module-start", module.name))

    def on_module_finish(self, run_id, module, result):
        self.events.append(("module-finish", module.name, result.status))

    def on_run_finish(self, result):
        self.events.append(("run-finish", result.status))

    def normalized(self):
        """The events grouped by kind, each kind sorted by its fields.

        Parallel execution interleaves module events in completion order;
        in this form serial and parallel runs of one workflow compare
        equal.
        """
        return sorted(self.events,
                      key=lambda e: (self.KIND_ORDER[e[0]], e[1:]))

    def kinds(self):
        """The event kinds in arrival order."""
        return [event[0] for event in self.events]


@pytest.fixture(scope="session")
def registry():
    """One standard module registry shared across the test session."""
    return standard_registry()


@pytest.fixture()
def executor(registry):
    """A fresh executor (no cache) per test."""
    return Executor(registry)


@pytest.fixture()
def caching_executor(registry):
    """A fresh executor with result caching per test."""
    return Executor(registry, cache=ResultCache())


def build_fig1_workflow(size: int = 12, level: float = 90.0) -> Workflow:
    """The Figure 1 pipeline: volume -> (histogram branch, isosurface branch).

    Returns the workflow; module ids are discoverable via instance names
    'load', 'hist', 'render_hist', 'iso', 'render_mesh'.
    """
    workflow = Workflow("figure1")
    load = workflow.add_module(Module("LoadVolume", name="load",
                                      parameters={"size": size}))
    hist = workflow.add_module(Module("ComputeHistogram", name="hist"))
    render_hist = workflow.add_module(Module("RenderHistogram",
                                             name="render_hist"))
    iso = workflow.add_module(Module("IsosurfaceExtract", name="iso",
                                     parameters={"level": level}))
    render_mesh = workflow.add_module(Module("RenderMesh",
                                             name="render_mesh"))
    workflow.connect(load.id, "volume", hist.id, "volume")
    workflow.connect(hist.id, "histogram", render_hist.id, "histogram")
    workflow.connect(load.id, "volume", iso.id, "volume")
    workflow.connect(iso.id, "mesh", render_mesh.id, "mesh")
    return workflow


def build_chain_workflow(length: int = 4, work: int = 10) -> Workflow:
    """A linear chain: Constant -> SpinCompute x length."""
    workflow = Workflow("chain")
    first = workflow.add_module(Module("Constant", name="source",
                                       parameters={"value": 1.0}))
    previous_id, previous_port = first.id, "value"
    for index in range(length):
        module = workflow.add_module(Module(
            "SpinCompute", name=f"stage{index}",
            parameters={"work": work}))
        workflow.connect(previous_id, previous_port, module.id, "value")
        previous_id, previous_port = module.id, "value"
    return workflow


def run_pair_sharing_cache(registry, make_cache, workflow,
                           **execute_kwargs):
    """Run ``workflow`` twice concurrently, each run on its own executor
    with its own ``make_cache()`` store (typically both over one
    persistent file, or one shared in-memory instance).

    The shared harness for the lease exactly-once invariant — used by
    the scheduler tests, the hypothesis property, and the scheduler
    benchmark, so the contract is asserted identically everywhere.
    """
    import threading

    results, errors = [], []

    def one_run():
        try:
            executor = Executor(registry, cache=make_cache())
            results.append(executor.execute(workflow, **execute_kwargs))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=one_run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


def assert_each_key_computed_once(runs):
    """Assert the cross-run exactly-once + provenance-parity invariant.

    Every module in every run finished ``ok`` or ``cached``; each
    distinct cache key has exactly one ``ok`` (computed) result across
    all runs; and all runs recorded identical output hashes per module.
    """
    computed, keys = {}, set()
    for run in runs:
        for result in run.results.values():
            assert result.status in ("ok", "cached"), result.error
            keys.add(result.cache_key)
            if result.status == "ok":
                computed[result.cache_key] = \
                    computed.get(result.cache_key, 0) + 1
    assert computed == {key: 1 for key in keys}
    fingerprints = [
        {m: {p: r.value_hash for p, r in res.outputs.items()}
         for m, res in run.results.items()} for run in runs]
    assert all(fp == fingerprints[0] for fp in fingerprints[1:])


def module_by_name(workflow: Workflow, name: str) -> Module:
    """Find a module instance by its user-facing name."""
    for module in workflow.modules.values():
        if module.name == name:
            return module
    raise KeyError(name)


@pytest.fixture()
def fig1_workflow():
    """Fresh Figure-1 workflow."""
    return build_fig1_workflow()


@pytest.fixture()
def manager():
    """Fresh in-memory ProvenanceManager."""
    return ProvenanceManager()
