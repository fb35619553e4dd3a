"""Provenance capture mechanisms.

The paper: "One of the major advantages to using workflow systems is that
they can be easily instrumented to automatically capture provenance — this
information can be accessed directly through system APIs."

Two mechanisms are implemented:

* :class:`ProvenanceCapture` — engine instrumentation.  It is an
  :class:`~repro.workflow.engine.ExecutionListener` that listens only for
  finished runs: attached to an :class:`~repro.workflow.engine.Executor`
  it converts every run into a
  :class:`~repro.core.retrospective.WorkflowRun` and, with a store
  attached, saves the workflow's prospective snapshot and the run
  together.  Capture is synchronous: run conversion and store writes
  happen on the engine's coordinating thread, so a run is fully recorded
  (or its store write has raised) by the time ``Executor.execute``
  returns.  With ``stream_batch`` set, the run write goes through
  :func:`stream_run_to_store`, which bounds ingest memory by committing
  executions in batches.
* :class:`ScriptCapture` — API capture for ad-hoc code (the paper's Perl
  scripts).  Wrapping a plain Python function records each call as a
  one-execution run, so script-based and workflow-based derivations share
  one provenance representation.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.prospective import ProspectiveProvenance
from repro.core.retrospective import (DataArtifact, ModuleExecution,
                                      PortBinding, WorkflowRun)
from repro.identity import hash_value, new_id
from repro.workflow.engine import ExecutionListener, RunResult
from repro.workflow.faults import FaultPlan, HardCrash
from repro.workflow.environment import capture_environment
from repro.workflow.registry import ModuleRegistry

__all__ = ["CaptureStats", "ProvenanceCapture", "ScriptCapture",
           "run_from_result", "stream_run_to_store"]


@dataclass
class CaptureStats:
    """Counters describing one capture's traffic."""

    runs: int = 0    #: runs materialized


#: Beyond this many characters/items, ``repr`` is estimated, not computed.
_SIZE_HINT_CAP = 1 << 16


def _size_hint(value: Any) -> int:
    """Approximate size of a value (its repr length) for overload stats.

    Small values report ``len(repr(value))`` exactly, as before.  Large
    strings and containers are *estimated* from their length instead —
    capture sits on the engine's hot path, and paying an O(size) repr of a
    multi-megabyte value just to measure it dominated capture overhead.
    """
    if value is None:
        return 0
    if isinstance(value, (str, bytes, bytearray)):
        length = len(value)
        if length <= _SIZE_HINT_CAP:
            return len(repr(value))
        if isinstance(value, str):
            return length + 2           # the surrounding quotes
        if isinstance(value, bytes):
            return length + 3           # b'...'
        return length + 14              # bytearray(b'...')
    try:
        length = len(value)
    except TypeError:
        return len(repr(value))
    if length > _SIZE_HINT_CAP:
        # rough per-item repr estimate; the field is documented as a hint
        return length * 8
    return len(repr(value))


def run_from_result(result: RunResult, *,
                    registry: Optional[ModuleRegistry] = None,
                    keep_values: bool = True) -> WorkflowRun:
    """Convert an engine :class:`RunResult` into retrospective provenance.

    The run's signature and spec come from the workflow version's shared
    snapshot (see :class:`~repro.core.prospective.ProspectiveProvenance`).
    Artifact identity: within a run, all port values with equal content hash
    collapse to a single artifact; its creator is the first producing
    execution (in topological order), later producers are recorded in
    ``also_produced_by``.  External inputs become external artifacts.
    """
    prospective = ProspectiveProvenance.from_workflow(result.workflow,
                                                      registry)
    return _run_record(result, prospective, keep_values)


def _run_record(result: RunResult, prospective: ProspectiveProvenance,
                keep_values: bool) -> WorkflowRun:
    """:func:`run_from_result` against an already built snapshot of the
    run's workflow: its signature and spec go on the run, and its module
    interfaces type the artifact ports."""
    artifacts: Dict[str, DataArtifact] = {}
    values: Dict[str, Any] = {}
    by_hash: Dict[str, str] = {}
    # every producer recorded per artifact (creator included), so the
    # dedupe stays O(1) when a long chain keeps emitting one value
    producers: Dict[str, Set[str]] = {}

    def artifact_for(value_hash: str, value: Any, type_name: str,
                     created_by: str, role: str) -> str:
        existing_id = by_hash.get(value_hash)
        if existing_id is not None:
            seen = producers[existing_id]
            if created_by and created_by not in seen:
                seen.add(created_by)
                artifacts[existing_id].also_produced_by.append(created_by)
            return existing_id
        artifact_id = new_id("art")
        artifacts[artifact_id] = DataArtifact(
            id=artifact_id, value_hash=value_hash, type_name=type_name,
            created_by=created_by, role=role,
            size_hint=_size_hint(value))
        by_hash[value_hash] = artifact_id
        producers[artifact_id] = {created_by}
        if keep_values:
            values[artifact_id] = value
        return artifact_id

    output_port_types = _port_type_lookup(prospective.interfaces)
    executions: List[ModuleExecution] = []
    for module_id in result.order:
        module_result = result.results[module_id]
        module = result.workflow.modules[module_id]
        out_bindings: List[PortBinding] = []
        for port, record in sorted(module_result.outputs.items()):
            type_name = output_port_types.get(
                (module.type_name, port, "out"), "Any")
            artifact_id = artifact_for(record.value_hash, record.value,
                                       type_name, module_result.execution_id,
                                       port)
            out_bindings.append(PortBinding(port=port,
                                            artifact_id=artifact_id))
        in_bindings: List[PortBinding] = []
        for port, record in sorted(module_result.inputs.items()):
            type_name = output_port_types.get(
                (module.type_name, port, "in"), "Any")
            artifact_id = artifact_for(record.value_hash, record.value,
                                       type_name, "", "")
            in_bindings.append(PortBinding(port=port,
                                           artifact_id=artifact_id))
        # retried modules: every failed attempt is first-class provenance,
        # attempt-tagged, bound to the same input artifacts, emitting no
        # artifacts of its own — so a retried run is identical to the
        # fault-free run modulo these attempt executions
        for failed in getattr(module_result, "attempts", ()):
            executions.append(ModuleExecution(
                id=failed.execution_id,
                module_id=module_id,
                module_type=module.type_name,
                module_name=module.name,
                status=failed.status,
                parameters=dict(failed.parameters),
                inputs=list(in_bindings),
                outputs=[],
                started=failed.started,
                finished=failed.finished,
                error=failed.error,
                cache_key=failed.cache_key,
                attempt=failed.attempt))
        executions.append(ModuleExecution(
            id=module_result.execution_id,
            module_id=module_id,
            module_type=module.type_name,
            module_name=module.name,
            status=module_result.status,
            parameters=dict(module_result.parameters),
            inputs=in_bindings,
            outputs=out_bindings,
            started=module_result.started,
            finished=module_result.finished,
            error=module_result.error,
            cache_key=module_result.cache_key,
            cached_from=module_result.cached_from))

    return WorkflowRun(
        id=result.run_id,
        workflow_id=result.workflow.id,
        workflow_name=result.workflow.name,
        workflow_signature=prospective.signature,
        status=result.status,
        started=result.started,
        finished=result.finished,
        environment=dict(result.environment),
        workflow_spec=prospective.spec,
        executions=executions,
        artifacts=artifacts,
        tags=dict(result.tags),
        values=values)


def _port_type_lookup(interfaces: Dict[str, Any]
                      ) -> Dict[Tuple[str, str, str], str]:
    lookup: Dict[Tuple[str, str, str], str] = {}
    for type_name, interface in interfaces.items():
        for port in interface["outputs"]:
            lookup[(type_name, port["name"], "out")] = port["type"]
        for port in interface["inputs"]:
            lookup[(type_name, port["name"], "in")] = port["type"]
    return lookup


def stream_run_to_store(run: WorkflowRun, store: Any, *,
                        batch: int = 256,
                        fault_plan: Optional[FaultPlan] = None) -> None:
    """Persist ``run`` through the store's streaming-ingest API.

    Executions (with the artifacts their bindings reference) are fed to a
    :meth:`~repro.storage.base.ProvenanceStore.save_run_stream` writer and
    flushed every ``batch`` executions, so backends with native streaming
    (the relational store) commit bounded per-batch transactions instead of
    one monolithic run-sized write.  Stores without the streaming API fall
    back to a plain ``save_run``.

    ``fault_plan`` seam: after the Nth successful flush the plan may
    raise :class:`~repro.workflow.faults.HardCrash`, simulating a
    coordinator death mid-ingest.  A hard crash deliberately bypasses
    ``writer.abort()`` — the partial run stays in the store exactly as a
    real crash would leave it, for ``repro fsck`` to detect and repair.
    """
    opener = getattr(store, "save_run_stream", None)
    if opener is None or batch <= 0:
        store.save_run(run)
        return
    writer = opener(run)
    try:
        sent = 0
        added = set()
        for execution in run.executions:
            for binding in itertools.chain(execution.inputs,
                                           execution.outputs):
                artifact = run.artifacts.get(binding.artifact_id)
                if artifact is None or artifact.id in added:
                    continue
                added.add(artifact.id)
                writer.add_artifact(artifact,
                                    value=run.values.get(artifact.id),
                                    has_value=artifact.id in run.values)
            writer.add_execution(execution)
            sent += 1
            if sent % batch == 0:
                writer.flush()
                if fault_plan is not None:
                    spec = fault_plan.draw("stream-flush", run.id)
                    if spec is not None and spec.kind == "crash":
                        raise HardCrash(
                            f"injected coordinator crash after stream "
                            f"flush of {run.id}")
        # artifacts never referenced by a binding (externally ingested
        # provenance can carry them) still belong to the run record
        for artifact in run.artifacts.values():
            if artifact.id not in added:
                writer.add_artifact(artifact,
                                    value=run.values.get(artifact.id),
                                    has_value=artifact.id in run.values)
        writer.finish(status=run.status, finished=run.finished,
                      tags=run.tags)
    except BaseException as exc:
        if not isinstance(exc, HardCrash):
            writer.abort()
        raise


class ProvenanceCapture(ExecutionListener):
    """Engine instrumentation that records every run it observes.

    Attach to an :class:`~repro.workflow.engine.Executor`; finished runs are
    appended to :attr:`runs` and optionally saved to a provenance store.
    The capture listens for finished runs only, so the engine dispatches
    no per-module events to it.  Each finished run takes its signature
    and spec from its workflow's snapshot
    (:meth:`ProspectiveProvenance.from_workflow
    <repro.core.prospective.ProspectiveProvenance.from_workflow>`), built
    once per workflow version and shared by every run of that version;
    with a store attached the snapshot is saved (``save_workflow``) just
    before the run.

    Args:
        registry: module registry used to type artifact ports.
        store: provenance store finished runs are saved to.
        keep_values: retain artifact values on captured runs.
        stream_batch: when set, store saves go through
            :func:`stream_run_to_store` with this batch size — executions
            flush to the backend incrementally (per-batch transactions on
            the relational store) instead of as one monolithic write.
        fault_plan: optional :class:`~repro.workflow.faults.FaultPlan`
            injecting a coordinator crash between stream flushes — for
            recovery tests and drills.

    Capture is synchronous: every finished run is converted and saved on
    the engine's coordinating thread before the engine moves on.  A
    failing store write therefore raises out of
    :meth:`~repro.workflow.engine.Executor.execute` for the run it failed
    on, and the capture keeps working for the next run.

    Thread-safety: one capture instance may be shared between executors
    (or executors driven from different threads), so run bookkeeping and
    the store writes are guarded by a lock; :meth:`run_by_id` finds a
    given run whatever other runs finished since.  Within one run the
    converted provenance is deterministic regardless of execution
    parallelism — the execution list follows the workflow's canonical
    topological order, not wall-clock completion order.
    """

    def __init__(self, *, registry: Optional[ModuleRegistry] = None,
                 store: Optional[Any] = None, keep_values: bool = True,
                 stream_batch: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.registry = registry
        self.store = store
        self.keep_values = keep_values
        self.stream_batch = stream_batch
        self.fault_plan = fault_plan
        self.stats = CaptureStats()
        self.runs: List[WorkflowRun] = []
        self._runs_by_id: Dict[str, WorkflowRun] = {}
        self._lock = threading.Lock()

    # -- ExecutionListener ------------------------------------------------
    def on_run_finish(self, result: RunResult) -> None:
        prospective = ProspectiveProvenance.from_workflow(result.workflow,
                                                          self.registry)
        run = _run_record(result, prospective, self.keep_values)
        with self._lock:
            # the store writes stay under the capture lock: backends are
            # not themselves thread-safe (e.g. sqlite3 connections), so a
            # shared capture must serialize saves from concurrent runs
            self.stats.runs += 1
            self.runs.append(run)
            self._runs_by_id[run.id] = run
            if self.store is not None:
                self.store.save_workflow(prospective)
                if self.stream_batch:
                    stream_run_to_store(run, self.store,
                                        batch=self.stream_batch,
                                        fault_plan=self.fault_plan)
                else:
                    self.store.save_run(run)

    # -- access ------------------------------------------------------------
    def last_run(self) -> WorkflowRun:
        """The most recently captured run (IndexError when none)."""
        return self.runs[-1]

    def run_by_id(self, run_id: str) -> Optional[WorkflowRun]:
        """A captured run by id, or None — an O(1) index lookup."""
        with self._lock:
            return self._runs_by_id.get(run_id)


class ScriptCapture:
    """API-level capture for ad-hoc (non-workflow) computations.

    Each recorded call becomes a one-execution :class:`WorkflowRun` whose
    inputs are the call arguments and whose output is the return value, so
    script-derived data enters the same provenance infrastructure as
    workflow-derived data.

    >>> capture = ScriptCapture(author="alice")
    >>> result, run = capture.record(sorted, [3, 1, 2])
    >>> result
    [1, 2, 3]
    >>> run.executions[0].module_type
    'script:sorted'
    """

    def __init__(self, author: str = "",
                 store: Optional[Any] = None) -> None:
        self.author = author
        self.store = store
        self.runs: List[WorkflowRun] = []

    def record(self, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Tuple[Any, WorkflowRun]:
        """Call ``fn(*args, **kwargs)`` and record the call as provenance."""
        name = getattr(fn, "__name__", "anonymous")
        started = time.time()
        error = ""
        status = "ok"
        try:
            output = fn(*args, **kwargs)
        except Exception as exc:
            output = None
            status = "failed"
            error = f"{type(exc).__name__}: {exc}"
        finished = time.time()

        artifacts: Dict[str, DataArtifact] = {}
        values: Dict[str, Any] = {}
        in_bindings: List[PortBinding] = []
        execution_id = new_id("exec")

        def add_artifact(value: Any, created_by: str, role: str) -> str:
            artifact_id = new_id("art")
            artifacts[artifact_id] = DataArtifact(
                id=artifact_id, value_hash=hash_value(value),
                type_name="Any", created_by=created_by, role=role,
                size_hint=_size_hint(value))
            values[artifact_id] = value
            return artifact_id

        for index, argument in enumerate(args):
            in_bindings.append(PortBinding(
                port=f"arg{index}",
                artifact_id=add_artifact(argument, "", "")))
        for key in sorted(kwargs):
            in_bindings.append(PortBinding(
                port=f"kwarg:{key}",
                artifact_id=add_artifact(kwargs[key], "", "")))
        out_bindings: List[PortBinding] = []
        if status == "ok":
            out_bindings.append(PortBinding(
                port="return",
                artifact_id=add_artifact(output, execution_id, "return")))

        execution = ModuleExecution(
            id=execution_id, module_id=new_id("mod"),
            module_type=f"script:{name}", module_name=name, status=status,
            parameters={}, inputs=in_bindings, outputs=out_bindings,
            started=started, finished=finished, error=error)
        run = WorkflowRun(
            id=new_id("run"), workflow_id=new_id("wf"),
            workflow_name=f"script:{name}", workflow_signature="",
            status=status, started=started, finished=finished,
            environment=capture_environment(),
            executions=[execution], artifacts=artifacts,
            tags={"capture": "script", "author": self.author},
            values=values)
        self.runs.append(run)
        if self.store is not None:
            self.store.save_run(run)
        return output, run

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return a function that records provenance on every call."""
        def recorded(*args: Any, **kwargs: Any) -> Any:
            output, _ = self.record(fn, *args, **kwargs)
            return output
        recorded.__name__ = getattr(fn, "__name__", "anonymous")
        recorded.__doc__ = fn.__doc__
        return recorded
