"""Provenance-driven partial re-execution planning.

The paper's §2.3 opportunities hinge on using captured provenance to *avoid*
work: when one input file is corrected or one parameter changes, a smart
rerun should re-execute only the stale frontier of the pipeline and serve
everything upstream from the recorded derivation.  Per-stage retrospective
records (Groth et al.'s pipeline-centric model) are what make this sound:
each stored :class:`~repro.core.retrospective.ModuleExecution` carries the
exact parameters, input/output artifacts and content hashes needed to
decide whether its result is still valid.

:func:`compute_replay_plan` turns one stored run plus a change description
(changed external inputs, parameter overrides, invalidated artifact hashes,
forced modules) into a :class:`ReplayPlan`: the minimal downstream-closed
*stale* set that must re-execute, and :class:`ReusedModule` records (built
from the run's retained values) for everything else.  The engine replays
reused modules as ``"cached"`` executions pointing at the original
execution ids, so the new run's derivation history stays intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.retrospective import ModuleExecution, WorkflowRun
from repro.workflow.engine import InputKey, ReusedModule, ValueRecord
from repro.workflow.serialization import workflow_from_dict
from repro.workflow.spec import Workflow

__all__ = ["ReplayError", "ReplayPlan", "compute_replay_plan"]


class ReplayError(Exception):
    """Raised when a stored run cannot support the requested replay."""


@dataclass
class ReplayPlan:
    """What a partial re-execution of one stored run will do.

    Attributes:
        original_run: id of the run the plan derives from.
        workflow: the workflow rebuilt from the run's prospective snapshot.
        stale: module ids that must re-execute (sorted).
        reused: module ids served from recorded provenance (sorted).
        reasons: per stale module, why it is stale (``changed-input``,
            ``parameter-change``, ``invalidated-artifact``, ``forced``,
            ``not-reproducible``, ``missing-value``, ``upstream-stale``).
        reuse_records: engine-ready :class:`ReusedModule` per reused module.
        external_inputs: values to inject for unconnected input ports —
            the caller's changed inputs plus every original external input
            recovered from the stored run's retained values.
        derived_from_run: the run *the original run itself* replays ("" for
            a first-generation run) — executing this plan therefore
            extends a replay chain one hop past that ancestry.
    """

    original_run: str
    workflow: Workflow
    stale: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    reasons: Dict[str, str] = field(default_factory=dict)
    reuse_records: Dict[str, ReusedModule] = field(default_factory=dict)
    external_inputs: Dict[InputKey, Any] = field(default_factory=dict)
    derived_from_run: str = ""

    def is_full_replay(self) -> bool:
        """True when nothing could be reused."""
        return not self.reused

    def summary(self) -> str:
        """One-line description of the planned work."""
        total = len(self.workflow.modules)
        chain = (f" (extends replay chain of {self.derived_from_run})"
                 if self.derived_from_run else "")
        return (f"replay of {self.original_run}: "
                f"{len(self.stale)}/{total} modules re-execute, "
                f"{len(self.reused)} reused from provenance{chain}")


def compute_replay_plan(run: WorkflowRun, *,
                        changed_inputs: Optional[
                            Mapping[InputKey, Any]] = None,
                        parameter_overrides: Optional[
                            Mapping[str, Mapping[str, Any]]] = None,
                        invalidated_hashes: Iterable[str] = (),
                        force: Iterable[str] = (),
                        workflow: Optional[Workflow] = None) -> ReplayPlan:
    """Plan the minimal partial re-execution of ``run`` after a change.

    Staleness seeds — modules that must re-execute no matter what:

    * modules receiving a value in ``changed_inputs`` (keyed by
      ``(module_id, port)``; the port must not be connection-fed);
    * modules named in ``parameter_overrides`` or ``force``;
    * modules whose original execution touched (consumed or produced) an
      artifact whose content hash is in ``invalidated_hashes`` — the
      defective-CT-scanner scenario;
    * modules whose original execution is missing or did not succeed.

    The stale set is then closed downstream (everything a stale module
    feeds, transitively, is stale) and upstream-repaired: a module whose
    recorded output values were not retained cannot be reused, so it —
    and consequently its downstream cone — re-executes too.  The
    complement is upstream-closed by construction and becomes the reuse
    set.

    Raises :class:`ReplayError` when the run has no workflow snapshot,
    a change refers to an unknown module/port, or a stale module needs an
    original external input whose value was not retained.
    """
    if workflow is None:
        if not run.workflow_spec:
            raise ReplayError(
                f"run {run.id} has no workflow snapshot to replay")
        workflow = workflow_from_dict(run.workflow_spec)
    changed = dict(changed_inputs or {})
    overrides = {m: dict(v) for m, v in (parameter_overrides or {}).items()}
    bad_hashes = set(invalidated_hashes)

    executions: Dict[str, ModuleExecution] = {}
    for execution in run.executions:
        executions.setdefault(execution.module_id, execution)

    connection_fed: Dict[str, Set[str]] = {
        module_id: {c.target_port for c in workflow.incoming(module_id)}
        for module_id in workflow.modules}

    reasons: Dict[str, str] = {}

    def mark(module_id: str, reason: str) -> None:
        reasons.setdefault(module_id, reason)

    for (module_id, port) in changed:
        if module_id not in workflow.modules:
            raise ReplayError(
                f"changed input names unknown module: {module_id}")
        if port in connection_fed[module_id]:
            raise ReplayError(
                f"changed input {module_id}.{port} is connection-fed; "
                "override the upstream module instead")
        mark(module_id, "changed-input")
    for module_id in overrides:
        if module_id not in workflow.modules:
            raise ReplayError(
                f"parameter override names unknown module: {module_id}")
        mark(module_id, "parameter-change")
    for module_id in force:
        if module_id not in workflow.modules:
            raise ReplayError(f"forced module not in workflow: {module_id}")
        mark(module_id, "forced")
    for module_id in workflow.modules:
        execution = executions.get(module_id)
        if execution is None or not execution.succeeded():
            mark(module_id, "not-reproducible")
    if bad_hashes:
        for execution in run.executions:
            touched = [binding.artifact_id
                       for binding in (*execution.inputs,
                                       *execution.outputs)]
            if any(run.artifacts[a].value_hash in bad_hashes
                   for a in touched if a in run.artifacts):
                mark(execution.module_id, "invalidated-artifact")

    # modules already inside a marked downstream cone; the cone of any of
    # them is marked too, so a later walk stops there instead of
    # re-walking it once per seed
    closed: Set[str] = set()

    def close_downstream(seeds: Iterable[str]) -> None:
        for seed in list(seeds):
            cone: Set[str] = set()
            frontier = [seed]
            while frontier:
                for successor in workflow.successors(frontier.pop()):
                    if successor not in closed and successor not in cone:
                        cone.add(successor)
                        frontier.append(successor)
            closed.update(cone)
            for downstream in sorted(cone):
                mark(downstream, "upstream-stale")

    close_downstream(list(reasons))

    # Upstream repair: a module can only be reused when every recorded
    # output value was retained; otherwise it re-executes (and so does its
    # cone).  Iterate to a fixpoint — staleness only grows.
    reuse_records: Dict[str, ReusedModule] = {}
    while True:
        newly_stale: List[str] = []
        for module_id in workflow.modules:
            if module_id in reasons or module_id in reuse_records:
                continue
            record = _reused_record(run, executions[module_id])
            if record is None:
                newly_stale.append(module_id)
            else:
                reuse_records[module_id] = record
        if not newly_stale:
            break
        for module_id in newly_stale:
            mark(module_id, "missing-value")
        close_downstream(newly_stale)
        # downstream closure may have swallowed modules already planned
        # for reuse
        reuse_records = {m: r for m, r in reuse_records.items()
                         if m not in reasons}

    external_inputs = _recover_external_inputs(
        run, workflow, executions, connection_fed, changed, reasons)

    stale = sorted(reasons)
    reused = sorted(reuse_records)
    parent = (run.tags or {}).get("derived_from_run", "")
    return ReplayPlan(original_run=run.id, workflow=workflow, stale=stale,
                      reused=reused, reasons=reasons,
                      reuse_records=reuse_records,
                      external_inputs=external_inputs,
                      derived_from_run=parent
                      if isinstance(parent, str) else "")


def _reused_record(run: WorkflowRun,
                   execution: ModuleExecution) -> Optional[ReusedModule]:
    """Build the engine reuse record for one stored execution.

    Returns None when any output value was not retained — such a module
    cannot hand its results downstream and must re-execute.
    """
    outputs: Dict[str, ValueRecord] = {}
    for binding in execution.outputs:
        if binding.artifact_id not in run.values:
            return None
        artifact = run.artifacts.get(binding.artifact_id)
        if artifact is None:
            return None
        outputs[binding.port] = ValueRecord(
            value=run.values[binding.artifact_id],
            value_hash=artifact.value_hash)
    return ReusedModule(outputs=outputs, source_execution=execution.id,
                        parameters=dict(execution.parameters),
                        cache_key=execution.cache_key)


def _recover_external_inputs(run: WorkflowRun, workflow: Workflow,
                             executions: Dict[str, ModuleExecution],
                             connection_fed: Dict[str, Set[str]],
                             changed: Dict[InputKey, Any],
                             reasons: Dict[str, str]) -> Dict[InputKey, Any]:
    """Assemble the external input bindings for the replay execution.

    Starts from the caller's changed inputs and adds every *original*
    external input (an input binding on a port no connection feeds) whose
    value was retained.  A stale module whose original external input
    cannot be recovered is an error — the replay could not reproduce its
    computation faithfully.
    """
    external: Dict[InputKey, Any] = dict(changed)
    for module_id, execution in executions.items():
        if module_id not in workflow.modules:
            continue
        for binding in execution.inputs:
            if binding.port in connection_fed[module_id]:
                continue
            key = (module_id, binding.port)
            if key in external:
                continue
            if binding.artifact_id in run.values:
                external[key] = run.values[binding.artifact_id]
            elif module_id in reasons:
                raise ReplayError(
                    f"stale module {module_id} needs external input "
                    f"{binding.port!r} but its value was not retained; "
                    "supply it via changed_inputs")
    return external
