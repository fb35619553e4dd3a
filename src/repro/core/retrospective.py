"""Retrospective provenance: the record of what actually executed.

The paper defines retrospective provenance as "the steps that were executed as
well as information about the execution environment used to derive a specific
data product — a detailed log of the execution of a computational task."

Three record types implement that definition:

* :class:`DataArtifact` — one data product (or input) identified by content
  hash; the hash makes "were two data products derived from the same raw
  data?" a join on hashes.
* :class:`ModuleExecution` — one step: which module, which parameters, which
  artifacts in and out, timing, status (including *cached*), error text.
* :class:`WorkflowRun` — the whole log: executions, artifacts, the execution
  environment, and a snapshot of the prospective provenance (the workflow
  spec) that was run.

All records convert losslessly to/from plain dictionaries so every storage
backend can persist them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["PortBinding", "DataArtifact", "ModuleExecution", "WorkflowRun"]


@dataclass(frozen=True)
class PortBinding:
    """Association of a port name with the artifact that flowed through it."""

    port: str
    artifact_id: str

    def to_dict(self) -> Dict[str, str]:
        """Plain-dict form."""
        return {"port": self.port, "artifact_id": self.artifact_id}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "PortBinding":
        """Rebuild from :meth:`to_dict` output."""
        return cls(port=data["port"], artifact_id=data["artifact_id"])


@dataclass
class DataArtifact:
    """One data product, identified by content hash.

    Attributes:
        id: run-local artifact identifier (``art-...``).
        value_hash: content hash of the value (stable across runs).
        type_name: port type through which the value was first seen.
        created_by: id of the producing execution ("" for external inputs).
        role: output-port name on the producer ("" for external inputs).
        also_produced_by: executions that produced an identical value later
            in the same run (content-equal outputs collapse to one artifact).
        size_hint: approximate size (repr length) for overload statistics.
    """

    id: str
    value_hash: str
    type_name: str = "Any"
    created_by: str = ""
    role: str = ""
    also_produced_by: List[str] = field(default_factory=list)
    size_hint: int = 0

    def is_external(self) -> bool:
        """True for artifacts supplied from outside the run (raw inputs)."""
        return self.created_by == ""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "id": self.id,
            "value_hash": self.value_hash,
            "type_name": self.type_name,
            "created_by": self.created_by,
            "role": self.role,
            "also_produced_by": list(self.also_produced_by),
            "size_hint": self.size_hint,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DataArtifact":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            id=data["id"], value_hash=data["value_hash"],
            type_name=data.get("type_name", "Any"),
            created_by=data.get("created_by", ""),
            role=data.get("role", ""),
            also_produced_by=list(data.get("also_produced_by", [])),
            size_hint=data.get("size_hint", 0))


@dataclass
class ModuleExecution:
    """One executed (or cached / failed / skipped) workflow step."""

    id: str
    module_id: str
    module_type: str
    module_name: str
    status: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    inputs: List[PortBinding] = field(default_factory=list)
    outputs: List[PortBinding] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    error: str = ""
    cache_key: str = ""
    cached_from: str = ""
    #: 0 for the final (only) execution of a module; N >= 1 tags the
    #: Nth failed attempt that preceded a retried module's final one.
    attempt: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock seconds this step took."""
        return max(0.0, self.finished - self.started)

    def succeeded(self) -> bool:
        """True for ok or cached steps."""
        return self.status in ("ok", "cached")

    def input_artifacts(self) -> List[str]:
        """Ids of artifacts consumed (sorted by port)."""
        return [b.artifact_id for b in sorted(self.inputs,
                                              key=lambda b: b.port)]

    def output_artifacts(self) -> List[str]:
        """Ids of artifacts produced (sorted by port)."""
        return [b.artifact_id for b in sorted(self.outputs,
                                              key=lambda b: b.port)]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "id": self.id,
            "module_id": self.module_id,
            "module_type": self.module_type,
            "module_name": self.module_name,
            "status": self.status,
            "parameters": dict(self.parameters),
            "inputs": [b.to_dict() for b in self.inputs],
            "outputs": [b.to_dict() for b in self.outputs],
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "cache_key": self.cache_key,
            "cached_from": self.cached_from,
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleExecution":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            id=data["id"], module_id=data["module_id"],
            module_type=data["module_type"],
            module_name=data.get("module_name", data["module_type"]),
            status=data["status"],
            parameters=dict(data.get("parameters", {})),
            inputs=[PortBinding.from_dict(b)
                    for b in data.get("inputs", [])],
            outputs=[PortBinding.from_dict(b)
                     for b in data.get("outputs", [])],
            started=data.get("started", 0.0),
            finished=data.get("finished", 0.0),
            error=data.get("error", ""),
            cache_key=data.get("cache_key", ""),
            cached_from=data.get("cached_from", ""),
            attempt=data.get("attempt", 0))


@dataclass
class WorkflowRun:
    """The complete retrospective provenance of one workflow run.

    ``values`` maps artifact id to the actual Python value when value
    retention was enabled during capture; it is carried alongside the
    metadata rather than inside :class:`DataArtifact` so that metadata
    always serializes to JSON even when values do not.

    ``workflow_spec`` of a captured run is the ``spec`` of its
    workflow version's :class:`~repro.core.prospective
    .ProspectiveProvenance` snapshot: a shared, read-only value that
    every run of that version carries, and that later edits of the
    workflow leave unchanged.  Copy it before changing it.
    """

    id: str
    workflow_id: str
    workflow_name: str
    workflow_signature: str
    status: str
    started: float
    finished: float
    environment: Dict[str, Any] = field(default_factory=dict)
    workflow_spec: Dict[str, Any] = field(default_factory=dict)
    executions: List[ModuleExecution] = field(default_factory=list)
    artifacts: Dict[str, DataArtifact] = field(default_factory=dict)
    tags: Dict[str, Any] = field(default_factory=dict)
    values: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds of the whole run."""
        return max(0.0, self.finished - self.started)

    def execution(self, execution_id: str) -> ModuleExecution:
        """Execution record by id (KeyError when absent)."""
        for execution in self.executions:
            if execution.id == execution_id:
                return execution
        raise KeyError(f"no such execution in run: {execution_id}")

    def execution_for_module(self, module_id: str
                             ) -> Optional[ModuleExecution]:
        """The execution of workflow module ``module_id`` in this run."""
        for execution in self.executions:
            if execution.module_id == module_id:
                return execution
        return None

    def artifact(self, artifact_id: str) -> DataArtifact:
        """Artifact record by id (KeyError when absent)."""
        return self.artifacts[artifact_id]

    def artifact_by_hash(self, value_hash: str) -> Optional[DataArtifact]:
        """Artifact with the given content hash, if any."""
        for artifact in self.artifacts.values():
            if artifact.value_hash == value_hash:
                return artifact
        return None

    def artifacts_for_module(self, module_id: str, port: str
                             ) -> Optional[DataArtifact]:
        """Artifact produced on ``module_id.port`` in this run, if any."""
        execution = self.execution_for_module(module_id)
        if execution is None:
            return None
        for binding in execution.outputs:
            if binding.port == port:
                return self.artifacts[binding.artifact_id]
        return None

    def value(self, artifact_id: str) -> Any:
        """Retained value of an artifact (KeyError if values not kept)."""
        return self.values[artifact_id]

    def external_artifacts(self) -> List[DataArtifact]:
        """Artifacts supplied from outside the run (raw inputs), sorted."""
        return sorted((a for a in self.artifacts.values()
                       if a.is_external()), key=lambda a: a.id)

    def final_artifacts(self) -> List[DataArtifact]:
        """Artifacts never consumed by any execution (data products)."""
        consumed = {binding.artifact_id for execution in self.executions
                    for binding in execution.inputs}
        return sorted((a for a in self.artifacts.values()
                       if a.id not in consumed and not a.is_external()),
                      key=lambda a: a.id)

    def to_dict(self, include_values: bool = False) -> Dict[str, Any]:
        """Plain-dict form (values omitted unless requested)."""
        data = {
            "id": self.id,
            "workflow_id": self.workflow_id,
            "workflow_name": self.workflow_name,
            "workflow_signature": self.workflow_signature,
            "status": self.status,
            "started": self.started,
            "finished": self.finished,
            "environment": dict(self.environment),
            "workflow_spec": dict(self.workflow_spec),
            "executions": [e.to_dict() for e in self.executions],
            "artifacts": {aid: a.to_dict()
                          for aid, a in self.artifacts.items()},
            "tags": dict(self.tags),
        }
        if include_values:
            data["values"] = dict(self.values)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkflowRun":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            id=data["id"],
            workflow_id=data["workflow_id"],
            workflow_name=data.get("workflow_name", ""),
            workflow_signature=data.get("workflow_signature", ""),
            status=data["status"],
            started=data.get("started", 0.0),
            finished=data.get("finished", 0.0),
            environment=dict(data.get("environment", {})),
            workflow_spec=dict(data.get("workflow_spec", {})),
            executions=[ModuleExecution.from_dict(e)
                        for e in data.get("executions", [])],
            artifacts={aid: DataArtifact.from_dict(a)
                       for aid, a in data.get("artifacts", {}).items()},
            tags=dict(data.get("tags", {})),
            values=dict(data.get("values", {})))
