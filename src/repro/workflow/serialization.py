"""Serialization of workflow specifications and process-pool jobs.

Prospective provenance must outlive the process that created it; workflows
round-trip to plain JSON dictionaries here.  Behaviour is not serialized —
a specification references module definitions by type name, and rehydrating
an executable workflow requires a registry providing those types (exactly how
workflow systems ship "packages" of modules separately from workflows).

The same principle powers the process-pool execution backend: a
:class:`ProcessJob` ships a module *reference* (type name + resolved
parameters + input values + a registry provider spec) to a worker process,
which rehydrates the registry once per process and runs the compute
function there; the :class:`ProcessOutcome` carries raw outputs and timing
back.  Hashing, provenance capture and caching stay in the coordinating
process, so serial, thread and process runs record identical provenance.

Large values do not travel through the executor pipe at all: any input or
output whose pickle exceeds the job's *spill threshold* is written (in
chunks) to a file under a coordinator-managed spill directory, and a tiny
:class:`SpilledValue` reference is shipped instead.  Both sides resolve
references transparently, so a wide fan-out of multi-megabyte artifacts
costs the coordinator one file handle per value instead of N concurrent
multi-MB pickles buffered in executor queues.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Mapping

from repro.workflow.errors import SpecError
from repro.workflow.plan import owned_parameters
from repro.workflow.registry import ModuleContext, ModuleRegistry
from repro.workflow.spec import Connection, Module, Workflow

__all__ = [
    "workflow_to_dict",
    "workflow_from_dict",
    "dump_workflow",
    "load_workflow",
    "dumps_workflow",
    "loads_workflow",
    "DEFAULT_REGISTRY_PROVIDER",
    "DEFAULT_SPILL_THRESHOLD",
    "ProcessJob",
    "ProcessOutcome",
    "SpilledValue",
    "maybe_spill",
    "load_spilled",
    "resolve_spilled",
    "resolve_registry_provider",
    "execute_process_job",
]

FORMAT_VERSION = 1


def workflow_to_dict(workflow: Workflow) -> Dict[str, Any]:
    """Convert ``workflow`` into a JSON-serializable dictionary.

    The dictionary owns its parameter values (copies, deep when a value
    is not a scalar), so later edits of the workflow leave it unchanged.
    """
    return {
        "format_version": FORMAT_VERSION,
        "id": workflow.id,
        "name": workflow.name,
        "modules": [
            {
                "id": module.id,
                "type": module.type_name,
                "name": module.name,
                "parameters": owned_parameters(module.parameters),
                "position": list(module.position),
            }
            for module in sorted(workflow.modules.values(),
                                 key=lambda m: m.id)
        ],
        "connections": [
            {
                "id": connection.id,
                "source_module": connection.source_module,
                "source_port": connection.source_port,
                "target_module": connection.target_module,
                "target_port": connection.target_port,
            }
            for connection in sorted(workflow.connections.values(),
                                     key=lambda c: c.id)
        ],
    }


def workflow_from_dict(data: Dict[str, Any]) -> Workflow:
    """Rebuild a :class:`Workflow` from :func:`workflow_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SpecError(f"unsupported workflow format version: {version!r}")
    workflow = Workflow(name=data["name"], workflow_id=data["id"])
    for module_data in data["modules"]:
        workflow.add_module(Module(
            id=module_data["id"],
            type_name=module_data["type"],
            name=module_data["name"],
            parameters=dict(module_data.get("parameters", {})),
            position=tuple(module_data.get("position", (0.0, 0.0))),
        ))
    for connection_data in data["connections"]:
        workflow.add_connection(Connection(
            id=connection_data["id"],
            source_module=connection_data["source_module"],
            source_port=connection_data["source_port"],
            target_module=connection_data["target_module"],
            target_port=connection_data["target_port"],
        ))
    return workflow


def dumps_workflow(workflow: Workflow, indent: int = 2) -> str:
    """Serialize ``workflow`` to a JSON string."""
    return json.dumps(workflow_to_dict(workflow), indent=indent,
                      sort_keys=True)


def loads_workflow(text: str) -> Workflow:
    """Deserialize a workflow from a JSON string."""
    return workflow_from_dict(json.loads(text))


def dump_workflow(workflow: Workflow, stream: IO[str]) -> None:
    """Write ``workflow`` as JSON to an open text stream."""
    stream.write(dumps_workflow(workflow))


def load_workflow(stream: IO[str]) -> Workflow:
    """Read a workflow from an open text stream containing JSON."""
    return loads_workflow(stream.read())


# ----------------------------------------------------------------------
# process-pool job wire format
# ----------------------------------------------------------------------
#: Registry provider used when an executor does not name its own: the
#: ``"module:callable"`` spec of the standard library registry.
DEFAULT_REGISTRY_PROVIDER = "repro.workflow.modules:standard_registry"

#: Default pickle-size threshold (bytes) above which process-job values
#: spill to a file instead of travelling through the executor pipe.
DEFAULT_SPILL_THRESHOLD = 1 << 20

#: Chunk size for spill-file writes: large pickles stream to disk in
#: bounded slices instead of one monolithic write.
SPILL_CHUNK = 256 * 1024


@dataclass(frozen=True)
class SpilledValue:
    """Reference to a pickled value parked in a spill file.

    Shipped through the executor pipe in place of the value itself;
    either side resolves it with :func:`load_spilled`.  The file lives in
    the run's coordinator-managed spill directory and is deleted with it
    when the run finishes.

    Attributes:
        path: spill file holding exactly one pickled value.
        length: pickled size in bytes (diagnostic; the pickle stream is
            self-delimiting).
    """

    path: str
    length: int


def _spill_bytes(data: bytes, directory: str) -> SpilledValue:
    descriptor, path = tempfile.mkstemp(prefix="value-", suffix=".pkl",
                                        dir=directory)
    with os.fdopen(descriptor, "wb") as handle:
        view = memoryview(data)
        for start in range(0, len(view), SPILL_CHUNK):
            handle.write(view[start:start + SPILL_CHUNK])
    return SpilledValue(path=path, length=len(data))


def maybe_spill(value: Any, threshold: int, directory: str) -> Any:
    """Spill ``value`` to ``directory`` when its pickle beats ``threshold``.

    Returns the value unchanged when spilling is disabled (no directory /
    non-positive threshold), the value is small, the value is unpicklable
    (the executor pipe will surface that as the usual failed submission),
    or the spill write itself fails — spilling is an optimization, never
    a new failure mode.
    """
    if not directory or threshold <= 0:
        return value
    try:
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return value
    if len(data) <= threshold:
        return value
    try:
        return _spill_bytes(data, directory)
    except OSError:
        return value


def load_spilled(reference: SpilledValue) -> Any:
    """Read back one value spilled by :func:`maybe_spill` (streaming)."""
    with open(reference.path, "rb") as handle:
        return pickle.load(handle)


def resolve_spilled(mapping: Mapping[str, Any]) -> Dict[str, Any]:
    """Replace every :class:`SpilledValue` in ``mapping`` with its value."""
    return {key: load_spilled(value) if isinstance(value, SpilledValue)
            else value for key, value in mapping.items()}


@dataclass(frozen=True)
class ProcessJob:
    """One module execution shipped to a worker process.

    Everything a worker needs is either plain picklable data (parameters,
    input values) or an importable reference (the registry provider, the
    module type name) — compute callables themselves are often closures
    and never cross the process boundary.

    Attributes:
        module_id: workflow module instance id (round-tripped for
            bookkeeping; the worker does not interpret it).
        module_name: user-facing module name, surfaced to the compute
            context exactly as in-process execution would.
        type_name: module definition to look up in the worker's registry.
        parameters: fully resolved parameter values.
        inputs: input-port name to (picklable) input value — possibly a
            :class:`SpilledValue` reference the worker resolves.
        registry_provider: ``"module:callable"`` spec producing the
            :class:`~repro.workflow.registry.ModuleRegistry` in the worker.
        spill_dir: coordinator-managed directory for large-value spill
            files ("" disables spilling for this job).
        spill_threshold: pickle size (bytes) above which the worker spills
            output values back through ``spill_dir`` instead of the pipe.
        inject: fault-injection stamp applied worker-side before compute
            ("" = none): ``"fail"`` returns a failed outcome, ``"kill"``
            calls ``os._exit`` (simulating a worker crash), and
            ``"hang:<seconds>"`` sleeps before computing (pairs with
            retry timeouts).  Stamped by the coordinator's
            :class:`~repro.workflow.faults.FaultPlan` seam.
    """

    module_id: str
    module_name: str
    type_name: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    inputs: Dict[str, Any] = field(default_factory=dict)
    registry_provider: str = DEFAULT_REGISTRY_PROVIDER
    spill_dir: str = ""
    spill_threshold: int = 0
    inject: str = ""


@dataclass
class ProcessOutcome:
    """What a worker sends back for one module attempt.

    Process workers return one per :class:`ProcessJob`; serial and
    thread workers build the same record in-process, one per attempt
    (which is why this class is not frozen: construction is on the
    per-module hot path).

    ``status`` is ``"ok"`` or ``"failed"``; outputs are the *raw* values
    returned by the compute function — the coordinator hashes them,
    checks them against the declared output ports, and memoizes them,
    whichever backend ran the module.  Values above the
    job's spill threshold come back as :class:`SpilledValue` references
    the coordinator resolves before hashing.

    ``worker_lost`` marks outcomes synthesized by the backend when the
    worker process died (or the pool was force-restarted) before the job
    could report back — the engine treats those as retryable attempts,
    distinct from a module that computed and failed.
    """

    status: str
    outputs: Dict[str, Any] = field(default_factory=dict)
    started: float = 0.0
    finished: float = 0.0
    error: str = ""
    worker_lost: bool = False


#: Worker-process registry cache: provider spec -> built registry.  One
#: registry is built per (worker process, provider) and reused for every
#: job that names it.
_WORKER_REGISTRIES: Dict[str, ModuleRegistry] = {}


def resolve_registry_provider(provider: str) -> ModuleRegistry:
    """Import and invoke a ``"module:callable"`` registry provider.

    Results are cached per process; raises ``ValueError`` on a malformed
    spec and lets import/attribute errors propagate (the caller converts
    them into a failed outcome).
    """
    registry = _WORKER_REGISTRIES.get(provider)
    if registry is not None:
        return registry
    module_name, separator, attribute = provider.partition(":")
    if not separator or not module_name or not attribute:
        raise ValueError(
            f"registry provider must be 'module:callable', got {provider!r}")
    factory = getattr(importlib.import_module(module_name), attribute)
    registry = factory()
    if not isinstance(registry, ModuleRegistry):
        raise ValueError(
            f"registry provider {provider!r} returned {type(registry)!r}, "
            "not a ModuleRegistry")
    _WORKER_REGISTRIES[provider] = registry
    return registry


def _apply_injection(inject: str) -> None:
    """Honor a :class:`ProcessJob` fault stamp (worker-process side)."""
    if inject == "kill":
        os._exit(1)  # simulated worker crash: no cleanup, no outcome
    if inject == "fail":
        raise RuntimeError("injected worker fault")
    if inject.startswith("hang:"):
        time.sleep(float(inject.split(":", 1)[1]))


def execute_process_job(job: ProcessJob) -> ProcessOutcome:
    """Run one :class:`ProcessJob` (worker-process side); never raises.

    This is the top-level entry point a process pool invokes: it must be
    importable by worker processes under any start method (fork or spawn)
    and must always return an outcome — failures come back as
    ``status="failed"`` with the same error formatting the in-process
    engine records.
    """
    started = time.time()
    try:
        if job.inject:
            _apply_injection(job.inject)
        registry = resolve_registry_provider(job.registry_provider)
        definition = registry.get(job.type_name)
        context = ModuleContext(inputs=resolve_spilled(job.inputs),
                                parameters=job.parameters,
                                module_name=job.module_name)
        outputs = dict(definition.compute(context))
        if job.spill_dir and job.spill_threshold > 0:
            outputs = {port: maybe_spill(value, job.spill_threshold,
                                         job.spill_dir)
                       for port, value in outputs.items()}
    except Exception as exc:
        return ProcessOutcome(
            status="failed", started=started, finished=time.time(),
            error=f"{type(exc).__name__}: {exc}\n"
                  f"{traceback.format_exc(limit=3)}")
    return ProcessOutcome(status="ok", outputs=outputs, started=started,
                          finished=time.time())
