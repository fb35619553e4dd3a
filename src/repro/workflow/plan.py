"""The plan of one workflow version: what running it derives from its spec.

Running a workflow needs facts that depend on the specification alone:
the topological order, the scheduler's dependency counts, each module's
incoming connections in port order, the structural signature and —
against a module registry — the static validation issues, each module's
definition, resolved parameters and cache-key suffix, and the
prospective snapshot.  In the paper's terms these belong to prospective
provenance, the recipe, which one workflow version has once however
many runs record against it.  A warm rerun or a parameter sweep executes
one unchanged version many times, so each :class:`Workflow
<repro.workflow.spec.Workflow>` keeps one :class:`WorkflowPlan` and
replaces it only when its content changes.

Workflows are mutable without going through their mutators (a direct
write into ``module.parameters``, a new ``connections`` dict), so the
plan is checked by content, not by a version counter: :func:`plan_key`
reads every field the plan derives from, parameters that can change in
place are compared by their canonical JSON as well
(:meth:`WorkflowPlan.is_current`), and a plan that differs from the
workflow's current content is rebuilt.  Every derived fact is
computed lazily, on first use, so a workflow that is only snapshotted
never pays for a schedule.  A plan is a shared, read-only value: its
lists and dicts are handed out without copies, and callers that need to
change them copy first.
"""

from __future__ import annotations

import copy
import heapq
import weakref
from itertools import chain
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple,
                    Optional, Tuple)

from repro.identity import canonical_json, content_hash
from repro.workflow.cache import cache_key_suffix
from repro.workflow.errors import CycleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.registry import ModuleDefinition, ModuleRegistry
    from repro.workflow.spec import Connection, Module, Workflow

__all__ = ["WorkflowPlan", "RegistryPlan", "PlannedModule", "Topology",
           "plan_key", "owned_parameters"]

#: Parameter value types compared by value in the plan key.  With the
#: value's exact type alongside (subclasses are not in this set), equal
#: values mean equal canonical JSON: ``1`` and ``1.0``, or ``True`` and
#: ``1``, differ by type.  The one exception, ``0.0`` against ``-0.0``,
#: is covered by the content check (see :func:`_needs_content_check`).
_SCALARS = frozenset((int, float, str, bool, type(None)))

#: Registries remembered per plan.  An executor and a capture usually
#: share one registry (a capture without one is a second entry); the
#: bound keeps a workflow run against many short-lived registries from
#: holding all of them.
_REGISTRY_SLOTS = 4


def _scalar_only(parameters: Mapping[str, Any]) -> bool:
    for value in parameters.values():
        if type(value) not in _SCALARS:
            return False
    return True


def _needs_content_check(parameters: Mapping[str, Any]) -> bool:
    """True when comparing ``parameters`` by value and type can miss an
    edit: a mutable or unknown value can change in place, and a float
    zero can flip its sign (``0.0 == -0.0``)."""
    for value in parameters.values():
        if type(value) not in _SCALARS or (
                type(value) is float and value == 0.0):
            return True
    return False


def _content(parameters: Mapping[str, Any]) -> Any:
    """Canonical JSON of ``parameters``; for parameters it cannot encode,
    a value equal to nothing, so their plan never counts as current."""
    try:
        return canonical_json(parameters)
    except (TypeError, ValueError):
        return object()


def owned_parameters(parameters: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``parameters`` sharing no mutable value with them: a
    plain copy when every value is a scalar, a deep copy otherwise."""
    if _scalar_only(parameters):
        return dict(parameters)
    return copy.deepcopy(dict(parameters))


def plan_key(workflow: "Workflow") -> Tuple[Any, ...]:
    """What a :class:`WorkflowPlan` is derived from, compared by value.

    The workflow's id, name and connections (frozen, so the tuple of
    them is their content); each module's id, type, name, position and
    parameter items; and the exact type of every parameter value, in
    module order.  Parameters whose in-place edits this cannot see are
    compared again by content (:meth:`WorkflowPlan.is_current`).
    """
    modules = workflow.modules.values()
    return (workflow.id, workflow.name,
            tuple(workflow.connections.values()),
            tuple([(module.id, module.type_name, module.name,
                    module.position, tuple(module.parameters.items()))
                   for module in modules]),
            tuple(map(type, chain.from_iterable(
                [module.parameters.values() for module in modules]))))


class Topology(NamedTuple):
    """The graph facts of one workflow version.

    Attributes:
        order: canonical Kahn order (smallest ready id first), or None
            when the graph has a cycle.
        cycle: the :class:`CycleError` message when ``order`` is None.
        pred_counts: module id -> number of distinct upstream modules.
        dependents: module id -> distinct downstream module ids, sorted.
        sources: module ids with no upstream module, sorted.
        incoming: module id -> connections into it, sorted by target
            port (modules without any are absent).
    """

    order: Optional[List[str]]
    cycle: str
    pred_counts: Dict[str, int]
    dependents: Dict[str, List[str]]
    sources: List[str]
    incoming: Dict[str, List["Connection"]]


def _incoming_key(connection: "Connection") -> str:
    return connection.target_port


def _topology(module_ids: List[str],
              connections: Tuple["Connection", ...]) -> Topology:
    """Derive :class:`Topology` from module ids and connections.

    Two connections between one module pair (e.g. image + header) are
    one dependency.  The ready set is a heap, so the order costs
    O((V + E) log V).  A connection whose target is missing raises
    ``KeyError`` in the ordering walk, as a graph walk over a dangling
    edge always has; validation reports it as ``dangling-connection``.
    """
    incoming: Dict[str, List["Connection"]] = {}
    upstream: Dict[str, set] = {}
    downstream: Dict[str, set] = {}
    for connection in connections:
        incoming.setdefault(connection.target_module, []).append(connection)
        upstream.setdefault(connection.target_module,
                            set()).add(connection.source_module)
        downstream.setdefault(connection.source_module,
                              set()).add(connection.target_module)
    empty: set = set()
    pred_counts = {module_id: len(upstream.get(module_id, empty))
                   for module_id in module_ids}
    dependents = {module_id: sorted(downstream.get(module_id, empty))
                  for module_id in module_ids}
    sources = sorted(m for m, count in pred_counts.items() if count == 0)
    in_degree = dict(pred_counts)
    ready = list(sources)
    order: List[str] = []
    while ready:
        current = heapq.heappop(ready)
        order.append(current)
        for successor in dependents[current]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                heapq.heappush(ready, successor)
    cycle = ""
    if len(order) != len(module_ids):
        stuck = sorted(m for m, d in in_degree.items() if d > 0)
        cycle = f"workflow contains a cycle through: {stuck}"
    return Topology(
        order=None if cycle else order, cycle=cycle,
        pred_counts=pred_counts, dependents=dependents, sources=sources,
        incoming={module_id: sorted(connections_in, key=_incoming_key)
                  for module_id, connections_in in incoming.items()})


class PlannedModule(NamedTuple):
    """One module as a registry resolves it, fixed for a plan's life.

    ``parameters`` are the resolved parameters (declared defaults under
    the instance's overrides) and ``key_suffix`` their
    :func:`~repro.workflow.cache.cache_key_suffix`; both are shared, so
    the engine copies ``parameters`` before handing them out.
    """

    definition: "ModuleDefinition"
    parameters: Dict[str, Any]
    key_suffix: str


class RegistryPlan:
    """The registry-dependent part of a plan, for one registry.

    ``issues`` (the legacy validation issues, filled by
    :func:`repro.workflow.validation.planned_issues`) and ``snapshot``
    (the :class:`~repro.core.prospective.ProspectiveProvenance`, filled
    by ``ProspectiveProvenance.from_workflow``) start as None and are
    filled by the layer that owns their derivation; :meth:`module`
    resolves modules on first use.  ``registry`` may be None for a
    snapshot taken without interfaces.
    """

    def __init__(self, registry: Optional["ModuleRegistry"]) -> None:
        self.registry = registry
        self.size = _registry_size(registry)
        self.issues: Optional[Tuple[Any, ...]] = None
        self.snapshot: Any = None
        self._modules: Dict[str, PlannedModule] = {}

    def module(self, module: "Module") -> PlannedModule:
        """``module`` resolved against the registry (``RegistryError``
        when its type is unknown, as ``registry.get`` raises)."""
        planned = self._modules.get(module.id)
        if planned is None:
            definition = self.registry.get(module.type_name)
            parameters = definition.resolve_parameters(module.parameters)
            planned = PlannedModule(definition, parameters, cache_key_suffix(
                definition.type_name, definition.version, parameters))
            self._modules[module.id] = planned
        return planned


def _registry_size(registry: Optional["ModuleRegistry"]) -> int:
    # definitions are append-only, so identity plus size names a
    # registry's content
    return -1 if registry is None else len(registry)


class WorkflowPlan:
    """Derived facts of one workflow version (see the module docstring).

    Built by ``Workflow._plan()``, which asks :meth:`is_current` on
    every call and builds a new plan when the answer is no.  Each fact is
    computed on first use and then published as one attribute
    assignment, so threads sharing a plan see a fact whole or not yet;
    two threads racing on a miss compute equal values.
    """

    def __init__(self, workflow: "Workflow", key: Tuple[Any, ...]) -> None:
        self.key = key
        # canonical JSON of the parameters a value comparison can miss
        # edits of, by module id
        self._content = {
            module.id: _content(module.parameters)
            for module in workflow.modules.values()
            if _needs_content_check(module.parameters)}
        # weak: the workflow owns its plan, the plan only reads it back
        # for the signature
        self._workflow = weakref.ref(workflow)
        self._topology: Optional[Topology] = None
        self._signature: Optional[str] = None
        self._registries: Dict[int, RegistryPlan] = {}

    def is_current(self, workflow: "Workflow", key: Tuple[Any, ...]) -> bool:
        """True when ``workflow``, whose :func:`plan_key` is ``key``, has
        the content this plan was built from."""
        try:
            if key != self.key:
                return False
        except (TypeError, ValueError):
            # a replaced value whose == is not a bool (an array)
            return False
        modules = workflow.modules
        for module_id, content in self._content.items():
            module = modules.get(module_id)
            if module is None or _content(module.parameters) != content:
                return False
        return True

    def topology(self) -> Topology:
        """The graph facts (see :class:`Topology`)."""
        topology = self._topology
        if topology is None:
            topology = _topology([entry[0] for entry in self.key[3]],
                                 self.key[2])
            self._topology = topology
        return topology

    def order(self) -> List[str]:
        """The canonical topological order (shared: copy to change it);
        raises :class:`CycleError` on every call when there is a cycle."""
        topology = self.topology()
        if topology.order is None:
            raise CycleError(topology.cycle)
        return topology.order

    def signature(self) -> str:
        """Content hash of ``Workflow.structure_dict()``."""
        signature = self._signature
        if signature is None:
            structure = self._workflow().structure_dict()
            signature = content_hash(
                canonical_json(structure).encode("utf-8"))
            self._signature = signature
        return signature

    def for_registry(self, registry: Optional["ModuleRegistry"]
                     ) -> RegistryPlan:
        """The :class:`RegistryPlan` for ``registry``, rebuilt when the
        registry gained definitions since it was made."""
        registries = self._registries
        facts = registries.get(id(registry))
        if (facts is None or facts.registry is not registry
                or facts.size != _registry_size(registry)):
            facts = RegistryPlan(registry)
            registries.pop(id(registry), None)
            if len(registries) >= _REGISTRY_SLOTS:
                # oldest first; list() copies the keys in one step, so a
                # thread adding a registry meanwhile cannot break the loop
                for stale in list(registries)[:1 - _REGISTRY_SLOTS]:
                    registries.pop(stale, None)
            registries[id(registry)] = facts
        return facts
