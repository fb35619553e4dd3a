"""Workflow specifications: modules, connections, and the dataflow graph.

A workflow is a directed acyclic graph whose nodes are *module instances* and
whose edges are *connections* between typed ports.  The specification is pure
data — executable behaviour lives in the module registry — which is exactly
what the paper calls **prospective provenance**: the recipe that, together with
inputs and parameters, derives a class of data products.

Workflows are deliberately mutable: the evolution subsystem
(:mod:`repro.evolution`) records every mutation as a change action, following
the VisTrails change-based provenance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.identity import canonical_json, new_id
from repro.workflow.errors import SpecError
from repro.workflow.plan import WorkflowPlan, plan_key

__all__ = ["Module", "Connection", "Workflow"]


@dataclass
class Module:
    """One module instance placed in a workflow.

    Attributes:
        id: unique instance identifier (``mod-...``).
        type_name: name of the module definition in the registry.
        name: user-facing label (defaults to the type name).
        parameters: per-instance parameter overrides.
        position: (x, y) layout hint, kept for diff/analogy visualization.
    """

    type_name: str
    id: str = field(default_factory=lambda: new_id("mod"))
    name: str = ""
    parameters: Dict[str, Any] = field(default_factory=dict)
    position: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.type_name

    def copy(self) -> "Module":
        """Return an independent copy (same id)."""
        return Module(type_name=self.type_name, id=self.id, name=self.name,
                      parameters=dict(self.parameters), position=self.position)


@dataclass(frozen=True)
class Connection:
    """A dataflow edge from an output port to an input port."""

    source_module: str
    source_port: str
    target_module: str
    target_port: str
    id: str = field(default_factory=lambda: new_id("conn"))

    def endpoints(self) -> Tuple[str, str]:
        """Return (source_module, target_module)."""
        return (self.source_module, self.target_module)


def _incoming_key(connection: Connection) -> str:
    return connection.target_port


def _outgoing_key(connection: Connection) -> Tuple[str, str]:
    return (connection.source_port, connection.target_module)


#: (connections dict it was built from, its size then, incoming, outgoing)
_Adjacency = Tuple[Dict[str, Connection], int,
                   Dict[str, List[Connection]], Dict[str, List[Connection]]]


class Workflow:
    """A mutable dataflow graph of module instances and connections.

    All mutators raise :class:`SpecError` when they would leave the graph
    referentially inconsistent (dangling connections, duplicate ids).  Static
    semantic checks (types, cycles, unbound mandatory ports) live in
    :mod:`repro.workflow.validation`.

    Graph queries are served from per-module incoming/outgoing connection
    lists, so they cost O(degree) instead of a scan of every connection.
    The lists are built lazily and kept current by the mutators; a write
    straight into :attr:`connections` that changes its size (or a new
    ``connections`` dict) makes the next query rebuild them.

    Whole-workflow derivations — the topological order, the signature,
    and what the engine, validation and capture derive per run — come
    from one :class:`~repro.workflow.plan.WorkflowPlan`, kept until the
    workflow's content changes (however it is changed; see
    :func:`~repro.workflow.plan.plan_key`).  The plan is not pickled and
    not copied.
    """

    #: the current plan (see :meth:`_plan`); a class default, so
    #: unpickled workflows start without one
    _plan_cache: Optional[WorkflowPlan] = None

    def __init__(self, name: str = "workflow",
                 workflow_id: Optional[str] = None) -> None:
        self.id = workflow_id or new_id("wf")
        self.name = name
        self.modules: Dict[str, Module] = {}
        self.connections: Dict[str, Connection] = {}
        self._adjacency_cache: Optional[_Adjacency] = None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_module(self, module: Module) -> Module:
        """Insert ``module``; its id must be fresh within this workflow."""
        if module.id in self.modules:
            raise SpecError(f"duplicate module id: {module.id}")
        self.modules[module.id] = module
        return module

    def remove_module(self, module_id: str) -> Module:
        """Remove a module that has no attached connections."""
        module = self._require_module(module_id)
        incoming, outgoing = self._adjacency()
        if incoming.get(module_id) or outgoing.get(module_id):
            attached = [c.id for c in self.connections.values()
                        if module_id in c.endpoints()]
            raise SpecError(
                f"module {module_id} still has connections: {attached}")
        del self.modules[module_id]
        return module

    def remove_module_cascade(self, module_id: str
                              ) -> Tuple[Module, List[Connection]]:
        """Remove a module and all its connections; return what was removed."""
        self._require_module(module_id)
        removed = [c for c in self.connections.values()
                   if module_id in c.endpoints()]
        for connection in removed:
            del self.connections[connection.id]
        self._adjacency_cache = None
        module = self.modules.pop(module_id)
        return module, removed

    def add_connection(self, connection: Connection) -> Connection:
        """Insert ``connection``; both endpoint modules must exist."""
        if connection.id in self.connections:
            raise SpecError(f"duplicate connection id: {connection.id}")
        self._require_module(connection.source_module)
        self._require_module(connection.target_module)
        incoming, outgoing = self._adjacency()
        for existing in incoming.get(connection.target_module, ()):
            if existing.target_port == connection.target_port:
                raise SpecError(
                    "input port already bound: "
                    f"{connection.target_module}.{connection.target_port}")
        self.connections[connection.id] = connection
        incoming.setdefault(connection.target_module, []).append(connection)
        outgoing.setdefault(connection.source_module, []).append(connection)
        self._adjacency_cache = (self.connections, len(self.connections),
                                 incoming, outgoing)
        return connection

    def remove_connection(self, connection_id: str) -> Connection:
        """Remove the connection with ``connection_id`` and return it."""
        if connection_id not in self.connections:
            raise SpecError(f"no such connection: {connection_id}")
        incoming, outgoing = self._adjacency()
        connection = self.connections.pop(connection_id)
        incoming[connection.target_module].remove(connection)
        outgoing[connection.source_module].remove(connection)
        self._adjacency_cache = (self.connections, len(self.connections),
                                 incoming, outgoing)
        return connection

    def connect(self, source_module: str, source_port: str,
                target_module: str, target_port: str) -> Connection:
        """Convenience wrapper building and adding a :class:`Connection`."""
        return self.add_connection(Connection(
            source_module=source_module, source_port=source_port,
            target_module=target_module, target_port=target_port))

    def set_parameter(self, module_id: str, name: str, value: Any) -> None:
        """Set a parameter override on a module instance."""
        self._require_module(module_id).parameters[name] = value

    def unset_parameter(self, module_id: str, name: str) -> Any:
        """Remove a parameter override, returning the previous value."""
        module = self._require_module(module_id)
        if name not in module.parameters:
            raise SpecError(
                f"module {module_id} has no parameter override {name!r}")
        return module.parameters.pop(name)

    def rename_module(self, module_id: str, name: str) -> None:
        """Change the user-facing label of a module."""
        self._require_module(module_id).name = name

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def _require_module(self, module_id: str) -> Module:
        if module_id not in self.modules:
            raise SpecError(f"no such module: {module_id}")
        return self.modules[module_id]

    def _adjacency(self) -> Tuple[Dict[str, List[Connection]],
                                  Dict[str, List[Connection]]]:
        """Per-module (incoming, outgoing) connection lists, in dict order.

        Rebuilt from :attr:`connections` when they were never built, when
        ``connections`` was replaced, or when its size differs from the
        size they were built at (a direct write into the dict).  A direct
        write that keeps the size (replacing an existing key) goes
        unnoticed; use the mutators for that.  The whole index is
        published as one tuple, so a concurrent reader sees either the
        old index or the complete new one.
        """
        cache = self._adjacency_cache
        if (cache is None or cache[0] is not self.connections
                or cache[1] != len(self.connections)):
            incoming: Dict[str, List[Connection]] = {}
            outgoing: Dict[str, List[Connection]] = {}
            for connection in self.connections.values():
                incoming.setdefault(connection.target_module,
                                    []).append(connection)
                outgoing.setdefault(connection.source_module,
                                    []).append(connection)
            cache = (self.connections, len(self.connections),
                     incoming, outgoing)
            self._adjacency_cache = cache
        return cache[2], cache[3]

    def incoming(self, module_id: str) -> List[Connection]:
        """Connections whose target is ``module_id``, sorted by port name."""
        return sorted(self._adjacency()[0].get(module_id, ()),
                      key=_incoming_key)

    def outgoing(self, module_id: str) -> List[Connection]:
        """Connections whose source is ``module_id``, sorted by port name."""
        return sorted(self._adjacency()[1].get(module_id, ()),
                      key=_outgoing_key)

    def predecessors(self, module_id: str) -> List[str]:
        """Distinct upstream neighbour module ids (sorted)."""
        return sorted({c.source_module
                       for c in self._adjacency()[0].get(module_id, ())})

    def successors(self, module_id: str) -> List[str]:
        """Distinct downstream neighbour module ids (sorted)."""
        return sorted({c.target_module
                       for c in self._adjacency()[1].get(module_id, ())})

    def sources(self) -> List[str]:
        """Module ids with no incoming connections (sorted)."""
        targets = {c.target_module for c in self.connections.values()}
        return sorted(m for m in self.modules if m not in targets)

    def sinks(self) -> List[str]:
        """Module ids with no outgoing connections (sorted)."""
        origins = {c.source_module for c in self.connections.values()}
        return sorted(m for m in self.modules if m not in origins)

    def topological_order(self) -> List[str]:
        """Kahn topological order of module ids, deterministic by id.

        Among the modules ready at each step the smallest id goes first.
        The order is derived once per workflow version (see
        :meth:`_plan`); each call returns a fresh list.  Raises
        :class:`~repro.workflow.errors.CycleError` when the graph has a
        cycle.
        """
        return list(self._plan().order())

    def upstream_modules(self, module_id: str) -> List[str]:
        """All transitive predecessors of ``module_id`` (sorted)."""
        return self._closure(module_id, self.predecessors)

    def downstream_modules(self, module_id: str) -> List[str]:
        """All transitive successors of ``module_id`` (sorted)."""
        return self._closure(module_id, self.successors)

    def _closure(self, start: str, step) -> List[str]:
        self._require_module(start)
        seen: set = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in step(current):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return sorted(seen)

    # ------------------------------------------------------------------
    # identity and copying
    # ------------------------------------------------------------------
    def structure_dict(self) -> Dict[str, Any]:
        """A canonical, id-independent description of the graph structure.

        Module ids are replaced with stable indexes assigned in topological
        order (ties broken by type then name) so that two structurally equal
        workflows built independently hash identically.
        """
        ordered = sorted(
            self.modules.values(),
            key=lambda m: (m.type_name, m.name, canonical_json(m.parameters),
                           m.id))
        index = {module.id: position for position, module
                 in enumerate(ordered)}
        return {
            "modules": [
                {"type": m.type_name, "name": m.name,
                 "parameters": m.parameters}
                for m in ordered
            ],
            # a dangling endpoint (a module deleted behind the
            # mutators' back) reads -1, so a corrupt workflow still has
            # a signature for validation to report against
            "connections": sorted(
                [index.get(c.source_module, -1), c.source_port,
                 index.get(c.target_module, -1), c.target_port]
                for c in self.connections.values()
            ),
        }

    def signature(self) -> str:
        """Content hash identifying this workflow's structure (derived
        once per workflow version)."""
        return self._plan().signature()

    def _plan(self) -> WorkflowPlan:
        """The plan of the workflow's current content.

        Checks the cached plan against the workflow as it is now (see
        :func:`~repro.workflow.plan.plan_key`) and builds a new plan when
        the content differs.  The new plan is published by one
        assignment, so threads sharing the workflow see the old plan or
        the new one, never a mix.
        """
        key = plan_key(self)
        plan = self._plan_cache
        if plan is None or not plan.is_current(self, key):
            plan = WorkflowPlan(self, key)
            self._plan_cache = plan
        return plan

    def __getstate__(self) -> Dict[str, Any]:
        # the plan references registries (compute closures) and weakly
        # this workflow: neither pickles, and both are rederived
        state = dict(self.__dict__)
        state.pop("_plan_cache", None)
        return state

    def copy(self, new_id_: Optional[str] = None) -> "Workflow":
        """Deep-copy the workflow (same module/connection ids)."""
        duplicate = Workflow(name=self.name,
                             workflow_id=new_id_ or new_id("wf"))
        for module in self.modules.values():
            duplicate.modules[module.id] = module.copy()
        duplicate.connections = dict(self.connections)
        return duplicate

    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules.values())

    def __repr__(self) -> str:
        return (f"Workflow({self.name!r}, modules={len(self.modules)}, "
                f"connections={len(self.connections)})")
