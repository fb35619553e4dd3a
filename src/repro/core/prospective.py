"""Prospective provenance: the recipe side of workflow provenance.

The paper: "Prospective provenance captures the specification of a
computational task (i.e., a workflow) — it corresponds to the steps that need
to be followed (or a recipe) to generate a data product or class of data
products."

:class:`ProspectiveProvenance` snapshots a workflow specification together
with the *interfaces* of the module types it uses (ports, parameters with
defaults, documentation, behavioural version) so the recipe is meaningful
even without the registry that defined the behaviour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.workflow.registry import ModuleRegistry
from repro.workflow.serialization import workflow_from_dict, workflow_to_dict
from repro.workflow.spec import Workflow

__all__ = ["ProspectiveProvenance", "RecipeStep"]


@dataclass(frozen=True)
class RecipeStep:
    """One human-readable step in the recipe reading of a workflow."""

    position: int
    module_id: str
    module_name: str
    module_type: str
    doc: str
    parameters: Dict[str, Any]
    consumes: List[str]
    produces: List[str]

    def describe(self) -> str:
        """One-line description of the step."""
        pieces = [f"{self.position}. {self.module_name} "
                  f"[{self.module_type}]"]
        if self.parameters:
            rendered = ", ".join(f"{k}={v!r}" for k, v
                                 in sorted(self.parameters.items()))
            pieces.append(f"({rendered})")
        if self.consumes:
            pieces.append("<- " + ", ".join(self.consumes))
        if self.produces:
            pieces.append("-> " + ", ".join(self.produces))
        return " ".join(pieces)


@dataclass
class ProspectiveProvenance:
    """A self-contained snapshot of a workflow specification.

    A snapshot is a shared, read-only value for each workflow version:
    :meth:`from_workflow` returns the same object for every call on an
    unchanged workflow (and registry), and every run captured from that
    version carries its :attr:`spec`.  The snapshot owns its parameter
    values, so editing the workflow later never changes it.  Do not
    mutate one; build a new snapshot instead.

    Attributes:
        workflow_id / workflow_name / signature: identity of the recipe.
        spec: serialized workflow (see ``workflow_to_dict``).
        interfaces: module-type name -> interface description (ports,
            parameters with defaults, doc, version).
    """

    workflow_id: str
    workflow_name: str
    signature: str
    spec: Dict[str, Any]
    interfaces: Dict[str, Any] = field(default_factory=dict)
    #: ``json.dumps(spec)``, encoded on first use (see :meth:`spec_json`)
    _spec_json: Optional[str] = field(default=None, init=False,
                                      repr=False, compare=False)

    @classmethod
    def from_workflow(cls, workflow: Workflow,
                      registry: Optional[ModuleRegistry] = None
                      ) -> "ProspectiveProvenance":
        """Snapshot ``workflow`` (interface details when registry given).

        The snapshot is built once per workflow version and registry and
        kept on the workflow's plan; later calls return that same object
        until the workflow or the registry changes.
        """
        plan = workflow._plan()
        facts = plan.for_registry(registry)
        snapshot = facts.snapshot
        if snapshot is None:
            snapshot = cls(workflow_id=workflow.id,
                           workflow_name=workflow.name,
                           signature=plan.signature(),
                           spec=workflow_to_dict(workflow),
                           interfaces=_interfaces(workflow, registry))
            facts.snapshot = snapshot
        return snapshot

    def spec_json(self) -> str:
        """``json.dumps(self.spec)``, encoded once per snapshot."""
        encoded = self._spec_json
        if encoded is None:
            encoded = self._spec_json = json.dumps(self.spec)
        return encoded

    def to_workflow(self) -> Workflow:
        """Materialize the snapshot back into a mutable workflow."""
        return workflow_from_dict(self.spec)

    def recipe(self) -> List[RecipeStep]:
        """The workflow as an ordered list of human-readable steps."""
        workflow = self.to_workflow()
        steps: List[RecipeStep] = []
        for position, module_id in enumerate(workflow.topological_order(),
                                             start=1):
            module = workflow.modules[module_id]
            interface = self.interfaces.get(module.type_name, {})
            consumes = [f"{workflow.modules[c.source_module].name}"
                        f".{c.source_port}"
                        for c in workflow.incoming(module_id)]
            produces = [f"{module.name}.{c.source_port}"
                        for c in workflow.outgoing(module_id)]
            steps.append(RecipeStep(
                position=position, module_id=module_id,
                module_name=module.name, module_type=module.type_name,
                doc=interface.get("doc", ""),
                parameters=dict(module.parameters),
                consumes=sorted(set(consumes)),
                produces=sorted(set(produces))))
        return steps

    def describe(self) -> str:
        """The full recipe as multi-line text."""
        header = (f"Recipe {self.workflow_name!r} "
                  f"(signature {self.signature[:12]}...)")
        return "\n".join([header] + [step.describe()
                                     for step in self.recipe()])

    def module_types(self) -> List[str]:
        """Distinct module types used by this recipe (sorted)."""
        return sorted({m["type"] for m in self.spec.get("modules", [])})

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form."""
        return {
            "workflow_id": self.workflow_id,
            "workflow_name": self.workflow_name,
            "signature": self.signature,
            "spec": dict(self.spec),
            "interfaces": dict(self.interfaces),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProspectiveProvenance":
        """Rebuild from :meth:`to_dict` output."""
        return cls(workflow_id=data["workflow_id"],
                   workflow_name=data["workflow_name"],
                   signature=data["signature"],
                   spec=dict(data["spec"]),
                   interfaces=dict(data.get("interfaces", {})))


def _interfaces(workflow: Workflow,
                registry: Optional[ModuleRegistry]) -> Dict[str, Any]:
    """Interface descriptions of the registered types ``workflow`` uses."""
    interfaces: Dict[str, Any] = {}
    if registry is not None:
        for type_name in sorted({m.type_name for m
                                 in workflow.modules.values()}):
            if type_name not in registry:
                continue
            definition = registry.get(type_name)
            interfaces[type_name] = {
                "doc": definition.doc,
                "version": definition.version,
                "category": definition.category,
                "deterministic": definition.deterministic,
                "inputs": [{"name": p.name, "type": p.type_name,
                            "optional": p.optional}
                           for p in definition.input_ports],
                "outputs": [{"name": p.name, "type": p.type_name}
                            for p in definition.output_ports],
                "parameters": [{"name": p.name, "default": p.default,
                                "kind": p.kind}
                               for p in definition.parameters],
            }
    return interfaces
