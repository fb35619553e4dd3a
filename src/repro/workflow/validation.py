"""Static validation of workflow specifications against a module registry.

Validation is the workflow analogue of type checking a program.  It catches,
before execution: references to unknown module types, connections to
non-existent ports, port-type mismatches, unconnected mandatory inputs,
ill-typed parameter overrides, unknown parameters, and cycles.

Since the static-analysis subsystem landed, this module is a *strict-mode
view* over the one rule catalog in :mod:`repro.analysis`: the rules here
are the legacy tier (codes E101–E109/W001 in the catalog, reported under
their historical names — ``unknown-module-type``, ``cycle``, ...), and
``repro lint`` runs the same checks plus the advisory tiers.  The analysis
package is imported lazily so the executor's import graph stays acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.workflow.errors import ValidationError
from repro.workflow.plan import RegistryPlan
from repro.workflow.registry import ModuleRegistry
from repro.workflow.spec import Workflow

__all__ = ["ValidationIssue", "check_workflow", "planned_issues",
           "validate_workflow"]


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found in a workflow specification.

    Attributes:
        severity: ``"error"`` or ``"warning"``.
        code: stable machine-readable issue code.
        message: human-readable explanation.
        subject: id of the offending module or connection ("" for global).
    """

    severity: str
    code: str
    message: str
    subject: str = ""

    def is_error(self) -> bool:
        """True when this issue prevents execution."""
        return self.severity == "error"


def check_workflow(workflow: Workflow,
                   registry: ModuleRegistry) -> List[ValidationIssue]:
    """Return every issue found in ``workflow`` (empty list when clean).

    Runs exactly the legacy rule tier of the analysis catalog; the
    ``code`` on each issue is the diagnostic's rule name, unchanged
    since before the catalog existed.  The rules run once per workflow
    version and registry (see :func:`planned_issues`).
    """
    return list(planned_issues(workflow,
                               workflow._plan().for_registry(registry)))


def planned_issues(workflow: Workflow,
                   facts: RegistryPlan) -> Tuple[ValidationIssue, ...]:
    """The legacy issues of ``workflow`` against ``facts.registry``.

    ``facts`` is the registry part of the workflow's current plan; the
    issues are derived on its first use and kept on it, so an unchanged
    workflow is checked once however often it runs.
    """
    issues = facts.issues
    if issues is None:
        from repro.analysis.workflow import legacy_diagnostics
        issues = tuple(
            ValidationIssue(severity=diagnostic.severity,
                            code=diagnostic.rule,
                            message=diagnostic.message,
                            subject=diagnostic.subject)
            for diagnostic in legacy_diagnostics(workflow, facts.registry))
        facts.issues = issues
    return issues


def validate_workflow(workflow: Workflow, registry: ModuleRegistry) -> None:
    """Raise :class:`ValidationError` when ``workflow`` has any error issue."""
    errors = [i for i in check_workflow(workflow, registry) if i.is_error()]
    if errors:
        summary = "; ".join(f"[{i.code}] {i.message}" for i in errors)
        raise ValidationError(
            f"workflow {workflow.name!r} failed validation: {summary}")
