"""Provenance core: the paper's primary subject matter (§2.2).

Prospective provenance (recipes), retrospective provenance (execution logs),
causality inference, user-defined annotations, capture mechanisms, and the
:class:`~repro.core.manager.ProvenanceManager` facade.
"""

from repro.core.annotations import (ANNOTATABLE_KINDS, Annotation,
                                    AnnotationStore)
from repro.core.capture import (CaptureStats, ProvenanceCapture,
                                ScriptCapture, run_from_result,
                                stream_run_to_store)
from repro.core.causality import (artifacts_affected_by,
                                  cached_causality_graph, causality_graph,
                                  clear_causality_cache, data_dependencies,
                                  derivation_paths, downstream_artifacts,
                                  downstream_executions, upstream_artifacts,
                                  upstream_executions)
from repro.core.graph import Edge, ProvGraph
from repro.core.manager import ProvenanceManager
from repro.core.prospective import ProspectiveProvenance, RecipeStep
from repro.core.replay import ReplayError, ReplayPlan, compute_replay_plan
from repro.core.retrospective import (DataArtifact, ModuleExecution,
                                      PortBinding, WorkflowRun)
from repro.core.xmlprov import run_from_xml, run_to_xml

__all__ = [
    "ANNOTATABLE_KINDS", "Annotation", "AnnotationStore",
    "CaptureStats", "ProvenanceCapture", "ScriptCapture", "run_from_result",
    "stream_run_to_store",
    "artifacts_affected_by", "cached_causality_graph", "causality_graph",
    "clear_causality_cache", "data_dependencies",
    "derivation_paths", "downstream_artifacts", "downstream_executions",
    "upstream_artifacts", "upstream_executions",
    "Edge", "ProvGraph",
    "ProvenanceManager",
    "ProspectiveProvenance", "RecipeStep",
    "ReplayError", "ReplayPlan", "compute_replay_plan",
    "DataArtifact", "ModuleExecution", "PortBinding", "WorkflowRun",
    "run_from_xml", "run_to_xml",
]
