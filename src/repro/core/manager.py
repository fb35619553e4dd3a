"""ProvenanceManager — the one-object facade over the whole system.

A manager wires together the module registry, the execution engine with
provenance capture, a storage backend, and the annotation store; and exposes
the high-level operations a user of a provenance-enabled workflow system
performs: build and run workflows, inspect prospective/retrospective
provenance, traverse causality, annotate anything, and hand off to the query,
OPM and evolution subsystems.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.annotations import Annotation, AnnotationStore
from repro.core.capture import ProvenanceCapture
from repro.core.causality import causality_graph
from repro.core.graph import ProvGraph
from repro.core.prospective import ProspectiveProvenance
from repro.core.replay import ReplayPlan, compute_replay_plan
from repro.core.retrospective import WorkflowRun
from repro.storage.query import ProvQuery, ResultCursor
from repro.workflow.cache import (CacheStore, PersistentResultCache,
                                  ResultCache)
from repro.workflow.engine import Executor, RunResult
from repro.workflow.registry import ModuleRegistry
from repro.workflow.serialization import workflow_from_dict
from repro.workflow.spec import Module, Workflow

__all__ = ["ProvenanceManager"]


class ProvenanceManager:
    """Facade tying engine, capture, storage and annotations together.

    Provenance is captured synchronously by the manager's
    :class:`~repro.core.capture.ProvenanceCapture`: :meth:`run` returns
    once the run, and the snapshot of its workflow built once for it, are
    recorded and saved to ``store``, and a failing store write raises
    from :meth:`run`.  :meth:`run` and :meth:`rerun` return the run their
    own call executed, even when other threads run workflows on the same
    manager meanwhile.  :meth:`close` (or leaving a ``with`` block) closes
    the result cache the manager built from ``cache_path``; a ``cache`` or
    ``store`` passed in stays open for its owner to close.

    Args:
        registry: module registry (defaults to the standard libraries).
        store: provenance storage backend (defaults to an in-memory store).
        use_cache: enable intermediate-result caching in the engine.
        cache: an explicit :class:`~repro.workflow.cache.CacheStore` to
            memoize against (overrides ``use_cache``/``cache_path``).
        cache_path: path of a
            :class:`~repro.workflow.cache.PersistentResultCache` database;
            results then survive process boundaries and restarts, so a
            fresh process rerunning an unchanged workflow recomputes
            nothing — and concurrent managers pointing at one file
            coordinate through its compute leases, so N simultaneous
            runs compute each distinct module at most once.
        cache_max_bytes: total payload-byte budget for the cache this
            manager builds (LRU eviction past it; ignored when an
            explicit ``cache`` object is passed — budget that store
            directly).
        payload_spill_threshold: pickle size (bytes) above which
            process-backend job values travel as spill-file references
            instead of through the executor pipe (None = 1 MiB default,
            0 disables).
        keep_values: retain artifact values on captured runs (required for
            partial re-execution to reuse recorded results).
        stream_batch: when set, captured runs are persisted through the
            store's streaming-ingest API
            (:meth:`~repro.storage.base.ProvenanceStore.save_run_stream`),
            flushing executions every ``stream_batch`` instead of one
            monolithic run-sized write.
        retry: retry configuration for module attempts — one
            :class:`~repro.workflow.faults.RetryPolicy` applied to every
            module, or a mapping of module type name to policy with a
            ``"*"`` wildcard fallback (None = single attempt, no
            timeout).
        fault_plan: deterministic fault-injection schedule
            (:class:`~repro.workflow.faults.FaultPlan`) threaded through
            the engine, capture and cache seams; used by the fault
            test-suite and recovery benchmarks.
        workers: default engine parallelism — ``None``/``1`` executes
            serially in deterministic order, ``N > 1`` runs independent
            branches on a worker pool.
        backend: worker-pool kind — ``"thread"`` (default) for blocking /
            GIL-releasing modules, ``"process"`` for pure-Python CPU-bound
            modules (requires an importable ``registry_provider``).
        registry_provider: ``"module:callable"`` spec process workers use
            to rebuild the registry (defaults to the standard libraries).
    """

    def __init__(self, *, registry: Optional[ModuleRegistry] = None,
                 store: Optional[Any] = None, use_cache: bool = True,
                 cache: Optional[CacheStore] = None,
                 cache_path: Optional[str] = None,
                 cache_max_bytes: Optional[int] = None,
                 keep_values: bool = True,
                 workers: Optional[int] = None,
                 backend: Optional[str] = None,
                 registry_provider: Optional[str] = None,
                 payload_spill_threshold: Optional[int] = None,
                 stream_batch: Optional[int] = None,
                 retry: Any = None,
                 fault_plan: Optional[Any] = None) -> None:
        if registry is None:
            from repro.workflow.modules import standard_registry
            registry = standard_registry()
        if store is None:
            from repro.storage.memory import MemoryStore
            store = MemoryStore()
        self.registry = registry
        self.store = store
        self.annotations = AnnotationStore()
        # a cache the caller passed in is theirs to close; one built here
        # (from cache_path or use_cache) is closed by close()
        self._owns_cache = cache is None
        if cache is not None:
            self.cache: Optional[CacheStore] = cache
        elif cache_path is not None:
            self.cache = PersistentResultCache(cache_path,
                                               max_bytes=cache_max_bytes,
                                               fault_plan=fault_plan)
        else:
            self.cache = (ResultCache(max_bytes=cache_max_bytes)
                          if use_cache else None)
        self.capture = ProvenanceCapture(registry=registry, store=store,
                                         keep_values=keep_values,
                                         stream_batch=stream_batch,
                                         fault_plan=fault_plan)
        self.executor = Executor(
            registry, cache=self.cache, listeners=[self.capture],
            workers=workers, backend=backend,
            registry_provider=registry_provider,
            payload_spill_threshold=payload_spill_threshold,
            retry=retry, fault_plan=fault_plan)
        #: Raw engine result of the most recent :meth:`run` (None before
        #: the first run, instead of raising AttributeError on access).
        self.last_engine_result: Optional[RunResult] = None

    # -- building ---------------------------------------------------------
    def new_workflow(self, name: str) -> Workflow:
        """Create an empty workflow specification."""
        return Workflow(name=name)

    def add_module(self, workflow: Workflow, type_name: str,
                   name: str = "",
                   parameters: Optional[Dict[str, Any]] = None) -> Module:
        """Add a module instance of a registered type to ``workflow``."""
        self.registry.get(type_name)  # raises early on unknown types
        return workflow.add_module(Module(
            type_name=type_name, name=name or type_name,
            parameters=dict(parameters or {})))

    # -- running ------------------------------------------------------------
    def run(self, workflow: Workflow, *,
            inputs: Optional[Mapping[Tuple[str, str], Any]] = None,
            parameter_overrides: Optional[
                Mapping[str, Mapping[str, Any]]] = None,
            tags: Optional[Mapping[str, Any]] = None,
            workers: Optional[int] = None,
            backend: Optional[str] = None) -> WorkflowRun:
        """Execute ``workflow``, capture and store its provenance.

        The capture saves the workflow's prospective snapshot and the run
        to the store.  Returns the captured :class:`WorkflowRun`; the raw
        engine result is available as :attr:`last_engine_result`.  ``workers`` and
        ``backend`` override the manager's defaults for this run only.
        """
        result = self.executor.execute(workflow, inputs=inputs,
                                       parameter_overrides=parameter_overrides,
                                       tags=tags, workers=workers,
                                       backend=backend)
        self.last_engine_result = result
        return self.capture.run_by_id(result.run_id)

    # -- partial re-execution ---------------------------------------------
    def _run_for_replay(self, run_or_id: Any) -> WorkflowRun:
        """Resolve a run for replanning, preferring the in-session capture.

        Runs captured this session retain artifact values even when the
        storage backend persists metadata only (``store_values=False``),
        so planning against the captured record maximizes reuse; the
        store is the fallback for runs from earlier sessions.
        """
        if isinstance(run_or_id, WorkflowRun):
            return run_or_id
        captured = self.capture.run_by_id(run_or_id)
        return captured if captured is not None else self.get_run(run_or_id)

    def replay_plan(self, run_or_id: Any, *,
                    changed_inputs: Optional[
                        Mapping[Tuple[str, str], Any]] = None,
                    parameter_overrides: Optional[
                        Mapping[str, Mapping[str, Any]]] = None,
                    invalidated_hashes: Any = (),
                    force: Any = ()) -> ReplayPlan:
        """Plan — without executing — a partial rerun of a stored run."""
        run = self._run_for_replay(run_or_id)
        return compute_replay_plan(
            run, changed_inputs=changed_inputs,
            parameter_overrides=parameter_overrides,
            invalidated_hashes=invalidated_hashes, force=force)

    def rerun(self, run_or_id: Any, *,
              changed_inputs: Optional[
                  Mapping[Tuple[str, str], Any]] = None,
              parameter_overrides: Optional[
                  Mapping[str, Mapping[str, Any]]] = None,
              invalidated_hashes: Any = (),
              force: Any = (),
              workers: Optional[int] = None,
              backend: Optional[str] = None
              ) -> Tuple[WorkflowRun, ReplayPlan]:
        """Partially re-execute a stored run; only the stale cone computes.

        A :class:`~repro.core.replay.ReplayPlan` is computed from the run's
        retrospective provenance and the change description; modules outside
        the stale frontier are replayed as ``"cached"`` executions that
        point at the original execution ids.  The new run is captured and
        stored like any other, and carries a ``derived_from_run`` tag
        naming the run it replays — rerunning a run that is itself a rerun
        therefore builds a *replay chain*, recorded hop by hop in the
        cross-run lineage index and queryable via :meth:`lineage` (pass a
        run id) or ProvQL ``LINEAGE OF <run-id>``.  Returns
        ``(new_run, plan)``.

        With no change description at all, every recorded module is reused
        — a provenance integrity check that re-derives the run record
        without recomputation.  Pass ``force=[module_id, ...]`` (or use
        :func:`repro.apps.reproduce.rerun`) for a true full re-execution;
        forced modules also bypass the result cache, so they genuinely
        recompute even when their causal signature is unchanged.
        """
        plan = self.replay_plan(
            run_or_id, changed_inputs=changed_inputs,
            parameter_overrides=parameter_overrides,
            invalidated_hashes=invalidated_hashes, force=force)
        # stale modules bypass the memo cache: for invalidated/forced
        # seeds the cache holds exactly the result being repudiated, and
        # a "re-execute" plan that silently serves memoized outputs would
        # be a no-op repair
        result = self.executor.execute(
            plan.workflow, inputs=plan.external_inputs,
            parameter_overrides=parameter_overrides,
            reuse=plan.reuse_records, bypass_cache=plan.stale,
            workers=workers, backend=backend,
            tags={"replay_of": plan.original_run,
                  "derived_from_run": plan.original_run,
                  "replay_stale": len(plan.stale),
                  "replay_reused": len(plan.reused)})
        self.last_engine_result = result
        return self.capture.run_by_id(result.run_id), plan

    # -- provenance access ----------------------------------------------
    def prospective(self, workflow: Workflow) -> ProspectiveProvenance:
        """Prospective-provenance snapshot of ``workflow``."""
        return ProspectiveProvenance.from_workflow(workflow, self.registry)

    def get_run(self, run_id: str) -> WorkflowRun:
        """A stored run by id."""
        return self.store.load_run(run_id)

    def runs(self) -> List[WorkflowRun]:
        """Every stored run, ordered by start time.

        Served as one ``select`` for the ordered id list plus one bulk
        :meth:`~repro.storage.base.ProvenanceStore.load_runs` call, so
        backends with batched readers (e.g. SQL) avoid a query per run.
        """
        ordered = [row["id"] for row in self.store.select(
            ProvQuery.runs().order_by("started", "id").project("id"))]
        return self.store.load_runs(ordered)

    def select(self, query: ProvQuery) -> ResultCursor:
        """Evaluate a :class:`ProvQuery` against the storage backend.

        The single entry point for cross-run provenance queries; the
        backend answers from its native index (SQL, triple patterns,
        sidecar index, dict scans) and returns a lazy, paginated cursor
        of plain dict rows::

            manager.select(ProvQuery.runs().where(status="failed")
                           .order_by("-started").limit(20))
        """
        return self.store.select(query)

    def causality(self, run_or_id: Any, *,
                  include_derivations: bool = True) -> ProvGraph:
        """Causality graph of a run (accepts a run object or an id).

        Returns a fresh, caller-owned graph; read-only repeated queries
        inside the system use the memoized
        :func:`~repro.core.causality.cached_causality_graph` instead.
        """
        run = (run_or_id if isinstance(run_or_id, WorkflowRun)
               else self.get_run(run_or_id))
        return causality_graph(run,
                               include_derivations=include_derivations)

    def lineage(self, key: str, *, direction: str = "up",
                max_depth: Optional[int] = None,
                within_runs: Optional[List[str]] = None
                ) -> List[Dict[str, Any]]:
        """Cross-run ancestry of a value hash, artifact id, or run.

        ``direction="up"`` returns the artifacts the given one was
        transitively derived from, ``"down"`` everything derived from it —
        in *any* stored run, joined on content hashes through the store's
        lineage index (no run is deserialized by index-backed stores).
        Rows are canonical artifact dicts sorted by (run_id, id).

        When ``key`` is a stored run id (or the explicit ``run:<id>``
        form), the walk follows *replay-chain* edges instead: ``"up"``
        returns the runs this one transitively derives from (its
        ``derived_from_run`` ancestry), ``"down"`` every rerun derived
        from it.  Rows are then canonical run dicts ordered by
        (started, id).
        """
        run_key = None
        if key.startswith("run:"):
            run_key = key
        elif self.store.has_run(key):
            run_key = f"run:{key}"
        if run_key is not None:
            if direction not in ("up", "upstream", "down", "downstream"):
                raise ValueError(f"direction must be 'up' or 'down', "
                                 f"not {direction!r}")
            closure = self.store.lineage_closure(
                run_key,
                direction="up" if direction in ("up", "upstream")
                else "down",
                max_depth=max_depth, within_runs=within_runs)
            run_ids = sorted(node[len("run:"):] for node in closure
                             if node.startswith("run:"))
            if not run_ids:
                return []
            return self.store.select(
                ProvQuery.runs().where_op("id", "in", run_ids)
                .order_by("started", "id")).all()
        query = ProvQuery.artifacts()
        if direction in ("up", "upstream"):
            query = query.upstream_of(key, max_depth=max_depth,
                                      within_runs=within_runs)
        elif direction in ("down", "downstream"):
            query = query.downstream_of(key, max_depth=max_depth,
                                        within_runs=within_runs)
        else:
            raise ValueError(f"direction must be 'up' or 'down', "
                             f"not {direction!r}")
        return self.store.select(query.order_by("run_id", "id")).all()

    # -- annotations -------------------------------------------------------
    def annotate(self, target_kind: str, target_id: str, key: str,
                 value: Any, author: str = "") -> Annotation:
        """Attach a user-defined annotation to any provenance entity."""
        annotation = self.annotations.annotate(
            target_kind, target_id, key, value, author=author,
            created=time.time())
        self.store.save_annotation(annotation)
        return annotation

    def annotations_for(self, target_kind: str,
                        target_id: str) -> List[Annotation]:
        """Annotations attached to one entity, as held by the store (so
        a manager reopened on a persistent store sees earlier sessions')."""
        return self.store.annotations_for(target_kind, target_id)

    # -- subsystem handoffs -------------------------------------------------
    def to_opm(self, run_or_id: Any):
        """Export a run as an Open Provenance Model graph."""
        from repro.opm.convert import run_to_opm
        run = (run_or_id if isinstance(run_or_id, WorkflowRun)
               else self.get_run(run_or_id))
        return run_to_opm(run)

    def query(self, text: str, run_or_id: Any):
        """Evaluate a ProvQL query against one run's provenance."""
        from repro.query.provql import execute
        run = (run_or_id if isinstance(run_or_id, WorkflowRun)
               else self.get_run(run_or_id))
        return execute(text, run)

    def vistrail(self, name: str = "workflow"):
        """Start a new evolution (version-tree) session."""
        from repro.evolution.vistrail import Vistrail
        return Vistrail(name=name)

    # -- statistics ---------------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """Cache hit/miss/eviction counters (zeros when disabled)."""
        if self.cache is None:
            return {"hits": 0, "misses": 0, "hit_rate": 0.0,
                    "evictions": 0, "invalidations": 0}
        return {"hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "hit_rate": self.cache.stats.hit_rate,
                "evictions": self.cache.stats.evictions,
                "invalidations": self.cache.stats.invalidations}

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Close the result cache this manager built (idempotent).

        A ``cache`` or ``store`` passed in by the caller is left open.
        """
        if self._owns_cache and self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "ProvenanceManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
