"""Run-id-hash sharding across N child provenance stores.

One sqlite file (or any :class:`ProvenanceStore`) per shard; runs are
partitioned by a stable hash of their id, so every run-scoped operation
(save, load, stream, resume, delete) routes to exactly one shard, while
cross-run operations scatter to every shard and gather:

* ``select`` pushes filters, ordering and a widened window down to each
  shard and lazily k-way-merges the per-shard cursors (each already in
  the query's canonical order), applying offset/limit and projection to
  the merged stream — the global result is row-identical to a single
  store holding all runs.
* ``lineage_closure`` runs a level-synchronous BFS whose per-hop
  neighbourhoods are the union of every shard's native one-hop closure:
  content hashes are stable across runs, so derivation chains cross
  shard boundaries wherever two runs share bytes, exactly as they cross
  run boundaries in a single store.

The sharded store satisfies the full :class:`ProvenanceStore` contract
(it runs unchanged under the cross-backend parity catalog) and inherits
its children's threading discipline: callers serialize concurrent use,
as with a single relational store.  Scatter phases visit the shards in
index order on the calling thread.
"""

from __future__ import annotations

import hashlib
import heapq
from itertools import islice
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.core.annotations import Annotation
from repro.core.prospective import ProspectiveProvenance
from repro.core.retrospective import WorkflowRun
from repro.storage.base import (ProvenanceStore, RunStreamWriter, RunSummary,
                                StoreError)
from repro.storage.query import (Filter, ProvQuery, ResultCursor,
                                 project_rows)

__all__ = ["ShardedProvenanceStore", "shard_of"]


def shard_of(key: str, shards: int) -> int:
    """Stable shard index of ``key`` — sha256-based, so the same run id
    lands on the same shard across processes, platforms and restarts
    (``hash()`` is randomized per process and unusable here)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class _Descending:
    """Order-inverting comparison wrapper for descending sort keys, so a
    mixed asc/desc ordering still merges through one ascending heap."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Descending) and self.value == other.value


class ShardedProvenanceStore(ProvenanceStore):
    """N child stores behind one :class:`ProvenanceStore` front.

    ``shards`` is a sequence of fully constructed child stores (any
    backend, mixable); :meth:`open` is the convenience constructor for
    the canonical layout — one relational store file per shard under a
    root directory.  Runs route by run-id hash, workflows by workflow
    id, annotations by their target, so every point lookup touches one
    shard and every cross-run query scatter-gathers.

    ``fault_plan`` threads the deterministic fault harness through the
    ``shard-commit`` seam (bulk ingest crashing between per-shard
    commits).
    """

    def __init__(self, shards: Sequence[ProvenanceStore], *,
                 fault_plan: Optional[Any] = None) -> None:
        self.shards: List[ProvenanceStore] = list(shards)
        if not self.shards:
            raise StoreError("a sharded store needs at least one shard")
        self.fault_plan = fault_plan

    @classmethod
    def open(cls, root: Any, *, shards: int = 4, store_values: bool = False,
             fault_plan: Optional[Any] = None) -> "ShardedProvenanceStore":
        """Open (creating if needed) the canonical on-disk layout:
        ``<root>/shard-00.db .. shard-NN.db``, one relational store each.

        Reopening an existing root must pass the same ``shards`` count —
        the run-id hash is stable but the modulus is not, so a different
        count would orphan existing runs on the wrong shard.  The count
        is recorded in ``<root>/SHARDS`` and checked on reopen.
        """
        from repro.storage.relational import RelationalStore
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        marker = root / "SHARDS"
        if marker.exists():
            recorded = int(marker.read_text().strip())
            if recorded != shards:
                raise StoreError(
                    f"shard layout mismatch: {root} was created with "
                    f"{recorded} shard(s), reopened with {shards}")
        else:
            marker.write_text(f"{shards}\n")
        stores = [RelationalStore(str(root / f"shard-{index:02d}.db"),
                                  store_values=store_values)
                  for index in range(shards)]
        return cls(stores, fault_plan=fault_plan)

    # -- routing ---------------------------------------------------------
    def shard_index(self, run_id: str) -> int:
        """Index of the shard owning ``run_id``."""
        return shard_of(run_id, len(self.shards))

    def shard_for(self, run_id: str) -> ProvenanceStore:
        """The child store owning ``run_id``."""
        return self.shards[self.shard_index(run_id)]

    # -- runs ------------------------------------------------------------
    def save_run(self, run: WorkflowRun) -> None:
        self.shard_for(run.id).save_run(run)

    def save_run_stream(self, header: WorkflowRun) -> RunStreamWriter:
        return self.shard_for(header.id).save_run_stream(header)

    def resume_run_stream(self, run_id: str) -> RunStreamWriter:
        return self.shard_for(run_id).resume_run_stream(run_id)

    def load_run(self, run_id: str) -> WorkflowRun:
        return self.shard_for(run_id).load_run(run_id)

    def has_run(self, run_id: str) -> bool:
        return self.shard_for(run_id).has_run(run_id)

    def delete_run(self, run_id: str) -> bool:
        return self.shard_for(run_id).delete_run(run_id)

    def list_runs(self) -> List[RunSummary]:
        lists = [shard.list_runs() for shard in self.shards]
        return list(heapq.merge(
            *lists, key=lambda summary: (summary.started, summary.run_id)))

    def save_runs(self, runs: Iterable[WorkflowRun]) -> int:
        """Bulk ingest, one child-store bulk commit per shard.

        Shards commit in index order; the ``shard-commit`` fault seam
        fires *before* each shard's commit, so an injected crash leaves
        lower-indexed shards durably committed and the rest untouched —
        the partial state ``repro fsck`` and a re-ingest must handle.
        """
        groups: Dict[int, List[WorkflowRun]] = {}
        for run in runs:
            groups.setdefault(self.shard_index(run.id), []).append(run)
        count = 0
        for index in sorted(groups):
            if self.fault_plan is not None:
                spec = self.fault_plan.draw("shard-commit", f"shard-{index}")
                if spec is not None:
                    from repro.workflow.faults import (FaultInjected,
                                                       HardCrash)
                    if spec.kind == "crash":
                        raise HardCrash(
                            f"injected crash before commit of shard "
                            f"{index} ({count} run(s) already durable)")
                    raise FaultInjected(
                        f"injected failure before commit of shard {index}")
            count += self.shards[index].save_runs(groups[index])
        return count

    def load_runs(self, run_ids: Optional[Iterable[str]] = None
                  ) -> List[WorkflowRun]:
        if run_ids is None:
            run_ids = [summary.run_id for summary in self.list_runs()]
        else:
            run_ids = list(run_ids)
        groups: Dict[int, List[str]] = {}
        for run_id in run_ids:
            groups.setdefault(self.shard_index(run_id), []).append(run_id)
        loaded: Dict[str, WorkflowRun] = {}
        for index, ids in groups.items():
            for run in self.shards[index].load_runs(ids):
                loaded[run.id] = run
        return [loaded[run_id] for run_id in run_ids]

    # -- workflows -------------------------------------------------------
    def save_workflow(self, prospective: ProspectiveProvenance) -> None:
        shard = self.shards[shard_of(prospective.workflow_id,
                                     len(self.shards))]
        shard.save_workflow(prospective)

    def load_workflow(self, workflow_id: str) -> ProspectiveProvenance:
        shard = self.shards[shard_of(workflow_id, len(self.shards))]
        return shard.load_workflow(workflow_id)

    def list_workflows(self) -> List[str]:
        ids: Set[str] = set()
        for shard in self.shards:
            ids.update(shard.list_workflows())
        return sorted(ids)

    # -- annotations -----------------------------------------------------
    def _annotation_shard(self, target_kind: str,
                          target_id: str) -> ProvenanceStore:
        # routed by target, not annotation id: annotations_for() is the
        # point lookup that must stay single-shard, and per-target
        # insertion order is preserved because one target always lands
        # on the same shard
        return self.shards[shard_of(f"{target_kind}\x1f{target_id}",
                                    len(self.shards))]

    def save_annotation(self, annotation: Annotation) -> None:
        self._annotation_shard(annotation.target_kind,
                               annotation.target_id).save_annotation(
                                   annotation)

    def annotations_for(self, target_kind: str,
                        target_id: str) -> List[Annotation]:
        return self._annotation_shard(target_kind,
                                      target_id).annotations_for(
                                          target_kind, target_id)

    def all_annotations(self) -> List[Annotation]:
        merged: List[Annotation] = []
        for shard in self.shards:
            merged.extend(shard.all_annotations())
        return sorted(merged, key=lambda annotation: annotation.id)

    # -- lineage ---------------------------------------------------------
    def lineage_closure(self, key: str, *, direction: str = "up",
                        max_depth: Optional[int] = None,
                        within_runs: Optional[Iterable[str]] = None
                        ) -> frozenset:
        """Cross-shard closure fan-out: level-synchronous BFS whose hop
        adjacency is the union of every shard's native one-hop closure.

        Seed resolution stays global (the artifact id is looked up on
        every shard, as the single-store semantics look it up in every
        run); traversal depth is counted in union-graph hops, so a
        chain alternating between shards costs exactly the hops it
        would in one store.
        """
        runs_scope = tuple(within_runs) if within_runs is not None else None
        seeds = self._resolve_seeds(key)
        seen: Set[str] = set()
        frontier: Set[str] = set(seeds)
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier: Set[str] = set()
            for shard in self.shards:
                for node in self._shard_neighbours(shard, frontier,
                                                   direction, runs_scope):
                    if node not in seen:
                        seen.add(node)
                        next_frontier.add(node)
            frontier = next_frontier
        return frozenset(seen - seeds)

    def _resolve_seeds(self, key: str) -> Set[str]:
        probe = ProvQuery.artifacts().where(id=key).project("value_hash")
        seeds: Set[str] = set()
        for shard in self.shards:
            for row in shard.select(probe):
                seeds.add(row["value_hash"])
        return seeds or {key}

    @staticmethod
    def _shard_neighbours(shard: ProvenanceStore, nodes: Set[str],
                          direction: str,
                          within_runs: Optional[Tuple[str, ...]]
                          ) -> Set[str]:
        neighbours: Set[str] = set()
        for node in nodes:
            neighbours.update(shard.lineage_closure(
                node, direction=direction, max_depth=1,
                within_runs=within_runs))
        return neighbours

    # -- scatter-gather select -------------------------------------------
    def select(self, query: ProvQuery) -> ResultCursor:
        """Scatter the query, gather a lazy merge of per-shard cursors.

        Filters and ordering push down to every shard unchanged; the
        window is widened to ``offset + limit`` rows per shard (the
        global top-k is contained in the union of per-shard top-k) and
        re-applied after the merge; a lineage clause is evaluated once
        via the cross-shard closure and pushed down as a plain
        ``value_hash in <closure>`` filter, which preserves both the
        seed-exclusion and cross-run join semantics.  Projection is
        applied after the merge so sort fields survive the scatter.
        """
        shard_query = self._shard_query(query)
        merged = self._merge_rows(query, shard_query)
        start = query.offset_count
        stop = (None if query.limit_count is None
                else start + query.limit_count)
        windowed = islice(merged, start, stop)
        return ResultCursor(project_rows(windowed, query.fields))

    def _shard_query(self, query: ProvQuery) -> ProvQuery:
        filters = query.filters
        if query.lineage is not None:
            closure = self.lineage_closure(
                query.lineage.key, direction=query.lineage.direction,
                max_depth=query.lineage.max_depth,
                within_runs=query.lineage.within_runs)
            filters = filters + (Filter("value_hash", "in",
                                        frozenset(closure)),)
        limit = (None if query.limit_count is None
                 else query.offset_count + query.limit_count)
        return ProvQuery(query.entity, filters=filters, order=query.order,
                         limit_count=limit, offset_count=0, fields=None,
                         lineage=None)

    def _merge_rows(self, query: ProvQuery,
                    shard_query: ProvQuery) -> Iterator[Dict[str, Any]]:
        order_keys = query.order_keys()

        def sort_key(row: Dict[str, Any]) -> Tuple:
            return tuple(_Descending(row[name]) if descending
                         else row[name]
                         for name, descending in order_keys)

        # shards are consumed row-by-row as the heap demands, so a
        # narrow window never materializes a shard
        parts = [shard.select(shard_query) for shard in self.shards]
        return heapq.merge(*parts, key=sort_key)

    # -- crash-consistency surface ---------------------------------------
    def stream_states(self) -> List[Tuple[str, int, int, int]]:
        """Union of the shards' stream journals (for ``repro fsck``)."""
        states: List[Tuple[str, int, int, int]] = []
        for shard in self.shards:
            shard_states = getattr(shard, "stream_states", None)
            if callable(shard_states):
                states.extend(shard_states())
        return sorted(states)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __repr__(self) -> str:
        kinds = {type(shard).__name__ for shard in self.shards}
        return (f"ShardedProvenanceStore(shards={len(self.shards)}, "
                f"backends={sorted(kinds)})")
