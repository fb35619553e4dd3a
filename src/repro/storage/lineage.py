"""Cross-run lineage index: hash-level derivation edges and their closure.

The paper's headline query workload is causality — "the dependency
relationships among data products and the processes that generate them" —
and its data products are identified by content hash, which is stable
*across* runs.  This module defines the index layer that makes ancestry
queries tractable without deserializing stored runs:

* :func:`lineage_edges` extracts the hash-level derivation edges
  ``(derived_hash, source_hash, run_id, execution_id)`` of one run, from
  :func:`execution_edges` per execution (the relational store's row
  writer calls that helper batch by batch) plus :func:`run_edge`;
* :class:`LineageIndex` keeps those edges for many runs with adjacency
  dictionaries in both directions, maintained incrementally as runs are
  saved and deleted;
* :func:`hash_closure` is the shared breadth-first transitive-closure
  kernel (depth-bounded, cycle-safe, seeds excluded from the result).

Every backend answers the :class:`~repro.storage.query.ProvQuery` ancestry
operators (``upstream_of`` / ``downstream_of``) from this representation:
the memory, triple and document stores traverse a :class:`LineageIndex`
directly, while the relational store mirrors the same edge set in a
``lineage`` table and evaluates the closure as a recursive SQL CTE.  The
generic fallback in :class:`~repro.storage.base.ProvenanceStore` rebuilds
the index by loading every run — the load-and-traverse correctness oracle
the native paths are benchmarked and tested against.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

__all__ = ["LineageEdge", "LineageIndex", "hash_closure", "lineage_edges",
           "execution_edges", "run_edge", "RUN_NODE_PREFIX",
           "DERIVED_FROM_RUN", "run_node", "run_id_from_node"]

#: Namespace prefix of run-level nodes in the lineage graph.  Artifact
#: nodes are content hashes; a *run* participates in the graph as the
#: synthetic node ``run:<run-id>`` so that replay chains (a rerun derived
#: from a stored run, possibly itself a rerun) index and traverse exactly
#: like hash-level derivations.  The namespaces never collide: content
#: hashes are hex digests and never start with ``run:``.
RUN_NODE_PREFIX = "run:"

#: The ``execution_id`` marker carried by run-derivation edges, and the
#: run tag that declares the link (set by ``manager.rerun`` /
#: ``apps.reproduce.partial_rerun``).
DERIVED_FROM_RUN = "derived_from_run"


def run_node(run_id: str) -> str:
    """Lineage-graph node for a run id."""
    return f"{RUN_NODE_PREFIX}{run_id}"


def run_id_from_node(node: str) -> Optional[str]:
    """Run id of a run-level lineage node, or None for artifact nodes."""
    if node.startswith(RUN_NODE_PREFIX):
        return node[len(RUN_NODE_PREFIX):]
    return None


class LineageEdge(NamedTuple):
    """One hash-level derivation: ``derived_hash`` was computed from
    ``source_hash`` by ``execution_id`` inside ``run_id``."""

    derived_hash: str
    source_hash: str
    run_id: str
    execution_id: str


def execution_edges(run_id: str, execution,
                    hashes: Dict[str, str]) -> Iterator[LineageEdge]:
    """Derivation edges of one execution.

    A succeeded (ok or cached) execution contributes one hash-level edge
    per (output, input) artifact pair, from the derived value hash to the
    source value hash; ``hashes`` maps artifact ids to value hashes.
    Bindings that reference no recorded artifact (possible in externally
    ingested provenance) are skipped.
    """
    if not execution.succeeded():
        return
    for out_binding in execution.outputs:
        derived = hashes.get(out_binding.artifact_id)
        if derived is None:
            continue
        for in_binding in execution.inputs:
            source = hashes.get(in_binding.artifact_id)
            if source is not None:
                yield LineageEdge(derived, source, run_id, execution.id)


def run_edge(run_id: str, tags: Optional[Dict]) -> Optional[LineageEdge]:
    """The run-level edge ``run:<id> -> run:<parent-id>`` of a run whose
    tags carry ``derived_from_run`` (a replay of a stored run), or None."""
    parent = (tags or {}).get(DERIVED_FROM_RUN)
    if isinstance(parent, str) and parent:
        return LineageEdge(run_node(run_id), run_node(parent), run_id,
                           DERIVED_FROM_RUN)
    return None


def lineage_edges(run) -> List[LineageEdge]:
    """Derivation edges of one run, deduplicated and sorted.

    The :func:`execution_edges` of every execution.  Content hashes are
    stable across runs, so these edges compose into cross-run derivation
    chains wherever two runs share bytes.  A replay additionally
    contributes its :func:`run_edge`, so replay-of-replay chains are
    first-class index content: k nested reruns yield k hops walkable with
    the same closure machinery as hash ancestry.
    """
    hashes = {artifact_id: artifact.value_hash
              for artifact_id, artifact in run.artifacts.items()}
    edges: Set[LineageEdge] = {
        edge for execution in run.executions
        for edge in execution_edges(run.id, execution, hashes)}
    chain = run_edge(run.id, run.tags)
    if chain is not None:
        edges.add(chain)
    return sorted(edges)


def hash_closure(adjacency: Dict[str, Iterable[str]],
                 seeds: Iterable[str],
                 max_depth: Optional[int] = None) -> Set[str]:
    """Breadth-first transitive closure over a hash adjacency mapping.

    Returns every hash reachable from ``seeds`` in at most ``max_depth``
    hops (unbounded when None), with the seeds themselves excluded — an
    artifact is not its own ancestor, even through a cross-run cycle.
    """
    seed_set = set(seeds)
    seen: Set[str] = set()
    frontier = set(seed_set)
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier: Set[str] = set()
        for node in frontier:
            for neighbour in adjacency.get(node, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    next_frontier.add(neighbour)
        frontier = next_frontier
    return seen - seed_set


class LineageIndex:
    """Incrementally-maintained cross-run derivation-edge index.

    Edges are grouped per run (so one run's re-save or deletion only
    touches its own contribution) and aggregated into two reference-counted
    adjacency dictionaries — derived→sources and source→deriveds — shared
    by every run, so an unscoped closure never re-scans per-run edge lists.
    """

    def __init__(self) -> None:
        self._run_edges: Dict[str, Tuple[LineageEdge, ...]] = {}
        #: derived_hash -> source_hash -> number of contributing edges
        self._up: Dict[str, Dict[str, int]] = {}
        #: source_hash -> derived_hash -> number of contributing edges
        self._down: Dict[str, Dict[str, int]] = {}

    # -- maintenance ----------------------------------------------------
    def add_run(self, run) -> int:
        """(Re)index one run; returns how many edges it contributed."""
        return self.add_edge_tuples(run.id,
                                    ((edge.derived_hash, edge.source_hash,
                                      edge.execution_id)
                                     for edge in lineage_edges(run)))

    def add_edge_tuples(self, run_id: str,
                        tuples: Iterable[Sequence[str]]) -> int:
        """(Re)index one run from raw ``(derived, source, execution_id)``
        triples — the rebuild path for backends that persist edges
        themselves (document sidecar index, triple encodings)."""
        self.remove_run(run_id)
        edges = tuple(sorted({LineageEdge(derived, source, run_id,
                                          execution_id)
                              for derived, source, execution_id in tuples}))
        self._run_edges[run_id] = edges
        for edge in edges:
            self._bump(self._up, edge.derived_hash, edge.source_hash, +1)
            self._bump(self._down, edge.source_hash, edge.derived_hash, +1)
        return len(edges)

    def remove_run(self, run_id: str) -> bool:
        """Drop one run's edges; returns True when the run was indexed."""
        edges = self._run_edges.pop(run_id, None)
        if edges is None:
            return False
        for edge in edges:
            self._bump(self._up, edge.derived_hash, edge.source_hash, -1)
            self._bump(self._down, edge.source_hash, edge.derived_hash, -1)
        return True

    @staticmethod
    def _bump(adjacency: Dict[str, Dict[str, int]], key: str,
              neighbour: str, delta: int) -> None:
        counts = adjacency.setdefault(key, {})
        count = counts.get(neighbour, 0) + delta
        if count > 0:
            counts[neighbour] = count
        else:
            counts.pop(neighbour, None)
            if not counts:
                adjacency.pop(key, None)

    # -- queries --------------------------------------------------------
    def closure(self, seeds: Iterable[str], *, direction: str = "up",
                max_depth: Optional[int] = None,
                within_runs: Optional[Iterable[str]] = None) -> Set[str]:
        """Transitive ancestry (``"up"``) or descendancy (``"down"``).

        ``within_runs`` restricts the *traversal* to edges recorded by
        those runs; the result still excludes the seeds.
        """
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', "
                             f"not {direction!r}")
        if within_runs is None:
            adjacency = self._up if direction == "up" else self._down
            return hash_closure(adjacency, seeds, max_depth)
        scoped: Dict[str, Set[str]] = {}
        for run_id in within_runs:
            for edge in self._run_edges.get(run_id, ()):
                if direction == "up":
                    scoped.setdefault(edge.derived_hash,
                                      set()).add(edge.source_hash)
                else:
                    scoped.setdefault(edge.source_hash,
                                      set()).add(edge.derived_hash)
        return hash_closure(scoped, seeds, max_depth)

    def edges(self, run_id: Optional[str] = None) -> List[LineageEdge]:
        """All indexed edges (optionally one run's), sorted."""
        if run_id is not None:
            return list(self._run_edges.get(run_id, ()))
        return sorted(edge for edges in self._run_edges.values()
                      for edge in edges)

    def run_ids(self) -> List[str]:
        """Ids of indexed runs (including runs with zero edges), sorted."""
        return sorted(self._run_edges)

    def __len__(self) -> int:
        return sum(len(edges) for edges in self._run_edges.values())

    def __repr__(self) -> str:
        return (f"LineageIndex(runs={len(self._run_edges)}, "
                f"edges={len(self)})")
