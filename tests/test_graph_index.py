"""Property tests: the workflow graph index agrees with brute force.

``Workflow`` answers graph queries from per-module adjacency lists that
its mutators keep current.  These tests drive random DAGs (including two
connections between one module pair) through every way a workflow's
connections change — ``add_connection``, ``remove_connection``,
``remove_module``/``remove_module_cascade``, ``copy()``, a
``workflow_from_dict`` round trip, and writes straight into
``workflow.connections`` — and after every step compare each query with
a brute-force reference that scans every connection.
The ready-set scheduler is checked against the same reference order.
"""

from __future__ import annotations

import sys
import threading
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.errors import CycleError, SpecError
from repro.workflow.scheduler import ReadySetScheduler
from repro.workflow.serialization import workflow_from_dict, workflow_to_dict
from repro.workflow.spec import Connection, Module, Workflow

SOURCE_PORTS = ("out", "aux")
TARGET_PORTS = ("a", "b", "c")


# ----------------------------------------------------------------------
# brute-force reference: every query scans every connection
# ----------------------------------------------------------------------
def ref_incoming(workflow: Workflow, module_id: str) -> List[Connection]:
    found = [c for c in workflow.connections.values()
             if c.target_module == module_id]
    return sorted(found, key=lambda c: c.target_port)


def ref_outgoing(workflow: Workflow, module_id: str) -> List[Connection]:
    found = [c for c in workflow.connections.values()
             if c.source_module == module_id]
    return sorted(found, key=lambda c: (c.source_port, c.target_module))


def ref_predecessors(workflow: Workflow, module_id: str) -> List[str]:
    return sorted({c.source_module for c in ref_incoming(workflow,
                                                         module_id)})


def ref_successors(workflow: Workflow, module_id: str) -> List[str]:
    return sorted({c.target_module for c in ref_outgoing(workflow,
                                                         module_id)})


def ref_sources(workflow: Workflow) -> List[str]:
    targets = {c.target_module for c in workflow.connections.values()}
    return sorted(m for m in workflow.modules if m not in targets)


def ref_sinks(workflow: Workflow) -> List[str]:
    origins = {c.source_module for c in workflow.connections.values()}
    return sorted(m for m in workflow.modules if m not in origins)


def ref_topological_order(workflow: Workflow) -> List[str]:
    in_degree = {m: len(ref_predecessors(workflow, m))
                 for m in workflow.modules}
    ready = sorted(m for m, d in in_degree.items() if d == 0)
    order: List[str] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for successor in ref_successors(workflow, current):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                index = 0
                while index < len(ready) and ready[index] < successor:
                    index += 1
                ready.insert(index, successor)
    if len(order) != len(workflow.modules):
        raise CycleError("cycle")
    return order


def assert_matches_reference(workflow: Workflow) -> None:
    for module_id in workflow.modules:
        assert workflow.incoming(module_id) == ref_incoming(workflow,
                                                            module_id)
        assert workflow.outgoing(module_id) == ref_outgoing(workflow,
                                                            module_id)
        assert workflow.predecessors(module_id) == ref_predecessors(
            workflow, module_id)
        assert workflow.successors(module_id) == ref_successors(
            workflow, module_id)
    assert workflow.sources() == ref_sources(workflow)
    assert workflow.sinks() == ref_sinks(workflow)
    try:
        expected = ref_topological_order(workflow)
    except CycleError:
        with pytest.raises(CycleError):
            workflow.topological_order()
        return
    assert workflow.topological_order() == expected
    assert_scheduler_matches(workflow, expected)


def assert_scheduler_matches(workflow: Workflow, order: List[str]) -> None:
    # one at a time, resolving each before the next pop: the Kahn order
    scheduler = ReadySetScheduler(workflow)
    popped = []
    while scheduler.has_ready():
        module_id = scheduler.pop_ready()
        popped.append(module_id)
        scheduler.resolve(module_id)
    assert popped == order
    assert scheduler.finished()
    # whole batches: each sorted, every module after its predecessors
    scheduler = ReadySetScheduler(workflow)
    position = {}
    while scheduler.has_ready():
        batch = scheduler.take_ready()
        assert batch == sorted(batch)
        for module_id in batch:
            assert all(p in position
                       for p in ref_predecessors(workflow, module_id))
        for module_id in batch:
            position[module_id] = len(position)
            scheduler.resolve(module_id)
    assert scheduler.finished()


# ----------------------------------------------------------------------
# random edit scripts over a random DAG
# ----------------------------------------------------------------------
#: One edit, with module/connection picks as indexes resolved at apply
#: time: (kind, first pick, second pick, source port, target port).
edits = st.tuples(
    st.sampled_from(["add", "add", "add", "remove", "remove_module",
                     "cascade", "copy", "roundtrip", "direct_add",
                     "direct_delete"]),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.sampled_from(SOURCE_PORTS),
    st.sampled_from(TARGET_PORTS))


@st.composite
def edit_scripts(draw):
    count = draw(st.integers(min_value=1, max_value=9))
    # ids drawn independently of insertion order, so id order (which
    # breaks Kahn ties) differs from the order modules were added in
    ids = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=3),
                        min_size=count, max_size=count, unique=True))
    return ids, draw(st.lists(edits, min_size=1, max_size=30))


def apply_edit(workflow: Workflow, rank: dict, edit, serial: int
               ) -> Workflow:
    """Apply one edit; forward edges only (by rank), except direct adds."""
    kind, first, second, source_port, target_port = edit
    module_ids = sorted(workflow.modules, key=rank.__getitem__)
    connection_ids = list(workflow.connections)
    if kind in ("add", "direct_add") and len(module_ids) >= 2:
        source = module_ids[first % len(module_ids)]
        target = module_ids[second % len(module_ids)]
        if source == target:
            return workflow
        if kind == "direct_add":
            if any(c.target_module == target and c.target_port == target_port
                   for c in workflow.connections.values()):
                # a doubly bound port would make a later round trip,
                # which re-adds through add_connection, refuse the graph
                return workflow
            # a back edge is allowed here: both sides must see the cycle
            workflow.connections[f"direct-{serial}"] = Connection(
                source, source_port, target, target_port,
                id=f"direct-{serial}")
            return workflow
        if rank[source] > rank[target]:
            source, target = target, source
        connection = Connection(source, source_port, target, target_port,
                                id=f"conn-{serial}")
        bound = any(c.target_module == target
                    and c.target_port == target_port
                    for c in workflow.connections.values())
        if bound:
            with pytest.raises(SpecError):
                workflow.add_connection(connection)
        else:
            workflow.add_connection(connection)
    elif kind in ("remove", "direct_delete") and connection_ids:
        connection_id = connection_ids[first % len(connection_ids)]
        if kind == "remove":
            assert workflow.remove_connection(connection_id).id == \
                connection_id
        else:
            del workflow.connections[connection_id]
    elif kind == "remove_module" and module_ids:
        module_id = module_ids[first % len(module_ids)]
        attached = [c.id for c in workflow.connections.values()
                    if module_id in c.endpoints()]
        if attached:
            with pytest.raises(SpecError, match="still has connections"):
                workflow.remove_module(module_id)
        else:
            workflow.remove_module(module_id)
    elif kind == "cascade" and module_ids:
        module_id = module_ids[first % len(module_ids)]
        expected = [c for c in workflow.connections.values()
                    if module_id in c.endpoints()]
        _, removed = workflow.remove_module_cascade(module_id)
        assert removed == expected
    elif kind == "copy":
        return workflow.copy()
    elif kind == "roundtrip":
        return workflow_from_dict(workflow_to_dict(workflow))
    return workflow


@settings(max_examples=150, deadline=None)
@given(edit_scripts())
def test_graph_queries_match_brute_force_under_edits(script):
    ids, script_edits = script
    workflow = Workflow("prop")
    rank = {}
    for position, module_id in enumerate(ids):
        workflow.add_module(Module("Identity", id=module_id))
        rank[module_id] = position
    assert_matches_reference(workflow)
    for serial, edit in enumerate(script_edits):
        workflow = apply_edit(workflow, rank, edit, serial)
        assert_matches_reference(workflow)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=30),
       st.randoms(use_true_random=False))
def test_parallel_connections_count_as_one_dependency(size, rng):
    """Two connections between one module pair are one Kahn dependency."""
    workflow = Workflow("pairs")
    ids = [f"m{index:02d}" for index in range(size)]
    rng.shuffle(ids)
    for module_id in ids:
        workflow.add_module(Module("Identity", id=module_id))
    for position in range(1, size):
        upstream = ids[rng.randrange(position)]
        for port in rng.sample(TARGET_PORTS, rng.randint(1, 2)):
            workflow.connect(upstream, "out", ids[position], port)
    assert_matches_reference(workflow)
    for module_id in ids[1:]:
        assert len(workflow.predecessors(module_id)) == 1


def test_concurrent_first_queries_agree():
    """Threads racing to build a fresh workflow's index all see it whole."""
    template = Workflow("race")
    ids = [f"m{index:03d}" for index in range(200)]
    for module_id in ids:
        template.add_module(Module("Identity", id=module_id))
    for position in range(1, len(ids)):
        template.connect(ids[(position * 7919 + 13) % position], "out",
                         ids[position], "a")
    expected = ref_topological_order(template)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            workflow = template.copy()  # index not built yet
            orders, errors = [], []

            def query():
                try:
                    orders.append(workflow.topological_order())
                except Exception as exc:  # reported by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=query) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            assert orders == [expected] * len(threads)
    finally:
        sys.setswitchinterval(previous)
