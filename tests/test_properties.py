"""Property-based tests (hypothesis) on the system's algebraic cores.

Invariants covered:
* content hashing is deterministic and structure-sensitive;
* workflow signatures are invariant under module-id relabelling;
* evolution actions compose with their inverses to the identity;
* semirings satisfy the semiring laws on random elements;
* the Datalog engine agrees with a naive reference evaluator;
* the triple store returns exactly what was inserted, under any mix of
  insertion orders and pattern shapes;
* ZOOM user views always partition the workflow and stay acyclic;
* an arbitrary DAG rerun against a persistent result cache (fresh cache
  instance, as a fresh process would build) re-executes zero modules;
* a replay chain of depth k yields exactly k ``derived_from_run`` hops
  in the lineage index, on all four storage backends.
"""

from __future__ import annotations

import string
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbprov.semirings import (BooleanSemiring, CountingSemiring,
                                    LineageSemiring, PolynomialSemiring,
                                    WhySemiring)
from repro.evolution.actions import (AddConnection, AddModule, RenameModule,
                                     SetParameter)
from repro.identity import canonical_json, hash_value
from repro.query.datalog import Atom, Database, Program, Rule, Var
from repro.query.views import build_user_view
from repro.storage.triples import TripleStore
from repro.workflow.spec import Module, Workflow

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(string.ascii_letters + string.digits, max_size=8))

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(string.ascii_lowercase, min_size=1,
                                max_size=5), children, max_size=4)),
    max_leaves=10)


@st.composite
def linear_workflows(draw):
    """A chain workflow with a random length and random parameters."""
    length = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.lists(st.integers(min_value=0, max_value=9),
                           min_size=length, max_size=length))
    workflow = Workflow("prop")
    previous = workflow.add_module(Module(
        "Constant", name="m0", parameters={"value": values[0]}))
    for index in range(1, length):
        module = workflow.add_module(Module(
            "Identity", name=f"m{index}",
            parameters={} if values[index] % 2 else
            {"value": values[index]}))
        workflow.connect(previous.id, "value", module.id, "value")
        previous = module
    return workflow


# ----------------------------------------------------------------------
# hashing and signatures
# ----------------------------------------------------------------------
class TestHashingProperties:
    @given(json_values)
    def test_hash_deterministic(self, value):
        assert hash_value(value) == hash_value(value)

    @given(st.dictionaries(st.text(string.ascii_lowercase, min_size=1,
                                   max_size=5),
                           json_scalars, min_size=1, max_size=5))
    def test_canonical_json_key_order_invariant(self, mapping):
        reversed_dict = dict(reversed(list(mapping.items())))
        assert canonical_json(mapping) == canonical_json(reversed_dict)

    @given(json_values, json_values)
    def test_equal_encodings_equal_hashes(self, first, second):
        # Note: Python considers False == 0, but content hashing follows
        # the canonical JSON encoding, which (correctly) distinguishes
        # booleans from numbers — so the invariant is stated on encodings.
        if canonical_json(first) == canonical_json(second):
            assert hash_value(first) == hash_value(second)

    def test_bool_and_int_hash_differently(self):
        # the deliberate exception to Python equality (False == 0)
        assert hash_value([False]) != hash_value([0])
        assert hash_value(True) != hash_value(1)


class TestSignatureProperties:
    @given(linear_workflows())
    def test_signature_invariant_under_id_relabelling(self, workflow):
        rebuilt = Workflow("relabelled")
        id_map = {}
        for module in workflow.modules.values():
            clone = rebuilt.add_module(Module(
                module.type_name, name=module.name,
                parameters=dict(module.parameters)))
            id_map[module.id] = clone.id
        for connection in workflow.connections.values():
            rebuilt.connect(id_map[connection.source_module],
                            connection.source_port,
                            id_map[connection.target_module],
                            connection.target_port)
        assert rebuilt.signature() == workflow.signature()

    @given(linear_workflows())
    def test_copy_signature_stable(self, workflow):
        assert workflow.copy().signature() == workflow.signature()


# ----------------------------------------------------------------------
# evolution actions
# ----------------------------------------------------------------------
class TestActionProperties:
    @given(st.lists(st.sampled_from(["add", "set", "rename", "connect"]),
                    min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_apply_then_inverse_is_identity(self, operations, rng):
        workflow = Workflow("base")
        seed_module = workflow.add_module(Module("Constant", name="seed"))
        module_ids = [seed_module.id]
        for operation in operations:
            before = workflow.copy()
            if operation == "add":
                action = AddModule.of("Identity",
                                      f"m{len(module_ids)}")
            elif operation == "set":
                action = SetParameter(
                    module_id=rng.choice(module_ids), name="value",
                    value=rng.randint(0, 99))
            elif operation == "rename":
                action = RenameModule(module_id=rng.choice(module_ids),
                                      name=f"renamed{rng.randint(0, 9)}")
            else:
                source = rng.choice(module_ids)
                target_module = Module("Identity",
                                       name=f"t{len(module_ids)}")
                workflow.add_module(target_module)
                before = workflow.copy()
                action = AddConnection.of(source, "value",
                                          target_module.id, "value")
            inverse = action.inverse(before)
            action.apply(workflow)
            if isinstance(action, AddModule):
                module_ids.append(action.module_id)
                roundtrip = workflow.copy()
                inverse.apply(roundtrip)
                assert roundtrip.signature() == before.signature()
            else:
                roundtrip = workflow.copy()
                inverse.apply(roundtrip)
                assert roundtrip.signature() == before.signature()
                assert {m.name for m in roundtrip.modules.values()} \
                    == {m.name for m in before.modules.values()}


# ----------------------------------------------------------------------
# semiring laws
# ----------------------------------------------------------------------
def _elements(ring, draw_ids):
    return [ring.tag(tuple_id) for tuple_id in draw_ids]


semiring_instances = st.sampled_from([
    BooleanSemiring(), CountingSemiring(), LineageSemiring(),
    WhySemiring(), PolynomialSemiring()])

tuple_ids = st.lists(st.sampled_from(["t1", "t2", "t3"]),
                     min_size=3, max_size=3)


class TestSemiringLaws:
    @given(semiring_instances, tuple_ids)
    def test_plus_commutative_associative(self, ring, ids):
        a, b, c = _elements(ring, ids)
        assert ring.plus(a, b) == ring.plus(b, a)
        assert ring.plus(ring.plus(a, b), c) \
            == ring.plus(a, ring.plus(b, c))

    @given(semiring_instances, tuple_ids)
    def test_times_associative(self, ring, ids):
        a, b, c = _elements(ring, ids)
        assert ring.times(ring.times(a, b), c) \
            == ring.times(a, ring.times(b, c))

    @given(semiring_instances, tuple_ids)
    def test_identities(self, ring, ids):
        a = ring.tag(ids[0])
        assert ring.plus(a, ring.zero) == a
        assert ring.times(a, ring.one) == a
        assert ring.is_zero(ring.times(a, ring.zero))

    @given(semiring_instances, tuple_ids)
    def test_distributivity(self, ring, ids):
        a, b, c = _elements(ring, ids)
        left = ring.times(a, ring.plus(b, c))
        right = ring.plus(ring.times(a, b), ring.times(a, c))
        assert left == right


# ----------------------------------------------------------------------
# datalog vs naive reference
# ----------------------------------------------------------------------
def naive_transitive_closure(edges):
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


class TestDatalogAgainstReference:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=0, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_transitive_closure_matches_naive(self, edges):
        db = Database()
        for a, b in edges:
            db.add("edge", a, b)
        program = Program([
            Rule(Atom("path", (Var("X"), Var("Y"))),
                 (Atom("edge", (Var("X"), Var("Y"))),)),
            Rule(Atom("path", (Var("X"), Var("Y"))),
                 (Atom("edge", (Var("X"), Var("Z"))),
                  Atom("path", (Var("Z"), Var("Y"))))),
        ])
        result = program.evaluate(db)
        assert result.rows("path") == naive_transitive_closure(set(edges))


# ----------------------------------------------------------------------
# triple store
# ----------------------------------------------------------------------
class TestTripleStoreProperties:
    @given(st.sets(st.tuples(
        st.sampled_from(["s1", "s2", "s3"]),
        st.sampled_from(["p1", "p2"]),
        st.sampled_from(["o1", "o2", "o3"])), max_size=15))
    def test_match_returns_exactly_inserted(self, triples):
        store = TripleStore()
        for triple in triples:
            store.add(*triple)
        assert set(store.match()) == triples
        for subject in ("s1", "s2", "s3"):
            expected = {t for t in triples if t[0] == subject}
            assert set(store.match(subject=subject)) == expected
        for predicate in ("p1", "p2"):
            expected = {t for t in triples if t[1] == predicate}
            assert set(store.match(predicate=predicate)) == expected
        assert len(store) == len(triples)

    @given(st.lists(st.tuples(
        st.sampled_from(["s1", "s2"]), st.sampled_from(["p1", "p2"]),
        st.sampled_from(["o1", "o2"])), max_size=10))
    def test_discard_inverts_add(self, triples):
        store = TripleStore()
        for triple in triples:
            store.add(*triple)
        for triple in triples:
            store.discard(*triple)
        assert len(store) == 0
        assert store.match() == []


# ----------------------------------------------------------------------
# persistent cache and replay chains
# ----------------------------------------------------------------------
class TestPersistentCacheProperties:
    @given(modules=st.integers(min_value=5, max_value=14),
           width=st.integers(min_value=2, max_value=5),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_second_run_of_arbitrary_dag_executes_nothing(self, modules,
                                                          width, seed):
        from repro.core import ProvenanceManager
        from repro.workloads import random_workflow

        workflow = random_workflow(modules=modules, width=width,
                                   seed=seed, work=3)
        with tempfile.TemporaryDirectory() as root:
            path = str(Path(root) / "memo.db")
            first = ProvenanceManager(cache_path=path)
            run = first.run(workflow)
            assert run.status == "ok"
            # a fresh manager with a fresh cache instance over the same
            # file — the in-process stand-in for a fresh OS process
            second = ProvenanceManager(cache_path=path)
            rerun = second.run(workflow)
            assert rerun.status == "ok"
            assert second.last_engine_result.executed_modules() == []
            assert all(execution.status == "cached"
                       for execution in rerun.executions)
            # reused outputs hash identically to the originals
            assert sorted(a.value_hash for a in rerun.artifacts.values()) \
                == sorted(a.value_hash for a in run.artifacts.values())

    @given(modules=st.integers(min_value=5, max_value=12),
           width=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_concurrent_runs_compute_each_key_exactly_once(
            self, modules, width, seed):
        """Two concurrent runs on one cache file: the lease protocol
        makes each distinct causal signature compute exactly once across
        both runs, with identical recorded hashes."""
        from repro.workflow import PersistentResultCache
        from repro.workflow.modules import standard_registry
        from repro.workloads import random_workflow
        from tests.conftest import (assert_each_key_computed_once,
                                    run_pair_sharing_cache)

        workflow = random_workflow(modules=modules, width=width,
                                   seed=seed, work=2000)
        registry = standard_registry()
        with tempfile.TemporaryDirectory() as root:
            path = str(Path(root) / "shared.db")
            runs = run_pair_sharing_cache(
                registry, lambda: PersistentResultCache(path), workflow)
            assert_each_key_computed_once(runs)

    @given(ops=st.lists(
               # puts and gets weighted up: evictions need long runs
               st.tuples(st.sampled_from(["put", "put", "put", "get",
                                          "get", "invalidate", "clear",
                                          "in"]),
                         st.sampled_from("abcd"),
                         st.integers(min_value=0, max_value=160)),
               max_size=40),
           max_entries=st.sampled_from([None, 1, 2, 3]),
           max_bytes=st.sampled_from([None, 220]))
    @settings(max_examples=100, deadline=None)
    def test_lru_parity_with_in_memory_cache(self, ops, max_entries,
                                             max_bytes):
        """The persistent cache (hits staged in memory, written with the
        next write) keeps the in-memory cache's LRU: same statistics,
        same members and same stored bytes after every operation."""
        from repro.workflow.cache import (CacheEntry, PersistentResultCache,
                                          ResultCache)

        memory = ResultCache(max_entries=max_entries, max_bytes=max_bytes)
        with tempfile.TemporaryDirectory() as root:
            persistent = PersistentResultCache(
                Path(root) / "parity.db", max_entries=max_entries,
                max_bytes=max_bytes)
            try:
                for op, key, size in ops:
                    if op == "put":
                        value = CacheEntry(outputs={"out": key * size},
                                           output_hashes={"out": key},
                                           source_execution=key)
                        memory.put(key, value)
                        persistent.put(key, value)
                    elif op == "get":
                        got = persistent.get(key)
                        expected = memory.get(key)
                        assert (got is None) == (expected is None)
                        if got is not None:
                            assert got.outputs == expected.outputs
                    elif op == "invalidate":
                        assert (persistent.invalidate(key)
                                == memory.invalidate(key))
                    elif op == "clear":
                        memory.clear()
                        persistent.clear()
                    else:
                        assert (key in persistent) == (key in memory)
                    assert persistent.stats == memory.stats
                    assert ([k for k in "abcd" if k in persistent]
                            == [k for k in "abcd" if k in memory])
                    assert persistent.total_bytes() == memory.total_bytes()
            finally:
                persistent.close()


class TestReplayChainProperties:
    @given(depth=st.integers(min_value=1, max_value=4),
           backend=st.sampled_from(["memory", "relational", "triples",
                                    "documents"]))
    @settings(max_examples=10, deadline=None)
    def test_chain_of_depth_k_has_k_hops_everywhere(self, depth, backend):
        from repro.core import ProvenanceManager
        from repro.storage import (DocumentStore, MemoryStore,
                                   ProvenanceStore, RelationalStore,
                                   TripleProvenanceStore, run_node)
        from tests.conftest import build_chain_workflow

        with tempfile.TemporaryDirectory() as root:
            store = {
                "memory": lambda: MemoryStore(),
                "relational": lambda: RelationalStore(),
                "triples": lambda: TripleProvenanceStore(),
                "documents": lambda: DocumentStore(Path(root) / "docs"),
            }[backend]()
            manager = ProvenanceManager(store=store)
            run = manager.run(build_chain_workflow(length=2, work=2))
            chain = [run.id]
            for _ in range(depth):
                rerun, plan = manager.rerun(chain[-1])
                assert plan.original_run == chain[-1]
                chain.append(rerun.id)
            closure = store.lineage_closure(run_node(chain[-1]),
                                            direction="up")
            assert closure == frozenset(run_node(run_id)
                                        for run_id in chain[:-1])
            # parity with the load-and-traverse oracle
            assert closure == ProvenanceStore.lineage_closure(
                store, run_node(chain[-1]), direction="up")
            # and the manager surfaces the same chain as run rows
            rows = manager.lineage(chain[-1])
            assert [row["id"] for row in rows] == chain[:-1]


# ----------------------------------------------------------------------
# user views
# ----------------------------------------------------------------------
class TestUserViewProperties:
    @given(linear_workflows(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_view_partitions_and_stays_acyclic(self, workflow, data):
        module_ids = sorted(workflow.modules)
        relevant = set(data.draw(st.lists(
            st.sampled_from(module_ids), unique=True,
            max_size=len(module_ids))))
        view = build_user_view(workflow, relevant)
        # partition: every module in exactly one composite
        seen = set()
        for members in view.composites.values():
            assert not (members & seen)
            seen |= members
        assert seen == set(module_ids)
        # quotient stays a DAG
        view.quotient_graph(workflow).topological_order()
        # relevant modules are singletons
        for module_id in relevant:
            assert view.composites[view.composite_of(module_id)] \
                == {module_id}
