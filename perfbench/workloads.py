"""The four workloads: inputs from a seed, set-up, timed phase, checks.

Every workload is one user session over the whole provenance path:
workflow runs are executed, captured and committed to a store, and the
stored provenance is queried (``select``, ``lineage_closure``).  What
differs is which layer does the work — see README.md for why each
workload exists and which per-layer metric should move on it.

A workload is driven in four steps:

* ``generate(seed)`` — the inputs, a pure function of the seed (untimed);
* ``setup(inputs, workdir, tracer)`` — everything a user pays before the
  first operation; timed, and repeated by the harness to take a median;
* ``phase(session, seconds, tracer)`` — the closed-loop timed phase,
  checking every operation's output as it goes;
* ``teardown(session)`` — stops what set-up started.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.core import ProvenanceCapture
from repro.core.capture import run_from_result
from repro.core.prospective import ProspectiveProvenance
from repro.core.retrospective import WorkflowRun
from repro.service import (ProvenanceClient, ProvenanceService,
                           ShardedProvenanceStore)
from repro.storage import MemoryStore, ProvQuery, RelationalStore
from repro.workflow import (Executor, Module, PersistentResultCache,
                            ResultCache, Workflow)
from repro.workflow.modules import standard_registry
from repro.workflow.validation import check_workflow
from repro.workloads import derivation_chain_corpus, random_workflow

from tracing import TimedShardedStore, TracedCache, TracedListener, Tracer

#: the reader's ``select``: the newest ten runs.
NEWEST_RUNS = ProvQuery.runs().order_by("-started").limit(10)


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclass
class Outcome:
    """What one timed phase did: operations, failures and latencies."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: op type -> latencies in seconds; never mixed across op types.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    runs: int = 0
    modules: int = 0
    elapsed: float = 0.0
    #: workload-specific counters (e.g. leases left, nodes returned).
    extra: Dict[str, float] = field(default_factory=dict)

    def op(self, kind: str, seconds: float, error: Optional[str]) -> None:
        """Count one operation; a non-empty ``error`` marks it failed."""
        self.attempted += 1
        self.samples.setdefault(kind, []).append(seconds)
        if error:
            self.fail(f"{kind}: {error}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def seeded_values(workflow: Workflow, seed: int) -> Workflow:
    """Draw every source value and scale factor of ``workflow`` from
    ``seed``, keeping its shape.

    The shapes are fixed per workload, so the cost of a run — module
    count, fan-in, which modules share a cache key — does not depend on
    the seed; the seed changes the data, and with it every content hash.
    """
    rng = random.Random(seed)
    for module in workflow.modules.values():
        if module.type_name == "NumberConstant":
            workflow.set_parameter(module.id, "value",
                                   round(rng.uniform(1.0, 100.0), 6))
        elif module.type_name == "Scale":
            workflow.set_parameter(module.id, "factor",
                                   round(rng.uniform(0.5, 2.0), 6))
    return workflow


def fingerprint(parts: List[Any]) -> str:
    """Short stable digest of a workload's generated inputs."""
    text = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    """What the harness drives; sizes are class attributes a caller may
    override by keyword (the tests run tiny ones)."""

    name = ""
    #: pin the benchmark process to one CPU for this workload.
    one_cpu = False

    def __init__(self, **sizes: Any) -> None:
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise ValueError(f"{self.name}: unknown size {key!r}")
            setattr(self, key, value)

    def pool_size(self) -> int:
        """Worker processes a run uses (1: the coordinating one)."""
        return 1

    def set_expectations(self, session: Any) -> None:
        """Fix what every timed operation must reproduce (untimed)."""

    def in_process(self, session: Any, outcome: "Outcome",
                   tracer: Tracer) -> None:
        """After the traced phase: time the same queries in-process."""

    def verify(self, session: Any, outcome: "Outcome") -> None:
        """After the timed phases: checks that need every operation."""


# ---------------------------------------------------------------------------
# workflow workloads: dag-cold, rerun-warm, fanout-process
# ---------------------------------------------------------------------------

@dataclass
class Probe:
    """One lineage query with the closure size the oracle expects."""

    key: str
    expected: int


@dataclass
class WorkflowSession:
    registry: Any
    workflows: List[Workflow]
    store: RelationalStore
    #: per workflow: module id -> {port: output hash} the checks expect.
    expected_hashes: List[Dict[str, Dict[str, str]]] = field(
        default_factory=list)
    #: per workflow: module id -> status of the reference run.
    expected_statuses: List[Dict[str, str]] = field(default_factory=list)
    probes: List[List[Probe]] = field(default_factory=list)
    cache: Any = None
    cache_path: str = ""
    #: ids of the runs the store holds, oldest first.
    stored: Deque[str] = field(default_factory=deque)
    #: engine results of the set-up runs, when set-up runs the workflows.
    reference_runs: List[Any] = field(default_factory=list)
    cache_keys: List[str] = field(default_factory=list)
    leases_after_fill: int = 0


def output_hashes(result, module_ids) -> Dict[str, Dict[str, str]]:
    """{module id: {port: hash}} read from an engine ``RunResult``."""
    return {module_id: {port: record.value_hash for port, record
                        in result.results[module_id].outputs.items()}
            for module_id in module_ids}


class WorkflowWorkload(Workload):
    """Closed loop of workflow runs, each followed by provenance queries.

    One run is: snapshot the spec (``ProspectiveProvenance`` +
    ``save_workflow``), ``Executor.execute`` with a synchronous
    ``ProvenanceCapture`` listener, ``save_run`` of the captured record.
    After each run the user reads the run's executions back and asks for
    the ancestry of one of its products, ``queries_per_run`` times.
    """

    queries_per_run = 1
    #: lineage queries start from the products with the largest ancestry.
    probes = 16
    #: the store keeps the newest runs only (a retention policy), so its
    #: size — and with it memory and per-query cost — is the same at the
    #: end of a phase however many runs the phase completed.
    keep_runs = 10
    #: modules per workflow whose output hashes each run is checked on
    #: ("sinks" or "all").
    checked = "all"
    #: status every module execution of a timed run must have; None
    #: means the status the reference run recorded (a cold cache still
    #: serves a module whose cache key an earlier module of the same run
    #: already computed).
    expected_status: Optional[str] = None

    # -- to be provided per workload ----------------------------------------
    def build(self, inputs: Dict[str, Any]) -> List[Workflow]:
        raise NotImplementedError

    def prepare(self, session: WorkflowSession, workdir: str,
                tracer: Optional[Tracer]) -> None:
        """Workload-specific set-up after the spec and store exist."""

    def executor(self, session: WorkflowSession, listener: Any,
                 tracer: Optional[Tracer]) -> Executor:
        raise NotImplementedError

    def reference(self, session: WorkflowSession) -> List[Any]:
        """One engine ``RunResult`` per workflow the checks compare to."""
        raise NotImplementedError

    # -- shared --------------------------------------------------------------
    def generate(self, seed: int) -> Dict[str, Any]:
        """The seed is the only input: :meth:`build` draws from it."""
        return {"seed": seed}

    def fingerprint(self, inputs: Dict[str, Any]) -> str:
        return fingerprint([w.signature() for w in self.build(inputs)])

    def setup(self, inputs: Dict[str, Any], workdir: str,
              tracer: Optional[Tracer]) -> WorkflowSession:
        registry = standard_registry()
        with _span(tracer, "spec.build"):
            workflows = self.build(inputs)
        # an in-memory database: the same SQL, schema and indexes, without
        # the journal writes and fsyncs whose latency on a shared disk
        # swung this workload's ingest p95 by 2x between identical runs
        store = RelationalStore(":memory:")
        session = WorkflowSession(registry=registry, workflows=workflows,
                                  store=store)
        self.prepare(session, workdir, tracer)
        return session

    def teardown(self, session: WorkflowSession) -> None:
        if session.cache is not None:
            session.cache.close()
        session.store.close()

    def set_expectations(self, session: WorkflowSession) -> None:
        """Fix what every timed run must reproduce (untimed).

        Output hashes come from :meth:`reference`.  Lineage probes start
        from the products with the largest ancestry — set by the shape,
        so the queries cost the same on every seed.  The closure size
        each must have is computed by a second backend (``MemoryStore``'s
        in-memory index): an oracle independent of the relational CTE the
        timed queries run.
        """
        session.expected_hashes, session.probes = [], []
        session.expected_statuses = []
        for workflow, result in zip(session.workflows,
                                    self.reference(session)):
            if result.status != "ok":
                raise RuntimeError(f"{self.name}: reference run failed")
            modules = (workflow.sinks() if self.checked == "sinks"
                       else list(workflow.modules))
            session.expected_hashes.append(output_hashes(result, modules))
            session.expected_statuses.append(
                {m: r.status for m, r in result.results.items()})
            run = run_from_result(result, registry=session.registry)
            oracle = MemoryStore()
            oracle.save_run(run)
            probes = {}
            for module_id in workflow.modules:
                for record in result.results[module_id].outputs.values():
                    probes.setdefault(record.value_hash, Probe(
                        record.value_hash, len(oracle.lineage_closure(
                            record.value_hash, direction="up",
                            within_runs=[run.id]))))
            deepest = sorted(probes.values(), key=lambda p: -p.expected)
            session.probes.append(deepest[:self.probes])

    def record_run(self, session: WorkflowSession, index: int,
                   tracer: Optional[Tracer]):
        """One run through the whole path; returns (result, run,
        run seconds, ingest seconds)."""
        workflow = session.workflows[index]
        registry = session.registry
        capture = ProvenanceCapture(registry=registry)
        listener = (capture if tracer is None
                    else TracedListener(capture, tracer))
        executor = self.executor(session, listener, tracer)
        started = time.perf_counter()
        with _span(tracer, "prospective.save_workflow"):
            session.store.save_workflow(
                ProspectiveProvenance.from_workflow(workflow, registry))
        if tracer is not None:
            # the traced executor runs with validate=False, so the same
            # static check is timed here instead of inside execute
            with tracer.span("validation.check"):
                issues = check_workflow(workflow, registry)
            if any(issue.is_error() for issue in issues):
                raise RuntimeError(f"{self.name}: workflow does not "
                                   f"validate: {issues}")
        with _span(tracer, "engine.execute"):
            execute_span = tracer.current() if tracer is not None else -1
            result = executor.execute(workflow)
        run = capture.last_run()
        committed = time.perf_counter()
        with _span(tracer, "storage.save_run"):
            session.store.save_run(run)
        finished = time.perf_counter()
        session.stored.append(run.id)
        if tracer is not None:
            for module_result in result.results.values():
                if (module_result.status == "ok"
                        and module_result.finished > module_result.started):
                    tracer.add("compute", module_result.started,
                               module_result.finished, parent=execute_span)
        return result, run, finished - started, finished - committed

    def check_run(self, session: WorkflowSession, index: int,
                  result) -> Optional[str]:
        """Why ``result`` is wrong, or None when it is right."""
        workflow = session.workflows[index]
        if len(result.results) != len(workflow.modules):
            return (f"{len(result.results)} executions for "
                    f"{len(workflow.modules)} modules")
        statuses = session.expected_statuses[index]
        wrong = [m for m, r in result.results.items()
                 if r.status != (self.expected_status or statuses.get(m))]
        if wrong:
            first = wrong[0]
            return (f"{len(wrong)} executions with an unexpected status "
                    f"(first: {result.results[first].status}, expected "
                    f"{self.expected_status or statuses.get(first)})")
        expected = session.expected_hashes[index]
        if output_hashes(result, expected) != expected:
            return "output hashes differ from the reference run"
        return None

    def query(self, session: WorkflowSession, index: int, run_id: str,
              probe: Probe, outcome: Outcome,
              tracer: Optional[Tracer]) -> None:
        """The user's look at the stored provenance after one run: every
        execution it recorded, and the ancestry of one of its products."""
        store = session.store
        statuses = session.expected_statuses[index]
        started = time.perf_counter()
        with _span(tracer, "storage.select"):
            rows = store.select(ProvQuery.executions().where(
                run_id=run_id)).all()
        elapsed = time.perf_counter() - started
        error = None
        if len(rows) != len(statuses):
            error = f"{len(rows)} executions stored for {len(statuses)}"
        elif any(row["status"] != (self.expected_status
                                   or statuses[row["module_id"]])
                 for row in rows):
            error = "a stored execution has an unexpected status"
        outcome.op("select", elapsed, error)
        started = time.perf_counter()
        with _span(tracer, "storage.lineage"):
            nodes = store.lineage_closure(
                probe.key, direction="up", within_runs=[run_id])
        elapsed = time.perf_counter() - started
        outcome.op("lineage", elapsed,
                   None if len(nodes) == probe.expected else
                   f"{len(nodes)} nodes, expected {probe.expected}")
        outcome.extra["lineage_nodes"] = (
            outcome.extra.get("lineage_nodes", 0) + len(nodes))

    def phase(self, session: WorkflowSession, seconds: float,
              tracer: Optional[Tracer]) -> Outcome:
        outcome = Outcome()
        self.begin_phase(session, tracer)
        if tracer is not None:
            # an instance attribute shadows the method, so the engine's
            # own call to topological_order() lands in a span
            for workflow in session.workflows:
                workflow.topological_order = tracer.wrap(
                    "spec.topo", Workflow.topological_order.__get__(
                        workflow))
        try:
            start = time.perf_counter()
            deadline = start + seconds
            count = 0
            while count == 0 or time.perf_counter() < deadline:
                index = count % len(session.workflows)
                if tracer is not None:
                    tracer.trace_id = f"run-{count}"
                result, run, run_s, ingest_s = self.record_run(
                    session, index, tracer)
                outcome.runs += 1
                outcome.modules += len(result.results)
                outcome.op("run", run_s,
                           self.check_run(session, index, result))
                outcome.samples.setdefault("ingest", []).append(ingest_s)
                probes = session.probes[index]
                for query in range(self.queries_per_run):
                    probe = probes[(count + query) % len(probes)]
                    self.query(session, index, run.id, probe, outcome,
                               tracer)
                while len(session.stored) > self.keep_runs:
                    began = time.perf_counter()
                    with _span(tracer, "storage.delete_run"):
                        deleted = session.store.delete_run(
                            session.stored.popleft())
                    outcome.op("retire", time.perf_counter() - began,
                               None if deleted else "run not found")
                count += 1
            outcome.elapsed = time.perf_counter() - start
        finally:
            for workflow in session.workflows:
                workflow.__dict__.pop("topological_order", None)
        self.end_phase(session, outcome)
        return outcome

    def begin_phase(self, session: WorkflowSession,
                    tracer: Optional[Tracer]) -> None:
        """Hook run before each timed phase."""

    def end_phase(self, session: WorkflowSession, outcome: Outcome) -> None:
        """Hook run after each timed phase (checks that need all runs)."""


class DagCold(WorkflowWorkload):
    """A ~2k-module random layered DAG, rerun cold, serially."""

    name = "dag-cold"
    modules = 1000
    width = 16
    work = 5
    queries_per_run = 6
    checked = "sinks"

    def build(self, inputs: Dict[str, Any]) -> List[Workflow]:
        return [seeded_values(random_workflow(
            self.modules, width=self.width, seed=0, work=self.work,
            name="dag-cold"), inputs["seed"])]

    def prepare(self, session, workdir, tracer) -> None:
        # one untimed run: imports, first-touch allocation, the store's
        # first pages — paid once by every user before real work
        result, _, _, _ = self.record_run(session, 0, None)
        session.reference_runs = [result]

    def executor(self, session, listener, tracer) -> Executor:
        cache = ResultCache()
        if tracer is not None:
            cache = TracedCache(cache, tracer)
        return Executor(session.registry, cache=cache, listeners=[listener],
                        validate=tracer is None)

    def reference(self, session) -> List[Any]:
        return session.reference_runs


class RerunWarm(WorkflowWorkload):
    """Four ~200-module DAGs rerun against a filled persistent cache.

    Fewer than 800 distinct cache keys stay under the default
    1024-entry cap, so every timed execution is a hit.  After the fill
    and after the timed phase, every key's lease is probed
    (``acquire_lease`` by a fresh owner, released at once): a refused
    probe is a lease no live run holds — the heartbeat re-acquire race
    described in README.md.
    """

    name = "rerun-warm"
    workflows = 4
    modules = 200
    width = 8
    work = 2000
    queries_per_run = 2
    expected_status = "cached"

    def build(self, inputs: Dict[str, Any]) -> List[Workflow]:
        return [seeded_values(random_workflow(
            self.modules, width=self.width, seed=shape, work=self.work,
            name=f"rerun-warm-{shape}"), inputs["seed"] * 31 + shape)
            for shape in range(self.workflows)]

    def prepare(self, session, workdir, tracer) -> None:
        session.cache_path = os.path.join(workdir, "cache.db")
        fill = PersistentResultCache(session.cache_path)
        session.cache = fill
        session.reference_runs = [
            Executor(session.registry, cache=fill).execute(workflow)
            for workflow in session.workflows]
        session.cache_keys = sorted({
            r.cache_key for result in session.reference_runs
            for r in result.results.values() if r.cache_key})
        session.leases_after_fill = leases_left(fill, session.cache_keys)

    def begin_phase(self, session, tracer) -> None:
        # a fresh cache object on the filled file: a new process
        # repeating an unchanged study
        session.cache.close()
        session.cache = PersistentResultCache(session.cache_path)

    def executor(self, session, listener, tracer) -> Executor:
        cache = session.cache
        if tracer is not None:
            cache = TracedCache(cache, tracer)
        return Executor(session.registry, cache=cache, listeners=[listener],
                        validate=tracer is None)

    def reference(self, session) -> List[Any]:
        return session.reference_runs

    def end_phase(self, session, outcome: Outcome) -> None:
        outcome.extra["leases_after_fill"] = session.leases_after_fill
        outcome.extra["leases_left"] = leases_left(session.cache,
                                                   session.cache_keys)


def leases_left(cache, keys: List[str]) -> int:
    """Leases on ``keys`` that a fresh owner cannot take right now."""
    held = 0
    for key in keys:
        if cache.acquire_lease(key, "perfbench-probe"):
            cache.release_lease(key, "perfbench-probe")
        else:
            held += 1
    return held


def fanout_workflow(seed: int, branches: int, stages: int,
                    work: int) -> Workflow:
    """A wide DAG: one source, ``branches`` chains of CPU-bound stages.

    Each chain starts with a ``Scale`` of seeded factor, so every chain
    carries distinct values (distinct cache keys and artifacts), then
    runs ``stages`` ``SpinCompute`` modules.
    """
    workflow = Workflow("fanout-process")
    source = workflow.add_module(Module("NumberConstant", name="source"))
    for branch in range(branches):
        scale = workflow.add_module(Module("Scale",
                                           name=f"b{branch:02d}-scale"))
        workflow.connect(source.id, "value", scale.id, "value")
        previous = (scale.id, "result")
        for stage in range(stages):
            # SpinCompute passes its input through: a distinct work
            # count per stage keeps every stage's cache key distinct
            spin = workflow.add_module(Module(
                "SpinCompute", name=f"b{branch:02d}s{stage}",
                parameters={"work": work + stage}))
            workflow.connect(previous[0], previous[1], spin.id, "value")
            previous = (spin.id, "value")
    return seeded_values(workflow, seed)


class FanoutProcess(WorkflowWorkload):
    """A 64-branch CPU-bound fan-out on the process backend."""

    name = "fanout-process"
    branches = 64
    stages = 4
    work = 20000
    queries_per_run = 8

    def build(self, inputs: Dict[str, Any]) -> List[Workflow]:
        return [fanout_workflow(inputs["seed"], self.branches, self.stages,
                                self.work)]

    def pool_size(self) -> int:
        # one worker per CPU, and at least two: a pool of one selects the
        # serial backend
        return max(os.cpu_count() or 1, 2)

    def prepare(self, session, workdir, tracer) -> None:
        # the first process-backend run pays pool start and first-touch
        # costs in the workers; a user pays it once before real work
        self.record_run(session, 0, None)

    def executor(self, session, listener, tracer) -> Executor:
        cache = ResultCache()
        if tracer is not None:
            cache = TracedCache(cache, tracer)
        return Executor(session.registry, cache=cache, listeners=[listener],
                        validate=tracer is None, workers=self.pool_size(),
                        backend="process")

    def reference(self, session) -> List[Any]:
        # the backend contract: byte-identical outputs to a serial run
        return [Executor(session.registry, cache=ResultCache())
                .execute(workflow, backend="serial")
                for workflow in session.workflows]


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

def clone_for_ingest(base: WorkflowRun, suffix: str) -> WorkflowRun:
    """``clone_run(base, suffix)`` built by renaming ids structurally.

    Same result as :func:`repro.workloads.clone_run` for runs whose ids
    appear only in id fields (true of captured runs), without its JSON
    round trip; spec, environment and parameter dicts are shared with
    ``base`` — the client only reads them.
    """
    ids = {base.id} | {e.id for e in base.executions} | set(base.artifacts)

    def rename(value: str) -> str:
        return f"{value}-{suffix}" if value in ids else value

    return replace(
        base, id=rename(base.id),
        executions=[replace(
            execution, id=rename(execution.id),
            cached_from=rename(execution.cached_from),
            inputs=[replace(b, artifact_id=rename(b.artifact_id))
                    for b in execution.inputs],
            outputs=[replace(b, artifact_id=rename(b.artifact_id))
                     for b in execution.outputs])
            for execution in base.executions],
        artifacts={rename(artifact_id): replace(
            artifact, id=rename(artifact.id),
            created_by=rename(artifact.created_by),
            also_produced_by=[rename(x) for x in artifact.also_produced_by])
            for artifact_id, artifact in base.artifacts.items()},
        values={})


@dataclass
class ServiceSession:
    store: Any
    service: ProvenanceService
    writer: ProvenanceClient
    reader: ProvenanceClient
    base: WorkflowRun
    root: str
    lineage_keys: List[str]
    views: Any = None
    acked: List[str] = field(default_factory=list)


class ServiceMixed(Workload):
    """A live service over two shards: one writer, one reader.

    Both clients are closed loops in this process: the writer sends its
    next ``save_run`` when the previous one is acknowledged; the reader
    alternates ``select`` (newest ten runs) and ``lineage_closure`` (up,
    fixed depth, from a derivation-chain product) the same way.

    The process runs on one CPU (see README.md): spread over both vCPUs
    of the VM it was tuned on, the client/server hand-offs drew up to 25 %
    hypervisor steal and moved every figure with it.
    """

    name = "service-mixed"
    one_cpu = True
    corpus_runs = 3000
    chain_steps = 3
    lineage_depth = 32
    writer_modules = 60
    #: writer runs already stored when the service starts (see setup)
    writer_runs = 300
    shards = 2

    def generate(self, seed: int) -> Dict[str, Any]:
        corpus = derivation_chain_corpus(self.corpus_runs,
                                         steps=self.chain_steps, sides=1,
                                         seed=seed)
        # a product of run k has chain_steps * k ancestors; start where
        # the fixed depth is always reachable.  The same chain positions
        # for every seed: the seed changes the ids, not the query cost.
        first = -(-self.lineage_depth // self.chain_steps)
        keys = [f"link-{seed}-{k:04d}" for k in
                random.Random(0).sample(
                    range(first, self.corpus_runs + 1),
                    min(32, self.corpus_runs + 1 - first))]
        return {"seed": seed, "corpus": corpus, "lineage_keys": keys}

    def writer_workflow(self, inputs: Dict[str, Any]) -> Workflow:
        """The writer's template workflow: a fixed shape, seeded data."""
        return seeded_values(random_workflow(
            self.writer_modules, width=6, seed=0, work=5,
            name="service-writer"), inputs["seed"])

    def fingerprint(self, inputs: Dict[str, Any]) -> str:
        return fingerprint([
            [run.id for run in inputs["corpus"]],
            [a.value_hash for run in inputs["corpus"][:3]
             for a in run.artifacts.values()],
            inputs["lineage_keys"],
            self.writer_workflow(inputs).signature()])

    def setup(self, inputs: Dict[str, Any], workdir: str,
              tracer: Optional[Tracer]) -> ServiceSession:
        registry = standard_registry()
        root = os.path.join(workdir, "shards")
        os.makedirs(root)
        shards = [RelationalStore(os.path.join(root, f"shard-{n:02d}.db"))
                  for n in range(self.shards)]
        store = (ShardedProvenanceStore(shards) if tracer is None
                 else TimedShardedStore(shards, tracer))
        store.save_runs(inputs["corpus"])
        # the writer's template: one captured ~60-module run
        with _span(tracer, "spec.build"):
            workflow = self.writer_workflow(inputs)
        capture = ProvenanceCapture(registry=registry)
        Executor(registry, listeners=[capture]).execute(workflow)
        # the writer's earlier sessions.  Each shard's commits get ~3x
        # dearer over its first ~150 writer runs, as the index pages those
        # runs touch stop sharing; without these runs the timed phase
        # would time that warm-up, and a faster machine less of it.
        store.save_runs([clone_for_ingest(capture.last_run(), f"w{n}")
                         for n in range(self.writer_runs)])
        service = ProvenanceService(store, read_pool=1,
                                    close_store=True).start()
        writer = ProvenanceClient(service.host, service.port)
        reader = ProvenanceClient(service.host, service.port)
        reader.select(NEWEST_RUNS).all()
        return ServiceSession(store=store, service=service, writer=writer,
                              reader=reader, base=capture.last_run(),
                              root=root,
                              lineage_keys=inputs["lineage_keys"])

    def teardown(self, session: ServiceSession) -> None:
        session.writer.close()
        session.reader.close()
        if session.views is not None:
            session.views.close()
        session.service.close()

    def phase(self, session: ServiceSession, seconds: float,
              tracer: Optional[Tracer]) -> Outcome:
        outcome = Outcome()
        lock = threading.Lock()
        keys = session.lineage_keys
        modules = len(session.base.executions)
        start = time.perf_counter()
        deadline = start + seconds
        phase_id = len(session.acked)
        failures: List[BaseException] = []

        def write(count: int) -> None:
            run = clone_for_ingest(session.base, f"p{phase_id}-{count}")
            if tracer is not None:
                tracer.trace_id = run.id
            began = time.perf_counter()
            with _span(tracer, "service.save_run"):
                session.writer.save_run(run)
            took = time.perf_counter() - began
            with lock:
                outcome.op("ingest", took, None)
                outcome.runs += 1
                outcome.modules += modules
            session.acked.append(run.id)

        def read(count: int) -> None:
            if tracer is not None:
                tracer.trace_id = f"read-{count}"
            began = time.perf_counter()
            if count % 2 == 0:
                with _span(tracer, "service.select"):
                    rows = session.reader.select(NEWEST_RUNS).all()
                kind = "select"
                error = None if len(rows) == 10 else f"{len(rows)} rows"
            else:
                key = keys[(count // 2) % len(keys)]
                with _span(tracer, "service.lineage"):
                    nodes = session.reader.lineage_closure(
                        key, direction="up", max_depth=self.lineage_depth)
                kind = "lineage"
                error = (None if len(nodes) == self.lineage_depth
                         else f"{len(nodes)} nodes for {key}")
            took = time.perf_counter() - began
            with lock:
                outcome.op(kind, took, error)

        def loop(*steps) -> None:
            count = 0
            try:
                while count < 2 or time.perf_counter() < deadline:
                    for step in steps:
                        step(count)
                    count += 1
            except BaseException as exc:  # reported as a failed op
                failures.append(exc)

        threads = [threading.Thread(target=loop, args=(write,)),
                   threading.Thread(target=loop, args=(read,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.elapsed = time.perf_counter() - start
        for exc in failures:
            outcome.attempted += 1
            outcome.fail(f"client raised {type(exc).__name__}: {exc}")
        return outcome

    def in_process(self, session: ServiceSession, outcome: Outcome,
                   tracer: Tracer) -> None:
        """The reader's queries on this process's own connections to the
        same shard files: the baseline the service's share of a client
        latency is measured against."""
        if session.views is None:
            session.views = ShardedProvenanceStore([
                RelationalStore(os.path.join(session.root,
                                             f"shard-{n:02d}.db"))
                for n in range(self.shards)])
        keys = session.lineage_keys
        for count in range(min(len(outcome.samples.get("select", ())), 200)
                           or 1):
            with tracer.span("storage.select"):
                session.views.select(NEWEST_RUNS).all()
            with tracer.span("storage.lineage"):
                nodes = session.views.lineage_closure(
                    keys[count % len(keys)], direction="up",
                    max_depth=self.lineage_depth)
            outcome.extra["lineage_nodes"] = (
                outcome.extra.get("lineage_nodes", 0) + len(nodes))

    def verify(self, session: ServiceSession, outcome: Outcome) -> None:
        """After the timed phase: every acknowledged run is listed and
        reloads whole, and the service counted exactly the acks."""
        client = session.reader
        listed = {summary.run_id for summary in client.list_runs()}
        missing = [run_id for run_id in session.acked
                   if run_id not in listed]
        if missing:
            outcome.fail(f"{len(missing)} acknowledged runs not listed")
        expected = len(session.base.executions)
        for start in range(0, len(session.acked), 200):
            for run in client.load_runs(session.acked[start:start + 200]):
                if len(run.executions) != expected:
                    outcome.fail(f"{run.id} reloads with "
                                 f"{len(run.executions)} executions")
        ingested = client.stats()["counters"]["runs_ingested"]
        if ingested != len(session.acked):
            outcome.fail(f"service counted {ingested} ingests for "
                         f"{len(session.acked)} acks")


WORKLOADS = {
    "dag-cold": DagCold,
    "rerun-warm": RerunWarm,
    "service-mixed": ServiceMixed,
    "fanout-process": FanoutProcess,
}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0
