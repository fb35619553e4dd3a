"""The dataflow execution engine.

The engine materializes a workflow specification as a *ready-set scheduler*
(see :mod:`repro.workflow.scheduler`): modules become schedulable tasks with
explicit dependency counts, a pluggable backend runs ready tasks either
serially (the deterministic default) or on a thread pool (``workers=N``),
values flow along connections, results are optionally memoized, and every
step is reported to registered listeners.  Listeners are the paper's
"capture mechanism" — the provenance subsystem observes execution through
this API without the engine depending on it.  All listener dispatch happens
on the coordinating thread, in a deterministic order in serial mode, so
listeners never need their own synchronization against the engine.

Failure semantics are graph-based: a failing module marks itself ``failed``
and everything downstream of it ``skipped`` (a module is skipped when *any*
direct upstream did not succeed, judged once all of its upstreams have
resolved); independent branches still run.  The run as a whole is ``failed``
when any module failed, else ``ok``.

Partial re-execution: callers may inject :class:`ReusedModule` records for
modules whose outputs are already known from a stored run's retrospective
provenance.  Reused modules never compute — they resolve instantly with
``"cached"`` status pointing at the original execution id, so derivation
history stays intact while only the stale frontier does real work (see
:mod:`repro.core.replay` for planning).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.identity import hash_value, new_id
from repro.workflow.cache import (DEFAULT_LEASE_TTL, CacheEntry,
                                  CacheStore, ResultCache,
                                  cache_key_with_suffix, module_cache_key)
from repro.workflow.environment import capture_environment
from repro.workflow.errors import ExecutionError
from repro.workflow.faults import (FaultInjected, FaultPlan, FaultSpec,
                                   RetryPolicy, resolve_retry)
from repro.workflow.plan import RegistryPlan, WorkflowPlan
from repro.workflow.registry import ModuleContext, ModuleRegistry
from repro.workflow.scheduler import (ReadySetScheduler, SerialBackend,
                                      make_backend)
from repro.workflow.serialization import (DEFAULT_REGISTRY_PROVIDER,
                                          DEFAULT_SPILL_THRESHOLD,
                                          ProcessJob, ProcessOutcome,
                                          maybe_spill, resolve_spilled)
from repro.workflow.spec import Connection, Module, Workflow
from repro.workflow.validation import planned_issues

__all__ = [
    "ValueRecord",
    "ModuleResult",
    "ReusedModule",
    "RunResult",
    "ExecutionListener",
    "Executor",
    "InputKey",
]

#: External input bindings are keyed by (module_id, port_name).
InputKey = Tuple[str, str]

#: How often the executor's heartbeat refreshes held compute leases.
#: Well under the TTL, so a lease only ever expires when its holding
#: process actually died (taking the heartbeat with it).
_HEARTBEAT_INTERVAL = DEFAULT_LEASE_TTL / 4.0


@dataclass(frozen=True)
class ValueRecord:
    """A value paired with its content hash (artifact identity)."""

    value: Any
    value_hash: str

    @classmethod
    def of(cls, value: Any) -> "ValueRecord":
        """Wrap ``value``, computing its hash."""
        return cls(value=value, value_hash=hash_value(value))


@dataclass(frozen=True)
class ReusedModule:
    """Known outputs of a module, served from provenance instead of running.

    Attributes:
        outputs: output-port name to the recorded :class:`ValueRecord`.
        source_execution: execution id that originally computed the outputs.
        parameters: parameters of the original execution (recorded on the
            reused result so provenance shows what the outputs derive from).
        cache_key: causal cache key of the original execution, if known.
    """

    outputs: Dict[str, ValueRecord]
    source_execution: str = ""
    parameters: Dict[str, Any] = field(default_factory=dict)
    cache_key: str = ""


@dataclass
class _Attempt:
    """Coordinator-side state of one module computing on any backend.

    Mutable: retries update the attempt counter, accumulated failed
    attempts, worker-loss count and per-attempt deadline in place while
    the module stays pending.
    """

    module: Module
    definition: Any
    parameters: Dict[str, Any]
    inputs: Dict[str, ValueRecord]
    cache_key: str
    #: lease token held on ``cache_key`` while the module computes;
    #: released when the module settles ("" when no lease was taken).
    lease_owner: str
    #: effective retry policy for this module's type.
    policy: RetryPolicy
    #: the picklable payload on the process backend, kept for
    #: re-dispatch on retry (None on in-process backends).
    job: Optional[ProcessJob] = None
    #: 1-based attempt currently in flight.
    attempt: int = 1
    #: failed attempts recorded so far (attempt-tagged ModuleResults).
    failures: List["ModuleResult"] = field(default_factory=list)
    #: monotonic deadline of the in-flight process attempt, enforced by
    #: deadline-kill (None = no timeout, or an in-process attempt).
    deadline: Optional[float] = None
    #: times this module's job was lost to a dead/restarted worker.
    worker_losses: int = 0
    #: set when the engine deadline-killed the in-flight attempt.
    timed_out: bool = False


@dataclass
class ModuleResult:
    """Outcome of one module execution within a run.

    ``status`` is one of ``"ok"``, ``"cached"``, ``"failed"``, ``"skipped"``.
    Cached results carry ``cached_from``: the execution id that originally
    computed the outputs (a cache hit within this engine, or the stored
    execution a replay reused).
    """

    module_id: str
    execution_id: str
    status: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    inputs: Dict[str, ValueRecord] = field(default_factory=dict)
    outputs: Dict[str, ValueRecord] = field(default_factory=dict)
    started: float = 0.0
    finished: float = 0.0
    error: str = ""
    cache_key: str = ""
    cached_from: str = ""
    #: 0 for a module's final result; N >= 1 tags the Nth failed
    #: attempt that preceded a retried module's final result.
    attempt: int = 0
    #: failed attempts (attempt-tagged results) that preceded this
    #: final result; empty for fault-free modules.
    attempts: List["ModuleResult"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent (0 for skipped modules)."""
        return max(0.0, self.finished - self.started)

    def succeeded(self) -> bool:
        """True for ok or cached executions."""
        return self.status in ("ok", "cached")


@dataclass
class RunResult:
    """Complete record of one workflow run, as seen by the engine."""

    run_id: str
    workflow: Workflow
    status: str
    results: Dict[str, ModuleResult]
    order: List[str]
    environment: Dict[str, Any]
    started: float
    finished: float
    tags: Dict[str, Any] = field(default_factory=dict)

    def result(self, module_id: str) -> ModuleResult:
        """The :class:`ModuleResult` for ``module_id`` (KeyError if absent)."""
        return self.results[module_id]

    def output(self, module_id: str, port: str) -> Any:
        """The value produced on ``module_id.port`` in this run."""
        return self.results[module_id].outputs[port].value

    def output_hash(self, module_id: str, port: str) -> str:
        """Content hash of the value produced on ``module_id.port``."""
        return self.results[module_id].outputs[port].value_hash

    def sink_outputs(self) -> Dict[Tuple[str, str], Any]:
        """Values of every output port on every sink module."""
        values: Dict[Tuple[str, str], Any] = {}
        for module_id in self.workflow.sinks():
            module_result = self.results.get(module_id)
            if module_result is None or not module_result.succeeded():
                continue
            for port, record in module_result.outputs.items():
                values[(module_id, port)] = record.value
        return values

    def failed_modules(self) -> List[str]:
        """Ids of modules whose status is ``failed`` (sorted)."""
        return sorted(m for m, r in self.results.items()
                      if r.status == "failed")

    def executed_modules(self) -> List[str]:
        """Ids of modules that actually computed (status ``ok``), sorted."""
        return sorted(m for m, r in self.results.items()
                      if r.status == "ok")

    def reused_modules(self) -> List[str]:
        """Ids of modules served from cache or provenance reuse (sorted)."""
        return sorted(m for m, r in self.results.items()
                      if r.status == "cached")

    @property
    def duration(self) -> float:
        """Wall-clock seconds for the whole run."""
        return max(0.0, self.finished - self.started)


class ExecutionListener:
    """Observer interface for execution events (all methods optional).

    The engine dispatches every event from its coordinating thread — never
    from worker threads — so implementations need no locking against the
    engine itself (they still need it if *shared across executors* running
    concurrently).
    """

    def on_run_start(self, run_id: str, workflow: Workflow,
                     environment: Dict[str, Any],
                     tags: Dict[str, Any]) -> None:
        """Called once before any module executes."""

    def on_module_start(self, run_id: str, module: Module,
                        parameters: Dict[str, Any]) -> None:
        """Called before a module's compute function runs."""

    def on_module_finish(self, run_id: str, module: Module,
                         result: ModuleResult) -> None:
        """Called after a module finishes (ok, cached, failed or skipped)."""

    def on_run_finish(self, result: RunResult) -> None:
        """Called once after the run completes."""


class Executor:
    """Runs workflows against a module registry.

    Args:
        registry: module definitions and the type registry.
        cache: optional :class:`ResultCache`; when present, deterministic
            modules are memoized across runs.  The cache is thread-safe, so
            one cache may serve parallel runs.
        listeners: observers notified of every execution event.
        validate: when True (default), specifications are statically checked
            before running; unbound ports satisfied by external inputs (or
            belonging to reused modules) are allowed.
        workers: default execution parallelism.  ``None``/``0``/``1`` run
            serially in deterministic topological order; ``N > 1`` runs
            ready modules on a pool of N workers.  Overridable per
            :meth:`execute` call.
        backend: where the worker pool lives — ``"thread"`` (the default
            when ``workers > 1``; best for blocking or GIL-releasing
            modules) or ``"process"`` (worker processes; pure-Python
            CPU-bound modules scale past the GIL).  Process workers
            rebuild module behaviour from ``registry_provider``, so module
            definitions must be reachable through an importable provider
            and values must be picklable; hashing, caching and provenance
            capture stay in this process, so all backends record
            identical provenance.
        registry_provider: ``"module:callable"`` spec that worker
            processes call to rebuild the module registry (defaults to the
            standard library registry).  Only consulted by the process
            backend.
        payload_spill_threshold: pickle size (bytes) above which process-
            job values travel as spill-file references instead of through
            the executor pipe (see
            :class:`~repro.workflow.serialization.SpilledValue`), bounding
            coordinator memory on wide fan-outs of large artifacts.
            ``None`` selects the default
            (:data:`~repro.workflow.serialization.DEFAULT_SPILL_THRESHOLD`,
            1 MiB); ``0`` disables spilling.  Only consulted by the
            process backend.
        retry: how failed module attempts are retried — ``None`` (no
            retries, the default), one
            :class:`~repro.workflow.faults.RetryPolicy` for every
            module, or a mapping of module *type name* to policy with an
            optional ``"*"`` wildcard fallback.  Every failed attempt is
            recorded in the run's provenance tagged ``attempt=N``; only
            the final result emits artifacts.  A policy ``timeout`` is
            enforced by deadline-kill (pool restart) on the process
            backend and cooperatively on serial/thread backends.
        fault_plan: optional
            :class:`~repro.workflow.faults.FaultPlan` injecting
            deterministic faults at engine seams (module failure/hang,
            worker kill, lease steal) — for tests and recovery drills.

    When the cache implements compute leases
    (:attr:`~repro.workflow.cache.CacheStore.supports_leases`), a miss on
    a deterministic module first claims a per-key lease, so concurrent
    runs sharing one cache — worker threads here, or separate OS
    processes on one :class:`~repro.workflow.cache.PersistentResultCache`
    file — compute each distinct causal signature exactly once; the
    losers wait and record the winner's published result as an ordinary
    ``"cached"`` execution with identical output hashes.
    """

    def __init__(self, registry: ModuleRegistry, *,
                 cache: Optional[CacheStore] = None,
                 listeners: Iterable[ExecutionListener] = (),
                 validate: bool = True,
                 workers: Optional[int] = None,
                 backend: Optional[str] = None,
                 registry_provider: Optional[str] = None,
                 payload_spill_threshold: Optional[int] = None,
                 retry=None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.registry = registry
        self.cache = cache
        self.retry = retry
        self.fault_plan = fault_plan
        self.listeners: List[ExecutionListener] = list(listeners)
        self._rebuild_dispatch()
        self.validate = validate
        self.workers = workers
        self.backend = backend
        self.registry_provider = (registry_provider
                                  or DEFAULT_REGISTRY_PROVIDER)
        self.payload_spill_threshold = (
            DEFAULT_SPILL_THRESHOLD if payload_spill_threshold is None
            else payload_spill_threshold)
        self._environment: Optional[Dict[str, Any]] = None
        self._listener_lock = threading.Lock()
        # leases currently held by this executor's runs, refreshed by a
        # lazily-started heartbeat so long computations are never stolen
        self._held_leases: Dict[Tuple[str, str], CacheStore] = {}
        self._lease_lock = threading.Lock()
        self._heartbeat: Optional[threading.Thread] = None
        self._heartbeat_stop = threading.Event()

    # -- lease bookkeeping ------------------------------------------------
    def _register_lease(self, cache: CacheStore, cache_key: str,
                        owner: str) -> None:
        """Track a held lease and make sure the heartbeat is running."""
        with self._lease_lock:
            self._held_leases[(cache_key, owner)] = cache
            if self._heartbeat is None or not self._heartbeat.is_alive():
                self._heartbeat_stop.clear()
                self._heartbeat = threading.Thread(
                    target=self._heartbeat_loop,
                    name="repro-lease-heartbeat", daemon=True)
                self._heartbeat.start()

    def _release_lease(self, cache: CacheStore, cache_key: str,
                       owner: str) -> None:
        """Stop refreshing and give up one held lease."""
        with self._lease_lock:
            self._held_leases.pop((cache_key, owner), None)
            if not self._held_leases:
                # wake the heartbeat so it exits now instead of lingering
                # a full interval past the run — no leaked threads when
                # the run unwinds (normally or not)
                self._heartbeat_stop.set()
        cache.release_lease(cache_key, owner)

    def _heartbeat_loop(self) -> None:  # pragma: no cover - timing loop
        """Refresh every held lease well inside its TTL while any is held.

        Re-acquiring one's own lease extends the expiry on both cache
        implementations, so a lease only lapses when the whole process
        (and with it this thread) died mid-compute — exactly the case
        waiters are meant to steal.  The thread terminates as soon as
        the last held lease is released; a later run restarts it.
        """
        while True:
            self._heartbeat_stop.wait(_HEARTBEAT_INTERVAL)
            with self._lease_lock:
                if not self._held_leases:
                    self._heartbeat = None
                    self._heartbeat_stop.clear()
                    return
                self._heartbeat_stop.clear()
                held = list(self._held_leases.items())
            for (cache_key, owner), cache in held:
                try:
                    cache.acquire_lease(cache_key, owner)
                except Exception:
                    pass  # a broken cache already grants every lease

    def add_listener(self, listener: ExecutionListener) -> None:
        """Attach an additional execution listener."""
        self.listeners.append(listener)
        self._rebuild_dispatch()

    #: every listener event the engine can emit.
    _EVENTS = ("on_run_start", "on_module_start", "on_module_finish",
               "on_run_finish")

    def _rebuild_dispatch(self) -> None:
        """Precompute per-event bound-method lists for :meth:`_notify`.

        Listener dispatch sits on the engine's hot path (two events per
        module); resolving ``getattr`` per event and calling inherited
        no-op stubs is measurable at high module rates.  Methods that are
        exactly the :class:`ExecutionListener` base stubs are filtered out
        here, once, so executors with no listeners (or listeners that only
        care about run boundaries) skip those events entirely.  Mutating
        :attr:`listeners` directly requires calling this again —
        :meth:`add_listener` does.
        """
        table: Dict[str, Tuple[Callable[..., None], ...]] = {}
        for name in self._EVENTS:
            stub = getattr(ExecutionListener, name)
            bound = []
            for listener in self.listeners:
                method = getattr(listener, name, None)
                if method is None:
                    continue
                if getattr(method, "__func__", method) is stub:
                    continue
                bound.append(method)
            table[name] = tuple(bound)
        self._dispatch_table = table

    # -- environment ------------------------------------------------------
    def environment(self) -> Dict[str, Any]:
        """The execution environment recorded on runs.

        Probed from the host once per executor and cached — environment
        capture walks platform/interpreter metadata, which is pure overhead
        when repeated for every run of a sweep.  Call
        :meth:`refresh_environment` after anything that could change the
        host record (e.g. upgrading a library in-process).
        """
        if self._environment is None:
            self._environment = capture_environment()
        return self._environment

    def refresh_environment(self) -> Dict[str, Any]:
        """Re-probe the host environment and cache the new snapshot."""
        self._environment = capture_environment()
        return self._environment

    # -- execution --------------------------------------------------------
    def execute(self, workflow: Workflow, *,
                inputs: Optional[Mapping[InputKey, Any]] = None,
                parameter_overrides: Optional[
                    Mapping[str, Mapping[str, Any]]] = None,
                tags: Optional[Mapping[str, Any]] = None,
                reuse: Optional[Mapping[str, ReusedModule]] = None,
                bypass_cache: Iterable[str] = (),
                workers: Optional[int] = None,
                backend: Optional[str] = None) -> RunResult:
        """Run ``workflow`` and return the complete :class:`RunResult`.

        Args:
            inputs: values injected into otherwise-unconnected input ports,
                keyed by ``(module_id, port_name)``.
            parameter_overrides: per-module parameter values layered on top
                of the instance's own overrides (used by parameter sweeps).
            tags: free-form metadata attached to the run record.
            reuse: modules whose outputs are served from recorded
                provenance instead of computing (see :class:`ReusedModule`);
                they finish instantly with ``"cached"`` status.
            bypass_cache: module ids that must genuinely compute this run —
                their memo-cache lookup is skipped (the fresh result still
                refreshes the cache).  Used by forced replays.
            workers: per-call override of the executor's parallelism.
            backend: per-call override of the executor's backend kind
                (``"serial"``, ``"thread"`` or ``"process"``).
        """
        # external values grouped by module once, so gathering one
        # module's inputs never walks every other module's bindings
        external: Dict[str, Dict[str, ValueRecord]] = {}
        for (module_id, port), value in (inputs or {}).items():
            external.setdefault(module_id, {})[port] = ValueRecord.of(value)
        overrides = {module_id: dict(values) for module_id, values
                     in (parameter_overrides or {}).items()}
        reused = dict(reuse or {})
        for module_id in reused:
            if module_id not in workflow.modules:
                raise ExecutionError(
                    f"reuse names a module not in the workflow: {module_id}")
        # everything static about this workflow version, fetched once
        plan = workflow._plan()
        facts = plan.for_registry(self.registry)
        if self.validate:
            self._validate(workflow, plan, facts, external, reused)

        run_id = new_id("run")
        environment = self.environment()
        run_tags = dict(tags or {})
        started = time.time()
        self._notify("on_run_start", run_id, workflow, environment, run_tags)

        # Raises CycleError up front; also the canonical result order.
        # Read through the public method, which serves it from the plan,
        # so a profiler wrapping it sees every run ask for its order.
        order = workflow.topological_order()
        results = self._run_scheduled(
            run_id, workflow, plan, facts, external, overrides, reused,
            set(bypass_cache),
            workers if workers is not None else self.workers,
            backend if backend is not None else self.backend)

        finished = time.time()
        status = ("failed" if any(r.status == "failed"
                                  for r in results.values()) else "ok")
        run = RunResult(run_id=run_id, workflow=workflow, status=status,
                        results=results, order=order,
                        environment=environment, started=started,
                        finished=finished, tags=run_tags)
        self._notify("on_run_finish", run)
        return run

    # ------------------------------------------------------------------
    # scheduling loop
    # ------------------------------------------------------------------
    def _run_scheduled(self, run_id: str, workflow: Workflow,
                       plan: WorkflowPlan, facts: RegistryPlan,
                       external: Mapping[str, Dict[str, ValueRecord]],
                       overrides: Mapping[str, Dict[str, Any]],
                       reused: Mapping[str, ReusedModule],
                       bypass_cache: set,
                       workers: Optional[int],
                       backend_kind: Optional[str]
                       ) -> Dict[str, ModuleResult]:
        scheduler = ReadySetScheduler(workflow, plan)
        incoming = plan.topology().incoming
        backend = make_backend(workers, backend_kind)
        # Serial runs pop one ready module at a time, which reproduces the
        # canonical Kahn order exactly (execution timestamps then follow
        # run.order, as the historical sequential engine guaranteed);
        # parallel runs dispatch whole ready batches for concurrency.
        one_at_a_time = isinstance(backend, SerialBackend)
        results: Dict[str, ModuleResult] = {}
        # modules submitted but not yet settled, with everything needed
        # to judge their outcome (definition, inputs, cache key, lease)
        pending: Dict[str, _Attempt] = {}
        # large process-job values spill here instead of the executor
        # pipe; the whole directory is torn down with the run
        spill_dir = ""
        if backend.out_of_process and self.payload_spill_threshold > 0:
            spill_dir = tempfile.mkdtemp(prefix="repro-spill-")

        def settle(module_id: str, result: ModuleResult) -> None:
            results[module_id] = result
            self._notify("on_module_finish", run_id,
                         workflow.modules[module_id], result)
            scheduler.resolve(module_id)

        def harvest(module_id: str, outcome: ProcessOutcome) -> None:
            result = self._judge(pending[module_id], outcome, backend)
            if result is None:
                return  # re-dispatched for another attempt
            del pending[module_id]
            settle(module_id, result)

        def drain() -> None:
            # harvest whatever is done right now without blocking — also
            # called while a dispatch waits on another run's cache lease,
            # so our own completions keep publishing (no two runs can
            # deadlock waiting on each other's unharvested results)
            completions = backend.poll()
            while completions:
                for done_id, outcome in completions:
                    harvest(done_id, outcome)
                # the serial backend runs a retry inside the harvest that
                # submits it; it must settle before the next module starts
                completions = backend.poll() if one_at_a_time else ()

        try:
            while not scheduler.finished():
                if not scheduler.has_ready():
                    if not backend.outstanding():
                        raise ExecutionError(
                            "scheduler stalled with unresolved modules: "
                            f"{scheduler.unresolved()}")
                    slack = (self._deadline_slack(pending)
                             if backend.out_of_process else None)
                    for module_id, outcome in backend.wait(timeout=slack):
                        harvest(module_id, outcome)
                    if backend.out_of_process:
                        self._enforce_deadlines(pending, backend, harvest)
                    continue
                ready = ([scheduler.pop_ready()] if one_at_a_time
                         else scheduler.take_ready())
                for module_id in ready:
                    self._dispatch(run_id, workflow.modules[module_id],
                                   facts, incoming.get(module_id, ()),
                                   results, external, overrides, reused,
                                   bypass_cache, backend, settle, pending,
                                   drain, spill_dir)
                    # Harvest promptly: with the serial backend this keeps
                    # the legacy start/finish interleaving (and frees the
                    # completed job's memory before the next submission).
                    drain()
        finally:
            backend.shutdown()
            # an abnormal unwind (listener exception, interrupt) can
            # leave harvested-never jobs in pending; give their leases
            # back now instead of making waiters ride out the TTL
            for attempt in pending.values():
                if attempt.lease_owner and self.cache is not None:
                    self._release_lease(self.cache, attempt.cache_key,
                                        attempt.lease_owner)
            if spill_dir:
                shutil.rmtree(spill_dir, ignore_errors=True)
        return results

    def _dispatch(self, run_id: str, module: Module, facts: RegistryPlan,
                  connections: Iterable[Connection],
                  results: Dict[str, ModuleResult],
                  external: Mapping[str, Dict[str, ValueRecord]],
                  overrides: Mapping[str, Dict[str, Any]],
                  reused: Mapping[str, ReusedModule],
                  bypass_cache: set,
                  backend, settle, pending, drain, spill_dir) -> None:
        """Decide what a ready module does: skip, reuse, replay a cache
        entry, or compute.

        Workers never see the memo cache.  On a miss against a
        lease-capable cache a per-key compute lease is claimed first;
        losing the claim means another run (or an earlier module of this
        one) is computing this causal signature, so this module waits
        and replays the published entry as a ``"cached"`` result.

        The definition, resolved parameters and cache-key suffix come
        from ``facts`` (the plan's registry part); a module with
        per-run parameter overrides builds its full key instead.
        """
        module_id = module.id
        planned = facts.module(module)
        definition = planned.definition
        parameters = dict(planned.parameters)
        override = overrides.get(module_id)
        if override:
            parameters.update(override)

        input_records, blocked = self._gather_inputs(
            connections, results, external.get(module_id, {}))
        if blocked:
            settle(module_id, ModuleResult(
                module_id=module_id, execution_id=new_id("exec"),
                status="skipped", parameters=parameters,
                error=f"upstream failure in {blocked}"))
            return

        reuse_record = reused.get(module_id)
        if reuse_record is not None:
            # same event contract as a memo-cache hit: start then a
            # "cached" finish, so listeners always see balanced pairs
            self._notify("on_module_start", run_id, module, parameters)
            now = time.time()
            settle(module_id, ModuleResult(
                module_id=module_id, execution_id=new_id("exec"),
                status="cached",
                parameters=dict(reuse_record.parameters) or parameters,
                inputs=input_records,
                outputs=dict(reuse_record.outputs),
                started=now, finished=now,
                cache_key=reuse_record.cache_key,
                cached_from=reuse_record.source_execution))
            return

        self._notify("on_module_start", run_id, module, parameters)
        input_hashes = {port: record.value_hash
                        for port, record in input_records.items()}
        if override:
            cache_key = module_cache_key(definition.type_name,
                                         definition.version, parameters,
                                         input_hashes)
        else:
            cache_key = cache_key_with_suffix(planned.key_suffix,
                                              input_hashes)
        lease_owner = ""
        if (module_id not in bypass_cache and self.cache is not None
                and definition.deterministic):
            entry = self.cache.get(cache_key)
            if entry is None and self.cache.supports_leases:
                entry, lease_owner = self._lease_or_wait(cache_key, drain)
                self._maybe_steal_lease(cache_key, lease_owner)
            if entry is not None:
                settle(module_id, self._cached_result(
                    module_id, parameters, input_records, cache_key, entry))
                return
        # positional: keyword construction costs twice as much, and this
        # runs once per computed module
        attempt = _Attempt(module, definition, parameters, input_records,
                           cache_key, lease_owner,
                           resolve_retry(self.retry, definition.type_name))
        if backend.out_of_process:
            threshold = self.payload_spill_threshold if spill_dir else 0
            attempt.job = ProcessJob(
                module_id=module_id, module_name=module.name,
                type_name=definition.type_name, parameters=parameters,
                inputs={port: maybe_spill(record.value, threshold,
                                          spill_dir)
                        for port, record in input_records.items()},
                registry_provider=self.registry_provider,
                spill_dir=spill_dir, spill_threshold=threshold)
        pending[module_id] = attempt
        self._submit(attempt, backend)

    def _cached_result(self, module_id: str, parameters: Dict[str, Any],
                       input_records: Dict[str, ValueRecord],
                       cache_key: str, entry: CacheEntry) -> ModuleResult:
        """A ``"cached"`` result replaying a published cache entry."""
        now = time.time()
        return ModuleResult(
            module_id=module_id, execution_id=new_id("exec"),
            status="cached", parameters=parameters,
            inputs=input_records,
            outputs={port: ValueRecord(entry.outputs[port],
                                       entry.output_hashes[port])
                     for port in entry.outputs},
            started=now, finished=now, cache_key=cache_key,
            cached_from=entry.source_execution)

    def _lease_or_wait(self, cache_key: str, drain: Callable[[], None]
                       ) -> Tuple[Optional[CacheEntry], str]:
        """Claim the right to compute ``cache_key``, or wait it out.

        Returns ``(None, owner)`` when this caller holds the lease and
        must compute (then release), or ``(entry, "")`` when a concurrent
        holder published the result first.  Waiting is sliced so our own
        completed jobs keep harvesting through ``drain`` — two runs
        waiting on each other's keys always make progress, and a lease
        held by an earlier module of this run is released once that
        module's outcome is harvested.
        """
        cache = self.cache
        owner = new_id("lease")
        while True:
            if cache.acquire_lease(cache_key, owner):
                if cache_key in cache:
                    # published between our miss and the acquire
                    entry = cache.get(cache_key)
                    cache.release_lease(cache_key, owner)
                    if entry is not None:
                        return entry, ""
                    continue
                self._register_lease(cache, cache_key, owner)
                return None, owner
            entry = cache.wait_for_entry(cache_key, timeout=0.05)
            if entry is not None:
                return entry, ""
            drain()

    def _submit(self, attempt: _Attempt, backend,
                delay: float = 0.0) -> None:
        """(Re)submit one attempt, drawing its planned fault once.

        The process backend gets the :class:`ProcessJob` stamped with the
        fault and a deadline armed for deadline-kill; in-process backends
        get :meth:`_run_in_process`, which also sleeps the retry
        ``delay``, so a thread pool keeps dispatching meanwhile.
        """
        fault = (self.fault_plan.draw("module", attempt.module.id)
                 if self.fault_plan is not None else None)
        if attempt.job is None:
            backend.submit(attempt.module.id, lambda: self._run_in_process(
                attempt, fault, delay))
            return
        if delay > 0:
            time.sleep(delay)
        inject = ""
        if fault is not None:
            # "fail" and "kill" map directly to worker stamps
            inject = (f"hang:{fault.detail}" if fault.kind == "hang"
                      else fault.kind)
        attempt.job = replace(attempt.job, inject=inject)
        if attempt.policy.timeout is not None:
            attempt.deadline = time.monotonic() + attempt.policy.timeout
        backend.submit(attempt.module.id, attempt.job)

    @staticmethod
    def _run_in_process(attempt: _Attempt, fault: Optional[FaultSpec],
                        delay: float) -> ProcessOutcome:
        """Compute one attempt on a serial or thread worker; never raises.

        The in-process counterpart of
        :func:`~repro.workflow.serialization.execute_process_job`.  A
        policy timeout is a cooperative deadline armed when the job
        starts (a thread pool may queue it first) and checked again after
        compute: an overdue success counts as a timeout.  A ``kill``
        fault degrades to a plain failure: a thread cannot be killed.
        """
        if delay > 0:
            time.sleep(delay)
        timeout = attempt.policy.timeout
        deadline = (time.monotonic() + timeout if timeout is not None
                    else None)
        started = time.time()
        try:
            if fault is not None:
                if fault.kind == "hang":
                    time.sleep(fault.detail)
                else:
                    raise FaultInjected(f"injected {fault.kind} fault for "
                                        f"{attempt.module.id}")
            context = ModuleContext(
                inputs={port: record.value
                        for port, record in attempt.inputs.items()},
                parameters=attempt.parameters,
                module_name=attempt.module.name, deadline=deadline)
            outputs = attempt.definition.compute(context)
        except Exception as exc:
            return ProcessOutcome(
                status="failed", started=started, finished=time.time(),
                error=f"{type(exc).__name__}: {exc}\n"
                      f"{traceback.format_exc(limit=3)}")
        if deadline is not None and time.monotonic() > deadline:
            # no artifacts, no cache publication — a retry recomputes
            return ProcessOutcome(
                status="failed", started=started, finished=time.time(),
                error="ModuleTimeout: cooperative deadline exceeded")
        return ProcessOutcome("ok", outputs, started, time.time())

    def _judge(self, attempt: _Attempt, outcome: ProcessOutcome,
               backend) -> Optional[ModuleResult]:
        """Judge one harvested outcome: settle, retry or quarantine.

        Returns the final :class:`ModuleResult` (with accumulated
        attempt-tagged failures attached, and the compute lease released)
        when the module settles, or ``None`` after recording a failed
        attempt and re-dispatching.

        Worker-loss bookkeeping is separate from the plain-failure
        budget: a job lost to a dying worker (or a deadline-kill pool
        restart that caught it in flight) is re-dispatched up to
        ``max(policy.max_attempts, 2)`` times even under a no-retry
        policy, so innocent in-flight victims of a poison neighbour
        survive; a module that keeps killing its worker past that bound
        is quarantined (settled failed, lease released, downstream
        skipped by the ordinary graph propagation).
        """
        policy = attempt.policy
        retryable = attempt.attempt < policy.max_attempts
        if attempt.timed_out:
            attempt.timed_out = False
            outcome = replace(outcome, status="failed", error=(
                f"ModuleTimeout: exceeded {policy.timeout}s "
                "(deadline-kill)"))
        elif outcome.worker_lost:
            attempt.worker_losses += 1
            retryable = (attempt.worker_losses < max(policy.max_attempts, 2)
                         and not getattr(backend, "_dead", False))
            if not retryable:
                outcome = replace(outcome, error=(
                    f"poison module quarantined after losing its worker "
                    f"{attempt.worker_losses} time(s): {outcome.error}"))
        result = self._result_from_outcome(attempt, outcome)
        if result.status == "ok" or not retryable:
            result.attempts = attempt.failures
            if attempt.lease_owner:
                self._release_lease(self.cache, attempt.cache_key,
                                    attempt.lease_owner)
            return result
        result.attempt = len(attempt.failures) + 1
        attempt.failures.append(result)
        delay = policy.delay(attempt.module.id, attempt.attempt)
        attempt.attempt += 1
        self._submit(attempt, backend, delay)
        return None

    @staticmethod
    def _deadline_slack(pending: Dict[str, _Attempt]) -> Optional[float]:
        """Seconds until the earliest in-flight deadline (None if no
        pending job carries one) — the wait timeout that keeps hung
        workers from stalling the coordination loop."""
        deadlines = [attempt.deadline for attempt in pending.values()
                     if attempt.deadline is not None
                     and not attempt.timed_out]
        if not deadlines:
            return None
        return max(0.05, min(deadlines) - time.monotonic())

    def _enforce_deadlines(self, pending: Dict[str, _Attempt],
                           backend, harvest) -> None:
        """Deadline-kill: mark overdue jobs timed out and restart the
        pool; every in-flight job comes back worker-lost and is routed
        through :meth:`_judge` (timeout attempt for the overdue ones,
        free re-dispatch for the innocent victims)."""
        now = time.monotonic()
        overdue = [attempt for attempt in pending.values()
                   if attempt.deadline is not None
                   and now >= attempt.deadline and not attempt.timed_out]
        if not overdue:
            return
        for attempt in overdue:
            attempt.timed_out = True
        restart = getattr(backend, "restart", None)
        if restart is None:
            return
        for module_id, outcome in restart():
            harvest(module_id, outcome)

    def _maybe_steal_lease(self, cache_key: str, lease_owner: str) -> None:
        """Fault seam: simulate another process stealing our compute
        lease (TTL expiry + takeover) right after acquisition."""
        if self.fault_plan is None or not lease_owner:
            return
        spec = self.fault_plan.draw("lease", cache_key)
        if spec is not None and spec.kind == "steal":
            self.cache.release_lease(cache_key, lease_owner)
            self.cache.acquire_lease(cache_key, f"thief-{lease_owner}")

    def _result_from_outcome(self, attempt: _Attempt,
                             outcome: ProcessOutcome) -> ModuleResult:
        """Convert one attempt's outcome into a :class:`ModuleResult`.

        Output values are checked against the declared ports and hashed
        here, on the coordinating thread, for every backend, so the
        recorded provenance (hashes, statuses, cache entries) cannot
        depend on where the module ran.  A successful result is published
        to the memo cache before :meth:`_judge` releases the module's
        compute lease, so concurrent runs waiting on the lease always
        find it.
        """
        started = outcome.started or time.time()
        finished = outcome.finished or started
        error = outcome.error
        if outcome.status == "ok":
            try:
                raw_outputs = outcome.outputs
                if attempt.job is not None:  # only process workers spill
                    raw_outputs = resolve_spilled(raw_outputs)
                outputs = self._check_outputs(attempt.definition,
                                              raw_outputs)
                records = {port: ValueRecord.of(value)
                           for port, value in outputs.items()}
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                execution_id = new_id("exec")
                if (self.cache is not None
                        and attempt.definition.deterministic):
                    self.cache.put(attempt.cache_key, CacheEntry(
                        outputs=outputs,
                        output_hashes={p: r.value_hash
                                       for p, r in records.items()},
                        source_execution=execution_id))
                return ModuleResult(
                    module_id=attempt.module.id, execution_id=execution_id,
                    status="ok", parameters=attempt.parameters,
                    inputs=attempt.inputs, outputs=records,
                    started=started, finished=finished,
                    cache_key=attempt.cache_key)
        return ModuleResult(
            module_id=attempt.module.id, execution_id=new_id("exec"),
            status="failed", parameters=attempt.parameters,
            inputs=attempt.inputs, started=started, finished=finished,
            cache_key=attempt.cache_key, error=error)

    # ------------------------------------------------------------------
    def _validate(self, workflow: Workflow, plan: WorkflowPlan,
                  facts: RegistryPlan,
                  external: Mapping[str, Dict[str, ValueRecord]],
                  reused: Mapping[str, ReusedModule]) -> None:
        errors = []
        for issue in planned_issues(workflow, facts):
            if not issue.is_error():
                continue
            if issue.code == "unbound-input":
                if issue.subject in reused:
                    # reused modules never compute, so their unbound
                    # mandatory inputs are irrelevant
                    continue
                bound_here = external.get(issue.subject)
                if bound_here and self._unbound_satisfied(
                        workflow.modules[issue.subject], plan, facts,
                        bound_here):
                    continue
            errors.append(issue)
        if errors:
            summary = "; ".join(f"[{i.code}] {i.message}" for i in errors)
            raise ExecutionError(f"cannot execute workflow: {summary}")

    @staticmethod
    def _unbound_satisfied(module: Module, plan: WorkflowPlan,
                           facts: RegistryPlan,
                           bound: Mapping[str, ValueRecord]) -> bool:
        definition = facts.module(module).definition
        connected = {c.target_port
                     for c in plan.topology().incoming.get(module.id, ())}
        for port in definition.input_ports:
            if port.optional or port.name in connected:
                continue
            if port.name not in bound:
                return False
        return True

    @staticmethod
    def _gather_inputs(connections: Iterable[Connection],
                       results: Dict[str, ModuleResult],
                       external: Mapping[str, ValueRecord]
                       ) -> Tuple[Dict[str, ValueRecord], str]:
        """Resolve input port values; return (records, blocking_module_id).

        ``connections`` feed the module, sorted by target port (from the
        plan); ``external`` holds its externally bound values by port; a
        connection feeding the same port wins over it.

        Connections are visited in target-port order, so the blocking
        module reported for a skip is deterministic regardless of which
        upstream failure resolved first.
        """
        records: Dict[str, ValueRecord] = {}
        for connection in connections:
            upstream = results[connection.source_module]
            if not upstream.succeeded():
                return {}, connection.source_module
            if connection.source_port not in upstream.outputs:
                return {}, connection.source_module
            records[connection.target_port] = (
                upstream.outputs[connection.source_port])
        for port, record in external.items():
            if port not in records:
                records[port] = record
        return records, ""

    @staticmethod
    def _check_outputs(definition, raw_outputs: Mapping[str, Any]
                       ) -> Dict[str, Any]:
        declared = {p.name for p in definition.output_ports}
        produced = set(raw_outputs)
        missing = declared - produced
        extra = produced - declared
        if missing:
            raise ExecutionError(
                f"{definition.type_name} did not produce declared "
                f"outputs: {sorted(missing)}")
        if extra:
            raise ExecutionError(
                f"{definition.type_name} produced undeclared "
                f"outputs: {sorted(extra)}")
        return dict(raw_outputs)

    def _notify(self, event: str, *args: Any) -> None:
        """Dispatch one event to every interested listener, serialized.

        Dispatch always happens on the coordinating thread; the lock only
        guards against two *runs* of a shared executor notifying
        concurrently from different caller threads.  The precomputed
        dispatch table (see :meth:`_rebuild_dispatch`) makes the
        no-listener case lock-free and skips base-class no-op stubs.
        """
        methods = self._dispatch_table[event]
        if not methods:
            return
        with self._listener_lock:
            for method in methods:
                method(*args)
