"""Spans recorded from outside the program, around calls into each layer.

The traced run wraps the public objects the program is driven through —
the result cache handed to ``Executor(cache=...)``, the execution
listener, the workflow's ``topological_order`` — in thin delegating
proxies that open a span around every call.  Nothing under ``src/`` is
instrumented.

A span is ``(name, start, end, parent, trace_id, thread)``: ``parent`` is
the index of the enclosing span on the same thread (or -1), and every
span of one workflow run or one service request carries that run's or
request's id.  Times are ``time.time()`` seconds, the clock the engine
stamps ``ModuleResult.started``/``finished`` with, so compute spans read
back from a ``RunResult`` nest inside the benchmark's own spans.

Spans stay in memory and are written once, at the end of the run, as
Chrome trace-event JSON (open it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.service import ShardedProvenanceStore
from repro.storage.base import ProvenanceStore
from repro.workflow.cache import CacheStore
from repro.workflow.engine import ExecutionListener

# one span: [name, start, end, parent index, trace id, thread id]
Span = List[Any]


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: while False, :meth:`span` records nothing (untraced phases).
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def trace_id(self) -> str:
        """Id of the run or request the calling thread is working on."""
        return getattr(self._local, "trace_id", "")

    @trace_id.setter
    def trace_id(self, value: str) -> None:
        self._local.trace_id = value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        record: Span = [name, time.time(), 0.0, stack[-1] if stack else -1,
                        self.trace_id, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.time()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> None:
        """Record a span measured by someone else (e.g. the engine)."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append([name, start, end, parent, self.trace_id,
                               threading.get_ident()])

    def current(self) -> int:
        """Index of the innermost open span on this thread (-1 if none)."""
        stack = self._stack()
        return stack[-1] if stack else -1

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a named counter recorded at a layer boundary."""
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, function: Callable[..., Any]
             ) -> Callable[..., Any]:
        """``function`` with a span around every call."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)
        return traced

    # -- analysis -----------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every finished span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2]]

    def self_times(self) -> Dict[str, float]:
        """Total self time (seconds) per span name.

        A span's self time is its duration minus the part of its interval
        covered by its children; overlapping children (parallel workers)
        are merged first, so their union is subtracted once.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0 and span[2]:
                children[span[3]].append((span[1], span[2]))
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if not span[2]:
                continue
            covered = 0.0
            cursor = span[1]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, cursor), min(end, span[2])
                if end > start:
                    covered += end - start
                    cursor = end
            totals[span[0]] += (span[2] - span[1]) - covered
        return dict(totals)

    def write_chrome(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON (``ph: X``)."""
        events = []
        for index, (name, start, end, parent, trace_id, thread) \
                in enumerate(self.spans):
            if not end:
                continue
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": thread,
                "args": {"trace_id": trace_id, "span": index,
                         "parent": parent}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class TracedCache(CacheStore):
    """Delegating :class:`CacheStore` with a span around every call the
    engine makes."""

    def __init__(self, inner: CacheStore, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.supports_leases = inner.supports_leases

    def get(self, key):
        with self.tracer.span("cache.get"):
            entry = self.inner.get(key)
        self.tracer.count("cache.gets")
        if entry is not None:
            self.tracer.count("cache.hits")
        return entry

    def put(self, key, entry) -> None:
        with self.tracer.span("cache.put"):
            self.inner.put(key, entry)

    def acquire_lease(self, key, owner, ttl=None) -> bool:
        with self.tracer.span("cache.lease"):
            return self.inner.acquire_lease(key, owner, ttl)

    def release_lease(self, key, owner) -> None:
        with self.tracer.span("cache.lease"):
            self.inner.release_lease(key, owner)

    def wait_for_entry(self, key, timeout=None, poll=0.005):
        with self.tracer.span("cache.wait"):
            return self.inner.wait_for_entry(key, timeout, poll)

    def __contains__(self, key) -> bool:
        # the engine probes membership only on the lease path
        with self.tracer.span("cache.lease"):
            return key in self.inner


class TracedListener(ExecutionListener):
    """Forwards the four engine events to ``inner`` inside spans."""

    def __init__(self, inner: ExecutionListener, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def on_run_start(self, run_id, workflow, environment, tags) -> None:
        with self.tracer.span("capture.run_start"):
            self.inner.on_run_start(run_id, workflow, environment, tags)

    def on_module_start(self, run_id, module, parameters) -> None:
        with self.tracer.span("capture.event"):
            self.inner.on_module_start(run_id, module, parameters)

    def on_module_finish(self, run_id, module, result) -> None:
        with self.tracer.span("capture.event"):
            self.inner.on_module_finish(run_id, module, result)

    def on_run_finish(self, result) -> None:
        with self.tracer.span("capture.run_finish"):
            self.inner.on_run_finish(result)


class TimedShardedStore(ShardedProvenanceStore):
    """A :class:`ShardedProvenanceStore` whose ``save_run`` is a span.

    The service writes through its primary store, so a subclass (the
    service needs ``isinstance`` to find the shards) times the server
    side of an ingest on the server's own connection thread.
    """

    def __init__(self, shards: List[ProvenanceStore],
                 tracer: Tracer) -> None:
        super().__init__(shards)
        self.tracer = tracer

    def save_run(self, run) -> None:
        self.tracer.trace_id = run.id
        with self.tracer.span("storage.save_run"):
            super().save_run(run)
