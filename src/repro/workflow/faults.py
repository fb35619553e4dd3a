"""Deterministic fault injection and retry policies.

Faults in a workflow engine are expected events, not run-killers: a
module raising on its first attempt, a pool worker dying mid-job, the
coordinator dying mid-ingest, a torn write in the persistent cache.  This
module provides the two halves of making that survivable *and*
testable:

* :class:`RetryPolicy` — how the engine reacts to a failed attempt
  (max attempts, exponential backoff with deterministic jitter, an
  optional per-module timeout).
* :class:`FaultPlan` — a scripted schedule of faults threaded through
  seams in the engine, scheduler, capture pipeline, cache, and storage
  layers so every recovery path can be exercised reproducibly.

Nothing here uses wall-clock randomness: jitter is derived from a hash
of ``(module_id, attempt)`` and fault plans fire on exact occurrence
counts, so a test that injects "fail attempt 1 of module clean" fails
attempt 1 of module clean, every time, on every backend.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "RetryPolicy",
    "resolve_retry",
    "FaultSpec",
    "FaultPlan",
    "FaultInjected",
    "HardCrash",
]


class FaultInjected(RuntimeError):
    """Raised by a fault-plan seam standing in for a real failure."""


class HardCrash(BaseException):
    """Simulates a process death: must NOT trigger cleanup handlers.

    Derives from :class:`BaseException` so ``except Exception`` blocks
    (and the stream writer's abort-on-error path, which special-cases
    this type) let it through — a crashed coordinator does not get to
    run its ``abort()``.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How failed module attempts are retried.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    initial attempt plus up to two retries.  ``timeout`` (seconds) is
    enforced as a deadline-kill on the process backend and a
    cooperative deadline (checked between module boundaries and via
    ``ModuleContext.check_deadline``) on serial/thread backends.
    """

    max_attempts: int = 1
    backoff: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.backoff_max < 0 or self.jitter < 0:
            raise ValueError("backoff values must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def delay(self, module_id: str, attempt: int) -> float:
        """Seconds to sleep before retrying ``attempt`` (1-based).

        Exponential backoff capped at ``backoff_max``, plus a
        *deterministic* jitter in ``[0, jitter)`` derived from
        ``(module_id, attempt)`` so concurrent retries of different
        modules de-synchronise without making tests flaky.
        """
        base = min(self.backoff * (self.backoff_factor ** (attempt - 1)),
                   self.backoff_max)
        if self.jitter:
            digest = hashlib.sha256(
                f"{module_id}:{attempt}".encode()).digest()
            fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
            base += self.jitter * fraction
        return base


#: What callers may pass as a retry configuration: nothing, one policy
#: for every module, or a mapping of module *type name* -> policy with
#: an optional ``"*"`` wildcard fallback.
RetryConfig = Union[None, RetryPolicy, Mapping[str, RetryPolicy]]

_NO_RETRY = RetryPolicy()


def resolve_retry(retry: RetryConfig, type_name: str) -> RetryPolicy:
    """The effective policy for one module type under ``retry``."""
    if retry is None:
        return _NO_RETRY
    if isinstance(retry, RetryPolicy):
        return retry
    policy = retry.get(type_name, retry.get("*"))
    return policy if policy is not None else _NO_RETRY


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    ``site`` names the seam (``"module"``, ``"stream-flush"``,
    ``"cache-put"``, ``"lease"``, ``"shard-commit"``,
    ``"service-request"``); ``key`` is the seam-specific subject (module
    id, run id, cache key, shard, protocol op) or ``"*"``;
    ``attempts`` are the 1-based occurrence counts at which the fault
    fires; ``kind`` selects the failure mode at that seam; ``detail``
    carries a kind-specific payload (hang seconds, tear byte offset).
    """

    site: str
    key: str
    attempts: Tuple[int, ...]
    kind: str
    detail: float = 0.0

    def matches(self, key: str, count: int) -> bool:
        return (self.key in ("*", key)) and count in self.attempts


def _as_attempts(attempts: Union[int, Tuple[int, ...], List[int]]
                 ) -> Tuple[int, ...]:
    if isinstance(attempts, int):
        return (attempts,)
    return tuple(attempts)


class FaultPlan:
    """A deterministic, thread-safe schedule of injected faults.

    Each seam calls :meth:`draw` with its site and subject key; the
    plan counts occurrences per ``(site, key)`` and returns the first
    spec whose attempt set contains the current count (or ``None``).
    Fired faults are logged in :attr:`fired` for assertions.
    """

    def __init__(self, specs: Optional[List[FaultSpec]] = None) -> None:
        self._specs: List[FaultSpec] = list(specs or [])
        self._counts: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self.fired: List[Tuple[str, str, int, str]] = []

    # -- builders ---------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self._specs.append(spec)
        return self

    def fail_module(self, module_id: str,
                    attempts: Union[int, Tuple[int, ...], List[int]] = 1
                    ) -> "FaultPlan":
        """Module raises on the given attempt number(s)."""
        return self.add(FaultSpec("module", module_id,
                                  _as_attempts(attempts), "fail"))

    def hang_module(self, module_id: str, seconds: float,
                    attempts: Union[int, Tuple[int, ...], List[int]] = 1
                    ) -> "FaultPlan":
        """Module sleeps ``seconds`` on the given attempt(s) — pairs
        with ``RetryPolicy(timeout=...)`` to exercise deadlines."""
        return self.add(FaultSpec("module", module_id,
                                  _as_attempts(attempts), "hang", seconds))

    def kill_worker(self, module_id: str,
                    attempts: Union[int, Tuple[int, ...], List[int]] = 1
                    ) -> "FaultPlan":
        """Process-pool worker running the module dies (``os._exit``).
        On in-process backends this degrades to a plain failure."""
        return self.add(FaultSpec("module", module_id,
                                  _as_attempts(attempts), "kill"))

    def crash_stream(self, run_id: str = "*", flush: int = 1
                     ) -> "FaultPlan":
        """Coordinator hard-crashes at the given stream flush (1-based),
        leaving whatever the writer committed — no abort runs."""
        return self.add(FaultSpec("stream-flush", run_id, (flush,),
                                  "crash"))

    def tear_cache_write(self, key: str = "*", at_byte: int = 8,
                         attempts: Union[int, Tuple[int, ...],
                                         List[int]] = 1) -> "FaultPlan":
        """Persistent-cache payload is truncated at ``at_byte`` before
        hitting disk — a torn write the reader must survive."""
        return self.add(FaultSpec("cache-put", key,
                                  _as_attempts(attempts), "tear",
                                  float(at_byte)))

    def steal_lease(self, key: str = "*",
                    attempts: Union[int, Tuple[int, ...], List[int]] = 1
                    ) -> "FaultPlan":
        """Another owner grabs the compute lease after we acquire it."""
        return self.add(FaultSpec("lease", key,
                                  _as_attempts(attempts), "steal"))

    def crash_shard_commit(self, shard_index: int,
                           attempts: Union[int, Tuple[int, ...],
                                           List[int]] = 1) -> "FaultPlan":
        """Sharded bulk ingest hard-crashes just before committing the
        given shard, leaving lower-indexed shards durably committed and
        the rest untouched — the partial state fsck must repair."""
        return self.add(FaultSpec("shard-commit", f"shard-{shard_index}",
                                  _as_attempts(attempts), "crash"))

    def drop_connection(self, op: str = "*",
                        attempts: Union[int, Tuple[int, ...], List[int]] = 1
                        ) -> "FaultPlan":
        """Provenance service kills the client connection instead of
        answering the Nth request of the given op — the server must then
        abort that connection's open ingest streams."""
        return self.add(FaultSpec("service-request", op,
                                  _as_attempts(attempts), "drop"))

    def fail_request(self, op: str = "*",
                     attempts: Union[int, Tuple[int, ...], List[int]] = 1
                     ) -> "FaultPlan":
        """Provenance service answers the Nth request of the given op
        with an injected error response (connection stays up)."""
        return self.add(FaultSpec("service-request", op,
                                  _as_attempts(attempts), "fail"))

    # -- seam API ---------------------------------------------------------

    def draw(self, site: str, key: str) -> Optional[FaultSpec]:
        """Count one occurrence at ``(site, key)``; return the fault to
        inject now, if any."""
        with self._lock:
            # "*" specs share the concrete key's counter: occurrence
            # numbers always mean "the Nth time this subject hit this
            # seam", regardless of how the spec was keyed.
            count = self._counts.get((site, key), 0) + 1
            self._counts[(site, key)] = count
            for spec in self._specs:
                if spec.site == site and spec.matches(key, count):
                    self.fired.append((site, key, count, spec.kind))
                    return spec
        return None

    def fired_at(self, site: str) -> List[Tuple[str, str, int, str]]:
        """Fired-fault log entries for one seam (for assertions)."""
        return [entry for entry in self.fired if entry[0] == site]
