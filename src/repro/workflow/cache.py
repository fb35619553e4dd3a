"""Intermediate-result caching for workflow execution.

Scientific workflow runs are dominated by repeated executions of mostly
unchanged pipelines (parameter sweeps, exploratory tweaking).  The engine
therefore memoizes module executions on a *cache key* derived from the module
type and version, its resolved parameters, and the content hashes of every
input value — exactly the causal signature of the computation.  A cache hit
is recorded in retrospective provenance as a cached execution, preserving the
derivation record while skipping the work.

The cache is a *pluggable store*: the engine talks to the tiny
:class:`CacheStore` interface and ships two implementations —

* :class:`ResultCache` — the in-memory thread-safe LRU (the default);
* :class:`PersistentResultCache` — a SQLite-backed store (WAL journal,
  one transaction per write, read-only hits) that survives process
  boundaries and restarts, so a rerun in a *fresh* process can still
  reuse every result whose causal signature is unchanged.  Concurrent
  readers and writers — including separate OS processes sharing one
  cache file — are safe; a corrupted or truncated cache file degrades to
  clean misses (the cache is an accelerator, never a source of truth).

Both stores are *resource-governed*: capacity can be bounded by entry
count (``max_entries``) and by total stored payload bytes (``max_bytes``),
each enforced with LRU eviction over the same recency order, so the two
implementations evict the identical key set for the identical operation
sequence.  Both also implement *compute leases* — a per-key claim a run
takes out before computing a missing result, so N concurrent runs sharing
one cache (threads on a :class:`ResultCache`, OS processes on one
:class:`PersistentResultCache` file) compute each distinct causal
signature at most once; the losers wait and replay the winner's published
entry as a cache hit.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.identity import canonical_json, content_hash

__all__ = ["CacheKey", "CacheEntry", "CacheStats", "CacheStore",
           "ResultCache", "PersistentResultCache", "module_cache_key",
           "DEFAULT_MAX_ENTRIES", "DEFAULT_LEASE_TTL"]

CacheKey = str

#: Default entry budget shared by both cache implementations.  Finite on
#: purpose: a cache that grows without bound is a resource leak, and the
#: persistent store additionally leaks *disk* across process lifetimes —
#: pass ``max_entries=None`` explicitly to opt into unbounded growth.
DEFAULT_MAX_ENTRIES = 1024

#: How long a compute lease lives (seconds) before waiters may steal it.
#: Generous by design: a lease only expires when its holder died mid-
#: compute, and a premature expiry merely costs one duplicate computation.
DEFAULT_LEASE_TTL = 60.0

#: How often opening a persistent cache retries a lock-contention error
#: (``sqlite3.OperationalError``) before treating the file as unreadable,
#: and the pause between tries (seconds).
_CONNECT_ATTEMPTS = 25
_CONNECT_RETRY_DELAY = 0.02


@dataclass
class CacheEntry:
    """Cached outputs of one module execution.

    Attributes:
        outputs: mapping of output-port name to the computed value.
        output_hashes: mapping of output-port name to the value's hash.
        source_execution: id of the execution that originally produced it.
    """

    outputs: Dict[str, Any]
    output_hashes: Dict[str, str]
    source_execution: str = ""


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for a cache instance.

    ``evictions`` counts entries dropped by *capacity* pressure (entry or
    byte budget); ``invalidations`` counts entries dropped *explicitly*
    via :meth:`CacheStore.invalidate` or :meth:`CacheStore.clear`.  Both
    cache implementations count every field identically for the same
    operation sequence, so accounting never drifts between backends.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total number of get() calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0


def module_cache_key(type_name: str, version: str,
                     parameters: Mapping[str, Any],
                     input_hashes: Mapping[str, str]) -> CacheKey:
    """Build the causal cache key for one module execution.

    The key hashes the canonical JSON of ``{"inputs", "parameters",
    "type", "version"}``.  Sorted, ``"inputs"`` comes first, so
    everything after it depends on the module alone:
    :func:`cache_key_suffix` encodes that part once per workflow
    version and :func:`cache_key_with_suffix` adds each run's inputs,
    producing the same bytes as this function.
    """
    return cache_key_with_suffix(
        cache_key_suffix(type_name, version, parameters), input_hashes)


def cache_key_suffix(type_name: str, version: str,
                     parameters: Mapping[str, Any]) -> str:
    """The input-independent tail of :func:`module_cache_key`'s payload."""
    static = canonical_json({"parameters": dict(parameters),
                             "type": type_name, "version": version})
    return "," + static[1:]


def cache_key_with_suffix(suffix: str,
                          input_hashes: Mapping[str, str]) -> CacheKey:
    """:func:`module_cache_key` from a precomputed
    :func:`cache_key_suffix`."""
    payload = '{"inputs":' + canonical_json(dict(input_hashes)) + suffix
    return content_hash(payload.encode("utf-8"))


def _entry_payload(entry: CacheEntry) -> Optional[bytes]:
    """Pickle an entry's payload exactly as the persistent store would.

    Both implementations size entries from this byte string, so byte
    budgets account identically regardless of backend.  Returns None for
    unpicklable values.
    """
    try:
        return pickle.dumps(
            (dict(entry.outputs), dict(entry.output_hashes)),
            protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


class CacheStore:
    """Interface the engine memoizes against (see :class:`ResultCache`).

    Implementations must be safe for concurrent use from one process (the
    engine may run ``workers=N``) and must *never raise* out of
    :meth:`get`/:meth:`put` for storage-level problems — a broken cache
    degrades to misses, it does not fail the workflow.  ``stats`` counts
    every lookup the same way on every implementation, so hit-rate
    accounting is backend-independent.

    Stores that set ``supports_leases`` additionally implement the
    compute-lease protocol (:meth:`acquire_lease`, :meth:`release_lease`,
    :meth:`wait_for_entry`, plus ``in``-membership) used by the engine to
    guarantee each distinct cache key is computed at most once across
    concurrent runs.  The defaults below make leases a no-op: every caller
    is told to compute, which is exactly the pre-lease behaviour.
    """

    stats: CacheStats

    #: True when the store implements real compute leases.
    supports_leases: bool = False

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """Return the entry for ``key`` or None.

        A hit makes ``key`` the most recently used entry for eviction; a
        store may defer recording that recency (see
        :class:`PersistentResultCache`), but never changes the eviction
        order a later write of the same instance observes.
        """
        raise NotImplementedError

    def put(self, key: CacheKey, entry: CacheEntry) -> None:
        """Store ``entry`` under ``key`` (evicting when over capacity)."""
        raise NotImplementedError

    def invalidate(self, key: CacheKey) -> bool:
        """Drop ``key``; return True when it was present."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every entry (statistics are retained)."""
        raise NotImplementedError

    def total_bytes(self) -> int:
        """Total stored payload bytes (0 when unknown)."""
        return 0

    def acquire_lease(self, key: CacheKey, owner: str,
                      ttl: Optional[float] = None) -> bool:
        """Claim the right to compute ``key``; True when granted."""
        return True

    def release_lease(self, key: CacheKey, owner: str) -> None:
        """Give up a lease previously granted to ``owner`` (idempotent)."""

    def wait_for_entry(self, key: CacheKey,
                       timeout: Optional[float] = None,
                       poll: float = 0.005) -> Optional[CacheEntry]:
        """Wait for another holder to publish ``key``; None when it won't."""
        return None

    def close(self) -> None:
        """Release resources (no-op by default)."""


class ResultCache(CacheStore):
    """Thread-safe LRU cache of module results keyed by causal signature.

    All operations take an internal lock, so one cache instance may serve
    a parallel (``workers=N``) run — or several concurrent runs — without
    corrupting the LRU order or the statistics.  Compute leases are
    in-process claims (a dict under the same lock), so concurrent runs
    sharing the instance compute each distinct key once.

    Args:
        max_entries: maximum number of entries kept (None = unbounded).
        max_bytes: maximum total *pickled payload* bytes kept (None =
            unbounded).  Sizes are measured on the identical byte string
            the persistent store would write, so both backends evict the
            same keys under the same budget; an entry larger than the
            whole budget is not stored at all.  Values that cannot be
            pickled are still cached (this is an in-memory store) but
            count zero bytes toward the budget.
    """

    supports_leases = True

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
                 max_bytes: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._sizes: Dict[CacheKey, int] = {}
        self._bytes = 0
        self._leases: Dict[CacheKey, Tuple[str, float]] = {}
        self._lock = threading.RLock()

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """Return the entry for ``key`` (refreshing LRU order) or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: CacheKey, entry: CacheEntry) -> None:
        """Store ``entry`` under ``key``, evicting LRU entries when the
        entry count or byte budget is exceeded."""
        size = 0
        if self.max_bytes is not None:
            payload = _entry_payload(entry)
            size = len(payload) if payload is not None else 0
            if size > self.max_bytes:
                return  # larger than the whole budget: never stored
        with self._lock:
            self._bytes -= self._sizes.pop(key, 0)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if self.max_bytes is not None:
                self._sizes[key] = size
                self._bytes += size
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._evict_oldest()
            if self.max_bytes is not None:
                while self._bytes > self.max_bytes:
                    self._evict_oldest()

    def _evict_oldest(self) -> None:
        old_key, _ = self._entries.popitem(last=False)
        self._bytes -= self._sizes.pop(old_key, 0)
        self.stats.evictions += 1

    def invalidate(self, key: CacheKey) -> bool:
        """Drop ``key``; return True when it was present."""
        with self._lock:
            present = self._entries.pop(key, None) is not None
            if present:
                self._bytes -= self._sizes.pop(key, 0)
                self.stats.invalidations += 1
            return present

    def clear(self) -> None:
        """Drop every entry (statistics are retained)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0

    def total_bytes(self) -> int:
        """Total pickled payload bytes currently stored.

        Tracked incrementally when ``max_bytes`` is set; measured on
        demand otherwise (sizing every put would tax the unbounded hot
        path for a number nobody asked for).
        """
        with self._lock:
            if self.max_bytes is not None:
                return self._bytes
            total = 0
            for entry in self._entries.values():
                payload = _entry_payload(entry)
                total += len(payload) if payload is not None else 0
            return total

    # -- compute leases -------------------------------------------------
    def acquire_lease(self, key: CacheKey, owner: str,
                      ttl: Optional[float] = None) -> bool:
        """Claim ``key`` for computation; re-acquiring refreshes the TTL."""
        ttl = DEFAULT_LEASE_TTL if ttl is None else ttl
        now = time.monotonic()
        with self._lock:
            held = self._leases.get(key)
            if held is not None and held[0] != owner and held[1] > now:
                return False
            self._leases[key] = (owner, now + ttl)
            return True

    def release_lease(self, key: CacheKey, owner: str) -> None:
        """Drop the lease on ``key`` if ``owner`` still holds it."""
        with self._lock:
            held = self._leases.get(key)
            if held is not None and held[0] == owner:
                del self._leases[key]

    def _lease_live(self, key: CacheKey) -> bool:
        with self._lock:
            held = self._leases.get(key)
            return held is not None and held[1] > time.monotonic()

    def wait_for_entry(self, key: CacheKey,
                       timeout: Optional[float] = None,
                       poll: float = 0.005) -> Optional[CacheEntry]:
        """Poll until the lease holder publishes ``key`` (counted as a
        hit) or the lease dies/expires without an entry (None)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if key in self:
                return self.get(key)
            if not self._lease_live(key):
                return None
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(poll)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries


_CACHE_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    payload BLOB NOT NULL,
    source_execution TEXT NOT NULL,
    -- monotone recency sequence (not wall time: sub-ms puts must still
    -- order deterministically for LRU parity with ResultCache)
    seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_entries_seq ON entries(seq);
CREATE TABLE IF NOT EXISTS leases (
    key TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    expires REAL NOT NULL
);
"""


class PersistentResultCache(CacheStore):
    """SQLite-backed result cache shared across processes and restarts.

    Entries are ``(key, pickled (outputs, output_hashes), source
    execution)`` rows; recency is a monotone sequence number so LRU
    eviction matches :class:`ResultCache` exactly for the same operation
    order.  The database runs in WAL mode with one transaction per write
    — the same discipline as the relational provenance backend — so
    concurrent writers (threads *or* separate processes pointing at the
    same path) never corrupt the file.  ``auto_vacuum`` is enabled on
    databases this class creates, so evictions return pages to the
    filesystem and the file size tracks the byte budget under churn.

    Hits are read-only: :meth:`get` reads and unpickles the row and
    stages its recency touch in memory, writing nothing.  Staged touches
    reach the file in one batch, in hit order, inside this instance's
    next write transaction — :meth:`put` (before it evicts, so eviction
    order is exactly :class:`ResultCache`'s), :meth:`acquire_lease`,
    :meth:`release_lease` — or at :meth:`close`.  Another process sharing
    the file therefore sees this instance's recency only from that point
    on.  A process that exits without :meth:`close` loses only the
    recency of its last hits: those entries may be evicted earlier than
    strict LRU would, but no entry's value is ever affected.

    Compute leases are rows in a ``leases`` table claimed with an atomic
    insert, so *separate OS processes* sharing one cache file coordinate
    who computes each key — the coordinator-side half of cross-run reuse.

    Failure semantics: a cache is an accelerator.  Any storage-level
    problem — corrupted file, truncated mid-write, unpicklable value —
    degrades to a miss; no cache operation ever raises into the engine.
    Read paths (:meth:`get`, ``in``, ``len``, :meth:`total_bytes`) leave
    the file alone on an error, since a peer may have it open; only the
    constructor and write paths reset a file they cannot use.  A broken
    store grants every lease, degrading to uncoordinated (pre-lease)
    computation.

    Args:
        path: cache database file (created if missing).
        max_entries: maximum number of entries kept.  Finite by default
            (:data:`DEFAULT_MAX_ENTRIES`, matching :class:`ResultCache`):
            this store outlives processes, so an unbounded default would
            silently grow the file on disk forever — pass ``None`` to opt
            into unbounded growth deliberately.
        max_bytes: maximum total payload bytes kept (None = unbounded),
            tracked as ``length(payload)`` in SQL and enforced with the
            same LRU order as ``max_entries``; an entry larger than the
            whole budget is not stored at all.
    """

    supports_leases = True

    def __init__(self, path: Union[str, "Any"],
                 max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
                 max_bytes: Optional[int] = None,
                 fault_plan: Optional[Any] = None) -> None:
        self.path = str(path)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.fault_plan = fault_plan
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._connection: Optional[sqlite3.Connection] = None
        # keys hit since the last write, least recent first (a dict is
        # insertion-ordered); see _apply_touches
        self._touches: Dict[CacheKey, None] = {}
        try:
            self._connect()
        except sqlite3.Error:
            self._reset_file()

    # -- connection management -----------------------------------------
    def _connect(self) -> None:
        """Open the database, retrying while another connection holds it.

        Two caches opening the same fresh file at once can make the WAL
        switch fail at once with "database is locked" (that pragma does
        not wait on the busy timeout).  The file is healthy, so retry
        instead of letting the caller fall back to :meth:`_reset_file`,
        which would delete the file under the other connection and leave
        the two caches uncoordinated.  A file that is not a database
        raises ``sqlite3.DatabaseError`` and is never retried.
        """
        for attempt in range(_CONNECT_ATTEMPTS):
            try:
                self._open_connection()
                return
            except sqlite3.OperationalError:
                if self._connection is not None:
                    self._connection.close()
                    self._connection = None
                if attempt == _CONNECT_ATTEMPTS - 1:
                    raise
                time.sleep(_CONNECT_RETRY_DELAY)

    def _open_connection(self) -> None:
        self._connection = sqlite3.connect(self.path, timeout=30.0,
                                           check_same_thread=False)
        # must precede table creation to take effect on fresh databases;
        # a no-op on existing ones (best effort — size-bound guarantees
        # then hold for payload bytes, not the on-disk file)
        self._connection.execute("PRAGMA auto_vacuum = FULL")
        self._connection.execute("PRAGMA journal_mode = WAL")
        self._connection.execute("PRAGMA synchronous = NORMAL")
        self._connection.executescript(_CACHE_SCHEMA)
        self._connection.commit()

    def _reset_file(self) -> None:
        """Best-effort recovery from an unreadable database file.

        The file (plus WAL sidecars) is removed and recreated empty; when
        even that fails — e.g. a read-only directory — the cache keeps a
        ``None`` connection and every operation degrades to a miss/no-op.
        """
        import os
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self.path + suffix)
            except OSError:
                pass
        try:
            self._connect()
        except sqlite3.Error:
            self._connection = None

    def close(self) -> None:
        """Write staged recency touches, then close the database
        connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                try:
                    with self._connection:
                        self._apply_touches()
                except sqlite3.Error:
                    pass  # recency is best-effort
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None
            self._touches.clear()

    def _next_seq(self, cursor: sqlite3.Cursor) -> int:
        row = cursor.execute(
            "SELECT COALESCE(MAX(seq), 0) + 1 FROM entries").fetchone()
        return int(row[0])

    def _apply_touches(self) -> None:
        """Write the staged hits' recency inside the caller's transaction.

        Touched keys take fresh sequence numbers above every stored one,
        in hit order, which is exactly where :class:`ResultCache` moved
        them.  A touched key a peer has since dropped updates no row.
        """
        if not self._touches:
            return
        first = self._next_seq(self._connection.cursor())
        self._connection.executemany(
            "UPDATE entries SET seq = ? WHERE key = ?",
            [(first + offset, key)
             for offset, key in enumerate(self._touches)])
        self._touches.clear()

    # -- CacheStore -----------------------------------------------------
    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """Entry for ``key`` or None; storage errors count as misses.

        Writes nothing on a hit: the recency touch is staged in memory
        (see the class docstring).
        """
        with self._lock:
            row = None
            if self._connection is not None:
                try:
                    row = self._connection.execute(
                        "SELECT payload, source_execution FROM entries"
                        " WHERE key = ?", (key,)).fetchone()
                except sqlite3.Error:
                    pass  # a read error is a miss; never reset here
            if row is None:
                self.stats.misses += 1
                return None
            try:
                outputs, output_hashes = pickle.loads(row[0])
            except Exception:
                # partial write or foreign bytes: drop the entry, miss
                self.stats.misses += 1
                self._drop_corrupt(key)
                return None
            self._touches.pop(key, None)
            self._touches[key] = None
            self.stats.hits += 1
            # unpickling built fresh dicts: no copy needed
            return CacheEntry(outputs=outputs, output_hashes=output_hashes,
                              source_execution=row[1])

    def _drop_corrupt(self, key: CacheKey) -> None:
        """Delete a torn entry without counting an invalidation (the
        caller already counted the miss; there was never a valid entry)."""
        with self._lock:
            if self._connection is None:
                return
            try:
                with self._connection:
                    self._connection.execute(
                        "DELETE FROM entries WHERE key = ?", (key,))
            except sqlite3.Error:
                self._reset_file()

    def put(self, key: CacheKey, entry: CacheEntry) -> None:
        """Persist ``entry``; unpicklable or over-budget values are
        silently skipped, capacity overflow evicts in LRU order."""
        payload = _entry_payload(entry)
        if payload is None:
            return
        if self.fault_plan is not None:
            spec = self.fault_plan.draw("cache-put", key)
            if spec is not None and spec.kind == "tear":
                # simulate a torn write: persist a truncated payload, the
                # exact on-disk state of a writer killed mid-INSERT; get()
                # recovers by treating it as a miss and dropping the row
                payload = payload[:int(spec.detail or 8)]
        if self.max_bytes is not None and len(payload) > self.max_bytes:
            return  # larger than the whole budget: never stored
        with self._lock:
            if self._connection is None:
                return
            try:
                with self._connection:
                    cursor = self._connection.cursor()
                    # before the insert: the new row must stay the newest
                    self._apply_touches()
                    cursor.execute(
                        "INSERT OR REPLACE INTO entries VALUES (?,?,?,?)",
                        (key, payload, entry.source_execution,
                         self._next_seq(cursor)))
                    self._evict_over_budget(cursor)
            except sqlite3.Error:
                self._reset_file()

    def _evict_over_budget(self, cursor: sqlite3.Cursor) -> None:
        """Drop LRU entries until both capacity budgets are satisfied.

        Runs inside the caller's transaction.  The freshly-written row
        carries the highest seq, so it is visited last and survives any
        legal budget (oversize entries were rejected before the write).
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        count, total = cursor.execute(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0)"
            " FROM entries").fetchone()
        excess = (count - self.max_entries
                  if self.max_entries is not None else 0)
        if excess <= 0 and (self.max_bytes is None
                            or total <= self.max_bytes):
            return
        if self.max_bytes is None:
            # entry budget only: no need to visit sizes row by row
            cursor.execute(
                "DELETE FROM entries WHERE key IN"
                " (SELECT key FROM entries"
                "  ORDER BY seq ASC, key ASC LIMIT ?)", (excess,))
            self.stats.evictions += cursor.rowcount
            return
        drop: List[str] = []
        for old_key, size in cursor.execute(
                "SELECT key, LENGTH(payload) FROM entries"
                " ORDER BY seq ASC, key ASC").fetchall():
            if len(drop) >= excess and (self.max_bytes is None
                                        or total <= self.max_bytes):
                break
            drop.append(old_key)
            total -= size
        if drop:
            cursor.execute(
                "DELETE FROM entries WHERE key IN (%s)"
                % ",".join("?" * len(drop)), drop)
            self.stats.evictions += cursor.rowcount

    def invalidate(self, key: CacheKey) -> bool:
        """Drop ``key``; return True when it was present."""
        with self._lock:
            self._touches.pop(key, None)
            if self._connection is None:
                return False
            try:
                with self._connection:
                    cursor = self._connection.execute(
                        "DELETE FROM entries WHERE key = ?", (key,))
                    if cursor.rowcount > 0:
                        self.stats.invalidations += 1
                        return True
                    return False
            except sqlite3.Error:
                self._reset_file()
                return False

    def clear(self) -> None:
        """Drop every entry (statistics are retained)."""
        with self._lock:
            self._touches.clear()
            if self._connection is None:
                return
            try:
                with self._connection:
                    cursor = self._connection.execute(
                        "DELETE FROM entries")
                    self.stats.invalidations += max(0, cursor.rowcount)
            except sqlite3.Error:
                self._reset_file()

    def total_bytes(self) -> int:
        """Total payload bytes currently stored (``SUM(length(payload))``)."""
        with self._lock:
            if self._connection is None:
                return 0
            try:
                row = self._connection.execute(
                    "SELECT COALESCE(SUM(LENGTH(payload)), 0)"
                    " FROM entries").fetchone()
            except sqlite3.Error:
                return 0
            return int(row[0])

    # -- compute leases -------------------------------------------------
    def acquire_lease(self, key: CacheKey, owner: str,
                      ttl: Optional[float] = None) -> bool:
        """Atomically claim ``key`` across processes sharing this file.

        Expired leases are reaped first, so a crashed holder blocks
        waiters for at most the TTL; re-acquiring refreshes the expiry.
        A broken store grants the lease (no coordination beats no cache).
        """
        ttl = DEFAULT_LEASE_TTL if ttl is None else ttl
        now = time.time()
        with self._lock:
            if self._connection is None:
                return True
            try:
                with self._connection:
                    self._apply_touches()
                    self._connection.execute(
                        "DELETE FROM leases WHERE key = ? AND expires <= ?",
                        (key, now))
                    cursor = self._connection.execute(
                        "INSERT OR IGNORE INTO leases VALUES (?,?,?)",
                        (key, owner, now + ttl))
                    if cursor.rowcount > 0:
                        return True
                    row = self._connection.execute(
                        "SELECT owner FROM leases WHERE key = ?",
                        (key,)).fetchone()
                    if row is not None and row[0] == owner:
                        self._connection.execute(
                            "UPDATE leases SET expires = ? WHERE key = ?",
                            (now + ttl, key))
                        return True
                    return False
            except sqlite3.Error:
                return True

    def release_lease(self, key: CacheKey, owner: str) -> None:
        """Drop the lease on ``key`` if ``owner`` still holds it."""
        with self._lock:
            if self._connection is None:
                return
            try:
                with self._connection:
                    self._apply_touches()
                    self._connection.execute(
                        "DELETE FROM leases WHERE key = ? AND owner = ?",
                        (key, owner))
            except sqlite3.Error:
                pass

    def _lease_live(self, key: CacheKey) -> bool:
        with self._lock:
            if self._connection is None:
                return False
            try:
                row = self._connection.execute(
                    "SELECT expires FROM leases WHERE key = ?",
                    (key,)).fetchone()
            except sqlite3.Error:
                return False
            return row is not None and float(row[0]) > time.time()

    def wait_for_entry(self, key: CacheKey,
                       timeout: Optional[float] = None,
                       poll: float = 0.01) -> Optional[CacheEntry]:
        """Poll until the lease holder publishes ``key`` (counted as a
        hit) or the lease dies/expires without an entry (None)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if key in self:
                return self.get(key)
            if not self._lease_live(key):
                return None
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(poll)

    def __len__(self) -> int:
        with self._lock:
            if self._connection is None:
                return 0
            try:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM entries").fetchone()
            except sqlite3.Error:
                return 0
            return int(row[0])

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            if self._connection is None:
                return False
            try:
                row = self._connection.execute(
                    "SELECT 1 FROM entries WHERE key = ? LIMIT 1",
                    (key,)).fetchone()
            except sqlite3.Error:
                return False
            return row is not None

    def __enter__(self) -> "PersistentResultCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
