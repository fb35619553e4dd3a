"""Persistent result cache: durability, concurrency, corruption recovery.

The cache is an accelerator, never a source of truth — every failure mode
(corrupted file, truncated entry, unpicklable value, concurrent writers)
must degrade to clean misses, and the statistics contract must match the
in-memory :class:`ResultCache` operation for operation.
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.core import ProvenanceManager
from repro.storage import RelationalStore
from repro.workflow.cache import (CacheEntry, PersistentResultCache,
                                  ResultCache)
from tests.conftest import build_fig1_workflow

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def entry(tag: str) -> CacheEntry:
    return CacheEntry(outputs={"out": tag},
                      output_hashes={"out": f"hash-{tag}"},
                      source_execution=f"exec-{tag}")


class TestPersistentBasics:
    def test_put_get_roundtrip(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "c.db")
        cache.put("k", entry("x"))
        got = cache.get("k")
        assert got.outputs == {"out": "x"}
        assert got.output_hashes == {"out": "hash-x"}
        assert got.source_execution == "exec-x"
        assert "k" in cache and len(cache) == 1

    def test_miss_counts(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "c.db")
        assert cache.get("absent") is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_invalidate_and_clear(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "c.db")
        cache.put("k", entry("x"))
        assert cache.invalidate("k")
        assert not cache.invalidate("k")
        cache.put("a", entry("a"))
        cache.put("b", entry("b"))
        cache.clear()
        assert len(cache) == 0

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "c.db"
        first = PersistentResultCache(path)
        first.put("k", entry("x"))
        first.close()
        second = PersistentResultCache(path)
        assert second.get("k").outputs == {"out": "x"}
        assert second.stats.hits == 1

    def test_unpicklable_value_is_skipped_not_fatal(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "c.db")
        cache.put("bad", CacheEntry(outputs={"out": lambda: None},
                                    output_hashes={"out": "h"}))
        assert "bad" not in cache
        cache.put("good", entry("g"))
        assert cache.get("good") is not None

    def test_lru_eviction_by_recency(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "c.db", max_entries=2)
        cache.put("a", entry("a"))
        cache.put("b", entry("b"))
        cache.get("a")             # refresh a; b is now LRU
        cache.put("c", entry("c"))
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1


class TestStatsParityWithInMemory:
    """The same operation sequence must produce identical statistics and
    the identical surviving key set on both cache implementations —
    including explicit-drop accounting (``invalidations`` from
    invalidate/clear, distinct from capacity ``evictions``)."""

    SEQUENCE = [
        ("put", "a"), ("put", "b"), ("get", "a"), ("get", "missing"),
        ("put", "c"), ("get", "b"), ("put", "d"), ("get", "c"),
        ("put", "a"), ("get", "d"), ("get", "a"), ("invalidate", "b"),
        ("get", "b"), ("put", "e"), ("put", "f"), ("get", "e"),
        ("invalidate", "missing"), ("clear", ""), ("put", "a"),
        ("get", "a"), ("put", "b"), ("invalidate", "a"),
    ]

    def _drive(self, cache):
        for op, key in self.SEQUENCE:
            if op == "put":
                cache.put(key, entry(key))
            elif op == "get":
                cache.get(key)
            elif op == "clear":
                cache.clear()
            else:
                cache.invalidate(key)
        return (cache.stats.hits, cache.stats.misses,
                cache.stats.evictions, cache.stats.invalidations,
                sorted(key for key in "abcdef" if key in cache))

    @pytest.mark.parametrize("cap", [None, 3, 2])
    def test_parity(self, tmp_path, cap):
        memory = self._drive(ResultCache(max_entries=cap))
        persistent = self._drive(PersistentResultCache(
            tmp_path / f"cap-{cap}.db", max_entries=cap))
        assert persistent == memory

    @pytest.mark.parametrize("byte_cap", [None, 90, 160])
    def test_parity_under_byte_budget(self, tmp_path, byte_cap):
        memory = self._drive(ResultCache(max_entries=None,
                                         max_bytes=byte_cap))
        persistent = self._drive(PersistentResultCache(
            tmp_path / f"bytes-{byte_cap}.db", max_entries=None,
            max_bytes=byte_cap))
        assert persistent == memory
        if byte_cap is not None:
            assert memory[2] > 0  # the budget actually evicted something

    def test_byte_totals_agree_across_stores(self, tmp_path):
        memory = ResultCache(max_entries=None, max_bytes=10_000)
        persistent = PersistentResultCache(tmp_path / "totals.db",
                                           max_entries=None,
                                           max_bytes=10_000)
        for index in range(8):
            for cache in (memory, persistent):
                cache.put(f"k{index}", entry(f"tag-{index:04d}"))
        assert memory.total_bytes() == persistent.total_bytes() > 0


class TestByteBudget:
    """max_bytes evicts by stored payload size in LRU order."""

    def big_entry(self, tag: str, payload_chars: int) -> CacheEntry:
        return CacheEntry(outputs={"out": tag * payload_chars},
                          output_hashes={"out": f"hash-{tag}"},
                          source_execution=f"exec-{tag}")

    @pytest.mark.parametrize("make", [
        lambda tmp_path, **kw: ResultCache(max_entries=None, **kw),
        lambda tmp_path, **kw: PersistentResultCache(
            tmp_path / "b.db", max_entries=None, **kw),
    ], ids=["memory", "persistent"])
    def test_total_never_exceeds_budget(self, tmp_path, make):
        budget = 4096
        cache = make(tmp_path, max_bytes=budget)
        for index in range(40):
            cache.put(f"k{index}", self.big_entry(chr(97 + index % 26),
                                                  400))
            assert cache.total_bytes() <= budget
        assert cache.stats.evictions > 0
        assert len(cache) < 40

    @pytest.mark.parametrize("make", [
        lambda tmp_path, **kw: ResultCache(max_entries=None, **kw),
        lambda tmp_path, **kw: PersistentResultCache(
            tmp_path / "b.db", max_entries=None, **kw),
    ], ids=["memory", "persistent"])
    def test_eviction_follows_recency(self, tmp_path, make):
        cache = make(tmp_path, max_bytes=3000)
        cache.put("a", self.big_entry("a", 1000))
        cache.put("b", self.big_entry("b", 1000))
        cache.get("a")                       # refresh a; b is now LRU
        cache.put("c", self.big_entry("c", 1000))
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    @pytest.mark.parametrize("make", [
        lambda tmp_path, **kw: ResultCache(max_entries=None, **kw),
        lambda tmp_path, **kw: PersistentResultCache(
            tmp_path / "b.db", max_entries=None, **kw),
    ], ids=["memory", "persistent"])
    def test_oversize_entry_never_stored(self, tmp_path, make):
        cache = make(tmp_path, max_bytes=512)
        cache.put("small", entry("s"))
        cache.put("huge", self.big_entry("h", 4096))
        assert "huge" not in cache
        assert "small" in cache              # and nothing was evicted
        assert cache.stats.evictions == 0

    def test_entry_and_byte_budgets_compose(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "both.db",
                                      max_entries=3, max_bytes=100_000)
        for index in range(6):
            cache.put(f"k{index}", entry(str(index)))
        assert len(cache) == 3
        assert cache.stats.evictions == 3

    def test_persistent_default_budget_is_finite(self, tmp_path):
        from repro.workflow.cache import DEFAULT_MAX_ENTRIES
        cache = PersistentResultCache(tmp_path / "d.db")
        assert cache.max_entries == DEFAULT_MAX_ENTRIES
        assert ResultCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_file_size_tracks_budget_under_churn(self, tmp_path):
        """auto_vacuum returns evicted pages: the file cannot grow
        without bound while the payload budget is respected."""
        path = tmp_path / "churn.db"
        budget = 64 * 1024
        cache = PersistentResultCache(path, max_entries=None,
                                      max_bytes=budget)
        for index in range(120):
            cache.put(f"k{index}", self.big_entry("x", 8 * 1024))
            assert cache.total_bytes() <= budget
        cache.close()                        # checkpoints the WAL
        size = path.stat().st_size
        assert size <= budget + 8 * 1024 + 64 * 1024, size


class TestComputeLeases:
    """Per-key compute leases: the cross-run exactly-once substrate."""

    @pytest.mark.parametrize("make", [
        lambda tmp_path: ResultCache(),
        lambda tmp_path: PersistentResultCache(tmp_path / "l.db"),
    ], ids=["memory", "persistent"])
    def test_second_owner_is_refused(self, tmp_path, make):
        cache = make(tmp_path)
        assert cache.supports_leases
        assert cache.acquire_lease("k", "alice")
        assert not cache.acquire_lease("k", "bob")
        cache.release_lease("k", "alice")
        assert cache.acquire_lease("k", "bob")

    @pytest.mark.parametrize("make", [
        lambda tmp_path: ResultCache(),
        lambda tmp_path: PersistentResultCache(tmp_path / "l.db"),
    ], ids=["memory", "persistent"])
    def test_reacquire_refreshes_own_lease(self, tmp_path, make):
        cache = make(tmp_path)
        assert cache.acquire_lease("k", "alice")
        assert cache.acquire_lease("k", "alice")

    @pytest.mark.parametrize("make", [
        lambda tmp_path: ResultCache(),
        lambda tmp_path: PersistentResultCache(tmp_path / "l.db"),
    ], ids=["memory", "persistent"])
    def test_expired_lease_is_stolen(self, tmp_path, make):
        cache = make(tmp_path)
        assert cache.acquire_lease("k", "alice", ttl=0.0)
        assert cache.acquire_lease("k", "bob")

    @pytest.mark.parametrize("make", [
        lambda tmp_path: ResultCache(),
        lambda tmp_path: PersistentResultCache(tmp_path / "l.db"),
    ], ids=["memory", "persistent"])
    def test_release_by_non_owner_is_ignored(self, tmp_path, make):
        cache = make(tmp_path)
        assert cache.acquire_lease("k", "alice")
        cache.release_lease("k", "bob")
        assert not cache.acquire_lease("k", "carol")

    @pytest.mark.parametrize("make", [
        lambda tmp_path: ResultCache(),
        lambda tmp_path: PersistentResultCache(tmp_path / "l.db"),
    ], ids=["memory", "persistent"])
    def test_wait_sees_published_entry_as_hit(self, tmp_path, make):
        cache = make(tmp_path)
        assert cache.acquire_lease("k", "alice")

        def publish():
            cache.put("k", entry("x"))
            cache.release_lease("k", "alice")

        timer = threading.Timer(0.05, publish)
        timer.start()
        try:
            got = cache.wait_for_entry("k", timeout=5.0)
        finally:
            timer.join()
        assert got is not None and got.outputs == {"out": "x"}
        assert cache.stats.hits == 1

    @pytest.mark.parametrize("make", [
        lambda tmp_path: ResultCache(),
        lambda tmp_path: PersistentResultCache(tmp_path / "l.db"),
    ], ids=["memory", "persistent"])
    def test_wait_returns_none_when_lease_dies_empty(self, tmp_path,
                                                     make):
        cache = make(tmp_path)
        assert cache.acquire_lease("k", "alice")
        timer = threading.Timer(
            0.05, lambda: cache.release_lease("k", "alice"))
        timer.start()
        try:
            assert cache.wait_for_entry("k", timeout=5.0) is None
        finally:
            timer.join()

    def test_leases_coordinate_across_instances(self, tmp_path):
        path = tmp_path / "shared.db"
        first = PersistentResultCache(path)
        second = PersistentResultCache(path)
        assert first.acquire_lease("k", "run-1")
        assert not second.acquire_lease("k", "run-2")
        first.put("k", entry("x"))
        first.release_lease("k", "run-1")
        got = second.wait_for_entry("k", timeout=5.0)
        assert got is not None and got.source_execution == "exec-x"


class TestCorruptionRecovery:
    def test_garbage_file_degrades_to_empty_cache(self, tmp_path):
        path = tmp_path / "c.db"
        path.write_bytes(b"this is not a sqlite database at all")
        cache = PersistentResultCache(path)
        assert cache.get("k") is None          # clean miss, no crash
        assert cache.stats.misses == 1
        cache.put("k", entry("x"))             # and the file self-heals
        assert cache.get("k").outputs == {"out": "x"}

    def test_truncated_database_is_a_clean_miss(self, tmp_path):
        path = tmp_path / "c.db"
        writer = PersistentResultCache(path)
        for index in range(50):
            writer.put(f"k{index}", entry(str(index)))
        writer.close()
        size = path.stat().st_size
        with open(path, "r+b") as handle:     # chop the file mid-entry
            handle.truncate(size // 2)
        reopened = PersistentResultCache(path)
        for index in range(50):
            assert reopened.get(f"k{index}") is None
        assert reopened.stats.misses == 50
        reopened.put("fresh", entry("f"))
        assert reopened.get("fresh") is not None

    def test_partial_payload_bytes_are_a_miss(self, tmp_path):
        import sqlite3
        path = tmp_path / "c.db"
        cache = PersistentResultCache(path)
        cache.put("k", entry("x"))
        # overwrite the pickled payload with a torn prefix, as an
        # interrupted writer on a non-transactional filesystem would
        connection = sqlite3.connect(str(path))
        connection.execute("UPDATE entries SET payload = ?",
                           (b"\x80\x05only-half",))
        connection.commit()
        connection.close()
        assert cache.get("k") is None
        assert cache.stats.misses == 1
        assert "k" not in cache               # the torn entry is dropped


class _LockedConnection:
    """A connection whose every statement fails as a busy peer would."""

    def __init__(self, real):
        self.real = real

    def execute(self, *args):
        import sqlite3
        raise sqlite3.OperationalError("database is locked")

    def __getattr__(self, name):
        return getattr(self.real, name)


class TestReadErrorsKeepTheFile:
    """A read that fails is a miss; it must not delete a file that a
    peer may have open."""

    def test_read_errors_report_empty_and_leave_the_file(self, tmp_path):
        path = tmp_path / "c.db"
        cache = PersistentResultCache(path)
        cache.put("k", entry("x"))
        real = cache._connection
        cache._connection = _LockedConnection(real)
        try:
            assert cache.get("k") is None
            assert cache.stats.misses == 1 and cache.stats.hits == 0
            assert "k" not in cache
            assert len(cache) == 0
            assert cache.total_bytes() == 0
            assert path.exists()
            peer = PersistentResultCache(path)
            got = peer.get("k")
            assert got is not None and got.outputs == {"out": "x"}
            peer.close()
        finally:
            cache._connection = real
        assert cache.get("k") is not None
        cache.close()


class TestReadOnlyHits:
    """A hit writes nothing; its recency touch is staged in memory and
    written with the instance's next write or at close."""

    def test_hits_write_nothing(self, tmp_path):
        path = tmp_path / "c.db"
        cache = PersistentResultCache(path)
        for index in range(10):
            cache.put(f"k{index}", entry(str(index)))
        wal = tmp_path / "c.db-wal"
        wal_size = wal.stat().st_size
        changes = cache._connection.total_changes
        for index in range(200):
            assert cache.get(f"k{index % 10}") is not None
        assert cache._connection.total_changes == changes
        assert wal.stat().st_size == wal_size
        assert cache.stats.hits == 200
        cache.close()

    def test_touches_reach_the_file_at_close(self, tmp_path):
        path = tmp_path / "c.db"
        first = PersistentResultCache(path)
        first.put("k1", entry("1"))
        first.put("k2", entry("2"))
        first.get("k1")                       # k2 is now LRU
        first.close()
        second = PersistentResultCache(path, max_entries=2)
        second.put("k3", entry("3"))
        assert "k1" in second and "k3" in second
        assert "k2" not in second
        assert second.stats.evictions == 1
        second.close()

    @pytest.mark.parametrize("drop", ["invalidate", "clear"])
    def test_dropped_touch_does_not_resurrect(self, tmp_path, drop):
        cache = PersistentResultCache(tmp_path / "c.db", max_entries=2)
        cache.put("k", entry("k"))
        cache.get("k")
        if drop == "invalidate":
            assert cache.invalidate("k")
        else:
            cache.clear()
        cache.put("a", entry("a"))
        cache.put("b", entry("b"))
        assert "k" not in cache
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.stats.invalidations == 1
        cache.close()

    def test_threaded_hits_and_puts_keep_stats_consistent(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "c.db", max_entries=48)
        for index in range(32):
            cache.put(f"warm{index}", entry(str(index)))
        hits = [0] * 8
        errors = []

        def work(worker: int):
            try:
                for index in range(150):
                    if index % 5 == 0:
                        key = f"new{worker}-{index}"
                        cache.put(key, entry(key))
                    elif cache.get(f"warm{(worker + index) % 32}"):
                        hits[worker] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache.stats.lookups == 8 * 120
        assert cache.stats.hits == sum(hits)
        assert cache.stats.misses == 8 * 120 - sum(hits)
        # every key ever stored is either still present or was evicted
        assert len(cache) + cache.stats.evictions == 32 + 8 * 30
        assert len(cache) == 48
        cache.close()


class TestConcurrentWriters:
    def test_threads_hammering_one_instance(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "c.db", max_entries=64)
        errors = []

        def hammer(worker: int):
            try:
                for index in range(120):
                    key = f"k{(worker * 31 + index) % 96}"
                    cache.put(key, entry(key))
                    cache.get(key)
                    cache.get(f"k{index % 96}")
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
        assert cache.stats.lookups == cache.stats.hits + cache.stats.misses

    def test_two_instances_share_one_file(self, tmp_path):
        path = tmp_path / "c.db"
        first = PersistentResultCache(path)
        second = PersistentResultCache(path)
        errors = []

        def hammer(cache, offset):
            try:
                for index in range(80):
                    cache.put(f"k{(index + offset) % 50}",
                              entry(str(index)))
                    cache.get(f"k{index % 50}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(cache, offset))
                   for cache, offset in ((first, 0), (second, 25))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(first) == len(second) == 50


class TestConcurrentOpen:
    """Opening one cache file from several connections at once must not
    be mistaken for a broken file: a reset would delete the file under
    the other connection and leave the two caches uncoordinated."""

    def test_lock_contention_on_open_keeps_the_file(self, tmp_path,
                                                    monkeypatch):
        import sqlite3
        path = tmp_path / "shared.db"
        first = PersistentResultCache(path)
        assert first.acquire_lease("k", "run-1")
        real_connect = sqlite3.connect
        calls = []

        def contended_connect(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise sqlite3.OperationalError("database is locked")
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", contended_connect)
        second = PersistentResultCache(path)
        monkeypatch.undo()
        assert len(calls) == 2
        # same file: the first cache's lease and entries are visible
        assert not second.acquire_lease("k", "run-2")
        first.put("k", entry("x"))
        assert second.get("k").source_execution == "exec-x"
        first.close()
        second.close()

    def test_simultaneous_opens_of_a_fresh_file_coordinate(self,
                                                           tmp_path):
        for index in range(40):
            path = tmp_path / f"fresh-{index}.db"
            caches, errors = [], []
            start = threading.Barrier(2)

            def open_cache():
                try:
                    start.wait()
                    caches.append(PersistentResultCache(path))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=open_cache)
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            first, second = caches
            assert first.acquire_lease("k", "a")
            assert not second.acquire_lease("k", "b"), index
            first.close()
            second.close()

    def test_unopenable_path_degrades_to_a_no_op_cache(self, tmp_path):
        import time
        path = tmp_path / "missing-dir" / "c.db"
        started = time.monotonic()
        cache = PersistentResultCache(path)
        assert time.monotonic() - started < 10.0   # retries are bounded
        assert cache.get("k") is None
        cache.put("k", entry("x"))
        assert len(cache) == 0
        assert cache.acquire_lease("k", "anyone")  # no coordination
        cache.close()


class TestFreshProcessReuse:
    """The acceptance scenario: a run in one OS process, a rerun in
    another, zero recomputation in between."""

    CHILD_SCRIPT = """
import sys
from repro.core import ProvenanceManager
from tests.conftest import build_fig1_workflow

manager = ProvenanceManager(cache_path=sys.argv[1])
run = manager.run(build_fig1_workflow(size=8))
assert run.status == "ok"
print(len(manager.last_engine_result.executed_modules()))
"""

    def test_second_process_executes_zero_modules(self, tmp_path):
        path = str(tmp_path / "cross.db")
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                             + os.pathsep + REPO_ROOT
                             + os.pathsep + env.get("PYTHONPATH", ""))
        # first process: cold cache, every module computes
        first = subprocess.run(
            [sys.executable, "-c", self.CHILD_SCRIPT, path],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert first.returncode == 0, first.stderr
        assert first.stdout.strip() == "5"
        # second process: warm persistent cache, zero modules compute
        second = subprocess.run(
            [sys.executable, "-c", self.CHILD_SCRIPT, path],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert second.returncode == 0, second.stderr
        assert second.stdout.strip() == "0"


class TestManagerClose:
    """``ProvenanceManager.close()`` closes the cache it built from
    ``cache_path``, never a cache or store the caller passed in."""

    def test_closes_cache_built_from_path(self, tmp_path):
        with ProvenanceManager(cache_path=str(tmp_path / "own.db")) \
                as manager:
            manager.run(build_fig1_workflow(size=4))
            cache = manager.cache
            assert cache._connection is not None
        assert cache._connection is None
        manager.close()  # idempotent

    def test_closes_built_cache_when_the_block_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="mid-session"):
            with ProvenanceManager(
                    cache_path=str(tmp_path / "own.db")) as manager:
                manager.run(build_fig1_workflow(size=4))
                cache = manager.cache
                raise RuntimeError("mid-session")
        assert cache._connection is None

    def test_caller_cache_serves_a_later_manager(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "theirs.db")
        try:
            with ProvenanceManager(cache=cache) as manager:
                first = manager.run(build_fig1_workflow(size=4))
            with ProvenanceManager(cache=cache) as manager:
                second = manager.run(build_fig1_workflow(size=4))
            assert {e.status for e in first.executions} == {"ok"}
            assert {e.status for e in second.executions} == {"cached"}
        finally:
            cache.close()

    def test_leaves_caller_cache_and_store_open(self, tmp_path):
        cache = PersistentResultCache(tmp_path / "theirs.db")
        store = RelationalStore(str(tmp_path / "prov.db"))
        try:
            with ProvenanceManager(cache=cache, store=store) as manager:
                run = manager.run(build_fig1_workflow(size=4))
            # both still answer after the manager closed
            assert store.has_run(run.id)
            cache.put("after-close", entry("after-close"))
            assert cache.get("after-close").outputs == {
                "out": "after-close"}
        finally:
            cache.close()
            store.close()
