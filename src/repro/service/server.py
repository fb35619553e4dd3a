"""Thread-per-connection provenance server over a local socket.

:class:`ProvenanceService` fronts one :class:`ProvenanceStore` — typically
a :class:`~repro.service.sharded.ShardedProvenanceStore` — with the
line-delimited JSON protocol of :mod:`repro.service.protocol`.  The design
splits the read and write paths:

* **Writes** (save/delete/ingest streams) serialize per shard behind one
  lock each, so two clients streaming runs that hash to different shards
  commit concurrently while same-shard writers queue.
* **Reads** are served from a pool of *read-only view stores* — fresh
  sqlite connections onto the same shard files (WAL mode lets them read
  while a writer commits) — borrowed exclusively per request.  When the
  shards are not file-backed relational stores there is nothing to open a
  second connection to, so reads fall back to the primary store under all
  shard locks (taken in index order; correct, just not concurrent).

**No torn reads.**  Every open ingest stream registers its run id as
*in flight*; read operations mask in-flight runs (an extra ``ne`` filter
on ``select``, filtered listings, ``StoreError``/``False`` on point
lookups, and lineage closures restricted to the edges of committed runs)
until ``stream_finish`` commits and deregisters — at which point the run
appears atomically, in ingest order: a run is acknowledged durable to
its writer strictly before it becomes visible to any reader.

**Back-pressure.**  Each ``stream_add`` batch is flushed (one shard
transaction) before it is acknowledged, so a client can never buffer more
than one batch ahead of durability; batch size and the number of open
streams are capped server-side.
"""

from __future__ import annotations

import queue
import socket
import threading
from contextlib import ExitStack, contextmanager
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.annotations import Annotation
from repro.core.prospective import ProspectiveProvenance
from repro.core.retrospective import DataArtifact, ModuleExecution, WorkflowRun
from repro.service.protocol import (PROTOCOL_VERSION, ProtocolError,
                                    read_message, write_message)
from repro.service.sharded import ShardedProvenanceStore
from repro.storage.base import ProvenanceStore, StoreError
from repro.storage.query import Filter, ProvQuery, QueryError

__all__ = ["ProvenanceService"]

#: Sentinel: the connection handler must drop the connection without
#: responding (injected via the ``service-request`` fault seam).
_DROP = object()

#: ``select`` mask field per entity — in-flight runs are invisible
#: through these; annotations are not streamed and need no mask.
_MASK_FIELDS = {"runs": "id", "executions": "run_id", "artifacts": "run_id"}


class _StreamSession:
    """One open ingest stream owned by one connection."""

    __slots__ = ("writer", "shard_index", "run_id")

    def __init__(self, writer: Any, shard_index: int, run_id: str) -> None:
        self.writer = writer
        self.shard_index = shard_index
        self.run_id = run_id


class ProvenanceService:
    """Serve one provenance store to many concurrent socket clients.

    ``read_pool`` sizes the pool of read-only view stores (0 disables it,
    forcing the locked fallback).  ``fault_plan`` threads the
    deterministic fault harness through the ``service-request`` seam
    (``kind="drop"`` kills the connection mid-request, anything else
    fails the request), keyed by op name.

    The constructor binds the listening socket — ``port=0`` picks an
    ephemeral port, exposed as :attr:`port` — but serves nothing until
    :meth:`start` (background accept thread) or :meth:`serve_forever`.
    """

    def __init__(self, store: ProvenanceStore, *, host: str = "127.0.0.1",
                 port: int = 0, read_pool: int = 2, max_batch: int = 2048,
                 max_streams: int = 64, fault_plan: Optional[Any] = None,
                 close_store: bool = False) -> None:
        self.store = store
        self.fault_plan = fault_plan
        self.max_batch = max_batch
        self.max_streams = max_streams
        self._close_store = close_store
        self._shards: List[ProvenanceStore] = (
            list(store.shards) if isinstance(store, ShardedProvenanceStore)
            else [store])
        self._locks = [threading.RLock() for _ in self._shards]
        self._inflight: Dict[str, str] = {}  # run_id -> stream id
        self._inflight_lock = threading.Lock()
        self._streams_begun = 0  # bumped under _inflight_lock
        self._stats_lock = threading.Lock()
        self._counters = {"requests": 0, "errors": 0, "rows_served": 0,
                          "runs_ingested": 0, "stream_batches": 0,
                          "connections": 0}
        self._stream_ids = count(1)
        self._enable_wal()
        self._pool_views: List[ProvenanceStore] = []
        self._pool = self._build_read_pool(read_pool)
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conns: Set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._closed = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the service is bound to."""
        return (self.host, self.port)

    # -- read/write path plumbing ----------------------------------------
    def _enable_wal(self) -> None:
        """Switch file-backed relational shards to WAL so pooled readers
        never block on (or torn-read through) a writer's commit."""
        from repro.storage.relational import RelationalStore
        for shard in self._shards:
            if isinstance(shard, RelationalStore) \
                    and shard.path != ":memory:":
                shard._connection.execute("PRAGMA journal_mode=WAL")
                shard._connection.execute("PRAGMA busy_timeout=10000")

    def _build_read_pool(self, size: int) -> "Optional[queue.LifoQueue]":
        """Open ``size`` read-only views onto the shard files, or return
        None (the locked fallback) when there are no files to reopen."""
        from repro.storage.relational import RelationalStore
        if size <= 0:
            return None
        for shard in self._shards:
            if not isinstance(shard, RelationalStore) \
                    or shard.path == ":memory:":
                return None  # nothing to open a second connection to
        pool: "queue.LifoQueue" = queue.LifoQueue()
        for _ in range(size):
            views: List[ProvenanceStore] = []
            for shard in self._shards:
                view = RelationalStore(shard.path,
                                       store_values=shard.store_values)
                view._connection.execute("PRAGMA busy_timeout=10000")
                view._connection.execute("PRAGMA query_only=ON")
                views.append(view)
            read_view = (views[0] if len(views) == 1
                         else ShardedProvenanceStore(views))
            self._pool_views.append(read_view)
            pool.put(read_view)
        return pool

    @contextmanager
    def _read_view(self):
        """Borrow a read store: a pooled read-only view when available,
        else the primary store under every shard lock (index order)."""
        if self._pool is not None:
            view = self._pool.get()
            try:
                yield view
            finally:
                self._pool.put(view)
        else:
            with ExitStack() as stack:
                for lock in self._locks:
                    stack.enter_context(lock)
                yield self.store

    @contextmanager
    def _all_locks(self):
        with ExitStack() as stack:
            for lock in self._locks:
                stack.enter_context(lock)
            yield

    def _shard_index(self, run_id: str) -> int:
        if isinstance(self.store, ShardedProvenanceStore):
            return self.store.shard_index(run_id)
        return 0

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] += amount

    # -- in-flight masking ------------------------------------------------
    def _masked_read(self, read: Callable[[Set[str]], Any]) -> Any:
        """Return ``read(inflight)`` for a mask no stream slipped past.

        ``inflight`` is the set of runs being streamed when the read
        starts.  A stream that begins after that and flushes before the
        read takes its snapshot would show half a run, so the read is
        repeated until no stream began while it ran.
        """
        while True:
            with self._inflight_lock:
                inflight = set(self._inflight)
                began = self._streams_begun
            result = read(inflight)
            with self._inflight_lock:
                if self._streams_begun == began:
                    return result

    def _masked_query(self, query: ProvQuery,
                      inflight: Set[str]) -> ProvQuery:
        field = _MASK_FIELDS.get(query.entity)
        if field is None or not inflight:
            return query
        filters = query.filters + tuple(
            Filter(field, "ne", run_id) for run_id in sorted(inflight))
        return ProvQuery(query.entity, filters=filters, order=query.order,
                         limit_count=query.limit_count,
                         offset_count=query.offset_count,
                         fields=query.fields, lineage=query.lineage)

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "ProvenanceService":
        """Begin accepting connections on a background thread."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-service-accept",
                daemon=True)
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections on the calling thread until :meth:`close`
        (or KeyboardInterrupt)."""
        self._accept_loop()

    def close(self) -> None:
        """Stop accepting, drop live connections (aborting their open
        streams), release pooled views."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            # closing alone does not wake a thread parked in accept();
            # shutdown makes the blocked accept return immediately
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in list(self._conn_threads):
            thread.join(timeout=5)
        for view in self._pool_views:
            view.close()
        if self._close_store:
            self.store.close()

    def __enter__(self) -> "ProvenanceService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- connection handling ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed
            self._bump("connections")
            with self._conns_lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-service-conn", daemon=True)
            self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        streams: Dict[str, _StreamSession] = {}
        stream = conn.makefile("rwb")
        try:
            while True:
                try:
                    message = read_message(stream)
                except ProtocolError as exc:
                    try:
                        write_message(stream, {
                            "id": None, "ok": False,
                            "kind": "ProtocolError", "error": str(exc)})
                    except (OSError, ValueError):
                        pass
                    break
                if message is None:
                    break  # clean EOF
                response = self._dispatch(message, streams)
                if response is _DROP:
                    break
                write_message(stream, response)
        except (OSError, ValueError):
            pass  # peer vanished mid-frame; fall through to cleanup
        finally:
            self._abort_streams(streams)
            for closeable in (stream, conn):
                try:
                    closeable.close()
                except OSError:
                    pass
            with self._conns_lock:
                self._conns.discard(conn)

    def _abort_streams(self, streams: Dict[str, _StreamSession]) -> None:
        """A dead connection's open streams leave no trace: abort each
        under its shard lock and lift the in-flight mask."""
        for session in streams.values():
            try:
                with self._locks[session.shard_index]:
                    session.writer.abort()
            except Exception:
                pass  # best-effort: fsck repairs whatever abort could not
            with self._inflight_lock:
                self._inflight.pop(session.run_id, None)
        streams.clear()

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, message: Dict[str, Any],
                  streams: Dict[str, _StreamSession]) -> Any:
        request_id = message.get("id")
        op = message.get("op")
        self._bump("requests")
        if self.fault_plan is not None and op is not None:
            spec = self.fault_plan.draw("service-request", op)
            if spec is not None:
                if spec.kind == "drop":
                    return _DROP
                self._bump("errors")
                return {"id": request_id, "ok": False,
                        "kind": "FaultInjected",
                        "error": spec.detail or
                        f"injected failure on {op!r}"}
        handler = getattr(self, f"_op_{op}", None) if op else None
        if handler is None or not (op or "").isidentifier():
            self._bump("errors")
            return {"id": request_id, "ok": False, "kind": "ProtocolError",
                    "error": f"unknown op {op!r}"}
        try:
            result = handler(message, streams)
        except StoreError as exc:
            self._bump("errors")
            return {"id": request_id, "ok": False, "kind": "StoreError",
                    "error": str(exc)}
        except QueryError as exc:
            self._bump("errors")
            return {"id": request_id, "ok": False, "kind": "QueryError",
                    "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — a request must never
            self._bump("errors")   # take the connection loop down with it
            return {"id": request_id, "ok": False, "kind": "InternalError",
                    "error": f"{type(exc).__name__}: {exc}"}
        return {"id": request_id, "ok": True, "result": result}

    # -- ops: health -------------------------------------------------------
    def _op_ping(self, message: Dict[str, Any], streams: Any
                 ) -> Dict[str, Any]:
        return {"protocol": PROTOCOL_VERSION, "shards": len(self._shards)}

    def _op_stats(self, message: Dict[str, Any], streams: Any
                  ) -> Dict[str, Any]:
        with self._stats_lock:
            counters = dict(self._counters)
        with self._inflight_lock:
            inflight = len(self._inflight)
        return {"counters": counters, "shards": len(self._shards),
                "inflight_streams": inflight,
                "read_pool": len(self._pool_views)}

    # -- ops: queries ------------------------------------------------------
    def _op_select(self, message: Dict[str, Any], streams: Any
                   ) -> Dict[str, Any]:
        query = ProvQuery.from_dict(message.get("query"))

        def read(inflight: Set[str]) -> List[Dict[str, Any]]:
            with self._read_view() as store:
                return store.select(
                    self._masked_query(query, inflight)).all()

        rows = self._masked_read(read)
        self._bump("rows_served", len(rows))
        return {"rows": rows}

    def _op_lineage(self, message: Dict[str, Any], streams: Any
                    ) -> Dict[str, Any]:

        def read(inflight: Set[str]) -> Set[str]:
            within_runs = message.get("within_runs")
            with self._read_view() as store:
                if inflight:
                    # mask in-flight runs exactly like the row queries do:
                    # restrict the traversal to edges recorded by committed
                    # runs, so a mid-stream ingest contributes nothing
                    # until its `finish` makes the whole run visible
                    allowed = {s.run_id for s in store.list_runs()} - inflight
                    if within_runs is not None:
                        allowed &= set(within_runs)
                    within_runs = sorted(allowed)
                return store.lineage_closure(
                    message["key"], direction=message.get("direction", "up"),
                    max_depth=message.get("max_depth"),
                    within_runs=within_runs)

        return {"nodes": sorted(self._masked_read(read))}

    def _op_list_runs(self, message: Dict[str, Any], streams: Any
                      ) -> Dict[str, Any]:

        def read(inflight: Set[str]) -> List[Any]:
            with self._read_view() as store:
                return [s for s in store.list_runs()
                        if s.run_id not in inflight]

        return {"runs": [
            {"run_id": s.run_id, "workflow_id": s.workflow_id,
             "workflow_name": s.workflow_name, "status": s.status,
             "started": s.started, "finished": s.finished}
            for s in self._masked_read(read)]}

    def _op_load_run(self, message: Dict[str, Any], streams: Any
                     ) -> Dict[str, Any]:
        run_id = message["run_id"]

        def read(inflight: Set[str]) -> WorkflowRun:
            if run_id in inflight:
                raise StoreError(
                    f"no such run: {run_id!r} (ingest in flight)")
            with self._read_view() as store:
                return store.load_run(run_id)

        return {"run": self._masked_read(read).to_dict()}

    def _op_load_runs(self, message: Dict[str, Any], streams: Any
                      ) -> Dict[str, Any]:

        def read(inflight: Set[str]) -> List[WorkflowRun]:
            run_ids = message.get("run_ids")
            with self._read_view() as store:
                if run_ids is None:
                    run_ids = [s.run_id for s in store.list_runs()
                               if s.run_id not in inflight]
                else:
                    for run_id in run_ids:
                        if run_id in inflight:
                            raise StoreError(f"no such run: {run_id!r} "
                                             "(ingest in flight)")
                return store.load_runs(run_ids)

        return {"runs": [run.to_dict() for run in self._masked_read(read)]}

    def _op_has_run(self, message: Dict[str, Any], streams: Any
                    ) -> Dict[str, Any]:
        run_id = message["run_id"]

        def read(inflight: Set[str]) -> bool:
            if run_id in inflight:
                return False
            with self._read_view() as store:
                return store.has_run(run_id)

        return {"has_run": self._masked_read(read)}

    # -- ops: run writes ---------------------------------------------------
    def _op_save_run(self, message: Dict[str, Any], streams: Any
                     ) -> Dict[str, Any]:
        run = WorkflowRun.from_dict(message["run"])
        with self._locks[self._shard_index(run.id)]:
            self.store.save_run(run)
        self._bump("runs_ingested")
        return {"run_id": run.id}

    def _op_save_runs(self, message: Dict[str, Any], streams: Any
                      ) -> Dict[str, Any]:
        runs = [WorkflowRun.from_dict(data) for data in message["runs"]]
        indexes = sorted({self._shard_index(run.id) for run in runs})
        with ExitStack() as stack:
            for index in indexes:
                stack.enter_context(self._locks[index])
            saved = self.store.save_runs(runs)
        self._bump("runs_ingested", saved)
        return {"saved": saved}

    def _op_delete_run(self, message: Dict[str, Any], streams: Any
                       ) -> Dict[str, Any]:
        run_id = message["run_id"]
        with self._locks[self._shard_index(run_id)]:
            return {"deleted": self.store.delete_run(run_id)}

    # -- ops: ingest streams ----------------------------------------------
    def _op_stream_begin(self, message: Dict[str, Any],
                         streams: Dict[str, _StreamSession]
                         ) -> Dict[str, Any]:
        resume = bool(message.get("resume"))
        if resume:
            run_id = message["run_id"]
        else:
            header = WorkflowRun.from_dict(message["header"])
            run_id = header.id
        with self._inflight_lock:
            if run_id in self._inflight:
                raise StoreError(
                    f"run {run_id!r} is already being streamed")
            if len(self._inflight) >= self.max_streams:
                raise StoreError(
                    f"too many open ingest streams (max {self.max_streams})")
            self._inflight[run_id] = "pending"
            self._streams_begun += 1
        shard_index = self._shard_index(run_id)
        try:
            with self._locks[shard_index]:
                writer = (self.store.resume_run_stream(run_id) if resume
                          else self.store.save_run_stream(header))
        except BaseException:
            with self._inflight_lock:
                self._inflight.pop(run_id, None)
            raise
        stream_id = f"s{next(self._stream_ids)}"
        with self._inflight_lock:
            self._inflight[run_id] = stream_id
        streams[stream_id] = _StreamSession(writer, shard_index, run_id)
        return {"stream": stream_id,
                "already_ingested": sorted(writer.already_ingested)}

    def _stream_session(self, message: Dict[str, Any],
                        streams: Dict[str, _StreamSession]
                        ) -> _StreamSession:
        session = streams.get(message.get("stream"))
        if session is None:
            raise StoreError(
                f"unknown stream {message.get('stream')!r} "
                "(not opened on this connection, or already closed)")
        return session

    def _op_stream_add(self, message: Dict[str, Any],
                       streams: Dict[str, _StreamSession]
                       ) -> Dict[str, Any]:
        session = self._stream_session(message, streams)
        items = message.get("items", [])
        if len(items) > self.max_batch:
            raise StoreError(f"batch of {len(items)} items exceeds the "
                             f"server cap of {self.max_batch}")
        executions = artifacts = 0
        with self._locks[session.shard_index]:
            for kind, payload in items:
                if kind == "execution":
                    session.writer.add_execution(
                        ModuleExecution.from_dict(payload))
                    executions += 1
                elif kind == "artifact":
                    session.writer.add_artifact(
                        DataArtifact.from_dict(payload))
                    artifacts += 1
                else:
                    raise StoreError(f"unknown stream item kind {kind!r}")
            session.writer.flush()
        self._bump("stream_batches")
        return {"executions": executions, "artifacts": artifacts}

    def _op_stream_finish(self, message: Dict[str, Any],
                          streams: Dict[str, _StreamSession]
                          ) -> Dict[str, Any]:
        session = self._stream_session(message, streams)
        with self._locks[session.shard_index]:
            run_id = session.writer.finish(
                status=message.get("status"),
                finished=message.get("finished"),
                tags=message.get("tags"))
        # committed before the mask lifts: the run appears to readers
        # atomically complete, never partially, and in ingest order
        del streams[message["stream"]]
        with self._inflight_lock:
            self._inflight.pop(session.run_id, None)
        self._bump("runs_ingested")
        return {"run_id": run_id}

    def _op_stream_abort(self, message: Dict[str, Any],
                         streams: Dict[str, _StreamSession]
                         ) -> Dict[str, Any]:
        session = self._stream_session(message, streams)
        with self._locks[session.shard_index]:
            session.writer.abort()
        del streams[message["stream"]]
        with self._inflight_lock:
            self._inflight.pop(session.run_id, None)
        return {"aborted": session.run_id}

    # -- ops: workflows ----------------------------------------------------
    def _op_save_workflow(self, message: Dict[str, Any], streams: Any
                          ) -> Dict[str, Any]:
        prospective = ProspectiveProvenance.from_dict(message["workflow"])
        with self._all_locks():
            self.store.save_workflow(prospective)
        return {"workflow_id": prospective.workflow_id}

    def _op_load_workflow(self, message: Dict[str, Any], streams: Any
                          ) -> Dict[str, Any]:
        with self._read_view() as store:
            prospective = store.load_workflow(message["workflow_id"])
        return {"workflow": prospective.to_dict()}

    def _op_list_workflows(self, message: Dict[str, Any], streams: Any
                           ) -> Dict[str, Any]:
        with self._read_view() as store:
            return {"workflows": store.list_workflows()}

    # -- ops: annotations --------------------------------------------------
    def _op_save_annotation(self, message: Dict[str, Any], streams: Any
                            ) -> Dict[str, Any]:
        annotation = Annotation.from_dict(message["annotation"])
        with self._all_locks():
            self.store.save_annotation(annotation)
        return {"annotation_id": annotation.id}

    def _op_annotations_for(self, message: Dict[str, Any], streams: Any
                            ) -> Dict[str, Any]:
        with self._read_view() as store:
            annotations = store.annotations_for(message["target_kind"],
                                                message["target_id"])
        return {"annotations": [a.to_dict() for a in annotations]}

    def _op_all_annotations(self, message: Dict[str, Any], streams: Any
                            ) -> Dict[str, Any]:
        with self._read_view() as store:
            annotations = store.all_annotations()
        return {"annotations": [a.to_dict() for a in annotations]}

    def __repr__(self) -> str:
        return (f"ProvenanceService({self.host}:{self.port}, "
                f"shards={len(self._shards)}, "
                f"read_pool={len(self._pool_views)})")
