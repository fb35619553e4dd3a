"""Relational provenance store backed by sqlite3.

This backend realizes the "tuples stored in relational database tables" point
in the paper's storage design space.  Provenance is normalized over six
tables (runs, executions, bindings, artifacts, workflows, annotations);
:meth:`select` compiles :class:`~repro.storage.query.ProvQuery` specs to SQL
``WHERE``/``ORDER BY``/``LIMIT`` against the existing indexes (filter-only
queries never deserialize a run), and :meth:`sql` exposes read-only raw SQL
so the paper's "users write queries in languages like SQL" observation can
be reproduced (and benchmarked) directly.

Artifact *values* are optionally persisted as pickled blobs; metadata always
persists regardless of value picklability.

There is one row writer and one run loader.  ``save_run``, ``save_runs``
and every flush of a :meth:`~RelationalStore.save_run_stream` insert rows
through :func:`_replace_header` and :func:`_insert_rows`, whose lineage
edges come from :func:`~repro.storage.lineage.execution_edges`; a stream
adds only its ``stream_state`` journal row.  ``load_run`` is the one-id
case of the bulk :meth:`~RelationalStore.load_runs`.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.annotations import Annotation
from repro.core.prospective import ProspectiveProvenance
from repro.core.retrospective import (DataArtifact, ModuleExecution,
                                      PortBinding, WorkflowRun)
from repro.storage.base import (ProvenanceStore, RunStreamWriter,
                                RunSummary, StoreError)
from repro.storage.lineage import execution_edges, run_edge
from repro.storage.query import (Filter, LineageClause, ProvQuery,
                                 ResultCursor, apply_filters, apply_window,
                                 project_rows)

__all__ = ["RelationalStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id TEXT PRIMARY KEY,
    workflow_id TEXT NOT NULL,
    workflow_name TEXT NOT NULL,
    signature TEXT NOT NULL,
    status TEXT NOT NULL,
    started REAL NOT NULL,
    finished REAL NOT NULL,
    environment TEXT NOT NULL,
    spec TEXT NOT NULL,
    tags TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS executions (
    id TEXT PRIMARY KEY,
    run_id TEXT NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    module_id TEXT NOT NULL,
    module_type TEXT NOT NULL,
    module_name TEXT NOT NULL,
    status TEXT NOT NULL,
    parameters TEXT NOT NULL,
    started REAL NOT NULL,
    finished REAL NOT NULL,
    error TEXT NOT NULL,
    cache_key TEXT NOT NULL,
    cached_from TEXT NOT NULL,
    -- position in the run's canonical (topological) execution list;
    -- parallel runs finish out of timestamp order, so started is not a
    -- faithful reload key
    seq INTEGER NOT NULL DEFAULT 0,
    -- 0 for the final record; N >= 1 for a retried attempt's failure
    attempt INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS bindings (
    execution_id TEXT NOT NULL REFERENCES executions(id) ON DELETE CASCADE,
    run_id TEXT NOT NULL,
    direction TEXT NOT NULL CHECK (direction IN ('in', 'out')),
    port TEXT NOT NULL,
    artifact_id TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    id TEXT NOT NULL,
    run_id TEXT NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    value_hash TEXT NOT NULL,
    type_name TEXT NOT NULL,
    created_by TEXT NOT NULL,
    role TEXT NOT NULL,
    also_produced_by TEXT NOT NULL,
    size_hint INTEGER NOT NULL,
    PRIMARY KEY (id, run_id)
);
CREATE TABLE IF NOT EXISTS artifact_values (
    artifact_id TEXT NOT NULL,
    run_id TEXT NOT NULL,
    blob BLOB NOT NULL,
    PRIMARY KEY (artifact_id, run_id)
);
CREATE TABLE IF NOT EXISTS lineage (
    -- hash-level derivation edges (see repro.storage.lineage); the
    -- substrate of the recursive ancestry CTE in select()
    derived_hash TEXT NOT NULL,
    source_hash TEXT NOT NULL,
    run_id TEXT NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    execution_id TEXT NOT NULL,
    PRIMARY KEY (derived_hash, source_hash, run_id, execution_id)
);
CREATE TABLE IF NOT EXISTS workflows (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    signature TEXT NOT NULL,
    spec TEXT NOT NULL,
    interfaces TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS stream_state (
    -- journal of in-flight run streams: a row here paired with a runs row
    -- whose status is 'running' marks an interrupted (crashed) ingest;
    -- finish()/abort() remove the row, so a clean close leaves no trace
    run_id TEXT PRIMARY KEY REFERENCES runs(id) ON DELETE CASCADE,
    epoch INTEGER NOT NULL,
    committed_seq INTEGER NOT NULL,
    flushes INTEGER NOT NULL,
    updated REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS annotations (
    id TEXT PRIMARY KEY,
    target_kind TEXT NOT NULL,
    target_id TEXT NOT NULL,
    key TEXT NOT NULL,
    value TEXT NOT NULL,
    author TEXT NOT NULL,
    created REAL NOT NULL,
    seq INTEGER
);
CREATE INDEX IF NOT EXISTS idx_runs_started ON runs(started, id);
-- newest first with ascending id ties, the order of ``-started``
-- selects: SQLite cannot walk idx_runs_started backwards for it and,
-- at LIMIT 1 or 2, sorts every run instead
CREATE INDEX IF NOT EXISTS idx_runs_newest ON runs(started DESC, id);
CREATE INDEX IF NOT EXISTS idx_exec_run ON executions(run_id);
CREATE INDEX IF NOT EXISTS idx_exec_type ON executions(module_type);
CREATE INDEX IF NOT EXISTS idx_art_hash ON artifacts(value_hash);
CREATE INDEX IF NOT EXISTS idx_art_run ON artifacts(run_id);
CREATE INDEX IF NOT EXISTS idx_bind_exec ON bindings(execution_id);
CREATE INDEX IF NOT EXISTS idx_bind_artifact ON bindings(artifact_id);
CREATE INDEX IF NOT EXISTS idx_lin_source ON lineage(source_hash);
CREATE INDEX IF NOT EXISTS idx_lin_run ON lineage(run_id);
CREATE INDEX IF NOT EXISTS idx_ann_target ON annotations(target_kind,
                                                         target_id);
"""

_WRITE_WORDS = ("insert", "update", "delete", "drop", "alter", "create",
                "replace", "pragma", "attach", "vacuum")

_SELECT_RUNS = ("SELECT id, workflow_id, workflow_name, signature, status,"
                " started, finished, environment, spec, tags FROM runs")

_INSERT_EDGE = "INSERT OR IGNORE INTO lineage VALUES (?,?,?,?)"

#: value rows have no foreign key to cascade through, and their primary
#: key leads with artifact_id: reach a run's rows through its artifacts
_DELETE_VALUES = ("DELETE FROM artifact_values WHERE run_id = ?1"
                  " AND artifact_id IN"
                  " (SELECT id FROM artifacts WHERE run_id = ?1)")


def _run_header(row: Tuple) -> WorkflowRun:
    """Decode a ``_SELECT_RUNS`` row into a run with no executions,
    artifacts or values yet."""
    return WorkflowRun(
        id=row[0], workflow_id=row[1], workflow_name=row[2],
        workflow_signature=row[3], status=row[4], started=row[5],
        finished=row[6], environment=json.loads(row[7]),
        workflow_spec=json.loads(row[8]), executions=[], artifacts={},
        tags=json.loads(row[9]), values={})


def _replace_header(store: "RelationalStore", cursor: sqlite3.Cursor,
                    run: WorkflowRun, status: str) -> None:
    """Drop any stored run with ``run.id`` and insert its header row."""
    cursor.execute(_DELETE_VALUES, (run.id,))
    cursor.execute("DELETE FROM runs WHERE id = ?", (run.id,))
    cursor.execute(
        "INSERT INTO runs (id, workflow_id, workflow_name, signature,"
        " status, started, finished, environment, spec, tags)"
        " VALUES (?,?,?,?,?,?,?,?,?,?)",
        (run.id, run.workflow_id, run.workflow_name, run.workflow_signature,
         status, run.started, run.finished, json.dumps(run.environment),
         store._encoded_spec(run.workflow_spec), json.dumps(run.tags)))


def _insert_rows(store: "RelationalStore", cursor: sqlite3.Cursor,
                 run_id: str, executions: Iterable[ModuleExecution],
                 seq: int, hashes: Dict[str, str],
                 artifacts: Iterable[Tuple[DataArtifact, Any, bool]]) -> int:
    """Insert one batch of a run's rows; returns the next free ``seq``.

    Executions are numbered from ``seq`` in order.  ``artifacts`` yields
    ``(artifact, value, has_value)``; artifacts and values are upserted, so
    a stream may re-add an artifact that an earlier batch committed, and a
    value is kept only when the store keeps values and it pickles.
    Lineage edges come from :func:`execution_edges`, with ``hashes``
    mapping every artifact id known so far to its value hash.
    """
    exec_rows, binding_rows, edges = [], [], set()
    for execution in executions:
        exec_rows.append(
            (execution.id, run_id, execution.module_id,
             execution.module_type, execution.module_name, execution.status,
             json.dumps(execution.parameters), execution.started,
             execution.finished, execution.error, execution.cache_key,
             execution.cached_from, seq, execution.attempt))
        seq += 1
        binding_rows.extend((execution.id, run_id, "in", binding.port,
                             binding.artifact_id)
                            for binding in execution.inputs)
        binding_rows.extend((execution.id, run_id, "out", binding.port,
                             binding.artifact_id)
                            for binding in execution.outputs)
        edges.update(execution_edges(run_id, execution, hashes))
    artifact_rows, value_rows = [], []
    for artifact, value, has_value in artifacts:
        artifact_rows.append(
            (artifact.id, run_id, artifact.value_hash, artifact.type_name,
             artifact.created_by, artifact.role,
             json.dumps(artifact.also_produced_by), artifact.size_hint))
        if store.store_values and has_value:
            try:
                value_rows.append((artifact.id, run_id, pickle.dumps(value)))
            except Exception:
                pass
    cursor.executemany(
        "INSERT INTO executions (id, run_id, module_id, module_type,"
        " module_name, status, parameters, started, finished, error,"
        " cache_key, cached_from, seq, attempt)"
        " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?)", exec_rows)
    cursor.executemany("INSERT INTO bindings VALUES (?,?,?,?,?)",
                       binding_rows)
    cursor.executemany(
        "INSERT OR REPLACE INTO artifacts VALUES (?,?,?,?,?,?,?,?)",
        artifact_rows)
    cursor.executemany(
        "INSERT OR REPLACE INTO artifact_values VALUES (?,?,?)", value_rows)
    cursor.executemany(_INSERT_EDGE, edges)
    return seq


class RelationalStore(ProvenanceStore):
    """sqlite3-backed provenance store.

    Args:
        path: database file path, or ``":memory:"`` (default) for an
            in-process database.
        store_values: when True, picklable artifact values are persisted
            and restored with their runs.
    """

    def __init__(self, path: str = ":memory:",
                 store_values: bool = False) -> None:
        self.path = path
        self.store_values = store_values
        # check_same_thread=False: a capture shared by executors on other
        # threads saves runs from those threads, not the one that built
        # the store.  Cross-thread use is serialized by callers (capture
        # holds its lock around store writes), which is the pattern
        # sqlite3 supports.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute("PRAGMA foreign_keys = ON")
        self._connection.executescript(_SCHEMA)
        #: the snapshot :meth:`save_workflow` stored last
        self._saved_snapshot: Optional[ProspectiveProvenance] = None
        self._migrate_schema()
        self._annotation_seq = self._current_annotation_seq()
        self._backfill_lineage()

    def _migrate_schema(self) -> None:
        """Upgrade databases created before newer columns existed.

        ``CREATE TABLE IF NOT EXISTS`` never alters an existing table, so
        reopening an old database needs an explicit column check; the
        DEFAULT keeps historical executions valid (attempt 0 = final
        record, matching their pre-retry semantics).
        """
        columns = {row[1] for row in self._connection.execute(
            "PRAGMA table_info(executions)").fetchall()}
        if "attempt" not in columns:
            self._connection.execute(
                "ALTER TABLE executions"
                " ADD COLUMN attempt INTEGER NOT NULL DEFAULT 0")
            self._connection.commit()

    def _backfill_lineage(self) -> None:
        """Index runs stored before the lineage table existed.

        Pre-index databases reopened by this version hold runs but an
        empty ``lineage`` table; the hash-level edges are reconstructed
        entirely in SQL from bindings and artifacts — no run is
        deserialized.  Run-level replay-chain edges are reconstructed
        from the ``tags`` column alone (one narrow scan, still no run
        deserialization).
        """
        populated = self._connection.execute(
            "SELECT EXISTS(SELECT 1 FROM runs),"
            " EXISTS(SELECT 1 FROM lineage)").fetchone()
        if not populated[0] or populated[1]:
            return
        self._connection.execute(
            "INSERT OR IGNORE INTO lineage"
            " SELECT DISTINCT derived.value_hash, source.value_hash,"
            " e.run_id, e.id"
            " FROM executions e"
            " JOIN bindings ob ON ob.execution_id = e.id"
            "  AND ob.direction = 'out'"
            " JOIN bindings ib ON ib.execution_id = e.id"
            "  AND ib.direction = 'in'"
            " JOIN artifacts derived ON derived.id = ob.artifact_id"
            "  AND derived.run_id = e.run_id"
            " JOIN artifacts source ON source.id = ib.artifact_id"
            "  AND source.run_id = e.run_id"
            " WHERE e.status IN ('ok', 'cached')")
        chain_edges = (run_edge(run_id, json.loads(tags_text))
                       for run_id, tags_text in self._connection.execute(
                           "SELECT id, tags FROM runs"
                           " WHERE tags LIKE '%derived_from_run%'"
                       ).fetchall())
        self._connection.executemany(
            _INSERT_EDGE, [edge for edge in chain_edges if edge is not None])
        self._connection.commit()

    # -- runs -----------------------------------------------------------
    def save_run(self, run: WorkflowRun) -> None:
        self.save_runs([run])

    def save_run_stream(self, header: WorkflowRun) -> RunStreamWriter:
        """Native incremental ingest: one transaction per ``flush``.

        The stream writes through the same row writer as ``save_runs``;
        all it adds is a ``stream_state`` journal row.  The run header row
        is committed immediately (replacing any stored run with the same
        id); executions and artifacts accumulate in Python until ``flush``
        writes and commits them as one bounded transaction, so ingesting a
        10k-execution run never builds a 10k-row statement buffer or a
        run-sized transaction.  ``finish`` seals the header
        (status/finished/tags) and ``abort`` deletes the partial run,
        cascading away every flushed batch.
        """
        return _RelationalRunStream(self, header)

    def resume_run_stream(self, run_id: str) -> RunStreamWriter:
        """Re-attach a stream writer to an interrupted ingest.

        The returned writer continues at the last committed batch: its
        ``already_ingested`` frozenset names the execution ids that
        survived the crash, so a resuming feeder can skip them and stream
        only the tail.  Raises :class:`StoreError` when the run has no
        stream journal (it either finished cleanly or never streamed).
        """
        row = self._connection.execute(
            f"{_SELECT_RUNS} WHERE id = ?", (run_id,)).fetchone()
        if row is None:
            raise StoreError(f"no such run: {run_id}")
        return _RelationalRunStream(self, _run_header(row), resume=True)

    def stream_states(self) -> List[Tuple[str, int, int, int]]:
        """Journal rows of in-flight (or crashed) streams.

        Returns ``(run_id, epoch, committed_seq, flushes)`` tuples; a row
        surviving past its writer's lifetime marks an interrupted ingest.
        """
        return [tuple(row) for row in self._connection.execute(
            "SELECT run_id, epoch, committed_seq, flushes FROM stream_state"
            " ORDER BY run_id").fetchall()]

    def save_runs(self, runs: Iterable[WorkflowRun]) -> int:
        """Bulk ingest: every run inserted inside a single transaction.

        A failure rolls the whole call back, so a run it replaced stays
        stored as it was and no partial row outlives the error.
        """
        cursor = self._connection.cursor()
        count = 0
        try:
            for run in runs:
                _replace_header(self, cursor, run, run.status)
                hashes = {artifact_id: artifact.value_hash
                          for artifact_id, artifact in run.artifacts.items()}
                _insert_rows(self, cursor, run.id, run.executions, 0, hashes,
                             ((artifact, run.values.get(artifact.id),
                               artifact.id in run.values)
                              for artifact in run.artifacts.values()))
                edge = run_edge(run.id, run.tags)
                if edge is not None:
                    cursor.execute(_INSERT_EDGE, edge)
                count += 1
        except BaseException:
            self._connection.rollback()
            raise
        self._connection.commit()
        return count

    def has_run(self, run_id: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM runs WHERE id = ? LIMIT 1", (run_id,)).fetchone()
        return row is not None

    def load_run(self, run_id: str) -> WorkflowRun:
        return self.load_runs([run_id])[0]

    def load_runs(self, run_ids: Optional[Iterable[str]] = None
                  ) -> List[WorkflowRun]:
        """Bulk-load runs in one SQL pass per table.

        Each chunk of ids is answered with five ``IN`` queries total (four
        without stored values), each driven by a ``run_id`` index and
        grouped in Python, so the statement count does not grow with the
        number of runs or executions.  ``load_run`` is the one-id case.
        """
        if run_ids is None:
            ordered = [summary.run_id for summary in self.list_runs()]
        else:
            ordered = list(run_ids)
        loaded: Dict[str, WorkflowRun] = {}
        unique = list(dict.fromkeys(ordered))
        # stay under conservative SQLITE_MAX_VARIABLE_NUMBER builds (999)
        for start in range(0, len(unique), 900):
            self._load_run_chunk(unique[start:start + 900], loaded)
        missing = [run_id for run_id in unique if run_id not in loaded]
        if missing:
            raise StoreError(f"no such run: {missing[0]}")
        return [loaded[run_id] for run_id in ordered]

    def _load_run_chunk(self, chunk: List[str],
                        loaded: Dict[str, WorkflowRun]) -> None:
        if not chunk:
            return
        cursor = self._connection.cursor()
        marks = ", ".join("?" * len(chunk))
        for row in cursor.execute(f"{_SELECT_RUNS} WHERE id IN ({marks})",
                                  chunk).fetchall():
            loaded[row[0]] = _run_header(row)
        # bindings and values carry no usable run_id index: reach them
        # through their parent rows (executions, artifacts) instead
        bindings: Dict[str, Tuple[List[PortBinding], List[PortBinding]]] = {}
        for execution_id, direction, port, artifact_id in cursor.execute(
                "SELECT b.execution_id, b.direction, b.port, b.artifact_id"
                " FROM executions e JOIN bindings b ON b.execution_id = e.id"
                f" WHERE e.run_id IN ({marks})"
                " ORDER BY b.port, b.rowid", chunk).fetchall():
            inputs, outputs = bindings.setdefault(execution_id, ([], []))
            (inputs if direction == "in" else outputs).append(
                PortBinding(port=port, artifact_id=artifact_id))
        for row in cursor.execute(
                "SELECT id, run_id, module_id, module_type, module_name,"
                " status, parameters, started, finished, error, cache_key,"
                f" cached_from, attempt FROM executions"
                f" WHERE run_id IN ({marks})"
                " ORDER BY seq, started, id", chunk).fetchall():
            inputs, outputs = bindings.get(row[0], ([], []))
            loaded[row[1]].executions.append(ModuleExecution(
                id=row[0], module_id=row[2], module_type=row[3],
                module_name=row[4], status=row[5],
                parameters=json.loads(row[6]), inputs=inputs,
                outputs=outputs, started=row[7], finished=row[8],
                error=row[9], cache_key=row[10], cached_from=row[11],
                attempt=row[12]))
        for row in cursor.execute(
                "SELECT id, run_id, value_hash, type_name, created_by,"
                " role, also_produced_by, size_hint FROM artifacts"
                f" WHERE run_id IN ({marks})", chunk).fetchall():
            loaded[row[1]].artifacts[row[0]] = DataArtifact(
                id=row[0], value_hash=row[2], type_name=row[3],
                created_by=row[4], role=row[5],
                also_produced_by=json.loads(row[6]), size_hint=row[7])
        if self.store_values:
            for artifact_id, run_id, blob in cursor.execute(
                    "SELECT v.artifact_id, v.run_id, v.blob FROM artifacts a"
                    " JOIN artifact_values v ON v.artifact_id = a.id"
                    " AND v.run_id = a.run_id"
                    f" WHERE a.run_id IN ({marks})", chunk).fetchall():
                loaded[run_id].values[artifact_id] = pickle.loads(blob)

    def list_runs(self) -> List[RunSummary]:
        rows = self._connection.execute(
            "SELECT id, workflow_id, workflow_name, status, started,"
            " finished FROM runs ORDER BY started, id").fetchall()
        return [RunSummary(*row) for row in rows]

    def delete_run(self, run_id: str) -> bool:
        cursor = self._connection.cursor()
        cursor.execute(_DELETE_VALUES, (run_id,))
        # every other table cascades from runs
        cursor.execute("DELETE FROM runs WHERE id = ?", (run_id,))
        self._connection.commit()
        return cursor.rowcount > 0

    # -- workflows -------------------------------------------------------
    def save_workflow(self, prospective: ProspectiveProvenance) -> None:
        """Store the snapshot, remembering it as the last one saved.

        The spec column is the snapshot's own :meth:`ProspectiveProvenance
        .spec_json`, encoded once per snapshot; a run header whose spec
        is that snapshot's spec reuses the same text (see
        :meth:`_encoded_spec`).  A row that already holds exactly these
        values is left alone, so rerunning one workflow version writes
        and commits nothing here.
        """
        row = (prospective.workflow_id, prospective.workflow_name,
               prospective.signature, prospective.spec_json(),
               json.dumps(prospective.interfaces))
        stored = self._connection.execute(
            "SELECT 1 FROM workflows WHERE id = ? AND name = ?"
            " AND signature = ? AND spec = ? AND interfaces = ?",
            row).fetchone()
        if stored is None:
            self._connection.execute(
                "INSERT OR REPLACE INTO workflows VALUES (?,?,?,?,?)", row)
            self._connection.commit()
        self._saved_snapshot = prospective

    def _encoded_spec(self, spec: Dict[str, Any]) -> str:
        """``json.dumps(spec)``, reused from the last saved snapshot when
        ``spec`` is that snapshot's own spec (one slot, checked by
        identity: a captured run carries its snapshot's spec object)."""
        saved = self._saved_snapshot
        if saved is not None and spec is saved.spec:
            return saved.spec_json()
        return json.dumps(spec)

    def load_workflow(self, workflow_id: str) -> ProspectiveProvenance:
        row = self._connection.execute(
            "SELECT id, name, signature, spec, interfaces FROM workflows"
            " WHERE id = ?", (workflow_id,)).fetchone()
        if row is None:
            raise StoreError(f"no such workflow: {workflow_id}")
        return ProspectiveProvenance(
            workflow_id=row[0], workflow_name=row[1], signature=row[2],
            spec=json.loads(row[3]), interfaces=json.loads(row[4]))

    def list_workflows(self) -> List[str]:
        rows = self._connection.execute(
            "SELECT id FROM workflows ORDER BY id").fetchall()
        return [row[0] for row in rows]

    # -- annotations -------------------------------------------------------
    def save_annotation(self, annotation: Annotation) -> None:
        self._annotation_seq += 1
        self._connection.execute(
            "INSERT OR REPLACE INTO annotations VALUES (?,?,?,?,?,?,?,?)",
            (annotation.id, annotation.target_kind, annotation.target_id,
             annotation.key, json.dumps(annotation.value),
             annotation.author, annotation.created, self._annotation_seq))
        self._connection.commit()

    def annotations_for(self, target_kind: str,
                        target_id: str) -> List[Annotation]:
        rows = self._connection.execute(
            "SELECT id, target_kind, target_id, key, value, author, created"
            " FROM annotations WHERE target_kind = ? AND target_id = ?"
            " ORDER BY seq", (target_kind, target_id)).fetchall()
        return [self._annotation_from_row(row) for row in rows]

    def all_annotations(self) -> List[Annotation]:
        rows = self._connection.execute(
            "SELECT id, target_kind, target_id, key, value, author, created"
            " FROM annotations ORDER BY id").fetchall()
        return [self._annotation_from_row(row) for row in rows]

    @staticmethod
    def _annotation_from_row(row: Tuple) -> Annotation:
        return Annotation(id=row[0], target_kind=row[1], target_id=row[2],
                          key=row[3], value=json.loads(row[4]),
                          author=row[5], created=row[6])

    def _current_annotation_seq(self) -> int:
        row = self._connection.execute(
            "SELECT COALESCE(MAX(seq), 0) FROM annotations").fetchone()
        return int(row[0])

    # -- pushed-down select -----------------------------------------------
    #: entity -> (table, {row field -> column}); columns double as the
    #: SELECT list, so row dicts build positionally from each SQL row.
    _TABLES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
        "runs": ("runs", ("id", "workflow_id", "workflow_name",
                          "signature", "status", "started", "finished")),
        "executions": ("executions",
                       ("id", "run_id", "module_id", "module_type",
                        "module_name", "status", "started", "finished",
                        "error", "cache_key", "cached_from", "parameters")),
        "artifacts": ("artifacts",
                      ("id", "run_id", "value_hash", "type_name",
                       "created_by", "role", "also_produced_by",
                       "size_hint")),
        "annotations": ("annotations",
                        ("id", "target_kind", "target_id", "key", "value",
                         "author", "created")),
    }
    #: fields stored as JSON text — filters on them stay in Python.
    _JSON_FIELDS = {"parameters", "also_produced_by", "value"}
    #: fields whose column is numeric (REAL/INTEGER).  Filters on these
    #: push down only with numeric values, and contains stays a Python
    #: residual — SQLite affinity would otherwise coerce string operands
    #: (e.g. started = '1.5' matching 1.5) where Python does not.
    _NUMERIC_FIELDS = {"started", "finished", "size_hint", "created"}

    def select(self, query: ProvQuery) -> ResultCursor:
        """Evaluate ``query`` natively in SQL.

        Filters on plain columns compile to ``WHERE``; sorting always
        compiles to ``ORDER BY``.  Only filters over JSON-encoded fields
        (``param.*``, ``parameters``, ``also_produced_by``, annotation
        ``value``) are applied as a Python residual pass — and in that case
        the window (offset/limit) is applied after the residual so
        pagination boundaries match the generic oracle exactly.  No code
        path deserializes a stored run.

        A lineage clause compiles to a single ``WITH RECURSIVE`` CTE over
        the ``lineage`` edge table, so transitive ancestry is answered by
        one SQL statement, never by loading a run.

        The cursor streams from a live SQL read on the store's
        connection; as with any DB-API cursor, writing to the store while
        iterating has SQLite's usual undefined row visibility — drain
        with ``.all()`` first when mutating inside the loop.
        """
        table, columns = self._TABLES[query.entity]
        column_set = set(columns)
        prefix = ""
        prefix_params: List[Any] = []
        clauses: List[str] = []
        params: List[Any] = []
        if query.lineage is not None:
            prefix, prefix_params = self._compile_lineage(
                query.lineage, clauses, params)
        residual: List[Filter] = []
        for filt in query.filters:
            clause = self._compile_filter(filt, column_set, params)
            if clause is None:
                residual.append(filt)
            else:
                clauses.append(clause)
        order_sql = ", ".join(
            f"{name} {'DESC' if descending else 'ASC'}"
            for name, descending in query.order_keys())
        sql = f"{prefix}SELECT {', '.join(columns)} FROM {table}"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += f" ORDER BY {order_sql}"
        push_window = not residual
        if push_window:
            if query.limit_count is not None:
                sql += f" LIMIT {int(query.limit_count)}"
                if query.offset_count:
                    sql += f" OFFSET {int(query.offset_count)}"
            elif query.offset_count:
                sql += f" LIMIT -1 OFFSET {int(query.offset_count)}"
        rows = self._stream_rows(sql, tuple(prefix_params + params),
                                 query.entity, columns)
        if push_window:
            return ResultCursor(project_rows(rows, query.fields))
        matched = list(apply_filters(rows, residual))
        windowed = apply_window(matched, query)
        return ResultCursor(project_rows(windowed, query.fields))

    def _compile_filter(self, filt: Filter, column_set: set,
                        params: List[Any]) -> Optional[str]:
        """SQL clause for one filter, or None when it must stay residual.

        A filter pushes down only when SQL comparison semantics match the
        generic oracle's Python semantics for the operand types; anything
        affinity could coerce differently stays residual.
        """
        if filt.field not in column_set or filt.field in self._JSON_FIELDS:
            return None
        operators = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=",
                     "gt": ">", "ge": ">="}
        if filt.op in operators:
            if not self._value_matches_column(filt.field, filt.op,
                                              filt.value):
                return None
            params.append(filt.value)
            return f"{filt.field} {operators[filt.op]} ?"
        if filt.op == "contains" and filt.field not in self._NUMERIC_FIELDS:
            params.append(str(filt.value))
            return f"instr({filt.field}, ?) > 0"
        if filt.op == "in" and isinstance(filt.value,
                                          (list, tuple, set, frozenset)):
            values = list(filt.value)
            if not values:
                return "1 = 0"
            # one bound parameter per element: stay under conservative
            # SQLITE_MAX_VARIABLE_NUMBER builds (999) by falling back to
            # the residual pass for huge membership lists
            if len(values) > 900:
                return None
            if not all(self._value_matches_column(filt.field, "eq", value)
                       for value in values):
                return None
            params.extend(values)
            return f"{filt.field} IN ({', '.join('?' * len(values))})"
        return None

    def _compile_lineage(self, clause: LineageClause, clauses: List[str],
                         params: List[Any]) -> Tuple[str, List[Any]]:
        """Compile a lineage clause to a recursive closure CTE.

        Returns the ``WITH RECURSIVE`` prefix and its bound parameters,
        and appends the membership conditions (hash in closure, hash not a
        seed) to the caller's WHERE clause list.  Two CTE shapes: the
        unbounded one dedups on hash alone (cycle-safe without a depth
        column), the bounded one carries a hop counter.
        """
        seeds = sorted(self._lineage_seed_hashes(clause.key))
        seed_marks = ", ".join("?" * len(seeds))
        if clause.direction == "up":
            start, step = "derived_hash", "source_hash"
        else:
            start, step = "source_hash", "derived_hash"
        scope = ""
        scope_params: List[Any] = []
        if clause.within_runs is not None:
            run_ids = list(clause.within_runs)
            if run_ids:
                scope = f" AND run_id IN ({', '.join('?' * len(run_ids))})"
                scope_params = run_ids
            else:
                scope = " AND 1 = 0"
        l_scope = scope.replace("run_id", "l.run_id")
        prefix_params: List[Any] = list(seeds) + scope_params
        if clause.max_depth is None:
            prefix = (f"WITH RECURSIVE lineage_closure(hash) AS ("
                      f"SELECT {step} FROM lineage"
                      f" WHERE {start} IN ({seed_marks}){scope}"
                      f" UNION SELECT l.{step} FROM lineage l"
                      f" JOIN lineage_closure c ON l.{start} = c.hash"
                      f" WHERE 1 = 1{l_scope}) ")
        else:
            prefix = (f"WITH RECURSIVE lineage_closure(hash, depth) AS ("
                      f"SELECT {step}, 1 FROM lineage"
                      f" WHERE {start} IN ({seed_marks}){scope}"
                      f" UNION SELECT l.{step}, c.depth + 1 FROM lineage l"
                      f" JOIN lineage_closure c ON l.{start} = c.hash"
                      f" WHERE c.depth < ?{l_scope}) ")
            prefix_params.append(int(clause.max_depth))
        prefix_params.extend(scope_params)
        clauses.append(
            "value_hash IN (SELECT hash FROM lineage_closure)")
        clauses.append(f"value_hash NOT IN ({seed_marks})")
        params.extend(seeds)
        return prefix, prefix_params

    def lineage_closure(self, key: str, *, direction: str = "up",
                        max_depth: Optional[int] = None,
                        within_runs: Optional[Iterable[str]] = None
                        ) -> frozenset:
        """Transitive closure of one seed as a single recursive CTE.

        Same compilation as a ``select`` lineage clause, but the closure
        node set itself is the answer — the entry point for run-level
        replay-chain walks (``run:<id>`` seeds), where no artifact row
        carries the matching hash.
        """
        clause = LineageClause(direction, key, max_depth, within_runs)
        prefix, prefix_params = self._compile_lineage(clause, [], [])
        rows = self._connection.execute(
            f"{prefix}SELECT hash FROM lineage_closure",
            tuple(prefix_params)).fetchall()
        seeds = set(self._lineage_seed_hashes(clause.key))
        return frozenset(row[0] for row in rows) - seeds

    def _lineage_seed_hashes(self, key: str) -> List[str]:
        """Resolve a clause key: an artifact id maps to its value hash(es);
        anything unknown is taken to be a value hash already."""
        rows = self._connection.execute(
            "SELECT DISTINCT value_hash FROM artifacts WHERE id = ?",
            (key,)).fetchall()
        return [row[0] for row in rows] if rows else [key]

    def _value_matches_column(self, field: str, op: str,
                              value: Any) -> bool:
        """True when SQLite compares ``value`` to this column exactly as
        Python would.  Cross-type operands stay residual: affinity would
        coerce them (TEXT affinity turns ``name = 1`` into ``'1' = '1'``,
        REAL affinity turns ``started = '1.5'`` into ``1.5 = 1.5``) where
        Python equality is False and ordering raises."""
        if field in self._NUMERIC_FIELDS:
            return isinstance(value, (int, float))
        return isinstance(value, str)

    def _stream_rows(self, sql: str, params: Tuple, entity: str,
                     columns: Tuple[str, ...]
                     ) -> Iterator[Dict[str, Any]]:
        """Lazily yield row dicts from a SQL cursor, decoding JSON fields."""
        cursor = self._connection.execute(sql, params)
        while True:
            batch = cursor.fetchmany(256)
            if not batch:
                return
            for values in batch:
                row = dict(zip(columns, values))
                # fast-path the overwhelmingly common empty encodings —
                # a json.loads per row shows up in large result streams
                if entity == "executions":
                    encoded = row["parameters"]
                    row["parameters"] = ({} if encoded == "{}"
                                         else json.loads(encoded))
                elif entity == "artifacts":
                    encoded = row["also_produced_by"]
                    row["also_produced_by"] = (
                        [] if encoded == "[]"
                        else sorted(json.loads(encoded)))
                elif entity == "annotations":
                    row["value"] = json.loads(row["value"])
                yield row

    # -- raw SQL ----------------------------------------------------------
    def sql(self, query: str, params: Tuple = ()) -> List[Tuple]:
        """Run a read-only SQL query against the provenance schema.

        Raises :class:`StoreError` for statements that would write.
        """
        lowered = query.strip().lower()
        if any(lowered.startswith(word) or f" {word} " in lowered
               for word in _WRITE_WORDS):
            raise StoreError("sql() only accepts read-only queries")
        return self._connection.execute(query, params).fetchall()

    def close(self) -> None:
        self._connection.close()


class _RelationalRunStream(RunStreamWriter):
    """Per-batch-transaction ingest stream for :class:`RelationalStore`.

    The stream writes its rows through the same :func:`_replace_header`
    and :func:`_insert_rows` as ``save_runs``; all it adds is the
    ``stream_state`` journal.  Staged executions/artifacts live in Python
    between flushes; each ``flush`` inserts them and advances the journal
    in one commit, continuing the run's ``seq`` numbering across batches
    so a streamed run reloads in exactly the order it was streamed.
    Lineage edges are derived per execution from the artifacts seen so
    far instead of requiring the whole run in memory.
    """

    def __init__(self, store: RelationalStore, header: WorkflowRun,
                 resume: bool = False) -> None:
        self._store = store
        self._header = header
        self._seq = 0
        self._pending_execs: List[ModuleExecution] = []
        self._pending_arts: Dict[str, Tuple[DataArtifact, Any, bool]] = {}
        self._art_hashes: Dict[str, str] = {}
        self._done = False
        self._prior_flushes = 0
        self.flushes = 0
        self.epoch = 1
        self.already_ingested: frozenset = frozenset()
        cursor = store._connection.cursor()
        if resume:
            self._attach(cursor)
            return
        prior = cursor.execute(
            "SELECT epoch FROM stream_state WHERE run_id = ?",
            (header.id,)).fetchone()
        if prior is not None:
            self.epoch = int(prior[0]) + 1
        # the header lands with status 'running' regardless of what the
        # in-memory run says: paired with its stream_state journal row,
        # that is the crash signature fsck looks for.  finish() seals the
        # real status and removes the journal row atomically.
        _replace_header(store, cursor, header, "running")
        cursor.execute(
            "INSERT INTO stream_state VALUES (?,?,?,?,?)",
            (header.id, self.epoch, 0, 0, time.time()))
        store._connection.commit()
    def _attach(self, cursor: sqlite3.Cursor) -> None:
        """Re-attach to an interrupted stream at its last committed batch."""
        run_id = self._header.id
        state = cursor.execute(
            "SELECT epoch, committed_seq, flushes FROM stream_state"
            " WHERE run_id = ?", (run_id,)).fetchone()
        if state is None:
            raise StoreError(
                f"run {run_id} has no interrupted stream to resume")
        self.epoch = int(state[0]) + 1
        self._seq = int(state[1])
        self._prior_flushes = int(state[2])
        # everything at or past the committed watermark was torn mid-batch:
        # drop it so the resumed feed re-ingests those executions cleanly
        cursor.execute(
            "DELETE FROM executions WHERE run_id = ? AND seq >= ?",
            (run_id, self._seq))
        self.already_ingested = frozenset(
            row[0] for row in cursor.execute(
                "SELECT id FROM executions WHERE run_id = ?",
                (run_id,)).fetchall())
        for art_id, value_hash in cursor.execute(
                "SELECT id, value_hash FROM artifacts WHERE run_id = ?",
                (run_id,)).fetchall():
            self._art_hashes[art_id] = value_hash
        cursor.execute(
            "UPDATE stream_state SET epoch = ?, updated = ?"
            " WHERE run_id = ?", (self.epoch, time.time(), run_id))
        self._store._connection.commit()

    def _check_open(self) -> None:
        if self._done:
            raise StoreError("run stream already finished or aborted")

    def add_artifact(self, artifact: Any, *, value: Any = None,
                     has_value: Optional[bool] = None) -> None:
        self._check_open()
        self._art_hashes[artifact.id] = artifact.value_hash
        if has_value is None:
            has_value = value is not None
        # keyed by id: a re-add (metadata evolving mid-stream) replaces
        # the staged record, and INSERT OR REPLACE updates a row an
        # earlier flush already committed
        self._pending_arts[artifact.id] = (artifact, value, bool(has_value))

    def add_execution(self, execution: Any) -> None:
        self._check_open()
        self._pending_execs.append(execution)

    def flush(self) -> None:
        self._check_open()
        self.flushes += 1
        if not self._pending_execs and not self._pending_arts:
            return
        batch_start = self._seq
        try:
            self._flush_batch()
        except BaseException:
            # a mid-batch failure must not leave half the batch sitting in
            # the open transaction — a later finish() would commit torn
            # state.  Roll back, restore the seq watermark, keep the staged
            # items: the batch commits whole or not at all, and the caller
            # may retry the same flush.
            self._store._connection.rollback()
            self._seq = batch_start
            raise
        self._pending_execs = []
        self._pending_arts = {}

    def _flush_batch(self) -> None:
        """Insert the staged batch and advance the journal, one commit."""
        run_id = self._header.id
        cursor = self._store._connection.cursor()
        self._seq = _insert_rows(self._store, cursor, run_id,
                                 self._pending_execs, self._seq,
                                 self._art_hashes,
                                 self._pending_arts.values())
        # journal advance rides in the batch transaction, so the committed
        # watermark and the committed rows can never disagree on disk
        cursor.execute(
            "UPDATE stream_state SET committed_seq = ?, flushes = ?,"
            " updated = ? WHERE run_id = ?",
            (self._seq, self._prior_flushes + self.flushes, time.time(),
             run_id))
        self._store._connection.commit()

    def finish(self, *, status: Optional[str] = None,
               finished: Optional[float] = None,
               tags: Optional[Dict[str, Any]] = None) -> str:
        self.flush()
        self._done = True
        header = self._header
        final_tags = dict(tags) if tags is not None else dict(header.tags)
        cursor = self._store._connection.cursor()
        cursor.execute(
            "UPDATE runs SET status = ?, finished = ?, tags = ?"
            " WHERE id = ?",
            (status if status is not None else header.status,
             finished if finished is not None else header.finished,
             json.dumps(final_tags), header.id))
        cursor.execute("DELETE FROM stream_state WHERE run_id = ?",
                       (header.id,))
        edge = run_edge(header.id, final_tags)
        if edge is not None:
            cursor.execute(_INSERT_EDGE, edge)
        self._store._connection.commit()
        return header.id

    def abort(self) -> None:
        if self._done:
            return
        self._done = True
        self._pending_execs = []
        self._pending_arts = {}
        self._store._connection.rollback()
        self._store.delete_run(self._header.id)
