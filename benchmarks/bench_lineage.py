"""E14 — cross-run lineage index vs. the load-and-traverse oracle.

Regenerates the survey's central systems claim — efficient storage and
querying of provenance *graphs* — as a measured comparison.  Over a corpus
of 300 stored runs forming one long cross-run derivation chain:

* **ancestry speedup**: the relational backend must answer a full
  cross-run upstream closure through its ``WITH RECURSIVE`` lineage CTE
  at least **10x** faster than the generic oracle (which deserializes
  every run and rebuilds the edge index in Python), returning the
  *identical* row set — and without ever calling ``load_run``;
* **maintenance ceiling**: keeping the index up to date during bulk
  ingest must cost at most 2x the no-index ingest (measured ~1.1x).

When the ``BENCH_JSON`` environment variable names a file, the measured
numbers are dumped there so CI can archive a ``BENCH_*.json`` trajectory
across builds.
"""

import statistics
import time

import pytest

from benchmarks.conftest import BenchRecorder, report_row
from repro.storage import (ProvQuery, ProvenanceStore, RelationalStore,
                           lineage_edges)
from repro.workloads import derivation_chain_corpus

RUNS = 300
STEPS = 4
SIDES = 2

_record = BenchRecorder("E14-lineage", runs=RUNS, steps=STEPS)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_of(fn, repeats=3):
    best, result = None, None
    for _ in range(repeats):
        result, elapsed = _timed(fn)
        best = elapsed if best is None else min(best, elapsed)
    return result, best


@pytest.fixture(scope="module")
def corpus():
    return derivation_chain_corpus(runs=RUNS, steps=STEPS, sides=SIDES)


@pytest.fixture(scope="module")
def store(corpus):
    store = RelationalStore()
    store.save_runs(corpus)
    return store


def test_cross_run_ancestry_10x_speedup(store, corpus, monkeypatch):
    """Indexed ancestry over 300 runs: >=10x faster, identical rows."""
    # ancestry of the final chain product spans the whole corpus
    query = (ProvQuery.artifacts()
             .upstream_of(f"link-0-{RUNS:04d}")
             .order_by("run_id", "id"))
    # alternating repeats, each side timed as its median, so one slow
    # or lucky pass on a shared host cannot swing the ratio
    oracle_times, indexed_times = [], []
    for _ in range(5):
        oracle_rows, elapsed = _timed(
            lambda: ProvenanceStore.select(store, query).all())
        oracle_times.append(elapsed)
        monkeypatch.setattr(
            store, "load_run",
            lambda run_id: pytest.fail("indexed ancestry must not load runs"))
        indexed_rows, elapsed = _timed(lambda: store.select(query).all())
        indexed_times.append(elapsed)
        monkeypatch.undo()
    oracle_seconds = statistics.median(oracle_times)
    indexed_seconds = statistics.median(indexed_times)
    assert indexed_rows == oracle_rows, \
        "indexed ancestry diverges from the load-and-traverse oracle"
    assert len(indexed_rows) >= RUNS, "closure should span the corpus"
    speedup = oracle_seconds / indexed_seconds
    report_row("E14", op="cross-run-ancestry", runs=RUNS,
               rows=len(indexed_rows),
               oracle_s=round(oracle_seconds, 4),
               indexed_s=round(indexed_seconds, 4),
               speedup=round(speedup, 1))
    _record(ancestry_rows=len(indexed_rows),
            oracle_s=round(oracle_seconds, 6),
            indexed_s=round(indexed_seconds, 6),
            speedup=round(speedup, 2))
    assert speedup >= 10.0, (
        f"expected >=10x indexed-vs-oracle ancestry speedup, got "
        f"{speedup:.1f}x ({oracle_seconds:.4f}s vs {indexed_seconds:.4f}s)")


def test_scoped_and_bounded_ancestry_match_oracle(store):
    """Depth-bounded / run-scoped variants agree with the oracle too."""
    run_ids = [summary.run_id for summary in store.list_runs()]
    for query in (
            ProvQuery.artifacts().upstream_of(f"link-0-{RUNS:04d}",
                                              max_depth=STEPS),
            ProvQuery.artifacts().downstream_of("link-0-0000"),
            ProvQuery.artifacts().downstream_of(
                "link-0-0000", within_runs=run_ids[:10])):
        assert store.select(query).all() == \
            ProvenanceStore.select(store, query).all()


def test_index_maintenance_overhead_ceiling(corpus, monkeypatch):
    """Bulk ingest with index upkeep stays within 2x of no-index ingest."""
    def ingest():
        with RelationalStore() as fresh:
            fresh.save_runs(corpus)

    _, with_index = _best_of(ingest)
    import repro.storage.relational as relational_module
    monkeypatch.setattr(relational_module, "execution_edges",
                        lambda run_id, execution, hashes: ())
    _, without_index = _best_of(ingest)
    monkeypatch.undo()
    overhead = with_index / without_index
    report_row("E14", op="ingest-overhead", runs=len(corpus),
               with_index_s=round(with_index, 4),
               without_index_s=round(without_index, 4),
               overhead_x=round(overhead, 2))
    _record(ingest_with_index_s=round(with_index, 6),
            ingest_without_index_s=round(without_index, 6),
            ingest_overhead_x=round(overhead, 2))
    assert overhead <= 2.0, (
        f"index maintenance inflated bulk ingest {overhead:.2f}x "
        f"(ceiling 2x; typical ~1.1x)")


def test_edge_count_matches_python_extractor(store, corpus):
    """The persisted edge table is exactly the Python extractor's output."""
    expected = sorted(tuple(edge) for run in corpus
                      for edge in lineage_edges(run))
    stored = sorted(store.sql(
        "SELECT derived_hash, source_hash, run_id, execution_id"
        " FROM lineage"))
    assert stored == expected


@pytest.mark.parametrize("depth", [1, 2, None])
def test_ancestry_timing(benchmark, store, depth):
    """pytest-benchmark timings for bounded and unbounded closures."""
    query = ProvQuery.artifacts().upstream_of(f"link-0-{RUNS:04d}",
                                              max_depth=depth)
    rows = benchmark(lambda: store.select(query).all())
    assert rows
    report_row("E14", op="ancestry-timing", depth=depth, rows=len(rows))
