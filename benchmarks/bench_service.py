"""E15 — provenance service: ingest throughput scales with shards.

Regenerates: the serving-layer claim behind ``repro serve`` — partitioning
runs across shard files turns the store's single writer lock into N
independent ones, so concurrent ingest throughput grows with the shard
count while pooled readers keep answering queries against the same data.

The drill is mixed traffic against a *live* server (real sockets, one
thread per connection): N writer clients saving pre-built runs as fast
as acks come back, M query clients interleaving ``select`` calls.  Each
shard is wrapped in a simulated storage latency (the sleep releases the
GIL, standing in for the fsync/network cost of a real storage device —
the same technique the E13 scheduler bench uses for I/O-bound stages) so
the measurement isolates the *architecture*: with one shard every write
serializes behind one lock; with four shards writes overlap up to 4-way.

Asserted: aggregate ingest throughput at ``shards=4`` is >=2x the
``shards=1`` figure (``BENCH_SERVICE_MIN_SCALING`` overrides the bar,
e.g. for cramped CI runners), and every acknowledged run reloads
byte-identical after the storm.  Raw unemulated throughput is also
measured and reported — informational only, since on a single-core host
it mostly measures the Python interpreter, not the sharding.

When the ``BENCH_JSON`` environment variable names a file, the measured
numbers are dumped there so CI can archive a ``BENCH_*.json`` trajectory
across builds.
"""

import os
import threading
import time

from benchmarks.conftest import BenchRecorder, report_row
from repro.core import ProvenanceCapture
from repro.service import (ProvenanceClient, ProvenanceService,
                           ShardedProvenanceStore)
from repro.storage import ProvQuery, RelationalStore
from repro.workflow import Executor
from repro.workloads import clone_run
from tests.conftest import build_fig1_workflow

WRITERS = 6
READERS = 2
#: Simulated per-commit storage latency (sleep inside the shard lock).
WRITE_LATENCY = 0.025
#: Client-side think time between reader queries.
READ_THINK = 0.005
#: Measurement window per configuration.
DURATION = 1.5
SHARD_COUNTS = (1, 4)
MIN_SCALING = float(os.environ.get("BENCH_SERVICE_MIN_SCALING", "2.0"))

_record = BenchRecorder("E15-service", writers=WRITERS, readers=READERS,
                        write_latency_s=WRITE_LATENCY)


class _LatencyShardedStore(ShardedProvenanceStore):
    """Sharded store whose run commits pay a simulated device latency.

    The sleep happens inside the service's per-shard write lock — exactly
    where a real store would wait on fsync — and releases the GIL, so
    commits on *different* shards overlap while commits on the same shard
    still serialize.  Zero latency degrades to the plain sharded store.
    """

    def __init__(self, shards, latency, **kwargs):
        super().__init__(shards, **kwargs)
        self.latency = latency

    def save_run(self, run):
        if self.latency:
            time.sleep(self.latency)
        return super().save_run(run)


def _build_runs(registry, per_writer):
    """Pre-built unique runs per writer: cloning is CPU work that must
    happen outside the measured window."""
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    Executor(registry, listeners=[capture]).execute(
        build_fig1_workflow(size=6, level=90.0))
    base = capture.last_run()
    return [[clone_run(base, f"w{writer}n{index}")
             for index in range(per_writer)]
            for writer in range(WRITERS)]


def _storm(service, runs_per_writer, duration):
    """N writers + M readers against ``service`` for ``duration`` seconds.

    Returns (runs acked, selects answered, acked run ids).
    """
    start_gate = threading.Event()
    stop = threading.Event()
    acked = [0] * WRITERS
    acked_ids = [[] for _ in range(WRITERS)]
    reads = [0] * READERS
    errors = []

    def writer(index):
        client = ProvenanceClient(service.host, service.port)
        try:
            start_gate.wait()
            for run in runs_per_writer[index]:
                if stop.is_set():
                    break
                client.save_run(run)
                acked[index] += 1
                acked_ids[index].append(run.id)
        except BaseException as exc:  # noqa: BLE001 — collected
            errors.append(exc)
        finally:
            client.close()

    def reader(index):
        client = ProvenanceClient(service.host, service.port)
        query = ProvQuery.runs().order_by("-started").limit(10)
        try:
            start_gate.wait()
            while not stop.is_set():
                client.select(query).all()
                reads[index] += 1
                time.sleep(READ_THINK)
        except BaseException as exc:  # noqa: BLE001 — collected
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=writer, args=(index,))
               for index in range(WRITERS)]
    threads += [threading.Thread(target=reader, args=(index,))
                for index in range(READERS)]
    for thread in threads:
        thread.start()
    start_gate.set()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    return (sum(acked), sum(reads),
            [run_id for ids in acked_ids for run_id in ids])


def _measure(registry, tmp_path, shards, latency, duration, tag):
    """Run one storm against a fresh ``shards``-way server; returns
    (ingest ops/s, read ops/s)."""
    per_writer = len(_RUNS_CACHE[0])
    store = _LatencyShardedStore(
        [RelationalStore(str(tmp_path / f"{tag}-s{index}.db"))
         for index in range(shards)],
        latency)
    with ProvenanceService(store, read_pool=READERS,
                           close_store=True) as service:
        ingested, reads, acked_ids = _storm(service, _RUNS_CACHE, duration)
        assert 0 < ingested <= WRITERS * per_writer
        # every acked run is whole and present after the storm
        with ProvenanceClient(service.host, service.port) as client:
            listed = {summary.run_id for summary in client.list_runs()}
            assert set(acked_ids) <= listed
            spot = client.load_run(acked_ids[-1])
            assert len(spot.executions) == len(_RUNS_CACHE[0][0].executions)
            assert client.stats()["counters"]["runs_ingested"] == ingested
    return ingested / duration, reads / duration


_RUNS_CACHE = None


def test_ingest_throughput_scales_with_shards(registry, tmp_path):
    """Mixed traffic: 4-shard ingest throughput >=2x the 1-shard figure."""
    global _RUNS_CACHE
    #: enough runs that no writer drains its list inside the window even
    #: at ideal scaling (4 shards / 25ms => ~160 acks/s over 6 writers)
    _RUNS_CACHE = _build_runs(registry, per_writer=80)
    rates = {}
    for shards in SHARD_COUNTS:
        write_rate, read_rate = _measure(
            registry, tmp_path, shards, WRITE_LATENCY, DURATION,
            f"lat{shards}")
        rates[shards] = write_rate
        report_row("E15", op="mixed-traffic", shards=shards,
                   writers=WRITERS, readers=READERS,
                   latency_ms=round(WRITE_LATENCY * 1000),
                   ingest_per_s=round(write_rate, 1),
                   reads_per_s=round(read_rate, 1))
        _record(**{f"ingest_{shards}shard_per_s": round(write_rate, 1),
                   f"reads_{shards}shard_per_s": round(read_rate, 1)})
    scaling = rates[SHARD_COUNTS[-1]] / rates[SHARD_COUNTS[0]]
    report_row("E15", op="scaling", shards=f"{SHARD_COUNTS[0]}->"
               f"{SHARD_COUNTS[-1]}", scaling=round(scaling, 2),
               bar=MIN_SCALING)
    _record(scaling=round(scaling, 2), min_scaling=MIN_SCALING)
    assert scaling >= MIN_SCALING, (
        f"expected >={MIN_SCALING}x ingest scaling from "
        f"{SHARD_COUNTS[0]} to {SHARD_COUNTS[-1]} shards, got "
        f"{scaling:.2f}x ({rates[SHARD_COUNTS[0]]:.1f} -> "
        f"{rates[SHARD_COUNTS[-1]]:.1f} runs/s)")


def test_raw_throughput_informational(registry, tmp_path):
    """Unemulated (latency=0) throughput, recorded for the trajectory.

    On a single-core host this measures the interpreter, not the
    sharding, so it carries no assertion beyond liveness.
    """
    global _RUNS_CACHE
    if _RUNS_CACHE is None:
        _RUNS_CACHE = _build_runs(registry, per_writer=80)
    for shards in SHARD_COUNTS:
        write_rate, read_rate = _measure(
            registry, tmp_path, shards, 0.0, 0.8, f"raw{shards}")
        report_row("E15", op="raw", shards=shards,
                   ingest_per_s=round(write_rate, 1),
                   reads_per_s=round(read_rate, 1),
                   cores=os.cpu_count())
        _record(**{f"raw_ingest_{shards}shard_per_s": round(write_rate, 1),
                   f"raw_reads_{shards}shard_per_s": round(read_rate, 1)},
                cores=os.cpu_count())
