"""Benchmark of the whole provenance path, one workload per process.

    python3 perfbench/run.py --workload rerun-warm --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics, taken
from spans recorded around the calls into each layer (a Chrome trace is
written under ``.bench_build/perfbench/``).  The line before it is a JSON
object of notes: input fingerprint, sample counts, errors, and why a
per-layer metric does not apply to the workload.  The exit code is 0 only
when every operation's output checked out.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: the workloads BENCHMARK.json lists, which ``--workload all`` runs
NAMES = ("rerun-warm", "service-mixed", "fanout-process")
#: runnable by name but not in BENCHMARK.json: too sensitive to the host
#: for a gate (see README.md)
UNGATED = ("dag-cold",)

SERVICE_ONLY = "no service in this workload; the service-mixed workload " \
               "measures it"
NO_RUNS = "the timed phase executes no workflow: runs were captured in " \
          "set-up and are only ingested"
NOT_APPLICABLE: Dict[str, Dict[str, str]] = {
    "dag-cold": {
        "cache.leases_left": "probed on rerun-warm, the workload that "
                             "shares a persistent cache file",
        "service.ingest_overhead_ms": SERVICE_ONLY,
        "service.select_overhead_ms": SERVICE_ONLY,
        "service.lineage_overhead_ms": SERVICE_ONLY,
        "scheduler.worker_rss_mb": "the serial backend starts no worker "
                                   "process",
    },
    "rerun-warm": {
        "cache.put_us": "every execution is a cache hit, so nothing is put",
        "compute.busy_ms": "every execution is a cache hit: nothing "
                           "computes",
        "scheduler.utilization": "every execution is a cache hit: nothing "
                                 "computes",
        "service.ingest_overhead_ms": SERVICE_ONLY,
        "service.select_overhead_ms": SERVICE_ONLY,
        "service.lineage_overhead_ms": SERVICE_ONLY,
        "scheduler.worker_rss_mb": "the serial backend starts no worker "
                                   "process",
    },
    "fanout-process": {
        "cache.leases_left": "probed on rerun-warm, the workload that "
                             "shares a persistent cache file",
        "service.ingest_overhead_ms": SERVICE_ONLY,
        "service.select_overhead_ms": SERVICE_ONLY,
        "service.lineage_overhead_ms": SERVICE_ONLY,
    },
    "service-mixed": {name: NO_RUNS for name in (
        "spec.topo_ms", "validation.check_ms", "engine.self_us_per_module",
        "prospective.save_workflow_ms", "compute.busy_ms", "cache.get_us",
        "cache.hit_ratio", "cache.put_us", "cache.lease_us",
        "cache.lease_wait_ms", "cache.leases_left", "capture.event_us",
        "capture.run_finish_ms", "scheduler.utilization",
        "scheduler.worker_rss_mb")},
}


def cpu_ticks() -> List[int]:
    """The machine's CPU time counters (Linux ``/proc/stat``), or []."""
    try:
        with open("/proc/stat") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings — noise no benchmark design removes, so
    the notes report it next to the figures it disturbed."""
    if len(before) < 8 or len(after) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])
    return round(100.0 * deltas[7] / total, 2) if total else None


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: at most this many slices of a timed phase for :func:`sliced_percentile`
SLICES = 10
#: ... and at least this many samples in each
SLICE_SAMPLES = 20


def sliced_percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile of each consecutive slice of ``values``
    (latencies in completion order), and the median of those.

    The host's speed drifts by tens of percent within seconds; a burst
    that slows a tenth of the phase moves a whole-phase p95 but not the
    median of the slices' p95s.  Up to :data:`SLICES` slices of at least
    :data:`SLICE_SAMPLES` samples; fewer samples make one slice, the
    plain percentile.
    """
    slices = max(1, min(SLICES, len(values) // SLICE_SAMPLES))
    size = len(values)
    return statistics.median(
        percentile(values[i * size // slices:(i + 1) * size // slices], q)
        for i in range(slices)) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(name: str, setup_times: List[float], outcome,
               rss_mb: float) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one untraced timed phase."""
    samples = outcome.samples
    # on service-mixed the runs were executed in set-up: recording one
    # is its ingest
    run_latencies = samples.get("run", samples.get("ingest", []))
    elapsed = outcome.elapsed
    ms = 1000.0
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(rss_mb, "MiB"),
        "modules_per_s": _metric(outcome.modules / elapsed, "1/s"),
        "run_p50_ms": _metric(
            sliced_percentile(run_latencies, 50) * ms, "ms"),
        "ingest_runs_per_s": _metric(outcome.runs / elapsed, "1/s"),
        "ingest_p50_ms": _metric(
            sliced_percentile(samples.get("ingest", []), 50) * ms, "ms"),
        "ingest_p95_ms": _metric(
            sliced_percentile(samples.get("ingest", []), 95) * ms, "ms"),
        "select_p50_ms": _metric(
            sliced_percentile(samples.get("select", []), 50) * ms, "ms"),
        "select_p95_ms": _metric(
            sliced_percentile(samples.get("select", []), 95) * ms, "ms"),
        "lineage_p50_ms": _metric(
            sliced_percentile(samples.get("lineage", []), 50) * ms, "ms"),
    }


def throughput(name: str, outcome) -> float:
    """The rate ``trace.overhead_pct`` compares: modules recorded per
    second, or runs acknowledged per second on service-mixed."""
    if name == "service-mixed":
        return outcome.runs / outcome.elapsed
    return outcome.modules / outcome.elapsed


def per_layer(name: str, workload, tracer, traced,
              untraced) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of one traced phase, from its spans (and the
    spec builds of the set-ups)."""
    def total(span: str) -> float:
        return sum(tracer.durations(span))

    runs = max(traced.runs, 1)
    modules = max(traced.modules, 1)
    self_times = tracer.self_times()
    gets = tracer.counts.get("cache.gets", 0)
    lineage_ops = len(traced.samples.get("lineage", ())) or 1
    if name == "service-mixed":
        lineage_ops = len(tracer.durations("storage.lineage")) or 1
    server = {}
    for span in tracer.spans:
        if span[0] == "storage.save_run" and span[2]:
            server[span[4]] = span[2] - span[1]
    ingest_overhead = [
        (span[2] - span[1]) - server[span[4]] for span in tracer.spans
        if span[0] == "service.save_run" and span[2] and span[4] in server]
    workers = workload.pool_size()
    execute = total("engine.execute")
    ms, us = 1000.0, 1e6
    from workloads import peak_rss_mb
    values = {
        "spec.build_ms": (_mean(tracer.durations("spec.build")) * ms,
                          "ms"),
        "spec.topo_ms": (total("spec.topo") / runs * ms, "ms"),
        "validation.check_ms": (total("validation.check") / runs * ms,
                                "ms"),
        "engine.self_us_per_module": (
            self_times.get("engine.execute", 0.0) / modules * us, "us"),
        "prospective.save_workflow_ms": (
            total("prospective.save_workflow") / runs * ms, "ms"),
        "compute.busy_ms": (total("compute") / runs * ms, "ms"),
        "cache.get_us": (_mean(tracer.durations("cache.get")) * us, "us"),
        "cache.hit_ratio": (tracer.counts.get("cache.hits", 0) / gets
                            if gets else 0.0, "ratio"),
        "cache.put_us": (_mean(tracer.durations("cache.put")) * us, "us"),
        "cache.lease_us": (_mean(tracer.durations("cache.lease")) * us,
                           "us"),
        "cache.lease_wait_ms": (total("cache.wait") * ms, "ms"),
        "cache.leases_left": (traced.extra.get("leases_left", 0), "count"),
        "capture.event_us": (_mean(tracer.durations("capture.event")) * us,
                             "us"),
        "capture.run_finish_ms": (
            _mean(tracer.durations("capture.run_finish")) * ms, "ms"),
        "storage.save_run_ms": (
            _mean(tracer.durations("storage.save_run")) * ms, "ms"),
        "storage.select_ms": (
            _mean(tracer.durations("storage.select")) * ms, "ms"),
        "storage.lineage_ms": (
            _mean(tracer.durations("storage.lineage")) * ms, "ms"),
        "storage.lineage_nodes": (
            traced.extra.get("lineage_nodes", 0) / lineage_ops, "count"),
        "service.ingest_overhead_ms": (
            percentile(ingest_overhead, 50) * ms, "ms"),
        "service.select_overhead_ms": (
            (percentile(tracer.durations("service.select"), 50)
             - percentile(tracer.durations("storage.select"), 50)) * ms
            if name == "service-mixed" else 0.0, "ms"),
        "service.lineage_overhead_ms": (
            (percentile(tracer.durations("service.lineage"), 50)
             - percentile(tracer.durations("storage.lineage"), 50)) * ms
            if name == "service-mixed" else 0.0, "ms"),
        "scheduler.utilization": (
            total("compute") / (workers * execute) if execute else 0.0,
            "ratio"),
        "scheduler.worker_rss_mb": (
            peak_rss_mb(resource.RUSAGE_CHILDREN), "MiB"),
        "trace.overhead_pct": (
            (throughput(name, untraced) / throughput(name, traced) - 1.0)
            * 100.0, "%"),
    }
    # a layer this workload does not exercise reads 0; notes say why
    for key in NOT_APPLICABLE.get(name, {}):
        values[key] = (0.0, values[key][1])
    return {key: _metric(value, unit)
            for key, (value, unit) in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, trace_dir: str = "",
                 sizes: Optional[Dict[str, Any]] = None,
                 setups: int = SETUPS, plant_fault: bool = False
                 ) -> Dict[str, Any]:
    """Run one workload in ``workdir``; returns ``{"notes": ...,
    "result": ...}``.  ``sizes`` overrides workload sizes (the tests run
    tiny ones); ``plant_fault`` makes the program's outputs wrong after
    the expected outputs were fixed."""
    from tracing import Tracer
    from workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS[name](**(sizes or {}))
    inputs = workload.generate(seed)
    notes: Dict[str, Any] = {"workload": name, "seed": seed,
                             "fingerprint": workload.fingerprint(inputs)}
    tracer = Tracer() if trace else None
    setup_times: List[float] = []
    session = None
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else None
    if cpus and workload.one_cpu:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        for attempt in range(setups):
            if session is not None:
                workload.teardown(session)
                session = None
            directory = os.path.join(workdir, f"setup-{attempt}")
            os.makedirs(directory)
            began = time.perf_counter()
            session = workload.setup(inputs, directory, tracer)
            setup_times.append(time.perf_counter() - began)
        workload.set_expectations(session)
        if plant_fault:
            plant(name, session)
        if tracer is not None:
            tracer.enabled = False
        # set-up objects are long-lived: keep the collector from
        # rescanning them during the timed phase
        gc.collect()
        gc.freeze()
        ticks = cpu_ticks()
        outcomes = [workload.phase(session, seconds, None)]
        notes["cpu_steal_pct"] = steal_pct(ticks, cpu_ticks())
        rss_mb = peak_rss_mb()
        if tracer is not None:
            tracer.enabled = True
            outcomes.append(workload.phase(session, seconds, tracer))
            workload.in_process(session, outcomes[-1], tracer)
        workload.verify(session, outcomes[-1])
    finally:
        gc.unfreeze()
        if session is not None:
            workload.teardown(session)
        if cpus:
            os.sched_setaffinity(0, cpus)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if tracer is None:
        metrics = end_to_end(name, setup_times, outcomes[0], rss_mb)
    else:
        metrics = per_layer(name, workload, tracer, outcomes[1],
                            outcomes[0])
        notes["not_applicable"] = NOT_APPLICABLE.get(name, {})
        notes["leases_after_fill"] = outcomes[0].extra.get(
            "leases_after_fill")
        trace_path = os.path.join(trace_dir or workdir,
                                  f"trace-{name}-seed{seed}.json")
        tracer.write_chrome(trace_path)
        notes["trace_file"] = os.path.relpath(trace_path, ROOT)
    notes["setup_s"] = setup_times
    notes["samples"] = {kind: len(values) for kind, values
                        in outcomes[-1].samples.items()}
    notes["runs"] = outcomes[-1].runs
    notes["errors"] = [e for o in outcomes for e in o.errors]
    return {"notes": notes, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics}}


def plant(name: str, session) -> None:
    """Make the program compute a wrong output (for the tests): change
    one parameter after the expected outputs were fixed."""
    if name == "service-mixed":
        # the reader now asks about products no run derived: their
        # closures come back empty, not the depth the corpus implies
        session.lineage_keys[:] = [key + "-missing"
                                   for key in session.lineage_keys]
        return
    workflow = session.workflows[0]
    for module in workflow.modules.values():
        if module.type_name in ("Scale", "NumberConstant"):
            key = "factor" if module.type_name == "Scale" else "value"
            workflow.set_parameter(module.id, key, 12345.0)
            return


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own process (so ``peak_rss_mb`` is per
    workload); prints each workload's result and a combined last line."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    for name in NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   universal_newlines=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {completed.returncode}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + UNGATED + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program to measure: {source}/repro is "
              "missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path[:0] = [source, HERE]

    base = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    # temporary files — SQLite's, the process backend's spill
    # directories — stay inside the checkout too
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir, trace_dir=base)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in outcome["notes"]["errors"]:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    print(json.dumps(outcome["notes"]))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
