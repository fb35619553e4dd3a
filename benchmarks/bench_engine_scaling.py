"""E16 — engine cost per module vs. workflow size.

Regenerates: the claim that the engine's overhead is linear in workflow
size.  Shape: µs per module stays flat from 500 to 10k modules, for a
linear chain and for a width-16 random layered DAG (fan-in up to two,
edges reaching back across every earlier layer).  Modules do near-zero
work (``SpinCompute`` work 5), no cache and no capture are attached, so
what is timed is the engine itself: validation, topological order,
ready-set scheduling, input gathering and hashing.

The assert: µs/module at 10k modules is at most 1.5x the 1k figure.  A
graph query that scans every connection makes this ratio grow with
size.

When the ``BENCH_JSON`` environment variable names a file, the measured
numbers are dumped there (``BENCH_engine.json`` in CI and in the repo).
"""

import time

import pytest

from benchmarks.conftest import BenchRecorder, report_row
from repro.workflow import Executor
from repro.workloads import chain_workflow, random_workflow

SIZES = (500, 1_000, 2_000, 4_000, 10_000)
#: Timed runs per size, interleaved across sizes so a slow stretch of
#: the host hits every size alike; the fastest run per size is kept (a
#: run is deterministic, so the spread is host noise).
REPEATS = 3
#: Acceptance bar: µs/module at 10k over µs/module at 1k.
MAX_GROWTH = 1.5
WORK = 5
WIDTH = 16

_record = BenchRecorder("E16-engine-scaling", sizes=list(SIZES),
                        repeats=REPEATS, work=WORK, width=WIDTH)

SHAPES = {
    "chain": lambda modules: chain_workflow(modules - 1, work=WORK),
    "dag": lambda modules: random_workflow(modules, width=WIDTH, seed=0,
                                           work=WORK),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_engine_cost_per_module_is_flat(registry, shape):
    executor = Executor(registry)
    workflows = {modules: SHAPES[shape](modules) for modules in SIZES}
    assert all(len(w.modules) == n for n, w in workflows.items())
    executor.execute(workflows[SIZES[0]])  # imports, first touch
    best = {}
    for _ in range(REPEATS):
        for modules, workflow in workflows.items():
            start = time.perf_counter()
            executor.execute(workflow)
            elapsed = time.perf_counter() - start
            best[modules] = min(best.get(modules, elapsed), elapsed)
    per_module = {modules: round(seconds / modules * 1e6, 1)
                  for modules, seconds in best.items()}
    for modules, cost in per_module.items():
        report_row("E16", shape=shape, modules=modules,
                   us_per_module=cost)
    growth = per_module[SIZES[-1]] / per_module[1_000]
    spread = max(per_module.values()) / min(per_module.values())
    _record(**{f"{shape}_us_per_module": {str(n): v for n, v
                                          in per_module.items()},
               f"{shape}_growth_10k_over_1k": round(growth, 2),
               f"{shape}_max_over_min": round(spread, 2)})
    assert growth <= MAX_GROWTH, (
        f"{shape}: {per_module[SIZES[-1]]} us/module at {SIZES[-1]} "
        f"modules is {growth:.2f}x the 1k figure "
        f"(bar {MAX_GROWTH}x): engine cost grows with workflow size")
