"""Shared benchmark fixtures and reporting helpers.

Every benchmark prints a small "paper row" via :func:`report_row` so that
running ``pytest benchmarks/ --benchmark-only -s`` regenerates the
comparison tables recorded in EXPERIMENTS.md, in addition to the
pytest-benchmark timing statistics.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.workflow.modules import standard_registry

_rows = []


def report_row(experiment: str, **fields) -> None:
    """Record and print one comparison row for EXPERIMENTS.md."""
    rendered = "  ".join(f"{key}={value}" for key, value
                         in fields.items())
    line = f"[{experiment}] {rendered}"
    _rows.append(line)
    print(f"\n{line}")


class BenchRecorder:
    """Accumulate one benchmark module's measurements for ``BENCH_*.json``.

    Each call merges its fields into the module's results.  When the
    ``BENCH_JSON`` environment variable names a file, the fixed
    ``header`` fields plus every result so far are rewritten there, so
    CI can archive (and the repo commit) a trajectory across builds.
    """

    def __init__(self, experiment: str, **header) -> None:
        self.header = {"experiment": experiment, **header}
        self.results = {}

    def __call__(self, **fields) -> None:
        self.results.update(fields)
        path = os.environ.get("BENCH_JSON")
        if path:
            with open(path, "w") as handle:
                json.dump({**self.header, **self.results}, handle,
                          indent=2, sort_keys=True)


@pytest.fixture(scope="session")
def registry():
    """One standard registry for the whole benchmark session."""
    return standard_registry()
