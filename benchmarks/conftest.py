"""Benchmark-suite helpers.

Each ``bench_*`` module regenerates one of the paper's tables/figures at
paper-scale search budgets, asserts the expected qualitative shape, and
reports wall-clock through pytest-benchmark.  Heavy experiment harnesses
are benchmarked with a single round (they are minutes-scale aggregates,
not microbenchmarks).

Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the reproduced tables printed inline.

Every ``run_once`` wall-clock is also written to
``benchmarks/bench_timings.json``, keyed by test name (CI uploads it).
These are single-round timings for inspection; the guarded performance
numbers come from ``perf_guard.py`` and ``check_regression.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

_TIMINGS_PATH = Path(__file__).parent / "bench_timings.json"


def _record_timing(name: str, seconds: float) -> None:
    """Merge one benchmark wall-clock into the timings JSON file."""
    try:
        timings = json.loads(_TIMINGS_PATH.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        timings = {}
    timings[name] = {"seconds": seconds}
    _TIMINGS_PATH.write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with exactly one timed invocation and return its result.

    The measured wall-clock is recorded both in pytest-benchmark's own
    stats and, keyed by the benchmark's test name, in the timings JSON.
    """
    t0 = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    _record_timing(getattr(benchmark, "name", fn.__name__), elapsed)
    return result


@pytest.fixture
def report_printer(request):
    """Print an ExperimentReport under ``-s``; always attach it to the item."""

    def _print(report):
        print()
        print(report)
        return report

    return _print
