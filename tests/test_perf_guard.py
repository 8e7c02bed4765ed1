"""Decision rule of the end-to-end guard, on synthetic perfbench records.

Never launches perfbench: ``compare`` only reads last-line records.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_guard.py"
spec = importlib.util.spec_from_file_location("perf_guard", SCRIPT)
perf_guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_guard)

DECLARED = [
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "goodput_rps", "better": "higher", "bound": 0.25},
]


def record(p50=10.0, goodput=50.0, correct=True, attempted=100, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "goodput_rps": {"value": goodput, "unit": "1/s"},
        },
    }


BASE = [record(p50=9.0), record(p50=10.0), record(p50=11.0)]


def test_identical_runs_pass():
    assert perf_guard.compare(DECLARED, BASE, BASE) == []


@pytest.mark.parametrize("p50, fails", [(12.4, False), (12.6, True), (5.0, False)])
def test_lower_is_better_bound_is_a_fraction_of_the_base_median(p50, fails):
    head = [record(p50=p50)] * 3
    failures = perf_guard.compare(DECLARED, BASE, head)
    assert bool(failures) == fails
    assert all("latency_p50_ms" in f for f in failures)


@pytest.mark.parametrize("goodput, fails", [(37.6, False), (37.4, True), (90.0, False)])
def test_higher_is_better_fails_only_on_a_drop(goodput, fails):
    head = [record(goodput=goodput)] * 3
    failures = perf_guard.compare(DECLARED, BASE, head)
    assert bool(failures) == fails
    assert all("goodput_rps" in f for f in failures)


def test_the_median_not_one_run_decides():
    head = [record(p50=10.0), record(p50=10.0), record(p50=100.0)]
    assert perf_guard.compare(DECLARED, BASE, head) == []


def test_incorrect_run_fails():
    head = [record(), record(correct=False), record()]
    failures = perf_guard.compare(DECLARED, BASE, head)
    assert failures == ["head run 1 is not correct"]


def test_larger_failed_share_fails():
    head = [record(failed=1), record(), record()]
    failures = perf_guard.compare(DECLARED, BASE, head)
    assert len(failures) == 1 and "failed share" in failures[0]
    base = [record(failed=1), record(), record()]
    assert perf_guard.compare(DECLARED, base, head) == []
