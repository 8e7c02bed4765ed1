"""Tests for the service worker pool: one execution per task, bounded and timed."""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.service.admission import CircuitBreaker
from repro.service.workers import RunReport, WorkerPool


def run(coro):
    return asyncio.run(coro)


class TestWorkerPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_runs_blocking_callable_off_loop(self):
        pool = WorkerPool(1)

        async def scenario():
            return await pool.run(lambda a, b: (a + b, threading.current_thread().name), 2, 3)

        value, thread_name = run(scenario())
        assert value == 5
        assert thread_name == "repro-serve-worker"
        assert pool.report.cells_computed == 1

    def test_failure_runs_once_and_reraises(self):
        report = RunReport()
        pool = WorkerPool(1, report=report)
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise KeyError("nope")

        with pytest.raises(KeyError):
            run(pool.run(boom))
        assert calls["n"] == 1
        assert (report.cells_total, report.cells_computed, report.cells_failed) == (1, 0, 1)
        assert report.failure_causes == ["KeyError: 'nope'"]

    def test_failure_charges_the_breaker_once(self):
        breaker = CircuitBreaker("cc", threshold=2)
        pool = WorkerPool(1)

        def boom():
            raise RuntimeError("sick backend")

        async def scenario():
            with pytest.raises(RuntimeError):
                await pool.run(boom, breaker=breaker)
            assert breaker.snapshot()["failures"] == 1
            # A later failure is the task's own error, never a pool-wide one.
            with pytest.raises(RuntimeError):
                await pool.run(boom, breaker=breaker)
            assert breaker.state == "open"
            return await pool.run(lambda: "fresh")

        assert run(scenario()) == "fresh"
        assert pool.report.cells_failed == 2

    def test_timeout_abandons_the_wedged_thread(self):
        pool = WorkerPool(2, timeout=0.05)
        release = threading.Event()

        def wedged():
            release.wait(5)
            return "late"

        async def scenario():
            with pytest.raises(asyncio.TimeoutError):
                await pool.run(wedged)
            # The slot was reclaimed: unrelated work still flows.
            return await pool.run(lambda: "fresh")

        try:
            assert run(scenario()) == "fresh"
        finally:
            release.set()
        assert pool.report.pool_replacements == 1

    def test_wedged_worker_does_not_stall_unrelated_requests(self):
        """ISSUE satellite: one wedged task, concurrent healthy traffic."""
        pool = WorkerPool(2, timeout=0.2)
        release = threading.Event()

        def wedged():
            release.wait(5)

        async def scenario():
            t0 = time.perf_counter()
            wedge = asyncio.ensure_future(pool.run(wedged))
            healthy = [pool.run(lambda k=k: k * k) for k in range(4)]
            values = await asyncio.gather(*healthy)
            healthy_done = time.perf_counter() - t0
            with pytest.raises(asyncio.TimeoutError):
                await wedge
            return values, healthy_done

        try:
            values, healthy_done = run(scenario())
        finally:
            release.set()
        assert values == [0, 1, 4, 9]
        # Healthy tasks shared the second slot instead of queueing behind
        # the wedged one for its full timeout.
        assert healthy_done < 0.2

    def test_concurrency_is_bounded_by_workers(self):
        pool = WorkerPool(2)
        active = []
        peak = []
        lock = threading.Lock()

        def task():
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.02)
            with lock:
                active.pop()

        async def scenario():
            await asyncio.gather(*[pool.run(task) for _ in range(8)])

        run(scenario())
        assert max(peak) <= 2
        assert pool.report.cells_computed == 8


class TestRunReport:
    def test_as_dict_round_trips(self):
        report = RunReport(cells_total=8, cells_computed=5, cells_failed=3)
        report.pool_replacements = 1
        doc = report.as_dict()
        json.dumps(doc)
        assert RunReport(**doc) == report
        assert doc["cells_computed"] == 5 and doc["pool_replacements"] == 1

    def test_failure_causes_capped(self):
        report = RunReport()
        for i in range(20):
            report.record_failure(ValueError(f"boom {i}"))
        assert len(report.failure_causes) == report._MAX_CAUSES
        assert report.failure_causes[-1] == "ValueError: boom 19"


class TestSupervisionKnobs:
    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(1, timeout=0)
        with pytest.raises(ValueError):
            WorkerPool(1, timeout=-1)
