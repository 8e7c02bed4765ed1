"""Supervision tests for the service worker pool and its knobs."""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.service.workers import (
    FailureBudgetExceeded,
    RunReport,
    WorkerPool,
    backoff_delays,
    resolve_backoff,
)


def run(coro):
    return asyncio.run(coro)


class TestWorkerPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_runs_blocking_callable_off_loop(self):
        pool = WorkerPool(1, backoff=0.0)

        async def scenario():
            return await pool.run(lambda a, b: (a + b, threading.current_thread().name), 2, 3)

        value, thread_name = run(scenario())
        assert value == 5
        assert thread_name == "repro-serve-worker"
        assert pool.report.cells_computed == 1

    def test_retry_then_success_is_accounted(self):
        report = RunReport()
        pool = WorkerPool(1, retries=2, backoff=0.0, report=report)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        assert run(pool.run(flaky)) == "ok"
        assert calls["n"] == 3
        assert report.retries == 2
        assert report.cells_computed == 1
        assert report.cells_failed == 0
        assert report.failure_causes == ["RuntimeError: transient"] * 2

    def test_exhausted_retries_reraise_the_last_error(self):
        pool = WorkerPool(1, retries=1, backoff=0.0)

        def always():
            raise KeyError("nope")

        with pytest.raises(KeyError):
            run(pool.run(always))
        assert pool.report.cells_failed == 1

    def test_failure_budget_trips_across_tasks(self):
        pool = WorkerPool(1, retries=0, backoff=0.0, failure_budget=1)

        def boom():
            raise RuntimeError("sick backend")

        async def scenario():
            with pytest.raises(RuntimeError):
                await pool.run(boom)
            # The budget (1) is now spent: the next failure raises the
            # budget error instead of the task's own.
            with pytest.raises(FailureBudgetExceeded):
                await pool.run(boom)

        run(scenario())

    def test_timeout_abandons_the_wedged_thread(self):
        pool = WorkerPool(2, timeout=0.05, retries=0, backoff=0.0)
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
        pool = WorkerPool(2, timeout=0.2, retries=0, backoff=0.0, failure_budget=None)
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
        pool = WorkerPool(2, backoff=0.0)
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
        report = RunReport(cells_total=8, cells_computed=5)
        report.retries = 2
        report.backoff_seconds = 0.5
        doc = report.as_dict()
        json.dumps(doc)
        assert RunReport(**doc) == report
        assert doc["cells_computed"] == 5 and doc["retries"] == 2

    def test_failure_causes_capped(self):
        report = RunReport()
        for i in range(20):
            report.record_failure(ValueError(f"boom {i}"))
        assert len(report.failure_causes) == report._MAX_CAUSES
        assert report.failure_causes[-1] == "ValueError: boom 19"


class TestBackoffKnobs:
    def test_resolve_default_and_tuple(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRY_BACKOFF", raising=False)
        base, cap = resolve_backoff(None)
        assert 0 < base <= cap
        assert resolve_backoff((0.1, 1.0)) == (0.1, 1.0)
        assert resolve_backoff(0.2)[0] == 0.2

    def test_delays_deterministic_and_capped(self):
        d1 = [backoff_delays(2, a, (0.5, 4.0)) for a in range(1, 9)]
        d2 = [backoff_delays(2, a, (0.5, 4.0)) for a in range(1, 9)]
        assert d1 == d2
        assert all(d <= 4.0 for d in d1)
        assert all(d >= 0.25 for d in d1)  # jitter floor is half the raw delay

    def test_delays_cap_and_disable(self):
        for attempt in range(1, 12):
            assert backoff_delays(0, attempt, (0.1, 2.0)) <= 2.0
        assert backoff_delays(0, 5, (0.0, 2.0)) == 0.0
        assert backoff_delays(3, 1, (1.0, 8.0)) != backoff_delays(4, 1, (1.0, 8.0))

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5:8")
        assert resolve_backoff(None) == (0.5, 8.0)
        assert WorkerPool(1).backoff == (0.5, 8.0)
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert resolve_backoff(None)[0] == 0.0
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "junk")
        with pytest.raises(ValueError):
            resolve_backoff(None)
        with pytest.raises(ValueError):
            resolve_backoff((2.0, 1.0))  # cap below base


class TestSupervisionKnobs:
    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
        pool = WorkerPool(1, backoff=0.0)
        assert (pool.retries, pool.timeout) == (2, 1.5)
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "-1")
        with pytest.raises(ValueError):
            WorkerPool(1)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(1, timeout=0)
        with pytest.raises(ValueError):
            WorkerPool(1, retries=-1)
        with pytest.raises(ValueError):
            WorkerPool(1, failure_budget=-1)

    def test_failure_budget_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAILURE_BUDGET", "1")
        pool = WorkerPool(1, backoff=0.0)
        assert pool.failure_budget == 1
        monkeypatch.delenv("REPRO_FAILURE_BUDGET")
        assert WorkerPool(1, backoff=0.0).failure_budget is None
