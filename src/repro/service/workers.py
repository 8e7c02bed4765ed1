"""Supervised execution of blocking work for the asyncio service.

The daemon's CPU-bound units (mapping solves, vector-engine batches) run
off the event loop in worker threads, under the same supervision policy
PR 5 gave experiment campaigns: a per-task timeout, a retry budget with
seeded capped-exponential backoff (:func:`backoff_delays`), and a
run-wide failure budget that raises
:class:`~repro.experiments.resilience.FailureBudgetExceeded` rather than
letting a sick backend grind every request into a timeout.  All
accounting lands in a shared :class:`~repro.experiments.resilience.RunReport`
(exposed by ``/healthz``) and the metrics registry.

Threads, not processes: the work is NumPy-heavy (releases the GIL) and
shares the in-process model memo; pickling problem instances across
processes would cost more than it buys.  A *wedged* task cannot be
preempted — on timeout its daemon thread is abandoned (counted as
``pool_replacements``, the thread-pool analogue of PR 5 replacing a
wedged process pool) and its semaphore slot is reclaimed so unrelated
requests keep flowing.
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import threading

from repro.obs import reqtrace
from repro.experiments.resilience import (
    FailureBudgetExceeded,
    RunReport,
    backoff_delays,
    resolve_backoff,
)
from repro.experiments.parallel import (
    resolve_failure_budget,
    resolve_retries,
    resolve_timeout,
)
from repro.service.admission import refuse_expired

__all__ = ["WorkerPool"]

logger = logging.getLogger("repro.serve.workers")


class WorkerPool:
    """Bounded, supervised fan-out of blocking callables from a coroutine.

    ``await pool.run(fn, *args)`` executes ``fn(*args)`` on a daemon
    thread, holding one of ``workers`` slots.  Failures and timeouts are
    charged to the shared failure budget; exhausting the per-task retry
    budget re-raises the last error to the caller (never to the loop).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout: float | None = None,
        retries: int | None = None,
        failure_budget: int | None = None,
        backoff=None,
        report: RunReport | None = None,
        registry=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout = resolve_timeout(timeout)
        self.retries = resolve_retries(retries)
        self.failure_budget = resolve_failure_budget(failure_budget)
        self.backoff = resolve_backoff(backoff)
        self.report = report if report is not None else RunReport()
        self._budget_spent = 0
        self._task_index = 0
        self._sem: asyncio.Semaphore | None = None
        self._registry = registry
        if registry is not None:
            self._m_tasks = registry.counter("serve_worker_tasks_total", "worker tasks run")
            self._m_failures = registry.counter(
                "serve_worker_failures_total", "failed worker attempts"
            )
            self._m_wedged = registry.counter(
                "serve_worker_wedged_total", "abandoned (timed-out) worker threads"
            )

    def _semaphore(self) -> asyncio.Semaphore:
        # Created lazily so the pool binds to the loop that first uses it.
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.workers)
        return self._sem

    @property
    def budget_exhausted(self) -> bool:
        """True once the failure budget is spent: the pool is unhealthy.

        Admission uses this to shed at the door instead of letting every
        request ride a doomed retry loop into a 503.
        """
        return (
            self.failure_budget is not None
            and self._budget_spent > self.failure_budget
        )

    def _charge(self, exc: BaseException) -> None:
        """Account one failed attempt; raise once the budget is spent."""
        self._budget_spent += 1
        self.report.record_failure(exc)
        if self._registry is not None:
            self._m_failures.inc()
        if self.failure_budget is not None and self._budget_spent > self.failure_budget:
            raise FailureBudgetExceeded(
                self.failure_budget, list(self.report.failure_causes)
            ) from exc

    def _spawn(self, fn, args) -> asyncio.Future:
        """Start ``fn(*args)`` on a fresh daemon thread; returns its future."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # Fresh threads do not inherit contextvars, so an active trace is
        # copied into the thread explicitly; when tracing is off this is a
        # single ContextVar read and no copy.
        call_ctx = contextvars.copy_context() if reqtrace.is_active() else None

        def deliver(setter) -> None:
            try:
                loop.call_soon_threadsafe(
                    lambda: None if future.cancelled() else setter()
                )
            except RuntimeError:
                pass  # loop already closed: the result has no audience

        def runner() -> None:
            try:
                if call_ctx is not None:
                    value = call_ctx.run(fn, *args)
                else:
                    value = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - relayed to the caller
                # default-arg binding: ``exc`` is implicitly deleted when
                # this except block exits, which can happen before the
                # loop thread runs the callback
                deliver(lambda exc=exc: future.set_exception(exc))
            else:
                deliver(lambda: future.set_result(value))

        thread = threading.Thread(target=runner, daemon=True, name="repro-serve-worker")
        thread.start()
        return future

    async def _attempt(self, fn, args):
        """One execution on a fresh daemon thread with the pool timeout."""
        future = self._spawn(fn, args)
        try:
            return await asyncio.wait_for(future, timeout=self.timeout)
        except asyncio.TimeoutError:
            # The thread cannot be preempted: abandon it (daemon) and
            # reclaim the slot — the thread-pool analogue of replacing a
            # wedged process pool.
            self.report.pool_replacements += 1
            if self._registry is not None:
                self._m_wedged.inc()
            raise

    async def warm(self, fn, *args):
        """Run ``fn(*args)`` on a pool thread outside supervision accounting.

        Startup warmups (solver-kernel compilation, cache priming) are not
        served work: no timeout, no retries, no failure-budget charge, no
        task metrics — a warmup failure propagates to the caller, which
        logs it and starts the daemon anyway.
        """
        async with self._semaphore():
            return await self._spawn(fn, args)

    async def run(self, fn, *args, breaker=None):
        """Run ``fn(*args)`` off-loop under supervision; returns its value.

        An expired context deadline is refused *before* a worker slot is
        claimed (and re-checked after the semaphore wait) — expired work
        never occupies a thread.  When ``breaker`` is given, each failed
        attempt charges it and a success resets it, so a wedged backend
        trips its circuit instead of silently eating the retry budget.
        """
        self._task_index += 1
        index = self._task_index
        if self._registry is not None:
            self._m_tasks.inc()
        refuse_expired(self._registry, "worker")
        async with self._semaphore():
            refuse_expired(self._registry, "worker")
            attempt = 0
            while True:
                attempt += 1
                self.report.cells_total += 1 if attempt == 1 else 0
                try:
                    value = await self._attempt(fn, args)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    if breaker is not None:
                        breaker.record_failure()
                    self._charge(exc)
                    if attempt <= self.retries:
                        self.report.retries += 1
                        reqtrace.note("retries")
                        trace_id = reqtrace.current_trace_id()
                        logger.warning(
                            "worker task %d attempt %d/%d failed (%s: %s)%s; retrying",
                            index, attempt, self.retries + 1,
                            type(exc).__name__, exc,
                            "" if trace_id is None else f" [trace={trace_id}]",
                        )
                        delay = backoff_delays(index, attempt, self.backoff)
                        if delay > 0:
                            self.report.backoff_seconds += delay
                            await asyncio.sleep(delay)
                        refuse_expired(self._registry, "worker")  # no retry for expired work
                        continue
                    self.report.cells_failed += 1
                    raise
                else:
                    if breaker is not None:
                        breaker.record_success()
                    self.report.cells_computed += 1
                    return value
