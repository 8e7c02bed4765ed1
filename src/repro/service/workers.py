"""Bounded execution of blocking work for the asyncio service.

The daemon's CPU-bound units (mapping solves, certified bounds,
vector-engine batches, single simulations) run off the event loop in
worker threads.  Every unit is a pure function of its request, so each
runs exactly once: a failure is recorded in the shared
:class:`RunReport` (exposed by ``/healthz``) and the metrics registry,
and re-raised to the caller, which answers with a 5xx that names the
error.  Nothing is retried, and no failure changes how later tasks run.

Threads, not processes: the work is NumPy-heavy (releases the GIL) and
shares the in-process model memo; pickling problem instances across
processes would cost more than it buys.  A *wedged* task cannot be
preempted — when the optional per-task timeout (``serve
--task-timeout``) expires, its daemon thread is abandoned (counted as
``pool_replacements``) and its semaphore slot is reclaimed so unrelated
requests keep flowing.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from dataclasses import asdict, dataclass, field

from repro.experiments.resilience import json_safe
from repro.obs import reqtrace
from repro.service.admission import refuse_expired

__all__ = ["RunReport", "WorkerPool"]


@dataclass
class RunReport:
    """What the worker pool actually did: tasks, failures, abandoned threads."""

    cells_total: int = 0  #: tasks submitted
    cells_computed: int = 0  #: tasks that returned a value
    cells_failed: int = 0  #: tasks that raised or timed out
    pool_replacements: int = 0  #: wedged threads abandoned after a timeout
    failure_causes: list[str] = field(default_factory=list)  #: recent causes (capped)

    _MAX_CAUSES = 8

    def record_failure(self, cause: BaseException) -> None:
        self.failure_causes.append(f"{type(cause).__name__}: {cause}")
        del self.failure_causes[: -self._MAX_CAUSES]

    def as_dict(self) -> dict:
        return json_safe(asdict(self))


class WorkerPool:
    """Bounded fan-out of blocking callables from a coroutine.

    ``await pool.run(fn, *args)`` executes ``fn(*args)`` once on a daemon
    thread, holding one of ``workers`` slots, and returns its value or
    re-raises its error to the caller (never to the loop).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout: float | None = None,
        report: RunReport | None = None,
        registry=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.workers = workers
        self.timeout = timeout
        self.report = report if report is not None else RunReport()
        self._sem: asyncio.Semaphore | None = None
        self._registry = registry
        if registry is not None:
            self._m_tasks = registry.counter("serve_worker_tasks_total", "worker tasks run")
            self._m_failures = registry.counter(
                "serve_worker_failures_total", "failed worker tasks"
            )
            self._m_wedged = registry.counter(
                "serve_worker_wedged_total", "abandoned (timed-out) worker threads"
            )

    def _semaphore(self) -> asyncio.Semaphore:
        # Created lazily so the pool binds to the loop that first uses it.
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.workers)
        return self._sem

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

    async def warm(self, fn, *args):
        """Run ``fn(*args)`` on a pool thread outside the task accounting.

        Startup warmups (solver-kernel compilation, cache priming) are not
        served work: no timeout, no task metrics — a warmup failure
        propagates to the caller, which logs it and starts the daemon
        anyway.
        """
        async with self._semaphore():
            return await self._spawn(fn, args)

    async def run(self, fn, *args):
        """Run ``fn(*args)`` off-loop exactly once; returns its value.

        An expired context deadline is refused *before* a worker slot is
        claimed (and re-checked after the semaphore wait) — expired work
        never occupies a thread.  A failure (including a timeout) is
        recorded and re-raised.
        """
        if self._registry is not None:
            self._m_tasks.inc()
        refuse_expired(self._registry, "worker")
        async with self._semaphore():
            refuse_expired(self._registry, "worker")
            self.report.cells_total += 1
            try:
                value = await asyncio.wait_for(
                    self._spawn(fn, args), timeout=self.timeout
                )
            except Exception as exc:
                if isinstance(exc, asyncio.TimeoutError):
                    # The thread cannot be preempted: abandon it (daemon)
                    # and reclaim the slot — the thread-pool analogue of
                    # replacing a wedged process pool.
                    self.report.pool_replacements += 1
                    if self._registry is not None:
                        self._m_wedged.inc()
                self.report.cells_failed += 1
                self.report.record_failure(exc)
                if self._registry is not None:
                    self._m_failures.inc()
                raise
            self.report.cells_computed += 1
            return value
