"""Supervised execution of blocking work for the asyncio service.

The daemon's CPU-bound units (mapping solves, vector-engine batches) run
off the event loop in worker threads, under one supervision policy: a
per-task timeout, a retry budget with seeded capped-exponential backoff
(:func:`backoff_delays`), and a run-wide failure budget that raises
:class:`FailureBudgetExceeded` rather than letting a sick backend grind
every request into a timeout.  All accounting lands in a shared
:class:`RunReport` (exposed by ``/healthz``) and the metrics registry.

Threads, not processes: the work is NumPy-heavy (releases the GIL) and
shares the in-process model memo; pickling problem instances across
processes would cost more than it buys.  A *wedged* task cannot be
preempted — on timeout its daemon thread is abandoned (counted as
``pool_replacements``) and its semaphore slot is reclaimed so unrelated
requests keep flowing.
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import os
import threading
from dataclasses import asdict, dataclass, field

from repro.experiments.resilience import json_safe
from repro.obs import reqtrace
from repro.service.admission import refuse_expired
from repro.utils.rng import stable_seed

__all__ = ["FailureBudgetExceeded", "RunReport", "WorkerPool"]

logger = logging.getLogger("repro.serve.workers")


class FailureBudgetExceeded(RuntimeError):
    """The run-wide budget of failed task attempts was spent."""

    def __init__(self, budget: int, causes: list[str]) -> None:
        detail = "; ".join(causes[-3:]) or "no recorded causes"
        super().__init__(
            f"run failure budget of {budget} attempt(s) exceeded (last causes: {detail})"
        )
        self.budget = budget
        self.causes = causes


@dataclass
class RunReport:
    """What the worker pool actually did: tasks, failures, retries, waits."""

    cells_total: int = 0  #: tasks submitted
    cells_resumed: int = 0  #: always 0; kept so ``/healthz`` keeps its shape
    cells_computed: int = 0  #: tasks that returned a value
    cells_failed: int = 0  #: exhausted their retry budget
    retries: int = 0  #: failed attempts that were retried
    backoff_seconds: float = 0.0  #: total time slept between retries
    pool_replacements: int = 0  #: wedged threads abandoned after a timeout
    degraded_serial: bool = False  #: always False; kept so ``/healthz`` keeps its shape
    failure_causes: list[str] = field(default_factory=list)  #: recent causes (capped)
    wall_seconds: float = 0.0  #: always 0.0; kept so ``/healthz`` keeps its shape

    _MAX_CAUSES = 8

    def record_failure(self, cause: BaseException) -> None:
        self.failure_causes.append(f"{type(cause).__name__}: {cause}")
        del self.failure_causes[: -self._MAX_CAUSES]

    def as_dict(self) -> dict:
        return json_safe(asdict(self))


def resolve_timeout(timeout: float | None) -> float | None:
    """Normalise a per-task timeout (env fallback ``REPRO_TASK_TIMEOUT``)."""
    if timeout is None:
        raw = os.environ.get("REPRO_TASK_TIMEOUT", "")
        timeout = float(raw) if raw else None
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    return timeout


def resolve_retries(retries: int | None) -> int:
    """Normalise a per-task retry budget (env fallback ``REPRO_TASK_RETRIES``)."""
    if retries is None:
        retries = int(os.environ.get("REPRO_TASK_RETRIES", "0"))
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    return retries


def resolve_failure_budget(budget: int | None) -> int | None:
    """Normalise a run-wide failure budget (env fallback ``REPRO_FAILURE_BUDGET``)."""
    if budget is None:
        raw = os.environ.get("REPRO_FAILURE_BUDGET", "")
        budget = int(raw) if raw else None
    if budget is not None and budget < 0:
        raise ValueError(f"failure_budget must be >= 0, got {budget}")
    return budget


#: Default capped exponential backoff: base 0.05s doubling to a 2s cap.
DEFAULT_BACKOFF = (0.05, 2.0)


def resolve_backoff(backoff=None) -> tuple[float, float]:
    """Normalise a backoff knob to ``(base_seconds, cap_seconds)``.

    ``None`` falls back to the ``REPRO_RETRY_BACKOFF`` environment
    variable (``"base"`` or ``"base:cap"``; ``"0"`` disables), then to
    :data:`DEFAULT_BACKOFF`.  A bare float is a base with the default
    cap.
    """
    if backoff is None:
        raw = os.environ.get("REPRO_RETRY_BACKOFF", "")
        if raw:
            parts = raw.split(":")
            try:
                base = float(parts[0])
                cap = float(parts[1]) if len(parts) > 1 else max(base, DEFAULT_BACKOFF[1])
            except ValueError:
                raise ValueError(
                    f"REPRO_RETRY_BACKOFF must be 'base' or 'base:cap', got {raw!r}"
                ) from None
            backoff = (base, cap)
        else:
            backoff = DEFAULT_BACKOFF
    if isinstance(backoff, (int, float)):
        backoff = (float(backoff), max(float(backoff), DEFAULT_BACKOFF[1]))
    base, cap = float(backoff[0]), float(backoff[1])
    if base < 0 or cap < base:
        raise ValueError(f"backoff must satisfy 0 <= base <= cap, got {(base, cap)}")
    return base, cap


def backoff_delays(index: int, attempt: int, backoff: tuple[float, float]) -> float:
    """Delay before retry ``attempt`` (1-based) of task ``index``.

    Capped exponential with deterministic jitter: the raw delay
    ``base * 2**(attempt-1)`` is clamped to ``cap`` and scaled by a
    factor in ``[0.5, 1.0)`` derived from ``stable_seed`` — the same
    (task, attempt) always waits the same time, but concurrent tasks
    never thunder in lockstep.
    """
    base, cap = backoff
    if base <= 0:
        return 0.0
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    jitter = (stable_seed("backoff", index, attempt) % 10**6) / 10**6
    return raw * (0.5 + 0.5 * jitter)


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
