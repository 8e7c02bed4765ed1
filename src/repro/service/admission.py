"""Admission control: a bounded token pool that sheds instead of queueing forever.

The serving layer's overload contract mirrors the paper's mapping
contract: bound the worst case instead of letting tails collapse.
:class:`AdmissionController` is a token pool of ``max_inflight``
concurrent requests plus a bounded FIFO queue of ``max_queue`` waiters.
A request that finds the queue full is *shed* immediately
(:class:`ShedError` → HTTP 429/503 with ``Retry-After``) instead of
queueing without bound; the retry hint is computed from an EWMA of
recent service times and the current queue depth, so clients back off
proportionally to actual load.  Shedding is O(1) and happens before the
request touches the cache, a worker slot, or a batch seat.

A request's ``timeout`` is not checked here: :mod:`repro.service.app`
wraps the whole request in one ``asyncio.wait_for``, and a waiter that
times out is cancelled, which gives up its queue seat (or, if its token
was granted in the same tick, hands the token straight on).
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import threading
import time
from collections import deque

__all__ = ["AdmissionController", "EwmaEstimate", "ShedError"]


# ----------------------------------------------------------------------
# Shedding
# ----------------------------------------------------------------------


class ShedError(RuntimeError):
    """The request was refused at the door; carries the retry hint.

    ``status`` is the HTTP status the shed maps to: 429 for backpressure
    the client caused (queue full), 503 for server-side conditions
    (draining).
    """

    def __init__(self, reason: str, retry_after: int, status: int = 503) -> None:
        super().__init__(f"request shed: {reason}")
        self.reason = reason
        self.retry_after = max(1, int(retry_after))
        self.status = status


class EwmaEstimate:
    """Thread-safe exponentially-weighted moving average of a duration."""

    def __init__(self, alpha: float = 0.2, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = initial
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            if self._value is None:
                self._value = float(seconds)
            else:
                self._value += self.alpha * (float(seconds) - self._value)

    @property
    def value(self) -> float | None:
        return self._value


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class AdmissionController:
    """Token/queue-based admission with load shedding.

    ``async with controller.admit():`` either grants one of
    ``max_inflight`` tokens immediately, waits FIFO in a queue bounded
    by ``max_queue``, or raises
    :class:`ShedError` when the queue is full or ``health()`` reports a
    server-side reason to refuse work.
    """

    def __init__(
        self,
        *,
        max_inflight: int = 8,
        max_queue: int = 128,
        registry=None,
        health=None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        self.admitted_total = 0
        self.shed_total = 0
        self._waiters: deque[asyncio.Future] = deque()
        self._health = health
        self.service_time = EwmaEstimate()
        self._registry = registry
        if registry is not None:
            self._m_inflight = registry.gauge(
                "serve_inflight", "requests currently holding an admission token"
            )
            self._m_queue = registry.gauge(
                "serve_admission_queue_depth", "requests waiting for admission"
            )

    # -- accounting --------------------------------------------------------

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    @property
    def pressure(self) -> float:
        """Occupancy of the whole admission pipe in [0, 1+]."""
        return (self.inflight + self.waiting) / (self.max_inflight + self.max_queue)

    def idle(self) -> bool:
        return self.inflight == 0 and not self._waiters

    async def wait_idle(self, timeout: float | None = None) -> bool:
        """Poll until no request holds or waits for a token (drain path)."""
        limit = None if timeout is None else time.monotonic() + timeout
        while not self.idle():
            if limit is not None and time.monotonic() >= limit:
                return False
            await asyncio.sleep(0.02)
        return True

    def _set_gauges(self) -> None:
        if self._registry is not None:
            self._m_inflight.set(self.inflight)
            self._m_queue.set(len(self._waiters))

    def retry_after(self) -> int:
        """Seconds a shed client should wait: queue drain time, at least 1.

        ``(waiting + 1)`` requests must clear ``max_inflight`` parallel
        slots at the EWMA service time before a retry can be admitted.
        """
        estimate = self.service_time.value or 1.0
        seconds = estimate * (self.waiting + 1) / self.max_inflight
        return max(1, min(60, math.ceil(seconds)))

    def shed(self, reason: str, status: int = 503) -> ShedError:
        """Account one shed and build the error to raise."""
        self.shed_total += 1
        if self._registry is not None:
            self._registry.counter(
                "serve_shed_total", "requests shed at admission", reason=reason
            ).inc()
        return ShedError(reason, self.retry_after(), status=status)

    # -- the token protocol ------------------------------------------------

    @contextlib.asynccontextmanager
    async def admit(self):
        """Acquire one admission token for the ``with`` body."""
        await self._acquire()
        # Start the clock only once the token is held, so the EWMA
        # measures service time and not queue wait — retry_after() would
        # otherwise compound queue delay into its own estimate.
        t0 = time.monotonic()
        try:
            yield self
        finally:
            self.service_time.observe(time.monotonic() - t0)
            self._release()

    async def _acquire(self) -> None:
        if self._health is not None:
            refusal = self._health()
            if refusal is not None:
                reason, status = refusal
                raise self.shed(reason, status=status)
        if self.inflight < self.max_inflight and not self._waiters:
            self.inflight += 1
            self.admitted_total += 1
            self._set_gauges()
            return
        if len(self._waiters) >= self.max_queue:
            raise self.shed("queue_full", status=429)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        self._set_gauges()
        try:
            await future
        except BaseException:
            if future.done() and not future.cancelled():
                # The token was granted in the same tick the wait gave
                # up.  A transferred token is already counted in
                # ``inflight`` (transfer leaves the count unchanged), so
                # hand it straight to _release — incrementing here would
                # over-count and wedge admission once the phantom holder
                # can never release.
                self._release()
            else:
                future.cancel()
                try:
                    self._waiters.remove(future)
                except ValueError:
                    pass
                self._set_gauges()
            raise
        self.admitted_total += 1
        self._set_gauges()

    def _release(self) -> None:
        # Hand the token to the oldest live waiter; otherwise retire it.
        while self._waiters:
            future = self._waiters.popleft()
            if not future.done():
                future.set_result(True)  # token transferred, inflight unchanged
                self._set_gauges()
                return
        self.inflight -= 1
        self._set_gauges()

