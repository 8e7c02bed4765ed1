"""Admission control, deadline propagation, and the circuit breaker.

The serving layer's overload contract mirrors the paper's mapping
contract: bound the worst case instead of letting tails collapse.  Three
mechanisms, composed by :mod:`repro.service.app`:

**Admission control** (:class:`AdmissionController`) — a token pool of
``max_inflight`` concurrent requests plus a bounded FIFO queue of
``max_queue`` waiters.  A request that finds the queue full is *shed*
immediately (:class:`ShedError` → HTTP 429/503 with ``Retry-After``)
instead of queueing without bound; the retry hint is computed from an
EWMA of recent service times and the current queue depth, so clients
back off proportionally to actual load.  Shedding is O(1) and happens
before the request touches the cache, a worker slot, or a batch seat.

**Deadline propagation** (:class:`Deadline` + a ``contextvars`` scope) —
each request carries a monotonic-clock deadline derived from its
``timeout`` field or the daemon's ``--default-deadline``.  The deadline
rides the request context through canonicalize → cache fill → worker
solve → batcher enqueue; every stage that would claim a scarce resource
(admission queue slot, worker thread, batch seat) checks it first and
raises :class:`DeadlineExpired` — a ``TimeoutError`` subclass, so the
HTTP layer's 504 path handles it — rather than doing work nobody will
read.  Single-flight cache fills deliberately *detach* the deadline
(:func:`detach_deadline`): a fill serves every future duplicate, so it
runs to completion even when the requester that started it timed out.

**Circuit breaker** (:class:`CircuitBreaker`) — per-backend failure
accounting (count consecutive failed worker tasks, trip at a threshold)
plus the classic closed → open → half-open cycle.  A wedged compiled backend (the ``cc`` solver kernels) trips its
breaker and that service's solves run on the bit-identical pure-Python
``reference`` backend instead of 503ing the world; after ``reset_after``
seconds the breaker goes half-open and lets probes through to the real
backend again.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import math
import threading
import time
from collections import deque

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExpired",
    "EwmaEstimate",
    "ShedError",
    "count_expired",
    "current_deadline",
    "deadline_scope",
    "detach_deadline",
    "refuse_expired",
]


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class DeadlineExpired(asyncio.TimeoutError):
    """The request's deadline passed before the work could be done.

    Subclasses ``asyncio.TimeoutError`` so every existing 504 handler
    catches it; ``stage`` names the resource the request was waiting
    for when it expired (``queue`` / ``worker`` / ``batch``).
    """

    def __init__(self, stage: str = "request") -> None:
        super().__init__(f"deadline expired before {stage}")
        self.stage = stage


class Deadline:
    """A monotonic-clock deadline; ``budget=None`` means unbounded."""

    __slots__ = ("budget", "at")

    def __init__(self, budget: float | None) -> None:
        if budget is not None:
            budget = float(budget)
            if not budget > 0:  # NaN included
                raise ValueError(f"deadline budget must be positive, got {budget}")
        self.budget = budget
        self.at = None if budget is None else time.monotonic() + budget

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or None when unbounded."""
        if self.at is None:
            return None
        return max(0.0, self.at - time.monotonic())

    @property
    def expired(self) -> bool:
        return self.at is not None and time.monotonic() >= self.at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget}, remaining={self.remaining()})"


#: The active request deadline; None = no deadline (or detached fill).
_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_serve_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline carried by the calling context, if any."""
    return _DEADLINE.get()


def count_expired(registry, stage: str) -> None:
    """Count one request whose deadline passed before ``stage`` claimed a resource."""
    if registry is not None:
        registry.counter(
            "serve_deadline_expired_total",
            "requests whose deadline expired before a resource was claimed",
            at=stage,
        ).inc()


def refuse_expired(registry, stage: str) -> None:
    """Raise (and count) :class:`DeadlineExpired` once the context deadline passed."""
    deadline = _DEADLINE.get()
    if deadline is not None and deadline.expired:
        count_expired(registry, stage)
        raise DeadlineExpired(stage)


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Bind ``deadline`` to the current context for the ``with`` body."""
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


def detach_deadline() -> None:
    """Clear the deadline inside the *current* task.

    Called at the top of single-flight cache-fill tasks: the fill's
    result outlives the requester that started it (it serves every
    later duplicate — the satellite-1 regression pins this), so the
    fill must not inherit that requester's deadline.
    """
    _DEADLINE.set(None)


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
    """Token/queue-based admission with load shedding and deadline awareness.

    ``async with controller.admit():`` either grants one of
    ``max_inflight`` tokens immediately, waits FIFO in a queue bounded
    by ``max_queue`` (respecting the context deadline), or raises
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
        refuse_expired(self._registry, "queue")
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
        deadline = current_deadline()
        try:
            if deadline is None:
                await future
            else:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(future), deadline.remaining()
                    )
                except asyncio.TimeoutError:
                    count_expired(self._registry, "queue")
                    raise DeadlineExpired("queue") from None
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


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------

STATE_CLOSED = "closed"
STATE_HALF_OPEN = "half-open"
STATE_OPEN = "open"

_STATE_VALUE = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


class CircuitBreaker:
    """Per-backend failure threshold with open/half-open/closed routing.

    ``threshold`` consecutive failures (every failed worker task is
    charged, a success resets the count) open the breaker; while open,
    :meth:`blocked` is True and callers route to the fallback backend.
    After ``reset_after`` seconds the breaker turns half-open: traffic is
    let through to probe the real backend — one success closes the
    breaker, one failure re-opens it.
    """

    def __init__(
        self,
        name: str,
        *,
        threshold: int = 3,
        reset_after: float = 30.0,
        registry=None,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_after <= 0:
            raise ValueError(f"reset_after must be positive, got {reset_after}")
        self.name = name
        self.threshold = threshold
        self.reset_after = reset_after
        self.failures = 0
        self.trips = 0
        self.state = STATE_CLOSED
        self._opened_at: float | None = None
        self._clock = clock
        self._lock = threading.Lock()
        self._registry = registry
        self._set_gauge()

    def _set_gauge(self) -> None:
        if self._registry is not None:
            self._registry.gauge(
                "serve_breaker_state",
                "circuit-breaker state (0 closed, 1 half-open, 2 open)",
                backend=self.name,
            ).set(_STATE_VALUE[self.state])

    def _transition(self, state: str) -> None:
        previous, self.state = self.state, state
        self._set_gauge()
        if state == STATE_OPEN and previous != STATE_OPEN:
            self.trips += 1

    def blocked(self) -> bool:
        """True while traffic should route around this backend."""
        with self._lock:
            if self.state != STATE_OPEN:
                return False
            if self._clock() - self._opened_at >= self.reset_after:
                # Cool-down over: go half-open and let probes through.
                self._transition(STATE_HALF_OPEN)
                return False
            return True

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self.state == STATE_HALF_OPEN or self.failures >= self.threshold:
                self._opened_at = self._clock()
                self._transition(STATE_OPEN)

    def record_success(self) -> None:
        with self._lock:
            self.failures = 0
            if self.state != STATE_CLOSED:
                self._transition(STATE_CLOSED)

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
            "threshold": self.threshold,
            "reset_after": self.reset_after,
        }
