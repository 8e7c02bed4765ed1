"""Micro-batching of simulation-validation requests onto ``run_batch``.

Concurrent ``simulate`` requests are the service's expensive tail.  The
vector engine steps B independent simulations in lock-step for less than
B times the cost of one (perfbench's ``map_simulate`` and
``sim_campaign`` workloads measure it), and its batched results are
bit-identical to single runs — so coalescing concurrent requests is pure
throughput, with zero effect on response bytes.  With a C compiler the
batch's cycle loop runs in the compiled kernel, whose ``ctypes`` call
releases the GIL, so it no longer holds up solves on the other worker
thread (packet emission still runs in Python).

:class:`SimulationBatcher` keeps one pending queue per *batch group* —
requests that may legally share a ``run_batch`` call: same mesh shape
and same warmup/measure windows.  The first request of a group arms a
micro-batch window (``window`` seconds); the flush fires when the window
expires or the group reaches ``max_batch``, whichever comes first, and
runs the batch on the supervised :class:`~repro.service.workers.WorkerPool`.
Requests whose future was cancelled (client gone, request timed out)
are dropped at flush time instead of simulating for nobody.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field

from repro.noc.vector_engine import run_batch
from repro.obs import reqtrace
from repro.service.admission import DeadlineExpired, count_expired, current_deadline

__all__ = ["BatchRequest", "SimulationBatcher"]

logger = logging.getLogger("repro.serve.batcher")


@dataclass
class BatchRequest:
    """One queued simulation: a ready traffic generator plus its future."""

    mesh: object
    traffic: object
    warmup: int
    measure: int
    future: asyncio.Future = field(default=None)
    #: trace id of the submitting request (None when tracing is off)
    trace_id: int | None = None
    #: how many requests shared this request's run_batch call
    occupancy: int = 0
    #: the submitting request's deadline (None = unbounded or detached)
    deadline: object = None


class SimulationBatcher:
    """Coalesce concurrent simulation requests into vector-engine batches."""

    def __init__(
        self,
        pool,
        *,
        window: float = 0.005,
        max_batch: int = 32,
        registry=None,
        runner=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.pool = pool
        self.window = window
        self.max_batch = max_batch
        self._runner = runner if runner is not None else run_batch
        self._pending: dict[tuple, list[BatchRequest]] = {}
        self._timers: dict[tuple, asyncio.TimerHandle] = {}
        self.batches_run = 0
        self.requests_batched = 0
        self._registry = registry
        if registry is not None:
            self._m_occupancy = registry.histogram(
                "serve_batch_occupancy",
                "requests coalesced per run_batch call",
                bounds=(1, 2, 4, 8, 16, 32, 64, 128),
            )
            self._m_depth = registry.gauge(
                "serve_queue_depth", "simulation requests waiting for a batch flush"
            )

    def _set_depth(self) -> None:
        if self._registry is not None:
            self._m_depth.set(sum(len(v) for v in self._pending.values()))

    async def submit(self, mesh, traffic, *, warmup: int, measure: int):
        """Queue one simulation; resolves to its ``SimulationResult``.

        The returned result is bit-identical to
        ``NoCSimulator(mesh, traffic).run(warmup, measure)``
        regardless of which requests it shared a batch with (the golden
        suite pins batch-vs-single equality in the engine).
        """
        loop = asyncio.get_running_loop()
        request = BatchRequest(mesh, traffic, int(warmup), int(measure))
        request.future = loop.create_future()
        request.trace_id = reqtrace.current_trace_id()
        request.deadline = current_deadline()
        key = (mesh.rows, mesh.cols, request.warmup, request.measure)  # batchable group
        with reqtrace.span("batch.enqueue") as enq:
            group = self._pending.setdefault(key, [])
            group.append(request)
            self._set_depth()
            if len(group) >= self.max_batch:
                self._flush(key)
            elif len(group) == 1:
                self._timers[key] = loop.call_later(self.window, self._flush, key)
            result = await request.future
            enq.set(occupancy=request.occupancy)
        reqtrace.annotate(batch_occupancy=request.occupancy)
        return result

    def _flush(self, key: tuple) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        batch = []
        for r in self._pending.pop(key, []):
            if r.future.cancelled():
                continue
            if r.deadline is not None and r.deadline.expired:
                # Expired work never claims a batch seat: answer the
                # waiter (if any is left) instead of simulating for it.
                count_expired(self._registry, "batch")
                r.future.set_exception(DeadlineExpired("batch"))
                continue
            batch.append(r)
        self._set_depth()
        if not batch:
            return
        asyncio.get_running_loop().create_task(self._run(batch))

    async def _run(self, batch: list[BatchRequest]) -> None:
        self.batches_run += 1
        self.requests_batched += len(batch)
        if self._registry is not None:
            self._m_occupancy.observe(len(batch))
        for r in batch:
            r.occupancy = len(batch)
        coalesced = [r.trace_id for r in batch if r.trace_id is not None]
        if coalesced:
            logger.debug(
                "flushing batch of %d [traces=%s]", len(batch), coalesced
            )
        try:
            results = await self.pool.run(self._call_runner, batch)
        except Exception as exc:  # noqa: BLE001 - relayed per request
            for r in batch:
                if not r.future.cancelled():
                    r.future.set_exception(exc)
            return
        for r, result in zip(batch, results):
            if not r.future.cancelled():
                r.future.set_result(result)

    def _call_runner(self, batch: list[BatchRequest]):
        # Runs on a worker thread under the context of whichever request's
        # submit scheduled the flush, so this span nests under that
        # request's batch.enqueue; the coalesced attr names every sharer.
        first = batch[0]
        with reqtrace.span(
            "engine.run_batch",
            occupancy=len(batch),
            coalesced=[r.trace_id for r in batch if r.trace_id is not None],
        ):
            return self._runner(
                first.mesh,
                [r.traffic for r in batch],
                warmup=first.warmup,
                measure=first.measure,
            )

    async def drain(self) -> None:
        """Flush everything pending now (shutdown path)."""
        for key in list(self._pending):
            self._flush(key)
