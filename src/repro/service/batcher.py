"""Group-commit batching of simulation-validation requests onto ``run_batch``.

Concurrent ``simulate`` requests are the service's expensive tail.  The
vector engine steps B independent simulations in lock-step for less than
B times the cost of one (perfbench's ``map_simulate`` and
``sim_campaign`` workloads measure it), and its batched results are
bit-identical to single runs — so coalescing concurrent requests is pure
throughput, with zero effect on response bytes.  With a C compiler the
batch's cycle loop and its mapped traffic's packet emission both run in
the compiled kernel, whose ``ctypes`` call releases the GIL, so a batch
does not hold up solves on the other worker thread.

:class:`SimulationBatcher` keeps one queue per *batch group* — requests
that may legally share a ``run_batch`` call: same mesh shape and same
warmup/measure windows — and commits it like a database group commit.
A group with no batch running dispatches on the next event-loop tick,
so a lone request never waits and a burst that lands in one tick shares
one call.  Requests that arrive while the group's batch runs queue, and
go out together (up to ``max_batch``) when it finishes.  A group has at
most one batch running; groups never hold each other back.  Each batch
runs on the :class:`~repro.service.workers.WorkerPool` under the context
its first member captured at submit, so its ``engine.run_batch`` span
nests under that member's ``batch.enqueue``.

The service submits from inside a shielded cache fill, so a request
that times out leaves its member queued: the fill finishes and caches
the measurement for a retry.  A member whose future is cancelled anyway
(a direct caller of :meth:`SimulationBatcher.submit` that gave up) is
dropped before its batch goes out instead of simulating for nobody.
"""

from __future__ import annotations

import asyncio
import contextvars
from dataclasses import dataclass, field

from repro.noc.vector_engine import run_batch
from repro.obs import reqtrace

__all__ = ["BatchRequest", "SimulationBatcher"]


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
    #: the submitter's context inside its ``batch.enqueue`` span
    context: contextvars.Context = field(default=None)
    #: how many requests shared this request's run_batch call
    occupancy: int = 0


class SimulationBatcher:
    """Coalesce concurrent simulation requests into vector-engine batches."""

    def __init__(self, pool, *, max_batch: int = 32, registry=None, runner=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.pool = pool
        self.max_batch = max_batch
        self._runner = runner if runner is not None else run_batch
        #: per group: requests waiting for the group's next batch
        self._pending: dict[tuple, list[BatchRequest]] = {}
        #: per group: the task committing its batches; present while the
        #: group has a batch running or queued
        self._committers: dict[tuple, asyncio.Task] = {}
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
                "serve_queue_depth", "simulation requests waiting for a batch"
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
        key = (mesh.rows, mesh.cols, request.warmup, request.measure)  # batchable group
        with reqtrace.span("batch.enqueue") as enq:
            request.context = contextvars.copy_context()
            self._pending.setdefault(key, []).append(request)
            self._set_depth()
            if key not in self._committers:
                self._committers[key] = loop.create_task(self._commit(key))
            result = await request.future
            enq.set(occupancy=request.occupancy)
        reqtrace.annotate(batch_occupancy=request.occupancy)
        return result

    async def _commit(self, key: tuple) -> None:
        """Run the group's queue as back-to-back batches until it is empty."""
        queue = self._pending[key]
        try:
            while True:
                queue[:] = [r for r in queue if not r.future.cancelled()]
                if not queue:
                    return
                batch = queue[: self.max_batch]
                del queue[: self.max_batch]
                self._set_depth()
                # A task per batch, so the batch runs under its own first
                # member's context rather than the one that started the group.
                await batch[0].context.run(asyncio.ensure_future, self._run(batch))
        finally:
            del self._pending[key], self._committers[key]
            self._set_depth()

    async def _run(self, batch: list[BatchRequest]) -> None:
        self.batches_run += 1
        self.requests_batched += len(batch)
        if self._registry is not None:
            self._m_occupancy.observe(len(batch))
        for r in batch:
            r.occupancy = len(batch)
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
        # Runs on a worker thread under the first member's context, so this
        # span nests under its batch.enqueue; coalesced names every sharer.
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
        """Wait until every group has no batch running and an empty queue."""
        while self._committers:
            await asyncio.wait(list(self._committers.values()))
