"""In-memory spans around the program's public layer functions.

The benchmark times layers from outside the program: each wrapper below
replaces a public function at the name its caller looks it up by, and
records one span per call (id, parent id, name, start, end, attributes).
Parents follow a context variable, so spans nest across ``await`` and
across asyncio tasks; :meth:`Recorder.bind` carries the parent into the
service's worker threads.  Spans stay in memory and are written once at
exit.  Times come from ``time.perf_counter`` (the system-wide monotonic
clock on Linux), the same clock the load generator uses.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)


class Recorder:
    def __init__(self) -> None:
        #: ``[id, parent, name, start, end, attrs]`` per finished span
        self.spans: list[list] = []
        self._ids = itertools.count(1)

    def _open(self, parent: int | None = None):
        sid = next(self._ids)
        if parent is None:
            parent = _CURRENT.get()
        return sid, parent, _CURRENT.set(sid)

    def _close(self, sid, parent, token, name, t0, attrs) -> None:
        t1 = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append([sid, parent, name, t0, t1, attrs])

    def wrap(self, fn, name: str, attrs=None, parent: int | None = None):
        """A synchronous wrapper; ``attrs(result)`` adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, par, token = self._open(parent)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = attrs(result) if attrs is not None and result is not None else None
                self._close(sid, par, token, name, t0, extra)

        return wrapper

    def wrap_async(self, fn, name: str):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid, par, token = self._open()
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(sid, par, token, name, t0, None)

        return wrapper

    def bind(self, fn, name: str):
        """Wrap ``fn`` to run later, possibly on another thread, as a child
        of the span that is current now."""
        return self.wrap(fn, name, parent=_CURRENT.get())

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _batch_attrs(results) -> dict:
    return {
        "batch": len(results),
        "delivered": sum(r.packets_delivered for r in results),
        "flit_hops": sum(r.counts.flit_link_traversals for r in results),
    }


def _wrap_hungarian(rec: Recorder) -> None:
    import repro.core.baselines
    import repro.core.hungarian
    import repro.core.sam

    timed = rec.wrap(repro.core.hungarian.solve_assignment, "core.hungarian")
    for module in (repro.core.hungarian, repro.core.baselines, repro.core.sam):
        module.solve_assignment = timed


class _TimedEnter:
    """An async context manager whose entry is one span."""

    def __init__(self, rec: Recorder, cm, name: str) -> None:
        self._rec, self._cm, self._name = rec, cm, name

    async def __aenter__(self):
        sid, par, token = self._rec._open()
        t0 = time.perf_counter()
        try:
            return await self._cm.__aenter__()
        finally:
            self._rec._close(sid, par, token, self._name, t0, None)

    async def __aexit__(self, *exc):
        return await self._cm.__aexit__(*exc)


def install_service(rec: Recorder) -> None:
    """Wrap the serve daemon's layers.  Must run before the service is
    constructed: the batcher binds its runner at construction."""
    import repro.noc.traffic
    import repro.service.app as app
    import repro.service.batcher as batcher
    from repro.service.admission import AdmissionController
    from repro.service.workers import WorkerPool

    app.MappingService.map_request = rec.wrap_async(
        app.MappingService.map_request, "service.map_request"
    )
    app.canonicalize = rec.wrap(app.canonicalize, "service.canonicalize")
    app.ALGORITHMS = {
        name: rec.wrap(fn, "core.solve") for name, fn in app.ALGORITHMS.items()
    }
    app.max_apl_lower_bound = rec.wrap(app.max_apl_lower_bound, "core.bounds")

    admit = AdmissionController.admit

    def timed_admit(self):
        return _TimedEnter(rec, admit(self), "service.admission_wait")

    AdmissionController.admit = timed_admit

    pool_run = WorkerPool.run

    async def timed_run(self, fn, *args, **kwargs):
        sid, par, token = rec._open()
        t0 = time.perf_counter()
        try:
            return await pool_run(self, rec.bind(fn, "service.pool_fn"), *args, **kwargs)
        finally:
            rec._close(sid, par, token, "service.pool_run", t0, None)

    WorkerPool.run = timed_run
    batcher.SimulationBatcher.submit = rec.wrap_async(
        batcher.SimulationBatcher.submit, "service.batcher_submit"
    )
    batcher.run_batch = rec.wrap(batcher.run_batch, "noc.run_batch", _batch_attrs)
    # The service imports the traffic class when it simulates; the engine
    # keeps its own reference for type checks, which this leaves alone.
    repro.noc.traffic.MappedWorkloadTraffic = rec.wrap(
        repro.noc.traffic.MappedWorkloadTraffic, "noc.traffic_build"
    )
    _wrap_hungarian(rec)


def install_campaign(rec: Recorder) -> None:
    """Wrap the layers under ``run_algorithms`` and ``simulate_batch``."""
    import repro.experiments.base as base
    import repro.noc.vector_engine as vector_engine

    base.global_mapping = rec.wrap(base.global_mapping, "core.global")
    base.monte_carlo = rec.wrap(base.monte_carlo, "core.mc")
    base.simulated_annealing = rec.wrap(base.simulated_annealing, "core.sa")
    base.sort_select_swap = rec.wrap(base.sort_select_swap, "core.sss")
    vector_engine.run_batch = rec.wrap(
        vector_engine.run_batch, "noc.run_batch", _batch_attrs
    )
    _wrap_hungarian(rec)
