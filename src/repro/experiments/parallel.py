"""Deterministic fan-out of experiment cells across processes.

The figure/table harnesses are embarrassingly parallel at the *cell*
level: one (workload config x algorithm-sweep) per C1..C8 name, one
simulation per algorithm, one SSS start per seed.  :func:`parallel_map`
runs such cells through a :class:`~concurrent.futures.ProcessPoolExecutor`
and returns results **in input order**, so a parallel run is byte-for-byte
identical to the serial one provided each cell is deterministic in its
inputs.  Determinism is the caller's contract: derive every seed *before*
fanning out (``stable_seed``, or by pre-drawing from the caller's
generator in its original order), so the random numbers a cell sees
never depend on scheduling.

``workers=1`` (the default everywhere) bypasses the executor entirely —
no processes, no pickling — which keeps the serial path the reference
implementation.  Cell functions must be module-level (picklable) when
``workers > 1``.
"""

from __future__ import annotations

import inspect
import os
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor

from repro.obs import reqtrace

__all__ = ["parallel_map", "resolve_workers", "supports_workers"]


class _TracedCell:
    """Picklable wrapper returning ``(fn(cell), worker span histograms)``.

    A pooled cell runs in another process, where the parent's trace
    context cannot reach, so spans timed inside it (``noc.measure`` etc.)
    would vanish with the worker.  When the parent is tracing,
    ``parallel_map`` wraps the cell function in this class: the worker
    runs the cell as the root ``parallel.cell`` span of its own tracer
    and ships that tracer's span histograms back with the result for the
    parent to merge.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, cell):
        with reqtrace.profiled("parallel.cell") as registry:
            value = self.fn(cell)
        return value, reqtrace.span_histograms(registry)


def resolve_workers(workers: int) -> int:
    """Normalise a ``workers`` knob to a positive process count (0 = one per CPU)."""
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def parallel_map(
    fn: Callable,
    cells: Iterable,
    *,
    workers: int = 1,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """``[fn(cell) for cell in cells]``, optionally across processes.

    Results are always returned in the order of ``cells`` regardless of
    which worker finishes first.  With ``workers <= 1`` this is exactly
    the list comprehension (no executor, no pickling), so the serial path
    stays the reference implementation and the parallel path is only ever
    a wall-clock optimisation.  A cell that raises propagates its
    exception to the caller.

    ``on_result(index, result)`` is invoked once per cell, in input
    order, as results become available — the hook the figure harnesses
    use for progress reporting.

    Every cell runs inside a ``parallel.cell`` span.  When a trace is
    active (:func:`repro.obs.reqtrace.is_active`, e.g. under
    ``--profile``), cells fanned to worker processes are wrapped so each
    worker's span histograms travel back with its result and are merged
    into the parent's trace (in input order) — ``--profile`` shows the
    same span names and call counts whether ``workers`` is 1 or 16, with
    ``seconds`` then meaning summed worker wall-clock.
    """
    cells = list(cells)
    workers = resolve_workers(workers)
    results = []

    def deliver(value) -> None:
        if on_result is not None:
            on_result(len(results), value)
        results.append(value)

    if workers <= 1 or len(cells) <= 1:
        for index, cell in enumerate(cells):
            # In-process, so an active trace context flows straight into
            # the cell; pooled cells open their own root span (_TracedCell).
            with reqtrace.span("parallel.cell", index=index):
                value = fn(cell)
            deliver(value)
        return results

    traced = reqtrace.is_active()
    worker_spans = []
    executor = ProcessPoolExecutor(max_workers=min(workers, len(cells)))
    try:
        futures = [
            executor.submit(_TracedCell(fn) if traced else fn, cell) for cell in cells
        ]
        for future in futures:
            value = future.result()
            if traced:
                value, spans = value
                worker_spans.append(spans)
            deliver(value)
    finally:
        # A failed cell stops the run: cells not yet started are dropped.
        executor.shutdown(cancel_futures=True)
    for spans in worker_spans:
        reqtrace.merge_span_histograms(spans)
    return results


def supports_workers(fn: Callable) -> bool:
    """Does ``fn`` declare an explicit ``workers`` keyword?

    ``**kwargs`` catch-alls do not count — they ignore the knob.
    """
    try:
        return "workers" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins, partials without signature
        return False
