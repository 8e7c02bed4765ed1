"""Request-scoped distributed tracing for the mapping service.

Where :mod:`repro.obs.tracing` follows *packets* through the NoC, this
module follows *requests* through the serving stack: one
:class:`TraceContext` per ``/map`` request emits nested spans —
``serve.request -> canonicalize -> cache.lookup -> batch.enqueue ->
worker.solve -> sss.select/swap | hungarian | mc | sa ->
engine.run_batch -> noc.warmup/measure/drain`` — into the same bounded
ring buffer + JSONL schema (version 2, ``kind: "spans"``) the packet
tracer uses, so a whole service burst opens as one Perfetto flame chart.

The same spans are the repo's only phase timer: ``--profile`` on the
CLIs runs the command under :func:`profiled` and reads the per-name
``trace_span_seconds`` histograms back as ``{name: {"seconds",
"calls"}}`` (:func:`span_summary`).

Design constraints, in order:

* **Free when off.**  Instrumentation sites call :func:`span`, which is
  a single :class:`~contextvars.ContextVar` read returning a shared
  no-op when no trace is active — no tracer attached means solvers and
  the service run their pre-tracing code paths bit-identically.
* **Propagation across tasks and threads.**  The active span lives in a
  ``ContextVar``; ``asyncio.create_task`` copies the context
  automatically, and :class:`repro.service.workers.WorkerPool` runs its
  thread body under ``contextvars.copy_context()`` when a trace is
  active, so solver spans parent correctly under their request.
* **Deterministic output.**  Trace ids are tracer-sequential, span ids
  are trace-local, and the clock is injectable: ``clock="wall"``
  records integer microseconds since the tracer was created, while
  ``clock="logical"`` records an incrementing tick per clock read —
  with the logical clock, the same request stream produces a
  byte-identical JSONL trace (the determinism contract CI pins).
* **Bounded memory.**  Events land in a ring buffer; each context keeps
  at most ``max_spans_per_trace`` completed spans for the flight
  recorder, with overflow counted rather than stored.

Span *ends* are emitted in end-time order under the tracer lock, so the
``t`` column is monotone and :func:`repro.obs.traceio.validate_trace`
applies unchanged.  Wall-clock durations are always measured separately
(``perf_counter``) and fed to the ``trace_span_seconds`` histogram of
the attached registry, whatever the trace clock.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.obs.metrics import SECONDS_BUCKETS, MetricsRegistry
from repro.obs.tracing import TRACE_SCHEMA, TRACE_SCHEMA_VERSION

__all__ = [
    "SpanTracer",
    "TraceContext",
    "span",
    "annotate",
    "count",
    "observe",
    "current_trace_id",
    "is_active",
    "profiled",
    "span_summary",
    "format_span_summary",
]

#: The active (context, span_id) pair, or None when tracing is off.
_ACTIVE: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
    "repro_reqtrace", default=None
)

#: Histogram fed with every span's wall duration (labelled by span name).
SPAN_SECONDS_METRIC = "trace_span_seconds"


class _NoopSpan:
    """Shared do-nothing span returned when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: records start on entry, emits on exit."""

    __slots__ = ("ctx", "span_id", "parent", "name", "attrs", "t0", "wall0", "_token")

    def __init__(self, ctx: "TraceContext", parent: int, name: str, attrs: dict) -> None:
        self.ctx = ctx
        self.parent = parent
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self.ctx.tracer
        with tracer.lock:
            self.span_id = self.ctx._alloc_span()
            self.t0 = tracer._read_clock()
        self.wall0 = time.perf_counter()
        self._token = _ACTIVE.set((self.ctx, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.reset(self._token)
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.ctx.tracer._end(self, time.perf_counter() - self.wall0)
        return False


def span(name: str, **attrs):
    """Start a child span of the active span (no-op outside a trace).

    Usage: ``with reqtrace.span("sss.select") as s: ...; s.set(k=v)``.
    The disabled path is one ContextVar read returning a shared no-op.
    """
    active = _ACTIVE.get()
    if active is None:
        return NOOP_SPAN
    ctx, parent = active
    return _Span(ctx, parent, name, attrs)


def is_active() -> bool:
    """True when the calling context is inside a trace."""
    return _ACTIVE.get() is not None


def current_trace_id() -> int | None:
    """The active trace id, or None outside a trace."""
    active = _ACTIVE.get()
    return None if active is None else active[0].trace_id


def annotate(**attrs) -> None:
    """Attach attributes to the trace's *root* span (no-op when off)."""
    active = _ACTIVE.get()
    if active is not None:
        active[0].root_attrs.update(attrs)


def count(name: str, amount: int = 1, help: str = "", **labels) -> None:
    """Increment a counter on the active tracer's registry (no-op when off).

    Lets solver code record counters (swap acceptance, iterations)
    without holding a registry reference — the service's registry rides
    in on the trace context.
    """
    active = _ACTIVE.get()
    if active is None:
        return
    tracer = active[0].tracer
    if tracer.registry is None:
        return
    with tracer.lock:
        tracer.registry.counter(name, help, **labels).inc(amount)


def observe(name: str, value: float, bounds=SECONDS_BUCKETS, help: str = "", **labels) -> None:
    """Observe into a histogram on the active tracer's registry (no-op when off)."""
    active = _ACTIVE.get()
    if active is None:
        return
    tracer = active[0].tracer
    if tracer.registry is None:
        return
    with tracer.lock:
        tracer.registry.histogram(name, help, bounds=bounds, **labels).observe(value)


class TraceContext:
    """One request's trace: an id, a span-id allocator, collected spans."""

    __slots__ = ("tracer", "trace_id", "spans", "spans_dropped",
                 "root_attrs", "_next_span", "_root", "_token")

    def __init__(self, tracer: "SpanTracer", trace_id: int) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.spans: list[dict] = []  #: completed spans (flight-recorder copy)
        self.spans_dropped = 0
        self.root_attrs: dict = {}
        self._next_span = 0

    def _alloc_span(self) -> int:
        span_id = self._next_span
        self._next_span = span_id + 1
        return span_id

    def __enter__(self) -> "TraceContext":
        self._root.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._root.attrs.update(self.root_attrs)
        self.root_attrs = self._root.attrs
        return self._root.__exit__(exc_type, exc, tb)


class SpanTracer:
    """Collects request spans into a bounded ring buffer.

    Exposes the same ``header()`` / ``events()`` / ``footer()`` surface
    as :class:`~repro.obs.tracing.PacketTracer`, so
    :func:`repro.obs.exporters.write_trace_jsonl` and the ``trace``
    CLI work on span traces unchanged.
    """

    def __init__(
        self,
        *,
        buffer: int = 65_536,
        clock: str = "wall",
        registry=None,
        max_spans_per_trace: int = 512,
    ) -> None:
        if buffer < 1:
            raise ValueError("buffer must hold at least one event")
        if clock not in ("wall", "logical"):
            raise ValueError(f"clock must be 'wall' or 'logical', got {clock!r}")
        self.buffer = buffer
        self.clock = clock
        self.registry = registry
        self.max_spans_per_trace = max_spans_per_trace
        self._buffer: deque[tuple] = deque(maxlen=buffer)
        self.lock = threading.Lock()
        self._origin_ns = time.perf_counter_ns()
        self._tick = 0
        self._next_trace = 0
        self.events_total = 0
        self.spans_total = 0
        self.traces_total = 0

    # ------------------------------------------------------------------
    # Clock / introspection
    # ------------------------------------------------------------------

    def _read_clock(self) -> int:
        """One clock read; caller holds the lock."""
        if self.clock == "logical":
            self._tick += 1
            return self._tick
        return (time.perf_counter_ns() - self._origin_ns) // 1_000

    @property
    def events_retained(self) -> int:
        return len(self._buffer)

    @property
    def events_dropped(self) -> int:
        return self.events_total - len(self._buffer)

    # ------------------------------------------------------------------
    # Trace / span lifecycle
    # ------------------------------------------------------------------

    def trace(self, name: str = "serve.request", **attrs) -> TraceContext:
        """Open a new trace; use as ``with tracer.trace() as ctx:``."""
        with self.lock:
            trace_id = self._next_trace
            self._next_trace = trace_id + 1
            self.traces_total += 1
        ctx = TraceContext(self, trace_id)
        ctx._root = _Span(ctx, -1, name, attrs)
        return ctx

    def _end(self, span: _Span, wall_seconds: float) -> None:
        """Emit a finished span (called from loop and worker threads)."""
        ctx = span.ctx
        with self.lock:
            t_end = self._read_clock()
            dur = t_end - span.t0
            self.events_total += 1
            self.spans_total += 1
            self._buffer.append(
                (
                    "span",
                    t_end,
                    ctx.trace_id,
                    span.span_id,
                    span.parent,
                    span.name,
                    span.t0,
                    dur,
                    span.attrs,
                )
            )
            if len(ctx.spans) < self.max_spans_per_trace:
                ctx.spans.append(
                    {
                        "span_id": span.span_id,
                        "parent_span": span.parent,
                        "name": span.name,
                        "t0": span.t0,
                        "dur": dur,
                        "wall_us": int(wall_seconds * 1e6),
                        "attrs": span.attrs,
                    }
                )
            else:
                ctx.spans_dropped += 1
            if self.registry is not None:
                self.registry.histogram(
                    SPAN_SECONDS_METRIC,
                    "wall-clock span duration by span name",
                    bounds=SECONDS_BUCKETS,
                    span=span.name,
                ).observe(wall_seconds)

    # ------------------------------------------------------------------
    # Export surface (mirrors PacketTracer)
    # ------------------------------------------------------------------

    def header(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "version": TRACE_SCHEMA_VERSION,
            "kind": "spans",
            "clock": self.clock,
            "buffer": self.buffer,
        }

    def footer(self) -> dict:
        return {
            "ev": "end",
            "events_total": self.events_total,
            "events_dropped": self.events_dropped,
            "spans_total": self.spans_total,
            "traces_total": self.traces_total,
        }

    def events(self):
        """Retained span events as JSON-ready dicts, in end order."""
        for record in self._buffer:
            yield {
                "ev": "span",
                "t": record[1],
                "trace_id": record[2],
                "span_id": record[3],
                "parent_span": record[4],
                "name": record[5],
                "t0": record[6],
                "dur": record[7],
                "attrs": record[8],
            }


# ----------------------------------------------------------------------
# Profiling: span-duration histograms as a phase summary
# ----------------------------------------------------------------------


@contextmanager
def profiled(name: str, **attrs):
    """Run the block as root span ``name`` of a fresh trace; yields its registry.

    The tracer keeps no events or flight-recorder spans, only the
    ``trace_span_seconds`` histograms, so a long campaign profiles in
    constant memory.  Read the registry after the block exits (the root
    span is recorded on exit) with :func:`span_summary`.
    """
    registry = MetricsRegistry()
    tracer = SpanTracer(buffer=1, registry=registry, max_spans_per_trace=0)
    with tracer.trace(name, **attrs):
        yield registry


def span_summary(registry) -> dict[str, dict[str, float]]:
    """``{span name: {"seconds": total wall, "calls": n}}`` from a registry."""
    return {
        dict(hist.labels)["span"]: {"seconds": hist.sum, "calls": hist.total}
        for hist in registry
        if hist.name == SPAN_SECONDS_METRIC
    }


def format_span_summary(summary: dict[str, dict[str, float]]) -> str:
    """Render a :func:`span_summary` as an aligned table, slowest first."""
    if not summary:
        return "(no phases recorded)"
    width = max(len(name) for name in summary)
    lines = ["phase timings:"]
    for name, entry in sorted(
        summary.items(), key=lambda kv: kv[1]["seconds"], reverse=True
    ):
        lines.append(
            f"  {name:<{width}}  {entry['seconds'] * 1e3:10.1f} ms"
            f"  ({entry['calls']} calls)"
        )
    return "\n".join(lines)
