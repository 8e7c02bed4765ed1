"""Packet-lifecycle tracing for the cycle-level NoC engine.

A :class:`PacketTracer` attaches to a
:class:`~repro.noc.network.Network` (via ``Network(..., tracer=...)``)
and records one span of events per sampled packet: submission, per-hop
VC allocation and switch traversal, ejection, and — under fault
injection — teardown, retry, loss, reroute and link up/down events.

Design constraints, in order:

* **Zero cost when absent.**  The network builds uninstrumented send
  closures when no tracer is attached; a disabled run executes exactly
  the code it executed before this module existed.
* **Bounded memory.**  Events land in a ring buffer (``buffer`` events);
  once full, the oldest events fall out and are tallied as dropped, so
  an 8x8 run traced end-to-end cannot exhaust memory.
* **Sampling.**  ``every=N`` traces every Nth submitted packet (after
  the optional per-application filter), which keeps long sweeps
  tractable while preserving an unbiased latency sample — submission
  order is independent of where a packet will be routed.
* **Replay-stable ids.**  Packets get tracer-local ids in submission
  order (the process-global ``Packet.pid`` counter is not reset between
  runs), so the same seed produces a byte-identical exported trace no
  matter how many simulations ran before it in the process.

Events are stored as plain tuples and only widened to dicts at export
time (:meth:`PacketTracer.events`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["TraceConfig", "PacketTracer", "TRACE_SCHEMA", "TRACE_SCHEMA_VERSION"]

TRACE_SCHEMA = "repro-noc-trace"
#: v2 adds a ``kind`` header field ("packets" | "spans") and the "span"
#: event emitted by :class:`repro.obs.reqtrace.SpanTracer`; v1 packet
#: traces (no ``kind``) are still readable.
TRACE_SCHEMA_VERSION = 2

#: Field names per event kind, in emission order (shared with the JSONL
#: schema check in :mod:`repro.obs.traceio`).  Every event additionally
#: carries ``ev`` (the kind) and ``t`` (the cycle — for spans, the end
#: time in the tracer's clock units).
EVENT_FIELDS = {
    "submit": ("id", "src", "dst", "app", "cls", "len"),
    "vc_alloc": ("id", "tile", "port", "vc"),
    "hop": ("id", "tile", "port", "vc"),
    "eject": ("id", "created", "injected", "latency", "retries"),
    "teardown": ("id", "flits"),
    "retry": ("id", "attempt"),
    "lost": ("id", "retries"),
    "reroute": ("tile", "dst", "blocked", "port"),
    "link_down": ("tile", "port"),
    "link_up": ("tile", "port"),
    # request-tracing span (kind "spans"; see repro.obs.reqtrace)
    "span": ("trace_id", "span_id", "parent_span", "name", "t0", "dur", "attrs"),
}


@dataclass(frozen=True)
class TraceConfig:
    """Sampling and buffering knobs for a :class:`PacketTracer`."""

    every: int = 1  #: trace every Nth submitted packet (after the app filter)
    apps: tuple[int, ...] | None = None  #: only these application ids (None = all)
    buffer: int = 262_144  #: ring-buffer capacity in events

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.buffer < 1:
            raise ValueError("buffer must hold at least one event")


class PacketTracer:
    """Collects per-packet lifecycle events into a bounded ring buffer."""

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config or TraceConfig()
        self._apps = None if self.config.apps is None else frozenset(self.config.apps)
        self._every = self.config.every
        self._buffer: deque[tuple] = deque(maxlen=self.config.buffer)
        #: pid -> tracer-local id for packets currently being traced.
        self._tids: dict[int, int] = {}
        self._seen = 0  #: packets past the app filter (sampling denominator)
        self._next_tid = 0
        self.events_total = 0
        self.packets_submitted = 0
        self.meta: dict = {}

    # ------------------------------------------------------------------
    # Attachment / introspection
    # ------------------------------------------------------------------

    def attach(self, network) -> None:
        """Capture run-level metadata for the trace header."""
        mesh = network.mesh
        self.meta = {
            "n_tiles": int(mesh.n_tiles),
            "rows": int(getattr(mesh, "rows", 0)),
            "cols": int(getattr(mesh, "cols", 0)),
            "link_latency": int(network.config.link_latency),
            "routing": "xy",
            "pipeline_depth": int(network.config.router.pipeline_depth),
        }

    @property
    def packets_traced(self) -> int:
        return self._next_tid

    @property
    def events_retained(self) -> int:
        return len(self._buffer)

    @property
    def events_dropped(self) -> int:
        return self.events_total - len(self._buffer)

    def header(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "version": TRACE_SCHEMA_VERSION,
            "kind": "packets",
            "trace_every": self._every,
            "trace_apps": sorted(self._apps) if self._apps is not None else None,
            "buffer": self.config.buffer,
            **self.meta,
        }

    def footer(self) -> dict:
        return {
            "ev": "end",
            "events_total": self.events_total,
            "events_dropped": self.events_dropped,
            "packets_submitted": self.packets_submitted,
            "packets_traced": self.packets_traced,
        }

    def events(self):
        """Retained events as JSON-ready dicts, in emission order."""
        for record in self._buffer:
            kind, cycle = record[0], record[1]
            event = {"ev": kind, "t": cycle}
            for name, value in zip(EVENT_FIELDS[kind], record[2:]):
                event[name] = value
            yield event

    def _record(self, record: tuple) -> None:
        self.events_total += 1
        self._buffer.append(record)

    # ------------------------------------------------------------------
    # Network hooks (only called when a tracer is attached)
    # ------------------------------------------------------------------

    def on_submit(self, packet, now: int) -> None:
        self.packets_submitted += 1
        if self._apps is not None and packet.app not in self._apps:
            return
        seen = self._seen
        self._seen = seen + 1
        if seen % self._every:
            return
        tid = self._next_tid
        self._next_tid = tid + 1
        self._tids[packet.pid] = tid
        self._record(
            (
                "submit",
                now,
                tid,
                packet.src,
                packet.dst,
                packet.app,
                packet.traffic_class.name,
                packet.length,
            )
        )

    def on_flit(self, tile: int, out_port, out_vc: int, flit, now: int) -> None:
        """Switch/link traversal of a head flit at ``tile``."""
        if not flit.is_head:
            return
        tid = self._tids.get(flit.packet.pid)
        if tid is None:
            return
        self._record(("hop", now, tid, tile, out_port.name, out_vc))

    def on_vc_alloc(self, tile: int, out_port, out_vc: int, pid: int, now: int) -> None:
        tid = self._tids.get(pid)
        if tid is None:
            return
        self._record(("vc_alloc", now, tid, tile, out_port.name, out_vc))

    def on_eject(self, packet, now: int) -> None:
        tid = self._tids.pop(packet.pid, None)
        if tid is None:
            return
        self._record(
            (
                "eject",
                now,
                tid,
                packet.created_at,
                packet.injected_at,
                now - packet.created_at,
                packet.retries,
            )
        )

    # -- fault-path hooks (cold) ---------------------------------------

    def on_teardown(self, packet, now: int, flits: int) -> None:
        tid = self._tids.get(packet.pid)
        if tid is not None:
            self._record(("teardown", now, tid, flits))

    def on_retry(self, packet, now: int) -> None:
        tid = self._tids.get(packet.pid)
        if tid is not None:
            self._record(("retry", now, tid, packet.retries))

    def on_lost(self, packet, now: int) -> None:
        tid = self._tids.pop(packet.pid, None)
        if tid is not None:
            self._record(("lost", now, tid, packet.retries))

    def on_reroute(self, tile: int, dst: int, blocked, port, now: int) -> None:
        self._record(("reroute", now, tile, dst, blocked.name, port.name))

    def on_link_down(self, tile: int, port, now: int) -> None:
        self._record(("link_down", now, tile, port.name))

    def on_link_up(self, tile: int, port, now: int) -> None:
        self._record(("link_up", now, tile, port.name))
