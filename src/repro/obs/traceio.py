"""Reading, validating and summarising saved JSONL traces.

The write side lives in :mod:`repro.obs.exporters`; this module is the
analysis half used by ``python -m repro trace``: load a trace file,
check it against the schema (:func:`validate_trace`), reconstruct
per-packet lifecycles with per-hop dwell times (:func:`summarize`), and
answer the questions the paper's figures ask of distributions — slowest
packets, per-application percentiles — from the trace alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracing import EVENT_FIELDS, TRACE_SCHEMA, TRACE_SCHEMA_VERSION

__all__ = [
    "TraceFile",
    "read_trace",
    "validate_trace",
    "trace_file_kind",
    "PacketTrace",
    "HopRecord",
    "summarize",
    "slowest",
    "per_app_percentiles",
    "format_packet",
    "spans_by_trace",
    "format_span_tree",
]

#: Fields whose values are strings; every other schema field is an int
#: (except ``attrs``, a free-form JSON object on span events).
_STRING_FIELDS = frozenset({"cls", "port", "blocked", "name"})
_DICT_FIELDS = frozenset({"attrs"})

#: Schema versions this reader understands (v1 = packet traces without
#: the ``kind`` header field; v2 adds ``kind`` and span events).
_KNOWN_VERSIONS = frozenset({1, TRACE_SCHEMA_VERSION})


@dataclass(frozen=True)
class TraceFile:
    """A parsed JSONL trace: header dict, event dicts, footer dict."""

    header: dict
    events: list[dict]
    footer: dict
    path: Path | None = None


def read_trace(path: str | Path) -> TraceFile:
    """Parse a JSONL trace file (header line, event lines, footer line)."""
    path = Path(path)
    header: dict | None = None
    footer: dict = {}
    events: list[dict] = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
            if header is None:
                header = obj
            elif obj.get("ev") == "end":
                footer = obj
            else:
                events.append(obj)
    if header is None:
        raise ValueError(f"{path}: empty trace file")
    return TraceFile(header=header, events=events, footer=footer, path=path)


def trace_file_kind(trace: TraceFile) -> str:
    """``"packets"`` or ``"spans"`` (v1 headers carry no ``kind`` field)."""
    return trace.header.get("kind", "packets")


def validate_trace(trace: TraceFile | str | Path) -> list[str]:
    """Schema-check a trace; returns a list of problems (empty = valid)."""
    if not isinstance(trace, TraceFile):
        trace = read_trace(trace)
    errors: list[str] = []
    header = trace.header
    if header.get("schema") != TRACE_SCHEMA:
        errors.append(f"header schema is {header.get('schema')!r}, expected {TRACE_SCHEMA!r}")
    if header.get("version") not in _KNOWN_VERSIONS:
        errors.append(
            f"header version is {header.get('version')!r}, "
            f"expected one of {sorted(_KNOWN_VERSIONS)}"
        )
    trace_kind = trace_file_kind(trace)
    if trace_kind == "spans":
        if header.get("version") == 1:
            errors.append("span traces require schema version >= 2")
        for key in ("clock", "buffer"):
            if key not in header:
                errors.append(f"header field {key!r} missing")
    elif trace_kind == "packets":
        for key in ("n_tiles", "link_latency", "trace_every"):
            if not isinstance(header.get(key), int):
                errors.append(f"header field {key!r} missing or not an integer")
    else:
        errors.append(f"header kind is {header.get('kind')!r}, expected 'packets' or 'spans'")
    last_t = None
    for i, event in enumerate(trace.events):
        kind = event.get("ev")
        if kind not in EVENT_FIELDS:
            errors.append(f"event {i}: unknown kind {kind!r}")
            continue
        if (kind == "span") != (trace_kind == "spans"):
            errors.append(f"event {i}: kind {kind!r} not valid in a {trace_kind!r} trace")
            continue
        t = event.get("t")
        if not isinstance(t, int):
            errors.append(f"event {i} ({kind}): missing integer cycle 't'")
        else:
            if last_t is not None and t < last_t:
                errors.append(
                    f"event {i} ({kind}): cycle {t} goes backwards (previous {last_t})"
                )
            last_t = t
        for name in EVENT_FIELDS[kind]:
            value = event.get(name)
            if name in _STRING_FIELDS:
                if not isinstance(value, str):
                    errors.append(f"event {i} ({kind}): field {name!r} must be a string")
            elif name in _DICT_FIELDS:
                if not isinstance(value, dict):
                    errors.append(f"event {i} ({kind}): field {name!r} must be an object")
            elif not isinstance(value, int):
                errors.append(f"event {i} ({kind}): field {name!r} must be an integer")
        if len(errors) > 50:
            errors.append("... further errors suppressed")
            break
    if not trace.footer:
        errors.append("missing 'end' footer record")
    else:
        footer_keys = (
            ("events_total", "events_dropped", "spans_total", "traces_total")
            if trace_kind == "spans"
            else ("events_total", "events_dropped", "packets_traced")
        )
        for key in footer_keys:
            if not isinstance(trace.footer.get(key), int):
                errors.append(f"footer field {key!r} missing or not an integer")
    return errors


# ----------------------------------------------------------------------
# Per-packet reconstruction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HopRecord:
    """One router visit: arrival, switch-traversal departure, dwell."""

    tile: int
    port: str  #: output port taken (LOCAL = ejection at the destination)
    vc: int
    arrived: int
    departed: int

    @property
    def dwell(self) -> int:
        return self.departed - self.arrived


@dataclass
class PacketTrace:
    """A packet's reconstructed lifecycle."""

    id: int
    src: int
    dst: int
    app: int
    cls: str
    length: int
    created: int
    injected: int | None = None
    ejected: int | None = None
    latency: int | None = None
    retries: int = 0
    outcome: str = "in_flight"  #: delivered | lost | in_flight
    hops: list[HopRecord] = field(default_factory=list)
    teardowns: int = 0

    @property
    def queue_wait(self) -> int | None:
        """Cycles between creation and first switch traversal at the source."""
        if not self.hops:
            return None
        return self.hops[0].departed - self.created


def summarize(trace: TraceFile) -> list[PacketTrace]:
    """Reconstruct per-packet lifecycles (hop dwell times included)."""
    link_latency = int(trace.header.get("link_latency", 1))
    packets: dict[int, PacketTrace] = {}
    raw_hops: dict[int, list[dict]] = {}
    for event in trace.events:
        kind = event["ev"]
        if kind == "submit":
            packets[event["id"]] = PacketTrace(
                id=event["id"],
                src=event["src"],
                dst=event["dst"],
                app=event["app"],
                cls=event["cls"],
                length=event["len"],
                created=event["t"],
            )
            raw_hops[event["id"]] = []
        elif kind == "hop":
            if event["id"] in raw_hops:
                raw_hops[event["id"]].append(event)
        elif kind == "eject":
            packet = packets.get(event["id"])
            if packet is not None:
                packet.ejected = event["t"]
                packet.injected = event["injected"]
                packet.latency = event["latency"]
                packet.retries = event["retries"]
                packet.outcome = "delivered"
        elif kind == "lost":
            packet = packets.get(event["id"])
            if packet is not None:
                packet.retries = event["retries"]
                packet.outcome = "lost"
        elif kind == "teardown":
            packet = packets.get(event["id"])
            if packet is not None:
                packet.teardowns += 1
    for pid, hops in raw_hops.items():
        packet = packets[pid]
        arrive = packet.created
        records = []
        for hop in hops:
            records.append(
                HopRecord(
                    tile=hop["tile"],
                    port=hop["port"],
                    vc=hop["vc"],
                    arrived=arrive,
                    departed=hop["t"],
                )
            )
            arrive = hop["t"] + link_latency
        if packet.ejected is not None and records:
            records.append(
                HopRecord(
                    tile=packet.dst,
                    port="LOCAL",
                    vc=-1,
                    arrived=arrive,
                    departed=packet.ejected,
                )
            )
        packet.hops = records
    return [packets[pid] for pid in sorted(packets)]


def slowest(packets: list[PacketTrace], n: int = 10) -> list[PacketTrace]:
    """The ``n`` delivered packets with the highest end-to-end latency."""
    delivered = [p for p in packets if p.latency is not None]
    return sorted(delivered, key=lambda p: (-p.latency, p.id))[:n]


def per_app_percentiles(packets: list[PacketTrace]) -> dict[int, dict[str, float]]:
    """Exact per-application latency percentiles from traced ejections."""
    by_app: dict[int, list[int]] = {}
    for packet in packets:
        if packet.latency is not None:
            by_app.setdefault(packet.app, []).append(packet.latency)
    out: dict[int, dict[str, float]] = {}
    for app in sorted(by_app):
        latencies = sorted(by_app[app])
        n = len(latencies)

        def pct(q: float) -> float:
            if n == 1:
                return float(latencies[0])
            pos = q * (n - 1)
            lo = int(pos)
            frac = pos - lo
            hi = min(lo + 1, n - 1)
            return latencies[lo] * (1 - frac) + latencies[hi] * frac

        out[app] = {
            "count": n,
            "mean": sum(latencies) / n,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "p99": pct(0.99),
            "max": float(latencies[-1]),
        }
    return out


# ----------------------------------------------------------------------
# Span traces (schema v2, kind "spans")
# ----------------------------------------------------------------------


def spans_by_trace(trace: TraceFile) -> dict[int, list[dict]]:
    """Group span events by trace id, each group ordered by span id."""
    out: dict[int, list[dict]] = {}
    for event in trace.events:
        if event.get("ev") == "span":
            out.setdefault(event["trace_id"], []).append(event)
    for spans in out.values():
        spans.sort(key=lambda s: s["span_id"])
    return out


def format_span_tree(spans: list[dict], unit: str = "") -> list[str]:
    """Indented parent->child rendering of one trace's spans.

    Works on span events from a trace file and on the span lists a
    flight-recorder dump stores (same fields, minus ``trace_id``).
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent_span"], []).append(s)
    lines: list[str] = []

    def walk(parent: int, depth: int) -> None:
        for s in sorted(children.get(parent, ()), key=lambda s: s["span_id"]):
            attrs = s.get("attrs") or {}
            detail = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            line = f"{'  ' * depth}{s['name']}  t0={s['t0']} dur={s['dur']}{unit}"
            if detail:
                line += f"  [{detail}]"
            lines.append(line)
            walk(s["span_id"], depth + 1)

    walk(-1, 0)
    return lines


def format_packet(packet: PacketTrace) -> str:
    """Human-readable per-hop breakdown of one packet's lifecycle."""
    head = (
        f"packet {packet.id}: {packet.src}->{packet.dst} app {packet.app} "
        f"{packet.cls} ({packet.length} flits) created @{packet.created}"
    )
    if packet.outcome == "delivered":
        head += f", delivered @{packet.ejected} (latency {packet.latency}"
        if packet.retries:
            head += f", {packet.retries} retries"
        head += ")"
    elif packet.outcome == "lost":
        head += f", LOST after {packet.retries} retries"
    else:
        head += ", still in flight at trace end"
    lines = [head]
    for hop in packet.hops:
        lines.append(
            f"    tile {hop.tile:>3} -> {hop.port:<5} vc {hop.vc:>2}  "
            f"arrive @{hop.arrived:<8} depart @{hop.departed:<8} dwell {hop.dwell}"
        )
    if packet.teardowns:
        lines.append(f"    ({packet.teardowns} fault teardown(s) along the way)")
    return "\n".join(lines)
