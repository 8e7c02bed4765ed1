"""Latency statistics of simulated packets.

Holds a measurement window's delivered packets as columns and reproduces
the paper's metrics from *measured* (rather than modelled) latencies:
per-application APL, max-APL, dev-APL and g-APL, grouped by application
and traffic class.

Also home to :class:`FaultStats`, the counter block every fault-injection
run (:mod:`repro.noc.faults`) reports through the simulator result and
the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.noc.packet import TrafficClass

__all__ = ["FaultStats", "LatencySummary", "LatencyStats"]


@dataclass
class FaultStats:
    """Cumulative fault-injection and recovery counters for one run."""

    flits_dropped: int = 0  #: flits lost on links or purged from buffers
    packets_dropped: int = 0  #: packets torn down (drop events, not retries)
    packets_retried: int = 0  #: NACKed packets that re-entered the NI queue
    packets_lost: int = 0  #: packets abandoned after ``max_retries``
    nacks_delivered: int = 0  #: loss notifications that reached a source NI
    link_down_events: int = 0  #: link outage windows that began
    link_up_events: int = 0  #: link outage windows that ended
    reroutes: int = 0  #: head-flit route computations forced off a dead link
    stall_windows: int = 0  #: router stall windows that began
    deadlock_recoveries: int = 0  #: no-progress timeouts that killed a packet

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def any_faults(self) -> bool:
        return any(self.as_dict().values())

    def report(self) -> str:
        lines = ["fault injection:"]
        for name, value in self.as_dict().items():
            lines.append(f"  {name.replace('_', ' ')}: {value}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of one group of packet latencies."""

    count: int
    mean: float
    std: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def of(cls, latencies: np.ndarray) -> "LatencySummary":
        if latencies.size == 0:
            raise ValueError("cannot summarise an empty latency set")
        return cls(
            count=int(latencies.size),
            mean=float(latencies.mean()),
            std=float(latencies.std()),
            p50=float(np.percentile(latencies, 50)),
            p95=float(np.percentile(latencies, 95)),
            p99=float(np.percentile(latencies, 99)),
            max=float(latencies.max()),
        )


class LatencyStats:
    """One measurement window's delivered packets as int64 columns.

    ``latency``, ``app``, ``tclass``, ``src`` and ``dst`` hold one entry
    per packet in delivery order (the column names of
    :class:`~repro.noc.packet.PacketTable`); both engines build this
    from the packets they delivered in the window.  Every packet counts,
    src == dst ones (latency 0) included, as in the analytic model.
    The queries group the columns on demand.
    """

    def __init__(self, latency=(), app=(), tclass=(), src=(), dst=()) -> None:
        self.latency = np.ascontiguousarray(latency, dtype=np.int64)
        self.app = np.ascontiguousarray(app, dtype=np.int64)
        self.tclass = np.ascontiguousarray(tclass, dtype=np.int64)
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)

    @property
    def n_packets(self) -> int:
        return int(self.latency.size)

    def _of_app(self, app: int) -> np.ndarray:
        return self.latency[self.app == app]

    def overall(self) -> LatencySummary:
        return LatencySummary.of(self.latency)

    def by_class(self, traffic_class: TrafficClass) -> LatencySummary:
        return LatencySummary.of(self.latency[self.tclass == traffic_class])

    def classes(self) -> list[TrafficClass]:
        return [TrafficClass(v) for v in np.unique(self.tclass).tolist()]

    def apps(self) -> list[int]:
        return np.unique(self.app).tolist()

    def apl_by_app(self) -> dict[int, float]:
        """Measured per-application average packet latency."""
        return {app: float(np.mean(self._of_app(app))) for app in self.apps()}

    def by_app(self, app: int) -> LatencySummary:
        return LatencySummary.of(self._of_app(app))

    def histogram_by_app(self) -> dict[int, "Histogram"]:
        """Per-application latency :class:`~repro.obs.metrics.Histogram`.

        Built lazily from the raw samples on the shared
        :data:`~repro.obs.metrics.LATENCY_BUCKETS` layout so results merge
        cleanly into any :class:`~repro.obs.metrics.MetricsRegistry`.
        """
        from repro.obs.metrics import Histogram

        out: dict[int, Histogram] = {}
        for app in self.apps():
            hist = Histogram("repro_packet_latency_cycles", labels=(("app", str(app)),))
            # Python ints, so the histogram's sum renders as before.
            hist.observe_many(self._of_app(app).tolist())
            out[app] = hist
        return out

    def percentiles_by_app(self) -> dict[int, dict[str, float]]:
        """Exact per-application p50/p95/p99 from the raw samples."""
        out = {}
        for app in self.apps():
            p50, p95, p99 = np.percentile(self._of_app(app), [50, 95, 99]).tolist()
            out[app] = {"p50": p50, "p95": p95, "p99": p99}
        return out

    def max_apl(self) -> float:
        apls = self.apl_by_app()
        if not apls:
            raise ValueError("no packets recorded")
        return max(apls.values())

    def dev_apl(self) -> float:
        apls = np.array(list(self.apl_by_app().values()))
        if apls.size == 0:
            raise ValueError("no packets recorded")
        return float(apls.std())

    def g_apl(self) -> float:
        if not self.n_packets:
            raise ValueError("no packets recorded")
        return float(np.mean(self.latency))

    def report(self) -> str:
        lines = [f"{self.n_packets} packets delivered"]
        for app, apl in self.apl_by_app().items():
            label = f"app {app}" if app >= 0 else "background"
            n = int(np.count_nonzero(self.app == app))
            lines.append(f"  {label}: APL {apl:.2f} cycles ({n} pkts)")
        for cls in self.classes():
            s = self.by_class(cls)
            lines.append(
                f"  {cls.name}: mean {s.mean:.2f} p95 {s.p95:.1f} max {s.max:.0f} "
                f"({s.count} pkts)"
            )
        return "\n".join(lines)
