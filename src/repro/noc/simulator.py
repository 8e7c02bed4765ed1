"""Top-level NoC simulation driver.

Couples a :class:`~repro.noc.network.Network` with a traffic generator,
handles warmup/measurement windows, and produces measured latency
statistics and power numbers.  This is the reproduction's stand-in for the
paper's Garnet runs: given a mapping, it *measures* what the analytic
``TC``/``TM`` model *predicts*, closing the validation loop.

Two engines produce bit-identical results (the golden equivalence suite
pins them).  A run uses the vector engine
(:mod:`repro.noc.vector_engine`) when its compiled cycle kernel loads
and the run needs no per-event hooks — faults, invariants or
observability — which only the fast path
(:class:`~repro.noc.network.Network`) has; otherwise, or with
``engine="fastpath"``, it uses the fast path.  ``result.engine`` says
which one ran, and ``sim.network`` is the fast path's network (``None``
on a vector run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.latency import Mesh
from repro.noc import cc_kernel
from repro.noc.network import Network, NetworkConfig
from repro.noc.power import ActivityCounts, PowerBreakdown, PowerModel, PowerParams
from repro.noc.stats import FaultStats, LatencyStats
from repro.noc.traffic import TrafficGenerator
from repro.obs import reqtrace

__all__ = ["SimulationResult", "NoCSimulator"]

#: Engine backends accepted by :class:`NoCSimulator`.
ENGINES = ("fastpath", "vector")


@dataclass
class SimulationResult:
    """Everything measured during the measurement window."""

    stats: LatencyStats
    power: PowerBreakdown
    counts: ActivityCounts
    cycles: int
    packets_offered: int
    packets_delivered: int
    #: fault/recovery counters (None unless a fault schedule was attached)
    fault_stats: FaultStats | None = None
    #: measurement-window packets abandoned after exhausting retries
    packets_lost: int = 0
    #: completed invariant sweeps (0 unless invariant checking was enabled)
    invariant_checks: int = 0
    #: engine that produced this result ("fastpath" or "vector")
    engine: str = "fastpath"

    @property
    def delivery_ratio(self) -> float:
        if self.packets_offered == 0:
            return 1.0
        return self.packets_delivered / self.packets_offered

    @classmethod
    def of_window(
        cls,
        stats: LatencyStats,
        power_model: PowerModel,
        *,
        routed: int,
        ejected: int,
        buffer_writes: int,
        cycles: int,
        offered: int,
        engine: str,
        **extra,
    ) -> "SimulationResult":
        """The result of a window from its counter deltas and samples.

        ``routed``/``ejected``/``buffer_writes`` are the window's flit
        router traversals, ejections and buffer writes.  Every switch
        traversal except the final one (ejection into the local NI)
        pushes the flit onto a link, so link traversals equal router
        traversals minus the flits ejected.  ``extra`` fills the
        fast-path-only fields (faults, invariants).
        """
        counts = ActivityCounts(
            flit_router_traversals=routed,
            flit_link_traversals=max(0, routed - ejected),
            buffer_writes=buffer_writes,
            cycles=cycles,
        )
        return cls(
            stats=stats,
            power=power_model.power(counts),
            counts=counts,
            cycles=cycles,
            packets_offered=offered,
            packets_delivered=stats.n_packets,
            engine=engine,
            **extra,
        )


class NoCSimulator:
    """Warmup + measure simulation harness.

    Packets created during warmup are excluded from statistics; packets
    created during the measurement window are always drained to completion
    so the latency sample is unbiased (truncating at the window edge would
    censor exactly the slowest packets).
    """

    def __init__(
        self,
        mesh: Mesh,
        traffic: TrafficGenerator,
        network_config: NetworkConfig | None = None,
        power_params: PowerParams | None = None,
        *,
        faults=None,
        invariants=None,
        obs=None,
        engine: str = "vector",
    ) -> None:
        from repro.obs import Observability

        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.mesh = mesh
        self.traffic = traffic
        self.network_config = network_config
        self.power_params = power_params
        self.obs = Observability.coerce(obs)
        if self.obs is not None or faults is not None or invariants:
            engine = "fastpath"  # only the fast path has per-event hooks
        elif cc_kernel.library() is None:
            engine = "fastpath"  # the vector engine is the compiled kernel
        self.engine = engine
        self.network = None
        if engine == "fastpath":
            self.network = Network(
                mesh,
                network_config,
                faults=faults,
                invariants=invariants,
                tracer=None if self.obs is None else self.obs.tracer,
            )
        self.power_model = PowerModel(mesh, power_params)

    def _window(self, cycles: int, count_offered: bool) -> int:
        """Inject + step for ``cycles`` cycles; returns packets offered.

        Built in two variants so observability-off runs execute exactly
        the pre-observability loop (no per-cycle sampler check).
        """
        net = self.network
        offered = 0
        sampler = None if self.obs is None else self.obs.sampler
        if sampler is None:
            for _ in range(cycles):
                for packet in self.traffic.packets_for_cycle(net.now):
                    net.submit(packet)
                    offered += 1
                net.step()
        else:
            for _ in range(cycles):
                for packet in self.traffic.packets_for_cycle(net.now):
                    net.submit(packet)
                    offered += 1
                net.step()
                sampler.on_cycle(net)
        return offered if count_offered else 0

    def run(self, warmup: int = 1_000, measure: int = 10_000) -> SimulationResult:
        """Run ``warmup`` cycles, then measure for ``measure`` cycles."""
        if warmup < 0 or measure <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        if self.engine == "vector":
            from repro.noc.vector_engine import VectorEngine

            vec = VectorEngine(
                self.mesh, [self.traffic], self.network_config, self.power_params
            )
            return vec.run(warmup=warmup, measure=measure)[0]
        net = self.network
        sampler = None if self.obs is None else self.obs.sampler
        if sampler is not None:
            sampler.attach(net)

        with reqtrace.span("noc.warmup"):
            self._window(warmup, count_offered=False)
        warmup_end = net.now
        delivered_before = len(net.delivered)
        flits_routed_before = sum(r.flits_routed for r in net.routers)
        writes_before = sum(r.buffer_writes for r in net.routers)
        ejected_before = net.flits_ejected

        with reqtrace.span("noc.measure"):
            offered = self._window(measure, count_offered=True)
        # Drain so every measured packet has a latency.
        with reqtrace.span("noc.drain"):
            net.drain()
        if sampler is not None:
            sampler.finish(net)
        net.assert_conserved()

        window = [p for p in net.delivered[delivered_before:] if p.created_at >= warmup_end]
        columns = np.array(
            [(p.latency, p.app, p.traffic_class, p.src, p.dst) for p in window],
            dtype=np.int64,
        ).reshape(-1, 5)
        checker = net.invariants
        result = SimulationResult.of_window(
            LatencyStats(*columns.T),
            self.power_model,
            routed=sum(r.flits_routed for r in net.routers) - flits_routed_before,
            ejected=net.flits_ejected - ejected_before,
            buffer_writes=sum(r.buffer_writes for r in net.routers) - writes_before,
            cycles=measure,  # activity normalised to the offered window
            offered=offered,
            engine=self.engine,
            fault_stats=net.fault_stats,
            packets_lost=sum(1 for p in net.lost_packets if p.created_at >= warmup_end),
            invariant_checks=checker.checks_run if checker is not None else 0,
        )
        if self.obs is not None:
            self.obs.finalize(result, net)
        return result
