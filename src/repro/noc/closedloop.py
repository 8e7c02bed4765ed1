"""Closed-loop cores: threads that block on outstanding transactions.

The open-loop generators inject at fixed rates regardless of network
state.  Real cores self-throttle: each thread tracks a limited number of
outstanding misses (MSHRs) and issues its next request only when a slot
frees, after a think time drawn from its rate.  This module models that
loop, producing two quantities the open-loop model cannot:

* **achieved throughput** per thread (requests completed per kilo-cycle),
  the latency-bound analogue of IPC, and
* latency-throughput coupling: a thread mapped to high-``TC`` tiles
  completes fewer requests per unit time, which is exactly the
  user-visible "slow tile" penalty the paper's balancing removes.

The service side mirrors the open-loop model: cache requests are answered
by the home L2 bank after its hit latency, memory requests by the nearest
controller after the DRAM latency; replies are 5-flit packets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import Mapping, OBMInstance
from repro.noc.network import Network, NetworkConfig
from repro.noc.packet import Packet, TrafficClass
from repro.utils.rng import as_rng

__all__ = ["ClosedLoopConfig", "ClosedLoopResult", "ClosedLoopSimulator"]


@dataclass(frozen=True)
class ClosedLoopConfig:
    mshrs_per_thread: int = 4  #: max outstanding transactions per thread
    cycles_per_unit: float = 1000.0  #: converts workload rates to think times
    l2_latency: int = 6
    memory_latency: int = 128

    def __post_init__(self) -> None:
        if self.mshrs_per_thread < 1:
            raise ValueError("need at least one MSHR per thread")
        if self.cycles_per_unit <= 0:
            raise ValueError("cycles_per_unit must be positive")
        if self.l2_latency < 0 or self.memory_latency < 0:
            raise ValueError("service latencies must be non-negative")


@dataclass
class ClosedLoopResult:
    completed: np.ndarray  #: transactions completed per thread
    cycles: int
    apl_by_app: dict[int, float]  #: mean round-trip latency per application
    throughput_by_app: dict[int, float]  #: completions per kilo-cycle per thread
    progress_by_app: dict[int, float]  #: achieved / offered rate (<= ~1)

    def progress_spread(self) -> float:
        """max - min of rate-normalised progress across applications.

        The closed-loop analogue of dev-APL: how unevenly the mapping lets
        applications make progress relative to their demand.
        """
        values = list(self.progress_by_app.values())
        return max(values) - min(values)


class _ThreadState:
    __slots__ = ("outstanding", "next_issue", "completed", "latencies")

    def __init__(self) -> None:
        self.outstanding = 0
        self.next_issue = 0
        self.completed = 0
        self.latencies: list[int] = []


class ClosedLoopSimulator:
    """Drive an OBM workload through the NoC with blocking threads."""

    def __init__(
        self,
        instance: OBMInstance,
        mapping: Mapping,
        config: ClosedLoopConfig | None = None,
        network_config: NetworkConfig | None = None,
        seed=None,
    ) -> None:
        self.instance = instance
        self.mapping = mapping
        self.config = config or ClosedLoopConfig()
        self.network = Network(instance.mesh, network_config)
        self.rng = as_rng(seed)
        wl = instance.workload
        total = wl.cache_rates + wl.mem_rates
        self.active_threads = np.flatnonzero(total > 0)
        # Mean think time between completions and next issue, from rates:
        # a thread with rate r (per unit) targets r requests per
        # cycles_per_unit, i.e. an inter-request gap of cpu/r cycles minus
        # the round trip it waits anyway; clamp at >= 1.
        self.mean_gap = np.where(
            total > 0, self.config.cycles_per_unit / np.maximum(total, 1e-12), np.inf
        )
        self.p_memory = np.where(total > 0, wl.mem_rates / np.maximum(total, 1e-12), 0.0)
        self.states = {int(t): _ThreadState() for t in self.active_threads}
        # Replies scheduled for the future, and the request-creation time
        # behind each pending reply (for round-trip accounting).
        self._due: dict[int, list[Packet]] = {}
        self._request_created: dict[int, int] = {}

    def _issue(self, thread: int, now: int) -> None:
        wl = self.instance.workload
        src = int(self.mapping.perm[thread])
        if self.rng.random() < self.p_memory[thread]:
            dst = self.instance.model.nearest_mc(src)
            cls = TrafficClass.MEM_REQUEST
        else:
            dst = int(self.rng.integers(self.instance.n))
            cls = TrafficClass.CACHE_REQUEST
        packet = Packet(
            src=src, dst=dst, traffic_class=cls, created_at=now,
            app=int(wl.app_of_thread[thread]), thread=thread,
        )
        self.network.submit(packet)
        self.states[thread].outstanding += 1

    def _serve(self, request: Packet, now: int) -> None:
        if request.traffic_class == TrafficClass.CACHE_REQUEST:
            delay, cls = self.config.l2_latency, TrafficClass.CACHE_REPLY
        else:
            delay, cls = self.config.memory_latency, TrafficClass.MEM_REPLY
        reply = Packet(
            src=request.dst, dst=request.src, traffic_class=cls,
            created_at=now + delay, app=request.app, thread=request.thread,
        )
        self._request_created[reply.pid] = request.created_at
        self._due.setdefault(now + delay, []).append(reply)

    def run(self, cycles: int) -> ClosedLoopResult:
        if cycles < 1:
            raise ValueError("cycles must be positive")
        net = self.network
        end = net.now + cycles
        seen = 0
        while net.now < end:
            now = net.now
            # Release replies whose service completed.
            for reply in self._due.pop(now, ()):
                net.submit(reply)
            # Threads issue when idle slots and think time allow.
            for thread in self.active_threads:
                thread = int(thread)
                state = self.states[thread]
                if (
                    state.outstanding < self.config.mshrs_per_thread
                    and state.next_issue <= now
                ):
                    self._issue(thread, now)
                    gap = self.rng.exponential(self.mean_gap[thread])
                    state.next_issue = now + max(1, int(round(gap)))
            net.step()
            # Consume deliveries: requests spawn replies, replies retire
            # their transaction.
            for packet in net.delivered[seen:]:
                if packet.traffic_class.is_reply:
                    state = self.states[packet.thread]
                    state.outstanding -= 1
                    state.completed += 1
                    started = self._request_created.pop(packet.pid)
                    state.latencies.append(packet.ejected_at - started)
                else:
                    self._serve(packet, net.now)
            seen = len(net.delivered)

        wl = self.instance.workload
        completed = np.zeros(wl.n_threads, dtype=np.int64)
        app_lat: dict[int, list[int]] = {}
        app_completed: dict[int, int] = {}
        app_threads: dict[int, int] = {}
        for thread, state in self.states.items():
            completed[thread] = state.completed
            app = int(wl.app_of_thread[thread])
            app_lat.setdefault(app, []).extend(state.latencies)
            app_completed[app] = app_completed.get(app, 0) + state.completed
            app_threads[app] = app_threads.get(app, 0) + 1
        apl_by_app = {
            app: float(np.mean(lat)) for app, lat in app_lat.items() if lat
        }
        throughput_by_app = {
            app: app_completed[app] / app_threads[app] / (cycles / 1000.0)
            for app in app_completed
        }
        # Offered per-thread rate in requests per kilo-cycle.
        total = wl.cache_rates + wl.mem_rates
        progress_by_app = {}
        for app in app_completed:
            sl = wl.thread_slice(app)
            offered = float(total[sl].mean()) * 1000.0 / self.config.cycles_per_unit
            progress_by_app[app] = (
                throughput_by_app[app] / offered if offered > 0 else 0.0
            )
        return ClosedLoopResult(
            completed=completed,
            cycles=cycles,
            apl_by_app=apl_by_app,
            throughput_by_app=throughput_by_app,
            progress_by_app=progress_by_app,
        )
