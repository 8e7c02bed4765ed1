"""Traffic generation for the cycle-level NoC simulator.

Two families:

* :class:`MappedWorkloadTraffic` — the reproduction's workhorse.  Driven by
  an OBM instance and a mapping, each thread injects cache requests from
  its mapped tile to uniformly random tiles (the address-interleaved L2)
  and memory requests to its nearest controller, at its calibrated
  ``c_j`` / ``m_j`` rates.  Optional reply packets model the 5-flit data
  responses from L2 banks and memory controllers.
* Synthetic patterns (:class:`UniformRandomTraffic`,
  :class:`TransposeTraffic`, :class:`NearestMCTraffic`) used by the NoC
  validation tests and the latency-model calibration.

Rates in the workload model are *per unit time*; ``cycles_per_unit``
converts them to per-cycle injection probabilities (default 1000 cycles
per unit, which puts the paper's Table 3 rates comfortably below
saturation, matching its observation that ``td_q`` is only 0--1 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.latency import MeshLatencyModel
from repro.core.problem import Mapping, OBMInstance
from repro.noc.packet import Packet, TrafficClass
from repro.utils.rng import as_rng

__all__ = [
    "TrafficGenerator",
    "UniformRandomTraffic",
    "TransposeTraffic",
    "NearestMCTraffic",
    "MappedWorkloadTraffic",
]


class TrafficGenerator:
    """Base class: yields the packets created in a given cycle."""

    def packets_for_cycle(self, now: int) -> list[Packet]:
        raise NotImplementedError


@dataclass
class _PatternBase(TrafficGenerator):
    """Shared machinery for per-node Bernoulli injection patterns."""

    n_tiles: int
    injection_rate: float  #: packets per node per cycle
    length: int = 1
    seed: object = None

    def __post_init__(self) -> None:
        if not 0 <= self.injection_rate <= 1:
            raise ValueError("injection rate must be a per-cycle probability")
        if self.n_tiles < 2:
            raise ValueError("need at least two tiles for network traffic")
        self._rng = as_rng(self.seed)

    def _sources_this_cycle(self) -> np.ndarray:
        return np.flatnonzero(self._rng.random(self.n_tiles) < self.injection_rate)

    def _dst(self, src: int) -> int:
        raise NotImplementedError

    def packets_for_cycle(self, now: int) -> list[Packet]:
        out = []
        for src in self._sources_this_cycle():
            src = int(src)
            dst = self._dst(src)
            out.append(
                Packet(
                    src=src,
                    dst=dst,
                    traffic_class=TrafficClass.CACHE_REQUEST,
                    created_at=now,
                    length=self.length,
                )
            )
        return out


class UniformRandomTraffic(_PatternBase):
    """Each packet targets a uniformly random *other* tile."""

    def _dst(self, src: int) -> int:
        dst = int(self._rng.integers(self.n_tiles - 1))
        return dst if dst < src else dst + 1


@dataclass
class TransposeTraffic(_PatternBase):
    """Matrix-transpose permutation traffic on a square mesh."""

    side: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.side * self.side != self.n_tiles:
            raise ValueError("transpose traffic requires a square mesh")

    def _dst(self, src: int) -> int:
        r, c = divmod(src, self.side)
        return c * self.side + r

    def packets_for_cycle(self, now: int) -> list[Packet]:
        return [p for p in super().packets_for_cycle(now) if p.src != p.dst]


@dataclass
class NearestMCTraffic(_PatternBase):
    """All packets target the source's nearest memory controller."""

    model: MeshLatencyModel = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.model is None:
            raise ValueError("NearestMCTraffic requires a latency model")

    def _dst(self, src: int) -> int:
        return self.model.nearest_mc(src)


class MappedWorkloadTraffic(TrafficGenerator):
    """Inject an OBM workload's traffic under a given thread-to-tile mapping.

    Parameters
    ----------
    instance:
        The OBM instance (provides rates, latency model and mesh).
    mapping:
        Thread-to-tile permutation under test.
    cycles_per_unit:
        How many cycles one workload "unit time" spans; per-cycle injection
        probability of thread j is ``c_j / cycles_per_unit``.
    generate_replies:
        When True, every request schedules a reply packet (5 flits) in the
        reverse direction after a service delay (L2 hit latency for cache,
        memory latency for memory requests), reproducing the dominant
        request/reply structure of the real protocol.
    """

    def __init__(
        self,
        instance: OBMInstance,
        mapping: Mapping,
        cycles_per_unit: float = 1000.0,
        generate_replies: bool = False,
        l2_latency: int = 6,
        memory_latency: int = 128,
        seed=None,
        router_pipeline: int = 3,
        link_latency: int = 1,
    ) -> None:
        if cycles_per_unit <= 0:
            raise ValueError("cycles_per_unit must be positive")
        self._per_hop = router_pipeline + link_latency
        self._pipeline = router_pipeline
        self.instance = instance
        self.mapping = mapping
        self.cycles_per_unit = cycles_per_unit
        self.generate_replies = generate_replies
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        self._rng = as_rng(seed)

        wl = instance.workload
        self.p_cache = wl.cache_rates / cycles_per_unit
        self.p_mem = wl.mem_rates / cycles_per_unit
        if (self.p_cache + self.p_mem).max() > 1.0:
            raise ValueError(
                "per-cycle injection probability exceeds 1; increase cycles_per_unit"
            )
        self.thread_tile = mapping.perm
        self.app_of_thread = wl.app_of_thread
        self.n_tiles = instance.n
        self._model = instance.model
        # Replies scheduled for the future: cycle -> list of packets
        # (object path) / cycle -> list of field tuples (SoA path).  The
        # two paths never mix within one generator: a generator is
        # consumed by exactly one engine run.
        self._pending_replies: dict[int, list[Packet]] = {}
        self._soa_pending: dict[int, list[tuple[int, int, int, int]]] = {}
        # Hot-loop lookup tables: one (2, n_threads) draw buffer matching
        # the stacked per-cycle probabilities, plus plain-list mirrors of
        # every per-thread/per-tile quantity the packet loop touches.
        self._p_both = np.vstack([self.p_cache, self.p_mem])
        self._draw_buf = np.empty_like(self._p_both)
        self._hit_buf = np.empty(self._p_both.shape, dtype=bool)
        self._tile_l = [int(t) for t in self.thread_tile]
        self._app_l = [int(a) for a in self.app_of_thread]
        self._nearest_l = [self._model.nearest_mc(t) for t in range(self.n_tiles)]
        # Zero-load arrival estimate (sans the per-packet length term):
        # hops * (pipeline + link) + pipeline, per (src, dst).  The
        # generator is open-loop (it never sees deliveries), so a reply is
        # due this long plus (flits - 1) plus the L2/memory latency after
        # its request; queuing shifts real arrivals by the 0-1 cycle td_q
        # term at the paper's loads.
        self._est_l = (
            instance.mesh.hop_matrix * self._per_hop + self._pipeline
        ).tolist()

    def packets_for_cycle(self, now: int) -> list[Packet]:
        # One (2, n) draw: row 0 is the cache Bernoulli trials, row 1 the
        # memory trials — the same stream as the original stacked draw,
        # and row-major nonzero() preserves the cache-then-memory request
        # order (so the per-cache-request destination draws line up too).
        self._rng.random(out=self._draw_buf)
        hits = np.less(self._draw_buf, self._p_both, out=self._hit_buf)
        rows, threads = hits.nonzero()
        return self._emit(rows, threads, now)

    def _emit(self, rows, threads, now: int) -> list[Packet]:
        """Build this cycle's packets from Bernoulli hits ``(rows, threads)``.

        Split out from :meth:`packets_for_cycle` so the vector engine can
        batch the draw comparison across instances (one fused ``np.less``
        + ``nonzero`` over a stacked buffer) and still emit per-instance
        packets — including the interleaved per-request destination draws
        — in exactly the single-instance stream order.
        """
        rng = self._rng
        out = []
        if rows.size:
            tile = self._tile_l
            app = self._app_l
            for memory, thread in zip(rows.tolist(), threads.tolist()):
                src = tile[thread]
                if memory:
                    dst = self._nearest_l[src]
                    cls = TrafficClass.MEM_REQUEST
                else:
                    dst = int(rng.integers(self.n_tiles))
                    cls = TrafficClass.CACHE_REQUEST
                out.append(
                    Packet(
                        src=src,
                        dst=dst,
                        traffic_class=cls,
                        created_at=now,
                        app=app[thread],
                        thread=thread,
                    )
                )
        if self.generate_replies:
            if out:
                est = self._est_l
                pending = self._pending_replies
                for request in out:
                    if request.traffic_class == TrafficClass.CACHE_REQUEST:
                        delay, cls = self.l2_latency, TrafficClass.CACHE_REPLY
                    else:
                        delay, cls = self.memory_latency, TrafficClass.MEM_REPLY
                    due = (
                        now
                        + est[request.src][request.dst]
                        + (request.length - 1)
                        + delay
                    )
                    reply = Packet(
                        src=request.dst,
                        dst=request.src,
                        traffic_class=cls,
                        created_at=due,
                        app=request.app,
                        thread=request.thread,
                    )
                    pending.setdefault(due, []).append(reply)
            if self._pending_replies:
                out.extend(self._pending_replies.pop(now, []))
        return out

    def _emit_soa(self, rows, threads, now: int, table) -> None:
        """SoA twin of :meth:`_emit`: append straight into ``table``.

        Writes this cycle's packets as rows of a
        :class:`~repro.noc.packet.PacketTable` — no :class:`Packet`
        objects anywhere — while consuming the RNG draw-for-draw
        identically to :meth:`_emit` (the per-cache-request destination
        draws interleave with the hit order exactly as there).  Row
        order matches :meth:`_emit`'s returned list order: requests in
        hit order, then this cycle's due replies in scheduling order.
        """
        rng = self._rng
        src_c, dst_c, cls_c = table.src, table.dst, table.tclass
        len_c, created_c, app_c = table.length, table.created, table.app
        ej_c = table.ej
        start = len(src_c)
        if rows.size:
            tile = self._tile_l
            app = self._app_l
            nearest = self._nearest_l
            n_tiles = self.n_tiles
            for memory, thread in zip(rows.tolist(), threads.tolist()):
                src = tile[thread]
                if memory:
                    dst = nearest[src]
                    cls = 2  # TrafficClass.MEM_REQUEST
                else:
                    dst = int(rng.integers(n_tiles))
                    cls = 0  # TrafficClass.CACHE_REQUEST
                src_c.append(src)
                dst_c.append(dst)
                cls_c.append(cls)
                len_c.append(1)  # requests are single-flit (Table 2)
                created_c.append(now)
                app_c.append(app[thread])
                ej_c.append(-1)
        if self.generate_replies:
            end = len(src_c)
            if end > start:
                est = self._est_l
                pending = self._soa_pending
                l2, mem = self.l2_latency, self.memory_latency
                for pid in range(start, end):
                    src = src_c[pid]
                    dst = dst_c[pid]
                    if cls_c[pid] == 0:
                        due = now + est[src][dst] + l2
                        rcls = 1  # TrafficClass.CACHE_REPLY
                    else:
                        due = now + est[src][dst] + mem
                        rcls = 3  # TrafficClass.MEM_REPLY
                    pl = pending.get(due)
                    if pl is None:
                        pending[due] = [(dst, src, rcls, app_c[pid])]
                    else:
                        pl.append((dst, src, rcls, app_c[pid]))
            if self._soa_pending:
                for src, dst, rcls, app_id in self._soa_pending.pop(now, ()):
                    src_c.append(src)
                    dst_c.append(dst)
                    cls_c.append(rcls)
                    len_c.append(5)  # replies carry a 64 B line + head
                    created_c.append(now)
                    app_c.append(app_id)
                    ej_c.append(-1)
