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

Every generator defines its traffic once, in ``emit(now, table)``, as
:class:`~repro.noc.packet.PacketTable` rows.  The vector engine passes its
own table; the fast path's ``packets_for_cycle`` builds
:class:`~repro.noc.packet.Packet` objects from the same rows, so pids
rise with ``created_at``.

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
from repro.noc.packet import Packet, PacketTable, TrafficClass
from repro.utils.rng import as_rng

__all__ = [
    "TrafficGenerator",
    "UniformRandomTraffic",
    "TransposeTraffic",
    "NearestMCTraffic",
    "MappedWorkloadTraffic",
]


#: ``TrafficClass`` by its row code (the enum values are 0..3 in order)
_CLASSES = tuple(TrafficClass)


class TrafficGenerator:
    """Base class: the packets created in each cycle.

    :meth:`emit` is a generator's one definition of its traffic.  The
    vector engine calls it with its packet table; :meth:`packets_for_cycle`
    turns the same rows into :class:`Packet` objects for the fast path.
    """

    _rows = None  #: this generator's scratch table for packets_for_cycle

    def emit(self, now: int, table: PacketTable) -> None:
        """Append the packets created in cycle ``now`` to ``table``."""
        raise NotImplementedError

    def packets_for_cycle(self, now: int) -> list[Packet]:
        """The rows :meth:`emit` writes for cycle ``now``, as packets."""
        rows = self._rows
        if rows is None:
            rows = self._rows = PacketTable(capacity=1)
        self.emit(now, rows)
        if not rows.src:
            return []
        packets = [
            Packet(src, dst, _CLASSES[cls], created, length, app)
            for src, dst, cls, length, created, app in zip(
                rows.src, rows.dst, rows.tclass, rows.length, rows.created, rows.app
            )
        ]
        rows.clear()
        return packets


@dataclass
class _PatternBase(TrafficGenerator):
    """Shared machinery for per-node Bernoulli injection patterns."""

    n_tiles: int
    injection_rate: float  #: packets per node per cycle
    length: int = 1
    seed: object = None

    #: drop packets whose destination is their source
    _skip_self = False

    def __post_init__(self) -> None:
        if not 0 <= self.injection_rate <= 1:
            raise ValueError("injection rate must be a per-cycle probability")
        if self.n_tiles < 2:
            raise ValueError("need at least two tiles for network traffic")
        if self.length < 1:
            raise ValueError(f"packet length must be >= 1 flit, got {self.length}")
        self._rng = as_rng(self.seed)

    def _dst(self, src: int) -> int:
        raise NotImplementedError

    def emit(self, now: int, table: PacketTable) -> None:
        sources = np.flatnonzero(self._rng.random(self.n_tiles) < self.injection_rate)
        for src in sources.tolist():
            dst = self._dst(src)
            if dst != src or not self._skip_self:
                table.append(src, dst, 0, self.length, now, -1)  # CACHE_REQUEST


class UniformRandomTraffic(_PatternBase):
    """Each packet targets a uniformly random *other* tile."""

    def _dst(self, src: int) -> int:
        dst = int(self._rng.integers(self.n_tiles - 1))
        return dst if dst < src else dst + 1


@dataclass
class TransposeTraffic(_PatternBase):
    """Matrix-transpose permutation traffic on a square mesh.

    Diagonal tiles would send to themselves; their packets are dropped.
    """

    side: int = 0

    _skip_self = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.side * self.side != self.n_tiles:
            raise ValueError("transpose traffic requires a square mesh")

    def _dst(self, src: int) -> int:
        r, c = divmod(src, self.side)
        return c * self.side + r


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
        # Replies scheduled for the future: cycle -> list of (src, dst,
        # class, app, thread) tuples, in scheduling order.
        self._pending: dict[int, list[tuple[int, int, int, int, int]]] = {}
        self._replied = ()  #: the reply tuples _emit_rows last emitted
        # Hot-loop lookup tables: one (2, n_threads) draw buffer matching
        # the stacked per-cycle probabilities, plus plain-list mirrors of
        # every per-thread/per-tile quantity the packet loop touches.
        self._p_both = np.vstack([self.p_cache, self.p_mem])
        self._draw_buf = np.empty_like(self._p_both)
        self._hit_buf = np.empty(self._p_both.shape, dtype=bool)
        self._tile_l = [int(t) for t in self.thread_tile]
        self._app_l = [int(a) for a in self.app_of_thread]
        self._nearest_l = [instance.model.nearest_mc(t) for t in range(self.n_tiles)]
        # Zero-load arrival of a single-flit request: hops * (pipeline +
        # link) + pipeline, per (src, dst).  The generator is open-loop (it
        # never sees deliveries), so a reply is due this long plus the
        # L2/memory latency after its request; queuing shifts real
        # arrivals by the 0-1 cycle td_q term at the paper's loads.
        per_hop = router_pipeline + link_latency
        self._est_l = (instance.mesh.hop_matrix * per_hop + router_pipeline).tolist()

    def emit(self, now: int, table: PacketTable) -> None:
        # One (2, n) draw: row 0 is the cache Bernoulli trials, row 1 the
        # memory trials, and row-major nonzero() yields the cache requests
        # before the memory ones (so the per-cache-request destination
        # draws follow the same order every time).
        self._rng.random(out=self._draw_buf)
        hits = np.less(self._draw_buf, self._p_both, out=self._hit_buf)
        rows, threads = hits.nonzero()
        # No hits and no reply due now -> nothing to emit and no RNG
        # draws owed (destination draws follow hits).
        if rows.size or now in self._pending:
            self._emit_rows(rows, threads, now, table)

    def packets_for_cycle(self, now: int) -> list[Packet]:
        """The base class's packets, plus the thread ids of their rows.

        :class:`~repro.noc.transactions.TransactionTracker` pairs
        requests with replies by thread, and the table has no thread
        column: requests take theirs from this cycle's hit buffer, replies
        from their pending tuple.
        """
        packets = super().packets_for_cycle(now)
        if packets:
            threads = self._hit_buf.nonzero()[1].tolist()
            threads += [reply[4] for reply in self._replied]
            for packet, thread in zip(packets, threads):
                packet.thread = thread
        return packets

    def _emit_rows(self, rows, threads, now: int, table: PacketTable) -> None:
        """Append this cycle's packets for Bernoulli hits ``(rows, threads)``.

        Requests come first, in hit order, each cache request drawing its
        destination as it goes; then the replies due now, in scheduling
        order.  Split out of :meth:`emit` so the vector engine can fuse
        the draw comparison across instances (one ``np.less`` +
        ``nonzero`` over a stacked buffer) and still consume each
        instance's RNG exactly as :meth:`emit` does.
        """
        rng = self._rng
        src_c, dst_c, cls_c = table.src, table.dst, table.tclass
        len_c, created_c, app_c = table.length, table.created, table.app
        tile, app, nearest = self._tile_l, self._app_l, self._nearest_l
        n_tiles = self.n_tiles
        pending = self._pending if self.generate_replies else None
        est = self._est_l
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
            if pending is not None:
                if memory:
                    due = now + est[src][dst] + self.memory_latency
                else:
                    due = now + est[src][dst] + self.l2_latency
                reply = (dst, src, cls + 1, app[thread], thread)  # *_REPLY
                pl = pending.get(due)
                if pl is None:
                    pending[due] = [reply]
                else:
                    pl.append(reply)
        if pending is not None:
            self._replied = replied = pending.pop(now, ())
            for src, dst, cls, app_id, _ in replied:
                src_c.append(src)
                dst_c.append(dst)
                cls_c.append(cls)
                len_c.append(5)  # replies carry a 64 B line + head
                created_c.append(now)
                app_c.append(app_id)
