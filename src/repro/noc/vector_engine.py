"""Vectorized structure-of-arrays NoC engine with batched execution.

The object engine (:mod:`repro.noc.network`) dispatches per-``Router``
Python objects every cycle.  This engine keeps *all* simulation state —
VC buffers, credits, route/allocation state and switch pointers — in
preallocated flat arrays.  A batch of B independent simulations shares
the same arrays: instance ``b``'s tile ``t`` is global tile ``b * T + t``
of one big disconnected mesh.

The immutable topology tables (the flat T x T route table and the
(T, 5) neighbour table) depend only on ``(rows, cols)``, so
every engine of one shape shares one read-only copy from
:func:`repro.noc.routing.topology_tables`.  The first engine of a shape
in a process pays the build (about 11 ms on 8x8, 180 ms on 16x16);
later ones pay nothing for it.

The cycle loop is compiled: each window (warmup, measure, drain) is one
call into the C cycle kernel (:mod:`repro.noc.cc_kernel`, source
``repro/csrc/noc_cycle.c``), built into the same shared object as the
solver kernels.  When every generator is a
:class:`~repro.noc.traffic.MappedWorkloadTraffic`, that call also emits
the traffic: before each cycle the kernel draws, emits and admits every
instance's packets exactly as :meth:`MappedWorkloadTraffic.emit
<repro.noc.traffic.MappedWorkloadTraffic.emit>` would, from each
generator's own NumPy bit generator, and then steps the network.  Any
other batch keeps calling each generator's ``emit`` in Python, one
window of rows at a time, and the kernel admits those rows cycle by
cycle.  ``ctypes`` releases the GIL for the call.

The engine runs only where the kernel loads: ``REPRO_CC=0``,
``permkernels.force_backend("reference")`` or a missing C
compiler make :class:`VectorEngine` raise ``RuntimeError``.  There
:func:`run_batch` and :func:`simulate_batch` run each traffic through
the fast path instead (``result.engine == "fastpath"``), with the same
results; :class:`~repro.noc.simulator.NoCSimulator` makes the same
choice.

Bit-exactness
-------------
Results are bit-identical to the object engine (and hence to the fast
path, which is itself pinned bit-identical to the seed loops).  The
kernel keeps the object engine's order: routers step in ascending tile
order with route, VC allocation and switch fused per router
(``noc_cycle.c``'s header says why that fusion is exact), and delivered
packets are appended in ascending tile order per instance (at most one
ejection per tile per cycle), which fixes the float-summation order of
the latency statistics.

Packets as columns
------------------
A packet is a row of the kernel's int64 columns (source, destination,
class, length, creation cycle, instance, app and ejection cycle),
indexed by its pid; no :class:`~repro.noc.packet.Packet` objects exist
on this path, and mapped traffic costs no Python work per packet.  The
kernel logs delivered pids in delivery order, and at the end of
:meth:`VectorEngine.run` each instance's delivered rows become its
:class:`~repro.noc.stats.LatencyStats` columns — the same
``SimulationResult`` fields the fast path fills.

Faults, invariants and observability hooks are *not* supported here;
:class:`~repro.noc.simulator.NoCSimulator` runs the fast path whenever
any of them is attached.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core import permkernels
from repro.core.latency import Mesh
from repro.noc import cc_kernel
from repro.noc.network import NetworkConfig
from repro.noc.packet import PacketTable
from repro.noc.power import PowerModel, PowerParams
from repro.noc.routing import topology_tables
from repro.noc.simulator import NoCSimulator, SimulationResult
from repro.noc.stats import LatencyStats
from repro.noc.traffic import MappedWorkloadTraffic, TrafficGenerator
from repro.obs import reqtrace

__all__ = ["VectorEngine", "run_batch", "simulate_batch"]

_N_PORTS = 5
#: opposite-port table as an indexable array (routing._OPPOSITE holds enums)
_OPP = np.array([0, 2, 1, 4, 3], dtype=np.int64)


class VectorEngine:
    """Structure-of-arrays engine stepping B simulations in lockstep.

    Parameters mirror :class:`~repro.noc.simulator.NoCSimulator` except
    that ``traffics`` is a sequence: one independent traffic generator
    per batched simulation instance.  All instances share the mesh and
    network configuration (the batch lives in one array set).
    ``table_capacity`` is the packet columns' initial row count; they
    double as a run needs.  Raises ``RuntimeError`` where the compiled
    cycle kernel does not load.
    """

    def __init__(
        self,
        mesh: Mesh,
        traffics,
        network_config: NetworkConfig | None = None,
        power_params: PowerParams | None = None,
        *,
        table_capacity: int = 4096,
    ) -> None:
        self.traffics: list[TrafficGenerator] = list(traffics)
        if not self.traffics:
            raise ValueError("need at least one traffic generator")
        lib = cc_kernel.library()
        if lib is None:
            info = permkernels.backend_info()
            reason = info["cc_reason"] or f"the solver backend is {info['backend']!r}"
            raise RuntimeError(f"the compiled cycle kernel is unavailable: {reason}")
        self.config = network_config or NetworkConfig()
        rc = self.config.router
        self.power_model = PowerModel(mesh, power_params)

        B = self.B = len(self.traffics)
        T = self.T = mesh.n_tiles
        V = self.V = rc.vcs_per_port
        C = self.C = _N_PORTS * V
        NT = self.NT = B * T
        NCH = NT * C
        self.DEPTH = rc.buffer_depth
        self.PIPE = rc.pipeline_depth
        self.LAT = self.config.link_latency
        self._per = V // rc.vc_classes
        self.VCLO = np.array([rc.vc_range(c)[0] for c in range(4)], dtype=np.int64)
        # Ring geometry (power of two so positions reduce with a mask).
        self.RING = cc_kernel.pow2_at_least(self.DEPTH)

        # ---- immutable topology tables -------------------------------
        # Shared read-only per (rows, cols); the first engine of a shape
        # in a process pays the T x T build (see topology_tables).
        self.ROUTE, nei = topology_tables(mesh.rows, mesh.cols)

        ch = np.arange(NCH, dtype=np.int64)
        gtile = ch // C  # global tile of each channel
        key = ch % C  # (port, vc) within the router
        port_of = key // V
        # Upstream credit slot (base + input VC) of each non-LOCAL input
        # channel: the neighbour in direction `port` owns the output
        # feeding this input.  -1 for LOCAL inputs and mesh edges.
        up_tile = nei[gtile % T, port_of]
        upc = ((gtile // T) * T + up_tile) * C + _OPP[port_of] * V + key % V
        self.UPCV = np.where((port_of == 0) | (up_tile < 0), -1, upc)

        # Link l = gtile * 4 + (out_port - 1); ARR_BASE maps a link to the
        # downstream router's input channel base (dst_tile, opposite port).
        l = np.arange(NT * 4, dtype=np.int64)
        lg, lp = l // 4, l % 4 + 1
        ldst = nei[lg % T, lp]
        arr_base = ((lg // T) * T + ldst) * C + _OPP[lp] * V
        arr_base[ldst < 0] = -1
        self.ARR_BASE = arr_base

        # ---- mutable simulation state --------------------------------
        self.st = np.zeros(NCH, dtype=np.uint8)  # 0 idle 1 routing 2 awaiting 3 active
        self.occ = np.zeros(NCH, dtype=np.int64)
        self.head = np.zeros(NCH, dtype=np.int64)  # monotonic ring head
        self.outp = np.zeros(NCH, dtype=np.int64)
        self.outv = np.zeros(NCH, dtype=np.int64)
        self.credits = np.full(NCH, self.DEPTH, dtype=np.int64)  # per output slot
        self.otaken = np.zeros(NCH, dtype=bool)  # output-VC ownership
        self.sa_ptr = np.zeros(NT * _N_PORTS, dtype=np.int64)
        self.s_pid = np.zeros(NCH * self.RING, dtype=np.int64)
        self.s_fi = np.zeros(NCH * self.RING, dtype=np.int64)
        self.s_ready = np.zeros(NCH * self.RING, dtype=np.int64)

        # NI state: the packet mid-injection per tile (-1 for none), its
        # next flit index and its LOCAL input VC.
        self._ni_cur = np.full(NT, -1, dtype=np.int64)
        self._ni_fi = np.zeros(NT, dtype=np.int64)
        self._ni_vc = np.zeros(NT, dtype=np.int64)

        self.flits_injected = np.zeros(B, dtype=np.int64)
        self.flits_ejected = np.zeros(B, dtype=np.int64)
        self.flits_routed = np.zeros(B, dtype=np.int64)
        self.buffer_writes = np.zeros(B, dtype=np.int64)
        self._kernel = cc_kernel.CycleKernel(self, lib, table_capacity)
        # The kernel emits the traffic itself when every generator is
        # exactly MappedWorkloadTraffic (a subclass could override emit)
        # on this mesh with no replies pending from earlier emission.
        self._mapped = all(
            type(t) is MappedWorkloadTraffic and t.instance.mesh == mesh and not t._pending
            for t in self.traffics
        )
        if self._mapped:
            self._kernel.bind_mapped(self.traffics, mesh.hop_matrix)
        else:
            self._rows = PacketTable()  # one window's Python-emitted rows

    @property
    def now(self) -> int:
        """The next cycle to run."""
        return self._kernel.state.now

    def _drain(self, max_cycles: int = 1_000_000) -> None:
        self._kernel.drain(max_cycles)

    def _window(self, cycles: int, offered: np.ndarray | None) -> None:
        """Run ``cycles`` cycles, counting each instance's emitted packets
        into ``offered`` (unless ``None``)."""
        if self._mapped:
            self._kernel.window(cycles, offered)
            return
        # Generators are open-loop (they never see network state), so the
        # whole window's rows are emitted first; the kernel then admits
        # each cycle's rows itself.
        table = self._rows
        # Emission i gave instance instances[i] the rows up to ends[i]
        # (int64 buffers: no per-row Python objects kept alive).
        instances, ends, bounds = array("q"), array("q"), array("q")
        emits = [(b, t.emit) for b, t in enumerate(self.traffics)]
        for now in range(self.now, self.now + cycles):
            bounds.append(len(table))
            for b, emit in emits:
                start = len(table)
                emit(now, table)
                if len(table) > start:
                    instances.append(b)
                    ends.append(len(table))
        bounds.append(len(table))
        self._kernel.admit_window(table, instances, ends, bounds, offered)
        table.clear()

    def run(self, warmup: int = 1_000, measure: int = 10_000) -> list[SimulationResult]:
        """Warmup + measure + drain; one result per batched instance.

        Windows, counters and statistics follow
        :meth:`~repro.noc.simulator.NoCSimulator.run` exactly, per
        instance.
        """
        if warmup < 0 or measure <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        B = self.B
        kernel = self._kernel
        with reqtrace.span("noc.warmup"):
            self._window(warmup, None)
        warmup_end = self.now
        delivered_before = kernel.state.ndel
        routed_before = self.flits_routed.copy()
        writes_before = self.buffer_writes.copy()
        ejected_before = self.flits_ejected.copy()

        offered = np.zeros(B, dtype=np.int64)
        with reqtrace.span("noc.measure"):
            self._window(measure, offered)
        if self._mapped and kernel.state.rlive:
            # Leave each generator as emit would have: the replies it owes
            # after the last emitted cycle stay pending on it.
            for b, traffic in enumerate(self.traffics):
                traffic._pending = kernel.pending(b)
        with reqtrace.span("noc.drain"):
            self._drain()
        self._assert_conserved()

        # Statistics come once from the packet columns: the delivered log
        # keeps the object engine's append order within each instance.
        pids = kernel.dlog[delivered_before:kernel.state.ndel]
        created = kernel.p_created
        pids = pids[created[pids] >= warmup_end]
        inst = kernel.p_inst[pids]
        pids = pids[np.argsort(inst, kind="stable")]
        ends = np.cumsum(np.bincount(inst, minlength=B))
        results = []
        for b, keep in enumerate(np.split(pids, ends[:-1])):
            results.append(
                SimulationResult.of_window(
                    LatencyStats(
                        kernel.p_ej[keep] - created[keep],
                        kernel.p_app[keep],
                        kernel.p_cls[keep],
                        kernel.p_src[keep],
                        kernel.p_dst[keep],
                    ),
                    self.power_model,
                    routed=int(self.flits_routed[b] - routed_before[b]),
                    ejected=int(self.flits_ejected[b] - ejected_before[b]),
                    buffer_writes=int(self.buffer_writes[b] - writes_before[b]),
                    cycles=measure,
                    offered=int(offered[b]),
                    engine="vector",
                )
            )
        return results

    def _assert_conserved(self) -> None:
        s = self._kernel.state
        if s.tot_buf or s.tot_link:
            raise AssertionError(
                f"flit conservation violated: {s.tot_buf} buffered and "
                f"{s.tot_link} on-wire flits left after drain"
            )
        for b in range(self.B):
            inj, ej = int(self.flits_injected[b]), int(self.flits_ejected[b])
            if inj != ej:
                raise AssertionError(
                    f"flit conservation violated in instance {b}: "
                    f"injected={inj} ejected={ej}"
                )


def run_batch(
    mesh: Mesh,
    traffics,
    *,
    warmup: int = 1_000,
    measure: int = 10_000,
    network_config: NetworkConfig | None = None,
    power_params: PowerParams | None = None,
) -> list[SimulationResult]:
    """Run B independent simulations batched in one array set.

    Where the compiled cycle kernel does not load, each traffic runs
    alone through the fast path instead: the same results, one at a time.
    """
    if cc_kernel.library() is None:
        return [
            NoCSimulator(
                mesh, traffic, network_config, power_params, engine="fastpath"
            ).run(warmup=warmup, measure=measure)
            for traffic in traffics
        ]
    engine = VectorEngine(mesh, traffics, network_config, power_params)
    return engine.run(warmup=warmup, measure=measure)


def simulate_batch(
    instances,
    *,
    seeds,
    warmup: int = 1_000,
    measure: int = 10_000,
    cycles_per_unit: float | None = None,
    generate_replies: bool = True,
    network_config: NetworkConfig | None = None,
    power_params: PowerParams | None = None,
) -> list[SimulationResult]:
    """Batch-simulate ``(OBMInstance, Mapping)`` pairs with mapped traffic.

    One :class:`~repro.noc.traffic.MappedWorkloadTraffic` (request/reply)
    generator is built per pair with the matching entry of ``seeds``;
    ``cycles_per_unit=None`` applies the measured-experiment rule (busiest
    thread at 4% injection probability, floor 1000).  All pairs must share
    one mesh — the batch runs in a single set of arrays.  Results are
    bit-identical to running each pair alone through either engine.
    """
    pairs = list(instances)
    seeds = list(seeds)
    if len(seeds) != len(pairs):
        raise ValueError(f"got {len(pairs)} instances but {len(seeds)} seeds")
    if not pairs:
        return []
    mesh = pairs[0][0].mesh
    for inst, _ in pairs[1:]:
        if (inst.mesh.rows, inst.mesh.cols) != (mesh.rows, mesh.cols):
            raise ValueError("all batched instances must share one mesh shape")
    traffics = []
    for (inst, mapping), seed in zip(pairs, seeds):
        wl = inst.workload
        cpu = cycles_per_unit
        if cpu is None:
            peak = float((wl.cache_rates + wl.mem_rates).max())
            cpu = max(1000.0, peak / 0.04)
        traffics.append(
            MappedWorkloadTraffic(
                inst,
                mapping,
                cycles_per_unit=cpu,
                generate_replies=generate_replies,
                seed=seed,
            )
        )
    return run_batch(
        mesh,
        traffics,
        warmup=warmup,
        measure=measure,
        network_config=network_config,
        power_params=power_params,
    )
