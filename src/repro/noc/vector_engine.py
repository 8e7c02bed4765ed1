"""Vectorized structure-of-arrays NoC engine with batched execution.

The object engine (:mod:`repro.noc.network`) dispatches per-``Router``
Python objects every cycle.  This backend keeps *all* simulation state —
VC buffers, credits, route/allocation state, switch pointers and link
pipelines — in preallocated flat arrays.  A batch of B independent
simulations shares the same arrays: instance ``b``'s tile ``t`` is
global tile ``b * T + t`` of one big disconnected mesh.  The engine runs
in one of three modes; ``mode="auto"`` picks the compiled one whenever
it can:

* **cc** (``auto`` whenever the solver-kernel backend resolves to
  ``cc``, at every B): the cycle loop runs as one compiled C call per
  window (warmup, measure, drain) — :mod:`repro.noc.cc_kernel`, built
  into the same shared object as the solver kernels.  Generators are
  open-loop (they never see network state), so a window first emits all
  its packets into the packet table; the kernel then admits each cycle's
  rows into array-backed NI queues and steps the network.  The C cycle
  is a transliteration of the scalar mode's fused ascending sweep
  below, so it needs neither the dense path's stage-major reorder nor
  its credit-hazard fallback.  ``ctypes`` releases the GIL for the call.
* **dense** (``auto`` without the kernel at B > 1): every router of every
  instance advances through a fixed sequence of stage-major fused phase
  kernels per cycle (link drain -> inject -> route -> VC-alloc ->
  switch -> link send/eject), so per-cycle kernel launches amortize
  across the whole batch.  When every generator is a plain
  ``MappedWorkloadTraffic`` of one shape, the per-cycle injection draws
  are also fused: each instance's RNG fills its row of a stacked
  ``(B, 2, n)`` buffer (preserving per-instance stream order exactly),
  and one ``np.less`` + ``nonzero`` finds all emitting threads at once.
* **scalar** (``auto`` without the kernel at B == 1): the same flat state
  driven by a fused router-major sweep over only the channels that can
  act — a busy-set plus a wake wheel that parks channels whose head flit
  is still in the input pipeline until its ready cycle.
  Python-list-bound rather than NumPy-bound: at single-sim occupancies
  (tens of active channels out of hundreds) fancy-indexing per-element
  costs rival bytecode, so dense kernels lose to a tight sweep.

``REPRO_CC=0``, ``permkernels.force_backend("numpy" | "reference")`` or
a missing C compiler leave ``auto`` on the Python modes; ``mode="scalar"``
or ``"dense"`` pins one of them.  :attr:`VectorEngine.mode` reports the
mode that runs.

Bit-exactness
-------------
Results are bit-identical to the object engine (and hence to the fast
path, which is itself pinned bit-identical to the seed loops).  The
object engine steps routers in ascending tile order with three logical
stages fused per router.  The scalar mode and the ``cc`` kernel keep that
router-major order (see :meth:`VectorEngine._switch_scalar` for why the
fused sweep is exact); the dense mode's phased kernels reorder it into
"stage-major" order (all route computes, then all VC allocations, then
all switch allocations).  The reorder is exact because:

* route compute reads only the channel itself plus an immutable route
  table;
* VC allocation reads/writes only the owning router's output-VC
  ownership, claiming VCs in ascending channel order — globally
  ascending channel index is exactly the object engine's visit order;
* switch candidates are gathered before any winner commits, and a
  commit only ever *decrements* credits of its own router's outputs
  (never another router's), so candidacy is commit-order independent —
  **except** for same-cycle upstream credit returns, which in ascending
  tile order can un-block a later router that is out of credits.  That
  single hazard is detected before committing (a candidate-ready channel
  with zero credits); any instance containing one falls back to an exact
  sequential per-router sweep for that cycle's switch phase.  At the
  paper's operating loads credits never hit zero, so the sweep is a
  saturation-only path;
* delivered packets are appended in ascending tile order per instance
  (at most one ejection per tile per cycle), matching the object
  engine's traversal and therefore the exact float-summation order of
  the latency statistics.

No per-packet objects
---------------------
Packets live as rows of a :class:`~repro.noc.packet.PacketTable` — flat
id/src/dst/class/length/created/app/inject/eject columns grown
geometrically — never as :class:`~repro.noc.packet.Packet` instances.
:class:`~repro.noc.traffic.MappedWorkloadTraffic` emits straight into
the table via :meth:`~repro.noc.traffic.MappedWorkloadTraffic._emit_soa`
(consuming its RNG draw-for-draw identically to the object path: the
destination draws interleave with the injection draws, which is also why
draws cannot be prefetched across cycles), the engine tracks delivered
*pids*, and latency statistics materialize once at the end of
:meth:`VectorEngine.run` via :meth:`LatencyStats.from_arrays` — same
delivered order, same ``SimulationResult`` fields, no per-packet Python
work anywhere on the batch path.  Generators that are not plain
``MappedWorkloadTraffic`` still enter through ``packets_for_cycle``;
each object is copied into the table and dropped.  In ``cc`` mode the
kernel keeps the ejection stamps itself, so the table's ``ej`` list
stays unset.

Faults, invariants and observability hooks are *not* supported here;
:class:`~repro.noc.simulator.NoCSimulator` runs the fast path whenever
any of them is attached.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core.latency import Mesh
from repro.noc import cc_kernel
from repro.noc.network import NetworkConfig
from repro.noc.packet import PacketTable
from repro.noc.power import ActivityCounts, PowerModel, PowerParams
from repro.noc.routing import ROUTE_FUNCTIONS, Port, next_tile
from repro.noc.simulator import SimulationResult
from repro.noc.stats import LatencyStats
from repro.noc.traffic import MappedWorkloadTraffic, TrafficGenerator
from repro.obs import reqtrace

__all__ = ["VectorEngine", "run_batch", "simulate_batch"]

_N_PORTS = 5
#: opposite-port table as an indexable array (routing._OPPOSITE holds enums)
_OPP = np.array([0, 2, 1, 4, 3], dtype=np.int64)


def _pow2_at_least(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


class VectorEngine:
    """Structure-of-arrays engine stepping B simulations in lockstep.

    Parameters mirror :class:`~repro.noc.simulator.NoCSimulator` except
    that ``traffics`` is a sequence: one independent traffic generator
    per batched simulation instance.  All instances share the mesh and
    network configuration (the batch lives in one array set).  ``mode``
    is ``auto`` (default), ``scalar`` or ``dense``; see the module
    docstring.
    """

    def __init__(
        self,
        mesh: Mesh,
        traffics,
        network_config: NetworkConfig | None = None,
        power_params: PowerParams | None = None,
        include_local: bool = True,
        *,
        mode: str = "auto",
        table_capacity: int = 4096,
    ) -> None:
        if mode not in ("auto", "scalar", "dense"):
            raise ValueError(f"unknown mode {mode!r}; expected auto|scalar|dense")
        self.mesh = mesh
        self.traffics: list[TrafficGenerator] = list(traffics)
        if not self.traffics:
            raise ValueError("need at least one traffic generator")
        self.config = network_config or NetworkConfig()
        rc = self.config.router
        self.include_local = include_local
        self.power_model = PowerModel(mesh, power_params)
        # "auto" runs the compiled cycle kernel whenever the solver backend
        # resolves to cc.  Without it, single-instance runs take the scalar
        # microkernel binding (python-list state): at B == 1 the per-cycle
        # arrays hold only tens of events, where per-kernel dispatch costs
        # more than the work, so scalar indexing wins.  Batches amortize
        # dispatch and run the dense numpy kernels.
        lib = None
        if mode == "auto":
            lib = cc_kernel.library()
            if lib is not None:
                mode = "cc"
            else:
                mode = "scalar" if len(self.traffics) == 1 else "dense"
        #: the path that runs: "cc", "scalar" or "dense"
        self.mode = mode
        self._scalar = mode == "scalar"

        B = self.B = len(self.traffics)
        T = self.T = mesh.n_tiles
        V = self.V = rc.vcs_per_port
        C = self.C = _N_PORTS * V
        NT = self.NT = B * T
        NCH = self.NCH = NT * C
        self.DEPTH = rc.buffer_depth
        self.PIPE = rc.pipeline_depth
        self.LAT = self.config.link_latency
        self._per = V // rc.vc_classes
        self._oldest = rc.arbitration == "oldest_first"
        self._vclo = [rc.vc_range(c)[0] for c in range(4)]
        self.VCLO = np.array(self._vclo, dtype=np.int64)

        # Ring geometry (power of two so positions reduce with a mask).
        self.RING = _pow2_at_least(self.DEPTH)
        self.RM = self.RING - 1

        # ---- immutable topology tables -------------------------------
        route_fn = ROUTE_FUNCTIONS[self.config.routing]
        route = np.empty(T * T, dtype=np.int64)
        for t in range(T):
            for d in range(T):
                route[t * T + d] = int(route_fn(mesh, t, d))
        self.ROUTE = route  # flat [local_tile * T + local_dst] -> out port

        nei = np.full((T, _N_PORTS), -1, dtype=np.int64)
        for t in range(T):
            for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH):
                try:
                    nei[t, port] = next_tile(mesh, t, port)
                except ValueError:
                    continue

        ch = np.arange(NCH, dtype=np.int64)
        self.CH_G = ch // C  # global tile of each channel
        self.CH_KEY = ch % C  # (port, vc) scan/arbitration key within router
        port_of = self.CH_KEY // V
        self.CH_LT = self.CH_G % T  # local tile (route-table row)
        self.CH_INST = self.CH_G // T  # batch instance of each channel
        self.CH_BASE = self.CH_G * C  # first channel of the owning router
        self.CH_G5 = self.CH_G * _N_PORTS  # switch-group base key
        self.SA_NEXT = (self.CH_KEY + 1) % C  # rr pointer after this channel wins
        # Upstream credit slot base of each non-LOCAL input channel: the
        # neighbour in direction `port` owns the output feeding this input.
        up_tile = nei[self.CH_LT, port_of]  # -1 for edges; LOCAL handled below
        upc = (self.CH_INST * T + up_tile) * C + _OPP[port_of] * V
        upc[(port_of == 0) | (up_tile < 0)] = -1
        self.UPC = upc
        # Exact upstream credit slot (base + input VC), -1 where none.
        self.UPCV = np.where(upc < 0, -1, upc + self.CH_KEY % V)

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
        self.busy = np.zeros(NCH, dtype=bool)
        self.credits = np.full(NCH, self.DEPTH, dtype=np.int64)  # per output slot
        self.otaken = np.zeros(NCH, dtype=bool)  # output-VC ownership
        self.sa_ptr = np.zeros(NT * _N_PORTS, dtype=np.int64)
        self.s_pid = np.zeros(NCH * self.RING, dtype=np.int64)
        self.s_fi = np.zeros(NCH * self.RING, dtype=np.int64)
        self.s_ready = np.zeros(NCH * self.RING, dtype=np.int64)
        # Flits in flight on links, bucketed by their (exact, fixed-latency)
        # arrival cycle: cycle -> [(dst_channel, pid, flit_index), ...] where
        # each entry holds arrays (vector commits) or ints (scalar commits).
        # A link carries at most one flit per cycle and all links share one
        # latency, so arrivals never need scanning — just a dict pop.
        self._arr: dict[int, list] = {}

        # Structure-of-arrays packet records.  Scalar mode reads the list
        # columns directly; dense mode fancy-indexes the NumPy mirrors,
        # synced by one pt.flush() per cycle (per window in cc mode).  No
        # Packet objects survive past emission.
        self.pt = PacketTable(table_capacity)

        if self._scalar:
            # Rebind the hot mutable state (and the lookup tables the
            # scalar loops touch) as python lists: scalar list indexing
            # runs ~5-10x faster than numpy scalar indexing.  Dense-only
            # arrays (CH_*, VCLO, busy) are left as numpy; the scalar
            # path tracks busy channels in a set instead.
            for name in (
                "st", "occ", "head", "outp", "outv", "credits", "otaken",
                "sa_ptr", "s_pid", "s_fi", "s_ready",
                "ROUTE", "UPCV", "ARR_BASE", "SA_NEXT",
            ):
                setattr(self, name, getattr(self, name).tolist())
            self.busy = None
            # Channels to examine in the switch sweep.  Busy channels
            # whose front flit is still in the router pipeline park in
            # `_wake[ready_cycle]` instead, skipping useless rescans.
            self._busyset: set[int] = set()
            self._wake: dict[int, list[int]] = {}
            self._step = self._step_scalar
            self._next_event_time = self._next_event_time_scalar

        # NI state (scalar path: python containers are faster here).
        from collections import deque

        self._ni_q = [deque() for _ in range(NT)]
        self._ni_cur = np.full(NT, -1, dtype=np.int64)  # pid mid-injection, or -1
        self._ni_fi = np.zeros(NT, dtype=np.int64)  # next flit index of current
        self._ni_vc = np.zeros(NT, dtype=np.int64)
        self._ni_tiles: set[int] = set()
        self._ni_npkts = 0  # queued + mid-injection packets, all NIs

        # Counters (plain lists in scalar mode: scalar increments are the
        # common op there and cost ~4x less than numpy scalar adds).
        if self._scalar:
            self.flits_injected = [0] * B
            self.flits_ejected = [0] * B
            self.flits_routed = [0] * B
            self.buffer_writes = [0] * B
        else:
            self.flits_injected = np.zeros(B, dtype=np.int64)
            self.flits_ejected = np.zeros(B, dtype=np.int64)
            self.flits_routed = np.zeros(B, dtype=np.int64)
            self.buffer_writes = np.zeros(B, dtype=np.int64)
        self.delivered: list[list] = [[] for _ in range(B)]
        self._tot_buf = 0  # buffered flits, all instances
        self._tot_link = 0  # flits on wires, all instances
        self.now = 0
        self._moved = 0
        self._kernel = cc_kernel.CycleKernel(self, lib) if mode == "cc" else None

    # ------------------------------------------------------------------
    # Packet entry
    # ------------------------------------------------------------------

    def _queue_range(self, b: int, start: int, end: int, now: int) -> None:
        """Queue instance ``b``'s fresh table rows ``[start, end)``.

        Local (src == dst) packets complete immediately, as in the object
        engine's NI; the rest enter their source NI queues.
        """
        pt = self.pt
        src, dst = pt.src, pt.dst
        ej = pt.ej
        base = b * self.T
        q = self._ni_q
        tiles = self._ni_tiles
        delivered = self.delivered[b]
        queued = 0
        for pid in range(start, end):
            s = src[pid]
            if s == dst[pid]:
                ej[pid] = now
                delivered.append(pid)
            else:
                g = base + s
                q[g].append(pid)
                tiles.add(g)
                queued += 1
        self._ni_npkts += queued

    # ------------------------------------------------------------------
    # Per-cycle phases
    # ------------------------------------------------------------------

    def _bump(self, counter: np.ndarray, inst: np.ndarray) -> None:
        if self.B == 1:
            counter[0] += inst.size
        else:
            counter += np.bincount(inst, minlength=self.B)

    def _inject(self, g: int, now: int) -> int:
        """Object-exact NI injection for tile ``g``: at most one flit."""
        cur = self._ni_cur[g]
        occ = self.occ
        pt = self.pt
        if cur < 0:
            q = self._ni_q[g]
            if not q:
                self._ni_tiles.discard(g)
                return 0
            pid = q[0]
            lo = self._vclo[pt.tclass[pid]]
            base = g * self.C  # LOCAL port is port 0
            st = self.st
            vc = -1
            for v in range(lo, lo + self._per):
                c0 = base + v
                if st[c0] == 0 and occ[c0] == 0:
                    vc = v
                    break
            if vc < 0:
                return 0
            q.popleft()
            self._ni_cur[g] = cur = pid
            self._ni_fi[g] = 0
            self._ni_vc[g] = vc
        vc = self._ni_vc[g]
        ch = g * self.C + vc
        if occ[ch] >= self.DEPTH:
            return 0
        fi = self._ni_fi[g]
        oc = occ[ch]
        slot = ch * self.RING + ((self.head[ch] + oc) & self.RM)
        self.s_pid[slot] = cur
        self.s_fi[slot] = fi
        self.s_ready[slot] = now + self.PIPE
        occ[ch] = oc + 1
        s = self.st[ch]
        if s == 3:
            # Mid-switch: only a new front (oc == 0) needs tracking, and
            # its ready cycle is known — park it there (see _step_scalar).
            if oc == 0:
                if self.PIPE:
                    wake = self._wake
                    t_rdy = now + self.PIPE
                    pl = wake.get(t_rdy)
                    if pl is None:
                        wake[t_rdy] = [ch]
                    else:
                        pl.append(ch)
                else:
                    self._busyset.add(ch)
        else:
            if s == 0:
                self.st[ch] = 1
            self._busyset.add(ch)
        b = g // self.T
        self.buffer_writes[b] += 1
        self.flits_injected[b] += 1
        self._tot_buf += 1
        if fi + 1 >= pt.length[cur]:
            self._ni_cur[g] = -1
            self._ni_npkts -= 1
            if not self._ni_q[g]:
                self._ni_tiles.discard(g)
        else:
            self._ni_fi[g] = fi + 1
        return 1

    def _inject_dense(self, now: int) -> int:
        """Dense-mode NI injection: claims scalar, flit writes batched.

        Per-tile injections are mutually independent (each touches only
        its own router's LOCAL input VCs), so the ascending-tile scalar
        loop of :meth:`_inject` can split into a scalar VC-claim pass for
        tiles starting a new packet (a few per cycle) and one vectorized
        buffer write over every mid-packet tile — same effects, amortized
        over the batch.
        """
        cur_a, fi_a, vc_a = self._ni_cur, self._ni_fi, self._ni_vc
        st, occ = self.st, self.occ
        C = self.C
        pt = self.pt
        tiles = self._ni_tiles
        # Snapshot, unsorted: per-tile NI effects are mutually independent
        # (each touches only its own router's LOCAL VCs and its own queue
        # head), so visit order cannot change results.
        ga = np.fromiter(tiles, dtype=np.int64, count=len(tiles))
        idle = ga[cur_a[ga] < 0]
        if idle.size:
            # Scalar pass only for tiles starting a new packet: pop the
            # queue head and claim a free LOCAL input VC of its router.
            per = self._per
            vclo = self._vclo
            tclass = pt.tclass
            for g in idle.tolist():
                q = self._ni_q[g]
                if not q:
                    tiles.discard(g)
                    continue
                pid = q[0]
                lo = vclo[tclass[pid]]
                base = g * C
                for v in range(lo, lo + per):
                    c0 = base + v
                    if st[c0] == 0 and occ[c0] == 0:
                        q.popleft()
                        cur_a[g] = pid
                        fi_a[g] = 0
                        vc_a[g] = v
                        break
        act = ga[cur_a[ga] >= 0]
        if act.size == 0:
            return 0
        ch = act * C + vc_a[act]
        occ_ch = occ[ch]
        okm = occ_ch < self.DEPTH
        if not okm.all():
            ki = okm.nonzero()[0]
            if ki.size == 0:
                return 0
            act, ch, occ_ch = act[ki], ch[ki], occ_ch[ki]
        fi = fi_a[act]
        cur = cur_a[act]
        slot = ch * self.RING + ((self.head[ch] + occ_ch) & self.RM)
        self.s_pid[slot] = cur
        self.s_fi[slot] = fi
        self.s_ready[slot] = now + self.PIPE
        occ[ch] = occ_ch + 1
        sub = st[ch]
        z = (sub == 0).nonzero()[0]
        if z.size:
            st[ch[z]] = 1
        self.busy[ch] = True
        n = act.size
        self._tot_buf += n
        if self.B == 1:
            self.buffer_writes[0] += n
            self.flits_injected[0] += n
        else:
            bc = np.bincount(act // self.T, minlength=self.B)
            self.buffer_writes += bc
            self.flits_injected += bc
        fi1 = fi + 1
        fi_a[act] = fi1  # done tiles reset fi on their next claim
        di = (fi1 >= pt.len_a[cur]).nonzero()[0]
        if di.size:
            cur_a[act[di]] = -1
            self._ni_npkts -= di.size
            nq = self._ni_q
            for g in act[di].tolist():
                if not nq[g]:
                    tiles.discard(g)
        return n

    def _vc_alloc(self, aw: np.ndarray, aw_st: np.ndarray):
        """Route newly-busy channels, then greedy first-free VC allocation
        in ascending channel order.

        ``aw_st`` is the pre-route state snapshot of ``aw`` (1 = route
        needed, 2 = already routed); routing is folded in here so the
        head/front-pid gathers are shared with allocation.  Returns the
        channels that moved to ACTIVE this call (or None).
        """
        RING, RM = self.RING, self.RM
        f = aw * RING + (self.head[aw] & RM)
        pids = self.s_pid[f]
        rm = aw_st == 1
        if rm.any():
            r = aw[rm]
            self.outp[r] = self.ROUTE[
                self.CH_LT[r] * self.T + self.pt.dst_a[pids[rm]]
            ]
            self.st[r] = 2
        if aw.size <= 8:
            C, V, per = self.C, self.V, self._per
            otaken = self.otaken
            pcls = self.pt.tclass
            done: list[int] = []
            for i, c in enumerate(aw.tolist()):
                lo = self._vclo[pcls[pids[i]]]
                base = (c // C) * C + int(self.outp[c]) * V + lo
                for k in range(per):
                    if not otaken[base + k]:
                        otaken[base + k] = True
                        self.outv[c] = lo + k
                        self.st[c] = 3
                        done.append(c)
                        break
            if done:
                return np.array(done, dtype=np.int64)
            return None
        # Rank-matching form of the same greedy rule: the k-th awaiting
        # channel of a (router, out_port, class-partition) group claims the
        # k-th free VC of the partition; channels whose rank exceeds the
        # free count stay awaiting.  Exact because sequential greedy hands
        # out free VCs in ascending order to channels in ascending order.
        lo = self.VCLO[self.pt.cls_a[pids]]
        base = self.CH_G[aw] * self.C + self.outp[aw] * self.V + lo
        order = np.argsort(base, kind="stable")
        bs = base[order]
        n = bs.size
        newg = np.empty(n, dtype=bool)
        newg[0] = True
        np.not_equal(bs[1:], bs[:-1], out=newg[1:])
        starts = newg.nonzero()[0]
        gidx = np.cumsum(newg) - 1
        rank = np.arange(n) - starts[gidx]
        slots = bs[:, None] + np.arange(self._per)
        free = ~self.otaken[slots]
        cum = np.cumsum(free, axis=1)
        okm = cum == (rank + 1)[:, None]
        hasv = okm.any(axis=1)
        koff = np.argmax(okm, axis=1)
        hi = hasv.nonzero()[0]
        if hi.size:
            sel = order[hi]
            chs = aw[sel]
            self.otaken[bs[hi] + koff[hi]] = True
            self.outv[chs] = lo[sel] + koff[hi]
            self.st[chs] = 3
            return chs
        return None

    def _commit(
        self,
        cand: np.ndarray,
        fr: np.ndarray,
        sl: np.ndarray,
        op: np.ndarray,
        now: int,
    ) -> int:
        """Switch allocation + traversal for candidate channels.

        Every candidate holds a ready front flit and a credit; one winner
        per (router, out_port) group moves one flit.  Group processing
        order is free here (distinct output slots, credits pre-checked),
        except delivered-packet appends, which are sorted into ascending
        global-tile order to match the object engine's router sweep.
        """
        n = cand.size
        C = self.C
        pt = self.pt
        gk = self.CH_G5[cand] + op
        # The no-duplicates fast path only pays off on sparse cycles: with
        # candidates rivalling the (router, out_port) group count, some
        # group always has rivals, so skip the sort-based probe entirely.
        if n > 64 or ((gs := np.sort(gk))[1:] == gs[:-1]).any():
            # One fused-key argsort instead of a multi-key lexsort: the
            # minor keys fit disjoint low bit-fields (CH_KEY < 64, age
            # < 2**26 cycles), and same-group candidates have distinct
            # CH_KEYs, so the fused keys are unique — no stability needed.
            if self._oldest:
                fused = (
                    (gk << np.int64(32))
                    + (pt.created_a[self.s_pid[fr]] << np.int64(6))
                    + self.CH_KEY[cand]
                )
            else:
                # The object engine scores (key - pointer) % 64 — replicate
                # the literal 64 (keys < 25 keep it injective either way).
                fused = gk * np.int64(64) + (self.CH_KEY[cand] - self.sa_ptr[gk]) % 64
            order = np.argsort(fused)
            gso = gk[order]
            first = np.empty(n, dtype=bool)
            first[0] = True
            np.not_equal(gso[1:], gso[:-1], out=first[1:])
            wi = order[first]
            win, fw, slw, opw, gkw = cand[wi], fr[wi], sl[wi], op[wi], gso[first]
        else:  # every group has one candidate: everyone wins
            win, fw, slw, opw, gkw = cand, fr, sl, op, gk
        if not self._oldest:
            self.sa_ptr[gkw] = self.SA_NEXT[win]
        pid = self.s_pid[fw]
        fi = self.s_fi[fw]
        self.head[win] += 1
        self.occ[win] -= 1
        n = win.size
        self._tot_buf -= n
        tailm = fi == pt.len_a[pid] - 1
        ejm = opw == 0
        li = (~ejm).nonzero()[0]
        ei = ejm.nonzero()[0]
        if self.B == 1:
            self.flits_routed[0] += n
            self.flits_ejected[0] += ei.size
        else:
            inst = self.CH_INST[win]
            self.flits_routed += np.bincount(inst, minlength=self.B)
            if ei.size:
                self.flits_ejected += np.bincount(inst[ei], minlength=self.B)
        if li.size:
            lw = win[li]
            # Ejections skip the decrement: the NI returns the LOCAL credit
            # in the same cycle, so the net effect is zero (object-exact).
            self.credits[slw[li]] -= 1
            l = self.CH_G[lw] * 4 + (opw[li] - 1)
            self._arr.setdefault(now + self.LAT, []).append(
                (self.ARR_BASE[l] + self.outv[lw], pid[li], fi[li])
            )
            self._tot_link += li.size
        if ei.size:
            tl = tailm[ei].nonzero()[0]
            if tl.size:
                wt = win[ei][tl]
                T = self.T
                ej = pt.ej
                for g_i, p_i in sorted(
                    zip(self.CH_G[wt].tolist(), pid[ei][tl].tolist())
                ):
                    ej[p_i] = now
                    self.delivered[g_i // T].append(p_i)
        up = self.UPCV[win]
        self.credits[up[up >= 0]] += 1
        ti = tailm.nonzero()[0]
        if ti.size:
            tw = win[ti]
            self.otaken[slw[ti]] = False
            em = self.occ[tw] > 0
            self.st[tw] = em  # 1 = routing (more buffered), 0 = idle
            self.busy[tw[~em]] = False
        return n

    def _switch_scalar(self, chans: list, now: int, *, fused_alloc: bool = False) -> int:
        """Exact sequential switch sweep over ``chans`` (ascending).

        Replicates the object engine's ascending-tile router sweep: each
        router's candidates are gathered (with live credit reads) only
        after every earlier router has committed, so same-cycle upstream
        credit returns are visible exactly as they would be object-side.
        This is the always-exact switch phase; the dense path uses it for
        credit-saturated instances, the scalar mode for every cycle.
        Winner selection and the commit are inlined over hoisted locals:
        this loop is the scalar mode's hot kernel.

        With ``fused_alloc`` the route + greedy VC-allocation stages run
        inline in the same ascending pass (the scalar mode's whole router
        step).  The fusion is still object-exact: a commit of router g
        never writes anything a later router's route or allocation reads
        (routes are pure, ``otaken`` is per-router, and flits sent to a
        neighbour arrive in a *future* cycle's bucket), while candidacy
        credit reads keep happening after every earlier router's flush.
        """
        C, V, T = self.C, self.V, self.T
        vclo, per = self._vclo, self._per
        # Packet columns: the list forms serve both modes (python-list
        # scalar indexing beats numpy scalar indexing even from the dense
        # saturation sweep, and needs no mirror flush).
        ROUTE = self.ROUTE
        pt = self.pt
        pdst, pcls = pt.dst, pt.tclass
        plen, created, p_ej = pt.length, pt.created, pt.ej
        RING, RM = self.RING, self.RM
        st, occ, head = self.st, self.occ, self.head
        s_pid, s_fi, s_ready = self.s_pid, self.s_fi, self.s_ready
        outp, outv, credits = self.outp, self.outv, self.credits
        otaken, sa_ptr = self.otaken, self.sa_ptr
        delivered = self.delivered
        ARR_BASE, UPCV, SA_NEXT = self.ARR_BASE, self.UPCV, self.SA_NEXT
        fr, fe = self.flits_routed, self.flits_ejected
        if self._scalar:
            busyset, wake = self._busyset, self._wake
        else:
            busyset = wake = None
        busy = self.busy
        oldest = self._oldest
        t_arr = now + self.LAT
        abucket = self._arr.get(t_arr)
        moved = 0
        tot_buf_d = 0
        tot_link_d = 0

        def commit(g: int, w, op) -> None:
            """Move the winning flit of one (router ``g``, ``op``) group."""
            nonlocal moved, tot_buf_d, tot_link_d, abucket
            f = w * RING + (head[w] & RM)
            pid = s_pid[f]
            fi = s_fi[f]
            head[w] += 1
            oc = occ[w] - 1
            occ[w] = oc
            tot_buf_d += 1
            b = g // T
            fr[b] += 1
            ov = outv[w]
            slot = g * C + op * V + ov
            is_tail = fi + 1 == plen[pid]
            if op == 0:
                # Ejection skips the credit decrement: the NI returns
                # the LOCAL credit the same cycle (net zero, object-exact).
                fe[b] += 1
                if is_tail:
                    p_ej[pid] = now
                    delivered[b].append(pid)
            else:
                credits[slot] -= 1
                if abucket is None:
                    abucket = self._arr.setdefault(t_arr, [])
                abucket.append((ARR_BASE[g * 4 + op - 1] + ov, pid, fi))
                tot_link_d += 1
            up = UPCV[w]
            if up >= 0:
                credits[up] += 1
            if is_tail:
                otaken[slot] = False
                if oc > 0:
                    st[w] = 1  # stays in the scan set for route + alloc
                elif busyset is not None:
                    st[w] = 0
                    busyset.discard(w)
                else:
                    st[w] = 0
                    busy[w] = False
            elif busyset is not None:
                # Mid-packet: the next front's ready cycle is known right
                # now — park the channel (or drop it while empty) instead
                # of rescanning it every cycle until then.
                if oc > 0:
                    r2 = s_ready[w * RING + (head[w] & RM)]
                    if r2 > now:
                        busyset.discard(w)
                        wl = wake.get(r2)
                        if wl is None:
                            wake[r2] = [w]
                        else:
                            wl.append(w)
                else:
                    busyset.discard(w)
            moved += 1

        def flush(g: int, cands: dict) -> None:
            g5 = g * _N_PORTS
            for op, chs in cands.items():
                if len(chs) == 1:
                    w = chs[0]
                    if not oldest:
                        sa_ptr[g5 + op] = SA_NEXT[w]
                elif oldest:
                    w = min(
                        chs,
                        key=lambda c: (
                            created[s_pid[c * RING + (head[c] & RM)]],
                            c % C,
                        ),
                    )
                else:
                    ptr = sa_ptr[g5 + op]
                    w = min(chs, key=lambda c: ((c % C) - ptr) % 64)
                    sa_ptr[g5 + op] = SA_NEXT[w]
                commit(g, w, op)

        cur_g = -1
        pc = -1  # cur_g's lone switch candidate (fast path), or -1
        pop = 0  # its out port
        cands = None  # op -> [channels] dict once a second candidate shows
        for c in chans:
            s = st[c]
            if s == 3:
                if occ[c] <= 0:
                    continue
                r = s_ready[c * RING + (head[c] & RM)]
                if r > now:
                    if busyset is not None:
                        # Front flit still in the pipeline: nothing can
                        # advance this channel before cycle r (only a
                        # commit moves the front, and commits need a
                        # ready front), so park it until then.
                        busyset.discard(c)
                        wl = wake.get(r)
                        if wl is None:
                            wake[r] = [c]
                        else:
                            wl.append(c)
                    continue
            elif not fused_alloc or s == 0:
                continue
            else:
                # Fused route + greedy first-free VC allocation (st 1/2
                # channels always hold a buffered flit, so the front slot
                # is valid).  Allocation failure keeps the channel
                # awaiting; success falls through to switch candidacy,
                # where the pipeline-ready check gates it as usual.
                f = c * RING + (head[c] & RM)
                pid = s_pid[f]
                if s == 1:
                    outp[c] = ROUTE[(c // C) % T * T + pdst[pid]]
                    st[c] = 2
                lo = vclo[pcls[pid]]
                base = (c // C) * C + outp[c] * V + lo
                for k in range(per):
                    if not otaken[base + k]:
                        otaken[base + k] = True
                        outv[c] = lo + k
                        st[c] = 3
                        break
                else:
                    continue
                r = s_ready[f]
                if r > now:
                    busyset.discard(c)
                    wl = wake.get(r)
                    if wl is None:
                        wake[r] = [c]
                    else:
                        wl.append(c)
                    continue
            g = c // C
            if g != cur_g:
                if cands is not None:
                    flush(cur_g, cands)
                    cands = None
                elif pc >= 0:
                    # Single-candidate router (the common case): the lone
                    # channel wins its group outright — no dict, no min().
                    if not oldest:
                        sa_ptr[cur_g * _N_PORTS + pop] = SA_NEXT[pc]
                    commit(cur_g, pc, pop)
                pc = -1
                cur_g = g
            op = outp[c]
            if credits[g * C + op * V + outv[c]] <= 0:
                continue
            if cands is not None:
                cands.setdefault(op, []).append(c)
            elif pc < 0:
                pc = c
                pop = op
            elif op == pop:
                cands = {pop: [pc, c]}
                pc = -1
            else:
                cands = {pop: [pc], op: [c]}
                pc = -1
        if cands is not None:
            flush(cur_g, cands)
        elif pc >= 0:
            if not oldest:
                sa_ptr[cur_g * _N_PORTS + pop] = SA_NEXT[pc]
            commit(cur_g, pc, pop)
        self._tot_buf -= tot_buf_d
        self._tot_link += tot_link_d
        return moved

    def _merge_arrivals(self, entries):
        """Collapse one arrival bucket into (channel, pid, fi) arrays."""
        first = entries[0]
        if len(entries) == 1 and isinstance(first[0], np.ndarray):
            return first
        chs, pids, fis = [], [], []
        for c, p, f in entries:
            if isinstance(c, np.ndarray):
                chs.append(c)
                pids.append(p)
                fis.append(f)
            else:  # scalar entries: python ints or 0-d numpy scalars
                chs.append(np.array([c], dtype=np.int64))
                pids.append(np.array([p], dtype=np.int64))
                fis.append(np.array([f], dtype=np.int64))
        return np.concatenate(chs), np.concatenate(pids), np.concatenate(fis)

    def _step(self) -> int:
        """Advance every instance by one cycle; returns flits moved."""
        now = self.now
        moved = 0
        RING, RM = self.RING, self.RM
        occ, st, head = self.occ, self.st, self.head
        # Sync the packet-table mirrors once per cycle: everything the
        # dense kernels fancy-index below (len_a/cls_a/dst_a/created_a)
        # was appended as list rows before this step.
        self.pt.flush()

        # 1. Link arrivals -> downstream buffer writes.  Flits were
        # bucketed by arrival cycle at send time; at most one flit per
        # link per cycle means every bucket channel is distinct.
        if self._tot_link:
            entries = self._arr.pop(now, None)
            if entries is not None:
                ch, apid, afi = self._merge_arrivals(entries)
                slot = ch * RING + ((head[ch] + occ[ch]) & RM)
                self.s_pid[slot] = apid
                self.s_fi[slot] = afi
                self.s_ready[slot] = now + self.PIPE
                occ[ch] += 1
                idle = ch[st[ch] == 0]
                if idle.size:
                    st[idle] = 1
                self.busy[ch] = True
                n = ch.size
                moved += n
                self._tot_link -= n
                self._tot_buf += n
                if self.B == 1:
                    self.buffer_writes[0] += n
                else:
                    self._bump(self.buffer_writes, self.CH_INST[ch])

        # 2. NI injection (one flit per NI per cycle, tile-independent).
        if self._ni_npkts and self._ni_tiles:
            moved += self._inject_dense(now)

        # 3. Router phases: the stage-major NumPy kernels (see module
        # docstring for the equivalence argument against the object
        # engine's router-major order).  ``stb`` is the pre-route state
        # snapshot: routed channels join VC allocation via the ``!= 3``
        # mask, activated channels join the switch via _vc_alloc's
        # return value.
        if self._tot_buf:
            bz = self.busy.nonzero()[0]
            stb = st[bz]
            m3 = stb == 3
            aw = bz[~m3]
            newly = self._vc_alloc(aw, stb[~m3]) if aw.size else None
            act = bz[m3]
            if newly is not None:
                act = np.concatenate((act, newly)) if act.size else newly
            if act.size:
                # s_ready at an empty channel's head slot is stale but the
                # occ mask discards it, so one fused filter is safe.
                f = act * RING + (head[act] & RM)
                ok = (occ[act] > 0) & (self.s_ready[f] <= now)
                if not ok.all():
                    ki = ok.nonzero()[0]
                    act = act[ki]
                    f = f[ki]
            if act.size:
                opa = self.outp[act]
                sl = self.CH_BASE[act] + opa * self.V + self.outv[act]
                hc = self.credits[sl] > 0
                if hc.all():
                    moved += self._commit(act, f, sl, opa, now)
                else:
                    # A ready channel with zero credits could be unblocked
                    # by a same-cycle upstream credit return: its whole
                    # instance must run the exact sequential sweep.
                    binst = np.unique(self.CH_INST[act[~hc]])
                    sel = (hc & ~np.isin(self.CH_INST[act], binst)).nonzero()[0]
                    if sel.size:
                        moved += self._commit(act[sel], f[sel], sl[sel], opa[sel], now)
                    insts = set(binst.tolist())
                    TC = self.T * self.C
                    chans = [
                        c for c in bz.tolist() if (c // TC) in insts
                    ]
                    moved += self._switch_scalar(chans, now)

        self.now = now + 1
        self._moved = moved
        return moved

    def _step_scalar(self) -> int:
        """Scalar-microkernel cycle for single-instance runs.

        Executes the same phases as the dense `_step` as one pass of
        python-scalar operations over the list-bound SoA state: at B == 1
        a cycle holds only tens of events, where per-kernel numpy
        dispatch costs more than the work itself.  The switch phase is
        the always-exact sequential router sweep, so no credit-hazard
        detection is needed.
        """
        now = self.now
        moved = 0
        RING, RM, PIPE = self.RING, self.RM, self.PIPE
        st, occ, head = self.st, self.occ, self.head
        s_pid, s_fi, s_ready = self.s_pid, self.s_fi, self.s_ready
        busyset = self._busyset
        writes, TC = self.buffer_writes, self.T * self.C

        # Wake parked channels whose front flits left the pipeline.  An
        # exact-match pop suffices even across _drain time jumps: every
        # wake key is strictly in the future when parked, and the jump
        # target (_next_event_time_scalar) never exceeds the wake minimum,
        # so each key's cycle is always visited.
        wake = self._wake
        if wake:
            wl = wake.pop(now, None)
            if wl is not None:
                busyset.update(wl)

        if self._tot_link:
            entries = self._arr.pop(now, None)
            if entries is not None:
                t_rdy = now + PIPE
                for ch, apid, afi in entries:
                    oc = occ[ch]
                    slot = ch * RING + ((head[ch] + oc) & RM)
                    s_pid[slot] = apid
                    s_fi[slot] = afi
                    s_ready[slot] = t_rdy
                    occ[ch] = oc + 1
                    writes[ch // TC] += 1
                    s = st[ch]
                    if s == 3:
                        # Mid-switch channel: a write behind an existing
                        # front (oc > 0) changes nothing the sweep reads;
                        # a new front is ready exactly at t_rdy, so park
                        # straight there instead of rescanning until then.
                        if oc == 0:
                            if PIPE:
                                pl = wake.get(t_rdy)
                                if pl is None:
                                    wake[t_rdy] = [ch]
                                else:
                                    pl.append(ch)
                            else:
                                busyset.add(ch)
                    else:
                        if s == 0:
                            st[ch] = 1
                        busyset.add(ch)
                n = len(entries)
                moved += n
                self._tot_link -= n
                self._tot_buf += n

        if self._ni_npkts and self._ni_tiles:
            for g in sorted(self._ni_tiles):
                moved += self._inject(g, now)

        if self._tot_buf:
            # One fused ascending pass: route + VC-alloc + switch (see
            # _switch_scalar for the router-major equivalence argument).
            moved += self._switch_scalar(sorted(busyset), now, fused_alloc=True)

        self.now = now + 1
        self._moved = moved
        return moved

    # ------------------------------------------------------------------
    # Windows, drain, results
    # ------------------------------------------------------------------

    def _pending(self) -> bool:
        return bool(self._tot_buf or self._tot_link or self._ni_npkts)

    def _next_event_time(self):
        """Earliest future cycle at which a flit could move on its own."""
        best = None
        if self._tot_link:
            best = min(self._arr.keys())
        if self._tot_buf:
            bz = self.busy.nonzero()[0]
            a = bz[(self.st[bz] == 3) & (self.occ[bz] > 0)]
            if a.size:
                sl = self.CH_G[a] * self.C + self.outp[a] * self.V + self.outv[a]
                a = a[self.credits[sl] > 0]
            if a.size:
                t = int(self.s_ready[a * self.RING + (self.head[a] & self.RM)].min())
                best = t if best is None else min(best, t)
        return best

    def _next_event_time_scalar(self):
        """Scalar-mode variant of :meth:`_next_event_time`."""
        best = None
        if self._tot_link:
            best = min(self._arr.keys())
        if self._wake:
            w = min(self._wake.keys())
            best = w if best is None else min(best, w)
        if self._tot_buf:
            C, V = self.C, self.V
            RING, RM = self.RING, self.RM
            st, occ, head = self.st, self.occ, self.head
            outp, outv, credits = self.outp, self.outv, self.credits
            s_ready = self.s_ready
            for c in self._busyset:
                if (
                    st[c] == 3
                    and occ[c] > 0
                    and credits[(c // C) * C + outp[c] * V + outv[c]] > 0
                ):
                    t = s_ready[c * RING + (head[c] & RM)]
                    if best is None or t < best:
                        best = t
        return best

    def _drain(self, max_cycles: int = 1_000_000) -> None:
        if self._kernel is not None:
            self._kernel.drain(self, max_cycles)
            return
        start = self.now
        while self._pending():
            if self.now - start > max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    "(possible deadlock or livelock)"
                )
            if self._step() == 0 and self._pending():
                nxt = self._next_event_time()
                if nxt is not None and nxt > self.now:
                    self.now = nxt

    def _window(self, cycles: int, offered: np.ndarray | None) -> None:
        if self._kernel is not None:
            # Generators are open-loop (they never see network state), so
            # the whole window's packets enter the table first; the kernel
            # then admits each cycle's rows itself.
            src_col = self.pt.src
            first = len(src_col)
            # Emission i gave instance instances[i] the rows up to ends[i]
            # (int64 buffers: no per-row Python objects kept alive).
            instances, ends = array("q"), array("q")

            def on_rows(b: int, start: int, end: int, now: int) -> None:
                instances.append(b)
                ends.append(end)
                if offered is not None:
                    offered[b] += end - start

            emit = self._emitter(on_rows)
            bounds = array("q")
            for now in range(self.now, self.now + cycles):
                bounds.append(len(src_col))
                emit(now)
            bounds.append(len(src_col))
            self._kernel.window(self, first, bounds, instances, ends)
            return
        queue = self._queue_range
        if offered is None:
            on_rows = queue
        else:

            def on_rows(b: int, start: int, end: int, now: int) -> None:
                queue(b, start, end, now)
                offered[b] += end - start

        emit = self._emitter(on_rows)
        step = self._step
        for _ in range(cycles):
            emit(self.now)
            step()

    def _emitter(self, on_rows):
        """Per-cycle packet emission of every instance.

        Returns ``emit(now)``, which appends cycle ``now``'s packets of
        each generator to the packet table, instance by instance, and
        reports each instance's fresh rows as ``on_rows(b, start, end,
        now)``.  Generators that are not plain ``MappedWorkloadTraffic``
        go through ``packets_for_cycle``, each object copied into the
        table and dropped.
        """
        traffics = self.traffics
        pt = self.pt
        src_col = pt.src
        if self.B == 1 and type(traffics[0]) is MappedWorkloadTraffic:
            # SoA emission: identical draws to packets_for_cycle, but
            # rows append straight into the packet table — no Packet
            # objects on the single-instance path either.
            traffic = traffics[0]
            rng_fill = traffic._rng.random
            db, pb, hb = traffic._draw_buf, traffic._p_both, traffic._hit_buf
            emit_soa = traffic._emit_soa
            pend = traffic._soa_pending

            def emit(now: int) -> None:
                rng_fill(out=db)
                np.less(db, pb, out=hb)
                rows, threads = hb.nonzero()
                # No hits and no reply due now -> nothing to emit and
                # no RNG draws owed (destination draws follow hits).
                if rows.size or now in pend:
                    start = len(src_col)
                    emit_soa(rows, threads, now, pt)
                    end = len(src_col)
                    if end > start:
                        on_rows(0, start, end, now)

            return emit
        batch = self._traffic_batch() if self.B > 1 else None
        if batch is not None:
            # Fused draw: per-instance RNG fills (stream-identical to the
            # per-generator path), then ONE comparison + nonzero over the
            # stacked buffer instead of B small kernel dispatches.  Each
            # instance's hits then append straight into the shared packet
            # table via _emit_soa.
            tgp, tgd, tgh, tgb = batch
            # Hoisted per-instance bound methods/dicts: the inner loops
            # below run B times per cycle.
            fills = [(t._rng.random, row) for t, row in zip(traffics, tgd)]
            emits = [
                (b, t._emit_soa, t._soa_pending)
                for b, t in enumerate(traffics)
            ]

            def emit(now: int) -> None:
                for fill, row in fills:
                    fill(out=row)
                np.less(tgd, tgp, out=tgh)
                ii, rows, threads = tgh.nonzero()
                bounds = np.searchsorted(ii, tgb).tolist()
                for b, emit_soa, pend in emits:
                    lo, hi = bounds[b], bounds[b + 1]
                    # Hitless instances with no reply due this cycle owe
                    # neither table rows nor RNG draws: skip the call.
                    if lo == hi and now not in pend:
                        continue
                    start = len(src_col)
                    emit_soa(rows[lo:hi], threads[lo:hi], now, pt)
                    end = len(src_col)
                    if end > start:
                        on_rows(b, start, end, now)

            return emit
        append = pt.append_packet

        def emit(now: int) -> None:
            for b, traffic in enumerate(traffics):
                packets = traffic.packets_for_cycle(now)
                if packets:
                    start = len(src_col)
                    for packet in packets:
                        append(packet)
                    on_rows(b, start, len(src_col), now)

        return emit

    def _traffic_batch(self):
        """Can the per-cycle draws fuse across instances?

        Requires every generator to be exactly MappedWorkloadTraffic (a
        subclass could override packet emission) with same-shaped rate
        tables.  Returns the stacked rate table plus reusable draw/hit
        buffers and the instance-boundary probe, or None.
        """
        gens = self.traffics
        if any(type(g) is not MappedWorkloadTraffic for g in gens):
            return None
        if len({g._p_both.shape for g in gens}) != 1:
            return None
        p = np.stack([g._p_both for g in gens])
        return p, np.empty_like(p), np.empty(p.shape, dtype=bool), np.arange(len(gens) + 1)

    def run(self, warmup: int = 1_000, measure: int = 10_000) -> list[SimulationResult]:
        """Warmup + measure + drain; one result per batched instance.

        Windows, counters and statistics follow
        :meth:`~repro.noc.simulator.NoCSimulator.run` exactly, per
        instance.
        """
        if warmup < 0 or measure <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        B = self.B
        with reqtrace.span("noc.warmup"):
            self._window(warmup, None)
        warmup_end = self.now
        delivered_before = [len(d) for d in self.delivered]
        routed_before = self.flits_routed.copy()
        writes_before = self.buffer_writes.copy()
        ejected_before = self.flits_ejected.copy()

        offered = np.zeros(B, dtype=np.int64)
        with reqtrace.span("noc.measure"):
            self._window(measure, offered)
        with reqtrace.span("noc.drain"):
            self._drain()
        self._assert_conserved()

        # Materialize statistics once from the packet-table columns: the
        # delivered pid lists preserve the object engine's append order,
        # so from_arrays builds bit-identical LatencyStats state.
        pt = self.pt
        created = pt.column("created")
        if self._kernel is not None:
            ej = self._kernel.p_ej[: len(pt)]
        else:
            ej = pt.column("ej")
        apps = pt.column("app")
        classes = pt.column("tclass")
        srcs = pt.column("src")
        dsts = pt.column("dst")
        results = []
        for b in range(B):
            pids = np.array(self.delivered[b][delivered_before[b]:], dtype=np.int64)
            keep = pids[created[pids] >= warmup_end] if pids.size else pids
            stats = LatencyStats.from_arrays(
                latencies=ej[keep] - created[keep],
                apps=apps[keep],
                classes=classes[keep],
                srcs=srcs[keep],
                dsts=dsts[keep],
                include_local=self.include_local,
            )
            routed = int(self.flits_routed[b] - routed_before[b])
            ejected = int(self.flits_ejected[b] - ejected_before[b])
            counts = ActivityCounts(
                flit_router_traversals=routed,
                flit_link_traversals=max(0, routed - ejected),
                buffer_writes=int(self.buffer_writes[b] - writes_before[b]),
                cycles=measure,
            )
            results.append(
                SimulationResult(
                    stats=stats,
                    power=self.power_model.power(counts),
                    counts=counts,
                    cycles=measure,
                    packets_offered=int(offered[b]),
                    packets_delivered=int(keep.size),
                    engine="vector",
                )
            )
        return results

    def _assert_conserved(self) -> None:
        if self._tot_buf or self._tot_link:
            raise AssertionError(
                f"flit conservation violated: {self._tot_buf} buffered and "
                f"{self._tot_link} on-wire flits left after drain"
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
    include_local: bool = True,
) -> list[SimulationResult]:
    """Run B independent simulations batched in one array set."""
    engine = VectorEngine(mesh, traffics, network_config, power_params, include_local)
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
    include_local: bool = True,
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
        include_local=include_local,
    )
