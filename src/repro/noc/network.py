"""Mesh network assembly and the cycle-by-cycle simulation engine.

Wires one :class:`~repro.noc.router.Router` per tile, single-cycle links
between neighbours, and one :class:`NetworkInterface` (NI) per tile for
injection/ejection.  The engine keeps an *active set* of routers so that
at the paper's (low) operating loads idle routers cost nothing — crucial
for running thousands of cycles of an 8x8 mesh in pure Python.

Locally addressed packets (src == dst) bypass the network entirely with
zero latency, mirroring the analytic model's rule that a request hashed to
the local L2 bank needs no network traversal (and hence no serialization
latency).

Fast-path engineering (all bit-identical to the straightforward loops):

* link arrivals drain in a batch from only the links that currently carry
  flits (``_busy_links``), not from every link in the mesh;
* neighbour tiles and routes are precomputed/cached instead of re-derived
  from mesh coordinates per flit;
* per-tile in-flight counters make the active-set retirement check O(1);
* send/credit callbacks are built once per tile, not once per step;
* :meth:`drain` fast-forwards across provably idle cycle spans (no flit
  moved and the next time-driven event — a link arrival or a pipeline
  ``ready_at`` — is known), which costs nothing at the paper's loads but
  caps the tail of nearly-quiescent drains.

Resilience hooks (both off by default, and free when off):

* ``faults=`` attaches a :class:`~repro.noc.faults.FaultSchedule` —
  link outages with degraded-mode rerouting, router stalls, stochastic
  flit drops, and the NACK/retry recovery protocol;
* ``invariants=`` attaches an
  :class:`~repro.noc.invariants.InvariantChecker` asserting flit/credit
  conservation, buffer bounds, latency floors and a deadlock watchdog
  over the active set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.latency import Mesh
from repro.noc.packet import Flit, Packet
from repro.noc.router import _VC_ACTIVE, Router, RouterConfig
from repro.noc.routing import _OPPOSITE, Port, next_tile

__all__ = ["NetworkConfig", "NetworkInterface", "Network"]

_DIRECTION_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)


@dataclass(frozen=True)
class NetworkConfig:
    """Network-level parameters (defaults = paper Table 2)."""

    router: RouterConfig = field(default_factory=RouterConfig)
    link_latency: int = 1  #: cycles per link traversal
    routing: str = "xy"  #: xy | yx | west_first (all minimal, deadlock-free)

    def __post_init__(self) -> None:
        from repro.noc.routing import ROUTE_FUNCTIONS

        if self.link_latency < 1:
            raise ValueError("link latency must be at least one cycle")
        if self.routing not in ROUTE_FUNCTIONS:
            raise ValueError(
                f"unknown routing {self.routing!r}; expected one of "
                f"{sorted(ROUTE_FUNCTIONS)}"
            )


class NetworkInterface:
    """Per-tile injection and ejection endpoint.

    Injection: packets queue per tile; each cycle the NI tries to feed the
    next flit of the packet it is currently sending into the router's LOCAL
    input port, opening a new VC for each new packet (packets on distinct
    VCs interleave at flit granularity is *not* modelled on the injection
    link — one packet streams at a time, like a single-channel NI DMA).

    Ejection: flits delivered to the LOCAL output are consumed immediately;
    the tail flit timestamps the packet and hands it to the network's
    delivered list.
    """

    def __init__(self, tile: int, router: Router) -> None:
        self.tile = tile
        self.router = router
        self.queue: deque[Packet] = deque()
        self._current: list[Flit] | None = None  # remaining flits of in-flight packet
        self._current_vc: int | None = None
        self.injected_packets = 0
        self.ejected_packets = 0

    def enqueue(self, packet: Packet) -> None:
        self.queue.append(packet)

    @property
    def pending(self) -> int:
        """Packets waiting or in the middle of injection."""
        return len(self.queue) + (1 if self._current else 0)

    def inject_step(self, now: int) -> bool:
        """Try to push one flit into the router; returns True if one moved."""
        if self._current is None:
            if not self.queue:
                return False
            packet = self.queue[0]
            # Open a VC on the router's LOCAL input for the new packet.
            vc = self._free_local_vc()
            if vc is None:
                return False
            self.queue.popleft()
            packet.injected_at = now
            self._current = packet.flits()
            self._current_vc = vc
            self.injected_packets += 1
        vc = self._current_vc
        if not self.router.can_accept(Port.LOCAL, vc):
            return False
        flit = self._current.pop(0)
        self.router.receive_flit(Port.LOCAL, vc, flit, now)
        if not self._current:
            self._current = None
            self._current_vc = None
        return True

    def _free_local_vc(self) -> int | None:
        """A LOCAL input VC (within the head packet's class partition) that
        is idle between packets and empty."""
        packet = self.queue[0]
        lo, hi = self.router.config.vc_range(int(packet.traffic_class))
        for vc_index in range(lo, hi):
            channel = self.router.inputs[Port.LOCAL][vc_index]
            if channel.state == "idle" and not channel.buffer:
                return vc_index
        return None

    def eject(self, flit: Flit, now: int) -> Packet | None:
        """Consume a delivered flit; returns the packet on tail arrival."""
        if flit.packet.dst != self.tile:
            raise RuntimeError(
                f"flit for tile {flit.packet.dst} ejected at tile {self.tile} "
                "(routing error)"
            )
        if flit.is_tail:
            flit.packet.ejected_at = now
            self.ejected_packets += 1
            return flit.packet
        return None


class _Link:
    """A unidirectional pipelined wire between two routers."""

    __slots__ = ("latency", "in_flight", "flits_carried", "busy")

    def __init__(self, latency: int) -> None:
        self.latency = latency
        self.in_flight: deque[tuple[int, int, Flit]] = deque()  # (arrive, vc, flit)
        self.flits_carried = 0  #: cumulative traffic tally (MetricsSampler)
        self.busy = False  #: registered in the network's busy-link set

    def send(self, now: int, vc: int, flit: Flit) -> None:
        self.in_flight.append((now + self.latency, vc, flit))
        self.flits_carried += 1

    def arrivals(self, now: int):
        while self.in_flight and self.in_flight[0][0] <= now:
            _, vc, flit = self.in_flight.popleft()
            yield vc, flit


class Network:
    """The full mesh NoC: routers, links, NIs, and the cycle loop."""

    def __init__(
        self,
        mesh: Mesh,
        config: NetworkConfig | None = None,
        *,
        faults=None,
        invariants=None,
        tracer=None,
    ) -> None:
        from repro.noc.routing import ROUTE_FUNCTIONS

        self.mesh = mesh
        self.config = config or NetworkConfig()
        #: Attached packet-lifecycle tracer (None = tracing off).  The hot
        #: paths below are built in two variants so a tracer-less network
        #: executes exactly the uninstrumented code.
        self._tracer = tracer
        route_fn = ROUTE_FUNCTIONS[self.config.routing]
        # Fault state first: the route closure consults it when (and only
        # when) a fault schedule is attached.
        self._faults = self._make_fault_manager(faults)
        #: Links currently down: set of (tile, Port).
        self._down_links: set[tuple[int, Port]] = set()
        #: Routers whose pipelines are currently frozen.
        self._stalled: set[int] = set()
        #: Packets torn down this cycle, awaiting network-wide purge.
        self._pending_drops: list[Packet] = []
        self.flits_dropped = 0

        # Routes are deterministic per (tile, dst): memoise them so the mesh
        # coordinate arithmetic runs once per pair, not once per head flit.
        route_cache: dict[tuple[int, int], Port] = {}
        self._route_cache = route_cache

        if self._faults is None:

            def route(tile: int, dst: int) -> Port:
                key = (tile, dst)
                port = route_cache.get(key)
                if port is None:
                    port = route_cache[key] = route_fn(mesh, tile, dst)
                return port

        else:
            # Fault-aware variant: steer head flits off dead links.  The
            # cache stays valid between link events (it is cleared on
            # every up/down transition).
            from repro.noc.faults import detour_port

            down = self._down_links
            stats = self._faults.stats

            def route(tile: int, dst: int) -> Port:
                key = (tile, dst)
                port = route_cache.get(key)
                if port is None:
                    port = route_fn(mesh, tile, dst)
                    if port != Port.LOCAL and (tile, port) in down:
                        alt = detour_port(
                            mesh, tile, dst, lambda t, p: (t, p) not in down, port
                        )
                        if alt is not None:
                            if self._tracer is not None:
                                self._tracer.on_reroute(tile, dst, port, alt, self.now)
                            port = alt
                            stats.reroutes += 1
                        # else: fully cut off — keep the dead port; the
                        # send path drops the flit and NACK/retry recovers
                        # once connectivity returns.
                    route_cache[key] = port
                return port

        self.routers = [
            Router(t, self.config.router, route) for t in range(mesh.n_tiles)
        ]
        self.interfaces = [NetworkInterface(t, self.routers[t]) for t in range(mesh.n_tiles)]
        # links[(tile, port)] carries flits leaving `tile` through `port`.
        self.links: dict[tuple[int, Port], _Link] = {}
        #: neighbour[tile][port] — downstream tile, or None at the mesh edge.
        self._neighbor: list[list[int | None]] = [
            [None] * len(Port) for _ in range(mesh.n_tiles)
        ]
        for t in range(mesh.n_tiles):
            for port in _DIRECTION_PORTS:
                try:
                    dst = next_tile(mesh, t, port)
                except ValueError:
                    continue
                self.links[(t, port)] = _Link(self.config.link_latency)
                self._neighbor[t][port] = dst
        self.now = 0
        self.delivered: list[Packet] = []
        self.flits_injected = 0
        self.flits_ejected = 0
        self._active: set[int] = set()
        #: Links currently carrying flits: (tile, port) -> (link, dst, in_port).
        self._busy_links: dict[tuple[int, Port], tuple[_Link, int, Port]] = {}
        #: Flits in flight on each tile's outgoing links (O(1) retirement).
        self._tile_outflight = [0] * mesh.n_tiles
        #: Flits that moved (arrived / injected / routed) this cycle; zero
        #: means the cycle was a provable no-op (drain may fast-forward).
        self._moved = 0
        self._send_fns = [self._make_send(t) for t in range(mesh.n_tiles)]
        self._credit_fns = [self._make_credit(t) for t in range(mesh.n_tiles)]
        self._invariants = self._make_invariants(invariants)
        if tracer is not None:
            tracer.attach(self)
            for router in self.routers:
                router.tracer = tracer

    def _make_fault_manager(self, faults):
        """Coerce the ``faults=`` argument into an attached FaultManager."""
        if faults is None:
            return None
        from repro.noc.faults import FaultManager, FaultSchedule

        if isinstance(faults, FaultManager):
            return faults
        if isinstance(faults, FaultSchedule):
            return FaultManager(faults)
        raise TypeError(
            f"faults must be a FaultSchedule or FaultManager, got {type(faults)!r}"
        )

    def _make_invariants(self, invariants):
        """Coerce the ``invariants=`` argument into an attached checker."""
        if invariants is None or invariants is False:
            return None
        from repro.noc.invariants import InvariantChecker, InvariantConfig

        if invariants is True:
            return InvariantChecker(self)
        if isinstance(invariants, InvariantConfig):
            return InvariantChecker(self, invariants)
        if isinstance(invariants, InvariantChecker):
            return invariants
        raise TypeError(
            "invariants must be a bool, InvariantConfig or InvariantChecker, "
            f"got {type(invariants)!r}"
        )

    @property
    def fault_stats(self):
        """Fault counters, or None when no schedule is attached."""
        return None if self._faults is None else self._faults.stats

    @property
    def invariants(self):
        """The attached invariant checker, or None."""
        return self._invariants

    @property
    def lost_packets(self) -> list[Packet]:
        """Packets abandoned after exhausting their retry budget."""
        return [] if self._faults is None else self._faults.lost_packets

    # ------------------------------------------------------------------
    # Packet entry points
    # ------------------------------------------------------------------

    def submit(self, packet: Packet) -> None:
        """Queue a packet for injection at its source tile.

        Locally addressed packets complete instantly without touching the
        network (the analytic model's src == dst rule).
        """
        tracer = self._tracer
        if tracer is not None:
            tracer.on_submit(packet, self.now)
        if packet.src == packet.dst:
            packet.injected_at = self.now
            packet.ejected_at = self.now
            self.delivered.append(packet)
            if tracer is not None:
                tracer.on_eject(packet, self.now)
            return
        self.interfaces[packet.src].enqueue(packet)
        self._active.add(packet.src)

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the network by one cycle."""
        now = self.now
        self._moved = 0
        routers = self.routers

        # 0. Fault phase: link up/down and stall transitions scheduled for
        # this cycle, plus NACK deliveries (packet retries).  Absent a
        # fault schedule this is a single attribute check.
        if self._faults is not None:
            self._faults.advance(self, now)

        # 1. Link arrivals -> downstream buffer writes (busy links only).
        if self._busy_links:
            active_add = self._active.add
            outflight = self._tile_outflight
            for key in list(self._busy_links):
                link, dst_tile, in_port = self._busy_links[key]
                in_flight = link.in_flight
                if in_flight[0][0] <= now:
                    receive = routers[dst_tile].receive_flit
                    arrived = 0
                    while in_flight and in_flight[0][0] <= now:
                        _, vc, flit = in_flight.popleft()
                        receive(in_port, vc, flit, now)
                        arrived += 1
                    outflight[key[0]] -= arrived
                    self._moved += arrived
                    active_add(dst_tile)
                if not in_flight:
                    link.busy = False
                    del self._busy_links[key]

        if self._active:
            active_tiles = sorted(self._active)
            interfaces = self.interfaces

            # 2. NI injection (one flit per NI per cycle).
            for tile in active_tiles:
                ni = interfaces[tile]
                if (ni.queue or ni._current) and ni.inject_step(now):
                    self.flits_injected += 1
                    self._moved += 1

            # 3. Router pipelines (only routers holding flits do any work;
            # stalled routers freeze — their buffers keep latching arrivals
            # but nothing advances).
            send_fns = self._send_fns
            credit_fns = self._credit_fns
            stalled = self._stalled
            for tile in active_tiles:
                router = routers[tile]
                if router._occupancy and not (stalled and tile in stalled):
                    router.step(now, send_fns[tile], credit_fns[tile])

            # 3b. Teardown of packets that lost a flit this cycle (drops
            # are recorded during the router loop, purged after it so the
            # in-progress switch allocation never sees mutated state).
            if self._pending_drops:
                self._process_drops(now)

            # 4. Retire idle tiles from the active set.
            outflight = self._tile_outflight
            discard = self._active.discard
            for tile in active_tiles:
                if routers[tile]._occupancy == 0 and outflight[tile] == 0:
                    ni = interfaces[tile]
                    if not ni.queue and ni._current is None:
                        discard(tile)

        self.now = now + 1
        if self._faults is not None and self._moved:
            self._faults.last_progress = now
        if self._invariants is not None:
            self._invariants.after_step()

    def run(self, cycles: int) -> None:
        """Advance by ``cycles`` cycles."""
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 1_000_000) -> None:
        """Run until every in-flight and queued packet has been delivered.

        When a cycle moves no flit at all, nothing can change until the
        next time-driven event (a link arrival or a buffered flit's
        pipeline ``ready_at``); the clock jumps straight there.  Credit-
        or VC-blocked flits only unblock through another flit moving, so
        the jump can never skip real work — behaviour is bit-identical to
        stepping cycle by cycle.
        """
        start = self.now
        faults = self._faults
        while self._active or (faults is not None and faults.has_pending()):
            if self.now - start > max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    "(possible deadlock or livelock)"
                )
            self.step()
            if self._moved == 0 and (
                self._active or (faults is not None and faults.has_pending())
            ):
                nxt = self._next_event_time()
                if nxt is not None and nxt > self.now:
                    self.now = nxt
                    if faults is not None:
                        # The skipped span was provably event-free — an
                        # idle wait, not a deadlock.  Without this reset a
                        # long jump (e.g. to a distant link-up) would look
                        # like recovery_cycles of zero progress.
                        faults.last_progress = nxt

    def _next_event_time(self) -> int | None:
        """Earliest future cycle at which a flit could move on its own."""
        best: int | None = None
        for link, _, _ in self._busy_links.values():
            t = link.in_flight[0][0]
            if best is None or t < best:
                best = t
        for tile in self._active:
            router = self.routers[tile]
            if router._occupancy == 0:
                continue
            credits = router.credits
            for channel in router._busy:
                if (
                    channel.state == _VC_ACTIVE
                    and channel.buffer
                    and credits[channel.out_port][channel.out_vc] > 0
                ):
                    t = channel.buffer[0].ready_at
                    if best is None or t < best:
                        best = t
        if self._faults is not None:
            # Scheduled link/stall transitions and pending NACKs are
            # time-driven events too: fast-forwarding past one would skip
            # a retry or leave a link state change unapplied.
            t = self._faults.next_event_time()
            if t is not None and (best is None or t < best):
                best = t
        return best

    # ------------------------------------------------------------------
    # Fault plumbing (cold path — reached only on an actual fault event)
    # ------------------------------------------------------------------

    def _set_link_down(self, tile: int, port: Port) -> None:
        """Take the link leaving ``tile`` through ``port`` out of service."""
        key = (tile, port)
        if key not in self.links or key in self._down_links:
            return
        self._down_links.add(key)
        self._route_cache.clear()
        self._faults.stats.link_down_events += 1
        if self._tracer is not None:
            self._tracer.on_link_down(tile, port, self.now)
        # Channels that routed towards the dead link but have not started
        # streaming simply re-route; channels mid-packet (and flits caught
        # on the wire) lose their packet to teardown + NACK.
        self.routers[tile].reroute_awaiting(port)
        victims: dict[int, Packet] = {}
        for channel in self.routers[tile]._busy:
            if (
                channel.state == _VC_ACTIVE
                and channel.out_port == port
                and channel.current_pid is not None
            ):
                packet = channel.buffer[0].packet if channel.buffer else None
                if packet is not None and packet.pid == channel.current_pid:
                    victims[packet.pid] = packet
        link = self.links[key]
        for _, _, flit in link.in_flight:
            victims[flit.packet.pid] = flit.packet
        for packet in victims.values():
            self._teardown_packet(packet)
            self._faults.schedule_nack(packet, self.now)

    def _set_link_up(self, tile: int, port: Port) -> None:
        """Return a downed link to service."""
        key = (tile, port)
        if key not in self._down_links:
            return
        self._down_links.discard(key)
        self._route_cache.clear()
        self._faults.stats.link_up_events += 1
        if self._tracer is not None:
            self._tracer.on_link_up(tile, port, self.now)

    def _process_drops(self, now: int) -> None:
        """Tear down and NACK every packet that lost a flit this cycle."""
        seen: set[int] = set()
        for packet in self._pending_drops:
            if packet.pid in seen:
                continue
            seen.add(packet.pid)
            self._teardown_packet(packet)
            self._faults.schedule_nack(packet, now)
        self._pending_drops.clear()

    def _teardown_packet(self, packet: Packet) -> int:
        """Purge every in-network flit of ``packet``; returns flits dropped.

        Wormhole flits are useless without their head: once any flit of a
        packet is lost, the remainder is flushed from every buffer and
        wire it occupies, credits are refunded, and downstream VC claims
        are released — the network-wide half of the NACK/retry protocol.
        """
        pid = packet.pid
        dropped = 0
        # Abort an in-progress injection of this packet at the source NI.
        ni = self.interfaces[packet.src]
        if ni._current is not None and ni._current[0].packet.pid == pid:
            ni._current = None
            ni._current_vc = None
        # Buffered flits (mid-packet channels may live on momentarily
        # retired tiles, so scan every router with busy channels).
        for tile, router in enumerate(self.routers):
            if router._busy:
                dropped += router.purge_packet(pid, self._credit_fns[tile])
        # Flits on the wire.
        for key in list(self._busy_links):
            link, _, _ = self._busy_links[key]
            removed = [e for e in link.in_flight if e[2].packet.pid == pid]
            if not removed:
                continue
            link.in_flight = deque(
                e for e in link.in_flight if e[2].packet.pid != pid
            )
            for _, vc, _flit in removed:
                self.routers[key[0]].credit_return(key[1], vc)
            self._tile_outflight[key[0]] -= len(removed)
            dropped += len(removed)
            if not link.in_flight:
                link.busy = False
                del self._busy_links[key]
        self.flits_dropped += dropped
        self._faults.stats.flits_dropped += dropped
        if self._tracer is not None:
            self._tracer.on_teardown(packet, self.now, dropped)
        return dropped

    # ------------------------------------------------------------------
    # Router callbacks
    # ------------------------------------------------------------------

    def _make_send(self, tile: int):
        out_links = {
            port: link for (t, port), link in self.links.items() if t == tile
        }
        router = self.routers[tile]
        interface = self.interfaces[tile]
        faults = self._faults
        tracer = self._tracer

        def send(out_port: Port, out_vc: int, flit: Flit) -> None:
            self._moved += 1
            if out_port == Port.LOCAL:
                packet = interface.eject(flit, self.now)
                self.flits_ejected += 1
                if packet is not None:
                    self.delivered.append(packet)
                    if self._invariants is not None:
                        self._invariants.on_delivered(packet)
                # The ejection NI drains at link rate: return the credit now.
                router.credit_return(Port.LOCAL, out_vc)
            else:
                if faults is not None and (
                    (tile, out_port) in self._down_links or faults.maybe_drop()
                ):
                    # The flit dies at the link.  The downstream buffer slot
                    # it claimed will never be used: refund the credit here;
                    # the rest of the packet is purged after the router loop.
                    self.flits_dropped += 1
                    faults.stats.flits_dropped += 1
                    router.credit_return(out_port, out_vc)
                    self._pending_drops.append(flit.packet)
                    return
                link = out_links[out_port]
                link.in_flight.append((self.now + link.latency, out_vc, flit))
                link.flits_carried += 1
                self._tile_outflight[tile] += 1
                if not link.busy:
                    link.busy = True
                    self._busy_links[(tile, out_port)] = (
                        link,
                        self._neighbor[tile][out_port],
                        out_port.opposite,
                    )

        if tracer is None:
            return send

        def traced_send(out_port: Port, out_vc: int, flit: Flit) -> None:
            # Tracing reads but never mutates simulation state, so the
            # traced run stays bit-identical to the untraced one.
            if out_port == Port.LOCAL:
                is_tail = flit.is_tail
                send(out_port, out_vc, flit)
                if is_tail:
                    tracer.on_eject(flit.packet, self.now)
            else:
                tracer.on_flit(tile, out_port, out_vc, flit, self.now)
                send(out_port, out_vc, flit)

        return traced_send

    def _make_credit(self, tile: int):
        neighbors = self._neighbor[tile]
        routers = self.routers

        def credit(in_port: Port, in_vc: int) -> None:
            # The freed buffer slot belongs to this router's input; the
            # upstream router on the other side of the link gets the credit.
            routers[neighbors[in_port]].credit_return(_OPPOSITE[in_port], in_vc)

        return credit

    # ------------------------------------------------------------------
    # Introspection / invariants
    # ------------------------------------------------------------------

    @property
    def in_flight_flits(self) -> int:
        buffered = sum(r.occupancy for r in self.routers)
        on_links = sum(len(l.in_flight) for l in self.links.values())
        return buffered + on_links

    def assert_conserved(self) -> None:
        """Invariant: every injected flit is buffered, on a wire, ejected,
        or was deliberately dropped by fault injection."""
        accounted = self.flits_ejected + self.in_flight_flits + self.flits_dropped
        if self.flits_injected != accounted:
            raise AssertionError(
                f"flit conservation violated: injected={self.flits_injected} "
                f"ejected={self.flits_ejected} in_flight={self.in_flight_flits} "
                f"dropped={self.flits_dropped}"
            )
