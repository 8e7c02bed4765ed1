"""Cycle-level wormhole router with virtual channels and credit flow control.

Models the paper's canonical router (Table 2): a 3-stage pipeline
(buffer-write/route-compute, VC-allocation/switch-allocation, switch+link
traversal), 5-flit input buffers per VC, and credit-based backpressure.
Rather than simulating each pipeline stage as a separate register bank, a
flit written into an input buffer at cycle ``t`` becomes eligible for
switch traversal at ``t + pipeline_depth`` — equivalent timing for an
uncontended pipeline, with contention adding queuing on top, which is
exactly the ``td_q`` term of the paper's latency model.

Simplifications relative to a Garnet-class RTL model (documented in
DESIGN.md): credits are returned instantly rather than after a credit-wire
delay, and VC allocation is greedy first-free.  Both effects are
second-order at the paper's operating loads and do not change who wins a
mapping comparison.

Performance notes: the input VCs live in one flat ``channels`` tuple in
(port, vc) order and ``step`` makes a single fused pass over it (route
compute, VC allocation and switch-candidate gathering per channel, in the
same order the three separate stage loops used to visit them, so results
are bit-identical).  Total buffered flits are tracked in an O(1) counter
so the surrounding network can skip idle routers without rescanning
buffers.  ``inputs`` remains available as a per-port view of the same
channel objects.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from repro.noc.packet import Flit
from repro.noc.routing import Port

__all__ = ["RouterConfig", "VirtualChannel", "Router"]

_VC_IDLE = "idle"
_VC_ROUTING = "routing"
_VC_AWAITING = "awaiting_vc"
_VC_ACTIVE = "active"


@dataclass(frozen=True)
class RouterConfig:
    """Microarchitectural parameters (defaults = paper Table 2).

    With ``vc_classes > 1`` the VCs of every port are statically
    partitioned among protocol classes (Table 2: "3 VCs per protocol
    class"): a packet may only be allocated VCs of its own class, which
    separates request and reply traffic and removes protocol-level
    deadlock when replies depend on requests.
    """

    vcs_per_port: int = 3
    buffer_depth: int = 5  #: flits per VC
    pipeline_depth: int = 3  #: cycles from buffer write to switch eligibility
    vc_classes: int = 1  #: protocol-class partitions of each port's VCs

    def __post_init__(self) -> None:
        if self.vcs_per_port < 1:
            raise ValueError("need at least one VC per port")
        if self.buffer_depth < 1:
            raise ValueError("buffer depth must be at least one flit")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline depth must be at least one cycle")
        if self.vc_classes < 1:
            raise ValueError("need at least one VC class")
        if self.vcs_per_port % self.vc_classes != 0:
            raise ValueError(
                f"{self.vcs_per_port} VCs cannot be split into "
                f"{self.vc_classes} equal class partitions"
            )

    def vc_range(self, traffic_class: int) -> tuple[int, int]:
        """Half-open VC index range usable by ``traffic_class``."""
        if self.vc_classes == 1:
            return (0, self.vcs_per_port)
        per = self.vcs_per_port // self.vc_classes
        c = traffic_class % self.vc_classes
        return (c * per, (c + 1) * per)


@dataclass(eq=False)
class VirtualChannel:
    """One input virtual channel: a FIFO plus wormhole allocation state."""

    port: Port
    index: int
    buffer: deque = field(default_factory=deque)
    state: str = _VC_IDLE
    out_port: Port | None = None
    out_vc: int | None = None
    #: flat position in the router's channel array — the (port, vc) scan
    #: order and the arbitration tie-break key.
    key: int = 0
    #: pid of the packet currently streaming through this channel (set at
    #: route compute, cleared at tail).  Lets fault teardown find a
    #: mid-packet channel even when its buffer has momentarily drained.
    current_pid: int | None = None

    def __lt__(self, other: "VirtualChannel") -> bool:
        return self.key < other.key

    @property
    def occupancy(self) -> int:
        return len(self.buffer)

    def reset_route(self) -> None:
        self.state = _VC_ROUTING if self.buffer else _VC_IDLE
        self.out_port = None
        self.out_vc = None
        self.current_pid = None


class Router:
    """One mesh router.

    The surrounding :class:`~repro.noc.network.Network` wires ports to
    links and the local network interface, and calls :meth:`step` once per
    cycle (only for routers with buffered flits — idle routers cost
    nothing).
    """

    #: Optional packet tracer (set by the network when tracing is on).
    #: A class-level None keeps the disabled check to one attribute load
    #: on the once-per-packet-per-hop VC-allocation path.
    tracer = None

    def __init__(self, tile: int, config: RouterConfig, route_fn) -> None:
        self.tile = tile
        self.config = config
        self._route_fn = route_fn  # (tile, dst) -> Port
        #: All input VCs in (port, vc) order — the order the old per-stage
        #: loops visited them, so the fused pass below matches exactly.
        self.channels: tuple[VirtualChannel, ...] = tuple(
            VirtualChannel(port, v, key=int(port) * config.vcs_per_port + v)
            for port in Port
            for v in range(config.vcs_per_port)
        )
        #: Channels currently holding flits or mid-packet, kept sorted by
        #: ``key`` so the fused pass skips idle channels without scanning.
        self._busy: list[VirtualChannel] = []
        #: Per-port view of the same channel objects (introspection/tests).
        self.inputs: dict[Port, list[VirtualChannel]] = {
            port: [
                self.channels[int(port) * config.vcs_per_port + v]
                for v in range(config.vcs_per_port)
            ]
            for port in Port
        }
        # Credits towards each downstream input buffer; LOCAL output goes to
        # the ejection-side NI which drains at link rate, modelled as a
        # buffer of the same depth refilled by the NI every cycle.
        self.credits: dict[Port, list[int]] = {
            port: [config.buffer_depth] * config.vcs_per_port for port in Port
        }
        # Which (in_port, in_vc) currently owns each downstream VC.
        self.out_vc_owner: dict[Port, list[tuple[Port, int] | None]] = {
            port: [None] * config.vcs_per_port for port in Port
        }
        # Round-robin pointers for switch allocation, one per output port.
        self._sa_pointer: dict[Port, int] = {port: 0 for port in Port}
        #: Buffered-flit counter kept in lockstep with the channel FIFOs so
        #: ``occupancy`` is O(1) instead of a scan over every VC.
        self._occupancy = 0
        # Hot-loop constants hoisted out of the config dataclass.
        self._vcs = config.vcs_per_port
        self._buffer_depth = config.buffer_depth
        self._pipeline_depth = config.pipeline_depth
        self._sa_modulo = len(Port) * config.vcs_per_port
        # Statistics
        self.flits_routed = 0
        self.buffer_writes = 0

    # ------------------------------------------------------------------
    # Interface used by Network / NetworkInterface
    # ------------------------------------------------------------------

    def can_accept(self, port: Port, vc: int) -> bool:
        """Upstream-visible: is there buffer space in input (port, vc)?

        Upstream credit counters normally guarantee this; exposed for the
        injection side and for assertions.
        """
        return len(self.inputs[port][vc].buffer) < self.config.buffer_depth

    def receive_flit(self, port: Port, vc: int, flit: Flit, now: int) -> None:
        """Buffer-write stage: a flit arrives from a link or the local NI."""
        channel = self.channels[port * self._vcs + vc]
        buffer = channel.buffer
        if len(buffer) >= self._buffer_depth:
            raise RuntimeError(
                f"router {self.tile}: buffer overflow on {port.name}.vc{vc} "
                f"(credit protocol violated)"
            )
        flit.ready_at = now + self._pipeline_depth
        buffer.append(flit)
        self._occupancy += 1
        self.buffer_writes += 1
        if channel.state == _VC_IDLE:
            channel.state = _VC_ROUTING
            insort(self._busy, channel)

    @property
    def occupancy(self) -> int:
        """Total buffered flits (0 means the router can be skipped)."""
        return self._occupancy

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------

    def step(self, now: int, send_fn, credit_fn) -> None:
        """One cycle: route compute, VC allocation, switch allocation + ST.

        ``send_fn(out_port, out_vc, flit)`` hands the winning flit to the
        network (link or ejection NI); ``credit_fn(in_port, in_vc)``
        returns one credit upstream for the freed buffer slot.

        All three stages run in one fused pass over ``channels``.  This is
        behaviour-identical to running them as three separate loops: route
        compute only touches the channel itself, VC allocation claims
        output VCs in the same channel order, and switch candidates are
        gathered before any winner is processed (credits and VC ownership
        are only mutated after the gather completes).
        """
        candidates: dict[Port, list[VirtualChannel]] | None = None
        config = self.config
        credits = self.credits
        owners = self.out_vc_owner

        for channel in self._busy:
            state = channel.state
            buffer = channel.buffer
            if state == _VC_ROUTING:
                if not buffer:
                    continue
                head = buffer[0]
                if not head.is_head:
                    raise RuntimeError(
                        f"router {self.tile}: VC front is a {head.kind} flit "
                        "but the VC has no route (wormhole ordering violated)"
                    )
                channel.out_port = self._route_fn(self.tile, head.packet.dst)
                channel.current_pid = head.packet.pid
                state = channel.state = _VC_AWAITING
            if state == _VC_AWAITING:
                port_owners = owners[channel.out_port]
                head = buffer[0]
                lo, hi = config.vc_range(int(head.packet.traffic_class))
                for out_vc in range(lo, hi):
                    if port_owners[out_vc] is None:
                        port_owners[out_vc] = (channel.port, channel.index)
                        channel.out_vc = out_vc
                        state = channel.state = _VC_ACTIVE
                        if self.tracer is not None:
                            self.tracer.on_vc_alloc(
                                self.tile, channel.out_port, out_vc,
                                head.packet.pid, now,
                            )
                        break
                else:
                    # No downstream VC free: the channel retries next cycle.
                    continue
            # state == _VC_ACTIVE: eligible when a ready flit waits at the
            # front and the downstream buffer has a credit.
            if not buffer:
                continue
            flit = buffer[0]
            if flit.ready_at > now:
                continue
            if credits[channel.out_port][channel.out_vc] <= 0:
                continue
            if candidates is None:
                candidates = {}
            if channel.out_port in candidates:
                candidates[channel.out_port].append(channel)
            else:
                candidates[channel.out_port] = [channel]

        if candidates is None:
            return

        for out_port, channels in candidates.items():
            if len(channels) == 1:
                winner = channels[0]
            else:
                # Round-robin among competing input VCs for this output port.
                # Candidates are gathered in channel-array order, i.e.
                # already sorted by key.
                pointer = self._sa_pointer[out_port]
                winner = min(channels, key=lambda ch: (ch.key - pointer) % 64)
            self._sa_pointer[out_port] = (winner.key + 1) % self._sa_modulo

            flit = winner.buffer.popleft()
            self._occupancy -= 1
            out_vc = winner.out_vc
            credits[out_port][out_vc] -= 1
            self.flits_routed += 1
            send_fn(out_port, out_vc, flit)
            if winner.port != Port.LOCAL:
                credit_fn(winner.port, winner.index)
            if flit.is_tail:
                owners[out_port][out_vc] = None
                winner.reset_route()
                if winner.state == _VC_IDLE:
                    self._busy.remove(winner)

    # ------------------------------------------------------------------
    # Fault-injection support (cold path — only reached on drop/outage)
    # ------------------------------------------------------------------

    def reroute_awaiting(self, dead_port: Port) -> int:
        """Send channels still awaiting a VC on ``dead_port`` back to routing.

        Called when the link leaving this router through ``dead_port``
        goes down: a channel that has computed its route but not yet
        claimed a downstream VC can simply re-route (the fault-aware route
        function will steer it around the outage next cycle).  Channels
        already streaming (``active``) cannot be redirected mid-packet and
        are handled by packet teardown instead.  Returns the number of
        channels re-routed.
        """
        rerouted = 0
        for channel in self._busy:
            if channel.state == _VC_AWAITING and channel.out_port == dead_port:
                channel.reset_route()
                rerouted += 1
        return rerouted

    def purge_packet(self, pid: int, credit_fn) -> int:
        """Remove every flit of packet ``pid`` from this router's buffers.

        Wormhole teardown for fault injection: freed buffer slots return
        their credits upstream via ``credit_fn`` (except on the LOCAL
        injection port, which is not credit-flow-controlled), a channel
        mid-stream on ``pid`` releases its downstream VC ownership, and
        emptied channels leave the busy set.  Returns the number of flits
        purged; the caller accounts them as dropped.
        """
        purged = 0
        for channel in list(self._busy):
            buffer = channel.buffer
            n_before = len(buffer)
            if n_before:
                kept = deque(f for f in buffer if f.packet.pid != pid)
                removed = n_before - len(kept)
                if removed:
                    channel.buffer = kept
                    self._occupancy -= removed
                    purged += removed
                    if channel.port != Port.LOCAL:
                        for _ in range(removed):
                            credit_fn(channel.port, channel.index)
            if channel.current_pid == pid:
                if (
                    channel.state == _VC_ACTIVE
                    and channel.out_port is not None
                    and channel.out_vc is not None
                ):
                    owners = self.out_vc_owner[channel.out_port]
                    if owners[channel.out_vc] == (channel.port, channel.index):
                        owners[channel.out_vc] = None
                channel.reset_route()
            elif not channel.buffer and channel.state == _VC_ROUTING:
                # The purged flits were the channel's whole queue before a
                # route was even computed; return it to idle.
                channel.state = _VC_IDLE
            if channel.state == _VC_IDLE and not channel.buffer:
                self._busy.remove(channel)
        return purged

    # ------------------------------------------------------------------
    # Credit plumbing
    # ------------------------------------------------------------------

    def credit_return(self, out_port: Port, out_vc: int) -> None:
        """A downstream buffer slot on (out_port, out_vc) was freed."""
        self.credits[out_port][out_vc] += 1
        if self.credits[out_port][out_vc] > self.config.buffer_depth:
            raise RuntimeError(
                f"router {self.tile}: credit overflow on {out_port.name}.vc{out_vc}"
            )
