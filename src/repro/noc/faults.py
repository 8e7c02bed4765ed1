"""Deterministic fault injection for the cycle-level NoC engine.

The fast-path engine in :mod:`repro.noc.network` models a *perfect*
network; this module adds the degraded scenarios related NoC work
evaluates mappings under — transient link outages, router stalls, and
lossy links — without giving up determinism: every fault is either a
scheduled ``(start, end)`` window or a draw from a seeded generator, so a
faulted run replays bit-identically from ``(schedule, seed)``.

Three fault classes:

* **Link down/up windows** (:class:`LinkDownWindow`).  While down, a link
  accepts no flits.  Head flits are rerouted around the outage (see
  :func:`detour_port`); flits caught mid-wire or already committed to the
  dead link are dropped, tearing down the whole packet (wormhole flits
  are useless without their head), and the source NI is NACKed.
* **Router stall windows** (:class:`RouterStallWindow`).  The router's
  pipeline freezes — buffered flits do not advance — while its input
  buffers keep latching arrivals.  Pure added latency, no loss.
* **Stochastic flit drops** (``drop_rate``).  Each link traversal loses
  the flit with probability ``drop_rate`` (seeded, deterministic),
  modelling a noisy interconnect.  As with outages, a dropped flit kills
  its packet and triggers the NACK/retry protocol.

Loss recovery is end-to-end: a NACK reaches the source network interface
``nack_delay`` cycles after the drop and the packet re-enters the
injection queue (up to ``max_retries`` times, then it is counted lost).
Retries preserve ``created_at``, so measured latency includes the full
recovery cost.

All counters surface in :class:`repro.noc.stats.FaultStats` (exposed via
the simulator result and ``python -m repro simulate``); the
time-series sampler (:mod:`repro.obs.sampler`) reports the windowed drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.latency import Mesh
from repro.noc.routing import _PORT_DELTAS, Port
from repro.noc.stats import FaultStats
from repro.utils.rng import as_rng

__all__ = [
    "FaultConfig",
    "LinkDownWindow",
    "RouterStallWindow",
    "FaultSchedule",
    "FaultManager",
    "detour_port",
]

_DIRECTIONS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs governing loss and recovery behaviour."""

    drop_rate: float = 0.0  #: per-link-traversal flit loss probability
    max_retries: int = 3  #: packet retransmissions before counting it lost
    nack_delay: int = 8  #: cycles from drop to NACK arrival at the source NI
    seed: int = 0  #: seed of the stochastic-drop generator
    #: No-progress cycles before deadlock recovery tears down (and NACKs)
    #: the oldest blocked packet.  Detour routes forfeit the turn-model
    #: deadlock-freedom proof, so a faulted network needs this end-to-end
    #: timeout; it doubles as the recovery path for packets wedged behind
    #: long router stalls.  Must be shorter than any invariant watchdog.
    recovery_cycles: int = 1_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be a probability")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.nack_delay < 1:
            raise ValueError("nack_delay must be at least one cycle")
        if self.recovery_cycles < 1:
            raise ValueError("recovery_cycles must be >= 1")


@dataclass(frozen=True)
class LinkDownWindow:
    """Link leaving ``tile`` through ``port`` is dead for ``[start, end)``."""

    tile: int
    port: Port
    start: int
    end: int  #: exclusive; use a huge value for a permanent outage

    def __post_init__(self) -> None:
        if self.port == Port.LOCAL:
            raise ValueError("the LOCAL port is not a mesh link")
        if not 0 <= self.start < self.end:
            raise ValueError("need 0 <= start < end")


@dataclass(frozen=True)
class RouterStallWindow:
    """Router ``tile``'s pipeline freezes for cycles ``[start, end)``."""

    tile: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("need 0 <= start < end")


@dataclass(frozen=True)
class FaultSchedule:
    """A full, deterministic description of every fault in a run."""

    link_windows: tuple[LinkDownWindow, ...] = ()
    stall_windows: tuple[RouterStallWindow, ...] = ()
    config: FaultConfig = field(default_factory=FaultConfig)

    @property
    def is_trivial(self) -> bool:
        """True when the schedule can never perturb the network."""
        return (
            not self.link_windows
            and not self.stall_windows
            and self.config.drop_rate == 0.0
        )

    def with_config(self, **kwargs) -> "FaultSchedule":
        return replace(self, config=replace(self.config, **kwargs))

    @classmethod
    def random(
        cls,
        mesh: Mesh,
        seed: int,
        *,
        n_link_faults: int = 2,
        n_stalls: int = 1,
        horizon: int = 5_000,
        max_window: int = 500,
        drop_rate: float = 0.0,
        config: FaultConfig | None = None,
    ) -> "FaultSchedule":
        """A seed-deterministic schedule of bounded fault windows.

        Windows are drawn uniformly over the mesh's real links / tiles and
        over ``[0, horizon)``, each lasting at most ``max_window`` cycles.
        The same ``(mesh, seed, kwargs)`` always yields the same schedule.
        """
        rng = as_rng(seed)
        links = []
        for t in range(mesh.n_tiles):
            ci, cj = mesh.coords(t)
            for port in _DIRECTIONS:
                dr, dc = _PORT_DELTAS[port]
                if mesh.contains(ci + dr, cj + dc):
                    links.append((t, port))
        link_windows = []
        for _ in range(n_link_faults):
            tile, port = links[int(rng.integers(len(links)))]
            start = int(rng.integers(horizon))
            length = int(rng.integers(1, max_window + 1))
            link_windows.append(LinkDownWindow(tile, port, start, start + length))
        stall_windows = []
        for _ in range(n_stalls):
            tile = int(rng.integers(mesh.n_tiles))
            start = int(rng.integers(horizon))
            length = int(rng.integers(1, max_window + 1))
            stall_windows.append(RouterStallWindow(tile, start, start + length))
        cfg = config or FaultConfig(drop_rate=drop_rate, seed=seed)
        if drop_rate and cfg.drop_rate != drop_rate:
            cfg = replace(cfg, drop_rate=drop_rate)
        return cls(tuple(link_windows), tuple(stall_windows), cfg)


def detour_port(mesh: Mesh, tile: int, dst: int, is_live, blocked: Port) -> Port | None:
    """Best live output port at ``tile`` for a packet heading to ``dst``.

    Degraded-mode routing (used when the deterministic route through
    ``blocked`` is down): prefer *productive* live ports (those reducing
    the Manhattan distance to ``dst``); among unproductive detours, take a
    perpendicular sidestep before the backtrack — a backtracked packet
    would be routed straight onto the dead link again by the tile behind
    it, ping-ponging forever.  Ties break on port order, keeping the
    choice deterministic.  Returns ``None`` when the router is fully cut
    off.

    Detour routes forfeit the turn-model deadlock-freedom proof; the
    invariant watchdog (:mod:`repro.noc.invariants`) is the backstop.
    """
    ci, cj = mesh.coords(tile)
    di, dj = mesh.coords(dst)
    base_dist = abs(di - ci) + abs(dj - cj)
    bdr, bdc = _PORT_DELTAS[blocked]
    best: tuple[int, int, int] | None = None
    best_port: Port | None = None
    for port in _DIRECTIONS:
        dr, dc = _PORT_DELTAS[port]
        ni, nj = ci + dr, cj + dc
        if not mesh.contains(ni, nj) or not is_live(tile, port):
            continue
        dist = abs(di - ni) + abs(dj - nj)
        # Rank: productive moves first, then perpendicular sidesteps,
        # then by residual distance; iteration order breaks exact ties.
        perpendicular = 0 if (dr * bdr + dc * bdc) == 0 else 1
        rank = (0 if dist < base_dist else 1, perpendicular, dist)
        if best is None or rank < best:
            best = rank
            best_port = port
    return best_port


class FaultManager:
    """Runtime driver of a :class:`FaultSchedule` inside a network.

    The owning :class:`~repro.noc.network.Network` calls :meth:`advance`
    at the top of every cycle; the manager applies due link/stall
    transitions, delivers due NACKs (re-enqueueing retried packets), and
    keeps every counter in :attr:`stats`.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.config = schedule.config
        self.stats = FaultStats()
        self._rng = as_rng(self.config.seed)
        # One flat, time-sorted event list: (cycle, seq, kind, payload).
        events: list[tuple[int, int, str, tuple]] = []
        for w in schedule.link_windows:
            events.append((w.start, len(events), "link_down", (w.tile, w.port)))
            events.append((w.end, len(events), "link_up", (w.tile, w.port)))
        for w in schedule.stall_windows:
            events.append((w.start, len(events), "stall_start", (w.tile,)))
            events.append((w.end, len(events), "stall_end", (w.tile,)))
        events.sort()
        self._events = events
        self._next_event = 0
        #: NACKs awaiting delivery: due cycle -> packets.
        self._nacks: dict[int, list] = {}
        #: Packets lost after exhausting retries (end-to-end accounting).
        self.lost_packets: list = []
        #: Last cycle any flit moved (maintained by the network); the
        #: deadlock-recovery timeout measures from here.
        self.last_progress = 0

    # ------------------------------------------------------------------
    # Per-cycle driving (called by Network.step)
    # ------------------------------------------------------------------

    def advance(self, network, now: int) -> None:
        """Apply all fault events and NACK deliveries due at ``now``."""
        events = self._events
        while self._next_event < len(events) and events[self._next_event][0] <= now:
            _, _, kind, payload = events[self._next_event]
            self._next_event += 1
            if kind == "link_down":
                network._set_link_down(*payload)
            elif kind == "link_up":
                network._set_link_up(*payload)
            elif kind == "stall_start":
                network._stalled.add(payload[0])
                self.stats.stall_windows += 1
            else:  # stall_end
                network._stalled.discard(payload[0])
        if self._nacks:
            due = [t for t in self._nacks if t <= now]
            for t in sorted(due):
                for packet in self._nacks.pop(t):
                    self._deliver_nack(network, packet, now)
        if now - self.last_progress > self.config.recovery_cycles:
            self._recover(network, now)

    def _recover(self, network, now: int) -> None:
        """Deadlock/stall recovery: kill the oldest blocked packet.

        Detoured packets can form credit cycles the baseline turn model
        forbids; freeing the oldest packet's buffers (with the usual
        teardown + NACK) breaks the cycle deterministically.  If the wedge
        persists, recovery fires again every ``recovery_cycles`` until the
        victims exhaust their retries — the process always terminates.
        """
        victim = None
        for router in network.routers:
            if router._occupancy:
                for channel in router._busy:
                    for flit in channel.buffer:
                        if victim is None or flit.packet.pid < victim.pid:
                            victim = flit.packet
        if victim is not None:
            self.stats.deadlock_recoveries += 1
            network._teardown_packet(victim)
            self.schedule_nack(victim, now)
        self.last_progress = now

    def _deliver_nack(self, network, packet, now: int) -> None:
        self.stats.nacks_delivered += 1
        tracer = network._tracer
        if packet.retries >= self.config.max_retries:
            self.stats.packets_lost += 1
            self.lost_packets.append(packet)
            if tracer is not None:
                tracer.on_lost(packet, now)
            return
        packet.retries += 1
        self.stats.packets_retried += 1
        packet.injected_at = None
        packet.ejected_at = None
        network.interfaces[packet.src].enqueue(packet)
        network._active.add(packet.src)
        if tracer is not None:
            tracer.on_retry(packet, now)

    # ------------------------------------------------------------------
    # Queries used by the network hot path
    # ------------------------------------------------------------------

    def maybe_drop(self) -> bool:
        """Seeded Bernoulli draw for one link traversal."""
        rate = self.config.drop_rate
        return rate > 0.0 and self._rng.random() < rate

    def schedule_nack(self, packet, now: int) -> None:
        """Queue the end-to-end loss notification for a dropped packet."""
        self.stats.packets_dropped += 1
        self._nacks.setdefault(now + self.config.nack_delay, []).append(packet)

    def has_pending(self) -> bool:
        """Outstanding NACKs mean the network is not yet drained."""
        return bool(self._nacks)

    def next_event_time(self) -> int | None:
        """Earliest future cycle at which the manager must act."""
        best: int | None = None
        if self._next_event < len(self._events):
            best = self._events[self._next_event][0]
        if self._nacks:
            t = min(self._nacks)
            if best is None or t < best:
                best = t
        return best
