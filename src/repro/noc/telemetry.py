"""Network telemetry: per-router and per-link activity accounting.

Attaches to a :class:`~repro.noc.network.Network` and derives spatial
views — flits routed per router, per-link utilisation, hotspot maps —
from the counters the routers/links already maintain, to show *where* a
mapping puts its traffic (the paper's Figure 3/4/8 intuition made
measurable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.network import Network
from repro.noc.routing import Port

__all__ = ["NetworkTelemetry", "TelemetrySnapshot"]

_DIRECTIONS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Cumulative activity counters at one point in time."""

    router_flits: np.ndarray  #: flits switched per router
    buffer_writes: np.ndarray  #: buffer writes per router
    link_flits: dict  #: (tile, Port) -> flits sent over that link
    cycles: int
    flits_dropped: int = 0  #: flits lost to fault injection in the window

    def router_grid(self, mesh) -> np.ndarray:
        """Per-router flit counts as a mesh grid (a traffic heat map)."""
        return mesh.as_grid(self.router_flits)

    def link_utilisation(self) -> dict:
        """Per-link flits per cycle (0..1, the link's duty factor)."""
        if self.cycles == 0:
            return {k: 0.0 for k in self.link_flits}
        return {k: v / self.cycles for k, v in self.link_flits.items()}

    def hottest_links(self, n: int = 5) -> list[tuple[tuple, float]]:
        """The ``n`` busiest links as ((tile, port), utilisation)."""
        util = self.link_utilisation()
        return sorted(util.items(), key=lambda kv: -kv[1])[:n]

    @property
    def total_flit_hops(self) -> int:
        return int(sum(self.link_flits.values()))


class NetworkTelemetry:
    """Snapshot/diff interface over a network's internal counters."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._baseline = self._raw()

    def _raw(self) -> TelemetrySnapshot:
        net = self.network
        router_flits = np.array([r.flits_routed for r in net.routers], dtype=np.int64)
        writes = np.array([r.buffer_writes for r in net.routers], dtype=np.int64)
        link_flits = {}
        for (tile, port), link in net.links.items():
            # Flits *sent* over a link = switch traversals at the source
            # router towards that port; the router does not split counts by
            # port, so per-link counts come from the link objects' own
            # ``flits_carried`` tally.  That attribute is part of the Link
            # contract — a missing one means a broken or substitute link
            # class, and silently counting 0 would render utilisation maps
            # subtly wrong, so fail loudly instead.
            try:
                link_flits[(tile, port)] = link.flits_carried
            except AttributeError:
                raise TypeError(
                    f"link {tile}:{port.name} ({type(link).__name__}) has no "
                    "'flits_carried' counter; NetworkTelemetry requires links "
                    "that tally carried flits"
                ) from None
        return TelemetrySnapshot(
            router_flits=router_flits,
            buffer_writes=writes,
            link_flits=link_flits,
            cycles=net.now,
            flits_dropped=net.flits_dropped,
        )

    def reset(self) -> None:
        """Make the current counters the new baseline."""
        self._baseline = self._raw()

    def snapshot(self) -> TelemetrySnapshot:
        """Activity accumulated since the last :meth:`reset` (or creation)."""
        now = self._raw()
        base = self._baseline
        return TelemetrySnapshot(
            router_flits=now.router_flits - base.router_flits,
            buffer_writes=now.buffer_writes - base.buffer_writes,
            link_flits={
                k: now.link_flits[k] - base.link_flits.get(k, 0)
                for k in now.link_flits
            },
            cycles=now.cycles - base.cycles,
            flits_dropped=now.flits_dropped - base.flits_dropped,
        )
