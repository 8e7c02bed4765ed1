"""Routing on the mesh.

The paper uses dimension-order XY routing "to minimize design effort and
implementation cost" (Section II.C); on a mesh it is minimal and
deadlock-free because a packet never turns from Y back to X, breaking all
cyclic channel dependencies.  It is the only route the simulator takes.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from repro.core.latency import Mesh

__all__ = [
    "Port",
    "xy_route",
    "route_path",
    "topology_tables",
]


class Port(enum.IntEnum):
    """Router ports.  LOCAL connects to the tile's network interface."""

    LOCAL = 0
    EAST = 1
    WEST = 2
    NORTH = 3
    SOUTH = 4

    @property
    def opposite(self) -> "Port":
        return _OPPOSITE[self]


#: Opposite-port lookup, indexed by port value (hot path: link arrivals).
_OPPOSITE = (Port.LOCAL, Port.WEST, Port.EAST, Port.SOUTH, Port.NORTH)

#: (row, col) step taken when leaving a tile through each port.
_PORT_DELTAS = {
    Port.EAST: (0, 1),
    Port.WEST: (0, -1),
    Port.NORTH: (-1, 0),
    Port.SOUTH: (1, 0),
}


def xy_route(mesh: Mesh, current: int, dst: int) -> Port:
    """Output port at tile ``current`` for a packet heading to ``dst``.

    X (column) distance is resolved first, then Y (row); a packet already
    at its destination exits via the LOCAL port.
    """
    ci, cj = mesh.coords(current)
    di, dj = mesh.coords(dst)
    if cj < dj:
        return Port.EAST
    if cj > dj:
        return Port.WEST
    if ci < di:
        return Port.SOUTH
    if ci > di:
        return Port.NORTH
    return Port.LOCAL


def next_tile(mesh: Mesh, current: int, port: Port) -> int:
    """Neighbouring tile reached by leaving ``current`` through ``port``."""
    if port == Port.LOCAL:
        raise ValueError("LOCAL port does not lead to another tile")
    ci, cj = mesh.coords(current)
    dr, dc = _PORT_DELTAS[port]
    r, c = ci + dr, cj + dc
    if not mesh.contains(r, c):
        raise ValueError(f"port {port.name} leaves the mesh from tile {current}")
    return mesh.tile(r, c)


def route_path(mesh: Mesh, src: int, dst: int) -> list[int]:
    """Full XY tile sequence from ``src`` to ``dst``, both included."""
    path = [src]
    cur = src
    while cur != dst:
        cur = next_tile(mesh, cur, xy_route(mesh, cur, dst))
        path.append(cur)
    return path


@functools.lru_cache(maxsize=8)
def topology_tables(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(ROUTE, NEIGHBOUR)`` tables of a ``rows x cols`` mesh.

    ``ROUTE[t * T + d]`` is the XY output port at tile ``t`` for a packet
    bound to ``d``; ``NEIGHBOUR[t, p]`` is the tile reached through port
    ``p`` (``-1`` for LOCAL and at mesh edges).  Both are built by looping
    :func:`xy_route` and :func:`next_tile`, so routing has one definition.
    The result is memoised per ``(rows, cols)`` in a small LRU: the first
    build of a shape in a process still costs the T x T loop (about 11 ms
    on 8x8, 180 ms on 16x16); every later engine of that shape shares it.
    """
    mesh = Mesh(rows, cols)
    T = mesh.n_tiles
    route = np.empty(T * T, dtype=np.int64)
    for t in range(T):
        for d in range(T):
            route[t * T + d] = int(xy_route(mesh, t, d))

    nei = np.full((T, len(Port)), -1, dtype=np.int64)
    for t in range(T):
        for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH):
            try:
                nei[t, port] = next_tile(mesh, t, port)
            except ValueError:
                continue
    route.flags.writeable = False
    nei.flags.writeable = False
    return route, nei
