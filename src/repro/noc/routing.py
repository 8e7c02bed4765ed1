"""Routing algorithms on the mesh.

The paper uses dimension-order XY routing "to minimize design effort and
implementation cost" (Section II.C); on a mesh it is minimal and
deadlock-free because a packet never turns from Y back to X, breaking all
cyclic channel dependencies.  For routing-sensitivity studies the module
also provides YX (the transpose order, same guarantees) and a
deterministic **west-first** turn-model route (Glass & Ni): all westward
movement happens first, after which the two west-turns are never taken —
the turn-model proof of deadlock freedom.  All three are minimal, so the
analytic hop model (and hence every mapping result) is routing-invariant;
only in-network contention patterns differ.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from repro.core.latency import Mesh

__all__ = [
    "Port",
    "xy_route",
    "yx_route",
    "west_first_route",
    "ROUTE_FUNCTIONS",
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


def yx_route(mesh: Mesh, current: int, dst: int) -> Port:
    """Dimension-order routing with Y (row) resolved before X (column)."""
    ci, cj = mesh.coords(current)
    di, dj = mesh.coords(dst)
    if ci < di:
        return Port.SOUTH
    if ci > di:
        return Port.NORTH
    if cj < dj:
        return Port.EAST
    if cj > dj:
        return Port.WEST
    return Port.LOCAL


def west_first_route(mesh: Mesh, current: int, dst: int) -> Port:
    """Deterministic minimal west-first turn-model routing.

    If the destination lies to the west, go WEST until the column matches
    (westward first, unconditionally).  Otherwise the packet only moves
    east/vertically; we resolve the vertical dimension before the eastward
    one, exercising turns XY routing never takes (south-to-east /
    north-to-east) while still never turning *into* west — the prohibited
    turns of the west-first model.
    """
    ci, cj = mesh.coords(current)
    di, dj = mesh.coords(dst)
    if dj < cj:
        return Port.WEST
    if ci < di:
        return Port.SOUTH
    if ci > di:
        return Port.NORTH
    if cj < dj:
        return Port.EAST
    return Port.LOCAL


#: Named routing functions accepted by :class:`repro.noc.network.Network`.
ROUTE_FUNCTIONS = {
    "xy": xy_route,
    "yx": yx_route,
    "west_first": west_first_route,
}


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


def route_path(mesh: Mesh, src: int, dst: int, route_fn=xy_route) -> list[int]:
    """Full tile sequence (inclusive of endpoints) under ``route_fn``."""
    path = [src]
    cur = src
    while cur != dst:
        cur = next_tile(mesh, cur, route_fn(mesh, cur, dst))
        path.append(cur)
        if len(path) > mesh.n_tiles * 4:  # pragma: no cover - misrouting guard
            raise RuntimeError("routing function failed to converge")
    return path


@functools.lru_cache(maxsize=8)
def topology_tables(rows: int, cols: int, routing: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(ROUTE, NEIGHBOUR)`` tables of a ``rows x cols`` mesh.

    ``ROUTE[t * T + d]`` is the output port at tile ``t`` for a packet
    bound to ``d`` under ``ROUTE_FUNCTIONS[routing]``; ``NEIGHBOUR[t, p]``
    is the tile reached through port ``p`` (``-1`` for LOCAL and at mesh
    edges).  Both are built by looping the scalar route function and
    :func:`next_tile`, so routing has one definition.  The result is
    memoised per ``(rows, cols, routing)`` in a small LRU: the first build
    of a shape in a process still costs the T x T loop (about 11 ms on
    8x8, 180 ms on 16x16); every later engine of that shape shares it.
    """
    mesh = Mesh(rows, cols)
    route_fn = ROUTE_FUNCTIONS[routing]
    T = mesh.n_tiles
    route = np.empty(T * T, dtype=np.int64)
    for t in range(T):
        for d in range(T):
            route[t * T + d] = int(route_fn(mesh, t, d))

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
