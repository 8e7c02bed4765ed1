"""Analytical packet-latency model for mesh NoC CMPs (paper Section II.C).

The model assigns every tile ``k`` two scalar latencies:

* ``TC(k)`` — the average on-chip latency of a shared-L2 cache access issued
  from tile ``k``.  Because L2 banks are address-interleaved across *all*
  tiles (cache-line granularity hashing on the cache-index bits), the
  destination of a cache packet is uniform over the whole mesh, so ``TC``
  depends only on the tile's mean hop distance to every tile (eq. 3).
* ``TM(k)`` — the average on-chip latency of a memory-controller access.
  Requests follow the proximity principle and travel to the *nearest*
  controller (eq. 4 for the canonical corner placement).

Both use the per-packet service model of eq. 2::

    TD = H * (td_r + td_w + td_q) + td_s

with the serialization term ``td_s`` dropped when source == destination
(no network traversal happens at all).  This detail is load-bearing: it is
what makes the paper's Figure-5 worked example come out to exactly
10.3375 / 11.5375 cycles, which we verify in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = ["LatencyParams", "Mesh", "MeshLatencyModel", "corner_tiles"]


@dataclass(frozen=True)
class LatencyParams:
    """Router/link timing parameters of eq. 2, in cycles.

    Defaults model the paper's canonical 8x8 configuration: a 3-stage
    wormhole router (``td_r = 3``), single-cycle links (``td_w = 1``), the
    0--1 cycle queuing delay observed in simulation (``td_q = 0.2``), and a
    serialization latency reflecting the paper's mix of single-flit control
    packets and 5-flit data packets (``td_s = 1.75``).  See DESIGN.md for
    the calibration that lands the random-mapping g-APL at Table 1's
    ~22.6 cycles.
    """

    td_r: float = 3.0  #: per-hop router pipeline latency
    td_w: float = 1.0  #: per-hop wire/link latency
    td_q: float = 0.2  #: average per-hop queuing latency
    td_s: float = 1.75  #: serialization latency (packet length / bandwidth)

    def __post_init__(self) -> None:
        for name in ("td_r", "td_w", "td_q", "td_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @property
    def per_hop(self) -> float:
        """Latency contributed by each hop: ``td_r + td_w + td_q``."""
        return self.td_r + self.td_w + self.td_q

    def with_(self, **changes) -> "LatencyParams":
        """Return a copy with some fields replaced."""
        return replace(self, **changes)

    @classmethod
    def paper_figure5(cls) -> "LatencyParams":
        """Parameters of the paper's Figure-5 worked example."""
        return cls(td_r=3.0, td_w=1.0, td_q=0.0, td_s=1.0)


@dataclass(frozen=True)
class Mesh:
    """A 2-D mesh of ``rows x cols`` tiles with 0-based linear indexing.

    The paper numbers tiles 1-based via ``k = (i-1)*n + j`` (eq. 1); we use
    the equivalent 0-based ``k = i*cols + j`` internally and provide
    :meth:`tile_number` / :meth:`from_tile_number` converters for
    paper-facing output.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"mesh dimensions must be positive, got {self.rows}x{self.cols}")

    @classmethod
    def square(cls, n: int) -> "Mesh":
        """An ``n x n`` mesh (the paper's meshes are square)."""
        return cls(n, n)

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    def coords(self, k: int | np.ndarray) -> tuple:
        """0-based ``(row, col)`` of tile ``k``; vectorised over arrays."""
        return np.divmod(k, self.cols)

    def tile(self, row: int, col: int) -> int:
        """0-based linear index of the tile at 0-based ``(row, col)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"({row}, {col}) outside {self.rows}x{self.cols} mesh")
        return row * self.cols + col

    def tile_number(self, k: int) -> int:
        """Paper-style 1-based tile number of 0-based index ``k`` (eq. 1)."""
        if not (0 <= k < self.n_tiles):
            raise IndexError(f"tile index {k} outside mesh of {self.n_tiles} tiles")
        return k + 1

    def from_tile_number(self, number: int) -> int:
        """0-based index of a paper-style 1-based tile number."""
        if not (1 <= number <= self.n_tiles):
            raise IndexError(f"tile number {number} outside 1..{self.n_tiles}")
        return number - 1

    def contains(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count between two tiles (XY minimal routing)."""
        si, sj = self.coords(src)
        di, dj = self.coords(dst)
        return int(abs(si - di) + abs(sj - dj))

    @cached_property
    def hop_matrix(self) -> np.ndarray:
        """``(N, N)`` matrix of Manhattan hop counts between all tile pairs."""
        idx = np.arange(self.n_tiles)
        ri, ci = self.coords(idx)
        h = np.abs(ri[:, None] - ri[None, :]) + np.abs(ci[:, None] - ci[None, :])
        h.setflags(write=False)
        return h

    def neighbors(self, k: int) -> list[int]:
        """Linear indices of the (up to 4) mesh neighbours of tile ``k``."""
        row, col = self.coords(k)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = row + dr, col + dc
            if self.contains(r, c):
                out.append(self.tile(r, c))
        return out

    def as_grid(self, values: np.ndarray) -> np.ndarray:
        """Reshape a length-N per-tile vector into a ``rows x cols`` grid."""
        values = np.asarray(values)
        if values.shape != (self.n_tiles,):
            raise ValueError(
                f"expected a vector of {self.n_tiles} per-tile values, got shape {values.shape}"
            )
        return values.reshape(self.rows, self.cols)


def corner_tiles(mesh: Mesh) -> tuple[int, ...]:
    """The four corner tiles — the paper's memory-controller placement."""
    return (
        mesh.tile(0, 0),
        mesh.tile(0, mesh.cols - 1),
        mesh.tile(mesh.rows - 1, 0),
        mesh.tile(mesh.rows - 1, mesh.cols - 1),
    )


class MeshLatencyModel:
    """Per-tile cache/memory latency arrays ``TC`` and ``TM`` for a mesh CMP.

    Parameters
    ----------
    mesh:
        The tile grid.  ``int`` is accepted as shorthand for a square mesh.
    params:
        Router/link timing (eq. 2).
    mc_tiles:
        Linear indices of the tiles hosting memory controllers.  Defaults to
        the four corners as in the paper; alternative placements (edge
        midpoints, centre cluster, ...) are supported for design-space
        exploration.
    """

    def __init__(
        self,
        mesh: Mesh | int,
        params: LatencyParams | None = None,
        mc_tiles: tuple[int, ...] | None = None,
    ) -> None:
        if isinstance(mesh, int):
            mesh = Mesh.square(mesh)
        self.mesh = mesh
        self.params = params or LatencyParams()
        if mc_tiles is None:
            mc_tiles = corner_tiles(mesh)
        mc_tiles = tuple(int(t) for t in mc_tiles)
        if not mc_tiles:
            raise ValueError("at least one memory-controller tile is required")
        for t in mc_tiles:
            if not (0 <= t < mesh.n_tiles):
                raise IndexError(f"memory-controller tile {t} outside mesh")
        if len(set(mc_tiles)) != len(mc_tiles):
            raise ValueError(f"duplicate memory-controller tiles: {mc_tiles}")
        self.mc_tiles = mc_tiles

    @property
    def n_tiles(self) -> int:
        return self.mesh.n_tiles

    @cached_property
    def cache_hops(self) -> np.ndarray:
        """``HC(k)``: mean hop count of a cache access from each tile (eq. 3).

        The average runs over *all* N destinations including the tile itself
        (hash hit in the local bank contributes 0 hops), exactly as in the
        paper — HC of a corner tile on an 8x8 mesh is 7 and of a central
        tile is 4.
        """
        hc = self.mesh.hop_matrix.mean(axis=1)
        hc.setflags(write=False)
        return hc

    @cached_property
    def mem_hops(self) -> np.ndarray:
        """``HM(k)``: hop count to the *nearest* memory controller (eq. 4).

        For the canonical corner placement on a square mesh this reduces to
        the paper's closed form ``min(i-1, n-i) + min(j-1, n-j)``; computing
        it as a minimum over controller tiles generalises to arbitrary
        placements.
        """
        hm = self.mesh.hop_matrix[:, list(self.mc_tiles)].min(axis=1).astype(float)
        hm.setflags(write=False)
        return hm

    @cached_property
    def tc(self) -> np.ndarray:
        """``TC(k)``: average cache-access latency from each tile, in cycles.

        ``TC(k) = HC(k) * per_hop + td_s * (N-1)/N`` — the serialization term
        is pro-rated because exactly one of the N equally likely destinations
        (the tile itself) requires no network traversal.
        """
        n = self.n_tiles
        tc = self.cache_hops * self.params.per_hop + self.params.td_s * (n - 1) / n
        tc.setflags(write=False)
        return tc

    @cached_property
    def tm(self) -> np.ndarray:
        """``TM(k)``: average memory-controller access latency from each tile.

        Serialization applies whenever the request actually enters the
        network, i.e. for every tile that is not itself a controller tile.
        """
        tm = self.mem_hops * self.params.per_hop + self.params.td_s * (self.mem_hops > 0)
        tm.setflags(write=False)
        return tm

    def tc_grid(self) -> np.ndarray:
        """``TC`` reshaped to the mesh grid (Figure 3a)."""
        return self.mesh.as_grid(self.tc)

    def tm_grid(self) -> np.ndarray:
        """``TM`` reshaped to the mesh grid (Figure 3b)."""
        return self.mesh.as_grid(self.tm)

    @cached_property
    def nearest_mc_table(self) -> tuple[int, ...]:
        """:meth:`nearest_mc` of every tile, in tile order."""
        mcs = np.array(self.mc_tiles)
        return tuple(mcs[np.argmin(self.mesh.hop_matrix[:, mcs], axis=1)].tolist())

    def nearest_mc(self, k: int) -> int:
        """The memory-controller tile serving tile ``k`` (proximity rule).

        Ties are broken toward the controller listed first, which for the
        default corner ordering favours the top-left quadrant boundary —
        consistent with a static quadrant partition of the chip.
        """
        return self.nearest_mc_table[k]

    def with_params(self, params: LatencyParams) -> "MeshLatencyModel":
        """A copy of this model with different timing parameters."""
        return MeshLatencyModel(self.mesh, params, self.mc_tiles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MeshLatencyModel({self.mesh.rows}x{self.mesh.cols}, "
            f"mc_tiles={self.mc_tiles}, params={self.params})"
        )
