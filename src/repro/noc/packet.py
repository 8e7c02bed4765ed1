"""Packets and flits of the wormhole network.

The paper's NoC (Table 2) carries two packet formats over 128-bit links:
16-bit control packets that fit in a single flit (cache/memory *requests*)
and 5-flit packets carrying a 64-byte cache line plus a head flit
(*replies*).  Packets are segmented into flits at the network interface;
wormhole switching forwards flits pipeline-style as soon as the head has
acquired a route and a virtual channel.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrafficClass",
    "Packet",
    "PacketTable",
    "Flit",
    "FLIT_KIND_HEAD",
    "FLIT_KIND_BODY",
    "FLIT_KIND_TAIL",
]


class TrafficClass(enum.IntEnum):
    """Protocol class of a packet; each class gets its own VC partition."""

    CACHE_REQUEST = 0  #: core -> L2 bank, single flit
    CACHE_REPLY = 1  #: L2 bank -> core, 5 flits (64 B data + head)
    MEM_REQUEST = 2  #: core -> memory controller, single flit
    MEM_REPLY = 3  #: memory controller -> core, 5 flits

    @property
    def is_reply(self) -> bool:
        return self in (TrafficClass.CACHE_REPLY, TrafficClass.MEM_REPLY)

    @property
    def is_memory(self) -> bool:
        return self in (TrafficClass.MEM_REQUEST, TrafficClass.MEM_REPLY)

    @property
    def default_length(self) -> int:
        """Flit count per Table 2: short packets 1 flit, data packets 5."""
        return 5 if self.is_reply else 1


FLIT_KIND_HEAD = "head"
FLIT_KIND_BODY = "body"
FLIT_KIND_TAIL = "tail"

_packet_ids = itertools.count()


@dataclass
class Packet:
    """One network packet.

    ``app`` carries the id of the application whose thread generated the
    packet (or ``-1`` for background traffic) so latency statistics can be
    grouped per application exactly as the paper's APL metric requires.
    """

    src: int
    dst: int
    traffic_class: TrafficClass
    created_at: int
    length: int | None = None
    app: int = -1
    thread: int = -1
    pid: int = field(default_factory=lambda: next(_packet_ids))
    injected_at: int | None = None  #: cycle the head flit entered the network
    ejected_at: int | None = None  #: cycle the tail flit left the network
    retries: int = 0  #: times the packet was NACKed and re-injected (faults)

    def __post_init__(self) -> None:
        if self.length is None:
            self.length = self.traffic_class.default_length
        if self.length < 1:
            raise ValueError(f"packet length must be >= 1 flit, got {self.length}")
        if self.src < 0 or self.dst < 0:
            raise ValueError("src/dst must be tile indices")

    @property
    def latency(self) -> int:
        """End-to-end latency (creation to tail ejection), in cycles.

        Includes source-queue waiting time, matching the packet service
        latency of eq. 2 (queuing is ``td_q``).
        """
        if self.ejected_at is None:
            raise ValueError(f"packet {self.pid} has not been delivered yet")
        return self.ejected_at - self.created_at

    @property
    def network_latency(self) -> int:
        """Injection-to-ejection latency, excluding source queuing."""
        if self.ejected_at is None or self.injected_at is None:
            raise ValueError(f"packet {self.pid} has not been delivered yet")
        return self.ejected_at - self.injected_at

    def flits(self) -> list["Flit"]:
        """Segment the packet into its wormhole flit sequence."""
        out = []
        for i in range(self.length):
            if i == 0:
                kind = FLIT_KIND_HEAD
            elif i == self.length - 1:
                kind = FLIT_KIND_TAIL
            else:
                kind = FLIT_KIND_BODY
            out.append(Flit(packet=self, index=i, kind=kind))
        if self.length == 1:
            # A single-flit packet's flit is simultaneously head and tail.
            out[0].kind = FLIT_KIND_TAIL
            out[0].is_head = True
        return out


class PacketTable:
    """Structure-of-arrays packet records for the vector engine.

    One row per packet, identified by its row index (the *pid*).  The
    columns are plain Python lists — at the few-packets-per-cycle
    granularity generators append at, list appends beat NumPy scalar
    writes several-fold.  The four columns the cycle kernel indexes
    (``dst``/``length``/``tclass``/``created``) additionally carry NumPy
    mirrors, grown geometrically and synced by :meth:`flush` (once per
    window), so no per-packet NumPy write ever happens.

    The table holds no :class:`Packet` objects: traffic generators
    append rows (:meth:`~repro.noc.traffic.TrafficGenerator.emit`), and
    only the fast path builds objects from them.  The table has no
    ejection column: the vector engine's kernel keeps the ejection
    stamps in an array of its own.
    """

    __slots__ = (
        "src", "dst", "tclass", "length", "created", "app",
        "dst_a", "len_a", "cls_a", "created_a", "_cap", "_synced",
    )

    #: columns mirrored into NumPy arrays by :meth:`flush`
    _MIRRORED = (("dst", "dst_a"), ("length", "len_a"),
                 ("tclass", "cls_a"), ("created", "created_a"))

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.src: list[int] = []
        self.dst: list[int] = []
        self.tclass: list[int] = []
        self.length: list[int] = []
        self.created: list[int] = []
        self.app: list[int] = []
        self._cap = capacity
        self._synced = 0
        for _, mirror in self._MIRRORED:
            setattr(self, mirror, np.zeros(capacity, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.src)

    def append(
        self, src: int, dst: int, tclass: int, length: int, created: int, app: int
    ) -> int:
        """Add one packet record; returns its pid (row index)."""
        pid = len(self.src)
        self.src.append(src)
        self.dst.append(dst)
        self.tclass.append(tclass)
        self.length.append(length)
        self.created.append(created)
        self.app.append(app)
        return pid

    def clear(self) -> None:
        """Drop every row; the mirrors keep their capacity."""
        for name in ("src", "dst", "tclass", "length", "created", "app"):
            getattr(self, name).clear()
        self._synced = 0

    def flush(self) -> None:
        """Sync the NumPy mirrors with rows appended since the last flush.

        Amortized O(new rows): mirrors double in capacity when outgrown
        (geometric growth), and only the unsynced tail is copied.
        """
        n = len(self.src)
        s = self._synced
        if n == s:
            return
        if n > self._cap:
            cap = self._cap
            while cap < n:
                cap *= 2
            self._cap = cap
            for _, mirror in self._MIRRORED:
                old = getattr(self, mirror)
                new = np.zeros(cap, dtype=np.int64)
                new[:s] = old[:s]
                setattr(self, mirror, new)
        self.dst_a[s:n] = self.dst[s:n]
        self.len_a[s:n] = self.length[s:n]
        self.cls_a[s:n] = self.tclass[s:n]
        self.created_a[s:n] = self.created[s:n]
        self._synced = n

    def column(self, name: str) -> np.ndarray:
        """One full column as an int64 array (for result materialization)."""
        return np.array(getattr(self, name), dtype=np.int64)


@dataclass
class Flit:
    """One flow-control unit travelling through the network."""

    packet: Packet
    index: int
    kind: str
    is_head: bool = False
    #: earliest cycle this flit may leave the router currently buffering it
    #: (set on arrival to model the router pipeline depth).
    ready_at: int = 0

    def __post_init__(self) -> None:
        if self.kind == FLIT_KIND_HEAD:
            self.is_head = True

    @property
    def is_tail(self) -> bool:
        return self.kind == FLIT_KIND_TAIL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(pkt={self.packet.pid}, {self.kind}, idx={self.index}, "
            f"{self.packet.src}->{self.packet.dst})"
        )
