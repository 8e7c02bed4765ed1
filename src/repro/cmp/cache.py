"""Set-associative cache models with LRU replacement (Table 2 parameters).

Used by the trace-driven memory hierarchy to derive per-thread cache and
memory request rates from synthetic address streams — the reproduction's
substitute for the paper's Simics/GEMS full-system runs.  Lookup state is
kept per set as an ordered dict from tag to line metadata, giving exact
LRU in O(1) amortised per access.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheConfig", "CacheLine", "SetAssociativeCache", "CacheStats"]


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache (sizes in bytes)."""

    size: int
    ways: int
    block_bytes: int = 64
    latency: int = 1  #: access latency in cycles (Table 2: L1 1, L2 bank 6)

    def __post_init__(self) -> None:
        if self.size <= 0 or self.ways <= 0:
            raise ValueError("cache size and associativity must be positive")
        if not _is_pow2(self.block_bytes):
            raise ValueError("block size must be a power of two")
        if self.size % (self.ways * self.block_bytes) != 0:
            raise ValueError(
                f"cache of {self.size} B cannot be divided into {self.ways}-way "
                f"sets of {self.block_bytes}-B blocks"
            )
        if not _is_pow2(self.n_sets):
            raise ValueError(f"set count {self.n_sets} must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size // (self.ways * self.block_bytes)

    @property
    def n_blocks(self) -> int:
        return self.size // self.block_bytes

    @classmethod
    def l1_canonical(cls) -> "CacheConfig":
        """Table 2: 32 KB, 2-way, 64-B blocks, 1-cycle."""
        return cls(size=32 * 1024, ways=2, block_bytes=64, latency=1)

    @classmethod
    def l2_bank_canonical(cls) -> "CacheConfig":
        """Table 2: 256 KB per bank, 16-way, 64-B blocks, 6-cycle."""
        return cls(size=256 * 1024, ways=16, block_bytes=64, latency=6)


@dataclass
class CacheLine:
    """Metadata of one resident block."""

    tag: int
    dirty: bool = False
    state: str = "V"  #: coherence state letter when used under a protocol


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class SetAssociativeCache:
    """An LRU set-associative cache over *block* addresses.

    The caller is responsible for converting byte addresses to block
    addresses (via :class:`~repro.cmp.address.AddressMap`); this keeps one
    cache instance reusable as an L1, an L2 bank, or a directory cache.
    """

    def __init__(self, config: CacheConfig, level: str = "cache") -> None:
        self.config = config
        self.level = level
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        self.stats = CacheStats()

    def _locate(self, block_addr: int) -> tuple[OrderedDict[int, CacheLine], int]:
        set_index = block_addr % self.config.n_sets
        tag = block_addr // self.config.n_sets
        return self._sets[set_index], tag

    def lookup(self, block_addr: int, *, write: bool = False, touch: bool = True) -> bool:
        """Probe for a block; returns True on hit and updates LRU order."""
        cache_set, tag = self._locate(block_addr)
        line = cache_set.get(tag)
        if line is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if touch:
            cache_set.move_to_end(tag)
        if write:
            line.dirty = True
        return True

    def fill(self, block_addr: int, *, dirty: bool = False, state: str = "V") -> int | None:
        """Insert a block, evicting LRU if needed.

        Returns the evicted *block address* when a dirty line was displaced
        (a writeback the caller must account for), else None.
        """
        cache_set, tag = self._locate(block_addr)
        if tag in cache_set:
            # Refill of a resident line: refresh metadata only.
            line = cache_set[tag]
            line.dirty = line.dirty or dirty
            line.state = state
            cache_set.move_to_end(tag)
            return None
        victim_addr = None
        if len(cache_set) >= self.config.ways:
            victim_tag, victim = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
                set_index = block_addr % self.config.n_sets
                victim_addr = victim_tag * self.config.n_sets + set_index
        cache_set[tag] = CacheLine(tag=tag, dirty=dirty, state=state)
        return victim_addr

    def invalidate(self, block_addr: int) -> bool:
        """Remove a block if present; returns True if it was resident."""
        cache_set, tag = self._locate(block_addr)
        return cache_set.pop(tag, None) is not None

    def state_of(self, block_addr: int) -> str | None:
        """Coherence state of a resident block, or None."""
        cache_set, tag = self._locate(block_addr)
        line = cache_set.get(tag)
        return line.state if line else None

    def set_state(self, block_addr: int, state: str) -> None:
        cache_set, tag = self._locate(block_addr)
        line = cache_set.get(tag)
        if line is None:
            raise KeyError(f"block {block_addr:#x} not resident in {self.level}")
        line.state = state

    def contains(self, block_addr: int) -> bool:
        cache_set, tag = self._locate(block_addr)
        return tag in cache_set

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return (
            f"SetAssociativeCache({self.level}: {c.size // 1024} KB, "
            f"{c.ways}-way, {c.n_sets} sets, {self.occupancy} blocks resident)"
        )
