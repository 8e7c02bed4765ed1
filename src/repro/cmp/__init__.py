"""CMP memory-system substrate: caches, coherence, controllers, traces.

The trace-driven replacement for the paper's Simics/GEMS full-system
stack.  Address streams flow through private L1s, the address-hashed
shared L2 banks under a MOESI directory protocol, and corner memory
controllers; the observed per-thread request counts become OBM workload
rates.
"""

from repro.cmp.address import AddressMap
from repro.cmp.cache import CacheConfig, CacheLine, CacheStats, SetAssociativeCache
from repro.cmp.chip import CANONICAL_CHIP, ChipConfig, table2_rows
from repro.cmp.coherence import (
    CoherenceMessage,
    CoherenceSystem,
    DirectoryEntry,
    MsgType,
)
from repro.cmp.hierarchy import (
    CMPMemoryHierarchy,
    HierarchyResult,
    workload_from_traces,
)
from repro.cmp.memctrl import MemoryController, MemoryControllerSet
from repro.cmp.trace import (
    PERSONALITIES,
    AccessTrace,
    TracePersonality,
    generate_trace,
)

__all__ = [
    "AddressMap",
    "AccessTrace",
    "CANONICAL_CHIP",
    "CacheConfig",
    "CacheLine",
    "CacheStats",
    "ChipConfig",
    "CMPMemoryHierarchy",
    "CoherenceMessage",
    "CoherenceSystem",
    "DirectoryEntry",
    "HierarchyResult",
    "MemoryController",
    "MemoryControllerSet",
    "MsgType",
    "PERSONALITIES",
    "SetAssociativeCache",
    "TracePersonality",
    "generate_trace",
    "table2_rows",
    "workload_from_traces",
]
