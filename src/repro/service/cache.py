"""Bounded LRU result cache and the per-mesh/parameter TC/TM model memo.

Both stores are confined to the service event loop (one writer), so no
locking is needed; a :class:`threading.Lock` still guards the mutation
paths because the benchmark and a few tests drive them from plain
threads.  Counters are plain integers mirrored into an optional
:class:`~repro.obs.metrics.MetricsRegistry` so `/metrics` exports hit
ratios without a second bookkeeping path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel

__all__ = ["LRUCache", "ModelMemo"]


class LRUCache:
    """A bounded least-recently-used map with hit/miss/eviction accounting.

    Values are expected to be immutable (the service stores canonical
    JSON-round-tripped dicts); ``get`` refreshes recency, ``put`` evicts
    the coldest entry once ``capacity`` is exceeded.
    """

    def __init__(self, capacity: int, *, registry=None, name: str = "serve_cache") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._store: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._registry = registry
        self._name = name
        if registry is not None:
            self._m_hits = registry.counter(f"{name}_hits_total", "cache hits")
            self._m_misses = registry.counter(f"{name}_misses_total", "cache misses")
            self._m_evict = registry.counter(f"{name}_evictions_total", "cache evictions")
            self._m_entries = registry.gauge(f"{name}_entries", "live cache entries")

    def get(self, key, default=None):
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                if self._registry is not None:
                    self._m_hits.inc()
                return self._store[key]
            self.misses += 1
            if self._registry is not None:
                self._m_misses.inc()
            return default

    def put(self, key, value) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.evictions += 1
                if self._registry is not None:
                    self._m_evict.inc()
            if self._registry is not None:
                self._m_entries.set(len(self._store))

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ModelMemo:
    """Memo of :class:`MeshLatencyModel` per ``(mesh, latency params)``.

    The TC/TM arrays are ``cached_property`` values on the model, so
    memoizing the model memoizes the arrays: every request against the
    same chip shares one computation of the closed-form latency tables
    (the hot constant of every solve).  Bounded like the result cache —
    a hostile stream of one-off meshes cannot grow it without limit.
    """

    def __init__(self, capacity: int = 64, *, registry=None) -> None:
        self._cache = LRUCache(capacity, registry=registry, name="serve_model_memo")

    def get(self, rows: int, cols: int, params: tuple[float, float, float, float]) -> MeshLatencyModel:
        key = (int(rows), int(cols), tuple(params))
        model = self._cache.get(key)
        if model is None:
            model = MeshLatencyModel(
                Mesh(key[0], key[1]),
                LatencyParams(*key[2]),
            )
            model.tc  # materialize the arrays inside the memo entry
            model.tm
            self._cache.put(key, model)
        return model

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses
