"""Unit tests of the bounded LRU cache and the latency-model memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.cache import LRUCache, ModelMemo


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_put_get_and_miss_accounting(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_ratio == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh 'a' so 'b' is the cold entry
        cache.put("c", 3)
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.get("b") is None
        assert (cache.get("a"), cache.get("c")) == (1, 3)

    def test_put_existing_key_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_registry_mirrors_counters(self):
        registry = MetricsRegistry()
        cache = LRUCache(1, registry=registry)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)  # evicts 'a'
        snap = {m.name: m for m in registry}
        assert snap["serve_cache_hits_total"].value == 1
        assert snap["serve_cache_misses_total"].value == 1
        assert snap["serve_cache_evictions_total"].value == 1
        assert snap["serve_cache_entries"].value == 1


class TestModelMemo:
    PARAMS = (2.0, 2.0, 4.0, 6.0)

    def test_same_key_returns_the_same_model_object(self):
        memo = ModelMemo(4)
        a = memo.get(4, 4, self.PARAMS)
        b = memo.get(4, 4, self.PARAMS)
        assert a is b
        assert (memo.hits, memo.misses) == (1, 1)

    def test_arrays_are_materialized_inside_the_memo(self):
        memo = ModelMemo(4)
        model = memo.get(4, 4, self.PARAMS)
        # cached_property landed: reading again must not recompute
        assert "tc" in vars(model) and "tm" in vars(model)
        assert model.tc.shape == (16,)
        assert np.all(np.isfinite(model.tc))

    def test_distinct_params_are_distinct_entries(self):
        memo = ModelMemo(4)
        a = memo.get(4, 4, self.PARAMS)
        b = memo.get(4, 4, (2.0, 2.0, 4.0, 7.0))
        c = memo.get(4, 8, self.PARAMS)
        assert a is not b and a is not c
        assert memo.misses == 3

    def test_memo_is_bounded(self):
        memo = ModelMemo(2)
        first = memo.get(2, 2, self.PARAMS)
        memo.get(2, 3, self.PARAMS)
        memo.get(2, 4, self.PARAMS)  # evicts the (2, 2) entry
        again = memo.get(2, 2, self.PARAMS)
        assert again is not first
