"""The degradation ladder: level selection, stale index, served answers."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.cache import LRUCache
from repro.service.canonical import canonicalize
from repro.service.degrade import (
    LEVEL_BOUNDS,
    LEVEL_FULL,
    LEVEL_STALE,
    DegradeController,
    shape_key,
)


class TestLevelSelection:
    def test_off_never_degrades(self):
        c = DegradeController("off")
        assert c.level_for(pressure=1.0, remaining=0.0, estimate=10.0) == LEVEL_FULL

    def test_opt_out_never_degrades(self):
        c = DegradeController("auto")
        assert c.level_for(pressure=1.0, allow=False) == LEVEL_FULL

    def test_forced_mode_wins(self):
        c = DegradeController(LEVEL_BOUNDS)
        assert c.level_for(pressure=0.0) == LEVEL_BOUNDS

    def test_auto_follows_pressure(self):
        c = DegradeController("auto", bounds_pressure=0.5, stale_pressure=0.85)
        assert c.level_for(pressure=0.1) == LEVEL_FULL
        assert c.level_for(pressure=0.5) == LEVEL_BOUNDS
        assert c.level_for(pressure=0.9) == LEVEL_STALE

    def test_infeasible_deadline_degrades(self):
        c = DegradeController("auto", deadline_margin=1.5)
        assert c.level_for(pressure=0.0, remaining=1.0, estimate=2.0) == LEVEL_BOUNDS
        assert c.level_for(pressure=0.0, remaining=10.0, estimate=2.0) == LEVEL_FULL
        # No estimate yet (cold service): assume feasible.
        assert c.level_for(pressure=0.0, remaining=0.01, estimate=None) == LEVEL_FULL

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            DegradeController("yolo")

    def test_record_counts_by_level(self):
        registry = MetricsRegistry()
        c = DegradeController("auto", registry=registry)
        c.record(LEVEL_FULL)
        c.record(LEVEL_BOUNDS)
        c.record(LEVEL_BOUNDS)
        c.record(LEVEL_STALE)
        assert registry.counter("serve_degraded_total", level=LEVEL_BOUNDS).value == 2
        assert registry.counter("serve_degraded_total", level=LEVEL_STALE).value == 1
        # full is not a degradation and must not be counted
        assert registry.counter("serve_degraded_total", level=LEVEL_FULL).value == 0


class TestNearestIndex:
    """The stale-serving index: shape keys into a plain LRU of donors."""

    def _canon(self, spec):
        return canonicalize(spec)

    def test_same_shape_different_rates_share_key(self, spec2):
        a = self._canon(spec2).problem
        b_spec = dict(spec2)
        b_spec["apps"] = [
            dict(app, cache_rates=[r * 1.5 for r in app["cache_rates"]])
            for app in spec2["apps"]
        ]
        b = self._canon(b_spec).problem
        assert a.fingerprint != b.fingerprint
        assert shape_key(a, "sss", True) == shape_key(b, "sss", True)

    def test_algorithm_and_bounds_split_shapes(self, spec2):
        p = self._canon(spec2).problem
        assert shape_key(p, "sss", True) != shape_key(p, "global", True)
        assert shape_key(p, "sss", True) != shape_key(p, "sss", False)

    def test_lru_bound(self):
        idx = LRUCache(2)
        idx.put(("a",), ("k1", "f1"))
        idx.put(("b",), ("k2", "f2"))
        idx.put(("c",), ("k3", "f3"))
        assert idx.get(("a",)) is None
        assert idx.get(("c",)) == ("k3", "f3")
        assert len(idx) == 2

    def test_freshest_donor_wins(self):
        idx = LRUCache(256)
        idx.put(("s",), ("old", "f-old"))
        idx.put(("s",), ("new", "f-new"))
        assert idx.get(("s",)) == ("new", "f-new")


class TestDegradedServing:
    """End-to-end degraded answers through the live daemon."""

    def test_bounds_only_matches_cli_bound_json(self, make_service, capsys):
        from repro.cli import main as cli_main

        client = make_service(degrade="bounds_only")
        doc = client.map({"workload": "C1", "mesh": 8})
        assert doc["result"]["perm"] is None
        assert doc["result"]["evaluation"] is None
        assert doc["result"]["degraded"] == "bounds_only"
        assert doc["meta"]["degraded"] == "bounds_only"

        assert cli_main(["bound", "--workload", "C1", "--mesh", "8", "--json"]) == 0
        cli_line = capsys.readouterr().out.strip()
        served = json.dumps(
            doc["result"]["bounds"], sort_keys=True, separators=(",", ":")
        )
        # Degraded answers stay certified: same bytes as the direct CLI.
        assert served == cli_line

    def test_degraded_total_counts(self, make_service, spec2):
        client = make_service(degrade="bounds_only")
        client.map(spec2)
        counter = client.service.registry.counter(
            "serve_degraded_total", level="bounds_only"
        )
        assert counter.value == 1

    def test_opt_out_is_served_fully_even_when_forced(self, make_service, spec2):
        client = make_service(degrade="bounds_only")
        doc = client.map({**spec2, "degrade": False})
        assert doc["result"]["perm"] is not None
        assert "degraded" not in doc["result"]
        assert "degraded" not in doc["meta"]

    def test_stale_serves_same_shape_donor(self, make_service, spec2):
        client = make_service(degrade="cached_nearest")
        # Prime a donor via opt-out (full solve fills cache + shape index).
        donor = client.map({**spec2, "degrade": False})
        donor_fp = donor["meta"]["fingerprint"]

        # Same shape, different rates: a distinct problem.
        warm_spec = dict(spec2)
        warm_spec["apps"] = [
            dict(app, cache_rates=[r * 1.25 for r in app["cache_rates"]])
            for app in spec2["apps"]
        ]
        doc = client.map(warm_spec)
        assert doc["meta"]["degraded"] == "cached_nearest"
        assert doc["meta"]["cache"] == "stale"
        assert doc["meta"]["stale_fingerprint"] == donor_fp
        assert doc["meta"]["fingerprint"] != donor_fp
        assert doc["result"]["degraded"] == "cached_nearest"
        # The donor's mapping, translated into this request's labels.
        assert sorted(doc["result"]["perm"]) == sorted(donor["result"]["perm"])

    def test_stale_without_donor_falls_back_to_bounds(self, make_service, spec2):
        client = make_service(degrade="cached_nearest")
        doc = client.map(spec2)
        assert doc["meta"]["degraded"] == "bounds_only"
        assert doc["result"]["bounds"] is not None

    def test_stale_schedules_revalidation(self, make_service, spec2):
        import time

        client = make_service(degrade="cached_nearest")
        client.map({**spec2, "degrade": False})
        warm_spec = dict(spec2)
        warm_spec["apps"] = [
            dict(app, mem_rates=[r * 2.0 for r in app["mem_rates"]])
            for app in spec2["apps"]
        ]
        misses = client.service.registry.counter("serve_cache_misses_total")
        misses_before = misses.value
        doc = client.map(warm_spec)
        assert doc["meta"]["degraded"] == "cached_nearest"
        reval = client.service.registry.counter("serve_revalidate_total")
        assert reval.value == 1
        # The background fill lands the real entry: the next identical
        # request is a genuine cache hit at full fidelity.
        deadline = time.time() + 10
        while time.time() < deadline:
            fresh = client.map({**warm_spec, "degrade": False})
            if fresh["meta"]["cache"] in ("hit", "coalesced"):
                break
            time.sleep(0.05)
        else:
            pytest.fail("revalidated entry never became a cache hit")
        # One stale answer plus its refill is one lookup that missed: the
        # refill's own.  Checking whether a refill is needed is not a lookup.
        assert misses.value - misses_before == 1

    def test_unloaded_auto_stays_full_fidelity(self, make_service, spec2):
        client = make_service(degrade="auto")
        doc = client.map(spec2)
        assert "degraded" not in doc["result"]
        assert "degraded" not in doc["meta"]
        assert doc["result"]["perm"] is not None
