"""Endpoint, caching, and fallback-surfacing tests for the service.

Covers the HTTP layer (via the live-daemon fixture) and the
``MappingService`` core (driven directly under ``asyncio.run`` where the
test needs deterministic concurrency).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.app import MappingService


SIM_FAST = {"warmup": 50, "measure": 400}


def relabel(spec):
    """The same problem spelled differently: apps and threads reordered."""
    a0, a1 = spec["apps"]
    flip = lambda app, order: {  # noqa: E731
        "name": app["name"] + "x",
        "cache_rates": [app["cache_rates"][j] for j in order],
        "mem_rates": [app["mem_rates"][j] for j in order],
    }
    return {
        **spec,
        "apps": [flip(a1, [1, 0]), flip(a0, [2, 0, 3, 1])],
    }


class TestHTTPEndpoints:
    def test_map_solves_and_reports_meta(self, client, spec2):
        doc = client.map(spec2)
        result, meta = doc["result"], doc["meta"]
        assert result["algorithm"] == "sss"
        assert result["apps"] == ["heavy", "light"]
        # 6 real threads placed on 6 distinct tiles of the 16-tile mesh
        assert len(set(result["perm"])) == 6
        assert all(0 <= t < 16 for t in result["perm"])
        assert len(result["evaluation"]["apls"]) == 2
        assert result["bounds"]["value"] <= result["evaluation"]["max_apl"]
        assert meta["cache"] == "miss"
        assert len(meta["fingerprint"]) == 16

    def test_health_endpoint(self, client, spec2):
        client.map(spec2)
        status, health = client.get("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["cache"]["entries"] == 1
        assert health["report"]["cells_computed"] == 1

    def test_metrics_endpoint_exports_prometheus(self, client, spec2):
        client.map(spec2)
        client.map(spec2)
        status, text = client.get("/metrics")
        assert status == 200
        lines = text.splitlines()
        assert 'serve_requests_total{endpoint="map",status="200"} 2' in lines
        assert "serve_cache_hits_total 1" in lines
        ratios = [l for l in lines if l.startswith("serve_cache_hit_ratio ")]
        assert ratios and float(ratios[0].split()[-1]) > 0.0
        assert any(l.startswith("serve_request_seconds_bucket") for l in lines)

    def test_unknown_route_is_404(self, client):
        status, payload = client.get("/nope")
        assert status == 404

    def test_invalid_json_is_400(self, client):
        status, payload = client.post("/map", doc=None)
        assert status == 400

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: {**s, "algorithm": "bogus"},
            lambda s: {**s, "workload": "C1"},  # both workload and apps
            lambda s: {**s, "workload": "C99", "apps": None},
            lambda s: {**s, "sim": {"engine": "warp"}},
            lambda s: {**s, "sim": {"bogus": 1}},
            lambda s: {**s, "sim": {"measure": 0}},
            lambda s: {**s, "timeout": -1},
            lambda s: {**s, "apps": []},
            lambda s: {**s, "mesh": 1},  # 6 threads on 1 tile
            lambda s: {**s, "sim": {"engine": "vector-jit"}},  # engine removed
            lambda s: {**s, "sim": {"engine": "vector"}},  # the run picks the engine
        ],
    )
    def test_malformed_requests_are_400(self, client, spec2, mutate):
        status, payload = client.post("/map", mutate(spec2))
        assert status == 400, payload
        assert "error" in payload

    def test_named_workload_expands_like_the_cli(self, client):
        doc = client.map({"workload": "C1", "mesh": 8})
        assert len(doc["result"]["apps"]) == 4
        assert sorted(doc["result"]["perm"]) == list(range(64))

    def test_shutdown_is_acknowledged(self, make_service):
        client = make_service()
        status, payload = client.post("/shutdown")
        assert status == 200
        assert payload == {"status": "draining", "inflight": 0}


class TestCacheSemantics:
    def test_duplicate_request_hits_the_cache(self, client, spec2):
        first = client.map(spec2)
        second = client.map(spec2)
        assert second["meta"]["cache"] == "hit"
        assert second["result"] == first["result"]
        assert client.service.cache.hits == 1

    def test_relabeled_request_shares_the_entry_with_translated_results(
        self, client, spec2
    ):
        base = client.map(spec2)
        other = client.map(relabel(spec2))
        assert other["meta"]["cache"] == "hit"
        assert other["meta"]["fingerprint"] == base["meta"]["fingerprint"]
        # Per-app values follow the requester's app order...
        assert other["result"]["evaluation"]["apls"] == base["result"]["evaluation"]["apls"][::-1]
        # ...and the permutation follows the requester's thread labels:
        # app "light" threads [0, 1] come first, reordered [1, 0]; then
        # "heavy" threads in order [2, 0, 3, 1].
        b, o = base["result"]["perm"], other["result"]["perm"]
        assert o == [b[5], b[4], b[2], b[0], b[3], b[1]]
        # Scalar metrics are label-free and identical.
        assert other["result"]["evaluation"]["max_apl"] == base["result"]["evaluation"]["max_apl"]
        assert other["result"]["bounds"] == base["result"]["bounds"]

    def test_parameter_change_is_a_different_entry(self, client, spec2):
        base = client.map(spec2)
        changed = json.loads(json.dumps(spec2))
        changed["apps"][0]["cache_rates"][0] += 1e-3
        other = client.map(changed)
        assert other["meta"]["cache"] == "miss"
        assert other["meta"]["fingerprint"] != base["meta"]["fingerprint"]

    def test_bounds_flag_never_serves_stale_entries(self, client, spec2):
        """A bounds=False entry must not satisfy a bounds=True request."""
        without = client.map({**spec2, "bounds": False})
        assert without["result"]["bounds"] is None
        with_bounds = client.map({**spec2, "bounds": True})
        assert with_bounds["meta"]["cache"] == "miss"
        assert with_bounds["result"]["bounds"]["value"] > 0

    def test_sim_knob_change_is_a_different_sim_entry(self, client, spec2):
        a = client.map({**spec2, "simulate": True, "sim": SIM_FAST})
        b = client.map({**spec2, "simulate": True, "sim": SIM_FAST})
        c = client.map({**spec2, "simulate": True, "sim": {**SIM_FAST, "seed": 7}})
        assert a["meta"]["sim_cache"] == "miss"
        assert b["meta"]["sim_cache"] == "hit"
        assert b["result"] == a["result"]
        assert c["meta"]["sim_cache"] == "miss"

    def test_concurrent_duplicates_coalesce_into_one_solve(self, spec2):
        service = MappingService(workers=2)

        async def scenario():
            return await asyncio.gather(
                *[service.map_request(dict(spec2)) for _ in range(5)]
            )

        docs = asyncio.run(scenario())
        kinds = sorted(d["meta"]["cache"] for d in docs)
        assert kinds == ["coalesced"] * 4 + ["miss"]
        assert len({json.dumps(d["result"], sort_keys=True) for d in docs}) == 1
        # One solve total, and the hit-ratio gauge counts the coalesced hits.
        assert service.report.cells_computed == 1
        ratio = service.registry.gauge("serve_cache_hit_ratio").value
        assert ratio == pytest.approx(4 / 5)

    def test_request_timeout_is_504(self, client, spec2):
        status, payload = client.post(
            "/map", {**spec2, "mesh": 10, "timeout": 1e-6}
        )
        assert status == 504
        assert "timed out" in payload["error"]


class TestFallbackSurfacing:
    """A run that needs the fast path says so in ``measured.engine``."""

    def test_service_surfaces_invariant_fallback(self, client, spec2):
        doc = client.map(
            {**spec2, "simulate": True, "sim": {**SIM_FAST, "invariants": True}}
        )
        measured = doc["result"]["measured"]
        assert measured["engine"] == "fastpath"
        assert measured["invariant_checks"] > 0

    def test_no_fallback_on_the_batched_path(self, client, spec2):
        doc = client.map({**spec2, "simulate": True, "sim": SIM_FAST})
        assert doc["result"]["measured"]["engine"] == "vector"
