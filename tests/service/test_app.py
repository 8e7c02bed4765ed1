"""Endpoint, caching, and fallback-surfacing tests for the service.

Covers the HTTP layer (via the live-daemon fixture) and the
``MappingService`` core (driven directly under ``asyncio.run`` where the
test needs deterministic concurrency).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.bounds import max_apl_lower_bound
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.registry import ALGORITHMS
from repro.core.workload import Application, Workload
from repro.experiments.resilience import json_safe
from repro.noc import cc_kernel
from repro.service import app
from repro.service.admission import AdmissionController
from repro.service.app import MappingService
from repro.workloads.parsec import CONFIG_NAMES, parsec_config


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


def direct_result(spec, algorithm="sss") -> dict:
    """The ``result`` a direct solve plus bound of ``spec`` gives, no service."""
    model = MeshLatencyModel(Mesh.square(spec["mesh"]), LatencyParams())
    apps = tuple(
        Application(a["name"], a["cache_rates"], a["mem_rates"]) for a in spec["apps"]
    )
    instance = OBMInstance(model, Workload(apps))
    solved = ALGORITHMS[algorithm](instance)
    lb = max_apl_lower_bound(instance)
    evaluation = solved.evaluation
    return json.loads(json.dumps(json_safe({
        "algorithm": algorithm,
        "apps": [a.name for a in apps],
        "perm": solved.mapping.perm[: sum(a.n_threads for a in apps)],
        "evaluation": {
            "apls": evaluation.apls[: len(apps)],
            "max_apl": evaluation.max_apl,
            "dev_apl": evaluation.dev_apl,
            "g_apl": evaluation.g_apl,
            "min_max_ratio": evaluation.min_max_ratio,
        },
        "bounds": {**lb.as_dict(), "gap": lb.gap(evaluation.max_apl)},
    })))


def count_solves_and_bounds(monkeypatch) -> dict:
    """Count the service's solver and certified-bound calls."""
    calls = {"solve": 0, "bound": 0}

    def counted(fn, what):
        def wrapper(*args, **kwargs):
            calls[what] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        app, "ALGORITHMS", {name: counted(fn, "solve") for name, fn in ALGORITHMS.items()}
    )
    monkeypatch.setattr(app, "max_apl_lower_bound", counted(max_apl_lower_bound, "bound"))
    return calls


def paper_spellings(config: str) -> dict:
    """Three spellings of one paper configuration on the 8x8 chip.

    ``exact`` is what ``"workload": config`` expands to; ``relabeled``
    reverses the apps, rotates each app's threads and renames the apps;
    ``noisy`` scales every rate by ``1 + 3e-13``, far below any rounding
    a cache could be tempted to apply.
    """
    workload = parsec_config(config, threads_per_app=16)
    exact = [
        {"name": a.name, "cache_rates": a.cache_rates.tolist(), "mem_rates": a.mem_rates.tolist()}
        for a in workload.applications
    ]
    relabeled = [
        {
            "name": f"x{i}",
            "cache_rates": a["cache_rates"][1:] + a["cache_rates"][:1],
            "mem_rates": a["mem_rates"][1:] + a["mem_rates"][:1],
        }
        for i, a in enumerate(reversed(exact))
    ]
    noisy = [
        {
            **a,
            "cache_rates": [r * (1 + 3e-13) for r in a["cache_rates"]],
            "mem_rates": [r * (1 + 3e-13) for r in a["mem_rates"]],
        }
        for a in exact
    ]
    return {
        name: {"mesh": 8, "apps": apps}
        for name, apps in (("exact", exact), ("relabeled", relabeled), ("noisy", noisy))
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
        # one solve entry and one bound entry, computed by one worker task
        assert health["cache"]["entries"] == 2
        assert health["report"]["cells_computed"] == 1

    def test_metrics_endpoint_exports_prometheus(self, client, spec2):
        client.map(spec2)
        client.map(spec2)
        status, text = client.get("/metrics")
        assert status == 200
        lines = text.splitlines()
        assert 'serve_requests_total{endpoint="map",status="200"} 2' in lines
        # the repeat hits the solve entry and the bound entry
        assert "serve_cache_hits_total 2" in lines
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
            lambda s: {**s, "bounds": "false"},  # flags are JSON booleans
            lambda s: {**s, "simulate": "no"},
            lambda s: {**s, "simulate": True, "sim": {"invariants": "false"}},
            lambda s: {**s, "sim": {"warmup": 10.9}},  # sim knobs are JSON integers
            lambda s: {**s, "sim": {"seed": -1}},
            # mesh sides are JSON integers, params/timeout/rates JSON numbers
            lambda s: {**s, "mesh": 4.7},
            lambda s: {**s, "mesh": "4"},
            lambda s: {**s, "mesh": {"rows": "3", "cols": 2.9}},
            lambda s: {
                **s,
                "mesh": True,
                "apps": [{"cache_rates": [1.0], "mem_rates": [0.5]}],
            },
            lambda s: {**s, "params": {"td_r": "2"}},
            lambda s: {**s, "timeout": True},
            lambda s: {**s, "timeout": "5"},
            lambda s: {
                **s,
                "apps": [{"cache_rates": ["1.0", True], "mem_rates": [0.1, 0.2]}],
            },
            lambda s: {**s, "timeout": 10**400},  # beyond the float range
            # the work one body may ask for is bounded
            lambda s: {**s, "mesh": 17},  # 289 tiles > MAX_TILES
            lambda s: {**s, "mesh": {"rows": 1, "cols": 257}},
            lambda s: {**s, "workload": "C1", "apps": None, "mesh": 3000},
            lambda s: {**s, "sim": {"measure": 100_001}},  # > MAX_SIM_CYCLES
            lambda s: {**s, "sim": {"warmup": 50_000, "measure": 50_001}},
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
        assert client.service.cache.hits == 2  # the solve and the bound

    def test_relabeled_request_misses_and_equals_its_direct_solve(self, client, spec2):
        base = client.map(spec2)
        other = client.map(relabel(spec2))
        assert other["meta"]["cache"] == "miss"
        assert other["meta"]["fingerprint"] != base["meta"]["fingerprint"]
        assert other["result"] == direct_result(relabel(spec2))
        # Names are not part of the problem: a renamed spelling shares the entry.
        renamed = json.loads(json.dumps(spec2))
        renamed["apps"][0]["name"] = "other"
        again = client.map(renamed)
        assert again["meta"] == {**base["meta"], "cache": "hit"}
        assert again["result"] == {**base["result"], "apps": ["other", "light"]}

    def test_parameter_change_is_a_different_entry(self, client, spec2):
        base = client.map(spec2)
        changed = json.loads(json.dumps(spec2))
        changed["apps"][0]["cache_rates"][0] += 1e-3
        other = client.map(changed)
        assert other["meta"]["cache"] == "miss"
        assert other["meta"]["fingerprint"] != base["meta"]["fingerprint"]

    def test_bounds_flag_never_serves_stale_entries(self, client, spec2):
        """A bounds=True request reuses a bounds=False solve and still gets
        its own certified bound, with the gap of that solve."""
        without = client.map({**spec2, "bounds": False})
        assert without["result"]["bounds"] is None
        with_bounds = client.map({**spec2, "bounds": True})
        assert with_bounds["meta"]["cache"] == "hit"
        assert with_bounds["result"] == direct_result(spec2)

    def test_each_fact_is_computed_once(self, spec2, monkeypatch):
        """bounds true, bounds false, bounds_only under pressure, then full
        again: the four answers share one solve and one bound."""
        calls = count_solves_and_bounds(monkeypatch)
        service = MappingService(workers=2)

        async def scenario():
            full = await service.map_request({**spec2, "bounds": True})
            declined = await service.map_request({**spec2, "bounds": False})
            with monkeypatch.context() as m:
                m.setattr(AdmissionController, "pressure", property(lambda self: 0.9))
                degraded = await service.map_request(dict(spec2))
            again = await service.map_request(dict(spec2))
            return full, declined, degraded, again

        full, declined, degraded, again = asyncio.run(scenario())
        assert calls == {"solve": 1, "bound": 1}
        docs = (full, declined, degraded, again)
        assert [d["meta"]["cache"] for d in docs] == ["miss", "hit", "hit", "hit"]
        assert degraded["meta"]["degraded"] == "bounds_only"
        assert full["result"] == again["result"] == direct_result(spec2)
        assert declined["result"] == {**full["result"], "bounds": None}
        bound = {k: v for k, v in full["result"]["bounds"].items() if k != "gap"}
        assert degraded["result"]["bounds"] == bound

    def test_degraded_bound_is_reused_by_the_full_answer(self, spec2, monkeypatch):
        calls = count_solves_and_bounds(monkeypatch)
        service = MappingService(workers=2)

        async def scenario():
            with monkeypatch.context() as m:
                m.setattr(AdmissionController, "pressure", property(lambda self: 0.9))
                degraded = await service.map_request(dict(spec2))
            return degraded, await service.map_request(dict(spec2))

        degraded, full = asyncio.run(scenario())
        assert calls == {"solve": 1, "bound": 1}
        assert (degraded["meta"]["cache"], full["meta"]["cache"]) == ("miss", "miss")
        assert full["result"] == direct_result(spec2)

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
        # One worker task (the solve and the bound) total, and the
        # hit-ratio gauge counts the coalesced hits.
        assert service.report.cells_computed == 1
        ratio = service.registry.gauge("serve_cache_hit_ratio").value
        assert ratio == pytest.approx(4 / 5)

    def test_request_timeout_is_504(self, client, spec2):
        status, payload = client.post(
            "/map", {**spec2, "mesh": 10, "timeout": 1e-6}
        )
        assert status == 504
        assert "timed out" in payload["error"]


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_every_spelling_is_answered_by_its_own_direct_solve(config):
    """Served == direct for every spelling of C1-C8, whatever the cache holds.

    The exact spelling fills the cache first, so a cache that keyed a
    relabeled or noisy spelling onto it would answer with its numbers.
    Each spelling is then sent twice at once (a miss and a coalesced
    duplicate) and once more (a hit): all three are the same bytes.
    """
    service = MappingService(workers=2)
    spellings = paper_spellings(config)

    async def scenario():
        served = {}
        for name, spec in spellings.items():
            pair = await asyncio.gather(*[service.map_request(spec) for _ in range(2)])
            served[name] = [*pair, await service.map_request(spec)]
        return served

    served = asyncio.run(scenario())
    fingerprints = set()
    for name, spec in spellings.items():
        docs = served[name]
        expected = json.dumps(direct_result(spec), sort_keys=True)
        for doc in docs:
            assert json.dumps(doc["result"], sort_keys=True) == expected, name
        assert [d["meta"]["cache"] for d in docs] == ["miss", "coalesced", "hit"], name
        fingerprints.add(docs[0]["meta"]["fingerprint"])
    assert len(fingerprints) == len(spellings)


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
        # Without the compiled cycle kernel every run takes the fast path.
        engine = "vector" if cc_kernel.library() is not None else "fastpath"
        assert doc["result"]["measured"]["engine"] == engine
