"""Answer checks against direct library calls on the same inputs."""

from __future__ import annotations

import json

from repro.core.bounds import max_apl_lower_bound
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import Mapping, OBMInstance
from repro.core.registry import ALGORITHMS
from repro.core.workload import Application, Workload
from repro.experiments.resilience import json_safe
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic

#: the parts of a /map answer that the solve determines
SOLVE_KEYS = ("algorithm", "apps", "perm", "evaluation", "bounds")


def instance_of(body: dict) -> OBMInstance:
    """The request's instance, in request labels, as the service builds it."""
    mesh = int(body.get("mesh", 8))
    apps = tuple(
        Application(f"app{i}", a["cache_rates"], a["mem_rates"])
        for i, a in enumerate(body["apps"])
    )
    return OBMInstance(
        MeshLatencyModel(Mesh(mesh, mesh), LatencyParams()), Workload(apps, name="request")
    )


def canonical_json(doc) -> str:
    return json.dumps(json_safe(doc), sort_keys=True, separators=(",", ":"))


def served_solve(answer: dict) -> str:
    result = answer["result"]
    return canonical_json({k: result[k] for k in SOLVE_KEYS})


def expected_solve(body: dict) -> str:
    """What a cache-filling answer must be: the registry solver and the
    certified bound called directly."""
    instance = instance_of(body)
    algorithm = body.get("algorithm", "sss")
    res = ALGORITHMS[algorithm](instance)
    ev = res.evaluation
    n_apps = len(body["apps"])
    n_threads = instance.workload.n_threads
    bounds = None
    if body.get("bounds", True):
        lb = max_apl_lower_bound(instance)
        bounds = {
            "value": lb.value,
            "mean_bound": lb.mean_bound,
            "per_app_bound": lb.per_app_bound,
            "gap": lb.gap(ev.max_apl),
        }
    return canonical_json({
        "algorithm": algorithm,
        "apps": [str(a.get("name", f"app{i}")) for i, a in enumerate(body["apps"])],
        "perm": [int(t) for t in res.mapping.perm[:n_threads]],
        "evaluation": {
            "apls": [None if v != v else float(v) for v in ev.apls[:n_apps]],
            "max_apl": ev.max_apl,
            "dev_apl": ev.dev_apl,
            "g_apl": ev.g_apl,
            "min_max_ratio": ev.min_max_ratio,
        },
        "bounds": bounds,
    })


def check_measured(body: dict, answer: dict) -> str | None:
    """Compare a served simulation with ``NoCSimulator(engine="vector")``
    on the same instance, mapping and seed; returns a mismatch or None."""
    sim = body["sim"]
    instance = instance_of(body)
    mapping = Mapping(answer["result"]["perm"])
    traffic = MappedWorkloadTraffic(instance, mapping, seed=sim["seed"])
    result = NoCSimulator(instance.mesh, traffic, engine="vector").run(
        warmup=sim["warmup"], measure=sim["measure"]
    )
    by_app = result.stats.apl_by_app()
    expected = {
        "packets_offered": result.packets_offered,
        "packets_delivered": result.packets_delivered,
        "cycles": result.cycles,
        "apls": [by_app.get(i) for i in range(len(body["apps"]))],
    }
    measured = answer["result"]["measured"]
    got = {k: measured[k] for k in expected}
    if canonical_json(got) != canonical_json(expected):
        return f"measured {canonical_json(got)} != direct {canonical_json(expected)}"
    return None
