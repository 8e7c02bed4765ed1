"""Golden end-to-end: service responses == direct engine runs, bit for bit.

For every measured paper configuration C1-C8, a ``POST /map`` with
``simulate`` on must return exactly the bytes a direct ``python -m repro
simulate`` pipeline produces: same solver permutation, same evaluation
metrics, same measured APLs.  The
comparison is on canonical JSON encodings, so any drift — float noise,
translation bugs, a different RNG-to-thread assignment — fails loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.core.bounds import max_apl_lower_bound
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.registry import ALGORITHMS
from repro.experiments.resilience import json_safe
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic
from repro.workloads.parsec import CONFIG_NAMES, parsec_config

WARMUP, MEASURE, SEED = 100, 400, 0


def canonical_bytes(doc) -> bytes:
    return json.dumps(json_safe(doc), sort_keys=True, separators=(",", ":")).encode()


def reference_response(config: str, algorithm: str = "sss") -> dict:
    """The CLI-equivalent pipeline, without the service in the loop."""
    model = MeshLatencyModel(Mesh.square(8), LatencyParams())
    workload = parsec_config(config, threads_per_app=model.n_tiles // 4)
    instance = OBMInstance(model, workload)
    solved = ALGORITHMS[algorithm](instance)
    lb = max_apl_lower_bound(instance)

    traffic = MappedWorkloadTraffic(instance, solved.mapping, seed=SEED)
    measured = NoCSimulator(instance.mesh, traffic).run(warmup=WARMUP, measure=MEASURE)

    n_apps = len(workload.applications)
    stats = measured.stats
    apl_by_app = stats.apl_by_app()
    pct_by_app = stats.percentiles_by_app()
    return {
        "algorithm": algorithm,
        "apps": [a.name for a in workload.applications],
        "perm": [int(t) for t in solved.mapping.perm],
        "evaluation": {
            "apls": [float(v) for v in solved.evaluation.apls[:n_apps]],
            "max_apl": solved.evaluation.max_apl,
            "dev_apl": solved.evaluation.dev_apl,
            "g_apl": solved.evaluation.g_apl,
            "min_max_ratio": solved.evaluation.min_max_ratio,
        },
        "bounds": {
            "value": lb.value,
            "mean_bound": lb.mean_bound,
            "per_app_bound": lb.per_app_bound,
            "gap": lb.gap(solved.evaluation.max_apl),
        },
        "measured": {
            "engine": measured.engine,
            "cycles": measured.cycles,
            "packets_offered": measured.packets_offered,
            "packets_delivered": measured.packets_delivered,
            "packets_lost": measured.packets_lost,
            "delivery_ratio": measured.delivery_ratio,
            "invariant_checks": measured.invariant_checks,
            "max_apl": stats.max_apl() if apl_by_app else None,
            "dev_apl": stats.dev_apl() if apl_by_app else None,
            "apls": [apl_by_app.get(i) for i in range(n_apps)],
            "percentiles": [pct_by_app.get(i) for i in range(n_apps)],
            "warmup": WARMUP,
            "measure": MEASURE,
            "seed": SEED,
        },
    }


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_serve_is_bit_identical_to_direct_simulate(client, config):
    doc = client.map(
        {
            "workload": config,
            "mesh": 8,
            "algorithm": "sss",
            "simulate": True,
            "sim": {"warmup": WARMUP, "measure": MEASURE, "seed": SEED},
        },
        timeout=300.0,
    )
    expected = reference_response(config)
    assert canonical_bytes(doc["result"]) == canonical_bytes(expected)


def test_cached_replay_is_also_bit_identical(client):
    """The cached copy of a golden response must be the same bytes too."""
    request = {
        "workload": "C1",
        "mesh": 8,
        "simulate": True,
        "sim": {"warmup": WARMUP, "measure": MEASURE, "seed": SEED},
    }
    first = client.map(request, timeout=300.0)
    second = client.map(request, timeout=300.0)
    assert second["meta"]["cache"] == "hit"
    assert second["meta"]["sim_cache"] == "hit"
    assert canonical_bytes(second["result"]) == canonical_bytes(first["result"])
