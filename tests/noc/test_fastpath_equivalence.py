"""Bit-identity of the fast-path engine against the seed implementation.

``tests/noc/golden_fastpath.json`` was generated by the original
straight-loop simulator (every router/link stepped every cycle) before the
active-set/fused-pipeline fast path landed.  These tests re-run the exact
same configurations and require the *exact* same outputs — full delivered-
latency histogram, per-app APLs, activity counts, power, delivery ratio
and flit totals — on 4x4 and 8x8 meshes across several traffic seeds and
router/network variants.  Any future optimisation that changes simulated
behaviour (rather than just wall-clock) fails here.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.latency import Mesh
from repro.core.sss import sort_select_swap
from repro.experiments.base import standard_instance
from repro.noc.network import NetworkConfig
from repro.noc.router import RouterConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic, UniformRandomTraffic

GOLDEN_PATH = Path(__file__).parent / "golden_fastpath.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

_VARIANT_CONFIGS = {
    "vcclasses_4x4": lambda: NetworkConfig(
        router=RouterConfig(vcs_per_port=4, vc_classes=4)
    ),
}


def _build_simulator(case: dict) -> NoCSimulator:
    kind = case["kind"]
    if kind == "uniform":
        mesh = Mesh.square(case["side"])
        traffic = UniformRandomTraffic(
            mesh.n_tiles, case["rate"], length=case["length"], seed=case["seed"]
        )
        return NoCSimulator(mesh, traffic, engine="fastpath")
    if kind == "variant":
        mesh = Mesh.square(4)
        traffic = UniformRandomTraffic(mesh.n_tiles, 0.06, length=5, seed=7)
        return NoCSimulator(
            mesh,
            traffic,
            network_config=_VARIANT_CONFIGS[case["variant"]](),
            engine="fastpath",
        )
    if kind == "mapped_c1":
        inst = standard_instance("C1")
        mapping = sort_select_swap(inst).mapping
        traffic = MappedWorkloadTraffic(
            inst, mapping, cycles_per_unit=1000.0, generate_replies=True, seed=13
        )
        return NoCSimulator(inst.mesh, traffic, engine="fastpath")
    raise ValueError(f"unknown golden case kind {kind!r}")


def _case_params():
    """The 8x8 cases dominate this file's runtime; they carry the ``slow``
    marker so tier-1 keeps the (equally bit-exact) 4x4 coverage only."""
    params = []
    for case in GOLDEN["cases"]:
        marks = (pytest.mark.slow,) if "8x8" in case["name"] else ()
        params.append(pytest.param(case, id=case["name"], marks=marks))
    return params


@pytest.mark.parametrize("case", _case_params())
def test_fastpath_matches_seed_implementation(case):
    sim = _build_simulator(case)
    res = sim.run(warmup=case["warmup"], measure=case["measure"])
    net = sim.network
    expected = case["expected"]

    hist = sorted((int(k), int(v)) for k, v in Counter(res.stats.latency.tolist()).items())
    assert hist == [tuple(x) for x in map(tuple, expected["latency_histogram"])]
    assert res.stats.apl_by_app() == {
        int(k): v for k, v in expected["apl_by_app"].items()
    }
    assert res.counts.flit_router_traversals == expected["counts"]["flit_router_traversals"]
    assert res.counts.flit_link_traversals == expected["counts"]["flit_link_traversals"]
    assert res.counts.buffer_writes == expected["counts"]["buffer_writes"]
    assert res.counts.cycles == expected["counts"]["cycles"]
    assert res.power.total == expected["power_total"]
    assert res.packets_offered == expected["packets_offered"]
    assert res.packets_delivered == expected["packets_delivered"]
    assert res.delivery_ratio == expected["packets_delivered"] / expected["packets_offered"]
    assert net.flits_injected == expected["flits_injected"]
    assert net.flits_ejected == expected["flits_ejected"]
    assert net.now == expected["final_cycle"]
