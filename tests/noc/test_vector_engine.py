"""Golden equivalence and API tests for the vector (SoA) engine.

The vector engine must be *bit-identical* to the fast path: same delivered
latency histogram, per-app APLs, activity counts, power and delivery
totals, for the same seeds.  These tests pin that across all C1-C8 paper
configurations, router/network variants (arbitration, VC classes, link
depth, routing function), saturation (which exercises the credit-hazard
sequential sweep), every engine mode (the compiled ``cc`` kernel that
``auto`` selects wherever a C compiler exists, and the Python ``scalar``
and ``dense`` modes), and batched execution (a batch entry must equal its
own single run).  With ``REPRO_CC=0`` the ``auto`` cases run the Python
modes instead.  Also covers the NoCSimulator fallback matrix and the
simulate_batch API surface.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import permkernels
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.sss import sort_select_swap
from repro.experiments.base import standard_instance
from repro.noc.faults import FaultSchedule, LinkDownWindow
from repro.noc.network import NetworkConfig
from repro.noc.router import RouterConfig
from repro.noc.routing import Port
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic, UniformRandomTraffic
from repro.noc.vector_engine import VectorEngine, simulate_batch
from repro.workloads.parsec import parsec_config


def _signature(res):
    """Everything a SimulationResult measures, in comparable form."""
    stats = res.stats
    return (
        sorted(Counter(stats._all).items()),
        sorted(stats.apl_by_app().items()),
        res.counts.flit_router_traversals,
        res.counts.flit_link_traversals,
        res.counts.buffer_writes,
        res.counts.cycles,
        res.power.total,
        res.packets_offered,
        res.packets_delivered,
    )


def _auto_mode(batch: int) -> str:
    """The mode ``auto`` must select for ``batch`` instances.

    The compiled kernel wherever a C compiler exists (a failed build then
    fails the test instead of quietly running Python); without one, the
    Python mode for the batch size.
    """
    if permkernels.backend_info()["cc_compiler"] is not None:
        return "cc"
    return "scalar" if batch == 1 else "dense"


def _engine(mesh, traffics, network_config=None, *, mode="auto", **kwargs):
    """A VectorEngine, checked to run the mode ``mode`` stands for."""
    engine = VectorEngine(mesh, traffics, network_config, mode=mode, **kwargs)
    assert engine.mode == (_auto_mode(len(traffics)) if mode == "auto" else mode)
    return engine


def _assert_vector_engine(res):
    """The result came from the vector engine, with no fallback."""
    assert res.engine == "vector"
    assert res.engine_fallback is None


def _mapped_traffic_factory(name: str, seed: int = 13):
    inst = standard_instance(name)
    mapping = sort_select_swap(inst).mapping

    def make():
        return MappedWorkloadTraffic(
            inst, mapping, cycles_per_unit=1000.0, generate_replies=True, seed=seed
        )

    return inst, make


@pytest.mark.parametrize("name", [f"C{i}" for i in range(1, 9)])
def test_vector_matches_fastpath_on_paper_configs(name):
    inst, make = _mapped_traffic_factory(name)
    fast = NoCSimulator(inst.mesh, make(), engine="fastpath").run(
        warmup=200, measure=800
    )
    vec = NoCSimulator(inst.mesh, make(), engine="vector").run(warmup=200, measure=800)
    assert _signature(vec) == _signature(fast)
    _assert_vector_engine(vec)
    assert fast.engine == "fastpath"
    # NoCSimulator builds its engine with mode "auto", as here.
    _engine(inst.mesh, [make()])


_VARIANTS = {
    "yx_oldest": lambda: NetworkConfig(
        router=RouterConfig(arbitration="oldest_first"), routing="yx"
    ),
    "vc_classes": lambda: NetworkConfig(router=RouterConfig(vcs_per_port=4, vc_classes=4)),
    "deep_link_west_first": lambda: NetworkConfig(link_latency=2, routing="west_first"),
}


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_vector_matches_fastpath_on_network_variants(variant):
    mesh = Mesh.square(4)
    cfg = _VARIANTS[variant]()

    def make():
        return UniformRandomTraffic(mesh.n_tiles, 0.08, length=3, seed=7)

    fast = NoCSimulator(mesh, make(), cfg, engine="fastpath").run(
        warmup=200, measure=1000
    )
    vec = NoCSimulator(mesh, make(), cfg, engine="vector").run(warmup=200, measure=1000)
    assert _signature(vec) == _signature(fast)
    _assert_vector_engine(vec)
    # NoCSimulator builds its engine with mode "auto", as here.
    _engine(mesh, [make()], cfg)


@pytest.mark.parametrize("mode", ["auto", "scalar", "dense"])
def test_vector_matches_fastpath_under_saturation(mode):
    """0.35 flits/node/cycle x 5-flit packets saturates the 4x4 mesh, so
    credits hit zero and the dense path must take its exact sequential
    sweep (the scalar path and the compiled kernel arbitrate contention
    every cycle)."""
    mesh = Mesh.square(4)

    def make():
        return UniformRandomTraffic(mesh.n_tiles, 0.35, length=5, seed=11)

    fast = NoCSimulator(mesh, make(), engine="fastpath").run(warmup=100, measure=500)
    vec = _engine(mesh, [make()], mode=mode).run(warmup=100, measure=500)[0]
    assert _signature(vec) == _signature(fast)


def test_dense_mode_matches_scalar_mode_single_instance():
    inst, make = _mapped_traffic_factory("C1")
    scalar = VectorEngine(inst.mesh, [make()], mode="scalar").run(
        warmup=200, measure=800
    )[0]
    dense = VectorEngine(inst.mesh, [make()], mode="dense").run(
        warmup=200, measure=800
    )[0]
    assert _signature(dense) == _signature(scalar)


@pytest.mark.parametrize("mode", ["auto", "scalar", "dense"])
def test_batch_entries_match_single_runs(mode):
    """Each instance of a batch must be bit-identical to running it alone
    (and hence to the fast path): batching is a pure throughput axis."""
    inst, _ = _mapped_traffic_factory("C1")
    mapping = sort_select_swap(inst).mapping

    def make(seed):
        return MappedWorkloadTraffic(
            inst, mapping, cycles_per_unit=1000.0, generate_replies=True, seed=seed
        )

    seeds = (13, 14, 15)
    batch = _engine(inst.mesh, [make(s) for s in seeds], mode=mode).run(
        warmup=200, measure=800
    )
    for seed, res in zip(seeds, batch):
        single = NoCSimulator(inst.mesh, make(seed), engine="fastpath").run(
            warmup=200, measure=800
        )
        assert _signature(res) == _signature(single)
        _assert_vector_engine(res)


@pytest.mark.parametrize("batch", [1, 2])
def test_numpy_backend_selects_python_mode(batch):
    """Forcing the NumPy solver backend moves ``auto`` off the compiled
    kernel onto the Python mode for the batch size, with the same bytes."""
    inst, _ = _mapped_traffic_factory("C1")
    mapping = sort_select_swap(inst).mapping

    def traffics():
        return [
            MappedWorkloadTraffic(
                inst, mapping, cycles_per_unit=1000.0, generate_replies=True, seed=13 + i
            )
            for i in range(batch)
        ]

    with permkernels.force_backend("numpy"):
        engine = VectorEngine(inst.mesh, traffics())
        python_run = engine.run(warmup=200, measure=800)
    assert engine.mode == ("scalar" if batch == 1 else "dense")
    default_run = _engine(inst.mesh, traffics()).run(warmup=200, measure=800)
    assert [_signature(r) for r in python_run] == [_signature(r) for r in default_run]


@pytest.mark.parametrize("mode", ["auto", "scalar", "dense"])
def test_drain_limit_raises(mode):
    """A network still holding flits past the drain budget is an error."""
    mesh = Mesh.square(4)
    traffic = UniformRandomTraffic(mesh.n_tiles, 0.2, length=5, seed=1)
    engine = _engine(mesh, [traffic], mode=mode)
    engine._window(50, None)
    with pytest.raises(RuntimeError, match="failed to drain"):
        engine._drain(max_cycles=0)


def test_unknown_engine_rejected():
    mesh = Mesh.square(4)
    traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=1)
    with pytest.raises(ValueError, match="unknown engine"):
        NoCSimulator(mesh, traffic, engine="warp")


def test_unknown_mode_rejected():
    mesh = Mesh.square(4)
    traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=1)
    with pytest.raises(ValueError, match="unknown mode"):
        VectorEngine(mesh, [traffic], mode="simd")


def test_empty_traffic_list_rejected():
    with pytest.raises(ValueError, match="at least one"):
        VectorEngine(Mesh.square(4), [])


# ---------------------------------------------------------------------------
# Fallback matrix: anything needing per-event hooks forces the fast path.
# ---------------------------------------------------------------------------


def _c1_sim(**kwargs):
    inst, make = _mapped_traffic_factory("C1")
    return NoCSimulator(inst.mesh, make(), engine="vector", **kwargs)


def test_vector_falls_back_on_observability(caplog):
    from repro.obs import Observability, ObservabilityConfig, TraceConfig

    obs = Observability(ObservabilityConfig(trace=TraceConfig()))
    with caplog.at_level("WARNING", logger="repro.noc"):
        sim = _c1_sim(obs=obs)
    assert sim.engine == "fastpath"
    assert "observability" in sim.engine_fallback
    assert any("falling back to fastpath" in r.message for r in caplog.records)
    result = sim.run(warmup=100, measure=300)
    assert result.engine == "fastpath"
    assert "observability" in result.engine_fallback


def test_vector_falls_back_on_faults():
    schedule = FaultSchedule(
        link_windows=(LinkDownWindow(5, Port.EAST, 10, 50),)
    )
    sim = _c1_sim(faults=schedule)
    assert sim.engine == "fastpath"
    assert "fault" in sim.engine_fallback
    result = sim.run(warmup=100, measure=300)
    assert result.engine == "fastpath"
    assert "fault" in result.engine_fallback


def test_vector_falls_back_on_invariants():
    sim = _c1_sim(invariants=True)
    assert sim.engine == "fastpath"
    assert "invariant" in sim.engine_fallback
    result = sim.run(warmup=100, measure=300)
    assert result.engine == "fastpath"
    assert result.invariant_checks > 0


def test_vector_engine_used_when_nothing_attached():
    sim = _c1_sim()
    assert sim.engine == "vector"
    assert sim.engine_fallback is None


# ---------------------------------------------------------------------------
# simulate_batch API surface
# ---------------------------------------------------------------------------


def _small_instance(side: int = 4) -> OBMInstance:
    model = MeshLatencyModel(Mesh.square(side), LatencyParams())
    workload = parsec_config("C1", threads_per_app=model.n_tiles // 4)
    return OBMInstance(model, workload)


def test_simulate_batch_empty_returns_empty():
    assert simulate_batch([], seeds=[]) == []


def test_simulate_batch_seed_count_mismatch():
    inst = _small_instance()
    mapping = sort_select_swap(inst).mapping
    with pytest.raises(ValueError, match="seeds"):
        simulate_batch([(inst, mapping)], seeds=[1, 2])


def test_simulate_batch_mesh_shape_mismatch():
    a = _small_instance(4)
    b = _small_instance(8)
    ma = sort_select_swap(a).mapping
    mb = sort_select_swap(b).mapping
    with pytest.raises(ValueError, match="mesh"):
        simulate_batch([(a, ma), (b, mb)], seeds=[1, 2])


def test_simulate_batch_matches_single_runs():
    inst = _small_instance()
    mapping = sort_select_swap(inst).mapping
    batch = simulate_batch(
        [(inst, mapping), (inst, mapping)],
        seeds=[3, 4],
        warmup=100,
        measure=400,
        cycles_per_unit=1000.0,
    )
    assert len(batch) == 2
    for seed, res in zip((3, 4), batch):
        traffic = MappedWorkloadTraffic(
            inst, mapping, cycles_per_unit=1000.0, generate_replies=True, seed=seed
        )
        single = NoCSimulator(inst.mesh, traffic, engine="fastpath").run(
            warmup=100, measure=400
        )
        assert _signature(res) == _signature(single)
