"""Golden equivalence and API tests for the vector (SoA) engine.

The vector engine must be *bit-identical* to the fast path: same delivered
latency histogram, per-app APLs, activity counts, power and delivery
totals, for the same seeds.  These tests pin that across all C1-C8 paper
configurations, router/network variants (arbitration, VC classes, link
depth, routing function), saturation, and batched execution (a batch
entry must equal its own single run), plus a hypothesis property over
small meshes and network configurations.  The engine is the compiled
cycle kernel: tests that build it directly skip where no C compiler
exists (with a compiler, a failed build fails them).  Without the kernel
every run takes the fast path, which the no-kernel tests pin by forcing
the NumPy backend.  Also covers NoCSimulator's engine selection and the
simulate_batch API surface.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import permkernels
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.sss import sort_select_swap
from repro.experiments.base import standard_instance
from repro.noc import routing
from repro.noc.faults import FaultSchedule, LinkDownWindow
from repro.noc.network import NetworkConfig
from repro.noc.router import RouterConfig
from repro.noc.routing import Port
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic, UniformRandomTraffic
from repro.noc.vector_engine import VectorEngine, run_batch, simulate_batch
from repro.workloads.parsec import parsec_config

#: a C compiler exists, so the compiled cycle kernel must load
HAS_COMPILER = permkernels.backend_info()["cc_compiler"] is not None
#: the engine a hook-free NoCSimulator run must report
DEFAULT_ENGINE = "vector" if HAS_COMPILER else "fastpath"

needs_kernel = pytest.mark.skipif(
    not HAS_COMPILER,
    reason="the vector engine is the compiled cycle kernel; no C compiler here",
)


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
    assert vec.engine == DEFAULT_ENGINE
    assert fast.engine == "fastpath"


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
    assert vec.engine == DEFAULT_ENGINE


@needs_kernel
def test_engines_of_one_shape_share_the_route_table(monkeypatch):
    """The T x T route table is built once per (mesh shape, routing), not
    once per engine; engines of that shape share the read-only arrays."""
    mesh = Mesh(3, 5)
    T = mesh.n_tiles
    calls = []
    xy = routing.ROUTE_FUNCTIONS["xy"]

    def counting_xy(mesh, current, dst):
        calls.append((current, dst))
        return xy(mesh, current, dst)

    monkeypatch.setitem(routing.ROUTE_FUNCTIONS, "xy", counting_xy)
    routing.topology_tables.cache_clear()
    try:
        first, second = (
            VectorEngine(mesh, [UniformRandomTraffic(T, 0.05, seed=s)]) for s in (1, 2)
        )
        assert len(calls) == T * T
        assert first.ROUTE is second.ROUTE
    finally:
        routing.topology_tables.cache_clear()


@needs_kernel
def test_vector_matches_fastpath_under_saturation():
    """0.35 flits/node/cycle x 5-flit packets saturates the 4x4 mesh, so
    credits hit zero and same-cycle upstream credit returns decide which
    channels may move."""
    mesh = Mesh.square(4)

    def make():
        return UniformRandomTraffic(mesh.n_tiles, 0.35, length=5, seed=11)

    fast = NoCSimulator(mesh, make(), engine="fastpath").run(warmup=100, measure=500)
    vec = VectorEngine(mesh, [make()]).run(warmup=100, measure=500)[0]
    assert _signature(vec) == _signature(fast)


@needs_kernel
def test_batch_entries_match_single_runs():
    """Each instance of a batch must be bit-identical to running it alone
    (and hence to the fast path): batching is a pure throughput axis."""
    inst, _ = _mapped_traffic_factory("C1")
    mapping = sort_select_swap(inst).mapping

    def make(seed):
        return MappedWorkloadTraffic(
            inst, mapping, cycles_per_unit=1000.0, generate_replies=True, seed=seed
        )

    seeds = (13, 14, 15)
    batch = VectorEngine(inst.mesh, [make(s) for s in seeds]).run(
        warmup=200, measure=800
    )
    for seed, res in zip(seeds, batch):
        single = NoCSimulator(inst.mesh, make(seed), engine="fastpath").run(
            warmup=200, measure=800
        )
        assert _signature(res) == _signature(single)
        assert res.engine == "vector"


def _small_instance(side: int = 4) -> OBMInstance:
    model = MeshLatencyModel(Mesh.square(side), LatencyParams())
    workload = parsec_config("C1", threads_per_app=model.n_tiles // 4)
    return OBMInstance(model, workload)


@functools.lru_cache(maxsize=None)
def _mapped_instance(rows: int, cols: int):
    """C1 on a ``rows x cols`` mesh (a quarter of the tiles per app), SSS-mapped."""
    model = MeshLatencyModel(Mesh(rows, cols), LatencyParams())
    inst = OBMInstance(model, parsec_config("C1", threads_per_app=model.n_tiles // 4))
    return inst, sort_select_swap(inst).mapping


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    rows=st.integers(2, 4),
    cols=st.integers(2, 4),
    routing=st.sampled_from(["xy", "yx", "west_first"]),
    vcs=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (4, 2), (4, 4)]),
    arbitration=st.sampled_from(["round_robin", "oldest_first"]),
    link_latency=st.integers(1, 2),
    mapped=st.booleans(),
    rate=st.floats(0.01, 0.5),
    length=st.integers(1, 5),
    batch=st.integers(1, 3),
    measure=st.integers(50, 400),
    seed=st.integers(0, 2**16),
)
@needs_kernel
def test_batch_members_match_their_fastpath_runs(
    rows, cols, routing, vcs, arbitration, link_latency, mapped, rate, length,
    batch, measure, seed,
):
    """Kernel against fast path, the one engine pair left, on random small
    meshes and network configurations, up to saturation.  Uniform traffic
    injects ``rate`` packets of ``length`` flits per node per cycle; mapped
    traffic gives its busiest thread a ``rate`` request probability, and
    its 5-flit replies fill every traffic class's VC partition."""
    mesh = Mesh(rows, cols)
    vcs_per_port, vc_classes = vcs
    cfg = NetworkConfig(
        router=RouterConfig(
            vcs_per_port=vcs_per_port, vc_classes=vc_classes, arbitration=arbitration
        ),
        link_latency=link_latency,
        routing=routing,
    )

    def make(b):
        if not mapped:
            return UniformRandomTraffic(mesh.n_tiles, rate, length=length, seed=seed + b)
        inst, mapping = _mapped_instance(rows, cols)
        peak = float((inst.workload.cache_rates + inst.workload.mem_rates).max())
        return MappedWorkloadTraffic(
            inst, mapping, cycles_per_unit=peak / rate, generate_replies=True,
            seed=seed + b,
        )

    results = VectorEngine(mesh, [make(b) for b in range(batch)], cfg).run(
        warmup=20, measure=measure
    )
    for b, res in enumerate(results):
        fast = NoCSimulator(mesh, make(b), cfg, engine="fastpath").run(
            warmup=20, measure=measure
        )
        assert _signature(res) == _signature(fast)


@pytest.mark.parametrize("batch", [1, 3])
def test_without_kernel_batches_take_the_fast_path(batch):
    """With the NumPy solver backend forced the kernel does not load, so
    run_batch runs each traffic through the fast path, with the same
    bytes as the kernel's batch."""
    inst, _ = _mapped_traffic_factory("C1")
    mapping = sort_select_swap(inst).mapping

    def traffics():
        return [
            MappedWorkloadTraffic(
                inst, mapping, cycles_per_unit=1000.0, generate_replies=True, seed=13 + i
            )
            for i in range(batch)
        ]

    with permkernels.force_backend("reference"):
        fallback = run_batch(inst.mesh, traffics(), warmup=200, measure=800)
    default = run_batch(inst.mesh, traffics(), warmup=200, measure=800)
    assert [r.engine for r in fallback] == ["fastpath"] * batch
    assert [r.engine for r in default] == [DEFAULT_ENGINE] * batch
    assert [_signature(r) for r in fallback] == [_signature(r) for r in default]


def test_without_kernel_simulate_batch_takes_the_fast_path():
    inst = _small_instance()
    mapping = sort_select_swap(inst).mapping
    pairs, seeds = [(inst, mapping), (inst, mapping)], [3, 4]
    with permkernels.force_backend("reference"):
        fallback = simulate_batch(pairs, seeds=seeds, warmup=100, measure=400)
    default = simulate_batch(pairs, seeds=seeds, warmup=100, measure=400)
    assert [r.engine for r in fallback] == ["fastpath", "fastpath"]
    assert [_signature(r) for r in fallback] == [_signature(r) for r in default]


def test_without_kernel_simulator_takes_the_fast_path():
    inst, make = _mapped_traffic_factory("C1")
    with permkernels.force_backend("reference"):
        sim = NoCSimulator(inst.mesh, make())
        fallback = sim.run(warmup=200, measure=800)
    assert sim.engine == "fastpath"
    assert sim.network is not None
    assert fallback.engine == "fastpath"
    default = NoCSimulator(inst.mesh, make()).run(warmup=200, measure=800)
    assert _signature(fallback) == _signature(default)


def test_vector_engine_requires_the_kernel():
    mesh = Mesh.square(4)
    traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=1)
    with permkernels.force_backend("reference"):
        with pytest.raises(RuntimeError, match="compiled cycle kernel is unavailable"):
            VectorEngine(mesh, [traffic])


@needs_kernel
def test_drain_limit_raises():
    """A network still holding flits past the drain budget is an error."""
    mesh = Mesh.square(4)
    traffic = UniformRandomTraffic(mesh.n_tiles, 0.2, length=5, seed=1)
    engine = VectorEngine(mesh, [traffic])
    engine._window(50, None)
    with pytest.raises(RuntimeError, match="failed to drain"):
        engine._drain(max_cycles=0)


def test_unknown_engine_rejected():
    mesh = Mesh.square(4)
    traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=1)
    with pytest.raises(ValueError, match="unknown engine"):
        NoCSimulator(mesh, traffic, engine="warp")


def test_empty_traffic_list_rejected():
    with pytest.raises(ValueError, match="at least one"):
        VectorEngine(Mesh.square(4), [])


# ---------------------------------------------------------------------------
# Fallback matrix: anything needing per-event hooks forces the fast path.
# ---------------------------------------------------------------------------


def _c1_sim(**kwargs):
    inst, make = _mapped_traffic_factory("C1")
    return NoCSimulator(inst.mesh, make(), **kwargs)


def _assert_fastpath_run(sim):
    assert sim.engine == "fastpath"
    assert sim.network is not None
    assert sim.run(warmup=100, measure=300).engine == "fastpath"


def test_vector_falls_back_on_observability():
    from repro.obs import Observability, ObservabilityConfig, TraceConfig

    obs = Observability(ObservabilityConfig(trace=TraceConfig()))
    _assert_fastpath_run(_c1_sim(obs=obs))


def test_vector_falls_back_on_faults():
    schedule = FaultSchedule(
        link_windows=(LinkDownWindow(5, Port.EAST, 10, 50),)
    )
    _assert_fastpath_run(_c1_sim(faults=schedule))


def test_vector_falls_back_on_invariants():
    sim = _c1_sim(invariants=True)
    _assert_fastpath_run(sim)
    assert sim.network.invariants.checks_run > 0


def test_fastpath_on_request():
    _assert_fastpath_run(_c1_sim(engine="fastpath"))


@needs_kernel
def test_vector_engine_used_when_nothing_attached():
    sim = _c1_sim()
    assert sim.engine == "vector"
    assert sim.network is None
    assert sim.run(warmup=100, measure=300).engine == "vector"


# ---------------------------------------------------------------------------
# simulate_batch API surface
# ---------------------------------------------------------------------------


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
