"""Structure-of-arrays batch-path tests: result schema + growth.

The vector engine's batch path keeps packets as PacketTable rows and
accumulates measurement state in flat arrays; at run end the delivered
rows become the ``LatencyStats`` columns of the same public
``SimulationResult`` the fast path returns.  These tests pin that
contract directly (the golden suite pins it end-to-end):

* The vector result has the fast path's schema and values, and empty
  columns answer the count queries.
* The SoA pool's growth edge cases — reallocation mid-run from a tiny
  capacity, zero-packet windows, and ragged batch drains (members
  finishing at different cycles) — all stay bit-identical to single
  fastpath runs.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core import permkernels
from repro.core.latency import Mesh
from repro.core.sss import sort_select_swap
from repro.experiments.base import standard_instance
from repro.noc.packet import PacketTable
from repro.noc.simulator import NoCSimulator, SimulationResult
from repro.noc.stats import LatencyStats
from repro.noc.traffic import MappedWorkloadTraffic, UniformRandomTraffic
from repro.noc.vector_engine import VectorEngine


def _signature(res):
    stats = res.stats
    return (
        sorted(Counter(stats.latency.tolist()).items()),
        sorted(stats.apl_by_app().items()),
        res.counts.flit_router_traversals,
        res.counts.flit_link_traversals,
        res.counts.buffer_writes,
        res.counts.cycles,
        res.power.total,
        res.packets_offered,
        res.packets_delivered,
    )


#: The engine is the compiled cycle kernel: its tests skip where no C
#: compiler exists (with a compiler, a failed build fails them).
needs_kernel = pytest.mark.skipif(
    permkernels.backend_info()["cc_compiler"] is None,
    reason="the vector engine is the compiled cycle kernel; no C compiler here",
)


def test_empty_stats_columns():
    stats = LatencyStats()
    assert stats.n_packets == 0
    assert stats.apps() == [] and stats.classes() == []
    assert stats.apl_by_app() == {}


def _c1_scenario():
    inst = standard_instance("C1")
    mapping = sort_select_swap(inst).mapping

    def make(seed=13, cycles_per_unit=1000.0):
        return MappedWorkloadTraffic(
            inst,
            mapping,
            cycles_per_unit=cycles_per_unit,
            generate_replies=True,
            seed=seed,
        )

    return inst.mesh, make


@needs_kernel
def test_materialized_result_uses_same_public_schema():
    """The SoA path returns a stock SimulationResult — no new fields, and
    every shared field agrees with the fastpath run bit-for-bit."""
    mesh, make = _c1_scenario()
    fast = NoCSimulator(mesh, make(), engine="fastpath").run(warmup=100, measure=400)
    vec = VectorEngine(mesh, [make()]).run(warmup=100, measure=400)[0]
    assert type(vec) is SimulationResult
    fields = {f.name for f in dataclasses.fields(SimulationResult)}
    assert fields == {f.name for f in dataclasses.fields(type(fast))}
    assert _signature(vec) == _signature(fast)
    for name in ("cycles", "packets_offered", "packets_delivered", "packets_lost"):
        assert getattr(vec, name) == getattr(fast, name), name


# ---------------------------------------------------------------------------
# PacketTable growth and pool edge cases
# ---------------------------------------------------------------------------


def test_packet_table_grows_geometrically():
    pt = PacketTable(1)
    for i in range(100):
        pt.src.append(i)
        pt.dst.append(i + 1)
        pt.tclass.append(0)
        pt.length.append(1)
        pt.created.append(i)
        pt.app.append(0)
        pt.flush()  # realloc forced repeatedly from capacity 1
        assert pt.dst_a[i] == i + 1
    assert pt.dst_a.size >= 100
    assert pt.column("dst").tolist() == list(range(1, 101))


def test_packet_table_rejects_bad_capacity():
    with pytest.raises(ValueError, match="capacity"):
        PacketTable(0)


@needs_kernel
def test_tiny_table_capacity_reallocates_mid_run():
    """A 2-row initial pool forces repeated geometric reallocation while
    flits are in flight; results must not move at all."""
    mesh, make = _c1_scenario()
    fast = NoCSimulator(mesh, make(), engine="fastpath").run(warmup=200, measure=800)
    vec = VectorEngine(mesh, [make()], table_capacity=2).run(warmup=200, measure=800)[0]
    assert _signature(vec) == _signature(fast)


@needs_kernel
def test_zero_packet_windows():
    """A silent traffic source exercises every empty-cycle branch: no
    emits, no injections, no busy channels, empty materialization."""
    mesh = Mesh.square(4)

    def silent():
        return UniformRandomTraffic(mesh.n_tiles, 0.0, seed=3)

    res = VectorEngine(mesh, [silent()]).run(warmup=100, measure=500)[0]
    assert res.packets_offered == 0
    assert res.packets_delivered == 0
    assert res.stats.n_packets == 0
    assert res.counts.flit_router_traversals == 0
    fast = NoCSimulator(mesh, silent(), engine="fastpath").run(warmup=100, measure=500)
    assert _signature(res) == _signature(fast)


@needs_kernel
def test_zero_packet_member_in_active_batch():
    """One silent member must not perturb the others (and vice versa)."""
    mesh = Mesh.square(4)

    def silent():
        return UniformRandomTraffic(mesh.n_tiles, 0.0, seed=3)

    def noisy():
        return UniformRandomTraffic(mesh.n_tiles, 0.08, length=3, seed=7)

    batch = VectorEngine(mesh, [noisy(), silent(), noisy()]).run(
        warmup=200, measure=1000
    )
    fast_noisy = NoCSimulator(mesh, noisy(), engine="fastpath").run(
        warmup=200, measure=1000
    )
    assert _signature(batch[0]) == _signature(fast_noisy)
    assert _signature(batch[2]) == _signature(fast_noisy)
    assert batch[1].packets_offered == 0
    assert batch[1].stats.n_packets == 0


@needs_kernel
def test_ragged_drain_batch_members_finish_at_different_cycles():
    """Members with very different loads (cycles_per_unit 500 vs 4000)
    drain at different cycles; each must equal its own single run."""
    mesh, make = _c1_scenario()
    cpus = (500.0, 1000.0, 4000.0)
    batch = VectorEngine(mesh, [make(13, c) for c in cpus]).run(
        warmup=200, measure=800
    )
    for cpu, res in zip(cpus, batch):
        single = NoCSimulator(mesh, make(13, cpu), engine="fastpath").run(
            warmup=200, measure=800
        )
        assert _signature(res) == _signature(single), f"cycles_per_unit={cpu}"
