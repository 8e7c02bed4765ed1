"""Tests of the traffic generators."""

import numpy as np
import pytest

from repro.core import permkernels
from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.problem import Mapping, OBMInstance
from repro.core.workload import Application, Workload
from repro.noc.packet import PacketTable, TrafficClass
from repro.noc.traffic import (
    MappedWorkloadTraffic,
    NearestMCTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
)
from repro.noc.vector_engine import VectorEngine


class TestUniformRandom:
    def test_rate_statistics(self):
        gen = UniformRandomTraffic(n_tiles=16, injection_rate=0.25, seed=0)
        count = sum(len(gen.packets_for_cycle(t)) for t in range(2000))
        expected = 16 * 0.25 * 2000
        assert abs(count - expected) / expected < 0.05

    def test_no_self_traffic(self):
        gen = UniformRandomTraffic(n_tiles=8, injection_rate=1.0, seed=1)
        for t in range(50):
            for p in gen.packets_for_cycle(t):
                assert p.src != p.dst

    def test_destination_uniform_over_others(self):
        gen = UniformRandomTraffic(n_tiles=4, injection_rate=1.0, seed=2)
        counts = np.zeros(4)
        for t in range(3000):
            for p in gen.packets_for_cycle(t):
                if p.src == 0:
                    counts[p.dst] += 1
        assert counts[0] == 0
        assert counts[1:].min() > 0.25 * counts[1:].max()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            UniformRandomTraffic(n_tiles=4, injection_rate=1.5)

    def test_created_at_stamped(self):
        gen = UniformRandomTraffic(n_tiles=4, injection_rate=1.0, seed=0)
        for p in gen.packets_for_cycle(17):
            assert p.created_at == 17


class TestTranspose:
    def test_destinations_are_transposed(self):
        gen = TransposeTraffic(n_tiles=16, injection_rate=1.0, seed=0, side=4)
        for p in gen.packets_for_cycle(0):
            r, c = divmod(p.src, 4)
            assert p.dst == c * 4 + r

    def test_requires_square(self):
        with pytest.raises(ValueError):
            TransposeTraffic(n_tiles=12, injection_rate=0.1, side=3)


class TestNearestMC:
    def test_targets_are_controllers(self):
        model = MeshLatencyModel(Mesh.square(4))
        gen = NearestMCTraffic(n_tiles=16, injection_rate=1.0, seed=0, model=model)
        for p in gen.packets_for_cycle(0):
            assert p.dst in model.mc_tiles
            assert p.dst == model.nearest_mc(p.src)

    def test_requires_model(self):
        with pytest.raises(ValueError):
            NearestMCTraffic(n_tiles=16, injection_rate=0.1)


@pytest.fixture
def mapped_setup():
    model = MeshLatencyModel(Mesh.square(4))
    apps = (
        Application("a", np.full(8, 20.0), np.full(8, 5.0)),
        Application("b", np.full(8, 60.0), np.full(8, 10.0)),
    )
    inst = OBMInstance(model, Workload(apps))
    mapping = Mapping(np.arange(16))
    return inst, mapping


class TestMappedWorkloadTraffic:
    def test_rates_respected(self, mapped_setup):
        inst, mapping = mapped_setup
        gen = MappedWorkloadTraffic(inst, mapping, cycles_per_unit=1000, seed=0)
        cache = mem = 0
        cycles = 4000
        for t in range(cycles):
            for p in gen.packets_for_cycle(t):
                if p.traffic_class == TrafficClass.CACHE_REQUEST:
                    cache += 1
                else:
                    mem += 1
        expected_cache = inst.workload.cache_rates.sum() / 1000 * cycles
        expected_mem = inst.workload.mem_rates.sum() / 1000 * cycles
        assert abs(cache - expected_cache) / expected_cache < 0.1
        assert abs(mem - expected_mem) / expected_mem < 0.2

    def test_sources_follow_mapping(self, mapped_setup):
        # A request leaves its thread's tile, so the thread that ``perm``
        # puts on the source tile belongs to the packet's app.  The roll
        # moves threads across the app boundary, so reading the source
        # tile as the thread id must get some app wrong.
        inst, _ = mapped_setup
        app_of_thread = inst.workload.app_of_thread
        perm = np.roll(np.arange(16), 3)
        thread_of_tile = np.argsort(perm)
        gen = MappedWorkloadTraffic(inst, Mapping(perm), seed=1)
        identity_misses = 0
        for t in range(200):
            for p in gen.packets_for_cycle(t):
                assert p.app == app_of_thread[thread_of_tile[p.src]]
                identity_misses += p.app != app_of_thread[p.src]
        assert identity_misses

    def test_memory_goes_to_nearest_mc(self, mapped_setup):
        inst, mapping = mapped_setup
        gen = MappedWorkloadTraffic(inst, mapping, seed=2)
        seen_mem = False
        for t in range(2000):
            for p in gen.packets_for_cycle(t):
                if p.traffic_class == TrafficClass.MEM_REQUEST:
                    seen_mem = True
                    assert p.dst == inst.model.nearest_mc(p.src)
        assert seen_mem

    def test_app_tagging(self, mapped_setup):
        inst, mapping = mapped_setup
        thread_of_tile = np.argsort(mapping.perm)
        gen = MappedWorkloadTraffic(inst, mapping, seed=3)
        for t in range(200):
            for p in gen.packets_for_cycle(t):
                assert p.app == inst.workload.app_of_thread[thread_of_tile[p.src]]

    def test_replies_generated(self, mapped_setup):
        inst, mapping = mapped_setup
        gen = MappedWorkloadTraffic(
            inst, mapping, generate_replies=True, l2_latency=6, seed=4
        )
        classes = set()
        for t in range(3000):
            for p in gen.packets_for_cycle(t):
                classes.add(p.traffic_class)
        assert TrafficClass.CACHE_REPLY in classes

    def test_reply_reverses_direction(self, mapped_setup):
        inst, mapping = mapped_setup
        thread_of_tile = np.argsort(mapping.perm)
        gen = MappedWorkloadTraffic(inst, mapping, generate_replies=True, seed=5)
        requests = set()
        replies = 0
        for t in range(2000):
            for p in gen.packets_for_cycle(t):
                if not p.traffic_class.is_reply:
                    # a request leaves its thread's tile
                    requests.add((thread_of_tile[p.src], p.dst, p.src, p.app))
                else:
                    # a reply returns to it: some earlier request of the
                    # same thread and app, endpoints mirrored
                    replies += 1
                    assert (thread_of_tile[p.dst], p.src, p.dst, p.app) in requests
        assert replies

    def test_saturation_rejected(self, mapped_setup):
        inst, mapping = mapped_setup
        with pytest.raises(ValueError):
            MappedWorkloadTraffic(inst, mapping, cycles_per_unit=10)

    def test_invalid_cycles_per_unit(self, mapped_setup):
        inst, mapping = mapped_setup
        with pytest.raises(ValueError):
            MappedWorkloadTraffic(inst, mapping, cycles_per_unit=0)


# ---------------------------------------------------------------------------
# The emission contract: ``emit`` is the one definition of a generator's
# traffic.  The fast path's ``packets_for_cycle`` objects and the vector
# engine's rows (per-generator or fused across a batch) must be the same
# packets, from the same RNG draws.
# ---------------------------------------------------------------------------

CONTRACT_CYCLES = 2000


def _row_tuples(table, start=0, end=None):
    cols = (table.src, table.dst, table.tclass, table.length, table.created, table.app)
    return list(zip(*(col[start:end] for col in cols)))


def _packet_tuple(p):
    return (p.src, p.dst, int(p.traffic_class), p.length, p.created_at, p.app)


def _state(gen):
    return gen._rng.bit_generator.state


_MODEL4 = MeshLatencyModel(Mesh.square(4))
PATTERNS = {
    "uniform": lambda: UniformRandomTraffic(
        n_tiles=16, injection_rate=0.2, length=3, seed=11
    ),
    "transpose": lambda: TransposeTraffic(
        n_tiles=16, injection_rate=0.2, seed=12, side=4
    ),
    "nearest_mc": lambda: NearestMCTraffic(
        n_tiles=16, injection_rate=0.2, seed=13, model=_MODEL4
    ),
}


def _mapped(inst, seed):
    # A non-identity bijection, so a packet's thread follows from its tiles.
    perm = np.roll(np.arange(16), 5)
    return MappedWorkloadTraffic(
        inst, Mapping(perm), generate_replies=True, l2_latency=6, seed=seed
    )


class TestEmissionContract:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_pattern_packets_match_emitted_rows(self, name):
        gen, twin = PATTERNS[name](), PATTERNS[name]()
        table = PacketTable()
        packets = []
        for t in range(CONTRACT_CYCLES):
            packets += gen.packets_for_cycle(t)
            twin.emit(t, table)
        assert packets, "the pattern emitted nothing"
        assert [_packet_tuple(p) for p in packets] == _row_tuples(table)
        assert all(p.thread == -1 for p in packets)
        assert _state(gen) == _state(twin)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mapped_packets_match_emitted_rows(self, mapped_setup, seed):
        inst, _ = mapped_setup
        gen, twin = _mapped(inst, seed), _mapped(inst, seed)
        thread_of_tile = np.argsort(gen.thread_tile).tolist()
        table = PacketTable()
        packets = []
        for t in range(CONTRACT_CYCLES):
            packets += gen.packets_for_cycle(t)
            twin.emit(t, table)
        rows = _row_tuples(table)
        assert [_packet_tuple(p) for p in packets] == rows
        assert all(p.thread == -1 for p in packets)
        # Requests leave the thread's tile; replies return to it, carrying
        # that thread's app.
        app_of_thread = inst.workload.app_of_thread
        for src, dst, cls, _, _, app in rows:
            tile = dst if TrafficClass(cls).is_reply else src
            assert app == app_of_thread[thread_of_tile[tile]]
        assert {row[2] for row in rows} == set(range(4))
        assert _state(gen) == _state(twin)

    @pytest.mark.skipif(
        permkernels.backend_info()["cc_compiler"] is None,
        reason="the vector engine is the compiled cycle kernel; no C compiler here",
    )
    def test_fused_batch_rows_match_each_generator(self, mapped_setup):
        inst, _ = mapped_setup
        seeds = [3, 4, 5, 6]
        engine = VectorEngine(inst.mesh, [_mapped(inst, s) for s in seeds])
        assert engine._traffic_batch() is not None, "the batch must fuse"
        spans = {b: [] for b in range(len(seeds))}
        emit = engine._emitter(lambda b, start, end: spans[b].append((start, end)))
        for t in range(CONTRACT_CYCLES):
            emit(t)
        for b, seed in enumerate(seeds):
            twin = _mapped(inst, seed)
            table = PacketTable()
            for t in range(CONTRACT_CYCLES):
                twin.emit(t, table)
            fused = [row for lo, hi in spans[b] for row in _row_tuples(engine.pt, lo, hi)]
            assert fused == _row_tuples(table)
            assert _state(engine.traffics[b]) == _state(twin)

    def test_pids_follow_creation_order(self, mapped_setup):
        # FaultManager._recover kills the blocked packet with the lowest
        # pid as the oldest, so pids must rise with created_at.
        inst, _ = mapped_setup
        gen = _mapped(inst, 7)
        packets = [p for t in range(CONTRACT_CYCLES) for p in gen.packets_for_cycle(t)]
        assert any(p.traffic_class.is_reply for p in packets)
        by_pid = sorted(packets, key=lambda p: p.pid)
        created = [p.created_at for p in by_pid]
        assert created == sorted(created)

    def test_transpose_drops_self_rows(self):
        gen = TransposeTraffic(n_tiles=16, injection_rate=1.0, seed=0, side=4)
        table = PacketTable()
        gen.emit(0, table)
        assert len(table) == 16 - 4
        assert all(src != dst for src, dst in zip(table.src, table.dst))

    def test_nearest_mc_keeps_self_rows(self):
        gen = NearestMCTraffic(n_tiles=16, injection_rate=1.0, seed=0, model=_MODEL4)
        table = PacketTable()
        gen.emit(0, table)
        assert len(table) == 16
        selfs = [src for src, dst in zip(table.src, table.dst) if src == dst]
        assert sorted(selfs) == sorted(_MODEL4.mc_tiles)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_zero_length_rejected_at_construction(self, name):
        kwargs = {
            "uniform": {},
            "transpose": {"side": 4},
            "nearest_mc": {"model": _MODEL4},
        }[name]
        cls = type(PATTERNS[name]())
        with pytest.raises(ValueError, match="length"):
            cls(n_tiles=16, injection_rate=0.1, length=0, **kwargs)
