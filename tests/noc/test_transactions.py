"""Tests of request/reply transaction tracking."""

import numpy as np
import pytest

from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.problem import Mapping, OBMInstance
from repro.core.workload import Application, Workload
from repro.noc.packet import Packet, TrafficClass
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic
from repro.noc.transactions import TransactionTracker


def delivered(src, dst, cls, created, ejected, thread=0):
    p = Packet(src, dst, cls, created, thread=thread)
    p.injected_at = created
    p.ejected_at = ejected
    return p


class TestMatching:
    def test_simple_pair(self):
        tracker = TransactionTracker()
        req = delivered(0, 5, TrafficClass.CACHE_REQUEST, 0, 10)
        rep = delivered(5, 0, TrafficClass.CACHE_REPLY, 16, 30)
        tracker.observe(req)
        tracker.observe(rep)
        assert len(tracker.transactions) == 1
        t = tracker.transactions[0]
        assert t.round_trip == 30
        assert t.network_part == 10 + 14
        assert t.service_part == 6
        assert not t.is_memory

    def test_fifo_matching_same_stream(self):
        tracker = TransactionTracker()
        r1 = delivered(0, 5, TrafficClass.CACHE_REQUEST, 0, 10)
        r2 = delivered(0, 5, TrafficClass.CACHE_REQUEST, 2, 12)
        p1 = delivered(5, 0, TrafficClass.CACHE_REPLY, 16, 28)
        p2 = delivered(5, 0, TrafficClass.CACHE_REPLY, 18, 32)
        tracker.observe_all([r1, r2, p1, p2])
        assert len(tracker.transactions) == 2
        assert tracker.transactions[0].request is r1
        assert tracker.transactions[1].request is r2

    def test_unmatched_reply_counted(self):
        tracker = TransactionTracker()
        tracker.observe(delivered(5, 0, TrafficClass.CACHE_REPLY, 10, 20))
        assert tracker.unmatched_replies == 1
        assert not tracker.transactions

    def test_memory_vs_cache_split(self):
        tracker = TransactionTracker()
        tracker.observe_all(
            [
                delivered(0, 5, TrafficClass.CACHE_REQUEST, 0, 8),
                delivered(5, 0, TrafficClass.CACHE_REPLY, 14, 24),
                delivered(1, 0, TrafficClass.MEM_REQUEST, 0, 6, thread=1),
                delivered(0, 1, TrafficClass.MEM_REPLY, 134, 140, thread=1),
            ]
        )
        assert tracker.round_trips(memory=False).tolist() == [24.0]
        assert tracker.round_trips(memory=True).tolist() == [140.0]
        s = tracker.summary()
        assert s["cache_count"] == 1 and s["mem_count"] == 1
        assert s["mem_service"] == 128

    def test_undelivered_rejected(self):
        tracker = TransactionTracker()
        with pytest.raises(ValueError):
            tracker.observe(Packet(0, 1, TrafficClass.CACHE_REQUEST, 0))


class TestEndToEnd:
    def test_simulated_round_trips(self):
        """Full loop: mapped traffic with replies through the simulator;
        memory round-trips must exceed cache round-trips by roughly the
        DRAM latency."""
        model = MeshLatencyModel(Mesh.square(4))
        apps = (
            Application.uniform("a", 8, cache_rate=10.0, mem_rate=4.0),
            Application.uniform("b", 8, cache_rate=10.0, mem_rate=4.0),
        )
        instance = OBMInstance(model, Workload(apps))
        traffic = MappedWorkloadTraffic(
            instance, Mapping(np.arange(16)),
            cycles_per_unit=1000, generate_replies=True,
            l2_latency=6, memory_latency=128, seed=0,
        )
        sim = NoCSimulator(instance.mesh, traffic, engine="fastpath")
        sim.run(warmup=500, measure=8_000)
        tracker = TransactionTracker()
        tracker.observe_all(
            [p for p in sim.network.delivered if p.created_at >= 500]
        )
        s = tracker.summary()
        assert s["cache_count"] > 20 and s["mem_count"] > 5
        # DRAM latency dominates the memory round trip.
        assert s["mem_round_trip"] > s["cache_round_trip"] + 100
        assert 100 < s["mem_service"] < 160
        assert 0 < s["cache_service"] < 20
