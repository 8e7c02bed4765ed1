"""Tests of the simulation driver and the sim-vs-analytic-model validation.

The closing test of the reproduction's measurement loop: the cycle-level
simulator must agree with the analytic ``TC``/``TM`` arrays on *who has
higher latency* and, up to the model's convention offset, on the values.
"""

import numpy as np
import pytest

from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.problem import Mapping, OBMInstance
from repro.core.workload import Application, Workload
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic, UniformRandomTraffic


class TestSimulatorHarness:
    def test_runs_and_conserves(self):
        sim = NoCSimulator(
            Mesh.square(4), UniformRandomTraffic(n_tiles=16, injection_rate=0.05, seed=0)
        )
        res = sim.run(warmup=200, measure=1000)
        assert res.stats.n_packets > 0
        assert res.delivery_ratio == pytest.approx(1.0)
        assert res.power.dynamic > 0

    def test_invalid_windows(self):
        sim = NoCSimulator(
            Mesh.square(4), UniformRandomTraffic(n_tiles=16, injection_rate=0.05, seed=0)
        )
        with pytest.raises(ValueError):
            sim.run(warmup=-1, measure=10)
        with pytest.raises(ValueError):
            sim.run(warmup=0, measure=0)

    def test_warmup_packets_excluded(self):
        sim = NoCSimulator(
            Mesh.square(4), UniformRandomTraffic(n_tiles=16, injection_rate=0.2, seed=1)
        )
        res = sim.run(warmup=300, measure=300)
        # every measured packet was created inside the measurement window
        assert res.packets_delivered <= res.packets_offered + 20

    def test_activity_counts_positive(self):
        sim = NoCSimulator(
            Mesh.square(4), UniformRandomTraffic(n_tiles=16, injection_rate=0.1, seed=2)
        )
        res = sim.run(warmup=100, measure=500)
        assert res.counts.flit_router_traversals > res.counts.flit_link_traversals
        assert res.counts.buffer_writes > 0


class TestResultEdgeCases:
    def test_delivery_ratio_zero_offered_is_one(self):
        """No offered packets is a perfect (vacuous) delivery, not 0/0."""
        from repro.noc.simulator import SimulationResult
        from repro.noc.stats import LatencyStats

        res = SimulationResult(
            stats=LatencyStats(),
            power=None,
            counts=None,
            cycles=100,
            packets_offered=0,
            packets_delivered=0,
        )
        assert res.delivery_ratio == 1.0

    def test_delivery_ratio_partial(self):
        from repro.noc.simulator import SimulationResult
        from repro.noc.stats import LatencyStats

        res = SimulationResult(
            stats=LatencyStats(),
            power=None,
            counts=None,
            cycles=100,
            packets_offered=10,
            packets_delivered=7,
        )
        assert res.delivery_ratio == pytest.approx(0.7)

    @pytest.mark.parametrize("engine", ["fastpath", "vector"])
    def test_zero_rate_window_offers_nothing(self, engine):
        """A window with no traffic at all: zero offered packets, a clean
        drain, and delivery_ratio defined as 1.0."""
        sim = NoCSimulator(
            Mesh.square(4),
            UniformRandomTraffic(n_tiles=16, injection_rate=0.0, seed=0),
            engine=engine,
        )
        res = sim.run(warmup=50, measure=200)
        assert res.packets_offered == 0
        assert res.packets_delivered == 0
        assert res.delivery_ratio == 1.0
        assert res.stats.n_packets == 0
        assert res.counts.flit_router_traversals == 0

    @pytest.mark.parametrize("engine", ["fastpath", "vector"])
    def test_zero_warmup_is_valid(self, engine):
        sim = NoCSimulator(
            Mesh.square(4),
            UniformRandomTraffic(n_tiles=16, injection_rate=0.05, seed=3),
            engine=engine,
        )
        res = sim.run(warmup=0, measure=400)
        assert res.packets_offered > 0
        assert res.packets_delivered == res.packets_offered

    def test_fastpath_result_reports_engine(self):
        sim = NoCSimulator(
            Mesh.square(4),
            UniformRandomTraffic(n_tiles=16, injection_rate=0.05, seed=0),
            engine="fastpath",
        )
        res = sim.run(warmup=50, measure=200)
        assert res.engine == "fastpath"


@pytest.mark.slow
class TestSimVsAnalyticModel:
    """Measured mean latency per source tile must track TC(k) (up to the
    constant destination-router offset the analytic model folds away)."""

    def setup_instance(self):
        model = MeshLatencyModel(Mesh.square(4))
        apps = (
            Application("a", np.full(8, 12.0), np.full(8, 2.0)),
            Application("b", np.full(8, 12.0), np.full(8, 2.0)),
        )
        return OBMInstance(model, Workload(apps))

    def test_measured_cache_latency_tracks_tc(self):
        inst = self.setup_instance()
        mapping = Mapping(np.arange(16))
        traffic = MappedWorkloadTraffic(inst, mapping, cycles_per_unit=1000, seed=0)
        sim = NoCSimulator(inst.mesh, traffic, engine="fastpath")
        res = sim.run(warmup=1000, measure=12_000)

        from collections import defaultdict

        by_src = defaultdict(list)
        for latency, src in (
            (p.latency, p.src)
            for p in sim.network.delivered
            if p.created_at >= 1000 and not p.traffic_class.is_memory
        ):
            by_src[src].append(latency)
        measured = np.array([np.mean(by_src[k]) for k in range(16)])
        tc = inst.tc  # analytic, with a different constant offset convention

        # Pearson correlation across source tiles should be strong.
        corr = np.corrcoef(measured, tc)[0, 1]
        assert corr > 0.9
        # Slope of measured vs analytic ~ 1 (same per-hop cost).
        slope = np.polyfit(tc, measured, 1)[0]
        assert 0.7 < slope < 1.4

    def test_low_load_queuing_is_small(self):
        """Paper: td_q observed at 0-1 cycles; at these loads the measured
        latency should exceed the zero-load bound by only a little."""
        inst = self.setup_instance()
        mapping = Mapping(np.arange(16))
        traffic = MappedWorkloadTraffic(inst, mapping, cycles_per_unit=1000, seed=1)
        sim = NoCSimulator(inst.mesh, traffic, engine="fastpath")
        res = sim.run(warmup=500, measure=6000)
        mesh = inst.mesh
        excess = []
        for p in sim.network.delivered:
            if p.created_at < 500 or p.src == p.dst:
                continue
            hops = mesh.hops(p.src, p.dst)
            zero_load = 4 * hops + 3 + (p.length - 1)
            excess.append(p.latency - zero_load)
        assert np.mean(excess) < 2.0  # average queuing under two cycles
