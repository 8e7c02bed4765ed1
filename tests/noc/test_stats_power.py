"""Tests of latency statistics and the power model."""

import numpy as np
import pytest

from repro.core.latency import Mesh
from repro.noc.packet import TrafficClass
from repro.noc.power import ActivityCounts, PowerModel, PowerParams
from repro.noc.stats import LatencyStats, LatencySummary


def stats_of(*rows):
    """Stats of ``(latency, app)`` cache-request rows from tile 0 to 1."""
    latency, app = zip(*rows)
    n = len(rows)
    return LatencyStats(
        latency=latency,
        app=app,
        tclass=[TrafficClass.CACHE_REQUEST] * n,
        src=[0] * n,
        dst=[1] * n,
    )


class TestLatencySummary:
    def test_of(self):
        s = LatencySummary.of(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.max == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.of(np.array([]))


class TestLatencyStats:
    def test_apl_by_app(self):
        stats = stats_of((10, 0), (20, 0), (30, 1))
        apls = stats.apl_by_app()
        assert apls[0] == pytest.approx(15.0)
        assert apls[1] == pytest.approx(30.0)
        assert stats.max_apl() == pytest.approx(30.0)
        assert stats.dev_apl() == pytest.approx(7.5)
        assert stats.g_apl() == pytest.approx(20.0)

    def test_by_class(self):
        stats = LatencyStats(
            latency=[10, 40],
            app=[-1, -1],
            tclass=[TrafficClass.CACHE_REQUEST, TrafficClass.MEM_REQUEST],
            src=[0, 0],
            dst=[1, 1],
        )
        assert stats.by_class(TrafficClass.CACHE_REQUEST).mean == 10
        assert stats.by_class(TrafficClass.MEM_REQUEST).mean == 40
        assert stats.classes() == [TrafficClass.CACHE_REQUEST, TrafficClass.MEM_REQUEST]

    def test_empty_queries_raise(self):
        stats = LatencyStats()
        with pytest.raises(ValueError):
            stats.g_apl()
        with pytest.raises(ValueError):
            stats.max_apl()

    def test_report_renders(self):
        text = stats_of((12, 2)).report()
        assert "app 2" in text and "CACHE_REQUEST" in text

    def test_by_app_summary(self):
        s = stats_of((10, 0), (20, 0)).by_app(0)
        assert s.count == 2
        assert s.mean == pytest.approx(15.0)

    def test_histogram_by_app(self):
        from repro.obs.metrics import LATENCY_BUCKETS

        stats = stats_of((10, 0), (20, 0), (30, 0), (40, 1))
        hists = stats.histogram_by_app()
        assert sorted(hists) == [0, 1]
        assert hists[0].total == 3
        assert hists[1].total == 1
        assert hists[0].bounds == LATENCY_BUCKETS  # shared layout: mergeable
        assert hists[0].sum == pytest.approx(60.0)

    def test_percentiles_by_app_match_numpy(self):
        latencies = list(range(1, 101))
        stats = stats_of(*((lat, 0) for lat in latencies))
        pct = stats.percentiles_by_app()[0]
        assert pct["p50"] == pytest.approx(np.percentile(latencies, 50))
        assert pct["p95"] == pytest.approx(np.percentile(latencies, 95))
        assert pct["p99"] == pytest.approx(np.percentile(latencies, 99))

    def test_histogram_percentiles_bracket_exact(self):
        """Bucketed quantiles agree with exact ones to within one bucket."""
        stats = stats_of(*((lat, 0) for lat in range(5, 200, 3)))
        exact = stats.percentiles_by_app()[0]
        bucketed = stats.histogram_by_app()[0].percentiles()
        for key in ("p50", "p95", "p99"):
            # Buckets are 2-per-octave: within ~50% relative is guaranteed.
            assert bucketed[key] == pytest.approx(exact[key], rel=0.5)


class TestPowerModel:
    def test_energy_accumulation(self):
        model = PowerModel(Mesh.square(2))
        counts = ActivityCounts(
            flit_router_traversals=100,
            flit_link_traversals=80,
            buffer_writes=100,
            cycles=1000,
        )
        p = model.params
        expected = (
            100 * (p.e_router_traversal + p.e_buffer_read)
            + 100 * p.e_buffer_write
            + 80 * p.e_link_traversal
        )
        assert model.dynamic_energy(counts) == pytest.approx(expected)

    def test_power_scales_with_activity(self):
        model = PowerModel(Mesh.square(4))
        low = ActivityCounts(100, 80, 100, 1000)
        high = ActivityCounts(1000, 800, 1000, 1000)
        assert model.power(high).dynamic == pytest.approx(
            10 * model.power(low).dynamic
        )

    def test_static_scales_with_routers(self):
        small = PowerModel(Mesh.square(2))
        large = PowerModel(Mesh.square(4))
        counts = ActivityCounts(1, 1, 1, 100)
        assert large.power(counts).static == pytest.approx(
            4 * small.power(counts).static
        )

    def test_total(self):
        model = PowerModel(Mesh.square(2))
        b = model.power(ActivityCounts(10, 10, 10, 100))
        assert b.total == pytest.approx(b.dynamic + b.static)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PowerParams(e_link_traversal=0)
        with pytest.raises(ValueError):
            ActivityCounts(1, 1, 1, 0)
        with pytest.raises(ValueError):
            ActivityCounts(-1, 1, 1, 10)
