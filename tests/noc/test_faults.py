"""Fault injection: schedules, degraded routing, loss recovery.

Every scenario is fully deterministic — fault windows are explicit and
stochastic drops replay from a seed — so the assertions pin exact
counter values wherever the behaviour is scenario-defined and fall back
to structural properties (conservation, delivery accounting) where the
precise numbers are configuration details.
"""

from __future__ import annotations

import pytest

from repro.core.latency import Mesh
from repro.noc import (
    FaultConfig,
    FaultSchedule,
    LinkDownWindow,
    Network,
    Packet,
    Port,
    RouterStallWindow,
    TrafficClass,
    UniformRandomTraffic,
    detour_port,
)
from repro.obs.sampler import MetricsSampler


def _packet(src: int, dst: int, length: int = 1, created_at: int = 0) -> Packet:
    return Packet(
        src=src,
        dst=dst,
        traffic_class=TrafficClass.CACHE_REQUEST,
        created_at=created_at,
        length=length,
    )


def _drive(net: Network, packets, cycles_between: int = 0) -> None:
    for p in packets:
        net.submit(p)
        for _ in range(cycles_between):
            net.step()
    net.drain()
    net.assert_conserved()


class TestScheduleConstruction:
    def test_local_port_is_not_a_link(self):
        with pytest.raises(ValueError):
            LinkDownWindow(0, Port.LOCAL, 0, 10)

    def test_windows_must_be_ordered(self):
        with pytest.raises(ValueError):
            LinkDownWindow(0, Port.EAST, 10, 10)
        with pytest.raises(ValueError):
            RouterStallWindow(0, 5, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=-1)
        with pytest.raises(ValueError):
            FaultConfig(nack_delay=0)

    def test_trivial_schedule(self):
        assert FaultSchedule().is_trivial
        assert not FaultSchedule(
            link_windows=(LinkDownWindow(0, Port.EAST, 0, 1),)
        ).is_trivial
        assert not FaultSchedule().with_config(drop_rate=0.1).is_trivial

    def test_random_schedule_is_seed_deterministic(self):
        mesh = Mesh.square(4)
        a = FaultSchedule.random(mesh, seed=7, n_link_faults=3, n_stalls=2)
        b = FaultSchedule.random(mesh, seed=7, n_link_faults=3, n_stalls=2)
        assert a == b
        assert a != FaultSchedule.random(mesh, seed=8, n_link_faults=3, n_stalls=2)
        for w in a.link_windows:
            assert 0 <= w.tile < mesh.n_tiles


class TestDetourPort:
    def test_prefers_productive_port(self):
        mesh = Mesh.square(4)
        # 5 -> 7 is due east; with EAST dead the only distance-preserving
        # moves are the perpendicular sidesteps.
        port = detour_port(
            mesh, 5, 7, lambda t, p: p != Port.EAST, Port.EAST
        )
        assert port in (Port.NORTH, Port.SOUTH)

    def test_prefers_perpendicular_over_backtrack(self):
        mesh = Mesh.square(4)
        # All ports live except EAST: WEST (backtrack) must rank below the
        # sidesteps even though port iteration order lists it earlier.
        port = detour_port(mesh, 5, 6, lambda t, p: p != Port.EAST, Port.EAST)
        assert port != Port.WEST

    def test_cut_off_router_returns_none(self):
        mesh = Mesh.square(4)
        assert detour_port(mesh, 5, 7, lambda t, p: False, Port.EAST) is None


class TestLinkOutage:
    def test_preroute_outage_takes_a_detour(self):
        mesh = Mesh.square(4)
        schedule = FaultSchedule(
            link_windows=(LinkDownWindow(5, Port.EAST, 0, 10_000),)
        )
        net = Network(mesh, faults=schedule)
        _drive(net, [_packet(5, 7)])
        assert len(net.delivered) == 1
        stats = net.fault_stats
        assert stats.reroutes >= 1
        assert stats.link_down_events == 1
        assert stats.packets_dropped == 0  # rerouted, never lost a flit
        assert net.delivered[0].retries == 0

    def test_detour_costs_extra_hops(self):
        mesh = Mesh.square(4)
        clean = Network(mesh)
        _drive(clean, [_packet(5, 7)])
        faulted = Network(
            mesh,
            faults=FaultSchedule(
                link_windows=(LinkDownWindow(5, Port.EAST, 0, 10_000),)
            ),
        )
        _drive(faulted, [_packet(5, 7)])
        assert faulted.delivered[0].latency > clean.delivered[0].latency

    def test_midflight_outage_triggers_nack_retry(self):
        mesh = Mesh.square(4)
        # A 5-flit packet 0 -> 3 streams east for many cycles; killing
        # (0, EAST) at cycle 6 catches it mid-wormhole.
        schedule = FaultSchedule(
            link_windows=(LinkDownWindow(0, Port.EAST, 6, 10_000),)
        )
        net = Network(mesh, faults=schedule)
        _drive(net, [_packet(0, 3, length=5)])
        stats = net.fault_stats
        assert stats.packets_dropped >= 1
        assert stats.flits_dropped >= 1
        assert stats.packets_retried >= 1
        assert len(net.delivered) == 1
        packet = net.delivered[0]
        assert packet.retries >= 1
        # Recovery cost (NACK delay + re-injection + detour) is part of
        # the measured latency because created_at is preserved.
        assert packet.latency > 20

    def test_link_up_restores_the_direct_route(self):
        mesh = Mesh.square(4)
        schedule = FaultSchedule(
            link_windows=(LinkDownWindow(5, Port.EAST, 0, 50),)
        )
        net = Network(mesh, faults=schedule)
        net.submit(_packet(5, 7))
        net.drain()
        net.run(60)  # ride past the link-up event at cycle 50
        late = _packet(5, 7, created_at=net.now)
        net.submit(late)
        net.drain()
        net.assert_conserved()
        assert net.fault_stats.link_up_events == 1
        # Second packet sees a healed network: minimal latency again.
        clean = Network(mesh)
        _drive(clean, [_packet(5, 7)])
        assert late.latency == clean.delivered[0].latency


class TestStochasticDrops:
    def test_drops_recover_and_conserve(self):
        mesh = Mesh.square(4)
        schedule = FaultSchedule(config=FaultConfig(drop_rate=0.01, seed=3))
        net = Network(mesh, faults=schedule, invariants=True)
        traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=11)
        offered = 0
        for _ in range(500):
            for p in traffic.packets_for_cycle(net.now):
                net.submit(p)
                offered += 1
            net.step()
        net.drain()
        net.assert_conserved()
        stats = net.fault_stats
        assert stats.packets_dropped > 0  # the fault actually fired
        assert len(net.delivered) + len(net.lost_packets) == offered
        assert stats.packets_lost == len(net.lost_packets)

    def test_same_seed_same_outcome(self):
        mesh = Mesh.square(4)

        def run() -> tuple:
            net = Network(
                mesh, faults=FaultSchedule(config=FaultConfig(drop_rate=0.02, seed=5))
            )
            traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=1)
            for _ in range(300):
                for p in traffic.packets_for_cycle(net.now):
                    net.submit(p)
                net.step()
            net.drain()
            return (
                net.now,
                net.flits_dropped,
                tuple(sorted(p.latency for p in net.delivered)),
            )

        assert run() == run()

    def test_retry_exhaustion_loses_the_packet(self):
        mesh = Mesh.square(4)
        # Sever every route out of tile 0: both outgoing links die before
        # anything moves, so each injection attempt drops at the link and
        # the packet burns through its whole retry budget.
        schedule = FaultSchedule(
            link_windows=(
                LinkDownWindow(0, Port.EAST, 0, 10_000),
                LinkDownWindow(0, Port.SOUTH, 0, 10_000),
            ),
            config=FaultConfig(max_retries=2),
        )
        net = Network(mesh, faults=schedule)
        net.submit(_packet(0, 3))
        net.drain()
        net.assert_conserved()
        assert len(net.delivered) == 0
        assert len(net.lost_packets) == 1
        stats = net.fault_stats
        assert stats.packets_retried == 2
        assert stats.packets_lost == 1
        assert net.lost_packets[0].retries == 2


class TestRouterStalls:
    def test_stall_adds_latency_without_loss(self):
        mesh = Mesh.square(4)
        clean = Network(mesh)
        _drive(clean, [_packet(0, 3)])
        base = clean.delivered[0].latency

        stalled = Network(
            mesh,
            faults=FaultSchedule(stall_windows=(RouterStallWindow(1, 2, 35),)),
        )
        _drive(stalled, [_packet(0, 3)])
        assert stalled.fault_stats.stall_windows == 1
        assert stalled.fault_stats.flits_dropped == 0
        assert stalled.delivered[0].latency > base


class TestSurfacing:
    def test_telemetry_reports_dropped_flits(self):
        mesh = Mesh.square(4)
        schedule = FaultSchedule(
            link_windows=(LinkDownWindow(0, Port.EAST, 6, 10_000),)
        )
        net = Network(mesh, faults=schedule)
        sampler = MetricsSampler()
        sampler.attach(net)
        _drive(net, [_packet(0, 3, length=5)])
        sampler.finish(net)
        assert sum(sampler.columns["flits_dropped"]) == net.flits_dropped > 0

    def test_fault_stats_round_trip(self):
        mesh = Mesh.square(4)
        net = Network(
            mesh,
            faults=FaultSchedule(
                link_windows=(LinkDownWindow(5, Port.EAST, 0, 10_000),)
            ),
        )
        _drive(net, [_packet(5, 7)])
        d = net.fault_stats.as_dict()
        assert d["reroutes"] >= 1
        assert net.fault_stats.any_faults
        assert "reroutes" in net.fault_stats.report()

    def test_faultless_network_exposes_no_stats(self):
        net = Network(Mesh.square(4))
        assert net.fault_stats is None
        assert net.lost_packets == []

    def test_simulator_surfaces_fault_and_invariant_counters(self):
        from repro.noc import NoCSimulator

        mesh = Mesh.square(4)
        schedule = FaultSchedule(
            link_windows=(LinkDownWindow(5, Port.EAST, 120, 400),)
        )
        traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=4)
        sim = NoCSimulator(mesh, traffic, faults=schedule, invariants=True)
        result = sim.run(warmup=100, measure=400)
        assert result.fault_stats is not None
        assert result.fault_stats.link_down_events == 1
        assert result.invariant_checks > 0
        # Every measured packet is drained to an outcome: ejected or lost.
        assert result.packets_delivered + result.packets_lost == result.packets_offered
        assert 0.0 <= result.delivery_ratio <= 1.0

    def test_simulator_defaults_stay_fault_free(self):
        from repro.noc import NoCSimulator

        mesh = Mesh.square(4)
        traffic = UniformRandomTraffic(mesh.n_tiles, 0.05, seed=4)
        result = NoCSimulator(mesh, traffic).run(warmup=50, measure=200)
        assert result.fault_stats is None
        assert result.packets_lost == 0
        assert result.invariant_checks == 0
