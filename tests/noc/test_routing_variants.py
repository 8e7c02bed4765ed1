"""Tests of the alternative routing functions, arbitration policies, and
network telemetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import Mesh
from repro.noc.network import Network, NetworkConfig
from repro.noc.packet import Packet, TrafficClass
from repro.noc.router import RouterConfig
from repro.noc.routing import (
    ROUTE_FUNCTIONS,
    Port,
    next_tile,
    route_path,
    topology_tables,
    west_first_route,
    xy_route,
    yx_route,
)
from repro.noc.telemetry import NetworkTelemetry


class TestRouteFunctions:
    @pytest.mark.parametrize("name", sorted(ROUTE_FUNCTIONS))
    def test_all_routes_minimal(self, name):
        mesh = Mesh.square(5)
        fn = ROUTE_FUNCTIONS[name]
        rng = np.random.default_rng(0)
        for _ in range(100):
            src, dst = rng.integers(25, size=2)
            path = route_path(mesh, int(src), int(dst), fn)
            assert len(path) - 1 == mesh.hops(int(src), int(dst))

    def test_yx_is_transpose_of_xy(self):
        mesh = Mesh.square(4)
        # From (0,0) to (2,2): XY goes EAST first, YX goes SOUTH first.
        dst = mesh.tile(2, 2)
        assert xy_route(mesh, 0, dst) == Port.EAST
        assert yx_route(mesh, 0, dst) == Port.SOUTH

    def test_west_first_goes_west_first(self):
        mesh = Mesh.square(4)
        src = mesh.tile(0, 3)
        dst = mesh.tile(3, 0)
        assert west_first_route(mesh, src, dst) == Port.WEST

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_west_first_never_turns_into_west(self, seed):
        """The turn-model invariant: after any non-WEST move, the packet
        never moves WEST again."""
        mesh = Mesh(5, 6)
        rng = np.random.default_rng(seed)
        src, dst = rng.integers(mesh.n_tiles, size=2)
        path = route_path(mesh, int(src), int(dst), west_first_route)
        moved_non_west = False
        for a, b in zip(path, path[1:]):
            _, ca = mesh.coords(a)
            _, cb = mesh.coords(b)
            if cb < ca:  # WEST move
                assert not moved_non_west
            else:
                moved_non_west = True

    def test_all_routes_local_at_destination(self):
        mesh = Mesh.square(3)
        for fn in ROUTE_FUNCTIONS.values():
            assert fn(mesh, 4, 4) == Port.LOCAL


class TestTopologyTables:
    """The vector engine's shared route/neighbour tables equal the scalar
    route function and ``next_tile`` pair by pair."""

    @pytest.mark.parametrize("routing", sorted(ROUTE_FUNCTIONS))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 5), (8, 8)])
    def test_tables_match_scalar_functions(self, routing, shape):
        mesh = Mesh(*shape)
        T = mesh.n_tiles
        route, nei = topology_tables(*shape, routing)
        fn = ROUTE_FUNCTIONS[routing]
        assert route.shape == (T * T,) and route.dtype == np.int64
        for t in range(T):
            for d in range(T):
                assert route[t * T + d] == fn(mesh, t, d)
        assert nei.shape == (T, len(Port)) and nei.dtype == np.int64
        for t in range(T):
            assert nei[t, Port.LOCAL] == -1
            for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH):
                try:
                    expected = next_tile(mesh, t, port)
                except ValueError:
                    expected = -1
                assert nei[t, port] == expected

    def test_tables_are_read_only(self):
        route, nei = topology_tables(3, 5, "xy")
        for table in (route, nei):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    def test_routings_get_their_own_tables(self):
        xy, _ = topology_tables(4, 4, "xy")
        yx, _ = topology_tables(4, 4, "yx")
        assert not np.array_equal(xy, yx)
        assert topology_tables(4, 4, "xy")[0] is xy


class TestNetworkRoutingOption:
    @pytest.mark.parametrize("routing", sorted(ROUTE_FUNCTIONS))
    def test_network_delivers_under_each_routing(self, routing):
        net = Network(Mesh.square(4), NetworkConfig(routing=routing))
        rng = np.random.default_rng(1)
        for _ in range(80):
            src, dst = rng.integers(16, size=2)
            net.submit(Packet(int(src), int(dst), TrafficClass.CACHE_REQUEST, net.now))
            net.step()
        net.drain()
        net.assert_conserved()

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(routing="adaptive-magic")

    def test_zero_load_latency_routing_invariant(self):
        """All minimal routes produce identical uncontended latency."""
        latencies = {}
        for routing in ROUTE_FUNCTIONS:
            net = Network(Mesh.square(4), NetworkConfig(routing=routing))
            p = Packet(1, 14, TrafficClass.CACHE_REQUEST, net.now)
            net.submit(p)
            net.drain()
            latencies[routing] = p.latency
        assert len(set(latencies.values())) == 1


class TestArbitration:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(arbitration="random")

    @pytest.mark.parametrize("arbitration", ["round_robin", "oldest_first"])
    def test_network_works_under_policy(self, arbitration):
        config = NetworkConfig(router=RouterConfig(arbitration=arbitration))
        net = Network(Mesh.square(4), config)
        rng = np.random.default_rng(2)
        for _ in range(60):
            src, dst = rng.integers(16, size=2)
            if src != dst:
                net.submit(Packet(int(src), int(dst), TrafficClass.CACHE_REPLY, net.now))
            net.step()
        net.drain()
        net.assert_conserved()

    def test_oldest_first_reduces_tail_latency_on_hotspot(self):
        """Age-based arbitration should not increase the worst latency of
        a contended hotspot (it serves stragglers first)."""
        results = {}
        for arbitration in ("round_robin", "oldest_first"):
            config = NetworkConfig(router=RouterConfig(arbitration=arbitration))
            net = Network(Mesh.square(4), config)
            packets = []
            for src in (0, 2, 8, 10):
                for _ in range(8):
                    p = Packet(src, 5, TrafficClass.CACHE_REPLY, net.now)
                    packets.append(p)
                    net.submit(p)
            net.drain()
            results[arbitration] = max(p.latency for p in packets)
        assert results["oldest_first"] <= results["round_robin"] * 1.25


class TestTelemetry:
    def test_snapshot_counts_activity(self):
        net = Network(Mesh.square(4))
        telemetry = NetworkTelemetry(net)
        p = Packet(0, 15, TrafficClass.CACHE_REPLY, net.now)
        net.submit(p)
        net.drain()
        snap = telemetry.snapshot()
        # 5 flits x 6 hops of links each.
        assert snap.total_flit_hops == 5 * 6
        assert snap.router_flits.sum() == 5 * 7  # 7 routers traversed
        assert snap.cycles == net.now

    def test_reset_zeroes_baseline(self):
        net = Network(Mesh.square(4))
        telemetry = NetworkTelemetry(net)
        net.submit(Packet(0, 3, TrafficClass.CACHE_REQUEST, net.now))
        net.drain()
        telemetry.reset()
        assert telemetry.snapshot().total_flit_hops == 0

    def test_router_grid_shape(self):
        net = Network(Mesh.square(4))
        telemetry = NetworkTelemetry(net)
        assert telemetry.snapshot().router_grid(net.mesh).shape == (4, 4)

    def test_hottest_links(self):
        net = Network(Mesh.square(4))
        telemetry = NetworkTelemetry(net)
        for _ in range(5):
            net.submit(Packet(0, 3, TrafficClass.CACHE_REQUEST, net.now))
            net.drain()
        hottest = telemetry.snapshot().hottest_links(2)
        assert len(hottest) == 2
        (tile, port), util = hottest[0]
        assert port == Port.EAST  # all traffic flows east along row 0
        assert util > 0
