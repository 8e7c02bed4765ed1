"""Tests of the vector engine's shared topology tables and per-link
activity accounting."""

import numpy as np
import pytest

from repro.core.latency import Mesh
from repro.noc.network import Network
from repro.noc.packet import Packet, TrafficClass
from repro.noc.routing import Port, next_tile, topology_tables, xy_route
from repro.obs.sampler import MetricsSampler


class TestTopologyTables:
    """The vector engine's shared route/neighbour tables equal
    ``xy_route`` and ``next_tile`` pair by pair."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 5), (8, 8)])
    def test_tables_match_scalar_functions(self, shape):
        mesh = Mesh(*shape)
        T = mesh.n_tiles
        route, nei = topology_tables(*shape)
        assert route.shape == (T * T,) and route.dtype == np.int64
        for t in range(T):
            for d in range(T):
                assert route[t * T + d] == xy_route(mesh, t, d)
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
        route, nei = topology_tables(3, 5)
        for table in (route, nei):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


class TestTelemetry:
    def test_snapshot_counts_activity(self):
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        net.submit(Packet(0, 15, TrafficClass.CACHE_REPLY, net.now))
        net.drain()
        sampler.finish(net)
        (window,) = sampler.columns["window"]
        assert window == net.now
        # 5 flits x 6 hops of links each.
        assert round(sum(sampler.link_util[0]) * window) == 5 * 6
        assert sum(r.flits_routed for r in net.routers) == 5 * 7  # 7 routers

    def test_reset_zeroes_baseline(self):
        net = Network(Mesh.square(4))
        net.submit(Packet(0, 3, TrafficClass.CACHE_REQUEST, net.now))
        net.drain()
        sampler = MetricsSampler()
        sampler.attach(net)
        net.step()
        sampler.finish(net)
        assert sampler.link_util == [[0.0] * len(net.links)]

    def test_hottest_links(self):
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        for _ in range(5):
            net.submit(Packet(0, 3, TrafficClass.CACHE_REQUEST, net.now))
            net.drain()
        sampler.finish(net)
        utils = sampler.link_util[0]
        hottest = max(range(len(utils)), key=utils.__getitem__)
        # All traffic flows east along row 0; the first such link wins ties.
        assert sampler.link_names[hottest] == "0:EAST"
        assert utils[hottest] == sampler.columns["max_link_util"][0] > 0
