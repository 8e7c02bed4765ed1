"""Per-link activity as the time-series sampler reports it.

:class:`~repro.obs.sampler.MetricsSampler` reads the links' own
``flits_carried`` tallies; these tests pin its windowed deltas and
utilisation views against the network's counters.
"""

import numpy as np

from repro.core.latency import Mesh
from repro.noc.network import Network
from repro.noc.packet import Packet, TrafficClass
from repro.obs.sampler import MetricsSampler


def run_traffic(net: Network, n: int, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n):
        src, dst = rng.integers(net.mesh.n_tiles, size=2)
        net.submit(
            Packet(
                src=int(src),
                dst=int(dst),
                traffic_class=TrafficClass.CACHE_REQUEST,
                created_at=net.now,
            )
        )
    net.drain()


def link_flits(sampler: MetricsSampler) -> dict[str, int]:
    """Flits each link carried over all sampled windows, by link name."""
    totals = dict.fromkeys(sampler.link_names, 0)
    for window, utils in zip(sampler.columns["window"], sampler.link_util):
        for name, util in zip(sampler.link_names, utils):
            totals[name] += round(util * window)
    return totals


def carried(net: Network) -> int:
    return sum(link.flits_carried for link in net.links.values())


class TestSnapshotViews:
    def test_link_utilisation_zero_cycles(self):
        """A window spanning zero cycles adds no sample, not a NaN row."""
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        sampler.finish(net)
        assert sampler.n_samples == 0
        assert sampler.link_util == []

    def test_link_utilisation_is_flits_per_cycle(self):
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        run_traffic(net, 40, seed=0)
        sampler.finish(net)
        assert sampler.n_samples == 1
        (window,) = sampler.columns["window"]
        assert window == net.now
        expected = [net.links[k].flits_carried / window for k in sorted(net.links)]
        assert sampler.link_util[0] == expected

    def test_hottest_links_orders_and_truncates(self):
        """Row-0 traffic from tiles 0 and 1 to tile 3: the two links east
        of tile 1 carry both streams, the one east of tile 0 only one."""
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        for _ in range(3):
            for src in (0, 1):
                net.submit(Packet(src, 3, TrafficClass.CACHE_REQUEST, net.now))
            net.drain()
        sampler.finish(net)
        flits = link_flits(sampler)
        top = sorted(flits, key=lambda name: -flits[name])[:3]
        assert top == ["1:EAST", "2:EAST", "0:EAST"]
        assert flits["1:EAST"] == flits["2:EAST"] == 2 * flits["0:EAST"] == 6
        assert sampler.columns["max_link_util"][0] == max(sampler.link_util[0])

    def test_total_flit_hops(self):
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        run_traffic(net, 40, seed=7)
        sampler.finish(net)
        assert sum(link_flits(sampler).values()) == carried(net) > 0


class TestResetDiff:
    def test_snapshot_counts_only_since_baseline(self):
        """A sampler attached mid-run excludes activity before attaching."""
        net = Network(Mesh.square(4))
        run_traffic(net, 50, seed=1)
        sampler = MetricsSampler()
        sampler.attach(net)
        sampler.finish(net)
        assert sampler.n_samples == 0

        injected, hops = net.flits_injected, carried(net)
        run_traffic(net, 50, seed=2)
        sampler.finish(net)
        assert sampler.columns["flits_injected"] == [net.flits_injected - injected]
        assert sum(link_flits(sampler).values()) == carried(net) - hops > 0

    def test_reset_rebaselines(self):
        """Each sample counts from the previous one."""
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        run_traffic(net, 50, seed=3)
        sampler.finish(net)
        first = carried(net)
        sampler.finish(net)  # no cycle has passed: no empty window
        run_traffic(net, 50, seed=4)
        sampler.finish(net)
        assert sampler.n_samples == 2
        per_window = [
            round(sum(u) * w)
            for u, w in zip(sampler.link_util, sampler.columns["window"])
        ]
        assert per_window == [first, carried(net) - first]

    def test_successive_windows_sum_to_total(self):
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        for seed in (4, 5, 6):
            run_traffic(net, 40, seed=seed)
            sampler.finish(net)
        cols = sampler.columns
        assert sum(cols["window"]) == net.now
        assert sum(cols["flits_injected"]) == net.flits_injected
        assert sum(cols["flits_ejected"]) == net.flits_ejected
        assert sum(link_flits(sampler).values()) == carried(net)

    def test_snapshot_matches_conservation_identity(self):
        """Link hops == switch traversals minus ejections (per network docs)."""
        net = Network(Mesh.square(4))
        sampler = MetricsSampler()
        sampler.attach(net)
        run_traffic(net, 100, seed=6)
        sampler.finish(net)
        routed = sum(r.flits_routed for r in net.routers)
        assert sum(link_flits(sampler).values()) == routed - net.flits_ejected
