"""Differential fuzzing: random configs + full invariant checking.

Each fuzz case draws a random mesh/router/routing/traffic configuration,
runs it with every invariant enabled at ``check_interval=1`` (so any
bookkeeping drift is caught on the exact cycle it appears), and then
cross-checks the engine's aggregate counters against a
:class:`~repro.noc.stats.LatencyStats` built from the delivered packets —
the engine and the statistics layer must agree packet-for-packet.

The tier-1 run covers a handful of configs; the ``slow`` variant sweeps
``REPRO_FUZZ_CONFIGS`` (default 50) and is exercised by the nightly fuzz
CI job.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.latency import Mesh
from repro.noc import (
    FaultSchedule,
    InvariantConfig,
    LatencyStats,
    Network,
    NetworkConfig,
    RouterConfig,
    TransposeTraffic,
    UniformRandomTraffic,
)
from repro.utils.rng import stable_seed


def _random_case(rng: np.random.Generator, *, faults: bool):
    """One random (network, traffic, schedule, horizon) configuration."""
    side = int(rng.integers(3, 6))
    mesh = Mesh.square(side)
    vc_classes = int(rng.choice([1, 2]))
    vcs = vc_classes * int(rng.integers(1, 4))
    config = NetworkConfig(
        router=RouterConfig(
            vcs_per_port=vcs,
            vc_classes=vc_classes,
            buffer_depth=int(rng.integers(2, 7)),
            pipeline_depth=int(rng.integers(1, 4)),
        ),
        link_latency=int(rng.integers(1, 3)),
        routing=str(rng.choice(["xy", "yx", "west_first"])),
    )
    rate = float(rng.uniform(0.01, 0.08))
    length = int(rng.choice([1, 5]))
    seed = int(rng.integers(2**31))
    if rng.random() < 0.5:
        traffic = UniformRandomTraffic(mesh.n_tiles, rate, length=length, seed=seed)
    else:
        traffic = TransposeTraffic(
            mesh.n_tiles, rate, length=length, seed=seed, side=side
        )
    horizon = int(rng.integers(200, 600))
    schedule = None
    if faults:
        schedule = FaultSchedule.random(
            mesh,
            seed=seed,
            n_link_faults=int(rng.integers(1, 4)),
            n_stalls=int(rng.integers(0, 3)),
            horizon=horizon,
            max_window=horizon // 2,
            drop_rate=float(rng.choice([0.0, 0.005])),
        )
    return mesh, config, traffic, schedule, horizon


def _run_case(case_seed: int, *, faults: bool) -> None:
    rng = np.random.default_rng(case_seed)
    mesh, config, traffic, schedule, horizon = _random_case(rng, faults=faults)
    net = Network(
        mesh,
        config,
        faults=schedule,
        invariants=InvariantConfig(check_interval=1),
    )
    offered = 0
    for _ in range(horizon):
        for p in traffic.packets_for_cycle(net.now):
            net.submit(p)
            offered += 1
        net.step()  # any invariant violation raises right here
    net.drain()
    net.assert_conserved()

    # Differential accounting: engine counters vs the stats layer.
    stats = LatencyStats(
        latency=[p.latency for p in net.delivered],
        app=[p.app for p in net.delivered],
        tclass=[p.traffic_class for p in net.delivered],
        src=[p.src for p in net.delivered],
        dst=[p.dst for p in net.delivered],
    )
    assert stats.n_packets == len(net.delivered)
    assert len(net.delivered) + len(net.lost_packets) == offered
    network_flits = sum(
        p.length for p in net.delivered if p.src != p.dst
    )
    if schedule is None:
        assert net.flits_dropped == 0
        assert net.flits_ejected == net.flits_injected == network_flits
    else:
        # Retried packets eject once per successful attempt's worth of
        # flits; drops account for the rest.
        assert net.flits_injected == net.flits_ejected + net.flits_dropped
    if stats.n_packets:
        assert stats.overall().count == stats.n_packets
        assert min(p.latency for p in net.delivered) >= 0


@pytest.mark.parametrize("case", range(4))
def test_fuzz_clean_network(case: int):
    _run_case(stable_seed("fuzz-clean", str(case)), faults=False)


@pytest.mark.parametrize("case", range(4))
def test_fuzz_faulted_network(case: int):
    _run_case(stable_seed("fuzz-faults", str(case)), faults=True)


@pytest.mark.slow
def test_fuzz_sweep():
    """The long sweep: half clean, half faulted (nightly CI budget)."""
    n = int(os.environ.get("REPRO_FUZZ_CONFIGS", "50"))
    for case in range(n):
        _run_case(stable_seed("fuzz-sweep", str(case)), faults=case % 2 == 1)
