"""Calibrate the analytic latency model from cycle-level measurements.

The paper quotes its ``td_q`` (0-1 cycles) as "observed in the
simulation"; this module performs that observation.  Injecting uniform
traffic at a chosen load and regressing measured packet latency against
hop count recovers the per-hop cost (``td_r + td_w + td_q``) and the
hop-independent residual; subtracting the known router/link/serialization
terms isolates the average queuing delay, which is fed back into
:class:`~repro.core.latency.LatencyParams`.

This is how the repository's default ``td_q = 0.2`` was chosen, and the
function lets users re-derive it for any router configuration or load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.latency import LatencyParams, Mesh
from repro.noc.network import NetworkConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import UniformRandomTraffic

__all__ = ["CalibrationResult", "measure_queuing_delay", "calibrated_params"]


@dataclass(frozen=True)
class CalibrationResult:
    """Regression of measured latency against hop count."""

    per_hop: float  #: measured slope = td_r + td_w + td_q
    intercept: float  #: hop-independent overhead (destination pipeline + ts)
    td_q: float  #: per-hop queuing inferred against the configured router
    n_packets: int
    injection_rate: float

    def params(self, base: LatencyParams | None = None) -> LatencyParams:
        """Latency parameters with the measured ``td_q`` substituted."""
        base = base or LatencyParams()
        return base.with_(td_q=max(0.0, self.td_q))


def measure_queuing_delay(
    mesh: Mesh | int = 8,
    injection_rate: float = 0.02,
    cycles: int = 8_000,
    warmup: int = 1_000,
    network_config: NetworkConfig | None = None,
    packet_length: int = 1,
    seed=0,
) -> CalibrationResult:
    """Run uniform traffic and regress latency on hops.

    ``injection_rate`` is per node per cycle; keep it below saturation
    (~0.05 for an 8x8 mesh with single-flit packets) for the linear model
    to hold — the function raises if deliveries lag offered load badly.
    """
    if isinstance(mesh, int):
        mesh = Mesh.square(mesh)
    network_config = network_config or NetworkConfig()
    traffic = UniformRandomTraffic(
        n_tiles=mesh.n_tiles, injection_rate=injection_rate,
        length=packet_length, seed=seed,
    )
    stats = NoCSimulator(mesh, traffic, network_config).run(warmup, cycles).stats
    if stats.n_packets < 100:
        raise ValueError(
            f"only {stats.n_packets} measured packets; increase cycles or rate"
        )
    hops = mesh.hop_matrix[stats.src, stats.dst].astype(float)
    slope, intercept = np.polyfit(hops, stats.latency.astype(float), 1)

    router = network_config.router
    base_per_hop = router.pipeline_depth + network_config.link_latency
    td_q = float(slope) - base_per_hop
    return CalibrationResult(
        per_hop=float(slope),
        intercept=float(intercept),
        td_q=td_q,
        n_packets=stats.n_packets,
        injection_rate=injection_rate,
    )


def calibrated_params(
    mesh: Mesh | int = 8,
    injection_rate: float = 0.02,
    base: LatencyParams | None = None,
    **kwargs,
) -> LatencyParams:
    """One-call convenience: measured-``td_q`` latency parameters."""
    result = measure_queuing_delay(mesh, injection_rate, **kwargs)
    return result.params(base)
