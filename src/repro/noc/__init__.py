"""Cycle-level wormhole mesh NoC simulator (the paper's Garnet substitute).

A 3-stage-pipeline, virtual-channel, credit-flow-controlled router model
on a 2-D mesh with XY routing, plus traffic generators driven by OBM
workloads/mappings, latency statistics, and a DSENT-style activity-based
power model.  Used to validate the analytic ``TC``/``TM`` latency model
and to reproduce the measured-power comparison of Figure 11.
"""

from repro.noc.closedloop import (
    ClosedLoopConfig,
    ClosedLoopResult,
    ClosedLoopSimulator,
)
from repro.noc.faults import (
    FaultConfig,
    FaultManager,
    FaultSchedule,
    LinkDownWindow,
    RouterStallWindow,
    detour_port,
)
from repro.noc.invariants import InvariantChecker, InvariantConfig, InvariantViolation
from repro.noc.network import Network, NetworkConfig, NetworkInterface
from repro.noc.packet import Flit, Packet, TrafficClass
from repro.noc.power import ActivityCounts, PowerBreakdown, PowerModel, PowerParams
from repro.noc.router import Router, RouterConfig, VirtualChannel
from repro.noc.routing import (
    ROUTE_FUNCTIONS,
    Port,
    route_path,
    west_first_route,
    xy_route,
    yx_route,
)
from repro.noc.simulator import NoCSimulator, SimulationResult
from repro.noc.stats import FaultStats, LatencyStats, LatencySummary
from repro.noc.traffic import (
    MappedWorkloadTraffic,
    NearestMCTraffic,
    TrafficGenerator,
    TransposeTraffic,
    UniformRandomTraffic,
)
from repro.noc.vector_engine import VectorEngine, run_batch, simulate_batch

__all__ = [
    "ActivityCounts",
    "ClosedLoopConfig",
    "ClosedLoopResult",
    "ClosedLoopSimulator",
    "FaultConfig",
    "FaultManager",
    "FaultSchedule",
    "FaultStats",
    "Flit",
    "InvariantChecker",
    "InvariantConfig",
    "InvariantViolation",
    "LatencyStats",
    "LatencySummary",
    "LinkDownWindow",
    "RouterStallWindow",
    "MappedWorkloadTraffic",
    "NearestMCTraffic",
    "Network",
    "NetworkConfig",
    "NetworkInterface",
    "NoCSimulator",
    "Packet",
    "Port",
    "ROUTE_FUNCTIONS",
    "PowerBreakdown",
    "PowerModel",
    "PowerParams",
    "Router",
    "RouterConfig",
    "SimulationResult",
    "TrafficClass",
    "TrafficGenerator",
    "TransposeTraffic",
    "UniformRandomTraffic",
    "VectorEngine",
    "VirtualChannel",
    "detour_port",
    "route_path",
    "run_batch",
    "simulate_batch",
    "west_first_route",
    "xy_route",
    "yx_route",
]
