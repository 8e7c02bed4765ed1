"""Activity-based NoC energy/power model (the DSENT substitute).

The paper estimates NoC power with DSENT at 45 nm / 1 V.  For the mapping
comparison only the *dynamic* component varies between mappings, and it
varies exactly through (a) how many flits are injected per unit time and
(b) how many routers/links each flit traverses — both functions of the
mapping.  This model charges representative 45 nm per-flit energies for
router traversal (buffering + arbitration + crossbar) and link traversal,
plus a per-router leakage term, giving the same functional dependence as
DSENT and therefore the same *relative* ordering of mappings (Figure 11).

Energy constants are per 128-bit flit and follow published 45 nm
NoC characterisations (~0.5--1 pJ/bit/hop split roughly 60/40 between
router and link at this technology node).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.latency import Mesh

__all__ = ["PowerParams", "ActivityCounts", "PowerModel", "PowerBreakdown"]

#: cycles per second at the paper's 2 GHz clock
DEFAULT_FREQUENCY_HZ = 2.0e9


@dataclass(frozen=True)
class PowerParams:
    """Per-event energies (joules) and leakage, 45 nm / 1 V, 128-bit flits."""

    e_router_traversal: float = 49e-12  #: arbitration + crossbar per flit per router
    e_buffer_write: float = 13e-12  #: input buffer write per flit
    e_buffer_read: float = 9e-12  #: input buffer read per flit
    e_link_traversal: float = 33e-12  #: per flit per mesh link (~1 mm at 45 nm)
    p_static_per_router: float = 4.5e-3  #: watts of leakage per router + its links
    frequency_hz: float = DEFAULT_FREQUENCY_HZ

    def __post_init__(self) -> None:
        for name in (
            "e_router_traversal",
            "e_buffer_write",
            "e_buffer_read",
            "e_link_traversal",
            "p_static_per_router",
            "frequency_hz",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ActivityCounts:
    """Raw event counts from a simulation window (or an analytic estimate)."""

    flit_router_traversals: int  #: total (flit, router) traversal events
    flit_link_traversals: int  #: total (flit, link) traversal events
    buffer_writes: int
    cycles: int

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("activity window must span at least one cycle")
        for name in ("flit_router_traversals", "flit_link_traversals", "buffer_writes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class PowerBreakdown:
    """Power in watts, split by component."""

    dynamic: float
    static: float

    @property
    def total(self) -> float:
        return self.dynamic + self.static


class PowerModel:
    """Turns activity counts into power numbers for a given mesh."""

    def __init__(self, mesh: Mesh, params: PowerParams | None = None) -> None:
        self.mesh = mesh
        self.params = params or PowerParams()

    def dynamic_energy(self, counts: ActivityCounts) -> float:
        """Total dynamic energy (joules) of the activity window."""
        p = self.params
        return (
            counts.flit_router_traversals * (p.e_router_traversal + p.e_buffer_read)
            + counts.buffer_writes * p.e_buffer_write
            + counts.flit_link_traversals * p.e_link_traversal
        )

    def power(self, counts: ActivityCounts) -> PowerBreakdown:
        """Average power over the window at the configured clock."""
        seconds = counts.cycles / self.params.frequency_hz
        dynamic = self.dynamic_energy(counts) / seconds
        static = self.params.p_static_per_router * self.mesh.n_tiles
        return PowerBreakdown(dynamic=dynamic, static=static)
