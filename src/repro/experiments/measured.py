"""Simulation-measured APL comparison (the paper's actual methodology).

The paper's evaluation numbers come from Garnet *measurements*, not from
the analytic model its algorithms optimise.  This harness does the same
with our cycle-level NoC: it takes the mappings produced by the four
algorithms, injects each configuration's traffic (requests + 5-flit
replies), and reports per-application APLs measured from delivered
packets.  Agreement between the analytic and measured columns — both in
ordering and near-absolute cycles — is the strongest validation this
reproduction offers.

Cells return a JSON-safe *payload* (per-app APLs, max/dev, percentiles)
rather than the raw :class:`~repro.noc.stats.LatencyStats`, so a
:class:`~repro.experiments.resilience.RunLedger` can journal each
replay as it completes and a re-launched run resumes from the journal
with byte-identical output.
"""

from __future__ import annotations

import time

from repro.experiments.base import (
    ExperimentReport,
    run_algorithms,
    standard_instance,
)
from repro.experiments.parallel import parallel_map
from repro.experiments.resilience import RunReport
from repro.noc.simulator import NoCSimulator
from repro.noc.stats import LatencyStats
from repro.noc.traffic import MappedWorkloadTraffic
from repro.utils.text import format_table

__all__ = ["measured_apl_comparison"]


def _stats_payload(stats: LatencyStats) -> dict:
    """JSON-safe slice of one replay's measurements (ledger-journalable)."""
    return {
        "apl_by_app": {str(app): apl for app, apl in stats.apl_by_app().items()},
        "max_apl": stats.max_apl(),
        "dev_apl": stats.dev_apl(),
        "percentiles_by_app": {
            str(app): p for app, p in stats.percentiles_by_app().items()
        },
    }


def _measure_cell(cell) -> dict:
    """One per-algorithm NoC replay — the expensive, independent unit."""
    instance, mapping, cycles, seed = cell
    return _stats_payload(_measure(instance, mapping, cycles=cycles, seed=seed))


def _traffic(instance, mapping, seed: int) -> MappedWorkloadTraffic:
    wl = instance.workload
    peak = float((wl.cache_rates + wl.mem_rates).max())
    return MappedWorkloadTraffic(
        instance,
        mapping,
        # Busiest thread at 4% injection probability: below saturation.
        cycles_per_unit=max(1000.0, peak / 0.04),
        generate_replies=True,
        seed=seed,
    )


def _measure(instance, mapping, *, cycles: int, seed: int) -> LatencyStats:
    traffic = _traffic(instance, mapping, seed)
    sim = NoCSimulator(instance.mesh, traffic)
    warmup = max(500, cycles // 10)
    result = sim.run(warmup=warmup, measure=cycles)
    return result.stats


def measured_apl_comparison(
    config_name: str = "C1",
    *,
    algorithms: tuple[str, ...] = ("Global", "SSS"),
    cycles: int = 20_000,
    fast: bool = False,
    workers: int = 1,
    ledger=None,
    max_cells: int | None = None,
) -> ExperimentReport:
    """Analytic vs measured per-application APLs for chosen algorithms.

    Each algorithm's cycle-level replay is an independent simulation with
    a fixed seed on the simulator's default (vector) engine, so
    ``workers > 1`` fans them across processes without changing a single
    measured number.

    ``ledger`` journals each completed replay (keyed by algorithm name)
    for crash-safe resume.
    """
    if fast:
        cycles = min(cycles, 4_000)
    run_report = RunReport()
    t0 = time.perf_counter()
    instance = standard_instance(config_name)
    results = run_algorithms(
        instance, fast=fast, seed_tag=config_name, algorithms=algorithms
    )
    cells = [(instance, results[alg].mapping, cycles, 13) for alg in algorithms]
    try:
        payloads = parallel_map(
            _measure_cell,
            cells,
            workers=workers,
            ledger=ledger,
            cell_keys=list(algorithms),
            max_cells=max_cells,
            report=run_report,
        )
    finally:
        run_report.wall_seconds = time.perf_counter() - t0
    rows = []
    data = {}
    for alg, payload in zip(algorithms, payloads):
        measured = {int(app): apl for app, apl in payload["apl_by_app"].items()}
        analytic = results[alg].evaluation.apls
        for app, m_apl in sorted(measured.items()):
            rows.append([alg, f"app {app + 1}", float(analytic[app]), m_apl])
        data[alg] = {
            "analytic_max": results[alg].max_apl,
            "measured_max": payload["max_apl"],
            "analytic_dev": results[alg].dev_apl,
            "measured_dev": payload["dev_apl"],
            "measured_by_app": measured,
            "measured_percentiles": {
                int(app): p for app, p in payload["percentiles_by_app"].items()
            },
        }
    text = format_table(
        ["algorithm", "application", "analytic APL", "measured APL"],
        rows,
        title=f"analytic vs cycle-measured APLs on {config_name} "
        f"({cycles} measured cycles)",
        float_fmt="{:.2f}",
    )
    summary_rows = [
        [alg, d["analytic_max"], d["measured_max"], d["analytic_dev"], d["measured_dev"]]
        for alg, d in data.items()
    ]
    text += "\n\n" + format_table(
        ["algorithm", "max (analytic)", "max (measured)", "dev (analytic)", "dev (measured)"],
        summary_rows,
        float_fmt="{:.3f}",
    )
    return ExperimentReport(
        "measured",
        f"measured APLs on {config_name}",
        text,
        data,
        run_report=run_report,
    )
