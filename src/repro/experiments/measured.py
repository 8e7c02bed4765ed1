"""Simulation-measured APL comparison (the paper's actual methodology).

The paper's evaluation numbers come from Garnet *measurements*, not from
the analytic model its algorithms optimise.  This harness does the same
with our cycle-level NoC: it takes the mappings produced by the four
algorithms, injects each configuration's traffic (requests + 5-flit
replies), and reports per-application APLs measured from delivered
packets.  Agreement between the analytic and measured columns — both in
ordering and near-absolute cycles — is the strongest validation this
reproduction offers.

Both replays run as one :func:`repro.noc.simulate_batch` call, which is
bit-identical to running each mapping alone through ``NoCSimulator``.
"""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentReport,
    run_algorithms,
    standard_instance,
)
from repro.noc import simulate_batch
from repro.utils.text import format_table

__all__ = ["measured_apl_comparison"]


def measured_apl_comparison(
    config_name: str = "C1",
    *,
    algorithms: tuple[str, ...] = ("Global", "SSS"),
    cycles: int = 20_000,
    fast: bool = False,
) -> ExperimentReport:
    """Analytic vs measured per-application APLs for chosen algorithms.

    Each algorithm's mapping is replayed with seed 13 and request/reply
    traffic, the busiest thread injecting at 4% per cycle (below
    saturation), for ``max(500, cycles // 10)`` warm-up cycles and then
    ``cycles`` measured ones.
    """
    if fast:
        cycles = min(cycles, 4_000)
    instance = standard_instance(config_name)
    results = run_algorithms(
        instance, fast=fast, seed_tag=config_name, algorithms=algorithms
    )
    pairs = [(instance, results[alg].mapping) for alg in algorithms]
    sims = simulate_batch(
        pairs, seeds=[13] * len(pairs), warmup=max(500, cycles // 10), measure=cycles
    )
    rows = []
    data = {}
    for alg, sim in zip(algorithms, sims):
        stats = sim.stats
        measured = stats.apl_by_app()
        analytic = results[alg].evaluation.apls
        for app, m_apl in sorted(measured.items()):
            rows.append([alg, f"app {app + 1}", float(analytic[app]), m_apl])
        data[alg] = {
            "analytic_max": results[alg].max_apl,
            "measured_max": stats.max_apl(),
            "analytic_dev": results[alg].dev_apl,
            "measured_dev": stats.dev_apl(),
            "measured_by_app": measured,
            "measured_percentiles": stats.percentiles_by_app(),
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
    )
