"""Validate the analytic TC/TM latency model against the cycle simulator.

The paper derives per-tile latency arrays from hop counts (eqs. 2-4) and
feeds them to the mapping algorithms; its evaluation then measures real
latencies under Garnet.  This example closes the same loop with our
cycle-level NoC: inject a mapped workload's traffic, measure per-source
mean latency, and compare against ``TC(k)``.

Run:  python examples/noc_validation.py
"""

import numpy as np

from repro import Mapping, Mesh, MeshLatencyModel, OBMInstance
from repro.core.workload import Application, Workload
from repro.cli import run_main
from repro.noc import MappedWorkloadTraffic, NoCSimulator, TrafficClass
from repro.utils.text import format_table, heatmap_to_text


def main() -> None:
    mesh = Mesh.square(4)
    model = MeshLatencyModel(mesh)
    apps = (
        Application.uniform("alpha", 8, cache_rate=12.0, mem_rate=2.0),
        Application.uniform("beta", 8, cache_rate=12.0, mem_rate=2.0),
    )
    instance = OBMInstance(model, Workload(apps))
    mapping = Mapping(np.arange(16))

    traffic = MappedWorkloadTraffic(instance, mapping, cycles_per_unit=1000, seed=0)
    sim = NoCSimulator(mesh, traffic)
    print("running 20k measured cycles of cycle-level simulation ...")
    result = sim.run(warmup=2_000, measure=20_000)

    # Per-source-tile measured mean latency of cache traffic.
    stats = result.stats
    cache = ~np.isin(stats.tclass, [c for c in TrafficClass if c.is_memory])
    sums = np.bincount(stats.src[cache], weights=stats.latency[cache], minlength=16)
    counts = np.bincount(stats.src[cache], minlength=16)
    measured = sums / np.maximum(counts, 1)

    rows = [
        [k, model.cache_hops[k], model.tc[k], measured[k]]
        for k in range(16)
    ]
    print(
        format_table(
            ["tile", "HC(k) hops", "analytic TC(k)", "measured mean"],
            rows,
            float_fmt="{:.2f}",
        )
    )

    corr = np.corrcoef(model.tc, measured)[0, 1]
    slope, intercept = np.polyfit(model.tc, measured, 1)
    print(f"\ncorrelation(TC, measured) = {corr:.4f}")
    print(
        f"measured = {slope:.3f} * TC + {intercept:.2f}  "
        "(slope ~ 1: same per-hop cost; the intercept is the destination-\n"
        "router pipeline the analytic model folds into its convention)"
    )
    print(f"\nmeasured latency heat map (packets from each tile):")
    print(heatmap_to_text(measured.reshape(4, 4)))
    print(f"\nNoC dynamic power during the window: {result.power.dynamic * 1e3:.1f} mW")


if __name__ == "__main__":
    run_main(main)
