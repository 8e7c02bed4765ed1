"""Multi-tenant CMP: Poisson arrivals, remap policies, closed-loop check.

Combines three substrates the paper's dynamic-remapping claim implies but
never simulates:

1. a Poisson arrival/departure timeline over a PARSEC-like application
   pool (``repro.scheduler``),
2. two remap policies — never remap (first-fit) vs SSS-on-change — with
   time-weighted balance metrics, and
3. a closed-loop spot check: for one busy interval, blocking-thread
   simulation shows the mapping's effect on *achieved progress*, not just
   modelled latency.

Run:  python examples/multi_tenant_scheduling.py
"""

import numpy as np

from repro import Mesh, MeshLatencyModel, OBMInstance
from repro.cli import run_main
from repro.core.workload import Application, Workload
from repro.noc.closedloop import ClosedLoopSimulator
from repro.scheduler import (
    CMPScheduler,
    SSSRemapPolicy,
    StaticFirstFitPolicy,
    poisson_schedule,
)
from repro.utils.text import format_table
from repro.workloads import parsec_config


def build_pool():
    pool = []
    for cfg in ("C1", "C3"):
        for app in parsec_config(cfg, threads_per_app=16).applications:
            pool.append(Application(f"{cfg}-{app.name}", app.cache_rates, app.mem_rates))
    return pool


def main() -> None:
    model = MeshLatencyModel(Mesh.square(8))
    pool = build_pool()
    events = poisson_schedule(
        pool, horizon=400, mean_interarrival=25.0, mean_lifetime=90.0,
        max_concurrent=4, seed=7,
    )
    print(f"timeline: {sum(e.kind == 'arrive' for e in events)} arrivals, "
          f"{sum(e.kind == 'depart' for e in events)} departures over 400 epochs\n")

    rows = []
    results = {}
    for policy in (StaticFirstFitPolicy(), SSSRemapPolicy()):
        result = CMPScheduler(model, policy).run(events, horizon=400)
        results[policy.name] = result
        rows.append(
            [
                policy.name,
                result.time_weighted_max_apl(),
                result.time_weighted_dev_apl(),
                result.n_remaps,
                result.total_remap_seconds * 1e3,
            ]
        )
    print(
        format_table(
            ["policy", "time-weighted max-APL", "time-weighted dev-APL",
             "remaps", "total remap ms"],
            rows,
            title="remap-policy comparison",
            float_fmt="{:.3f}",
        )
    )

    # Closed-loop spot check on the busiest interval under each policy.
    busiest = max(
        (r for r in results["sss-on-change"].intervals if r.evaluation is not None),
        key=lambda r: len(r.running),
    )
    print(f"\nclosed-loop check on interval {busiest.start}-{busiest.end} "
          f"({len(busiest.running)} tenants):")
    by_name = {app.name: app for app in pool}
    apps = tuple(
        Application(instance_name, by_name[instance_name.rsplit("#", 1)[0]].cache_rates,
                    by_name[instance_name.rsplit("#", 1)[0]].mem_rates)
        for instance_name in busiest.running
    )
    workload = Workload(apps, name="busy")
    instance = OBMInstance(model, workload)
    from repro import global_mapping, sort_select_swap

    for label, mapping in (
        ("Global", global_mapping(instance).mapping),
        ("SSS", sort_select_swap(instance).mapping),
    ):
        sim = ClosedLoopSimulator(instance, mapping, seed=1)
        res = sim.run(6_000)
        print(
            f"  {label}: round-trip APL by app "
            f"{ {k: round(v, 1) for k, v in res.apl_by_app.items()} }, "
            f"progress spread {res.progress_spread():.3f}"
        )


if __name__ == "__main__":
    run_main(main)
