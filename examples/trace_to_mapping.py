"""Full pipeline: address traces -> cache hierarchy -> OBM rates -> mapping.

The paper derives per-thread request rates from Simics/GEMS full-system
traces.  This example does the equivalent with the built-in substrates:

1. generate synthetic PARSEC-personality address traces,
2. run them through the private-L1 / shared-L2 / MOESI hierarchy to obtain
   per-thread cache and memory request rates,
3. solve the OBM problem with Global and SSS on those rates, and
4. replay the mapped traffic through the cycle-level NoC to confirm the
   balance improvement shows up in *measured* packet latencies.

Run:  python examples/trace_to_mapping.py
"""

from repro import Mesh, MeshLatencyModel, OBMInstance, global_mapping, sort_select_swap
from repro.cli import run_main
from repro.cmp import workload_from_traces
from repro.noc import MappedWorkloadTraffic, NoCSimulator
from repro.utils.text import format_table


def measured_apls(instance, mapping, label):
    # Scale "unit time" so the busiest thread injects at 5% per cycle —
    # well below saturation, like the paper's operating point.
    wl = instance.workload
    peak = float((wl.cache_rates + wl.mem_rates).max())
    traffic = MappedWorkloadTraffic(
        instance, mapping, cycles_per_unit=peak / 0.05, seed=7
    )
    sim = NoCSimulator(instance.mesh, traffic)
    result = sim.run(warmup=1_000, measure=12_000)
    apls = result.stats.apl_by_app()
    print(f"  {label}: measured per-app APLs:",
          {k: round(v, 2) for k, v in apls.items()})
    return apls


def main() -> None:
    print("step 1+2: tracing four benchmarks through the memory hierarchy ...")
    workload = workload_from_traces(
        ["canneal", "streamcluster", "swaptions", "blackscholes"],
        threads_per_app=16,
        accesses_per_thread=3_000,
        seed=42,
    ).sorted_by_traffic()
    print(workload.summary())
    ratio = workload.cache_rates.sum() / workload.mem_rates.sum()
    print(f"cache:memory traffic ratio from the hierarchy: {ratio:.2f} "
          "(paper: 6.78)\n")

    print("step 3: solving the OBM problem ...")
    model = MeshLatencyModel(Mesh.square(8))
    instance = OBMInstance(model, workload)
    glob = global_mapping(instance)
    sss = sort_select_swap(instance)
    rows = [
        ["Global", glob.max_apl, glob.dev_apl, glob.g_apl],
        ["SSS", sss.max_apl, sss.dev_apl, sss.g_apl],
    ]
    print(format_table(["algorithm", "max-APL", "dev-APL", "g-APL"], rows))
    print()

    print("step 4: replaying both mappings through the cycle-level NoC ...")
    g_meas = measured_apls(instance, glob.mapping, "Global")
    s_meas = measured_apls(instance, sss.mapping, "SSS")
    g_spread = max(g_meas.values()) - min(g_meas.values())
    s_spread = max(s_meas.values()) - min(s_meas.values())
    print(
        f"\nmeasured APL spread across applications: Global {g_spread:.2f} "
        f"cycles vs SSS {s_spread:.2f} cycles"
    )


if __name__ == "__main__":
    run_main(main)
